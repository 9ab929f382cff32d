//! `tshmem-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! runs one workload and prints its provenance line and, last, its
//! result line. `compare A B` judges two sets of saved run outputs;
//! `manifest` prints `BENCHMARK.json` from the registry.

use std::path::PathBuf;

use tshmem_benchmark::harness::{self, RunArgs};
use tshmem_benchmark::{compare, registry};

fn usage() -> ! {
    eprintln!(
        "usage: tshmem-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--quick] [--out-dir DIR]\n\
         \x20      tshmem-benchmark compare A B\n\
         \x20      tshmem-benchmark manifest\n\
         workloads: {}",
        registry::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", registry::manifest_json());
            return;
        }
        Some("compare") => {
            let sides: Vec<PathBuf> = argv[1..].iter().map(PathBuf::from).collect();
            let [a, b] = sides.as_slice() else { usage() };
            match compare::run(a, b) {
                Ok(any_worse) => std::process::exit(i32::from(any_worse)),
                Err(e) => {
                    eprintln!("tshmem-benchmark compare: {e}");
                    std::process::exit(2);
                }
            }
        }
        _ => {}
    }
    let mut args = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: f64::from(registry::RUN_SECONDS),
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = val(),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(val()),
            "--quick" => args.quick = true,
            _ => usage(),
        }
    }
    if args.workload.is_empty() {
        usage();
    }
    match harness::run(&args) {
        Ok(report) => {
            println!("{}", report.provenance);
            println!("{}", report.result_line());
        }
        Err(e) => {
            eprintln!("tshmem-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
