//! Regenerate the TSHMEM paper's tables and figures.
//!
//! ```text
//! cargo run --release -p microbench -- [--quick] [--full] [--out DIR] [ids...]
//! ```
//!
//! With no ids, every artifact is produced: `table1 table2 table3 fig3
//! fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//! ablations`. Output is TSV on stdout; `--out DIR` additionally writes
//! one `<id>.tsv` per artifact. `--quick` shrinks sweeps for smoke
//! runs; `--full` uses the paper's exact scales everywhere (22,000 CBIR
//! images). Everything runs under virtual time, so the default-scale
//! output is a pure function of the source: `tools/check_hermetic.sh`
//! regenerates it and diffs it against the committed `figures/`.

use std::io::Write;

use microbench::{ablation, appmodel, barrier, collectives, memcpy, putget, series::Figure, tables, udnlat};
use tile_arch::device::Device;

struct Opts {
    quick: bool,
    full: bool,
    out: Option<String>,
    ids: Vec<String>,
}

const IDS: [&str; 16] = [
    "table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14", "ablations",
];

/// A typo must not pass the figure gate: anything unparseable exits 2.
fn usage(problem: &str) -> ! {
    eprintln!("microbench: {problem}");
    eprintln!("usage: microbench [--quick] [--full] [--out DIR] [ids...]\nids: {}", IDS.join(" "));
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        full: false,
        out: None,
        ids: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--full" => opts.full = true,
            "--out" => match args.next() {
                Some(dir) => opts.out = Some(dir),
                None => usage("--out needs a directory"),
            },
            id if IDS.contains(&id) => opts.ids.push(a),
            other => usage(&format!("unknown id or option {other}")),
        }
    }
    if opts.ids.is_empty() {
        opts.ids = IDS.iter().map(|s| s.to_string()).collect();
    }
    opts
}

fn emit_text(opts: &Opts, id: &str, text: &str) {
    println!("{text}");
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).expect("create output dir");
        let mut f = std::fs::File::create(format!("{dir}/{id}.tsv")).expect("create file");
        f.write_all(text.as_bytes()).expect("write file");
    }
}

fn emit(opts: &Opts, fig: &Figure) {
    emit_text(opts, &fig.id, &fig.to_tsv());
}

fn main() {
    let opts = parse_args();
    let gx = Device::tile_gx8036();

    // Sweep scales.
    let memcpy_max: u64 = if opts.quick { 4 << 20 } else { 64 << 20 };
    let putget_max: usize = if opts.quick { 1 << 20 } else { 4 << 20 };
    let coll_sizes: Vec<usize> = if opts.quick {
        vec![16 << 10, 256 << 10]
    } else {
        collectives::default_sizes()
    };
    let coll_tiles = if opts.quick { 16 } else { 36 };
    let fft_n = if opts.quick { 256 } else { 1024 };
    let cbir_images = if opts.full {
        22_000
    } else if opts.quick {
        220
    } else {
        2_200
    };
    let app_pes = if opts.quick { 16 } else { 32 };

    for id in &opts.ids {
        eprintln!("[microbench] generating {id} ...");
        match id.as_str() {
            "table1" => {
                let mut t = String::from("# Table I: basic OpenSHMEM subset coverage\ncategory\tfunction\trust path\n");
                for (c, f, p) in tables::table1() {
                    t.push_str(&format!("{c}\t{f}\t{p}\n"));
                }
                emit_text(&opts, "table1", &t);
            }
            "table2" => emit_text(&opts, "table2", &tables::table2()),
            "table3" => emit_text(&opts, "table3", &udnlat::table3_text()),
            "fig3" => {
                let mut fig = memcpy::fig3_device(&gx, memcpy_max);
                fig.series
                    .extend(memcpy::fig3_device(&Device::tilepro64(), memcpy_max).series);
                emit(&opts, &fig);
            }
            "fig4" => {
                emit(&opts, &udnlat::fig4());
                emit(&opts, &udnlat::effective_throughput());
            }
            "fig5" => emit(&opts, &barrier::fig5()),
            "fig6" => emit(&opts, &putget::fig6(putget_max)),
            "fig7" => emit(&opts, &putget::fig7(putget_max)),
            "fig8" => emit(&opts, &barrier::fig8()),
            "fig9" => emit(&opts, &collectives::fig9(coll_sizes.clone(), coll_tiles)),
            "fig10" => emit(&opts, &collectives::fig10(coll_sizes.clone(), coll_tiles)),
            "fig11" => emit(&opts, &collectives::fig11(coll_sizes.clone(), coll_tiles)),
            "fig12" => emit(&opts, &collectives::fig12(coll_sizes.clone(), coll_tiles)),
            "fig13" => emit(&opts, &appmodel::fig13(fft_n, app_pes)),
            "fig14" => emit(&opts, &appmodel::fig14(cbir_images, app_pes)),
            "ablations" => {
                let tiles = if opts.quick {
                    vec![4usize, 16]
                } else {
                    vec![4usize, 8, 16, 24, 32, 36]
                };
                emit(&opts, &ablation::ablation_barrier(gx, coll_tiles));
                emit(&opts, &ablation::ablation_broadcast(gx, 256 << 10, &tiles));
                emit(&opts, &ablation::ablation_reduce(gx, 256 << 10, &tiles));
                emit(
                    &opts,
                    &ablation::ablation_homing(gx, 256 << 10, &[1, 2, 4, 8, 16, 24, 32, 35]),
                );
                emit(&opts, &ablation::ablation_multichip(16, 256 << 10));
            }
            other => unreachable!("parse_args admits only IDS, got {other}"),
        }
    }
    eprintln!("[microbench] done");
}
