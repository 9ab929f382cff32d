//! Print the step list of one generated stress program — the first
//! thing to look at when a `(seed, case, pes)` replay stalls or
//! diverges, before reaching for the watchdog report:
//!
//! ```text
//! cargo run -p stress --example dump -- 0x52 2 4
//! cargo run -p stress --example dump -- 0x52 2 256 0   # coop, auto workers
//! ```
//!
//! The optional fourth argument is the coop worker count (0 = auto).
//! The dump resolves it with the same rule the backend applies and
//! bakes the concrete M into the replay hint, so pasting the hint on a
//! host with a different core count reproduces the identical run —
//! stall windows scale with oversubscription, which depends on M.

use stress::program::{gen_program, RngDraw, Step};
use stress::run::resolve_coop_workers;

fn main() {
    let a: Vec<String> = std::env::args().skip(1).collect();
    if a.len() != 3 && a.len() != 4 {
        eprintln!("usage: dump <hex-seed> <case> <pes> [workers]");
        std::process::exit(2);
    }
    let seed = u64::from_str_radix(a[0].trim_start_matches("0x"), 16).unwrap();
    let case: u64 = a[1].parse().unwrap();
    let pes: usize = a[2].parse().unwrap();
    let prog = gen_program(&mut RngDraw::new(seed, case), pes);
    let workers = a.get(3).map(|w| resolve_coop_workers(w.parse().unwrap(), pes));
    println!("temp={}B algos={:?} steps={}", prog.temp_bytes, prog.algos, prog.steps.len());
    let engine = match workers {
        Some(m) => format!(" --engine coop --workers {m}"),
        None => String::new(),
    };
    println!(
        "replay: cargo run -p stress -- --seed {seed:#x} --case {case} --pes {pes}{engine}"
    );
    for (i, s) in prog.steps.iter().enumerate() {
        let name = match s {
            Step::Rma { .. } => "Rma".into(),
            Step::Coll { kind, set, .. } => format!("Coll {kind:?} set={set:?}"),
            Step::Lock { rounds } => format!("Lock rounds={rounds}"),
            Step::SignalRing { rounds } => format!("SignalRing rounds={rounds}"),
            Step::CswapRing { rounds } => format!("CswapRing rounds={rounds}"),
            Step::HeapChurn { .. } => "HeapChurn".into(),
            Step::NbiTrain { .. } => "NbiTrain".into(),
            Step::SignalChain { rounds, idx, add } => {
                format!("SignalChain rounds={rounds} idx={idx} add={add}")
            }
            Step::TeamColl { kind, split, .. } => format!("TeamColl {kind:?} split={split:?}"),
        };
        println!("step {i}: {name}");
    }
}
