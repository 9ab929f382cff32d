//! Tier-1 smoke run of the deterministic concurrency stress harness
//! (`crates/stress`): a small seeded sweep with the stall watchdog
//! armed, verifying generated programs against the sequential oracle.
//!
//! The full acceptance sweep (≥64 seeds over PE counts {2,3,4,8} ×
//! queue depths {1,2,8}) lives in `crates/stress/tests/smoke.rs`; this
//! keeps a representative slice in the tier-1 suite so a root-package
//! `cargo test` still exercises the harness end to end.

use std::time::Duration;

use stress::program::ProgramStrategy;
use stress::run::{run, Engine, Outcome};
use substrate::proptest_mini as pt;

#[test]
fn stress_harness_smoke_sweep() {
    for npes in [2usize, 4] {
        for depth in [1usize, 8] {
            let cfg = pt::Config { max_shrink_iters: 32, ..pt::Config::with_cases(3) };
            let seed = cfg.seed;
            pt::check(cfg, ProgramStrategy { npes }, |prog| {
                let hint = format!(
                    "cargo run -p stress -- --seed {seed:#x} --case <case reported above> \
                     --pes {npes} --depth {depth}"
                );
                match run(&prog, Some(depth), None, &Engine::Native, Duration::from_secs(10), &hint) {
                    Outcome::Completed => {}
                    Outcome::Stalled(report) => panic!("{report}"),
                }
            });
        }
    }
}

#[test]
fn stress_harness_unbounded_queues() {
    // Depth `None` leaves the UDN queues unbounded — the configuration
    // the non-stress tests run under.
    let cfg = pt::Config { max_shrink_iters: 32, ..pt::Config::with_cases(3) };
    pt::check(cfg, ProgramStrategy { npes: 3 }, |prog| {
        match run(&prog, None, None, &Engine::Native, Duration::from_secs(10), "unbounded smoke") {
            Outcome::Completed => {}
            Outcome::Stalled(report) => panic!("{report}"),
        }
    });
}
