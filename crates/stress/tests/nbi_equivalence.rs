//! Eager/lazy nbi completion equivalence: the same seeded gen-4
//! programs must reach the same oracle-verified final state — and the
//! same deterministic `Stats` — whether non-blocking operations
//! complete at issue (`fault::set_nbi_eager(true)`) or at the next
//! completion point (the shipping default). The knob routes through
//! `drain_pending` on the same code path, so a divergence means the
//! deferred plumbing (staging buffers, issue-order replay, temp
//! bump-allocation) changed observable semantics.
//!
//! One `#[test]` on purpose: the eager knob is process-global, so the
//! modes must never interleave across test threads.

use std::time::Duration;

use stress::program::{gen_program_v, RngDraw, GEN_LATEST};
use stress::run::{build_cfg, run_coop, run_multichip, run_on_ctx, run_timed, run_watched, Outcome};
use tshmem::{fault, Stats};

/// Run one program natively in the given mode and collect per-PE stats.
fn native_stats(prog: &stress::program::Program, eager: bool) -> Vec<Stats> {
    fault::set_nbi_eager(eager);
    let cfg = build_cfg(prog, None);
    let out = tshmem::launch(&cfg, |ctx| {
        run_on_ctx(prog, ctx);
        ctx.stats()
    });
    fault::set_nbi_eager(false);
    out
}

/// Failed `cswap` attempts (claim-loop retries) are timing-dependent;
/// everything else in `Stats` is deterministic per program.
fn normalized(mut s: Stats) -> Stats {
    s.cswap_retries = 0;
    s
}

#[test]
fn eager_and_lazy_nbi_completion_are_equivalent() {
    // --- Native: full per-PE Stats must match between modes (counters
    // are bumped at issue, and draining reuses the blocking paths). ---
    for case in 0..4u64 {
        let prog = gen_program_v(&mut RngDraw::new(0x4eb1, case), 4, GEN_LATEST);
        let lazy = native_stats(&prog, false);
        let eager = native_stats(&prog, true);
        assert_eq!(lazy.len(), eager.len());
        for (pe, (l, e)) in lazy.iter().zip(&eager).enumerate() {
            assert_eq!(
                normalized(*l),
                normalized(*e),
                "case {case} PE {pe}: eager and lazy nbi modes produced different op counts"
            );
        }
    }

    // --- All four engines: both modes must converge to the oracle
    // (run_on_ctx asserts every PE's view against it). ---
    for eager in [false, true] {
        fault::set_nbi_eager(eager);
        let mode = if eager { "eager" } else { "lazy" };
        for case in 4..7u64 {
            let prog = gen_program_v(&mut RngDraw::new(0x4eb1, case), 4, GEN_LATEST);
            let hint = format!("--seed 0x4eb1 --case {case} --pes 4 --gen {GEN_LATEST}");
            let runs: [(&str, Outcome); 4] = [
                ("native", run_watched(&prog, None, Duration::from_secs(20), &hint)),
                ("timed", run_timed(&prog, None, &hint)),
                ("multichip", run_multichip(&prog, None, &hint)),
                ("coop", run_coop(&prog, None, 2, Duration::from_secs(20), &hint)),
            ];
            for (engine, outcome) in runs {
                match outcome {
                    Outcome::Completed => {}
                    Outcome::Stalled(report) => {
                        fault::set_nbi_eager(false);
                        panic!("{engine} case {case} stalled in {mode} mode:\n{report}")
                    }
                }
            }
        }
        fault::set_nbi_eager(false);
    }
}
