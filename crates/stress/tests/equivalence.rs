//! Fast-path / general-path equivalence suite.
//!
//! The RMA fast paths (unit-stride batched `iput`/`iget`, contiguous-
//! source borrows, direct temp drains) are pure optimizations: running
//! the same seeded `--gen 3` program with the fast paths disabled
//! (`fault::set_rma_fast_paths(false)`) must leave **identical heap and
//! static final state** and **identical per-PE `Stats` counters** on
//! the native and timed engines.
//!
//! State equality is enforced inside [`run_on_ctx`], which asserts every
//! PE's full view (heap copy, static segment, collective scratch,
//! recorded get streams, signal/atomic cells) against the sequential
//! oracle — both the fast and the general run must match that one
//! model, so they match each other. Stats are compared directly here.
//!
//! One `#[test]` on purpose: the fast-path switch is process-global, so
//! this binary must never run it in parallel with other tests.

use stress::program::{gen_program_v, RngDraw, GEN_V3};
use stress::run::{build_cfg, run_on_ctx};
use tshmem::fault;
use tshmem::{Launcher, Stats, TimedBackend};

fn stats_for(prog: &stress::program::Program, fast: bool) -> (Vec<Stats>, Vec<Stats>) {
    fault::set_rma_fast_paths(fast);
    let cfg = build_cfg(prog, Some(2));
    let native = tshmem::launch(&cfg, |ctx| {
        run_on_ctx(prog, ctx);
        ctx.stats()
    });
    let timed = Launcher::new(&cfg, TimedBackend).run(|ctx| {
        run_on_ctx(prog, ctx);
        ctx.stats()
    })
    .values;
    fault::set_rma_fast_paths(true);
    (native, timed)
}

#[test]
fn fast_and_general_paths_agree_on_state_and_stats() {
    for case in 0..2u64 {
        let prog = gen_program_v(&mut RngDraw::new(0x5EED + case, 0), 4, GEN_V3);
        // Each run oracle-checks its own final state internally.
        let (native_fast, timed_fast) = stats_for(&prog, true);
        let (native_gen, timed_gen) = stats_for(&prog, false);
        assert_eq!(
            native_fast, native_gen,
            "case {case}: native stats diverged between fast and general paths"
        );
        assert_eq!(
            timed_fast, timed_gen,
            "case {case}: timed stats diverged between fast and general paths"
        );
        // And the engines agree with each other on the logical op counts.
        assert_eq!(
            native_fast, timed_fast,
            "case {case}: native and timed stats diverged"
        );
    }
}
