//! Native-vs-timed equivalence: the engine an application links and the
//! engine the paper's figures come from run the same protocol code, so
//! one seeded program must leave identical state and identical per-PE
//! `Stats` on both — every counter, `redirected` and the raw copy
//! counts included.
//!
//! The native engine offers the locality capability and the timed one
//! does not, so this binary turns it off (`fault::set_coop_locality`):
//! native transfers then take the channel/protocol path and native
//! collectives the flat algorithms the timed engine runs. The
//! locality-on native geometry is held to its locality-off self by
//! `locality_equivalence.rs`. Its own test binary, as that one is,
//! because the knob is process-global.

use stress::program::{gen_program, RngDraw};
use stress::run::{build_cfg, run_on_ctx};
use tshmem::prelude::*;
use tshmem::{EngineBackend, Stats};

fn stats_on(backend: impl EngineBackend, cfg: &RuntimeConfig, prog: &stress::program::Program) -> Vec<Stats> {
    Launcher::new(cfg, backend)
        .run(|ctx| {
            run_on_ctx(prog, ctx);
            ctx.stats()
        })
        .values
}

/// Seeds 0x5EFA and 0x5EFC, as the RMA fast-path suite: programs that
/// draw unit-stride and strided `iput`/`iget` besides the rest of the
/// vocabulary (0x5EFA an `fcollect` too).
#[test]
fn native_and_timed_agree_on_state_and_stats() {
    tshmem::fault::set_coop_locality(false);
    for seed in [0x5EFAu64, 0x5EFC] {
        let prog = gen_program(&mut RngDraw::new(seed, 0), 4);
        let cfg = build_cfg(&prog, Some(2));
        let native = stats_on(NativeBackend, &cfg, &prog);
        let timed = stats_on(TimedBackend, &cfg, &prog);
        assert_eq!(native, timed, "seed {seed:#x}: native and timed stats diverged");
    }
}
