//! Free vs gated admission on seeded generator programs: the native
//! engine and the coop engine are one wall-clock data plane, and the
//! admission policy may decide only *when* a context touches the fabric
//! — never what an operation does or counts (DESIGN.md §6).
//!
//! So the same program on `NativeBackend`, on `CoopBackend` with a
//! worker per PE (every gate uncontended by other PEs) and on
//! `CoopBackend` with one worker (every context behind a single gate)
//! must reach the sequential oracle's final heap, static and counter
//! state — [`run_on_ctx`] asserts that inside every launch — and must
//! report equal API-level `Stats`: `atomics`, `barriers`, `quiets`,
//! `fences` and `collectives` on every arm.
//!
//! Raw `puts`/`gets` also count the copies a collective makes on the
//! caller's behalf, and who makes them depends on the transport: with
//! several PEs behind one gate the coop engine's default collectives
//! take the counter-cell pass (`ShmemCtx::select`), where a leader does
//! its whole cluster's copies. So they are compared only where both
//! sides run the same transport — `workers == npes`, one PE per worker,
//! which the selection function leaves on the flat algorithms the
//! native engine runs. `redirected`/`locality_hits` are never compared
//! (gated admission turns same-worker redirects into direct copies).

use stress::program::{gen_program_v, Program, RngDraw, GEN_LATEST};
use stress::run::{build_cfg, run_on_ctx};
use tshmem::prelude::*;
use tshmem::{EngineBackend, Stats};

const SEED: u64 = 0x57414C4C45513136;
const SEEDS: u64 = 8;

fn stats_on(backend: impl EngineBackend, prog: &Program, depth: Option<usize>) -> Vec<Stats> {
    Launcher::new(&build_cfg(prog, depth), backend)
        .run(|ctx| {
            run_on_ctx(prog, ctx);
            ctx.stats()
        })
        .values
}

/// What the admission policy must leave alone on any transport.
fn api_counts(s: &Stats) -> [u64; 5] {
    [s.atomics, s.barriers, s.quiets, s.fences, s.collectives]
}

/// What it must also leave alone when the collectives' transport is
/// the same on both sides.
fn copy_counts(s: &Stats) -> [u64; 2] {
    [s.puts, s.gets]
}

#[test]
fn free_and_gated_admission_agree_on_state_and_api_stats() {
    for case in 0..SEEDS {
        for npes in [2usize, 5, 8] {
            let prog = gen_program_v(&mut RngDraw::new(SEED, case), npes, GEN_LATEST);
            for depth in [Some(2), None] {
                let native = stats_on(NativeBackend, &prog, depth);
                for workers in [npes, 1] {
                    let backend = CoopBackend { workers, ..Default::default() };
                    let gated = stats_on(backend, &prog, depth);
                    for (pe, (a, b)) in native.iter().zip(&gated).enumerate() {
                        assert_eq!(
                            api_counts(a),
                            api_counts(b),
                            "seed {SEED:#x} case {case} npes {npes} depth {depth:?} PE {pe}: \
                             native and coop({workers} workers) counted different operations"
                        );
                        if workers == npes {
                            assert_eq!(
                                copy_counts(a),
                                copy_counts(b),
                                "seed {SEED:#x} case {case} npes {npes} depth {depth:?} PE {pe}: \
                                 native and coop(one PE per worker) made different copies"
                            );
                        }
                    }
                }
            }
        }
    }
}
