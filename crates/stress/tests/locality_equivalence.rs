//! Locality-on vs locality-off equivalence on seeded programs under
//! the wall-clock admission gate: the coop engine, and with a worker
//! per PE the native engine's geometry.
//!
//! The same-worker fast paths (direct peer copies and the counter-cell
//! pass under the default collectives) are pure transport
//! substitutions: with `fault::set_coop_locality` flipped off, every
//! RMA takes the channel/protocol path instead and every collective the
//! flat algorithm it is configured with, and both runs must leave **identical heap, static, and collective-scratch state**
//! (enforced against the sequential oracle inside [`run_on_ctx`], which
//! both runs must satisfy) and identical **API-level `Stats`**. The
//! `redirected`/`locality_hits` pair and the raw put/get counters are
//! excluded by design: locality converts redirects into hits (not
//! always 1:1 — a single bypass can replace a chunked redirect loop)
//! and collective internals route different amounts of traffic when
//! cluster geometry or transport changes.
//!
//! Lives in its own test binary, as one `#[test]`, because the locality
//! knob is still process-global (`fault::set_coop_locality`, kept for
//! the benchmark's locality probe): a launch reads it once when it
//! begins, so a test flipping it would change the arm of any launch
//! that a parallel test in the same binary started meanwhile.

use std::time::Duration;

use stress::program::{coll_steps, gen_program, CollKind, Program, RngDraw, Step, COLL_L};
use stress::run::{build_cfg, run_on_ctx, watch_closure, Engine, Outcome};
use tshmem::prelude::*;
use tshmem::Stats;

const SEED: u64 = 0x4C4F43414C455131;

fn coop_stats(
    prog: &Program,
    workers: usize,
    depth: Option<usize>,
    algos: Option<Algorithms>,
    locality: bool,
) -> Vec<Stats> {
    let mut cfg = build_cfg(prog, depth);
    if let Some(a) = algos {
        cfg = cfg.with_algos(a);
    }
    // Read once, when the launch begins.
    tshmem::fault::set_coop_locality(locality);
    let p = prog.clone();
    let stats = Launcher::new(&cfg, CoopBackend { workers, ..Default::default() }).run(move |ctx| {
        run_on_ctx(&p, ctx);
        ctx.stats()
    }).values;
    tshmem::fault::set_coop_locality(true);
    stats
}

/// Append a world-set reduce, broadcast (root: a non-leader of the last
/// shard) and `fcollect` to `prog`, so a >64-PE case is guaranteed to
/// run all three payload collectives on the counter-cell pass in the
/// on-arm and on the flat default algorithms in the off-arm, whatever
/// the seed drew.
fn with_world_collectives(mut prog: Program) -> Program {
    let n = prog.npes;
    let kinds = [
        CollKind::Reduce { op: 0 },
        CollKind::Bcast { root_rank: n - 3 },
        CollKind::Fcollect,
    ];
    for (k, kind) in kinds.into_iter().enumerate() {
        let vals = (0..n)
            .map(|r| (0..COLL_L).map(|i| ((k * n + r) * COLL_L + i) as u64 * 0x9E37).collect())
            .collect();
        let idx = coll_steps(&prog);
        prog.steps.push(Step::Coll { kind, set: (0, 0, n), idx, vals });
    }
    prog
}

#[test]
fn locality_on_and_off_agree_on_state_and_api_stats() {
    // case 0: 24 PEs / 3 workers — shards of 8, so the on-arm's
    //   contiguous sets take the counter-cell pass while strided
    //   subsets run the flat algorithms in both arms.
    // case 1: 16 PEs / 4 workers with bounded UDN queues — exercises
    //   the RMA/strided/nbi bypasses alongside blocking channel sends.
    // case 2: 96 PEs / 2 workers — past 64 members as well (block = 48).
    // case 3: 100 PEs / 3 workers (shards of 34, 34 and a short 32, an
    //   odd leader count) at default algorithms, with a world reduce,
    //   broadcast and fcollect appended: the three payload collectives
    //   on the fused cell pass against the ring, naive reduce, pull
    //   broadcast and root-gather `fcollect`.
    // case 4: 8 PEs / 8 workers — the native engine's geometry: no
    //   co-resident peer, so no RMA bypass, but every contiguous
    //   collective a root cell over eight clusters of one.
    let cases = [
        (0u64, 24usize, 3usize, None, None),
        (1, 16, 4, Some(2), None),
        (2, 96, 2, None, None),
        (3, 100, 3, None, Some(Algorithms::default())),
        (4, 8, 8, None, None),
    ];
    let mut hits_on = 0u64;
    for (case, npes, workers, depth, algos) in cases {
        let mut prog = gen_program(&mut RngDraw::new(SEED, case), npes);
        if case == 3 {
            prog = with_world_collectives(prog);
        }
        // Each run oracle-checks its own final state internally, so
        // passing both checks proves state equivalence; the Stats
        // comparison pins the API-visible operation counts on top.
        let on = coop_stats(&prog, workers, depth, algos, true);
        let off = coop_stats(&prog, workers, depth, algos, false);
        for (pe, (a, b)) in on.iter().zip(&off).enumerate() {
            assert_eq!(
                (a.barriers, a.collectives, a.atomics, a.fences, a.quiets, a.nbi_puts, a.nbi_gets),
                (b.barriers, b.collectives, b.atomics, b.fences, b.quiets, b.nbi_puts, b.nbi_gets),
                "case {case} npes {npes} PE {pe}: API-level stats diverged between locality on and off"
            );
            assert_eq!(
                b.locality_hits, 0,
                "case {case} npes {npes} PE {pe}: locality-off run took a fast path"
            );
        }
        hits_on += on.iter().map(|s| s.locality_hits).sum::<u64>();
    }
    // Sanity that the ablation is real: with small worker counts the
    // on-arms must have exercised at least one co-resident bypass.
    assert!(hits_on > 0, "locality-on runs never took a fast path — knob wired wrong?");

    // A flip while a launch runs reaches only later launches: 16 PEs on
    // one worker (every collective on the counter-cell pass). After the
    // first barrier PE 0 waits until the last PE is on its way into
    // `sum_to_all`, then turns locality off and follows — so a PE that
    // read the knob per call would take the flat ring and reduce while
    // its cluster parks in the cell pass, a hang the watchdog reports
    // after its 8 s window.
    let cfg = RuntimeConfig::new(16).with_partition_bytes(1 << 20).with_private_bytes(1 << 16);
    let stall = Duration::from_millis(250);
    let outcome = watch_closure(&cfg, &Engine::Coop { workers: 1 }, None, stall, "mid-launch locality flip", |ctx| {
        let src = ctx.shmalloc::<u64>(1);
        let dst = ctx.shmalloc::<u64>(1);
        let entered = ctx.shmalloc::<u64>(1);
        ctx.local_write(&src, 0, &[ctx.my_pe() as u64 + 1]);
        ctx.local_fill(&entered, 0u64);
        ctx.barrier_all();
        if ctx.my_pe() == ctx.n_pes() - 1 {
            ctx.p(&entered, 0, 1u64, 0);
        }
        if ctx.my_pe() == 0 {
            ctx.wait_until(&entered, 0, Cmp::Ge, 1u64);
            tshmem::fault::set_coop_locality(false);
        }
        ctx.sum_to_all(&dst, &src, 1, ctx.world());
        for _ in 0..10 {
            ctx.barrier_all();
        }
        let n = ctx.n_pes() as u64;
        assert_eq!(ctx.local_read(&dst, 0, 1)[0], n * (n + 1) / 2, "PE {}: wrong sum", ctx.my_pe());
    });
    tshmem::fault::set_coop_locality(true);
    if let Outcome::Stalled(report) = outcome {
        panic!("a mid-launch locality flip wedged the launch:\n{report}");
    }
}
