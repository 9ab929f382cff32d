//! Locality-on vs locality-off equivalence on seeded `--gen 4`
//! programs under the coop engine.
//!
//! The same-worker fast paths (direct peer copies, counter-cell barrier
//! transport, in-worker signal delivery) are pure transport
//! substitutions: with `fault::set_coop_locality` flipped off, every
//! operation takes the channel/protocol path instead, and both runs
//! must leave **identical heap, static, and collective-scratch state**
//! (enforced against the sequential oracle inside [`run_on_ctx`], which
//! both runs must satisfy) and identical **API-level `Stats`**. The
//! `redirected`/`locality_hits` pair and the raw put/get counters are
//! excluded by design: locality converts redirects into hits (not
//! always 1:1 — a single bypass can replace a chunked redirect loop)
//! and collective internals route different amounts of traffic when
//! cluster geometry or transport changes.
//!
//! Lives in its own test binary because the locality knob is
//! process-global and may only flip between launches (see fault.rs).

use stress::program::{
    coll_steps, gen_program_v, CollKind, Program, RngDraw, Step, COLL_L, GEN_V4,
};
use stress::run::{build_cfg, run_on_ctx};
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
    // Process-global; safe here only because it flips strictly between
    // launches — mid-job the PEs would disagree on barrier geometry.
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
/// on-arm and on the message trees in the off-arm, whatever the seed
/// drew.
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
    let forced_hier = Algorithms {
        barrier: BarrierAlgo::Hierarchical,
        broadcast: BroadcastAlgo::Hierarchical,
        reduce: ReduceAlgo::Hierarchical,
    };
    // case 0: 24 PEs / 3 workers, forced hierarchical collectives —
    //   the world set is shard-aligned (block = 8), so the on-arm takes
    //   the counter-cell barrier while team/strided subsets fall back.
    // case 1: 16 PEs / 4 workers with bounded UDN queues — exercises
    //   the RMA/strided/nbi bypasses alongside blocking channel sends.
    // case 2: 96 PEs / 2 workers — past the 64-member threshold the
    //   dispatcher auto-upgrades barriers to hierarchical, so the cells
    //   transport engages without forcing algorithms (block = 48).
    // case 3: 100 PEs / 3 workers (shards of 34, 34 and a short 32, an
    //   odd leader count) at default algorithms, with a world reduce,
    //   broadcast and fcollect appended: the three payload collectives
    //   on the fused cell pass against their message-tree references.
    let cases = [
        (0u64, 24usize, 3usize, None, Some(forced_hier)),
        (1, 16, 4, Some(2), None),
        (2, 96, 2, None, None),
        (3, 100, 3, None, Some(Algorithms::default())),
    ];
    let mut hits_on = 0u64;
    for (case, npes, workers, depth, algos) in cases {
        let mut prog = gen_program_v(&mut RngDraw::new(SEED, case), npes, GEN_V4);
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
}
