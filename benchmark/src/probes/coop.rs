//! The library on the coop engine at 32, 256 and 1024 PEs: every
//! barrier and collective algorithm by name (the crossover table), and
//! the engine's own launch, hand-off and locality costs.

use tshmem::trace::TraceKind;
use tshmem::{
    fault, resolve_coop_workers, ActiveSet, Cmp, CoopBackend, Launcher, ReduceOp, RuntimeConfig,
    ShmemCtx,
};

use super::{Host, Out};
use crate::stats::{median, median_ns};
use crate::workloads::coll::{Coll, NA2A, NBCAST, NFC, NRED};
use crate::Workload;

fn coop<R: Send>(
    cfg: &RuntimeConfig,
    workers: usize,
    f: impl Fn(&ShmemCtx) -> R + Send + Sync,
) -> tshmem::EngineOutcome<R> {
    Launcher::new(
        cfg,
        CoopBackend {
            workers,
            ..Default::default()
        },
    )
    .run(f)
}

fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::for_scale(npes)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024)
}

pub fn run(h: &Host, out: &mut Out) {
    let (small, large, huge) = if h.quick {
        (8, 72, 96)
    } else {
        (32, 256, 1024)
    };
    algorithms_small(small, out);
    let hier_on = algorithms_large(large, out);
    // The same hierarchical barrier with the co-resident fast paths off.
    // The knob is process-global: flipped between launches only.
    fault::set_coop_locality(false);
    let hier_off = hier_barrier_us(h, large);
    fault::set_coop_locality(true);
    out.push((
        "engine.coop.locality_speedup_256".into(),
        hier_off / hier_on,
    ));
    scale_out(huge, out);
    engine(h, small, large, out);
    sends_per_barrier(small, 1, "sync.udn_sends_per_barrier_32", out);
    sends_per_barrier(large, 4, "sync.udn_sends_per_barrier_256", out);

    locality_hits(out);
}

/// Eight PEs on two workers each put to a static target on every other
/// PE: three of a PE's seven peers share its worker, so 3/7 of these
/// would-be-redirected transfers must take the co-resident bypass. Exact.
fn locality_hits(out: &mut Out) {
    let found = coop(&cfg(8), 2, |ctx| {
        let target = ctx.static_sym::<u64>(8);
        ctx.barrier_all();
        for peer in (0..ctx.n_pes()).filter(|&p| p != ctx.my_pe()) {
            ctx.put(&target, 0, &[peer as u64; 8], peer);
        }
        ctx.barrier_all();
        let s = ctx.stats();
        (s.locality_hits, s.redirected)
    });
    let (hits, redirected) = found
        .values
        .iter()
        .fold((0, 0), |a, v| (a.0 + v.0, a.1 + v.1));
    out.push((
        "rma.locality_hit_frac".into(),
        hits as f64 / (hits + redirected).max(1) as f64,
    ));
}

/// 32 PEs, one worker: the flat algorithms the default picks, and the
/// alternatives it could pick.
fn algorithms_small(npes: usize, out: &mut Out) {
    let iters = 20;
    let found = coop(&cfg(npes), 1, |ctx| {
        let (world, rank) = (ActiveSet::all(ctx.n_pes()), ctx.my_pe());
        let mut res: Out = Vec::new();
        let mut put = |name: &str, ns: f64| res.push((name.to_string(), ns / 1e3));
        put(
            "sync.barrier_ring_us_32",
            median_ns(5, iters, || ctx.barrier_ring_explicit(world)),
        );
        put(
            "sync.barrier_dissem_us_32",
            median_ns(5, iters, || ctx.barrier_dissemination_explicit(world)),
        );
        put(
            "sync.barrier_hier_us_32",
            median_ns(5, iters, || ctx.barrier_hier_explicit(world)),
        );

        let rsrc = ctx.shmalloc::<u64>(NRED);
        let rdst = ctx.shmalloc::<u64>(NRED);
        let bsrc = ctx.shmalloc::<u64>(NBCAST);
        let bdst = ctx.shmalloc::<u64>(NBCAST);
        let fsrc = ctx.shmalloc::<u64>(NFC);
        let fdst = ctx.shmalloc::<u64>(NFC * world.size);
        let asrc = ctx.shmalloc::<u64>(NA2A * world.size);
        let adst = ctx.shmalloc::<u64>(NA2A * world.size);
        let n = iters.min(5);
        put(
            "collectives.reduce_naive_us_32",
            median_ns(3, n, || {
                ctx.reduce_naive(ReduceOp::Sum, &rdst, &rsrc, NRED, world, rank)
            }),
        );
        put(
            "collectives.reduce_rd_us_32",
            median_ns(3, n, || {
                ctx.reduce_recursive_doubling(ReduceOp::Sum, &rdst, &rsrc, NRED, world, rank)
            }),
        );
        put(
            "collectives.bcast_pull_us_32",
            median_ns(3, n, || ctx.broadcast_pull(&bdst, &bsrc, NBCAST, 0, world)),
        );
        put(
            "collectives.bcast_push_us_32",
            median_ns(3, n, || ctx.broadcast_push(&bdst, &bsrc, NBCAST, 0, world)),
        );
        put(
            "collectives.bcast_binomial_us_32",
            median_ns(3, n, || {
                ctx.broadcast_binomial(&bdst, &bsrc, NBCAST, 0, world)
            }),
        );
        put(
            "collectives.fcollect_us_32",
            median_ns(3, n, || ctx.fcollect(&fdst, &fsrc, NFC, world)),
        );
        put(
            "collectives.alltoall_us_32",
            median_ns(3, n, || ctx.alltoall(&adst, &asrc, NA2A, world)),
        );
        for s in [adst, asrc, fdst, fsrc, bdst, bsrc, rdst, rsrc] {
            ctx.shfree(s);
        }
        res
    });
    out.extend(found.values.into_iter().next().expect("PE 0 results"));
}

/// 256 PEs, four workers. Returns the hierarchical barrier in µs.
fn algorithms_large(npes: usize, out: &mut Out) -> f64 {
    let iters = 4;
    let found = coop(&cfg(npes), 4, |ctx| {
        let (world, rank) = (ActiveSet::all(ctx.n_pes()), ctx.my_pe());
        let mut res: Out = Vec::new();
        let mut put = |name: &str, ns: f64| res.push((name.to_string(), ns / 1e3));
        put(
            "sync.barrier_ring_us_256",
            median_ns(3, iters, || ctx.barrier_ring_explicit(world)),
        );
        put(
            "sync.barrier_dissem_us_256",
            median_ns(3, iters, || ctx.barrier_dissemination_explicit(world)),
        );
        put(
            "sync.barrier_hier_us_256",
            median_ns(3, 2 * iters, || ctx.barrier_hier_explicit(world)),
        );
        let rsrc = ctx.shmalloc::<u64>(NRED);
        let rdst = ctx.shmalloc::<u64>(NRED);
        let bsrc = ctx.shmalloc::<u64>(NBCAST);
        let bdst = ctx.shmalloc::<u64>(NBCAST);
        let fsrc = ctx.shmalloc::<u64>(NFC);
        let fdst = ctx.shmalloc::<u64>(NFC * world.size);
        let n = iters.min(2);
        put(
            "collectives.reduce_hier_us_256",
            median_ns(3, n, || {
                ctx.reduce_hier(ReduceOp::Sum, &rdst, &rsrc, NRED, world, rank)
            }),
        );
        put(
            "collectives.bcast_hier_us_256",
            median_ns(3, n, || ctx.broadcast_hier(&bdst, &bsrc, NBCAST, 0, world)),
        );
        put(
            "collectives.fcollect_us_256",
            median_ns(3, n, || ctx.fcollect(&fdst, &fsrc, NFC, world)),
        );
        for s in [fdst, fsrc, bdst, bsrc, rdst, rsrc] {
            ctx.shfree(s);
        }
        res
    });
    let res = found.values.into_iter().next().expect("PE 0 results");
    let get = |name: &str| {
        res.iter()
            .find(|(n, _)| n == name)
            .expect("measured above")
            .1
    };
    let (barrier, reduce) = (
        get("sync.barrier_hier_us_256"),
        get("collectives.reduce_hier_us_256"),
    );
    // ROADMAP item 1: how many barriers one reduce on the same tree costs.
    out.push((
        "collectives.reduce_over_barrier_256".into(),
        reduce / barrier,
    ));
    out.extend(res);
    barrier
}

fn hier_barrier_us(h: &Host, npes: usize) -> f64 {
    let iters = h.n(200).min(8);
    let found = coop(&cfg(npes), 4, |ctx| {
        let world = ActiveSet::all(ctx.n_pes());
        median_ns(3, iters, || ctx.barrier_hier_explicit(world)) / 1e3
    });
    found.values[0]
}

/// 1024 PEs: whatever `barrier_all` and `sum_to_all` resolve to there.
fn scale_out(npes: usize, out: &mut Out) {
    let found = coop(&cfg(npes), 4, |ctx| {
        let world = ActiveSet::all(ctx.n_pes());
        let barrier = median_ns(2, 1, || ctx.barrier_all()) / 1e6;
        let src = ctx.shmalloc::<u64>(NRED);
        let dst = ctx.shmalloc::<u64>(NRED);
        let reduce = median_ns(1, 1, || ctx.sum_to_all(&dst, &src, NRED, world)) / 1e6;
        ctx.shfree(dst);
        ctx.shfree(src);
        (barrier, reduce)
    });
    let (barrier, reduce) = found.values[0];
    out.push(("sync.barrier_ms_1024".into(), barrier));
    out.push(("collectives.reduce_ms_1024".into(), reduce));
}

/// Launch cost, gate hand-offs, and what pinning buys.
fn engine(h: &Host, small: usize, large: usize, out: &mut Out) {
    let ms = |npes, workers, reps| {
        median_ns(reps, 1, || {
            coop(&cfg(npes), workers, |ctx| std::hint::black_box(ctx.my_pe()));
        }) / 1e6
    };
    out.push(("engine.coop.launch_ms_32".into(), ms(small, 1, 5)));
    out.push(("engine.coop.launch_ms_256".into(), ms(large, 4, 2)));

    // Two PEs pass a token back and forth: each wait gives the gate up,
    // so a round trip is two hand-offs — inside one worker, or between two.
    let trips = h.n(2000);
    let handoff = |workers| {
        let found = coop(&cfg(2), workers, |ctx| {
            let (me, peer) = (ctx.my_pe(), 1 - ctx.my_pe());
            let flag = ctx.shmalloc::<u64>(1);
            let mut turn = 0u64;
            let ns = median_ns(5, trips, || {
                turn += 1;
                if me == 0 {
                    ctx.p(&flag, 0, turn, peer);
                    ctx.wait_until(&flag, 0, Cmp::Ge, turn);
                } else {
                    ctx.wait_until(&flag, 0, Cmp::Ge, turn);
                    ctx.p(&flag, 0, turn, peer);
                }
            });
            ctx.shfree(flag);
            ns / 2.0
        });
        found.values[0]
    };
    out.push(("engine.coop.handoff_same_ns".into(), handoff(1)));
    out.push(("engine.coop.handoff_cross_ns".into(), handoff(2)));

    // The 32-PE collective round, pinned on one worker against unpinned
    // on two: the cost of letting hand-offs cross vCPUs. Reported so the
    // reason for the pinning rule stays visible; never gated.
    let round = |workers| {
        let mut w = Coll::sized(small, workers, 4, h.seed, true);
        median(&[0, 1, 2].map(|e| w.epoch(e).solve_s))
    };
    let pinned = round(1);
    h.unpin();
    let unpinned = round(2);
    // Auto-sizing reads the affinity mask: ask while the mask is whole.
    out.push((
        "engine.coop.workers_resolved".into(),
        resolve_coop_workers(0, small) as f64,
    ));
    h.pin_home();
    out.push(("engine.coop.unpinned_ratio_32".into(), unpinned / pinned));
}

/// UDN messages one `barrier_all` costs, from the engine's own trace:
/// the difference between a launch with 2k barriers and one with k, so
/// launch and teardown traffic cancels. Exact.
fn sends_per_barrier(npes: usize, workers: usize, name: &str, out: &mut Out) {
    const K: usize = 4;
    let sends = |barriers: usize| {
        let found = coop(&cfg(npes).with_trace(), workers, |ctx| {
            for _ in 0..barriers {
                ctx.barrier_all();
            }
        });
        let trace = found.trace.expect("with_trace() returns a trace");
        trace
            .iter()
            .filter(|e| e.kind == TraceKind::UdnSend)
            .count()
    };
    out.push((name.into(), (sends(2 * K) - sends(K)) as f64 / K as f64));
}
