//! Functional tests of the cooperative M:N engine: the native protocol
//! stack under worker-gate multiplexing, including PE counts past the
//! host's core count.

use tshmem::prelude::*;

fn coop(workers: usize) -> CoopBackend {
    CoopBackend { workers, ..Default::default() }
}

fn deposit_and_sum(ctx: &ShmemCtx) -> i64 {
    let me = ctx.my_pe();
    let n = ctx.n_pes();
    let table = ctx.shmalloc::<i64>(n);
    ctx.p(&table, me, me as i64 + 1, 0);
    ctx.barrier_all();
    let local: i64 = if me == 0 {
        (0..n).map(|i| ctx.g(&table, i, 0)).sum()
    } else {
        0
    };
    let src = ctx.shmalloc::<i64>(1);
    let dst = ctx.shmalloc::<i64>(1);
    ctx.local_write(&src, 0, &[local]);
    ctx.sum_to_all(&dst, &src, 1, ctx.world());
    ctx.local_read(&dst, 0, 1)[0]
}

#[test]
fn coop_matches_native_on_the_quickstart_job() {
    let cfg = RuntimeConfig::new(8).with_partition_bytes(1 << 20);
    let native = launch(&cfg, deposit_and_sum);
    for workers in [1, 2, 3, 8] {
        let coop = Launcher::new(&cfg, coop(workers)).run(deposit_and_sum).values;
        assert_eq!(coop, native, "workers={workers}");
    }
}

#[test]
fn coop_oversubscribed_past_the_core_count() {
    // 96 PEs (> the 64-tile cap of real devices) on 4 workers: the
    // for_scale config must pick the scaled device, and the answer must
    // match the closed form.
    let cfg = RuntimeConfig::for_scale(96).with_partition_bytes(64 * 1024);
    let out = Launcher::new(&cfg, coop(4)).run(deposit_and_sum).values;
    let want = (96 * 97 / 2) as i64;
    assert_eq!(out, vec![want; 96]);
}

#[test]
fn coop_bounded_udn_and_trace() {
    let cfg = RuntimeConfig::new(6)
        .with_partition_bytes(1 << 20)
        .with_bounded_udn(2);
    let native = launch(&cfg, deposit_and_sum);
    let coop = Launcher::new(&cfg, coop(2)).run(deposit_and_sum).values;
    assert_eq!(coop, native);
}

#[test]
fn coop_panic_aborts_the_whole_job() {
    let cfg = RuntimeConfig::new(6).with_partition_bytes(1 << 20);
    let r = std::panic::catch_unwind(|| {
        Launcher::new(&cfg, coop(2)).run(|ctx| {
            if ctx.my_pe() == 3 {
                panic!("PE 3 exploded");
            }
            // Everyone else parks in a barrier that can never complete;
            // the abort broadcast must wake them.
            ctx.barrier_all();
        }).values
    });
    assert!(r.is_err(), "panic must propagate out of the launch");
}

#[test]
fn coop_tmc_spin_barrier_survives_oversubscription() {
    // The TMC spin barrier busy-polls; under M:N the waiters must yield
    // their worker gates or they starve the very PEs they wait for.
    let algos = Algorithms { barrier: BarrierAlgo::TmcSpin, ..Default::default() };
    let cfg = RuntimeConfig::new(12)
        .with_partition_bytes(1 << 20)
        .with_algos(algos);
    let out = Launcher::new(&cfg, coop(2)).run(|ctx| {
        let me = ctx.my_pe();
        let n = ctx.n_pes();
        let table = ctx.shmalloc::<u64>(n);
        ctx.p(&table, me, (me as u64) * 3 + 1, (me + 1) % n);
        ctx.barrier_all();
        ctx.g(&table, (me + n - 1) % n, me)
    }).values;
    for (pe, v) in out.iter().enumerate() {
        let writer = (pe + 12 - 1) % 12;
        assert_eq!(*v, (writer as u64) * 3 + 1, "PE {pe}");
    }
}

// --- which transport the selection function picks, in exact counts -------

use tshmem::trace::TraceKind;
use tshmem::EngineBackend;

/// UDN sends one `call` costs on `backend()`: a launch making `2k`
/// calls minus one making `k`, so launch, `shmalloc` and teardown
/// traffic cancels exactly.
fn sends_per_call<B: EngineBackend>(
    cfg: &RuntimeConfig,
    backend: impl Fn() -> B,
    call: impl Fn(&ShmemCtx, &Sym<u64>, &Sym<u64>) + Sync,
) -> usize {
    const K: usize = 3;
    let sends = |calls: usize| {
        let out = Launcher::new(&cfg.with_trace(), backend()).run(|ctx| {
            let src = ctx.shmalloc::<u64>(4);
            let dst = ctx.shmalloc::<u64>(4 * ctx.n_pes());
            for _ in 0..calls {
                call(ctx, &dst, &src);
            }
        });
        let trace = out.trace.expect("with_trace() returns a trace");
        trace.iter().filter(|e| e.kind == TraceKind::UdnSend).count()
    };
    let diff = sends(2 * K) - sends(K);
    assert_eq!(diff % K, 0, "sends per call must be a whole number");
    diff / K
}

fn barrier_all(ctx: &ShmemCtx, _: &Sym<u64>, _: &Sym<u64>) {
    ctx.barrier_all();
}

#[test]
fn selection_is_pinned_by_exact_send_counts() {
    let cfg = |npes| RuntimeConfig::new(npes).with_partition_bytes(256 * 1024);

    // 32 PEs behind one gate: every default collective is one cell pass
    // inside the one shard — no channel token at all.
    assert_eq!(sends_per_call(&cfg(32), || coop(1), barrier_all), 0, "32/1 barrier_all");
    assert_eq!(
        sends_per_call(&cfg(32), || coop(1), |ctx, d, s| ctx.sum_to_all(d, s, 4, ctx.world())),
        0,
        "32/1 sum_to_all"
    );
    assert_eq!(
        sends_per_call(&cfg(32), || coop(1), |ctx, d, s| ctx.broadcast(d, s, 4, 5, ctx.world())),
        0,
        "32/1 broadcast"
    );
    assert_eq!(
        sends_per_call(&cfg(32), || coop(1), |ctx, d, s| ctx.fcollect(d, s, 4, ctx.world())),
        0,
        "32/1 fcollect"
    );

    // Four shards of 8: the four leaders meet on a root cell, so a
    // collective that crosses shards sends no token either.
    assert_eq!(sends_per_call(&cfg(32), || coop(4), barrier_all), 0, "32/4 barrier_all");
    assert_eq!(
        sends_per_call(&cfg(32), || coop(4), |ctx, d, s| ctx.sum_to_all(d, s, 4, ctx.world())),
        0,
        "32/4 sum_to_all"
    );
    assert_eq!(
        sends_per_call(&cfg(32), || coop(4), |ctx, d, s| ctx.broadcast(d, s, 4, 13, ctx.world())),
        0,
        "32/4 broadcast"
    );
    assert_eq!(
        sends_per_call(&cfg(32), || coop(4), |ctx, d, s| ctx.fcollect(d, s, 4, ctx.world())),
        0,
        "32/4 fcollect"
    );

    // One PE per worker: every PE leads a cluster of one, and the eight
    // leaders meet on the root cell — no token there either. The native
    // engine is that geometry.
    assert_eq!(sends_per_call(&cfg(8), || coop(8), barrier_all), 0, "8/8 barrier_all");
    assert_eq!(sends_per_call(&cfg(8), || NativeBackend, barrier_all), 0, "native 8 barrier_all");

    // An algorithm asked for by name is what runs: n·⌈log₂ n⌉.
    let dissem = Algorithms { barrier: BarrierAlgo::Dissemination, ..Default::default() };
    assert_eq!(
        sends_per_call(&cfg(8).with_algos(dissem), || coop(2), barrier_all),
        24,
        "8/2 dissemination"
    );

    // A fabric without sync cells selects what it always did.
    assert_eq!(sends_per_call(&cfg(36), || TimedBackend, barrier_all), 72, "timed 36 barrier_all");

    // An algorithm asked for by name runs at every size — Dissemination
    // at 96 PEs sends 96·⌈log₂ 96⌉ — and so, without cells for the set,
    // does the configured flat default: past 64 PEs on a fabric without
    // them, on a strided set of more than 64 members, and under the
    // clustered barrier's own name — each the ring's 2n. (129–160
    // members: a message tree over five clusters of ≤ 32 would send
    // 2n + 5, so these counts tell the two apart; at 65–128 both send
    // 2n.)
    let scale = |npes| RuntimeConfig::for_scale(npes).with_partition_bytes(64 * 1024);
    assert_eq!(
        sends_per_call(&scale(96).with_algos(dissem), || coop(2), barrier_all),
        672,
        "96/2 dissemination"
    );
    assert_eq!(sends_per_call(&scale(130), || TimedBackend, barrier_all), 260, "timed 130 barrier_all");
    let evens = ActiveSet::new(0, 1, 129);
    let strided_barrier = move |ctx: &ShmemCtx, _: &Sym<u64>, _: &Sym<u64>| {
        if evens.rank_of(ctx.my_pe()).is_some() {
            ctx.barrier(evens);
        }
    };
    assert_eq!(sends_per_call(&scale(258), || coop(2), strided_barrier), 258, "258/2 stride-2 barrier of 129");
    assert_eq!(
        sends_per_call(&cfg(8), || TimedBackend, |ctx, _, _| ctx.barrier_hier_explicit(ctx.world())),
        16,
        "timed 8 barrier_hier_explicit"
    );
}

/// A PE serving an injected delay has given its gate up and sits on no
/// queue: when the delay ends it must get the gate back even from a
/// sibling on its worker that spins on a flag it is about to set, with
/// nobody queued behind that sibling. The spin lets the worker's other
/// runnable stacks run, so the delayed PE queues, and the spinner hands
/// the gate over.
#[test]
fn a_delayed_pe_gets_back_in_past_a_sibling_spinning_on_its_worker() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let cfg = RuntimeConfig::new(2).with_partition_bytes(1 << 20);
        let out = Launcher::new(&cfg, coop(1))
            .with_faults([tshmem::Fault::SlowPe { pe: 1, every: 1, micros: 500 }])
            .run(|ctx| {
                let flag = ctx.shmalloc::<u64>(1);
                ctx.local_write(&flag, 0, &[0]);
                ctx.barrier_all();
                for round in 1..=20 {
                    if ctx.my_pe() == 1 {
                        ctx.p(&flag, 0, round, 0);
                    } else {
                        ctx.wait_until(&flag, 0, Cmp::Ge, round);
                    }
                }
                ctx.barrier_all();
                ctx.local_read(&flag, 0, 1)[0]
            });
        let _ = tx.send(out.values[0]);
    });
    let got = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the delayed PE never got its gate back from the spinning sibling");
    assert_eq!(got, 20);
}
