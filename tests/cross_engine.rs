//! The two engines must compute identical results for the same program
//! (the timed engine is the native engine plus clocks, not a different
//! library).

use tshmem::prelude::*;
use tshmem::types::ReduceOp;

fn workload(ctx: &ShmemCtx) -> Vec<i64> {
    let me = ctx.my_pe();
    let n = ctx.n_pes();
    let data = ctx.shmalloc::<i64>(64);
    let gathered = ctx.shmalloc::<i64>(64 * n);
    let reduced = ctx.shmalloc::<i64>(64);
    let statv = ctx.static_sym::<i64>(16);

    // Seed, rotate through neighbors, collect, reduce.
    let seed: Vec<i64> = (0..64).map(|i| (me as i64 + 1) * 1000 + i).collect();
    ctx.local_write(&data, 0, &seed);
    ctx.barrier_all();
    let next = (me + 1) % n;
    ctx.put_sym(&data, 32, &data, 0, 32, next);
    ctx.barrier_all();
    ctx.fcollect(&gathered, &data, 64, ctx.world());
    ctx.reduce(ReduceOp::Max, &reduced, &data, 64, ctx.world());

    // Exercise the static redirection path too.
    ctx.local_write(&statv, 0, &[me as i64; 16]);
    ctx.barrier_all();
    let mut got = vec![0i64; 16];
    ctx.get(&mut got, &statv, 0, (me + 1) % n);

    // Atomics.
    let counter = ctx.shmalloc::<u64>(1);
    ctx.local_write(&counter, 0, &[0u64]);
    ctx.barrier_all();
    ctx.fadd(&counter, 0, (me as u64 + 1) * 10, 0);
    ctx.barrier_all();

    let mut out = ctx.local_read(&gathered, 0, 64 * n);
    out.extend(ctx.local_read(&reduced, 0, 64));
    out.extend(&got);
    out.push(ctx.g(&counter, 0, 0) as i64);
    out
}

#[test]
fn native_and_timed_engines_agree() {
    let cfg = RuntimeConfig::new(4)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 14);
    let native = tshmem::launch(&cfg, workload);
    let timed = Launcher::new(&cfg, TimedBackend).run(workload);
    assert_eq!(native.len(), timed.values.len());
    for (pe, (a, b)) in native.iter().zip(&timed.values).enumerate() {
        assert_eq!(a, b, "PE {pe} diverged between engines");
    }
}

#[test]
fn engines_agree_across_algorithm_choices() {
    for algos in [
        Algorithms::default(),
        Algorithms {
            barrier: BarrierAlgo::RootBroadcast,
            broadcast: BroadcastAlgo::Push,
            reduce: ReduceAlgo::RecursiveDoubling,
        },
        Algorithms {
            barrier: BarrierAlgo::TmcSpin,
            broadcast: BroadcastAlgo::Binomial,
            reduce: ReduceAlgo::Naive,
        },
    ] {
        let cfg = RuntimeConfig::new(5)
            .with_partition_bytes(1 << 20)
            .with_private_bytes(1 << 14)
            .with_algos(algos);
        let native = tshmem::launch(&cfg, workload);
        let timed = Launcher::new(&cfg, TimedBackend).run(workload);
        for (a, b) in native.iter().zip(&timed.values) {
            assert_eq!(a, b, "diverged under {algos:?}");
        }
    }
}
