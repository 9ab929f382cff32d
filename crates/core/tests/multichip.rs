//! Multi-chip engine tests: correctness is identical to single-chip;
//! costs change exactly at the chip boundary.

use tshmem::prelude::*;
use tshmem::types::ReduceOp;

fn cfg(pes_per_chip: usize) -> RuntimeConfig {
    RuntimeConfig::new(pes_per_chip)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 14)
        .with_temp_bytes(1 << 12)
}

#[test]
fn multichip_results_match_single_chip() {
    fn workload(ctx: &ShmemCtx) -> Vec<i64> {
        let me = ctx.my_pe();
        let n = ctx.n_pes();
        let v = ctx.shmalloc::<i64>(32);
        let d = ctx.shmalloc::<i64>(32);
        let g = ctx.shmalloc::<i64>(32 * n);
        ctx.local_write(&v, 0, &vec![(me as i64 + 1) * 3; 32]);
        ctx.barrier_all();
        ctx.put_sym(&v, 16, &v, 0, 16, (me + 1) % n);
        ctx.barrier_all();
        ctx.reduce(ReduceOp::Sum, &d, &v, 32, ctx.world());
        ctx.fcollect(&g, &v, 32, ctx.world());
        let mut out = ctx.local_read(&d, 0, 4);
        out.extend(ctx.local_read(&g, 0, 32 * n));
        out
    }
    // 2 chips x 3 PEs vs one 6-PE chip: identical answers.
    let multi = Launcher::new(&cfg(3), MultiChipBackend { chips: 2 }).run(workload);
    let single = Launcher::new(&cfg(6), TimedBackend).run(workload);
    assert_eq!(multi.values, single.values);
}

#[test]
fn cross_chip_put_much_slower_than_intra_chip() {
    let out = Launcher::new(&cfg(2), MultiChipBackend { chips: 2 }).run(|ctx| {
        // PEs 0,1 on chip 0; PEs 2,3 on chip 1.
        let v = ctx.shmalloc::<u64>(8192);
        ctx.barrier_all();
        let mut bulk = (0.0, 0.0);
        let mut tiny = (0.0, 0.0);
        if ctx.my_pe() == 0 {
            let measure = |n: usize| {
                ctx.put_sym(&v, 0, &v, 0, n, 1); // warm
                ctx.put_sym(&v, 0, &v, 0, n, 2);
                let t0 = ctx.time_ns();
                ctx.put_sym(&v, 0, &v, 0, n, 1); // same chip
                let intra = ctx.time_ns() - t0;
                let t1 = ctx.time_ns();
                ctx.put_sym(&v, 0, &v, 0, n, 2); // cross chip
                (intra, ctx.time_ns() - t1)
            };
            bulk = measure(8192);
            tiny = measure(1);
        }
        ctx.barrier_all();
        (bulk, tiny)
    });
    let (bulk, tiny) = out.values[0];
    // Bulk transfers: the 10 Gbps link is slower than on-chip copies.
    assert!(
        bulk.1 > 1.5 * bulk.0,
        "64 kB cross-chip put must be slower: {bulk:?}"
    );
    // Tiny transfers: microsecond mPIPE latency vs nanosecond memcpy.
    assert!(
        tiny.1 > 20.0 * tiny.0,
        "8 B cross-chip put is latency-dominated: {tiny:?}"
    );
}

#[test]
fn cross_chip_bandwidth_capped_by_link_rate() {
    let big = cfg(1).with_partition_bytes(10 << 20);
    let out = Launcher::new(&big, MultiChipBackend { chips: 2 }).run(|ctx| {
        let n = 1 << 20; // 8 MB of u64
        let v = ctx.shmalloc::<u64>(n);
        ctx.barrier_all();
        let mut bw = 0.0;
        if ctx.my_pe() == 0 {
            ctx.put_sym(&v, 0, &v, 0, n, 1); // warm
            let t0 = ctx.time_ns();
            ctx.put_sym(&v, 0, &v, 0, n, 1);
            let dt = ctx.time_ns() - t0;
            bw = (n * 8) as f64 / dt * 1000.0; // MB/s
        }
        ctx.barrier_all();
        bw
    });
    let bw = out.values[0];
    // 10 Gbps line rate is 1250 MB/s; staging copies cost extra.
    assert!(
        (200.0..1250.0).contains(&bw),
        "cross-chip bandwidth {bw} MB/s should be link-bound"
    );
}

#[test]
fn cross_chip_barrier_in_microseconds() {
    let single = Launcher::new(&cfg(8), TimedBackend).run(|ctx| {
        ctx.barrier_all();
        let t0 = ctx.time_ns();
        ctx.barrier_all();
        ctx.time_ns() - t0
    });
    let multi = Launcher::new(&cfg(4), MultiChipBackend { chips: 2 }).run(|ctx| {
        ctx.barrier_all();
        let t0 = ctx.time_ns();
        ctx.barrier_all();
        ctx.time_ns() - t0
    });
    let s = single.values[0] / 1e3;
    let m = multi.values[0] / 1e3;
    // Two mPIPE crossings per ring phase: tens of microseconds.
    assert!(m > 3.0 * s, "multichip barrier {m} us vs single {s} us");
    assert!(m < 100.0, "but still bounded: {m} us");
}

#[test]
fn cross_chip_atomics_pay_round_trip() {
    let out = Launcher::new(&cfg(1), MultiChipBackend { chips: 2 }).run(|ctx| {
        let c = ctx.shmalloc::<u64>(1);
        ctx.local_write(&c, 0, &[0u64]);
        ctx.barrier_all();
        let mut local_ns = 0.0;
        let mut remote_ns = 0.0;
        if ctx.my_pe() == 1 {
            let t0 = ctx.time_ns();
            ctx.fadd(&c, 0, 1u64, 1); // own chip
            local_ns = ctx.time_ns() - t0;
            let t1 = ctx.time_ns();
            ctx.fadd(&c, 0, 1u64, 0); // other chip
            remote_ns = ctx.time_ns() - t1;
        }
        ctx.barrier_all();
        assert_eq!(ctx.g(&c, 0, 0), 1);
        (local_ns, remote_ns)
    });
    let (l, r) = out.values[1];
    assert!(r > 20.0 * l, "cross-chip atomic round trip: {r} ns vs {l} ns");
}

#[test]
fn multichip_is_deterministic() {
    let run = || {
        let out = Launcher::new(&cfg(2), MultiChipBackend { chips: 3 }).run(|ctx| {
            let v = ctx.shmalloc::<i64>(16);
            let d = ctx.shmalloc::<i64>(16);
            ctx.local_write(&v, 0, &[ctx.my_pe() as i64; 16]);
            ctx.sum_to_all(&d, &v, 16, ctx.world());
            (ctx.local_read(&d, 0, 1)[0], ctx.time_ns() as u64)
        });
        out.values
    };
    assert_eq!(run(), run());
}

#[test]
fn multichip_records_a_trace_with_link_events() {
    let out = Launcher::new(&cfg(2).with_trace(), MultiChipBackend { chips: 2 }).run(|ctx| {
        let v = ctx.shmalloc::<u64>(64);
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            ctx.put_sym(&v, 0, &v, 0, 64, 2); // cross-chip put
        }
        ctx.barrier_all();
    });
    let trace = out.trace.expect("with_trace() must yield a trace");
    assert!(!trace.is_empty(), "multichip trace must not be empty");
    use tshmem::trace::TraceKind;
    let kinds: Vec<_> = trace.iter().map(|e| e.kind).collect();
    assert!(
        kinds.contains(&TraceKind::Link),
        "cross-chip traffic must appear as Link events: {kinds:?}"
    );
    assert!(kinds.contains(&TraceKind::UdnSend), "protocol sends traced");
    assert!(kinds.contains(&TraceKind::Copy), "data movement traced");
    // Link events name the far chip, which exists.
    assert!(trace
        .iter()
        .filter(|e| e.kind == TraceKind::Link)
        .all(|e| e.peer < 2 && e.bytes > 0));
}

/// Two chips of `per_chip` PEs. Their `run_watched` is the drained-queue
/// watchdog, which needs no stall window.
fn two_chips(per_chip: usize) -> Launcher<MultiChipBackend> {
    Launcher::new(&cfg(per_chip), MultiChipBackend { chips: 2 })
}

#[test]
fn multichip_watched_completes_clean_jobs() {
    let out = two_chips(2).run_watched(std::time::Duration::ZERO, |ctx| {
        let v = ctx.shmalloc::<i64>(8);
        ctx.local_write(&v, 0, &[ctx.my_pe() as i64; 8]);
        ctx.barrier_all();
        ctx.g(&v, 0, (ctx.my_pe() + 1) % ctx.n_pes())
    })
    .expect("clean job must not trip the watchdog");
    assert_eq!(out.values.len(), 4);
}

#[test]
fn multichip_watched_diagnoses_mismatched_barrier() {
    // PE 3 (on chip 1) skips the second barrier: the job can never
    // finish, the coop scheduler's drained-queue detector fires, and
    // the report labels each PE with its chip.
    let err = match two_chips(2).run_watched(std::time::Duration::ZERO, |ctx| {
        ctx.barrier_all();
        if ctx.my_pe() != 3 {
            ctx.barrier_all(); // PE 3 bails out instead
        }
    }) {
        Ok(_) => panic!("mismatched barrier must be caught"),
        Err(report) => report,
    };
    assert!(
        err.contains("virtual event queue drained"),
        "watchdog header missing: {err}"
    );
    assert!(
        err.contains("per-PE stall diagnosis (4 PEs):"),
        "per-PE section missing: {err}"
    );
    assert!(
        err.contains("PE 0 (chip 0)") && err.contains("PE 3 (chip 1)"),
        "chip labels missing: {err}"
    );
    assert!(err.contains("finished"), "PE 3 finished early: {err}");
}

fn spin_cfg(pes_per_chip: usize) -> RuntimeConfig {
    cfg(pes_per_chip).with_algos(Algorithms { barrier: BarrierAlgo::TmcSpin, ..Default::default() })
}

#[test]
fn one_chip_multichip_is_the_timed_engine_tmc_spin_included() {
    // `validate` accepts TmcSpin on one chip, so the fabric must run it
    // (the separate multichip fabric panicked at the first barrier) —
    // and one chip is the timed engine, clock for clock.
    fn workload(ctx: &ShmemCtx) -> u32 {
        let v = ctx.shmalloc::<u32>(4);
        ctx.p(&v, 0, 7u32, (ctx.my_pe() + 1) % ctx.n_pes());
        ctx.barrier_all();
        ctx.g(&v, 0, ctx.my_pe())
    }
    let multi = Launcher::new(&spin_cfg(4), MultiChipBackend { chips: 1 }).run(workload);
    let timed = Launcher::new(&spin_cfg(4), TimedBackend).run(workload);
    assert_eq!(multi.values, vec![7, 7, 7, 7]);
    assert_eq!(multi.clocks, timed.clocks);
    assert_eq!(multi.makespan, timed.makespan);
}

#[test]
#[should_panic(expected = "the TMC spin barrier cannot span chips")]
fn tmc_spin_across_chips_is_rejected_before_launch() {
    Launcher::new(&spin_cfg(2), MultiChipBackend { chips: 2 }).run(|ctx| ctx.barrier_all());
}

#[test]
fn homing_hints_apply_across_chips() {
    // PEs 0,1 on chip 0; PEs 2,3 on chip 1. Each PE writes its own copy
    // of a hinted allocation and reads it back: homed on its own tile
    // the store also fills the local L2, so the re-read is an L2 hit;
    // hashed over the chip it is served by the DDC.
    fn reread_ns(hint: HomingHint) -> Vec<f64> {
        let out = Launcher::new(&cfg(2), MultiChipBackend { chips: 2 }).run(move |ctx| {
            let n = 64 * 1024 / 8;
            let v = ctx.shmalloc_homed::<u64>(n, hint);
            let mut buf = vec![ctx.my_pe() as u64; n];
            ctx.barrier_all();
            ctx.put(&v, 0, &buf, ctx.my_pe());
            let t0 = ctx.time_ns();
            ctx.get(&mut buf, &v, 0, ctx.my_pe());
            let dt = ctx.time_ns() - t0;
            ctx.barrier_all();
            dt
        });
        out.values
    }
    let hashed = reread_ns(HomingHint::HashForHome);
    let mine = reread_ns(HomingHint::MyTile);
    for pe in 0..4 {
        assert!(
            mine[pe] < hashed[pe],
            "PE {pe}: MyTile re-read {} ns must beat hash-for-home {} ns",
            mine[pe],
            hashed[pe]
        );
    }
    // PE 3 is tile 1 of chip 1: for the copies on chip 0 the hint must
    // reduce to a tile that chip's memory system has.
    reread_ns(HomingHint::Tile(3));
}
