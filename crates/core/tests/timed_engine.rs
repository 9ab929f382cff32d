//! Timed-engine tests: the same protocols under virtual time —
//! correctness, determinism, and latency sanity against the paper's
//! measured scales.

use tshmem::prelude::*;
use tile_arch::device::Device;

fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 16)
        .with_temp_bytes(1 << 12)
}

#[test]
fn timed_ring_put_is_correct_and_timed() {
    let out = Launcher::new(&cfg(4), TimedBackend).run(|ctx| {
        let me = ctx.my_pe();
        let buf = ctx.shmalloc::<u64>(64);
        let next = (me + 1) % ctx.n_pes();
        let pat = vec![me as u64; 64];
        ctx.put(&buf, 0, &pat, next);
        ctx.barrier_all();
        let prev = (me + ctx.n_pes() - 1) % ctx.n_pes();
        assert_eq!(ctx.local_read(&buf, 0, 64), vec![prev as u64; 64]);
        ctx.time_ns()
    });
    // Virtual clocks advanced and are positive.
    assert!(out.makespan.ns_f64() > 0.0);
    for v in &out.values {
        assert!(*v > 0.0);
    }
}

#[test]
fn timed_runs_are_deterministic() {
    let run = || {
        let out = Launcher::new(&cfg(6), TimedBackend).run(|ctx| {
            let v = ctx.shmalloc::<i64>(32);
            let d = ctx.shmalloc::<i64>(32);
            ctx.local_write(&v, 0, &vec![ctx.my_pe() as i64; 32]);
            ctx.sum_to_all(&d, &v, 32, ctx.world());
            ctx.barrier_all();
            ctx.local_read(&d, 0, 1)[0]
        });
        (
            out.values.clone(),
            out.clocks.iter().map(|c| c.ps()).collect::<Vec<_>>(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "virtual clocks must be bit-identical across runs");
    assert_eq!(a.0[0], 15); // 0+1+..+5
}

#[test]
fn timed_barrier_latency_in_paper_scale() {
    // TSHMEM ring barrier at 36 tiles: the paper reports ~3 us on the
    // TILEPro64 and better-than-Pro on the Gx36. Sanity: microseconds,
    // not nanoseconds or milliseconds.
    for (device, lo_us, hi_us) in [
        (Device::tile_gx8036(), 0.5, 10.0),
        (Device::tilepro64(), 0.5, 12.0),
    ] {
        let cfg = RuntimeConfig::for_device(device, 36)
            .with_partition_bytes(1 << 20)
            .with_private_bytes(1 << 14)
            .with_temp_bytes(1 << 12);
        let out = Launcher::new(&cfg, TimedBackend).run(|ctx| {
            ctx.barrier_all(); // warm
            let t0 = ctx.time_ns();
            for _ in 0..8 {
                ctx.barrier_all();
            }
            (ctx.time_ns() - t0) / 8.0
        });
        let us = out.values[0] / 1000.0;
        assert!(
            (lo_us..hi_us).contains(&us),
            "{}: barrier {us} us outside [{lo_us}, {hi_us}]",
            device.name
        );
    }
}

#[test]
fn timed_gx_barrier_faster_than_pro() {
    let barrier_us = |device: Device| {
        let cfg = RuntimeConfig::for_device(device, 16)
            .with_partition_bytes(1 << 20)
            .with_private_bytes(1 << 14)
            .with_temp_bytes(1 << 12);
        let out = Launcher::new(&cfg, TimedBackend).run(|ctx| {
            ctx.barrier_all();
            let t0 = ctx.time_ns();
            for _ in 0..4 {
                ctx.barrier_all();
            }
            (ctx.time_ns() - t0) / 4.0
        });
        out.values[0]
    };
    let gx = barrier_us(Device::tile_gx8036());
    let pro = barrier_us(Device::tilepro64());
    assert!(gx < pro, "paper: Gx TSHMEM barrier outperforms Pro ({gx} !< {pro})");
}

#[test]
fn timed_redirected_put_slower_than_direct() {
    let out = Launcher::new(&cfg(2), TimedBackend).run(|ctx| {
        let me = ctx.my_pe();
        let n = 2048usize;
        let dynv = ctx.shmalloc::<u64>(n);
        let statv = ctx.static_sym::<u64>(n);
        let src = ctx.shmalloc::<u64>(n);
        ctx.barrier_all();
        let mut dd = 0.0;
        let mut sd = 0.0;
        if me == 0 {
            // Warm both paths so cache state is comparable.
            ctx.put_sym(&dynv, 0, &src, 0, n, 1);
            ctx.put_sym(&statv, 0, &src, 0, n, 1);
            let t0 = ctx.time_ns();
            ctx.put_sym(&dynv, 0, &src, 0, n, 1);
            dd = ctx.time_ns() - t0;
            let t1 = ctx.time_ns();
            ctx.put_sym(&statv, 0, &src, 0, n, 1); // redirected
            sd = ctx.time_ns() - t1;
        }
        ctx.barrier_all();
        (dd, sd)
    });
    let (dd, sd) = out.values[0];
    assert!(sd > dd, "redirected static put must cost more: {sd} !> {dd}");
}

#[test]
fn timed_static_static_slowest() {
    let out = Launcher::new(&cfg(2), TimedBackend).run(|ctx| {
        let me = ctx.my_pe();
        let n = 512usize; // fits the 4 kB temp
        let s1 = ctx.static_sym::<u64>(n);
        let dynsrc = ctx.shmalloc::<u64>(n);
        let s2 = ctx.static_sym::<u64>(n);
        ctx.barrier_all();
        let mut sd = 0.0;
        let mut ss = 0.0;
        if me == 0 {
            let t0 = ctx.time_ns();
            ctx.put_sym(&s1, 0, &dynsrc, 0, n, 1); // static-dynamic
            sd = ctx.time_ns() - t0;
            let t1 = ctx.time_ns();
            ctx.put_sym(&s2, 0, &s1, 0, n, 1); // static-static
            ss = ctx.time_ns() - t1;
        }
        ctx.barrier_all();
        (sd, ss)
    });
    let (sd, ss) = out.values[0];
    assert!(
        ss > sd,
        "static-static (extra copy) must cost more than static-dynamic: {ss} !> {sd}"
    );
}

#[test]
fn timed_collectives_correct_under_virtual_time() {
    let out = Launcher::new(&cfg(8), TimedBackend).run(|ctx| {
        let me = ctx.my_pe();
        let n = 128;
        let src = ctx.shmalloc::<u32>(n);
        let dst = ctx.shmalloc::<u32>(n * ctx.n_pes());
        ctx.local_write(&src, 0, &vec![me as u32; n]);
        ctx.fcollect(&dst, &src, n, ctx.world());
        let all = ctx.local_read(&dst, 0, n * ctx.n_pes());
        for pe in 0..ctx.n_pes() {
            assert!(all[pe * n..(pe + 1) * n].iter().all(|v| *v == pe as u32));
        }
        true
    });
    assert!(out.values.iter().all(|v| *v));
}

#[test]
fn timed_atomics_and_locks() {
    let out = Launcher::new(&cfg(4), TimedBackend).run(|ctx| {
        let counter = ctx.shmalloc::<u64>(1);
        let lock = ctx.shmalloc::<i64>(1);
        ctx.local_write(&counter, 0, &[0u64]);
        ctx.local_write(&lock, 0, &[0i64]);
        ctx.barrier_all();
        for _ in 0..10 {
            ctx.set_lock(&lock);
            let v = ctx.g(&counter, 0, 0);
            ctx.p(&counter, 0, v + 1, 0);
            ctx.quiet();
            ctx.clear_lock(&lock);
        }
        ctx.fadd(&counter, 0, 1u64, 0);
        ctx.barrier_all();
        ctx.g(&counter, 0, 0)
    });
    assert!(out.values.iter().all(|v| *v == 44)); // 4*10 + 4
}

#[test]
fn timed_spin_barrier_matches_calibration() {
    let cfg36 = RuntimeConfig::new(36)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 14)
        .with_temp_bytes(1 << 12)
        .with_algos(Algorithms {
            barrier: BarrierAlgo::TmcSpin,
            ..Default::default()
        });
    let out = Launcher::new(&cfg36, TimedBackend).run(|ctx| {
        ctx.barrier_all();
        let t0 = ctx.time_ns();
        ctx.barrier_all();
        ctx.time_ns() - t0
    });
    // Fig 5 calibration: TMC spin at 36 tiles on the Gx is ~1.5 us.
    let us = out.values[0] / 1000.0;
    assert!((1.0..2.5).contains(&us), "spin barrier {us} us");
}

#[test]
fn cycle_box_mode_runs_protocols_correctly() {
    let out = Launcher::new(&cfg(6).with_cycle_box(), TimedBackend).run(|ctx| {
        let me = ctx.my_pe();
        let buf = ctx.shmalloc::<u64>(32);
        let next = (me + 1) % ctx.n_pes();
        ctx.put(&buf, 0, &vec![me as u64; 32], next);
        ctx.barrier_all();
        let prev = (me + ctx.n_pes() - 1) % ctx.n_pes();
        assert_eq!(ctx.local_read(&buf, 0, 32), vec![prev as u64; 32]);
        let v = ctx.shmalloc::<i64>(8);
        let d = ctx.shmalloc::<i64>(8);
        ctx.local_write(&v, 0, &[me as i64; 8]);
        ctx.sum_to_all(&d, &v, 8, ctx.world());
        ctx.barrier_all();
        ctx.local_read(&d, 0, 1)[0]
    });
    assert!(out.values.iter().all(|v| *v == 15)); // 0+1+..+5
    assert!(out.makespan.ns_f64() > 0.0);
}

#[test]
fn cycle_box_runs_are_deterministic_and_converge_with_event_driven() {
    let run = |cfg: RuntimeConfig| {
        let out = Launcher::new(&cfg, TimedBackend).run(|ctx| {
            let me = ctx.my_pe();
            let n = ctx.n_pes();
            let cell = ctx.shmalloc::<u64>(n);
            ctx.local_write(&cell, 0, &vec![0u64; n]);
            ctx.barrier_all();
            for round in 0..4u64 {
                let dst = (me + round as usize + 1) % n;
                ctx.fadd(&cell, me, me as u64 + round, dst);
                ctx.barrier_all();
            }
            ctx.local_read(&cell, 0, n)
        });
        out.values
    };
    let ed = run(cfg(5));
    let cb1 = run(cfg(5).with_cycle_box());
    let cb2 = run(cfg(5).with_cycle_box());
    assert_eq!(cb1, cb2, "cycle-box runs must be deterministic");
    assert_eq!(
        ed, cb1,
        "cycle-box final state must converge with event-driven"
    );
}

#[test]
fn barrier_all_1024_pes_completes_in_both_modes() {
    // 1024 timed PEs are 2048 LPs (a PE and its service context each)
    // taking turns; nothing else in the suite runs the timed engine past
    // 64 PEs. The drained-queue watchdog turns a wedge into a diagnosis
    // instead of a hung test binary.
    for mode in [tshmem::TimedMode::EventDriven, tshmem::TimedMode::cycle_box()] {
        let cfg = RuntimeConfig::for_scale(1024).with_timed_mode(mode);
        let out = Launcher::new(&cfg, TimedBackend)
            .run_watched(std::time::Duration::ZERO, |ctx| {
                ctx.barrier_all();
                let t0 = ctx.time_ns();
                ctx.barrier_all();
                ctx.time_ns() - t0
            })
            .unwrap_or_else(|report| panic!("{mode:?}: 1024-PE barrier_all wedged:\n{report}"));
        assert_eq!(out.values.len(), 1024);
        assert!(out.values.iter().all(|ns| *ns > 0.0), "{mode:?}: a barrier took no virtual time");
    }
}

#[test]
fn virtual_time_clocks_are_pinned() {
    // The only `cargo test` that pins a simulated time (the figure gate
    // takes eight minutes): one mixed 8-PE program on one chip and on
    // 2 chips x 4 PEs. The constants were recorded at the last commit
    // that had a separate multichip fabric; a cost-model change that
    // moves them moves figures/ too, and is committed with both.
    fn mixed(ctx: &ShmemCtx) {
        let (me, n) = (ctx.my_pe(), ctx.n_pes());
        let next = (me + 1) % n;
        let heap = ctx.shmalloc::<u64>(512);
        let all = ctx.shmalloc::<u64>(64 * n);
        let ctr = ctx.shmalloc::<u64>(2);
        let stat = ctx.static_sym::<u64>(256);
        ctx.local_fill(&heap, me as u64);
        ctx.local_fill(&stat, 0u64);
        ctx.local_fill(&ctr, 0u64);
        ctx.barrier_all();
        ctx.put(&heap, 0, &[me as u64 + 1; 256], next);
        ctx.put(&stat, 0, &[me as u64 + 2; 128], next);
        ctx.barrier_all();
        let mut buf = [0u64; 128];
        ctx.get(&mut buf, &heap, 0, (me + 3) % n);
        ctx.get(&mut buf, &stat, 0, (me + 5) % n);
        ctx.fadd(&ctr, 0, me as u64, 0);
        assert_eq!(ctx.cswap(&ctr, 1, 0u64, me as u64 + 1, next), 0);
        ctx.barrier_all();
        ctx.sum_to_all(&all, &heap, 64, ctx.world());
        ctx.broadcast(&all, &heap, 64, 2, ctx.world());
        ctx.fcollect(&all, &heap, 64, ctx.world());
        ctx.barrier_all();
        assert_eq!(ctx.g(&ctr, 0, 0), (0..n as u64).sum::<u64>());
    }
    fn pin<B: tshmem::EngineBackend>(per_chip: usize, backend: B) -> (u64, u64) {
        let out = Launcher::new(&cfg(per_chip), backend).run(mixed);
        let fold = out.clocks.iter().fold(0u64, |h, c| h.wrapping_mul(0x100_0000_01b3) ^ c.ps());
        (out.makespan.ps(), fold)
    }
    assert_eq!(pin(8, TimedBackend), (76_670_507, 2_273_017_736_154_821_990));
    assert_eq!(pin(4, MultiChipBackend { chips: 2 }), (310_461_662, 15_375_880_346_346_212_606));
}

/// The scheduler's work is a count: a 36-PE timed program of 100
/// default `barrier_all`s takes exactly this many token handoffs between
/// LPs. The count depends on which LP the scheduler picks, not on how it
/// resumes that LP, and the wall-clock engines report none.
#[test]
fn a_timed_barrier_program_costs_a_pinned_number_of_handoffs() {
    let run = || {
        Launcher::new(&cfg(36), TimedBackend)
            .run(|ctx| {
                for _ in 0..100 {
                    ctx.barrier_all();
                }
            })
            .handoffs
    };
    assert_eq!(run(), 7480);
    assert_eq!(run(), 7480, "exact across runs");
    assert_eq!(Launcher::new(&cfg(2), NativeBackend).run(|ctx| ctx.barrier_all()).handoffs, 0);
    // The 72 LPs are stacks on the launching thread: no OS thread spawned.
    assert_eq!(Launcher::new(&cfg(36), TimedBackend).run(|ctx| ctx.barrier_all()).threads_spawned, 0);
}
