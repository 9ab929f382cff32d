//! The library on the native engine, two PEs: `rma`, `atomics`, the
//! small `sync` calls, `heap` through `shmalloc`, launch cost, `apps`.

use std::time::Instant;

use tshmem::{launch, Cmp, Complex32, RuntimeConfig, SignalOp};
use tshmem_apps::fft::{
    fft1d, fft2d_serial, fft2d_shmem, generate_image, Fft2dConfig, TransposeMode,
};

use super::{Host, Out};
use crate::stats::{median, median_ns};
use crate::workloads::rma_native::{RmaNative, TRAIN_PUTS, TRAIN_WORDS, W4K};
use crate::Workload;

pub fn run(h: &Host, out: &mut Out) {
    data_plane(h, out);
    launch_cost(h, out);
    apps(h, out);
    engine_trace(h, out);
}

/// One launch; PE 0 times, PE 1 takes part where the call needs a peer
/// and otherwise waits in a barrier.
fn data_plane(h: &Host, out: &mut Out) {
    let big = if h.quick { 8 * W4K } else { 2 << 20 };
    let cfg = RuntimeConfig::new(2).with_partition_bytes(big * 8 + (1 << 20));
    let found = launch(&cfg, |ctx| {
        let me = ctx.my_pe();
        h.pin_pe(me);
        let mut res: Out = Vec::new();
        let mut put = |name: &str, v: f64| res.push((name.to_string(), v));

        // Both PEs: collective allocation, the barrier, a signalled round trip.
        let us = median_ns(5, h.n(200), || {
            let s = ctx.shmalloc::<u64>(64);
            ctx.shfree(s);
        }) / 1e3;
        put("heap.shmalloc_free_us", us);
        put(
            "sync.barrier_ns_2pe",
            median_ns(5, h.n(2000), || ctx.barrier_all()),
        );

        let dyn_ = ctx.shmalloc::<u64>(big);
        let sig = ctx.shmalloc::<u64>(2);
        let atom = ctx.shmalloc::<u64>(8);
        let lock = ctx.shmalloc::<i64>(1);
        let stat = ctx.static_sym::<u64>(2 * W4K);
        ctx.barrier_all();
        let mut turn = 0u64;
        let rtt = median_ns(5, h.n(2000), || {
            turn += 1;
            if me == 0 {
                ctx.put_signal(&dyn_, 0, &[turn], &sig, 0, 1, SignalOp::Add, 1);
                ctx.wait_until(&sig, 1, Cmp::Ge, turn);
            } else {
                ctx.wait_until(&sig, 0, Cmp::Ge, turn);
                ctx.put_signal(&dyn_, 0, &[turn], &sig, 1, 1, SignalOp::Add, 0);
            }
        });
        put("rma.put_signal_rtt_ns", rtt);
        ctx.barrier_all();

        if me == 0 {
            let src: Vec<u64> = (0..big as u64).collect();
            let mut dst = vec![0u64; big];
            let n = h.n(20_000);
            put(
                "rma.put_dyn_ns_64",
                median_ns(5, n, || ctx.put(&dyn_, 0, &src[..8], 1)),
            );
            put(
                "rma.get_dyn_ns_64",
                median_ns(5, n, || ctx.get(&mut dst[..8], &dyn_, 0, 1)),
            );
            put(
                "rma.put_dyn_ns_4k",
                median_ns(5, n, || ctx.put(&dyn_, 0, &src[..W4K], 1)),
            );
            put(
                "rma.get_dyn_ns_4k",
                median_ns(5, n, || ctx.get(&mut dst[..W4K], &dyn_, 0, 1)),
            );
            let reps = h.n(100).min(4);
            let bytes = (big * 8) as f64;
            put(
                "rma.put_dyn_gbps_16m",
                bytes / median_ns(5, reps, || ctx.put(&dyn_, 0, &src, 1)),
            );
            put(
                "rma.get_dyn_gbps_16m",
                bytes / median_ns(5, reps, || ctx.get(&mut dst, &dyn_, 0, 1)),
            );

            let n = h.n(1000);
            let us = |ns: f64| ns / 1e3;
            put(
                "rma.put_static_us_4k",
                us(median_ns(5, n, || ctx.put(&stat, 0, &src[..W4K], 1))),
            );
            put(
                "rma.get_static_us_4k",
                us(median_ns(5, n, || ctx.get(&mut dst[..W4K], &stat, 0, 1))),
            );
            put(
                "rma.put_ss_us_4k",
                us(median_ns(5, n, || {
                    ctx.put_sym(&stat, 0, &stat, W4K, W4K, 1)
                })),
            );
            let n = h.n(5000);
            put(
                "rma.iput_s2_ns_4k",
                median_ns(5, n, || ctx.iput(&dyn_, 0, 2, &src[..W4K], 1, W4K, 1)),
            );
            put(
                "rma.iget_s2_ns_4k",
                median_ns(5, n, || ctx.iget(&mut dst[..W4K], 1, &dyn_, 0, 2, W4K, 1)),
            );
            let train = median_ns(5, h.n(500), || {
                for j in 0..TRAIN_PUTS {
                    ctx.put_nbi(&dyn_, j * TRAIN_WORDS, &src[..TRAIN_WORDS], 1);
                }
                ctx.quiet();
            });
            put("rma.nbi_train_us", us(train));

            let n = h.n(20_000);
            put(
                "atomics.fadd_ns",
                median_ns(5, n, || {
                    ctx.fadd(&atom, 0, 1u64, 1);
                }),
            );
            let mut cur = 0u64;
            let cswap = median_ns(5, n, || {
                // Alternate hit and miss, as the workload does.
                let old = ctx.cswap(&atom, 1, cur, cur + 1, 1);
                cur = if old == cur { cur + 1 } else { old };
                ctx.cswap(&atom, 1, u64::MAX, 0, 1);
            });
            put("atomics.cswap_ns", cswap / 2.0);
            put(
                "sync.lock_ns",
                median_ns(5, n, || {
                    ctx.set_lock(&lock);
                    ctx.clear_lock(&lock);
                }),
            );
            put("sync.quiet_ns", median_ns(5, n, || ctx.quiet()));
            put("sync.fence_ns", median_ns(5, n, || ctx.fence()));
            // Already satisfied: the cost of the call, not of a wake-up.
            put(
                "sync.wait_until_ns",
                median_ns(5, n, || ctx.wait_until(&sig, 1, Cmp::Ge, 1)),
            );
        }
        ctx.barrier_all();
        for s in [atom, sig, dyn_] {
            ctx.shfree(s);
        }
        ctx.shfree(lock);
        res
    });
    out.extend(found.into_iter().next().expect("PE 0 results"));
}

fn launch_cost(h: &Host, out: &mut Out) {
    let cfg = RuntimeConfig::new(2)
        .with_partition_bytes(256 * 1024)
        .with_private_bytes(64 * 1024);
    let us = median_ns(5, h.n(200).min(20), || {
        launch(&cfg, |ctx| std::hint::black_box(ctx.my_pe()));
    }) / 1e3;
    out.push(("engine.native.launch_us".into(), us));
}

/// Slowest PE's `elapsed_ns` of one distributed 2D FFT, seconds.
fn fft2d_once(h: &Host, n: usize, mode: TransposeMode, seed: u64) -> f64 {
    let recv_bytes = (n / 2 + 1) * n * 8;
    let cfg = RuntimeConfig::new(2)
        .with_partition_bytes(n * n * 8 + 4 * recv_bytes + (1 << 20))
        .with_private_bytes((recv_bytes + (1 << 16)).next_power_of_two())
        .with_temp_bytes(1 << 14);
    let fcfg = Fft2dConfig {
        n,
        seed,
        transpose: mode,
    };
    let ns = launch(&cfg, |ctx| {
        h.pin_pe(ctx.my_pe());
        fft2d_shmem(ctx, &fcfg).elapsed_ns
    });
    ns.into_iter().fold(0.0, f64::max) / 1e9
}

fn apps(h: &Host, out: &mut Out) {
    let n = if h.quick { 64 } else { 1024 };
    let mut row: Vec<Complex32> = (0..1024)
        .map(|i| Complex32::new((i as f32 * 0.3).sin(), 0.0))
        .collect();
    let us = median_ns(5, h.n(1000), || {
        fft1d(std::hint::black_box(&mut row), false)
    }) / 1e3;
    out.push(("apps.fft1d_us_1024".into(), us));

    let serial = median(&[(); 3].map(|_| {
        let mut image = generate_image(n, h.seed);
        let t0 = Instant::now();
        fft2d_serial(&mut image, n);
        t0.elapsed().as_secs_f64()
    }));
    out.push(("apps.fft2d_serial_s".into(), serial));
    let timed = |mode| median(&[(); 3].map(|_| fft2d_once(h, n, mode, h.seed)));
    let direct = timed(TransposeMode::Direct);
    out.push(("apps.fft2d_nbi_s".into(), timed(TransposeMode::Nbi)));
    out.push((
        "apps.fft2d_blocking_s".into(),
        timed(TransposeMode::Blocking),
    ));
    // Speed-up over serial, per PE.
    out.push(("apps.par_efficiency".into(), serial / (2.0 * direct)));
}

/// The data-plane round with the engine's own tracing on and off, and
/// what share of its operations the service handler carried.
fn engine_trace(h: &Host, out: &mut Out) {
    let mut w = RmaNative::with_rounds(h.seed, 3, h.quick, &h.allowed);
    let solve = |w: &mut RmaNative, on: bool| {
        w.set_trace(on);
        median(&[0, 1, 2].map(|e| w.epoch(e).solve_s))
    };
    let plain = solve(&mut w, false);
    let traced = solve(&mut w, true);
    out.push(("trace.with_trace_ratio".into(), traced / plain));
    let s = w.last_stats;
    let ops = s.puts + s.gets + s.nbi_puts + s.nbi_gets;
    out.push((
        "rma.redirected_frac".into(),
        s.redirected as f64 / ops as f64,
    ));
    let copy = out
        .iter()
        .find(|(n, _)| n == "tmc.common.copy_gbps_16m")
        .map(|x| x.1);
    let putbw = out
        .iter()
        .find(|(n, _)| n == "rma.put_dyn_gbps_16m")
        .map(|x| x.1);
    if let (Some(c), Some(p)) = (copy, putbw) {
        out.push(("rma.copy_efficiency_16m".into(), p / c));
    }
}
