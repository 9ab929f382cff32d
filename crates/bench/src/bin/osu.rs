//! OSU-style SHMEM microbenchmarks on the timed engine — the de-facto
//! standard suite (osu_oshm_put, osu_oshm_get, osu_oshm_put_mr,
//! osu_oshm_barrier) adapted to the simulated Tilera devices, so the
//! library's point-to-point characteristics can be compared against any
//! real OpenSHMEM installation's OSU numbers.
//!
//! ```text
//! cd crates/bench && cargo run --release --bin osu [-- latency|bw|bibw|mr|barrier|all]
//! ```

use tile_arch::device::Device;
use tshmem::prelude::*;

const SIZES: &[usize] = &[8, 64, 512, 4096, 32768, 262144, 1048576];
const ITERS: usize = 16;

fn cfg(device: Device) -> RuntimeConfig {
    RuntimeConfig::for_device(device, 2)
        .with_partition_bytes(8 << 20)
        .with_private_bytes(1 << 14)
}

/// osu_oshm_put-style one-way latency: put + flag, half round trip.
fn latency(device: Device) {
    println!("# osu latency ({}): put one-way, us", device.name);
    println!("bytes\tus");
    let out = Launcher::new(&cfg(device), TimedBackend).run(|ctx| {
        let me = ctx.my_pe();
        let buf = ctx.shmalloc::<u8>(*SIZES.last().unwrap());
        let flag = ctx.shmalloc::<i64>(1);
        ctx.local_write(&flag, 0, &[0i64]);
        ctx.barrier_all();
        let mut rows = Vec::new();
        let mut seq = 0i64;
        for &size in SIZES {
            let data = vec![7u8; size];
            ctx.barrier_all();
            let t0 = ctx.time_ns();
            for _ in 0..ITERS {
                seq += 1;
                if me == 0 {
                    ctx.put(&buf, 0, &data, 1);
                    ctx.quiet();
                    ctx.p(&flag, 0, seq, 1);
                    ctx.wait_until(&flag, 0, Cmp::Ge, seq); // ack
                } else {
                    ctx.wait_until(&flag, 0, Cmp::Ge, seq);
                    ctx.p(&flag, 0, seq, 0);
                }
            }
            let dt = ctx.time_ns() - t0;
            if me == 0 {
                rows.push((size, dt / ITERS as f64 / 2.0 / 1e3));
            }
        }
        rows
    });
    for (size, us) in &out.values[0] {
        println!("{size}\t{us:.3}");
    }
}

/// osu_oshm_put bw: streaming puts, then quiet.
fn bandwidth(device: Device, bidirectional: bool) {
    let label = if bidirectional { "bi-bw" } else { "bw" };
    println!("# osu {label} ({}): streaming put, MB/s", device.name);
    println!("bytes\tMB/s");
    let out = Launcher::new(&cfg(device), TimedBackend).run(move |ctx| {
        let me = ctx.my_pe();
        let buf = ctx.shmalloc::<u8>(*SIZES.last().unwrap());
        let src = ctx.shmalloc::<u8>(*SIZES.last().unwrap());
        let mut rows = Vec::new();
        for &size in SIZES {
            ctx.barrier_all();
            let t0 = ctx.time_ns();
            if me == 0 || bidirectional {
                let peer = 1 - me;
                for _ in 0..ITERS {
                    ctx.put_sym(&buf, 0, &src, 0, size, peer);
                }
                ctx.quiet();
            }
            ctx.barrier_all();
            let dt = ctx.time_ns() - t0;
            if me == 0 {
                let dirs = if bidirectional { 2.0 } else { 1.0 };
                rows.push((size, dirs * (ITERS * size) as f64 / dt * 1000.0));
            }
        }
        rows
    });
    for (size, mbps) in &out.values[0] {
        println!("{size}\t{mbps:.1}");
    }
}

/// osu_oshm_put_mr: 8-byte message rate.
fn message_rate(device: Device) {
    println!("# osu message rate ({}): 8-byte puts", device.name);
    let out = Launcher::new(&cfg(device), TimedBackend).run(|ctx| {
        let buf = ctx.shmalloc::<u64>(4096);
        ctx.barrier_all();
        let n = 4096;
        let t0 = ctx.time_ns();
        if ctx.my_pe() == 0 {
            for i in 0..n {
                ctx.p(&buf, i % 4096, i as u64, 1);
            }
            ctx.quiet();
        }
        ctx.barrier_all();
        n as f64 / ((ctx.time_ns() - t0) / 1e9) / 1e6
    });
    println!("{:.3} million messages/s", out.values[0]);
}

/// osu_oshm_barrier: barrier latency at several PE counts.
fn barrier(device: Device) {
    println!("# osu barrier ({}): us per barrier", device.name);
    println!("pes\tus");
    for npes in [2usize, 4, 8, 16, 32] {
        if npes > device.grid.tiles().min(36) {
            continue;
        }
        let c = RuntimeConfig::for_device(device, npes)
            .with_partition_bytes(1 << 20)
            .with_private_bytes(1 << 14);
        let out = Launcher::new(&c, TimedBackend).run(|ctx| {
            ctx.barrier_all();
            let t0 = ctx.time_ns();
            for _ in 0..ITERS {
                ctx.barrier_all();
            }
            (ctx.time_ns() - t0) / ITERS as f64 / 1e3
        });
        println!("{npes}\t{:.3}", out.values[0]);
    }
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    for device in [Device::tile_gx8036(), Device::tilepro64()] {
        match which.as_str() {
            "latency" => latency(device),
            "bw" => bandwidth(device, false),
            "bibw" => bandwidth(device, true),
            "mr" => message_rate(device),
            "barrier" => barrier(device),
            "all" => {
                latency(device);
                bandwidth(device, false);
                bandwidth(device, true);
                message_rate(device);
                barrier(device);
            }
            other => {
                eprintln!("unknown benchmark {other}; use latency|bw|bibw|mr|barrier|all");
                std::process::exit(2);
            }
        }
        println!();
    }
}
