//! The paper's 2D-FFT case study (Section V-A / Figure 13).
//!
//! Runs the distributed FFT on the native engine for correctness and on
//! the timed engine for the modeled TILE-Gx36 vs TILEPro64 comparison.
//!
//! ```text
//! cargo run --release --example fft2d -- [n] [npes]
//! ```

use tile_arch::device::Device;
use tshmem::prelude::*;
use tshmem_apps::fft::{fft2d_shmem, serial_checksum, Fft2dConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(256);
    let npes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let fcfg = Fft2dConfig { n, seed: 0xF1, ..Fft2dConfig::default() };

    println!("2D-FFT of {n}x{n} complex floats on {npes} PEs");
    let expect = serial_checksum(&fcfg);
    println!("serial reference checksum: {expect:.3}");

    let partition = n * n * 8 + 4 * (n / npes + 1) * n * 8 + (1 << 20);
    let base = RuntimeConfig::new(npes).with_partition_bytes(partition);

    // Native engine: real threads, real wall time.
    let out = tshmem::launch(&base, move |ctx| fft2d_shmem(ctx, &fcfg));
    let native = &out[0];
    let rel = (native.checksum - expect).abs() / expect;
    println!(
        "native engine: {:.3} ms wall, checksum rel err {rel:.2e}",
        native.elapsed_ns / 1e6
    );
    assert!(rel < 1e-4, "distributed FFT diverged from the reference");

    // Timed engine: simulated Tilera clocks, both devices.
    for device in [Device::tile_gx8036(), Device::tilepro64()] {
        let cfg = RuntimeConfig::for_device(device, npes).with_partition_bytes(partition);
        let timed_ns = |cfg: &RuntimeConfig| {
            Launcher::new(cfg, TimedBackend)
                .run(move |ctx| fft2d_shmem(ctx, &fcfg).elapsed_ns)
                .values[0]
        };
        let t1 = timed_ns(&RuntimeConfig::for_device(device, 1).with_partition_bytes(partition));
        let tn = timed_ns(&cfg);
        println!(
            "{:12}: {:8.3} ms simulated at {npes} PEs (speedup {:.2} over 1 PE)",
            device.name,
            tn / 1e6,
            t1 / tn
        );
    }
}
