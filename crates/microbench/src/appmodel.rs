//! Figures 13 and 14: the application case studies on the timed engine.

use tile_arch::device::Device;
use tshmem::prelude::*;
use tshmem_apps::cbir::{cbir_shmem, CbirConfig};
use tshmem_apps::fft::{fft2d_shmem, Fft2dConfig};

use crate::series::{Figure, Series};

/// PE counts used by the application figures (the paper sweeps 1–32).
pub fn pe_counts(max: usize) -> Vec<usize> {
    [1, 2, 4, 8, 16, 32].into_iter().filter(|n| *n <= max).collect()
}

/// Execution time (seconds, simulated) of the 2D FFT at `npes` PEs.
pub fn fft_time_s(device: Device, n: usize, npes: usize) -> f64 {
    let fcfg = Fft2dConfig { n, seed: 0x13, ..Fft2dConfig::default() };
    let full_bytes = n * n * 8;
    let cfg = RuntimeConfig::for_device(device, npes)
        .with_partition_bytes(full_bytes + 4 * (n / npes.max(1) + 1) * n * 8 + (1 << 20))
        .with_private_bytes(1 << 14)
        .with_temp_bytes(1 << 14);
    let out = Launcher::new(&cfg, TimedBackend).run(move |ctx| fft2d_shmem(ctx, &fcfg).elapsed_ns);
    out.values[0] / 1e9
}

/// Execution time (seconds, simulated) of CBIR at `npes` PEs.
pub fn cbir_time_s(device: Device, images: usize, npes: usize) -> f64 {
    let ccfg = CbirConfig {
        num_images: images,
        ..CbirConfig::default()
    };
    let cfg = RuntimeConfig::for_device(device, npes)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 14)
        .with_temp_bytes(1 << 12);
    let out = Launcher::new(&cfg, TimedBackend).run(move |ctx| cbir_shmem(ctx, &ccfg).elapsed_ns);
    out.values[0] / 1e9
}

/// Build the execution-time + speedup figure shared by Figs 13/14.
fn app_figure(
    id: &str,
    title: &str,
    max_pes: usize,
    mut time_of: impl FnMut(Device, usize) -> f64,
) -> Figure {
    let mut fig = Figure::new(id, title, "tiles", "seconds | speedup");
    for device in [Device::tile_gx8036(), Device::tilepro64()] {
        let mut time_s = Series::new(format!("{} time (s)", device.name));
        let mut speedup = Series::new(format!("{} speedup", device.name));
        let mut t1 = None;
        for npes in pe_counts(max_pes) {
            let t = time_of(device, npes);
            if npes == 1 {
                t1 = Some(t);
            }
            time_s.push(npes as f64, t);
            speedup.push(npes as f64, t1.unwrap() / t);
        }
        fig.series.push(time_s);
        fig.series.push(speedup);
    }
    fig
}

/// Figure 13: 2D-FFT on an `n`×`n` complex-float image (paper: 1024).
pub fn fig13(n: usize, max_pes: usize) -> Figure {
    app_figure(
        "fig13",
        &format!("2D-FFT on {n}x{n} complex floats"),
        max_pes,
        move |d, p| fft_time_s(d, n, p),
    )
}

/// Figure 14: CBIR over `images` 128×128 8-bit images (paper: 22,000;
/// the harness defaults to a 2,200-image corpus — per-image cost is
/// identical, so times scale by 10x and speedups are unaffected).
pub fn fig14(images: usize, max_pes: usize) -> Figure {
    app_figure(
        "fig14",
        &format!("CBIR over {images} images of 128x128"),
        max_pes,
        move |d, p| cbir_time_s(d, images, p),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_gx_much_faster_than_pro() {
        // Paper: roughly an order of magnitude from hardware FP.
        let gx = fft_time_s(Device::tile_gx8036(), 128, 4);
        let pro = fft_time_s(Device::tilepro64(), 128, 4);
        let ratio = pro / gx;
        assert!((4.0..20.0).contains(&ratio), "FP gap {ratio}");
    }

    #[test]
    fn fft_speedup_plateaus() {
        let d = Device::tile_gx8036();
        let t1 = fft_time_s(d, 128, 1);
        let t8 = fft_time_s(d, 128, 8);
        let t16 = fft_time_s(d, 128, 16);
        let s8 = t1 / t8;
        let s16 = t1 / t16;
        assert!(s8 > 1.8, "some speedup at 8: {s8}");
        // Serialized final transpose: going 8 -> 16 must gain little.
        assert!(s16 < s8 * 1.6, "plateau: {s8} -> {s16}");
        assert!(s16 < 10.0, "well below linear: {s16}");
    }

    #[test]
    fn cbir_near_linear_then_sublinear() {
        let d = Device::tile_gx8036();
        let images = 64;
        let t1 = cbir_time_s(d, images, 1);
        let t4 = cbir_time_s(d, images, 4);
        let s4 = t1 / t4;
        assert!((2.6..4.4).contains(&s4), "near-linear at 4: {s4}");
    }

    #[test]
    fn cbir_devices_close_integer_workload() {
        // Paper: integer-tailored devices — the Gx is faster but not by
        // an order of magnitude (contrast with the FFT).
        let gx = cbir_time_s(Device::tile_gx8036(), 32, 2);
        let pro = cbir_time_s(Device::tilepro64(), 32, 2);
        let ratio = pro / gx;
        assert!((1.0..3.0).contains(&ratio), "integer gap {ratio}");
    }
}
