//! Figure 5 (TMC spin/sync barriers) and Figure 8 (TSHMEM barrier).

use tile_arch::device::Device;
use tshmem::prelude::*;

use crate::series::{Figure, Series};

/// Tile counts swept by the barrier figures.
pub fn tile_sweep(max: usize) -> Vec<usize> {
    [2, 4, 8, 12, 16, 20, 24, 28, 32, 36]
        .into_iter()
        .filter(|n| *n <= max)
        .collect()
}

/// Figure 5: TMC spin and sync barrier latencies (model curves from the
/// Section III-D calibration).
pub fn fig5() -> Figure {
    let mut fig = Figure::new(
        "fig5",
        "Latencies of TMC spin and sync barriers",
        "tiles",
        "us",
    );
    for device in [Device::tile_gx8036(), Device::tilepro64()] {
        let b = device.timings.barrier;
        let mut spin = Series::new(format!("{} spin", device.name));
        let mut sync = Series::new(format!("{} sync", device.name));
        for n in tile_sweep(36) {
            spin.push(n as f64, b.spin_ps(n) as f64 / 1e6);
            sync.push(n as f64, b.sync_ps(n) as f64 / 1e6);
        }
        fig.series.push(spin);
        fig.series.push(sync);
    }
    fig
}

/// Per-PE enter/exit stamps of repeated barriers on the timed engine.
fn measure_barrier(device: Device, npes: usize, algos: Algorithms, iters: usize) -> Vec<Vec<(f64, f64)>> {
    let cfg = RuntimeConfig::for_device(device, npes)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 14)
        .with_temp_bytes(1 << 12)
        .with_algos(algos);
    let out = Launcher::new(&cfg, TimedBackend).run(move |ctx| {
        ctx.barrier_all(); // warm
        let mut stamps = Vec::with_capacity(iters);
        for _ in 0..iters {
            let enter = ctx.time_ns();
            ctx.barrier_all();
            stamps.push((enter, ctx.time_ns()));
        }
        stamps
    });
    out.values
}

/// Best- and worst-case TSHMEM barrier latency at `npes` tiles, us.
///
/// The paper's distinction: latency depends on whether a tile leaves the
/// routine first or last. We take the earliest entry as the common
/// reference; best case = first exit − first entry, worst case = last
/// exit − first entry.
pub fn tshmem_barrier_best_worst(device: Device, npes: usize) -> (f64, f64) {
    let iters = 6;
    let per_pe = measure_barrier(device, npes, Algorithms::default(), iters);
    let mut best = 0.0;
    let mut worst = 0.0;
    for i in 0..iters {
        let first_enter = per_pe
            .iter()
            .map(|s| s[i].0)
            .fold(f64::INFINITY, f64::min);
        let first_exit = per_pe.iter().map(|s| s[i].1).fold(f64::INFINITY, f64::min);
        let last_exit = per_pe
            .iter()
            .map(|s| s[i].1)
            .fold(f64::NEG_INFINITY, f64::max);
        best += first_exit - first_enter;
        worst += last_exit - first_enter;
    }
    (best / iters as f64 / 1e3, worst / iters as f64 / 1e3)
}

/// Figure 8: TSHMEM barrier latency — Gx best/worst case, Pro64, and
/// the TMC spin barrier on Gx for comparison.
pub fn fig8() -> Figure {
    let mut fig = Figure::new("fig8", "Latencies of TSHMEM barrier", "tiles", "us");
    let gx = Device::tile_gx8036();
    let pro = Device::tilepro64();
    let mut gx_best = Series::new("TILE-Gx36 best case");
    let mut gx_worst = Series::new("TILE-Gx36 worst case");
    let mut pro_s = Series::new("TILEPro64");
    let mut spin = Series::new("TILE-Gx36 TMC spin");
    for n in tile_sweep(36) {
        let (b, w) = tshmem_barrier_best_worst(gx, n);
        gx_best.push(n as f64, b);
        gx_worst.push(n as f64, w);
        let (_, pw) = tshmem_barrier_best_worst(pro, n);
        pro_s.push(n as f64, pw);
        spin.push(n as f64, gx.timings.barrier.spin_ps(n) as f64 / 1e6);
    }
    fig.series.push(gx_best);
    fig.series.push(gx_worst);
    fig.series.push(pro_s);
    fig.series.push(spin);
    fig
}

/// Ablation: the three barrier algorithms on the Gx (ring vs
/// root-broadcast release vs adopting the TMC spin barrier).
pub fn ablation_barrier(device: Device, max_tiles: usize) -> Figure {
    let mut fig = Figure::new(
        "ablation-barrier",
        format!("Barrier algorithm comparison ({})", device.name),
        "tiles",
        "us",
    );
    for (label, algo) in [
        ("ring (paper)", BarrierAlgo::Ring),
        ("root-broadcast release", BarrierAlgo::RootBroadcast),
        ("TMC spin (Sec IV-E proposal)", BarrierAlgo::TmcSpin),
        ("dissemination (extension)", BarrierAlgo::Dissemination),
    ] {
        let mut s = Series::new(label);
        for n in tile_sweep(max_tiles) {
            let per_pe = measure_barrier(
                device,
                n,
                Algorithms {
                    barrier: algo,
                    ..Default::default()
                },
                4,
            );
            // Worst-case (completion) latency, averaged over iters.
            let iters = per_pe[0].len();
            let mut total = 0.0;
            for i in 0..iters {
                total += per_pe
                    .iter()
                    .map(|s| s[i].1 - s[i].0)
                    .fold(f64::NEG_INFINITY, f64::max);
            }
            s.push(n as f64, total / iters as f64 / 1e3);
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_matches_calibration_points() {
        let fig = fig5();
        let gx_spin = fig.series("TILE-Gx8036 spin").unwrap();
        let pro_spin = fig.series("TILEPro64 spin").unwrap();
        let gx_sync = fig.series("TILE-Gx8036 sync").unwrap();
        let pro_sync = fig.series("TILEPro64 sync").unwrap();
        assert!((gx_spin.y_at(36.0) - 1.5).abs() < 0.2, "{}", gx_spin.y_at(36.0));
        assert!((pro_spin.y_at(36.0) - 47.2).abs() < 2.0);
        assert!((gx_sync.y_at(36.0) - 321.0).abs() < 15.0);
        assert!((pro_sync.y_at(36.0) - 786.0).abs() < 30.0);
        // Spin vastly outperforms sync everywhere.
        for n in [2.0, 16.0, 36.0] {
            assert!(gx_spin.y_at(n) * 10.0 < gx_sync.y_at(n));
        }
    }

    #[test]
    fn fig8_orderings_match_paper() {
        // Small sweep for test speed: compare at 16 tiles.
        let gx = Device::tile_gx8036();
        let pro = Device::tilepro64();
        let (gb, gw) = tshmem_barrier_best_worst(gx, 16);
        let (_, pw) = tshmem_barrier_best_worst(pro, 16);
        assert!(gb < gw, "best {gb} < worst {gw}");
        // Gx TSHMEM barrier beats Pro's (higher clock), paper Sec IV-C1.
        assert!(gw < pw, "gx {gw} < pro {pw}");
        // TMC spin on Gx beats TSHMEM's UDN barrier (paper's Fig 8).
        let spin_us = gx.timings.barrier.spin_ps(16) as f64 / 1e6;
        assert!(spin_us < gw, "spin {spin_us} < tshmem {gw}");
        // Pro TSHMEM barrier crushes Pro TMC spin (47.2 us at 36).
        let pro_spin_us = pro.timings.barrier.spin_ps(16) as f64 / 1e6;
        assert!(pw < pro_spin_us, "tshmem {pw} < pro spin {pro_spin_us}");
    }

    #[test]
    fn tshmem_barrier_scales_with_tiles() {
        let gx = Device::tile_gx8036();
        let (_, w8) = tshmem_barrier_best_worst(gx, 8);
        let (_, w32) = tshmem_barrier_best_worst(gx, 32);
        assert!(w32 > 2.0 * w8, "linear token: {w8} -> {w32}");
    }

    #[test]
    fn dissemination_barrier_beats_ring_at_scale() {
        // log2(n) parallel rounds vs 2n serial hops.
        let gx = Device::tile_gx8036();
        let worst = |algo: BarrierAlgo| {
            let per_pe = measure_barrier(
                gx,
                32,
                Algorithms {
                    barrier: algo,
                    ..Default::default()
                },
                4,
            );
            let iters = per_pe[0].len();
            (0..iters)
                .map(|i| {
                    per_pe
                        .iter()
                        .map(|s| s[i].1 - s[i].0)
                        .fold(f64::NEG_INFINITY, f64::max)
                })
                .sum::<f64>()
                / iters as f64
        };
        let ring = worst(BarrierAlgo::Ring);
        let diss = worst(BarrierAlgo::Dissemination);
        assert!(
            diss < ring / 3.0,
            "dissemination {diss} ns must crush ring {ring} ns at 32 tiles"
        );
    }
}
