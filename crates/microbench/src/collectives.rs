//! Figures 9–12: aggregate effective bandwidth of the collectives.
//!
//! The paper sweeps transfer size and participating tiles and plots the
//! *aggregate* effective bandwidth (the sum of the participating tiles'
//! bandwidths). We measure on the timed engine and compute aggregate
//! bandwidth as (total payload bytes delivered) / (operation time at the
//! root).

use tile_arch::device::Device;
use tshmem::prelude::*;

use crate::series::{Figure, Series};

/// Which collective a sweep exercises.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Collective {
    BroadcastPush,
    BroadcastPull,
    BroadcastBinomial,
    Fcollect,
    ReduceNaive,
    ReduceRecursiveDoubling,
}

impl Collective {
    pub fn label(self) -> &'static str {
        match self {
            Collective::BroadcastPush => "push broadcast",
            Collective::BroadcastPull => "pull broadcast",
            Collective::BroadcastBinomial => "binomial broadcast",
            Collective::Fcollect => "fcollect",
            Collective::ReduceNaive => "naive reduce",
            Collective::ReduceRecursiveDoubling => "recursive-doubling reduce",
        }
    }

    fn algos(self) -> Algorithms {
        match self {
            Collective::BroadcastPush => Algorithms {
                broadcast: BroadcastAlgo::Push,
                ..Default::default()
            },
            Collective::BroadcastPull => Algorithms {
                broadcast: BroadcastAlgo::Pull,
                ..Default::default()
            },
            Collective::BroadcastBinomial => Algorithms {
                broadcast: BroadcastAlgo::Binomial,
                ..Default::default()
            },
            Collective::Fcollect => Algorithms::default(),
            Collective::ReduceNaive => Algorithms {
                reduce: ReduceAlgo::Naive,
                ..Default::default()
            },
            Collective::ReduceRecursiveDoubling => Algorithms {
                reduce: ReduceAlgo::RecursiveDoubling,
                ..Default::default()
            },
        }
    }

    /// Payload bytes credited to one operation at `tiles` participants
    /// moving `m` bytes per PE (see module docs; matches the paper's
    /// aggregate accounting per figure).
    fn credited_bytes(self, tiles: usize, m: usize) -> f64 {
        match self {
            Collective::BroadcastPush | Collective::BroadcastPull | Collective::BroadcastBinomial => {
                ((tiles - 1) * m) as f64
            }
            // Stage 1: n blocks of m to the root; stage 2: n-1 copies of
            // the n*m concatenation.
            Collective::Fcollect => (tiles * m + (tiles - 1) * tiles * m) as f64,
            // The root ingests one m-byte array per participant.
            Collective::ReduceNaive | Collective::ReduceRecursiveDoubling => (tiles * m) as f64,
        }
    }
}

/// Aggregate bandwidth (MB/s) of `what` at `tiles` participants over
/// per-PE payloads of `sizes` bytes.
pub fn collective_sweep(
    device: Device,
    what: Collective,
    tiles: usize,
    sizes: Vec<usize>,
) -> Vec<(usize, f64)> {
    assert!(tiles >= 2);
    let max = *sizes.iter().max().unwrap();
    // fcollect's destination needs tiles * max bytes.
    let dest_bytes = max * tiles + (1 << 20);
    let cfg = RuntimeConfig::for_device(device, tiles)
        .with_partition_bytes(dest_bytes + 2 * max + (1 << 20))
        .with_private_bytes(1 << 14)
        .with_temp_bytes(64 * 1024)
        .with_algos(what.algos());
    let out = Launcher::new(&cfg, TimedBackend).run(move |ctx| {
        let me = ctx.my_pe();
        let n_elems_max = max / 4;
        let src = ctx.shmalloc::<u32>(n_elems_max);
        let dst = ctx.shmalloc::<u32>(n_elems_max * ctx.n_pes());
        ctx.local_fill(&src, me as u32);
        ctx.barrier_all();
        let mut rows = Vec::new();
        for &m in &sizes {
            let n = (m / 4).max(1);
            run_collective(ctx, what, &dst, &src, n);
            let t0 = ctx.time_ns();
            run_collective(ctx, what, &dst, &src, n);
            let dt = ctx.time_ns() - t0;
            if me == 0 {
                let bytes = what.credited_bytes(ctx.n_pes(), n * 4);
                rows.push((n * 4, bytes / dt * 1000.0));
            }
        }
        rows
    });
    out.values.into_iter().next().unwrap()
}

fn run_collective(ctx: &ShmemCtx, what: Collective, dst: &Sym<u32>, src: &Sym<u32>, n: usize) {
    let world = ctx.world();
    match what {
        Collective::BroadcastPush | Collective::BroadcastPull | Collective::BroadcastBinomial => {
            ctx.broadcast(dst, src, n, 0, world)
        }
        Collective::Fcollect => ctx.fcollect(dst, src, n, world),
        Collective::ReduceNaive | Collective::ReduceRecursiveDoubling => {
            ctx.reduce(tshmem::types::ReduceOp::Sum, dst, src, n, world)
        }
    }
}

/// Tile counts for the collective sweeps (the paper's second-column
/// subfigures go up to 36).
pub fn tile_counts(max: usize) -> Vec<usize> {
    [2, 4, 8, 16, 24, 29, 32, 36]
        .into_iter()
        .filter(|t| *t <= max)
        .collect()
}

fn collective_figure(
    id: &str,
    title: &str,
    what: Collective,
    sizes: Vec<usize>,
    tiles_max: usize,
) -> Figure {
    let mut fig = Figure::new(id, title, "bytes per PE", "aggregate MB/s");
    for device in [Device::tile_gx8036(), Device::tilepro64()] {
        for t in tile_counts(tiles_max) {
            let mut s = Series::new(format!("{} {} tiles", device.name, t));
            for (m, bw) in collective_sweep(device, what, t, sizes.clone()) {
                s.push(m as f64, bw);
            }
            fig.series.push(s);
        }
    }
    fig
}

/// Figure 9: push-based broadcast.
pub fn fig9(sizes: Vec<usize>, tiles_max: usize) -> Figure {
    collective_figure(
        "fig9",
        "Push-based broadcast aggregate bandwidth",
        Collective::BroadcastPush,
        sizes,
        tiles_max,
    )
}

/// Figure 10: pull-based broadcast.
pub fn fig10(sizes: Vec<usize>, tiles_max: usize) -> Figure {
    collective_figure(
        "fig10",
        "Pull-based broadcast aggregate bandwidth",
        Collective::BroadcastPull,
        sizes,
        tiles_max,
    )
}

/// Figure 11: fast collection.
pub fn fig11(sizes: Vec<usize>, tiles_max: usize) -> Figure {
    collective_figure(
        "fig11",
        "Fast collection aggregate bandwidth",
        Collective::Fcollect,
        sizes,
        tiles_max,
    )
}

/// Figure 12: integer summation reduction.
pub fn fig12(sizes: Vec<usize>, tiles_max: usize) -> Figure {
    collective_figure(
        "fig12",
        "Integer summation reduction aggregate bandwidth",
        Collective::ReduceNaive,
        sizes,
        tiles_max,
    )
}

/// Default per-PE payload sweep for the collective figures.
pub fn default_sizes() -> Vec<usize> {
    vec![
        1 << 10,
        4 << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: &[usize] = &[64 * 1024, 256 * 1024];

    #[test]
    fn pull_broadcast_scales_push_does_not() {
        let gx = Device::tile_gx8036();
        let pull4 = collective_sweep(gx, Collective::BroadcastPull, 4, SIZES.to_vec());
        let pull16 = collective_sweep(gx, Collective::BroadcastPull, 16, SIZES.to_vec());
        let push4 = collective_sweep(gx, Collective::BroadcastPush, 4, SIZES.to_vec());
        let push16 = collective_sweep(gx, Collective::BroadcastPush, 16, SIZES.to_vec());
        // Pull aggregate grows with tiles...
        assert!(
            pull16[1].1 > 2.0 * pull4[1].1,
            "pull must scale: {} -> {}",
            pull4[1].1,
            pull16[1].1
        );
        // ...push aggregate stays flat (root-serialized).
        assert!(
            push16[1].1 < 1.8 * push4[1].1,
            "push must stay flat: {} -> {}",
            push4[1].1,
            push16[1].1
        );
        // And pull beats push outright at 16 tiles.
        assert!(pull16[1].1 > 2.0 * push16[1].1);
    }

    #[test]
    fn reduce_aggregate_flat_and_low() {
        let gx = Device::tile_gx8036();
        let r4 = collective_sweep(gx, Collective::ReduceNaive, 4, SIZES.to_vec());
        let r16 = collective_sweep(gx, Collective::ReduceNaive, 16, SIZES.to_vec());
        // Serialized on the root: aggregate roughly constant in tiles.
        let ratio = r16[1].1 / r4[1].1;
        assert!((0.5..2.0).contains(&ratio), "flat: {ratio}");
        // And in the paper's ~150 MB/s regime on the Gx.
        assert!((90.0..260.0).contains(&r16[1].1), "{}", r16[1].1);
    }

    #[test]
    fn fcollect_peak_shifts_left_as_tiles_grow() {
        // The quadratic stage-2 cost moves the best per-PE size toward
        // smaller payloads as the tile count rises (Fig 11's signature).
        let gx = Device::tile_gx8036();
        let sizes = vec![16 * 1024, 64 * 1024, 256 * 1024, 1 << 20];
        let few: Vec<(usize, f64)> = collective_sweep(gx, Collective::Fcollect, 4, sizes.clone());
        let many: Vec<(usize, f64)> = collective_sweep(gx, Collective::Fcollect, 16, sizes);
        let argmax = |rows: &[(usize, f64)]| {
            rows.iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|r| r.0)
                .unwrap()
        };
        assert!(
            argmax(&many) <= argmax(&few),
            "peak must not move right: {} vs {}",
            argmax(&many),
            argmax(&few)
        );
    }

    #[test]
    fn recursive_doubling_beats_naive_reduce() {
        let gx = Device::tile_gx8036();
        let naive = collective_sweep(gx, Collective::ReduceNaive, 16, vec![256 * 1024]);
        let rd = collective_sweep(gx, Collective::ReduceRecursiveDoubling, 16, vec![256 * 1024]);
        assert!(
            rd[0].1 > 1.5 * naive[0].1,
            "rd {} must beat naive {}",
            rd[0].1,
            naive[0].1
        );
    }
}
