//! Ablations beyond the paper's figures (DESIGN.md §4): algorithm and
//! homing-policy comparisons that quantify the design choices.

use cachesim::homing::Homing;
use cachesim::memsys::{MemRef, MemorySystem};
use desim::time::SimTime;
use tile_arch::device::Device;

use crate::collectives::{collective_sweep, Collective};
use crate::series::{Figure, Series};

pub use crate::barrier::ablation_barrier;

/// Broadcast algorithms head-to-head at a fixed per-PE payload.
pub fn ablation_broadcast(device: Device, payload: usize, tiles: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "ablation-broadcast",
        format!("Broadcast algorithms at {payload} B per PE ({})", device.name),
        "tiles",
        "aggregate MB/s",
    );
    for what in [
        Collective::BroadcastPush,
        Collective::BroadcastPull,
        Collective::BroadcastBinomial,
    ] {
        let mut s = Series::new(what.label());
        for &t in tiles {
            let rows = collective_sweep(device, what, t, vec![payload]);
            s.push(t as f64, rows[0].1);
        }
        fig.series.push(s);
    }
    fig
}

/// Reduction algorithms head-to-head (the paper's future-work item).
pub fn ablation_reduce(device: Device, payload: usize, tiles: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "ablation-reduce",
        format!("Reduction algorithms at {payload} B per PE ({})", device.name),
        "tiles",
        "aggregate MB/s",
    );
    for what in [Collective::ReduceNaive, Collective::ReduceRecursiveDoubling] {
        let mut s = Series::new(what.label());
        for &t in tiles {
            let rows = collective_sweep(device, what, t, vec![payload]);
            s.push(t as f64, rows[0].1);
        }
        fig.series.push(s);
    }
    fig
}

/// Memory-homing policies under a many-reader pull pattern: aggregate
/// bandwidth of `readers` tiles each pulling `bytes` from one buffer,
/// homed three ways. Hash-for-home spreads the load over every tile's
/// home port; single-tile homing bottlenecks on one port — the paper's
/// Section III-A rationale for TSHMEM's use of hash-for-home.
pub fn ablation_homing(device: Device, bytes: u64, readers_sweep: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "ablation-homing",
        format!("Homing policy under concurrent pulls of {bytes} B ({})", device.name),
        "readers",
        "aggregate MB/s",
    );
    const SRC: u64 = 0x9000_0000;
    for (label, homing) in [
        ("hash-for-home", Homing::HashForHome),
        ("remote-homed (tile 0)", Homing::Remote(0)),
        ("local-homed (tile 0)", Homing::Local(0)),
    ] {
        let mut s = Series::new(label);
        for &readers in readers_sweep {
            let tiles = device.grid.tiles().min(36);
            let mut sys = MemorySystem::new(device, tiles);
            // Producer installs the buffer on chip under this homing.
            sys.copy(
                0,
                MemRef::new(SRC, homing),
                MemRef::new(0x1000_0000, Homing::Local(0)),
                bytes,
                SimTime::ZERO,
            );
            let start = SimTime::from_us(100);
            let mut done = SimTime::ZERO;
            for r in 0..readers {
                let tile = 1 + (r % (tiles - 1));
                let dst = MemRef::new(0x2000_0000 + r as u64 * 0x40_0000, Homing::Local(tile));
                let end = sys.copy(tile, dst, MemRef::new(SRC, homing), bytes, start);
                done = done.max(end);
            }
            let secs = (done - start).s_f64();
            s.push(readers as f64, readers as f64 * bytes as f64 / secs / 1e6);
        }
        fig.series.push(s);
    }
    fig
}

/// Multi-device scaling (the paper's Section VI future work): the same
/// total PE count arranged as 1, 2, or 4 chips. Intra-chip collectives
/// ride the DDC; cross-chip traffic pays mPIPE latency and 10 Gbps
/// links, so the single-chip arrangement dominates — quantifying how
/// much a multi-device TSHMEM would need to hide.
pub fn ablation_multichip(total_pes: usize, payload: usize) -> Figure {
    use tshmem::prelude::*;
    let mut fig = Figure::new(
        "ablation-multichip",
        format!("{total_pes} PEs as 1/2/4 chips, {payload} B-per-PE collectives"),
        "chips",
        "us per operation",
    );
    let mut bcast = Series::new("pull broadcast");
    let mut reduce = Series::new("sum reduction");
    let mut barrier = Series::new("barrier");
    for chips in [1usize, 2, 4] {
        if !total_pes.is_multiple_of(chips) {
            continue;
        }
        let per_chip = total_pes / chips;
        let cfg = RuntimeConfig::new(per_chip)
            .with_partition_bytes(4 * payload * total_pes + (1 << 20))
            .with_private_bytes(1 << 14)
            .with_temp_bytes(1 << 14);
        let out = Launcher::new(&cfg, MultiChipBackend { chips }).run(move |ctx| {
            let n = payload / 4;
            let src = ctx.shmalloc::<u32>(n);
            let dst = ctx.shmalloc::<u32>(n * ctx.n_pes());
            ctx.local_fill(&src, ctx.my_pe() as u32);
            ctx.barrier_all();
            let t0 = ctx.time_ns();
            ctx.broadcast(&dst, &src, n, 0, ctx.world());
            let t1 = ctx.time_ns();
            ctx.sum_to_all(&dst, &src, n, ctx.world());
            let t2 = ctx.time_ns();
            ctx.barrier_all();
            let t3 = ctx.time_ns();
            (t1 - t0, t2 - t1, t3 - t2)
        });
        let (b, r, ba) = out.values[0];
        bcast.push(chips as f64, b / 1e3);
        reduce.push(chips as f64, r / 1e3);
        barrier.push(chips as f64, ba / 1e3);
    }
    fig.series.push(bcast);
    fig.series.push(reduce);
    fig.series.push(barrier);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_for_home_wins_under_contention() {
        let fig = ablation_homing(Device::tile_gx8036(), 256 * 1024, &[1, 8, 24]);
        let hash = fig.series("hash-for-home").unwrap();
        let remote = fig.series("remote-homed (tile 0)").unwrap();
        // At 24 readers the distributed DDC must beat the single port.
        assert!(
            hash.y_at(24.0) > 2.0 * remote.y_at(24.0),
            "hash {} vs remote {}",
            hash.y_at(24.0),
            remote.y_at(24.0)
        );
    }

    #[test]
    fn splitting_a_job_across_chips_costs() {
        let fig = ablation_multichip(8, 64 * 1024);
        let bcast = fig.series("pull broadcast").unwrap();
        let barrier = fig.series("barrier").unwrap();
        assert!(
            bcast.y_at(2.0) > 2.0 * bcast.y_at(1.0),
            "cross-chip broadcast slower: {} vs {}",
            bcast.y_at(2.0),
            bcast.y_at(1.0)
        );
        assert!(barrier.y_at(2.0) > barrier.y_at(1.0));
    }

    #[test]
    fn binomial_broadcast_beats_push() {
        let fig = ablation_broadcast(Device::tile_gx8036(), 128 * 1024, &[4, 16]);
        let push = fig.series("push broadcast").unwrap();
        let bin = fig.series("binomial broadcast").unwrap();
        assert!(
            bin.y_at(16.0) > push.y_at(16.0),
            "binomial {} vs push {}",
            bin.y_at(16.0),
            push.y_at(16.0)
        );
    }
}
