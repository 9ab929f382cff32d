//! Figures 6 and 7: TSHMEM put/get effective bandwidth across the four
//! address classes.

use tile_arch::device::Device;
use tshmem::prelude::*;

use crate::series::{Figure, Series};

/// Address-class combination (target-source, the paper's notation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Combo {
    DynDyn,
    DynStatic,
    StaticDyn,
    StaticStatic,
}

impl Combo {
    pub const ALL: [Combo; 4] = [
        Combo::DynDyn,
        Combo::DynStatic,
        Combo::StaticDyn,
        Combo::StaticStatic,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Combo::DynDyn => "dynamic-dynamic",
            Combo::DynStatic => "dynamic-static",
            Combo::StaticDyn => "static-dynamic",
            Combo::StaticStatic => "static-static",
        }
    }
}

/// Transfer sizes for the put/get sweeps (8 B – `max`).
pub fn size_sweep(max: usize) -> Vec<usize> {
    crate::memcpy::size_sweep(max as u64)
        .into_iter()
        .map(|s| s as usize)
        .collect()
}

/// Measured (put, get) bandwidths in MB/s for one combo across sizes,
/// on the timed engine with two PEs.
pub fn putget_bandwidth(device: Device, combo: Combo, sizes: Vec<usize>) -> Vec<(usize, f64, f64)> {
    let max = *sizes.iter().max().unwrap();
    let cfg = RuntimeConfig::for_device(device, 2)
        .with_partition_bytes((3 * max + (1 << 20)).max(1 << 21))
        .with_private_bytes((2 * max + (1 << 16)).max(1 << 17))
        .with_temp_bytes(64 * 1024);
    let out = Launcher::new(&cfg, TimedBackend).run(move |ctx| {
        let me = ctx.my_pe();
        let elems_max = max / 8;
        // Allocate both kinds on both PEs (collectively).
        let dyn_t = ctx.shmalloc::<u64>(elems_max);
        let dyn_s = ctx.shmalloc::<u64>(elems_max);
        let stat_t = ctx.static_sym::<u64>(elems_max);
        let stat_s = ctx.static_sym::<u64>(elems_max);
        ctx.barrier_all();
        let mut rows = Vec::new();
        if me == 0 {
            for &size in &sizes {
                let n = (size / 8).max(1);
                let iters = 3;
                // Warm.
                do_put(ctx, combo, &dyn_t, &dyn_s, &stat_t, &stat_s, n);
                let t0 = ctx.time_ns();
                for _ in 0..iters {
                    do_put(ctx, combo, &dyn_t, &dyn_s, &stat_t, &stat_s, n);
                }
                let put_ns = (ctx.time_ns() - t0) / iters as f64;
                do_get(ctx, combo, &dyn_t, &dyn_s, &stat_t, &stat_s, n);
                let t1 = ctx.time_ns();
                for _ in 0..iters {
                    do_get(ctx, combo, &dyn_t, &dyn_s, &stat_t, &stat_s, n);
                }
                let get_ns = (ctx.time_ns() - t1) / iters as f64;
                let bytes = (n * 8) as f64;
                rows.push((n * 8, bytes / put_ns * 1000.0, bytes / get_ns * 1000.0));
            }
        }
        ctx.barrier_all();
        rows
    });
    out.values.into_iter().next().unwrap()
}

fn do_put(
    ctx: &ShmemCtx,
    combo: Combo,
    dyn_t: &Sym<u64>,
    dyn_s: &Sym<u64>,
    stat_t: &Sym<u64>,
    stat_s: &Sym<u64>,
    n: usize,
) {
    match combo {
        Combo::DynDyn => ctx.put_sym(dyn_t, 0, dyn_s, 0, n, 1),
        Combo::DynStatic => ctx.put_sym(dyn_t, 0, stat_s, 0, n, 1),
        Combo::StaticDyn => ctx.put_sym(stat_t, 0, dyn_s, 0, n, 1),
        Combo::StaticStatic => ctx.put_sym(stat_t, 0, stat_s, 0, n, 1),
    }
}

fn do_get(
    ctx: &ShmemCtx,
    combo: Combo,
    dyn_t: &Sym<u64>,
    dyn_s: &Sym<u64>,
    stat_t: &Sym<u64>,
    stat_s: &Sym<u64>,
    n: usize,
) {
    match combo {
        Combo::DynDyn => ctx.get_sym(dyn_t, 0, dyn_s, 0, n, 1),
        Combo::DynStatic => ctx.get_sym(dyn_t, 0, stat_s, 0, n, 1),
        Combo::StaticDyn => ctx.get_sym(stat_t, 0, dyn_s, 0, n, 1),
        Combo::StaticStatic => ctx.get_sym(stat_t, 0, stat_s, 0, n, 1),
    }
}

/// Figure 6: dynamic-dynamic put/get on both devices, plus
/// static-static on the Gx36. `max_bytes` caps the sweep (paper: 16 MB;
/// the harness uses 4 MB, past the convergence point).
pub fn fig6(max_bytes: usize) -> Figure {
    let mut fig = Figure::new(
        "fig6",
        "TSHMEM put/get bandwidth: dynamic-dynamic (both devices) + static-static (Gx36)",
        "bytes",
        "MB/s",
    );
    for device in [Device::tile_gx8036(), Device::tilepro64()] {
        let rows = putget_bandwidth(device, Combo::DynDyn, size_sweep(max_bytes));
        let mut put = Series::new(format!("{} dyn-dyn put", device.name));
        let mut get = Series::new(format!("{} dyn-dyn get", device.name));
        for (size, p, g) in rows {
            put.push(size as f64, p);
            get.push(size as f64, g);
        }
        fig.series.push(put);
        fig.series.push(get);
    }
    let rows = putget_bandwidth(Device::tile_gx8036(), Combo::StaticStatic, size_sweep(max_bytes));
    let mut put = Series::new("TILE-Gx8036 static-static put");
    let mut get = Series::new("TILE-Gx8036 static-static get");
    for (size, p, g) in rows {
        put.push(size as f64, p);
        get.push(size as f64, g);
    }
    fig.series.push(put);
    fig.series.push(get);
    fig
}

/// Figure 7: all four combos on the TILE-Gx36.
pub fn fig7(max_bytes: usize) -> Figure {
    let mut fig = Figure::new(
        "fig7",
        "TSHMEM put/get bandwidth on TILE-Gx36 by address class (target-source)",
        "bytes",
        "MB/s",
    );
    for combo in Combo::ALL {
        let rows = putget_bandwidth(Device::tile_gx8036(), combo, size_sweep(max_bytes));
        let mut put = Series::new(format!("{} put", combo.label()));
        let mut get = Series::new(format!("{} get", combo.label()));
        for (size, p, g) in rows {
            put.push(size as f64, p);
            get.push(size as f64, g);
        }
        fig.series.push(put);
        fig.series.push(get);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyn_dyn_tracks_fig3_shared_to_shared() {
        // Paper: TSHMEM dyn-dyn shows "low overhead" vs the Fig 3
        // common-memory microbenchmark.
        let gx = Device::tile_gx8036();
        let rows = putget_bandwidth(gx, Combo::DynDyn, vec![8 * 1024, 128 * 1024]);
        let raw_small = crate::memcpy::copy_bandwidth(
            &gx,
            crate::memcpy::CopyKind::SharedToShared,
            8 * 1024,
        );
        let (_, put_small, get_small) = rows[0];
        assert!(put_small > 0.6 * raw_small, "put {put_small} vs raw {raw_small}");
        assert!(get_small > 0.6 * raw_small);
        // Put and get performance closely align (paper Fig 6).
        for (_, p, g) in &rows {
            let ratio = p / g;
            assert!((0.7..1.4).contains(&ratio), "put/get ratio {ratio}");
        }
    }

    #[test]
    fn fig7_cost_ladder() {
        // dd ~= ds > sd > ss at a mid size (the Fig 7 ordering for puts).
        let gx = Device::tile_gx8036();
        let size = vec![64 * 1024usize];
        let dd = putget_bandwidth(gx, Combo::DynDyn, size.clone())[0].1;
        let ds = putget_bandwidth(gx, Combo::DynStatic, size.clone())[0].1;
        let sd = putget_bandwidth(gx, Combo::StaticDyn, size.clone())[0].1;
        let ss = putget_bandwidth(gx, Combo::StaticStatic, size)[0].1;
        assert!(
            ds > 0.65 * dd,
            "dynamic-static put must be near dyn-dyn: {ds} vs {dd}"
        );
        assert!(sd < dd, "redirected put slower: {sd} vs {dd}");
        assert!(ss < sd, "temp-assisted slowest: {ss} vs {sd}");
    }

    #[test]
    fn mirrored_get_ladder() {
        // For gets: static-dynamic (direct) fast, dynamic-static
        // (redirected) slower, static-static slowest.
        let gx = Device::tile_gx8036();
        let size = vec![64 * 1024usize];
        let dd = putget_bandwidth(gx, Combo::DynDyn, size.clone())[0].2;
        let sd = putget_bandwidth(gx, Combo::StaticDyn, size.clone())[0].2;
        let ds = putget_bandwidth(gx, Combo::DynStatic, size.clone())[0].2;
        let ss = putget_bandwidth(gx, Combo::StaticStatic, size)[0].2;
        assert!(sd > 0.65 * dd, "static-dynamic get near dd: {sd} vs {dd}");
        assert!(ds < dd, "redirected get slower: {ds} vs {dd}");
        assert!(ss < 1.05 * ds, "static-static no faster than redirected: {ss} vs {ds}");
    }
}
