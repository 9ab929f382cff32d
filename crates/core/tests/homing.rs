//! Homing-hinted allocation (Section VI "memory-homing strategies"):
//! functionally transparent, and the timed engine must show the
//! contention physics of paper Section III-A.

use tshmem::prelude::*;

fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(4 << 20)
        .with_private_bytes(1 << 14)
        .with_temp_bytes(1 << 12)
}

#[test]
fn homed_allocations_are_functionally_identical() {
    launch(&cfg(4), |ctx| {
        for hint in [HomingHint::HashForHome, HomingHint::MyTile, HomingHint::Tile(0)] {
            let v = ctx.shmalloc_homed::<u64>(64, hint);
            let me = ctx.my_pe();
            ctx.put(&v, 0, &vec![me as u64 + 7; 64], (me + 1) % ctx.n_pes());
            ctx.barrier_all();
            let prev = (me + ctx.n_pes() - 1) % ctx.n_pes();
            assert_eq!(ctx.local_read(&v, 0, 64), vec![prev as u64 + 7; 64], "{hint:?}");
            ctx.barrier_all();
            ctx.shfree(v);
        }
    });
}

#[test]
fn timed_single_tile_homing_bottlenecks_under_many_readers() {
    // All PEs pull from PE 0's copy: with hash-for-home the load spreads
    // over every home port; homed on tile 0, everything serializes on
    // one port (paper Section III-A's rationale for hash-for-home).
    fn sweep(hint: HomingHint) -> f64 {
        let out = Launcher::new(&cfg(16), TimedBackend).run(move |ctx| {
            let n = 64 * 1024 / 8; // 64 kB per pull
            let src = ctx.shmalloc_homed::<u64>(n, hint);
            let dst = ctx.shmalloc::<u64>(n);
            ctx.barrier_all();
            // Warm: install the source on chip.
            if ctx.my_pe() == 0 {
                ctx.put_sym(&src, 0, &dst, 0, n, 0);
            }
            ctx.barrier_all();
            let t0 = ctx.time_ns();
            if ctx.my_pe() != 0 {
                ctx.get_sym(&dst, 0, &src, 0, n, 0);
            }
            ctx.quiet();
            ctx.barrier_all();
            ctx.time_ns() - t0
        });
        // Aggregate MB/s across the 15 readers.
        let worst = out.values.iter().cloned().fold(0.0f64, f64::max);
        15.0 * 64.0 * 1024.0 / worst * 1000.0
    }
    let hash = sweep(HomingHint::HashForHome);
    let fixed = sweep(HomingHint::Tile(0));
    assert!(
        hash > 2.0 * fixed,
        "hash-for-home {hash} MB/s must beat single-tile homing {fixed} MB/s under contention"
    );
}

#[test]
fn freeing_homed_region_clears_override() {
    // After shfree, a new allocation reusing the offsets must behave as
    // hash-for-home again (no stale override).
    let out = Launcher::new(&cfg(8), TimedBackend).run(|ctx| {
        let n = 32 * 1024 / 8;
        let a = ctx.shmalloc_homed::<u64>(n, HomingHint::Tile(0));
        ctx.shfree(a);
        // Reuses the same heap offsets.
        let b = ctx.shmalloc::<u64>(n);
        let dst = ctx.shmalloc::<u64>(n);
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            ctx.put_sym(&b, 0, &dst, 0, n, 0);
        }
        ctx.barrier_all();
        let t0 = ctx.time_ns();
        if ctx.my_pe() != 0 {
            ctx.get_sym(&dst, 0, &b, 0, n, 0);
        }
        ctx.barrier_all();
        ctx.time_ns() - t0
    });
    // With the override cleared, 7 concurrent readers spread over all
    // home ports; the pull must be far faster than the serialized rate
    // (7 x 32 kB at tile 0's ~1.28 GB/s port would take ~175 us).
    let worst = out.values.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        worst < 120_000.0,
        "cleared homing should not serialize: {worst} ns"
    );
}
