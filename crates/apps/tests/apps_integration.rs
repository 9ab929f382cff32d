//! Distributed application runs validated against serial references,
//! on both engines.

use tshmem::prelude::*;
use tshmem_apps::cbir::{cbir_serial, cbir_shmem, CbirConfig};
use tshmem_apps::fft::{fft2d_shmem, serial_checksum, Fft2dConfig, TransposeMode};

fn cfg(npes: usize, partition_mb: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(partition_mb << 20)
        .with_private_bytes(1 << 16)
        .with_temp_bytes(1 << 12)
}

#[test]
fn fft2d_matches_serial_reference_various_pe_counts() {
    let fcfg = Fft2dConfig { n: 64, seed: 42, ..Fft2dConfig::default() };
    let expect = serial_checksum(&fcfg);
    for npes in [1usize, 2, 4, 6] {
        let out = tshmem::launch(&cfg(npes, 2), move |ctx| fft2d_shmem(ctx, &fcfg));
        for r in &out {
            let rel = (r.checksum - expect).abs() / expect;
            assert!(rel < 1e-4, "npes {npes}: checksum {} vs {expect}", r.checksum);
        }
    }
}

#[test]
fn fft2d_on_timed_engine_matches_and_times() {
    let fcfg = Fft2dConfig { n: 32, seed: 7, ..Fft2dConfig::default() };
    let expect = serial_checksum(&fcfg);
    let out = Launcher::new(&cfg(4, 2), TimedBackend).run(move |ctx| fft2d_shmem(ctx, &fcfg));
    for r in &out.values {
        let rel = (r.checksum - expect).abs() / expect;
        assert!(rel < 1e-4);
        assert!(r.elapsed_ns > 0.0);
    }
    assert!(out.makespan.us_f64() > 1.0);
}

#[test]
fn fft2d_transpose_modes_match_serial_reference() {
    // The redirected transpose modes (blocking round-trips and the
    // nbi-overlapped train) must compute the same spectrum as the
    // direct coherent-store path, on both engines. The static-segment
    // receive block needs (n/npes + 1) * n * 8 private bytes.
    let expect = serial_checksum(&Fft2dConfig { n: 64, seed: 42, ..Fft2dConfig::default() });
    for mode in [TransposeMode::Blocking, TransposeMode::Nbi] {
        let fcfg = Fft2dConfig { n: 64, seed: 42, transpose: mode };
        for npes in [1usize, 4] {
            let out = tshmem::launch(&cfg(npes, 2), move |ctx| fft2d_shmem(ctx, &fcfg));
            for r in &out {
                let rel = (r.checksum - expect).abs() / expect;
                assert!(rel < 1e-4, "{mode:?} npes {npes}: checksum {} vs {expect}", r.checksum);
            }
        }
        let timed = Launcher::new(&cfg(4, 2), TimedBackend).run(move |ctx| fft2d_shmem(ctx, &fcfg));
        for r in &timed.values {
            let rel = (r.checksum - expect).abs() / expect;
            assert!(rel < 1e-4, "{mode:?} timed: checksum {} vs {expect}", r.checksum);
        }
    }
}

#[test]
fn cbir_matches_serial_reference_various_pe_counts() {
    let ccfg = CbirConfig::tiny();
    let expect = cbir_serial(&ccfg);
    for npes in [1usize, 3, 5] {
        let out = tshmem::launch(&cfg(npes, 1), move |ctx| cbir_shmem(ctx, &ccfg));
        for r in &out {
            assert_eq!(r.matches.len(), expect.len(), "npes {npes}");
            for (got, want) in r.matches.iter().zip(&expect) {
                assert_eq!(got.image, want.image, "npes {npes}");
                assert!((got.distance - want.distance).abs() < 1e-5);
            }
        }
    }
}

#[test]
fn cbir_on_timed_engine_speeds_up_with_pes() {
    // The timed engine should show near-linear scaling at small PE
    // counts (Fig 14's linear region).
    let ccfg = CbirConfig {
        num_images: 48,
        dim: 32,
        ..CbirConfig::default()
    };
    let t = |npes: usize| {
        let out = Launcher::new(&cfg(npes, 1), TimedBackend).run(move |ctx| cbir_shmem(ctx, &ccfg));
        out.values[0].elapsed_ns
    };
    let t1 = t(1);
    let t4 = t(4);
    let speedup = t1 / t4;
    assert!(
        (2.5..4.5).contains(&speedup),
        "4-PE speedup {speedup} out of the near-linear band (t1={t1}, t4={t4})"
    );
}

#[test]
fn fft2d_timed_speedup_shows_serial_transpose_plateau() {
    // With the serialized final transpose, speedup must be clearly
    // sublinear by 16 PEs (the Figure 13 plateau mechanism).
    let fcfg = Fft2dConfig { n: 128, seed: 3, ..Fft2dConfig::default() };
    let t = |npes: usize| {
        let out = Launcher::new(&cfg(npes, 2), TimedBackend).run(move |ctx| fft2d_shmem(ctx, &fcfg));
        out.values[0].elapsed_ns
    };
    let t1 = t(1);
    let t16 = t(16);
    let speedup = t1 / t16;
    assert!(speedup > 1.5, "some speedup expected: {speedup}");
    assert!(speedup < 12.0, "plateau expected well below linear: {speedup}");
}
