//! Portability across engines — the OpenSHMEM promise the paper's
//! case studies demonstrate across libraries, demonstrated here across
//! execution engines: the same application source runs unmodified on
//! the native engine, the timed engine, and the multi-chip engine, and
//! produces the same answers.

use tshmem::prelude::*;
use tshmem::{launch, Launcher, MultiChipBackend, TimedBackend};
use tshmem_apps::cbir::{cbir_serial, cbir_shmem, CbirConfig};
use tshmem_apps::fft::{fft2d_shmem, serial_checksum, Fft2dConfig};

fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(2 << 20)
        .with_private_bytes(1 << 14)
        .with_temp_bytes(1 << 12)
}

#[test]
fn fft_runs_identically_on_all_three_engines() {
    let fcfg = Fft2dConfig { n: 32, seed: 11, ..Fft2dConfig::default() };
    let expect = serial_checksum(&fcfg);
    let near = |cs: f64| (cs - expect).abs() / expect < 1e-4;

    let native = launch(&cfg(4), move |ctx| fft2d_shmem(ctx, &fcfg).checksum);
    assert!(native.iter().all(|c| near(*c)), "native {native:?}");

    let timed = Launcher::new(&cfg(4), TimedBackend).run(move |ctx| fft2d_shmem(ctx, &fcfg).checksum);
    assert!(timed.values.iter().all(|c| near(*c)), "timed");

    let multi = Launcher::new(&cfg(2), MultiChipBackend { chips: 2 })
        .run(move |ctx| fft2d_shmem(ctx, &fcfg).checksum);
    assert!(multi.values.iter().all(|c| near(*c)), "multichip");
}

#[test]
fn cbir_runs_identically_on_all_three_engines() {
    let ccfg = CbirConfig::tiny();
    let expect: Vec<u32> = cbir_serial(&ccfg).iter().map(|m| m.image).collect();

    let native = launch(&cfg(3), move |ctx| {
        cbir_shmem(ctx, &ccfg).matches.iter().map(|m| m.image).collect::<Vec<_>>()
    });
    let timed = Launcher::new(&cfg(3), TimedBackend).run(move |ctx| {
        cbir_shmem(ctx, &ccfg).matches.iter().map(|m| m.image).collect::<Vec<_>>()
    });
    let multi = Launcher::new(&cfg(3), MultiChipBackend { chips: 2 }).run(move |ctx| {
        cbir_shmem(ctx, &ccfg).matches.iter().map(|m| m.image).collect::<Vec<_>>()
    });
    for per_pe in native.iter().chain(&timed.values).chain(&multi.values) {
        assert_eq!(per_pe, &expect);
    }
}

#[test]
fn multichip_slower_than_single_chip_for_the_same_app() {
    // The engines agree on answers but not on clocks: crossing chips
    // costs (that is the point of the §VI study).
    let fcfg = Fft2dConfig { n: 64, seed: 5, ..Fft2dConfig::default() };
    let single = Launcher::new(&cfg(4), TimedBackend).run(move |ctx| fft2d_shmem(ctx, &fcfg).elapsed_ns);
    let multi = Launcher::new(&cfg(2), MultiChipBackend { chips: 2 })
        .run(move |ctx| fft2d_shmem(ctx, &fcfg).elapsed_ns);
    assert!(
        multi.values[0] > 1.5 * single.values[0],
        "4 PEs on 2 chips {} must be slower than on 1 chip {}",
        multi.values[0],
        single.values[0]
    );
}
