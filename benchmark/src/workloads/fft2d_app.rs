//! `fft2d_app`: the paper's case study (Section V-A) on the native engine.
//!
//! Two PEs, each on its own CPU, run `fft2d_shmem` at 1024 × 1024 with
//! the direct (coherent-store) transpose, several images per epoch. The
//! `apps` kernel dominates and communication is small, so this is the
//! workload on which a data-plane or scheduler change should predict
//! *no change*; a move here means the change reached further than it
//! claimed.
//!
//! A round is one whole `fft2d_shmem` call, its own allocation and input
//! load included. The headline operation is the same call, so `op_us` is
//! read from the rounds' own `Fft2dResult::elapsed_ns` (the app's timed
//! region, without allocation and load) and needs no extra batches.
//!
//! Oracle: each image's checksum against `serial_checksum` of the same
//! image, within 1e-3 relative.

use std::time::Instant;

use tshmem::{launch, RuntimeConfig, ShmemCtx};
use tshmem_apps::fft::{fft2d_shmem, serial_checksum, Fft2dConfig, TransposeMode};

use crate::span::{self, span, Layer};
use crate::{affinity, mix, Epoch, PeClock, Workload};

pub struct Fft2dApp {
    cfg: RuntimeConfig,
    cpus: Vec<usize>,
    /// One image per round, the warm-up round first.
    images: Vec<Fft2dConfig>,
    expected: Vec<f64>,
    warm: usize,
    /// Test hook: compare against a checksum 1 % off.
    pub corrupt: bool,
}

struct PeOut {
    clock: PeClock,
    checksums: Vec<f64>,
    elapsed_us: Vec<f64>,
}

impl Fft2dApp {
    pub fn new(seed: u64, quick: bool, allowed: &[usize]) -> Self {
        let (n, warm, rounds) = if quick { (64, 1, 2) } else { (1024, 1, 10) };
        let images: Vec<Fft2dConfig> = (0..warm + rounds)
            .map(|r| Fft2dConfig {
                n,
                seed: mix(seed, 0xff7, r as u64),
                transpose: TransposeMode::Direct,
            })
            .collect();
        let expected = images.iter().map(serial_checksum).collect();
        // work + receive block (n/2 rows each) and the full gather image.
        let bytes = 2 * n * n * 8 + (1 << 20);
        Self {
            cfg: RuntimeConfig::new(2).with_partition_bytes(bytes),
            cpus: allowed.to_vec(),
            images,
            expected,
            warm,
            corrupt: false,
        }
    }

    fn pe_body(&self, ctx: &ShmemCtx) -> PeOut {
        if let Some(cpu) = affinity::pe_cpu(&self.cpus, ctx.my_pe()) {
            affinity::pin(cpu);
        }
        let mut checksums = Vec::new();
        let mut elapsed_us = Vec::new();
        for image in &self.images[..self.warm] {
            fft2d_shmem(ctx, image);
        }
        span(Layer::Sync, "sync.barrier_all", || ctx.barrier_all());
        let aligned = Instant::now();
        for image in &self.images[self.warm..] {
            span(Layer::Bench, "bench.round", || {
                let r = span(Layer::Apps, "apps.fft2d_shmem", || fft2d_shmem(ctx, image));
                checksums.push(r.checksum);
                elapsed_us.push(r.elapsed_ns / 1e3);
            });
        }
        let solved = Instant::now();
        PeOut {
            clock: PeClock {
                aligned,
                solved,
                done: solved,
                excluded: Default::default(),
            },
            checksums,
            elapsed_us,
        }
    }
}

impl Workload for Fft2dApp {
    fn epoch(&mut self, epoch: u32) -> Epoch {
        span::set_epoch(epoch);
        let t0 = Instant::now();
        let outs = span(Layer::Engine, "engine.launch", || {
            let parent = span::current();
            launch(&self.cfg, |ctx| {
                span::lane(ctx.my_pe(), epoch, parent, || self.pe_body(ctx))
            })
        });
        let wall = t0.elapsed();

        let clocks: Vec<PeClock> = outs.iter().map(|o| o.clock).collect();
        let (solve_s, setup_s) = Epoch::from_clocks(wall, &clocks);
        let skew = if self.corrupt { 1.01 } else { 1.0 };
        let failed = self.expected[self.warm..]
            .iter()
            .enumerate()
            .filter(|&(r, want)| {
                outs.iter()
                    .any(|o| ((o.checksums[r] - want * skew) / want).abs() > 1e-3)
            })
            .count() as u64;
        Epoch {
            solve_s,
            setup_s,
            op_us: outs[0].elapsed_us.clone(),
            attempted: self.rounds() as u64,
            failed,
        }
    }

    fn rounds(&self) -> usize {
        self.images.len() - self.warm
    }

    fn resolved(&self) -> Vec<(&'static str, String)> {
        vec![
            ("engine", "\"native\"".into()),
            ("npes", "2".into()),
            ("pe_cpus", affinity::pe_cpu_list(&self.cpus, 2)),
            ("fft_n", self.images[0].n.to_string()),
        ]
    }
}
