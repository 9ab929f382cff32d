//! `coll_flat32` and `coll_hier256`: the collective round on the coop
//! engine at two scales.
//!
//! One round is 8 `barrier_all`, 4 `sum_to_all` (8 u64), 4 `broadcast`
//! (1 KiB, rotating root), 1 `fcollect` and 1 `alltoall`, all at
//! `Algorithms::default()`. At 32 PEs on one worker the flat algorithms,
//! channel tokens and the same-worker gate hand-off do the work; at 256
//! PEs on four workers the same calls auto-upgrade to the hierarchical
//! algorithms (counter-cell barrier inside a shard, dissemination between
//! shard leaders). A threshold or algorithm change that helps one scale
//! and hurts the other shows as opposite moves of the two workloads.
//!
//! Inputs change with the round, so a result left over from an earlier
//! call fails the check; every expected value is closed-form.

use std::time::Instant;

use tshmem::{CoopBackend, Launcher, RuntimeConfig, ShmemCtx, Sym};

use crate::span::{self, span, Layer};
use crate::{fold, mix, stats, Epoch, PeClock, Workload, FOLD_SEED};

const BARRIERS: usize = 8;
const SUMS: usize = 4;
const BCASTS: usize = 4;
/// u64 per `sum_to_all`.
pub const NRED: usize = 8;
/// u64 per `broadcast`: 1 KiB.
pub const NBCAST: usize = 128;
/// u64 each PE contributes to `fcollect`.
pub const NFC: usize = 8;
/// u64 per (sender, receiver) pair of `alltoall`.
pub const NA2A: usize = 2;
/// Calls per round whose result is checked, and calls per round in all.
const CHECKED: usize = SUMS + BCASTS + 2;
const CALLS: usize = BARRIERS + CHECKED;

const SALT_SUM: u64 = 0x51;
const SALT_BCAST: u64 = 0xb2;
const SALT_FC: u64 = 0xf3;
const SALT_A2A: u64 = 0xa4;

pub struct Coll {
    cfg: RuntimeConfig,
    workers: usize,
    rounds: usize,
    op_batches: usize,
    op_iters: usize,
    seed: u64,
    /// `[pe][round * CHECKED + call]`: digest of the call's result.
    expected: Vec<Vec<u64>>,
    /// Test hook: flip one word of PE 0's first reduce source, which
    /// must fail that call on every PE.
    pub corrupt: bool,
}

struct Bufs {
    rsrc: Sym<u64>,
    rdst: Sym<u64>,
    bsrc: Sym<u64>,
    bdst: Sym<u64>,
    fsrc: Sym<u64>,
    fdst: Sym<u64>,
    asrc: Sym<u64>,
    adst: Sym<u64>,
}

struct PeOut {
    clock: PeClock,
    digests: Vec<u64>,
    op_us: Vec<f64>,
}

fn sum_word(seed: u64, r: usize, k: usize, pe: usize, i: usize) -> u64 {
    mix(
        seed ^ SALT_SUM,
        (r * SUMS + k) as u64,
        (pe * NRED + i) as u64,
    ) & 0xffff_ffff
}

fn bcast_word(seed: u64, r: usize, k: usize, i: usize) -> u64 {
    mix(seed ^ SALT_BCAST, (r * BCASTS + k) as u64, i as u64)
}

fn fc_word(seed: u64, r: usize, pe: usize, i: usize) -> u64 {
    mix(seed ^ SALT_FC, r as u64, (pe * NFC + i) as u64)
}

fn a2a_word(seed: u64, r: usize, n: usize, from: usize, to: usize, i: usize) -> u64 {
    mix(
        seed ^ SALT_A2A,
        r as u64,
        ((from * n + to) * NA2A + i) as u64,
    )
}

impl Coll {
    /// `coll_flat32`: 32 PEs on one worker.
    pub fn flat32(seed: u64, quick: bool) -> Self {
        let (npes, rounds) = if quick { (8, 2) } else { (32, 16) };
        Self::sized(npes, 1, rounds, seed, quick)
    }

    /// `coll_hier256`: 256 PEs on four workers (four shards of 64).
    pub fn hier256(seed: u64, quick: bool) -> Self {
        let (npes, rounds) = if quick { (72, 1) } else { (256, 2) };
        Self::sized(npes, 4, rounds, seed, quick)
    }

    /// The round at another scale (the layer probes run short ones);
    /// `quick` shrinks the headline batches that follow the rounds.
    pub fn sized(npes: usize, workers: usize, rounds: usize, seed: u64, quick: bool) -> Self {
        let cfg = RuntimeConfig::for_scale(npes)
            .with_partition_bytes(256 * 1024)
            .with_private_bytes(64 * 1024);
        let mut expected = vec![Vec::with_capacity(rounds * CHECKED); npes];
        for r in 0..rounds {
            for k in 0..SUMS {
                let sums: Vec<u64> = (0..NRED)
                    .map(|i| {
                        (0..npes).fold(0u64, |a, pe| a.wrapping_add(sum_word(seed, r, k, pe, i)))
                    })
                    .collect();
                let d = fold(FOLD_SEED, &sums);
                expected.iter_mut().for_each(|e| e.push(d));
            }
            for k in 0..BCASTS {
                let data: Vec<u64> = (0..NBCAST).map(|i| bcast_word(seed, r, k, i)).collect();
                let d = fold(FOLD_SEED, &data);
                expected.iter_mut().for_each(|e| e.push(d));
            }
            let all: Vec<u64> = (0..npes * NFC)
                .map(|x| fc_word(seed, r, x / NFC, x % NFC))
                .collect();
            let d = fold(FOLD_SEED, &all);
            expected.iter_mut().for_each(|e| e.push(d));
            for (to, e) in expected.iter_mut().enumerate() {
                let row: Vec<u64> = (0..npes * NA2A)
                    .map(|x| a2a_word(seed, r, npes, x / NA2A, to, x % NA2A))
                    .collect();
                e.push(fold(FOLD_SEED, &row));
            }
        }
        Self {
            cfg,
            workers,
            rounds,
            op_batches: if quick { 2 } else { 10 },
            op_iters: if quick { 4 } else { (1536 / npes).max(4) },
            seed,
            expected,
            corrupt: false,
        }
    }

    /// One round on one PE; digests of the checked calls go to `out`.
    fn round(&self, ctx: &ShmemCtx, b: &Bufs, r: usize, out: &mut Vec<u64>) {
        let (n, me, world, seed) = (ctx.n_pes(), ctx.my_pe(), ctx.world(), self.seed);
        for _ in 0..BARRIERS {
            span(Layer::Sync, "sync.barrier_all", || ctx.barrier_all());
        }
        for k in 0..SUMS {
            ctx.with_local_mut(&b.rsrc, |s| {
                for (i, w) in s.iter_mut().enumerate() {
                    *w = sum_word(seed, r, k, me, i);
                }
                if self.corrupt && me == 0 && r == 0 && k == 0 {
                    s[0] ^= 1;
                }
            });
            span(Layer::Collectives, "collectives.sum_to_all", || {
                ctx.sum_to_all(&b.rdst, &b.rsrc, NRED, world)
            });
            out.push(ctx.with_local(&b.rdst, |d| fold(FOLD_SEED, d)));
        }
        for k in 0..BCASTS {
            let root = (r * BCASTS + k) % n;
            if me == root {
                ctx.with_local_mut(&b.bsrc, |s| {
                    for (i, w) in s.iter_mut().enumerate() {
                        *w = bcast_word(seed, r, k, i);
                    }
                });
            }
            span(Layer::Collectives, "collectives.broadcast", || {
                ctx.broadcast(&b.bdst, &b.bsrc, NBCAST, root, world)
            });
            // The root's dest is not written (OpenSHMEM): it vouches for its source.
            let got = if me == root { &b.bsrc } else { &b.bdst };
            out.push(ctx.with_local(got, |d| fold(FOLD_SEED, d)));
        }
        ctx.with_local_mut(&b.fsrc, |s| {
            for (i, w) in s.iter_mut().enumerate() {
                *w = fc_word(seed, r, me, i);
            }
        });
        span(Layer::Collectives, "collectives.fcollect", || {
            ctx.fcollect(&b.fdst, &b.fsrc, NFC, world)
        });
        out.push(ctx.with_local(&b.fdst, |d| fold(FOLD_SEED, d)));
        ctx.with_local_mut(&b.asrc, |s| {
            for (x, w) in s.iter_mut().enumerate() {
                *w = a2a_word(seed, r, n, me, x / NA2A, x % NA2A);
            }
        });
        span(Layer::Collectives, "collectives.alltoall", || {
            ctx.alltoall(&b.adst, &b.asrc, NA2A, world)
        });
        out.push(ctx.with_local(&b.adst, |d| fold(FOLD_SEED, d)));
    }

    fn pe_body(&self, ctx: &ShmemCtx) -> PeOut {
        let n = ctx.n_pes();
        let b = span(Layer::Heap, "heap.shmalloc", || Bufs {
            rsrc: ctx.shmalloc(NRED),
            rdst: ctx.shmalloc(NRED),
            bsrc: ctx.shmalloc(NBCAST),
            bdst: ctx.shmalloc(NBCAST),
            fsrc: ctx.shmalloc(NFC),
            fdst: ctx.shmalloc(NFC * n),
            asrc: ctx.shmalloc(NA2A * n),
            adst: ctx.shmalloc(NA2A * n),
        });
        let mut digests = Vec::with_capacity(self.rounds * CHECKED);
        // One warm-up round, on inputs of its own.
        self.round(ctx, &b, self.rounds, &mut digests);
        digests.clear();
        span(Layer::Sync, "sync.barrier_all", || ctx.barrier_all());
        let aligned = Instant::now();
        for r in 0..self.rounds {
            span(Layer::Bench, "bench.round", || {
                self.round(ctx, &b, r, &mut digests)
            });
        }
        let solved = Instant::now();
        let op_ns = stats::batch_means_ns(self.op_batches, self.op_iters, || ctx.barrier_all());
        let done = Instant::now();
        span(Layer::Heap, "heap.shfree", || {
            for s in [
                b.adst, b.asrc, b.fdst, b.fsrc, b.bdst, b.bsrc, b.rdst, b.rsrc,
            ] {
                ctx.shfree(s);
            }
        });
        PeOut {
            clock: PeClock {
                aligned,
                solved,
                done,
                excluded: Default::default(),
            },
            digests,
            op_us: op_ns.into_iter().map(|ns| ns / 1e3).collect(),
        }
    }
}

impl Workload for Coll {
    fn epoch(&mut self, epoch: u32) -> Epoch {
        span::set_epoch(epoch);
        let backend = CoopBackend {
            workers: self.workers,
            ..Default::default()
        };
        let t0 = Instant::now();
        let outs = span(Layer::Engine, "engine.launch_coop", || {
            let parent = span::current();
            Launcher::new(&self.cfg, backend)
                .run(|ctx| span::lane(ctx.my_pe(), epoch, parent, || self.pe_body(ctx)))
                .values
        });
        let wall = t0.elapsed();

        let clocks: Vec<PeClock> = outs.iter().map(|o| o.clock).collect();
        let (solve_s, setup_s) = Epoch::from_clocks(wall, &clocks);
        // A call failed if any PE saw a wrong result.
        let failed = (0..self.rounds * CHECKED)
            .filter(|&c| {
                outs.iter()
                    .zip(&self.expected)
                    .any(|(o, e)| o.digests.get(c) != Some(&e[c]))
            })
            .count() as u64;
        Epoch {
            solve_s,
            setup_s,
            op_us: outs[0].op_us.clone(),
            attempted: (self.rounds * CALLS) as u64,
            failed,
        }
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn resolved(&self) -> Vec<(&'static str, String)> {
        let backend = CoopBackend {
            workers: self.workers,
            ..Default::default()
        };
        vec![
            ("engine", "\"coop\"".into()),
            ("npes", self.cfg.npes.to_string()),
            (
                "coop_workers",
                backend.resolved_workers(self.cfg.npes).to_string(),
            ),
        ]
    }
}
