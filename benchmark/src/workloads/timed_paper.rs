//! `timed_paper`: the paper-figure program under the timed engine.
//!
//! 36 PEs on the simulated TILE-Gx36, event-driven. One round is the
//! put/get size sweep of Figures 5–7 (8 B to 32 KiB to the right
//! neighbour, read back from the left, a barrier after each), four more `barrier_all`, a 1 KiB
//! `broadcast` from a rotating root and an 8-word `sum_to_all` (Figures
//! 8–12). `desim` and `engine::timed` do the host work; the library code
//! is the same as in `coll_flat32`, so an algorithm change moves both
//! workloads and a simulator change moves only this one.
//!
//! All host times here are what the *simulator* takes. What the modelled
//! hardware would take (the makespan, every PE's final clock) is exact:
//! it must repeat bit for bit across epochs, and a change that only
//! speeds the simulator up must leave it where it was.

use std::time::Instant;

use tshmem::{EngineOutcome, Launcher, RuntimeConfig, ShmemCtx, Sym, TimedBackend};

use crate::span::{self, span, Layer};
use crate::{fold, mix, stats, Epoch, PeClock, Workload, FOLD_SEED};

const NPES: usize = 36;
/// Sweep sizes in u64 words: 8 B, 64 B, 512 B, 4 KiB, 32 KiB.
const SWEEP: [usize; 5] = [1, 8, 64, 512, 4096];
const BARRIERS: usize = 4;
const NBCAST: usize = 128;
const NRED: usize = 8;
/// Checked results per round: one per sweep size, the broadcast, the sum.
const CHECKED: usize = SWEEP.len() + 2;
/// Calls per round: put, barrier, get, barrier per sweep size, then the rest.
const CALLS: usize = 4 * SWEEP.len() + BARRIERS + 2;

pub struct TimedPaper {
    cfg: RuntimeConfig,
    rounds: usize,
    op_batches: usize,
    op_iters: usize,
    seed: u64,
    /// `[pe][round * CHECKED + k]`.
    expected: Vec<Vec<u64>>,
    /// Simulated makespan (ps) and fold of every PE's final clock, from
    /// the first epoch; later epochs must reproduce them.
    pub simulated: Option<(u64, u64)>,
    /// Test hook: PE 0 charges extra compute in epoch 1, which must move
    /// the simulated clocks and fail that epoch.
    pub corrupt: bool,
}

struct Bufs {
    buf: Sym<u64>,
    bsrc: Sym<u64>,
    bdst: Sym<u64>,
    rsrc: Sym<u64>,
    rdst: Sym<u64>,
}

struct PeOut {
    clock: PeClock,
    digests: Vec<u64>,
    op_us: Vec<f64>,
}

fn sweep_word(seed: u64, r: usize, k: usize, from: usize, i: usize) -> u64 {
    mix(
        seed ^ 0x5e,
        (r * SWEEP.len() + k) as u64,
        ((from << 16) + i) as u64,
    )
}

fn bcast_word(seed: u64, r: usize, i: usize) -> u64 {
    mix(seed ^ 0xbc, r as u64, i as u64)
}

fn sum_word(seed: u64, r: usize, pe: usize, i: usize) -> u64 {
    mix(seed ^ 0x50, r as u64, (pe * NRED + i) as u64) & 0xffff_ffff
}

impl TimedPaper {
    pub fn new(seed: u64, quick: bool) -> Self {
        let (npes, rounds) = if quick { (6, 2) } else { (NPES, 18) };
        let mut expected = vec![Vec::new(); npes];
        for r in 0..rounds {
            for (k, &w) in SWEEP.iter().enumerate() {
                // PE `me` reads its left neighbour's buffer, which that
                // neighbour's own left neighbour wrote.
                for (me, e) in expected.iter_mut().enumerate() {
                    let writer = (me + 2 * npes - 2) % npes;
                    let got: Vec<u64> = (0..w).map(|i| sweep_word(seed, r, k, writer, i)).collect();
                    e.push(fold(FOLD_SEED, &got));
                }
            }
            let b: Vec<u64> = (0..NBCAST).map(|i| bcast_word(seed, r, i)).collect();
            let sums: Vec<u64> = (0..NRED)
                .map(|i| (0..npes).fold(0u64, |a, pe| a.wrapping_add(sum_word(seed, r, pe, i))))
                .collect();
            for e in expected.iter_mut() {
                e.push(fold(FOLD_SEED, &b));
                e.push(fold(FOLD_SEED, &sums));
            }
        }
        Self {
            cfg: RuntimeConfig::new(npes).with_partition_bytes(1 << 20),
            rounds,
            op_batches: if quick { 2 } else { 10 },
            op_iters: if quick { 2 } else { 24 },
            seed,
            expected,
            simulated: None,
            corrupt: false,
        }
    }

    fn round(&self, ctx: &ShmemCtx, b: &Bufs, r: usize, scratch: &mut [u64], out: &mut Vec<u64>) {
        let (n, me, world, seed) = (ctx.n_pes(), ctx.my_pe(), ctx.world(), self.seed);
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        for (k, &w) in SWEEP.iter().enumerate() {
            for (i, s) in scratch[..w].iter_mut().enumerate() {
                *s = sweep_word(seed, r, k, me, i);
            }
            span(Layer::Rma, "rma.put", || {
                ctx.put(&b.buf, 0, &scratch[..w], right)
            });
            span(Layer::Sync, "sync.barrier_all", || ctx.barrier_all());
            span(Layer::Rma, "rma.get", || {
                ctx.get(&mut scratch[..w], &b.buf, 0, left)
            });
            out.push(fold(FOLD_SEED, &scratch[..w]));
            // The next size's put must not land before the neighbour has read this one.
            span(Layer::Sync, "sync.barrier_all", || ctx.barrier_all());
        }
        for _ in 0..BARRIERS {
            span(Layer::Sync, "sync.barrier_all", || ctx.barrier_all());
        }
        let root = r % n;
        if me == root {
            ctx.with_local_mut(&b.bsrc, |s| {
                for (i, w) in s.iter_mut().enumerate() {
                    *w = bcast_word(seed, r, i);
                }
            });
        }
        span(Layer::Collectives, "collectives.broadcast", || {
            ctx.broadcast(&b.bdst, &b.bsrc, NBCAST, root, world)
        });
        let got = if me == root { &b.bsrc } else { &b.bdst };
        out.push(ctx.with_local(got, |d| fold(FOLD_SEED, d)));
        ctx.with_local_mut(&b.rsrc, |s| {
            for (i, w) in s.iter_mut().enumerate() {
                *w = sum_word(seed, r, me, i);
            }
        });
        span(Layer::Collectives, "collectives.sum_to_all", || {
            ctx.sum_to_all(&b.rdst, &b.rsrc, NRED, world)
        });
        out.push(ctx.with_local(&b.rdst, |d| fold(FOLD_SEED, d)));
    }

    fn pe_body(&self, ctx: &ShmemCtx, epoch: u32) -> PeOut {
        let words = *SWEEP.last().expect("sweep sizes");
        let b = span(Layer::Heap, "heap.shmalloc", || Bufs {
            buf: ctx.shmalloc(words),
            bsrc: ctx.shmalloc(NBCAST),
            bdst: ctx.shmalloc(NBCAST),
            rsrc: ctx.shmalloc(NRED),
            rdst: ctx.shmalloc(NRED),
        });
        let mut scratch = vec![0u64; words];
        let mut digests = Vec::with_capacity(self.rounds * CHECKED);
        // One warm-up round, on inputs of its own.
        self.round(ctx, &b, self.rounds, &mut scratch, &mut digests);
        digests.clear();
        if self.corrupt && epoch == 1 && ctx.my_pe() == 0 {
            ctx.compute(1000.0);
        }
        span(Layer::Sync, "sync.barrier_all", || ctx.barrier_all());
        let aligned = Instant::now();
        for r in 0..self.rounds {
            span(Layer::Bench, "bench.round", || {
                self.round(ctx, &b, r, &mut scratch, &mut digests)
            });
        }
        let solved = Instant::now();
        let op_ns = stats::batch_means_ns(self.op_batches, self.op_iters, || ctx.barrier_all());
        let done = Instant::now();
        span(Layer::Heap, "heap.shfree", || {
            for s in [b.rdst, b.rsrc, b.bdst, b.bsrc, b.buf] {
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

    /// Run the launch of one epoch (the probes call this with a traced
    /// configuration too).
    fn launch(&self, cfg: &RuntimeConfig, epoch: u32) -> EngineOutcome<PeOut> {
        span(Layer::Engine, "engine.launch_timed", || {
            let parent = span::current();
            Launcher::new(cfg, TimedBackend)
                .run(|ctx| span::lane(ctx.my_pe(), epoch, parent, || self.pe_body(ctx, epoch)))
        })
    }

    /// One untimed launch with `with_trace()`: the simulated makespan in
    /// ps, the clock fold, and the engine's own operation trace.
    pub fn simulate_traced(&self) -> (u64, u64, Vec<tshmem::trace::TraceEvent>) {
        let out = self.launch(&self.cfg.with_trace(), 0);
        let clocks: Vec<u64> = out.clocks.iter().map(|c| c.ps()).collect();
        (
            out.makespan.ps(),
            fold(FOLD_SEED, &clocks),
            out.trace.unwrap_or_default(),
        )
    }

    pub fn npes(&self) -> usize {
        self.cfg.npes
    }
}

impl Workload for TimedPaper {
    fn epoch(&mut self, epoch: u32) -> Epoch {
        span::set_epoch(epoch);
        let t0 = Instant::now();
        let out = self.launch(&self.cfg, epoch);
        let wall = t0.elapsed();

        let clocks: Vec<PeClock> = out.values.iter().map(|o| o.clock).collect();
        let (solve_s, setup_s) = Epoch::from_clocks(wall, &clocks);
        let mut failed = (0..self.rounds * CHECKED)
            .filter(|&c| {
                out.values
                    .iter()
                    .zip(&self.expected)
                    .any(|(o, e)| o.digests.get(c) != Some(&e[c]))
            })
            .count() as u64;
        let sim_clocks: Vec<u64> = out.clocks.iter().map(|c| c.ps()).collect();
        let simulated = (out.makespan.ps(), fold(FOLD_SEED, &sim_clocks));
        // A simulated result that moved between epochs fails the epoch's
        // every call: nothing it timed is the program it claims to be.
        if *self.simulated.get_or_insert(simulated) != simulated {
            failed = (self.rounds * CALLS) as u64;
        }
        Epoch {
            solve_s,
            setup_s,
            op_us: out.values[0].op_us.clone(),
            attempted: (self.rounds * CALLS) as u64,
            failed,
        }
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn resolved(&self) -> Vec<(&'static str, String)> {
        vec![
            ("engine", "\"timed\"".into()),
            ("npes", self.cfg.npes.to_string()),
            ("device", crate::json::quote(self.cfg.device.name)),
            ("timed_mode", "\"event_driven\"".into()),
        ]
    }
}
