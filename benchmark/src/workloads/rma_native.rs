//! `rma_native`: the data plane alone, on the native engine.
//!
//! Two PEs, one thread each on its own CPU; the service contexts stay on
//! PE 0's CPU, where the launching thread is pinned, so a redirected
//! operation is two same-CPU hand-offs (1.4 µs) and not two cross-vCPU
//! wake-ups (47 µs of hypervisor latency). PE 0 streams a seeded
//! program at a passive PE 1: dynamic put/get at 64 B, 4 KiB and 16 MiB,
//! static-target put/get (redirected through PE 1's service handler),
//! static→static `put_sym`, stride-2 `iput`/`iget`, `put_nbi` trains
//! closed by `quiet`, `put_signal`, `fadd` and `cswap`. Every round runs
//! the same multiset of operations in a seeded order at seeded offsets,
//! so work does not depend on the seed. Puts sit beside gets so a gain
//! for one that costs the other shows; synchronisation stays out (a
//! 2-PE native barrier loop measured 1.9–2.6 s for identical work).
//!
//! The 16 MiB transfers fit this host's 260 MiB L3: they are
//! L3-resident copies, not DRAM bandwidth.
//!
//! The headline operation is a 256 KiB put to the dynamic heap: source
//! and target stay in L2, the plateau of the paper's put-bandwidth curve.
//! It is bound by the cache and not by the core, which is what makes it
//! repeat on this host: the core runs in one of three speeds 1.3× apart
//! for seconds at a time, and every core-bound candidate (the redirected
//! 4 KiB put, a 64 B put, `fadd`) followed it, their run medians landing
//! on one speed or the other (NOISE.md).
//!
//! Oracle: a sequential replay of the program. PE 1's final dynamic,
//! static, atomic and signal words, PE 0's get destinations and the fold
//! of every value an atomic returned must all match it.

use std::time::Instant;

use tshmem::{launch, RuntimeConfig, ShmemCtx, SignalOp, Stats, Sym};

use crate::span::{self, span, Layer};
use crate::{affinity, fold, mix, stats, Epoch, PeClock, Workload, FOLD_SEED};

const W64B: usize = 8;
pub const W4K: usize = 512;
const W256K: usize = 32 << 10;
const W16M: usize = 2 << 20;
/// Dynamic target of the program: one 16 MiB transfer plus room to slide it.
const DYN_PROGRAM_WORDS: usize = W16M + 8192;
/// Dynamic allocation on each PE: the program's target, then one 256 KiB
/// slot the headline batches write.
const DYN_WORDS: usize = DYN_PROGRAM_WORDS + W256K;
/// Static target: 480 KiB.
const STAT_WORDS: usize = 60 * 1024;
const ATOM_WORDS: usize = 64;
const SIG_WORDS: usize = 8;
/// PE 0's private source and get-destination buffers.
const LOCAL_WORDS: usize = DYN_PROGRAM_WORDS;
/// What PE 0's get destination holds before the first get: not zero, so
/// that allocating it writes (and so first-touches) every page.
const LOCAL_FILL: u64 = !0;
/// One `put_nbi` train: 64 puts of 512 B.
pub const TRAIN_PUTS: usize = 64;
pub const TRAIN_WORDS: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    PutDyn,
    GetDyn,
    PutStatic,
    GetStatic,
    PutStaticStatic,
    IPut,
    IGet,
    NbiTrain,
    PutSignal,
    Fadd,
    Cswap,
}

/// What one round is made of: `(kind, count, words per operation)`.
const MIX: [(Kind, usize, usize); 15] = [
    (Kind::PutDyn, 1500, W64B),
    (Kind::GetDyn, 1500, W64B),
    (Kind::PutDyn, 400, W4K),
    (Kind::GetDyn, 400, W4K),
    (Kind::PutDyn, 2, W16M),
    (Kind::GetDyn, 2, W16M),
    (Kind::PutStatic, 60, W4K),
    (Kind::GetStatic, 60, W4K),
    (Kind::PutStaticStatic, 40, W4K),
    (Kind::IPut, 150, W4K),
    (Kind::IGet, 150, W4K),
    (Kind::NbiTrain, 8, TRAIN_PUTS * TRAIN_WORDS),
    (Kind::PutSignal, 60, W4K),
    (Kind::Fadd, 400, 1),
    (Kind::Cswap, 400, 1),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    pub kind: Kind,
    pub words: usize,
    /// Word offset in the remote region the kind addresses.
    pub remote: usize,
    /// Word offset in PE 0's source (puts) or destination (gets).
    pub local: usize,
    /// Atomics: value to add or to swap in. `put_signal`: value added.
    pub value: u64,
    /// `cswap`: the comparand.
    pub cond: u64,
}

/// Which checked region an operation's effect lands in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Region {
    Dyn,
    Static,
    Local,
    Atomic,
}

fn region(kind: Kind) -> Region {
    match kind {
        Kind::PutDyn | Kind::IPut | Kind::NbiTrain | Kind::PutSignal => Region::Dyn,
        Kind::PutStatic | Kind::PutStaticStatic => Region::Static,
        Kind::GetDyn | Kind::GetStatic | Kind::IGet => Region::Local,
        Kind::Fadd | Kind::Cswap => Region::Atomic,
    }
}

/// Words of the remote region an operation addresses.
fn remote_space(kind: Kind) -> usize {
    match kind {
        Kind::Fadd | Kind::Cswap => ATOM_WORDS,
        Kind::PutStatic | Kind::GetStatic | Kind::PutStaticStatic => STAT_WORDS,
        _ => DYN_PROGRAM_WORDS,
    }
}

/// Counter-mode draws from the seed.
struct Draws {
    seed: u64,
    n: u64,
}

impl Draws {
    fn word(&mut self) -> u64 {
        self.n += 1;
        mix(self.seed, 0x9a, self.n)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.word() % n as u64) as usize
    }
}

/// The seeded program: `rounds` rounds, each a seeded shuffle of [`MIX`]
/// at seeded offsets. `scale` > 1 divides the counts for the test size
/// (and shrinks the 16 MiB transfers to 4 KiB).
pub fn program(seed: u64, rounds: usize, scale: usize) -> Vec<Vec<Op>> {
    let mut atom = [0u64; ATOM_WORDS];
    let mut d = Draws { seed, n: 0 };
    (0..rounds)
        .map(|_| {
            let mut ops = Vec::new();
            for (kind, count, words) in MIX {
                let (count, words) = match scale {
                    1 => (count, words),
                    _ => (
                        (count / scale).max(1),
                        if words == W16M { W4K } else { words },
                    ),
                };
                for _ in 0..count {
                    // Stride-2 operations span twice their element count remotely.
                    let span = if matches!(kind, Kind::IPut | Kind::IGet) {
                        2 * words
                    } else {
                        words
                    };
                    let remote = d.below(remote_space(kind) - span + 1);
                    let local = match kind {
                        Kind::PutStaticStatic => d.below(STAT_WORDS - words),
                        Kind::Fadd | Kind::Cswap => 0,
                        _ => d.below(LOCAL_WORDS - words),
                    };
                    let value = d.word() >> 8;
                    let mut cond = 0;
                    match kind {
                        Kind::Fadd => atom[remote] = atom[remote].wrapping_add(value),
                        Kind::Cswap => {
                            // Half the swaps succeed: the comparand is the live value.
                            cond = if d.below(2) == 0 {
                                atom[remote]
                            } else {
                                !atom[remote]
                            };
                            if cond == atom[remote] {
                                atom[remote] = value;
                            }
                        }
                        _ => {}
                    }
                    ops.push(Op {
                        kind,
                        words,
                        remote,
                        local,
                        value,
                        cond,
                    });
                }
            }
            // Fisher–Yates with the same generator.
            for i in (1..ops.len()).rev() {
                ops.swap(i, d.below(i + 1));
            }
            ops
        })
        .collect()
}

/// Everything the program can change, as plain vectors: the replay's
/// memory, and what the run's digests are compared against.
struct Model {
    dyn1: Vec<u64>,
    stat1: Vec<u64>,
    atom: Vec<u64>,
    sig: Vec<u64>,
    local: Vec<u64>,
    returned: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Digests {
    dyn1: u64,
    stat1: u64,
    atomic: u64,
    local: u64,
}

impl Model {
    fn apply(&mut self, op: &Op, src: &[u64], stat0: &[u64]) {
        let (r, l, w) = (op.remote, op.local, op.words);
        match op.kind {
            Kind::PutDyn | Kind::NbiTrain => self.dyn1[r..r + w].copy_from_slice(&src[l..l + w]),
            Kind::GetDyn => self.local[l..l + w].copy_from_slice(&self.dyn1[r..r + w]),
            Kind::PutStatic => self.stat1[r..r + w].copy_from_slice(&src[l..l + w]),
            Kind::GetStatic => self.local[l..l + w].copy_from_slice(&self.stat1[r..r + w]),
            Kind::PutStaticStatic => self.stat1[r..r + w].copy_from_slice(&stat0[l..l + w]),
            Kind::IPut => (0..w).for_each(|i| self.dyn1[r + 2 * i] = src[l + i]),
            Kind::IGet => (0..w).for_each(|i| self.local[l + i] = self.dyn1[r + 2 * i]),
            Kind::PutSignal => {
                self.dyn1[r..r + w].copy_from_slice(&src[l..l + w]);
                let s = r % SIG_WORDS;
                self.sig[s] = self.sig[s].wrapping_add(op.value);
            }
            Kind::Fadd => {
                self.returned = fold(self.returned, &[self.atom[r]]);
                self.atom[r] = self.atom[r].wrapping_add(op.value);
            }
            Kind::Cswap => {
                self.returned = fold(self.returned, &[self.atom[r]]);
                if self.atom[r] == op.cond {
                    self.atom[r] = op.value;
                }
            }
        }
    }
}

pub struct RmaNative {
    cfg: RuntimeConfig,
    /// CPUs the process may use; each PE lane pins itself to
    /// [`affinity::pe_cpu`] of them.
    cpus: Vec<usize>,
    warm: usize,
    rounds: usize,
    op_batches: usize,
    op_iters: usize,
    /// PE 0's source words; also the initial static contents of both PEs.
    src: Vec<u64>,
    program: Vec<Vec<Op>>,
    expected: Digests,
    /// Counters of PE 0 from the last epoch (for the layer probes).
    pub last_stats: Stats,
    /// Test hook: PE 0 overwrites one word of PE 1's dynamic region
    /// after the rounds, which must fail every dynamic-target operation.
    pub corrupt: bool,
}

struct PeOut {
    clock: PeClock,
    digests: Option<Digests>,
    local: u64,
    op_us: Vec<f64>,
    stats: Stats,
}

impl RmaNative {
    pub fn new(seed: u64, quick: bool, allowed: &[usize]) -> Self {
        Self::with_rounds(seed, if quick { 2 } else { 32 }, quick, allowed)
    }

    /// The workload with another number of timed rounds (the layer
    /// probes run a short one).
    pub fn with_rounds(seed: u64, rounds: usize, quick: bool, allowed: &[usize]) -> Self {
        let (warm, scale) = (1, if quick { 50 } else { 1 });
        let src: Vec<u64> = (0..LOCAL_WORDS as u64)
            .map(|i| mix(seed, 0x5c, i))
            .collect();
        let program = program(seed, warm + rounds, scale);
        let (op_batches, op_iters) = if quick { (2, 4) } else { (10, 100) };

        let mut m = Model {
            dyn1: vec![0; DYN_WORDS],
            stat1: src[..STAT_WORDS].to_vec(),
            atom: vec![0; ATOM_WORDS],
            sig: vec![0; SIG_WORDS],
            local: vec![LOCAL_FILL; LOCAL_WORDS],
            returned: FOLD_SEED,
        };
        let stat0 = src[..STAT_WORDS].to_vec();
        for op in program.iter().flatten() {
            m.apply(op, &src, &stat0);
        }
        // The headline batches end with this put in place.
        m.dyn1[DYN_PROGRAM_WORDS..].copy_from_slice(&src[..W256K]);
        let expected = Digests {
            dyn1: fold(FOLD_SEED, &m.dyn1),
            stat1: fold(FOLD_SEED, &m.stat1),
            atomic: fold(fold(FOLD_SEED, &m.atom), &m.sig),
            local: fold(fold(FOLD_SEED, &m.local), &[m.returned]),
        };
        Self {
            cfg: RuntimeConfig::new(2).with_partition_bytes(DYN_WORDS * 8 + (1 << 20)),
            cpus: allowed.to_vec(),
            warm,
            rounds,
            op_batches,
            op_iters,
            src,
            program,
            expected,
            last_stats: Stats::default(),
            corrupt: false,
        }
    }

    /// Turn the engine's own operation trace (`with_trace()`) on or off.
    pub fn set_trace(&mut self, on: bool) {
        self.cfg.trace = on;
    }

    fn exec(&self, ctx: &ShmemCtx, s: &Syms, op: &Op, local: &mut [u64], returned: &mut u64) {
        let (r, l, w) = (op.remote, op.local, op.words);
        let src = &self.src;
        match op.kind {
            Kind::PutDyn => span(Layer::Rma, "rma.put", || {
                ctx.put(&s.dyn_, r, &src[l..l + w], 1)
            }),
            Kind::GetDyn => span(Layer::Rma, "rma.get", || {
                ctx.get(&mut local[l..l + w], &s.dyn_, r, 1)
            }),
            Kind::PutStatic => span(Layer::Rma, "rma.put_static", || {
                ctx.put(&s.stat, r, &src[l..l + w], 1)
            }),
            Kind::GetStatic => span(Layer::Rma, "rma.get_static", || {
                ctx.get(&mut local[l..l + w], &s.stat, r, 1)
            }),
            Kind::PutStaticStatic => span(Layer::Rma, "rma.put_sym", || {
                ctx.put_sym(&s.stat, r, &s.stat, l, w, 1)
            }),
            Kind::IPut => span(Layer::Rma, "rma.iput", || {
                ctx.iput(&s.dyn_, r, 2, &src[l..l + w], 1, w, 1)
            }),
            Kind::IGet => span(Layer::Rma, "rma.iget", || {
                ctx.iget(&mut local[l..l + w], 1, &s.dyn_, r, 2, w, 1)
            }),
            Kind::NbiTrain => {
                for j in 0..TRAIN_PUTS {
                    let (t, f) = (r + j * TRAIN_WORDS, l + j * TRAIN_WORDS);
                    span(Layer::Rma, "rma.put_nbi", || {
                        ctx.put_nbi(&s.dyn_, t, &src[f..f + TRAIN_WORDS], 1)
                    });
                }
                span(Layer::Sync, "sync.quiet", || ctx.quiet());
            }
            Kind::PutSignal => span(Layer::Rma, "rma.put_signal", || {
                ctx.put_signal(
                    &s.dyn_,
                    r,
                    &src[l..l + w],
                    &s.sig,
                    r % SIG_WORDS,
                    op.value,
                    SignalOp::Add,
                    1,
                )
            }),
            Kind::Fadd => {
                let old = span(Layer::Atomics, "atomics.fadd", || {
                    ctx.fadd(&s.atom, r, op.value, 1)
                });
                *returned = fold(*returned, &[old]);
            }
            Kind::Cswap => {
                let old = span(Layer::Atomics, "atomics.cswap", || {
                    ctx.cswap(&s.atom, r, op.cond, op.value, 1)
                });
                *returned = fold(*returned, &[old]);
            }
        }
    }

    fn pe_body(&self, ctx: &ShmemCtx) -> PeOut {
        let me = ctx.my_pe();
        if let Some(cpu) = affinity::pe_cpu(&self.cpus, me) {
            affinity::pin(cpu);
        }
        let s = span(Layer::Heap, "heap.shmalloc", || Syms {
            dyn_: ctx.shmalloc(DYN_WORDS),
            atom: ctx.shmalloc(ATOM_WORDS),
            sig: ctx.shmalloc(SIG_WORDS),
            stat: ctx.static_sym(STAT_WORDS),
        });
        ctx.local_write(&s.stat, 0, &self.src[..STAT_WORDS]);
        // First touch of both big buffers happens here, in one pass each.
        // Left to the warm-up round, its cost followed the seeded order of
        // small and large operations (16 ms at one seed, 27 ms at another).
        if me == 1 {
            ctx.with_local_mut(&s.dyn_, |d| d.fill(0));
        }
        let mut local = if me == 0 {
            vec![LOCAL_FILL; LOCAL_WORDS]
        } else {
            Vec::new()
        };
        let mut returned = FOLD_SEED;
        span(Layer::Sync, "sync.barrier_all", || ctx.barrier_all());
        if me == 0 {
            for ops in &self.program[..self.warm] {
                ops.iter()
                    .for_each(|op| self.exec(ctx, &s, op, &mut local, &mut returned));
            }
        }
        span(Layer::Sync, "sync.barrier_all", || ctx.barrier_all());
        let aligned = Instant::now();
        let (mut solved, mut op_ns) = (aligned, Vec::new());
        if me == 0 {
            for ops in &self.program[self.warm..] {
                span(Layer::Bench, "bench.round", || {
                    ops.iter()
                        .for_each(|op| self.exec(ctx, &s, op, &mut local, &mut returned));
                });
            }
            solved = Instant::now();
            op_ns = stats::batch_means_ns(self.op_batches, self.op_iters, || {
                ctx.put(&s.dyn_, DYN_PROGRAM_WORDS, &self.src[..W256K], 1)
            });
            if self.corrupt {
                ctx.p(&s.dyn_, 3, 0xdead_u64, 1);
            }
        }
        // PE 1 has waited here since the alignment barrier: it is passive.
        ctx.barrier_all();
        let done = Instant::now();

        let digests = (me == 1).then(|| Digests {
            dyn1: ctx.with_local(&s.dyn_, |d| fold(FOLD_SEED, d)),
            stat1: ctx.with_local(&s.stat, |d| fold(FOLD_SEED, d)),
            atomic: ctx.with_local(&s.sig, |g| {
                ctx.with_local(&s.atom, |a| fold(fold(FOLD_SEED, a), g))
            }),
            local: 0,
        });
        let local_digest = fold(fold(FOLD_SEED, &local), &[returned]);
        let excluded = done.elapsed();
        let stats = ctx.stats();
        span(Layer::Heap, "heap.shfree", || {
            ctx.shfree(s.sig);
            ctx.shfree(s.atom);
            ctx.shfree(s.dyn_);
        });
        PeOut {
            clock: PeClock {
                aligned,
                solved,
                done,
                excluded,
            },
            digests,
            local: local_digest,
            op_us: op_ns.into_iter().map(|ns| ns / 1e3).collect(),
            stats,
        }
    }
}

struct Syms {
    dyn_: Sym<u64>,
    atom: Sym<u64>,
    sig: Sym<u64>,
    stat: Sym<u64>,
}

impl Workload for RmaNative {
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
        self.last_stats = outs[0].stats;

        let clocks: Vec<PeClock> = outs.iter().map(|o| o.clock).collect();
        let (solve_s, setup_s) = Epoch::from_clocks(wall, &clocks);
        let got = Digests {
            local: outs[0].local,
            ..outs[1].digests.expect("PE 1 digests")
        };
        // An operation failed if the region its effect lands in is wrong.
        let bad = |r: Region| match r {
            Region::Dyn => got.dyn1 != self.expected.dyn1,
            Region::Static => got.stat1 != self.expected.stat1,
            Region::Atomic => {
                got.atomic != self.expected.atomic || got.local != self.expected.local
            }
            Region::Local => got.local != self.expected.local,
        };
        let timed = || self.program[self.warm..].iter().flatten();
        Epoch {
            solve_s,
            setup_s,
            op_us: outs[0].op_us.clone(),
            attempted: timed().count() as u64,
            failed: timed().filter(|op| bad(region(op.kind))).count() as u64,
        }
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn resolved(&self) -> Vec<(&'static str, String)> {
        vec![
            ("engine", "\"native\"".into()),
            ("npes", "2".into()),
            ("pe_cpus", affinity::pe_cpu_list(&self.cpus, 2)),
        ]
    }
}
