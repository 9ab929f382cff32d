//! Random SHMEM program model and its seeded generator.
//!
//! A [`Program`] is a fully-determined description of a parallel run:
//! every PE's operation list, every collective's active set and payload,
//! the algorithm variants to configure, and the temp-buffer size that
//! controls static-segment chunking. Determinism comes from an ownership
//! discipline — during an [`Step::Rma`] phase, PE `p` only touches slots
//! inside its own *stripe* of the shared arrays (on any PE's copy), so
//! any thread interleaving yields the same final state, and a sequential
//! oracle ([`crate::oracle()`]) can predict it exactly. Counters are the
//! one exception: they are updated with commutative atomics only, so
//! their *final* value is deterministic even though intermediate values
//! are not.
//!
//! Generation draws through the [`Draw`] trait so the same byte-for-byte
//! program can come from either a [`substrate::proptest_mini::Source`]
//! (inside `pt::check`, which shrinks failures) or a bare
//! [`substrate::rng::KeyedRng`] (the `cargo run -p stress -- --seed N`
//! replay binary). Both use the same `next_u64() % n` reduction on the
//! same SplitMix64 stream, so `(seed, case)` reported by a failing
//! property identifies the program exactly.
//!
//! There is one vocabulary and its draw stream is frozen: the seeds the
//! tests pin (canaries, smokes, equivalence cases) name programs by
//! `(seed, case)` alone. A change to what the generator draws re-pins
//! every one of them.

use substrate::proptest_mini as pt;
use substrate::rng::KeyedRng;

/// Heap data slots owned by each PE (its stripe of the `data` array).
pub const SLOTS_PER_PE: usize = 16;
/// Static-segment slots owned by each PE (stripe of the `statv` array).
pub const STAT_SLOTS_PER_PE: usize = 8;
/// Commutative atomic counters (all live on PE 0's copy).
pub const NCTRS: usize = 4;
/// Elements each collective member contributes.
pub const COLL_L: usize = 8;
/// Signal words in the shared `sigs` array ([`Step::SignalChain`]
/// draws a non-zero index, pinning the indexed-`wait_until` fix).
pub const NSIG: usize = 4;
/// Payload words each `put_signal` chain hop delivers.
pub const CHAIN_W: usize = 2;

/// One randomized SHMEM run, replayable from its generation seed.
#[derive(Clone, Debug)]
pub struct Program {
    pub npes: usize,
    /// Temp-buffer bytes: small values force multi-chunk static
    /// redirections (the Figure 7 temp-assisted path).
    pub temp_bytes: usize,
    /// `(barrier, broadcast, reduce)` algorithm selectors, in the order
    /// the variants are declared in `tshmem::ctx`.
    pub algos: (u8, u8, u8),
    pub steps: Vec<Step>,
}

#[derive(Clone, Debug)]
pub enum Step {
    /// Concurrent per-PE RMA/atomic traffic, closed by a barrier.
    /// `barrier`: 0 = `barrier_all` (configured algo), 1 = ring,
    /// 2 = root-broadcast, 3 = dissemination (explicit variants).
    Rma { ops: Vec<Vec<RmaOp>>, barrier: u8 },
    /// A collective over `set = (start, log2_stride, size)`. `idx` is
    /// this step's slot region in the shared `coll` array; `vals[rank]`
    /// is member `rank`'s contribution (always `COLL_L` words).
    Coll { kind: CollKind, set: (usize, u32, usize), idx: usize, vals: Vec<Vec<u64>> },
    /// Every PE loops `rounds` times through a `set_lock`-protected
    /// critical section incrementing a shared counter.
    Lock { rounds: u32 },
    /// A token ring over `p()` + `wait_until(Ge)` on the shared `sig`
    /// cell: each round, PE 0 signals PE 1, each PE forwards on arrival,
    /// and PE 0 waits for the wrap-around. Exercises flag waits (spin
    /// accounting) and put→flag ordering. Final `sig` on every copy =
    /// cumulative rounds.
    SignalRing { rounds: u32 },
    /// Rank-ordered claims on the single shared `ring` cell via failing
    /// `cswap` retries: in round `r`, PE `me` spins until it can swap
    /// token `base + r*npes + me` for its successor. Exercises the
    /// useful-vs-spin split under heavy cswap contention. Final cell =
    /// cumulative `rounds * npes`.
    CswapRing { rounds: u32 },
    /// Symmetric-heap churn under concurrent RMA. All PEs
    /// collectively `shmalloc` a scratch array of `npes * slots` words
    /// (zeroed), run a striped round of [`AuxOp`] traffic over it, then
    /// churn the allocation — `refresh = true` frees it and allocates a
    /// same-sized replacement; `refresh = false` `shrealloc`s it one
    /// slot-per-PE larger (the heap block may move, exercising the
    /// preserve-copy + region-rehoming path; the grown tail is zeroed
    /// explicitly because `shrealloc` preserves only the old prefix).
    /// A second round of traffic follows, every PE dumps its full local
    /// copy into the recorded gets, and the array is `shfree`d. Closed
    /// by barrier variant `barrier` (same encoding as [`Step::Rma`]).
    HeapChurn {
        slots: usize,
        refresh: bool,
        round1: Vec<Vec<AuxOp>>,
        round2: Vec<Vec<AuxOp>>,
        barrier: u8,
    },
    /// Non-blocking RMA trains: per-PE [`NbiOp`] lists mixing
    /// `put_nbi`/`get_nbi` to heap and static stripes with interleaved
    /// `fence` (which must *not* complete the train) and mid-train
    /// `quiet`. The step closes with a `quiet` and barrier variant
    /// `barrier` (same encoding as [`Step::Rma`]), so no nbi op ever
    /// crosses a step boundary and the eager/lazy completion modes are
    /// observationally identical.
    NbiTrain { ops: Vec<Vec<NbiOp>>, barrier: u8 },
    /// `put_signal` token ring: each hop delivers a [`CHAIN_W`]
    /// -word payload into the sender's `chaind` stripe on the next PE,
    /// then updates `sigs[idx]` there (`add = false` sets it to the
    /// round target, `add = true` increments) — and the receiver waits
    /// with an *indexed* `wait_until` on `sigs[idx]` before reading the
    /// payload, so signal ordering and the non-zero-index wait path are
    /// both load-bearing. `idx` is always non-zero.
    SignalChain { rounds: u32, idx: usize, add: bool },
    /// A team-scoped collective: the world team is
    /// `split_strided(start_rank, log2_stride, size)` and the
    /// collective runs through the [`tshmem::Team`] methods. Non-member
    /// PEs get `None` from the split and skip. Region bookkeeping in
    /// the shared `coll` array matches [`Step::Coll`].
    TeamColl { kind: TeamKind, split: (usize, u32, usize), idx: usize, vals: Vec<Vec<u64>> },
}

/// Collective kind of a [`Step::TeamColl`].
#[derive(Clone, Debug)]
pub enum TeamKind {
    /// Team broadcast; `root_rank` is a team rank.
    Bcast { root_rank: usize },
    /// Same `op` encoding as [`CollKind::Reduce`].
    Reduce { op: u8 },
    Fcollect,
    Collect,
    /// Block exchange of `nelems` elements per member pair
    /// (`size * nelems <= COLL_L`, so the source region always fits).
    Alltoall { nelems: usize },
}

#[derive(Clone, Debug)]
pub enum CollKind {
    Bcast { root_rank: usize },
    /// `op`: 0 Sum, 1 Min, 2 Max, 3 Or, 4 Xor (wrapping/bitwise on u64).
    Reduce { op: u8 },
    Fcollect,
    /// Variable contributions: rank `r` sends `1 + (r + idx) % COLL_L`
    /// elements.
    Collect,
}

/// One operation issued by PE `me`. All slot fields are *stripe-local*
/// (the executor adds `me * SLOTS_PER_PE` / `me * STAT_SLOTS_PER_PE`),
/// which is what keeps concurrent phases race-free.
#[derive(Clone, Debug)]
pub enum RmaOp {
    /// `p()` one value into `data[stripe(me) + slot]` on PE `to`.
    PutHeapElem { to: usize, slot: usize, val: u64 },
    /// Contiguous `put()` into the heap stripe on PE `to`.
    PutHeapBulk { to: usize, slot: usize, vals: Vec<u64> },
    /// Strided `iput()` (target stride `tst`) into the heap stripe.
    IputHeap { to: usize, slot: usize, tst: usize, vals: Vec<u64> },
    /// `g()` one value back from PE `from`; result is recorded and
    /// checked against the oracle.
    GetHeapElem { from: usize, slot: usize },
    /// Contiguous `get()` of `n` values from PE `from` (recorded).
    GetHeapBulk { from: usize, slot: usize, n: usize },
    /// Contiguous `put()` into the *static* stripe on PE `to`
    /// (temp-assisted redirection when `to != me`).
    PutStatic { to: usize, slot: usize, vals: Vec<u64> },
    /// Strided `iput()` into the static stripe (strided redirection).
    IputStatic { to: usize, slot: usize, tst: usize, vals: Vec<u64> },
    /// Contiguous `get()` from the static stripe on PE `from` (recorded).
    GetStatic { from: usize, slot: usize, n: usize },
    /// Strided `iget()` from the static stripe on PE `from` (recorded).
    IgetStatic { from: usize, slot: usize, sst: usize, n: usize },
    /// `put_sym` our own heap-stripe data into the static stripe on PE
    /// `to` — the Figure 7 static-target/dynamic-source case.
    PutSymDynToStatic { to: usize, slot: usize, dslot: usize, n: usize },
    /// `get_sym` the static stripe on PE `from` into our own heap-stripe
    /// copy — the dynamic-target/static-source (redirected) case.
    GetSymStaticToDyn { from: usize, slot: usize, dslot: usize, n: usize },
    /// Commutative atomic add to counter `ctr` on PE 0.
    CtrAdd { ctr: usize, amount: u64 },
    /// `shmem_ptr` direct store: write `data[stripe(me) + slot]` on PE
    /// `to` through the raw pointer. Race-free by the stripe discipline
    /// (only PE `me` ever touches its stripe on any copy).
    PtrPut { to: usize, slot: usize, val: u64 },
    /// `shmem_ptr` direct load from `data[stripe(me) + slot]` on PE
    /// `from` (recorded and checked against the oracle).
    PtrGet { from: usize, slot: usize },
}

/// One operation on the churned scratch array of a [`Step::HeapChurn`]
/// phase. Slot fields are stripe-local exactly like [`RmaOp`]: PE `me`
/// only touches `aux[me * slots + slot]` on any PE's copy.
#[derive(Clone, Debug)]
pub enum AuxOp {
    /// `p()` one value into our stripe on PE `to`'s copy.
    Put { to: usize, slot: usize, val: u64 },
    /// Contiguous `put()` into our stripe on PE `to`'s copy.
    PutBulk { to: usize, slot: usize, vals: Vec<u64> },
    /// `g()` one value back from our stripe on PE `from`'s copy
    /// (recorded and checked against the oracle).
    Get { from: usize, slot: usize },
}

/// One operation in a [`Step::NbiTrain`]. Slot fields are stripe-local
/// exactly like [`RmaOp`]. `Fence` orders but does *not* complete the
/// preceding puts; `Quiet` completes everything issued so far. The
/// `get_nbi` ops are recorded like their blocking cousins — safe to
/// check against the oracle because `get_nbi` flushes pending puts to
/// its source PE first and the stripe discipline means nobody else
/// writes the slots we read.
#[derive(Clone, Debug)]
pub enum NbiOp {
    /// `put_nbi` into our heap stripe on PE `to`'s copy.
    PutNbiHeap { to: usize, slot: usize, vals: Vec<u64> },
    /// `put_nbi` into our *static* stripe on PE `to` (temp-chunked
    /// redirection when remote, so in-flight chunks ride the nbi temp
    /// bump allocator).
    PutNbiStatic { to: usize, slot: usize, vals: Vec<u64> },
    /// `get_nbi` of `n` heap words from PE `from` (recorded).
    GetNbiHeap { from: usize, slot: usize, n: usize },
    /// `get_nbi` of `n` static words from PE `from` (recorded).
    GetNbiStatic { from: usize, slot: usize, n: usize },
    /// `shmem_fence`: per-destination ordering, leaves ops pending.
    Fence,
    /// `shmem_quiet`: completes the train issued so far.
    Quiet,
}

/// The `CHAIN_W`-word payload PE `sender` delivers in round `round` of a
/// [`Step::SignalChain`] with chain base `base`. Shared by the executor
/// (what gets put) and the oracle (what must arrive): deterministic,
/// collision-free across (base, round, sender).
pub fn chain_payload(base: u64, round: u32, sender: usize) -> [u64; CHAIN_W] {
    let mix = base
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round as u64)
        .wrapping_add((sender as u64) << 32);
    [mix, mix ^ 0xD1B5_4A32_D192_ED03]
}

/// A bounded-draw source of randomness. `below(n)` must reduce the
/// underlying `u64` stream with `% n` so that property-harness sources
/// and raw replay RNGs produce identical programs.
pub trait Draw {
    fn below(&mut self, n: u64) -> u64;
}

/// Replay-side draws: the same `(seed, case)` stream `pt::check` uses.
///
/// Note this deliberately bypasses [`KeyedRng::below`], whose rejection
/// sampling consumes a data-dependent number of words and would diverge
/// from [`pt::Source::below`]'s `% n`.
pub struct RngDraw(KeyedRng);

impl RngDraw {
    pub fn new(seed: u64, case: u64) -> Self {
        Self(KeyedRng::new(seed, case))
    }
}

impl Draw for RngDraw {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }
}

/// Fault-plan seed for sweep case `case` of suite seed `seed`.
///
/// A SplitMix64-style mix *outside* the frozen generator draw streams:
/// the program for `(seed, case)` is generated from the untouched
/// `RngDraw` stream, and the fault plan is drawn from this derived seed
/// via [`tshmem::FaultPlan::from_seed`] — so adding fault injection to
/// a sweep changes no generated program and every faulted run is
/// replayable with `--fault-plan`.
pub fn fault_plan_seed(seed: u64, case: u64) -> u64 {
    let mut z = seed ^ 0xFA17_1A9E_5EED_0001u64.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Harness-side draws, recorded on the shrinkable tape.
pub struct SourceDraw<'a>(pub &'a mut pt::Source);

impl Draw for SourceDraw<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }
}

/// `pt::Strategy` adapter so programs shrink like any other input.
pub struct ProgramStrategy {
    pub npes: usize,
}

impl pt::Strategy for ProgramStrategy {
    type Value = Program;

    fn generate(&self, src: &mut pt::Source) -> Program {
        gen_program(&mut SourceDraw(src), self.npes)
    }
}

fn word(d: &mut impl Draw) -> u64 {
    d.below(u64::MAX)
}

/// Draw a random active set `(start, log2_stride, size)` fitting `npes`.
fn gen_set(d: &mut impl Draw, npes: usize) -> (usize, u32, usize) {
    let size = 1 + d.below(npes as u64) as usize;
    let mut max_log = 0u32;
    while size > 1 && (size - 1) << (max_log + 1) < npes {
        max_log += 1;
    }
    let log2_stride = d.below(max_log as u64 + 1) as u32;
    let span = (size - 1) << log2_stride;
    let start = d.below((npes - span) as u64) as usize;
    (start, log2_stride, size)
}

fn gen_rma_op(d: &mut impl Draw, npes: usize) -> RmaOp {
    let pe = d.below(npes as u64) as usize;
    match d.below(14) {
        0 => {
            let slot = d.below(SLOTS_PER_PE as u64) as usize;
            RmaOp::PutHeapElem { to: pe, slot, val: word(d) }
        }
        1 => {
            let slot = d.below(SLOTS_PER_PE as u64) as usize;
            let n = 1 + d.below((SLOTS_PER_PE - slot) as u64) as usize;
            RmaOp::PutHeapBulk { to: pe, slot, vals: (0..n).map(|_| word(d)).collect() }
        }
        2 => {
            let slot = d.below(SLOTS_PER_PE as u64) as usize;
            let tst = 1 + d.below(3) as usize;
            let maxn = (SLOTS_PER_PE - 1 - slot) / tst + 1;
            let n = 1 + d.below(maxn as u64) as usize;
            RmaOp::IputHeap { to: pe, slot, tst, vals: (0..n).map(|_| word(d)).collect() }
        }
        3 => RmaOp::GetHeapElem { from: pe, slot: d.below(SLOTS_PER_PE as u64) as usize },
        4 => {
            let slot = d.below(SLOTS_PER_PE as u64) as usize;
            let n = 1 + d.below((SLOTS_PER_PE - slot) as u64) as usize;
            RmaOp::GetHeapBulk { from: pe, slot, n }
        }
        5 => {
            let slot = d.below(STAT_SLOTS_PER_PE as u64) as usize;
            let n = 1 + d.below((STAT_SLOTS_PER_PE - slot) as u64) as usize;
            RmaOp::PutStatic { to: pe, slot, vals: (0..n).map(|_| word(d)).collect() }
        }
        6 => {
            let slot = d.below(STAT_SLOTS_PER_PE as u64) as usize;
            let tst = 1 + d.below(3) as usize;
            let maxn = (STAT_SLOTS_PER_PE - 1 - slot) / tst + 1;
            let n = 1 + d.below(maxn as u64) as usize;
            RmaOp::IputStatic { to: pe, slot, tst, vals: (0..n).map(|_| word(d)).collect() }
        }
        7 => {
            let slot = d.below(STAT_SLOTS_PER_PE as u64) as usize;
            let n = 1 + d.below((STAT_SLOTS_PER_PE - slot) as u64) as usize;
            RmaOp::GetStatic { from: pe, slot, n }
        }
        8 => {
            let slot = d.below(STAT_SLOTS_PER_PE as u64) as usize;
            let sst = 1 + d.below(3) as usize;
            let maxn = (STAT_SLOTS_PER_PE - 1 - slot) / sst + 1;
            let n = 1 + d.below(maxn as u64) as usize;
            RmaOp::IgetStatic { from: pe, slot, sst, n }
        }
        9 => {
            let slot = d.below(STAT_SLOTS_PER_PE as u64) as usize;
            let dslot = d.below(SLOTS_PER_PE as u64) as usize;
            let lim = (STAT_SLOTS_PER_PE - slot).min(SLOTS_PER_PE - dslot);
            let n = 1 + d.below(lim as u64) as usize;
            RmaOp::PutSymDynToStatic { to: pe, slot, dslot, n }
        }
        10 => {
            let slot = d.below(STAT_SLOTS_PER_PE as u64) as usize;
            let dslot = d.below(SLOTS_PER_PE as u64) as usize;
            let lim = (STAT_SLOTS_PER_PE - slot).min(SLOTS_PER_PE - dslot);
            let n = 1 + d.below(lim as u64) as usize;
            RmaOp::GetSymStaticToDyn { from: pe, slot, dslot, n }
        }
        11 => RmaOp::CtrAdd { ctr: d.below(NCTRS as u64) as usize, amount: d.below(1000) },
        12 => {
            let slot = d.below(SLOTS_PER_PE as u64) as usize;
            RmaOp::PtrPut { to: pe, slot, val: word(d) }
        }
        _ => RmaOp::PtrGet { from: pe, slot: d.below(SLOTS_PER_PE as u64) as usize },
    }
}

fn gen_aux_op(d: &mut impl Draw, npes: usize, slots: usize) -> AuxOp {
    let pe = d.below(npes as u64) as usize;
    match d.below(3) {
        0 => AuxOp::Put { to: pe, slot: d.below(slots as u64) as usize, val: word(d) },
        1 => {
            let slot = d.below(slots as u64) as usize;
            let n = 1 + d.below((slots - slot) as u64) as usize;
            AuxOp::PutBulk { to: pe, slot, vals: (0..n).map(|_| word(d)).collect() }
        }
        _ => AuxOp::Get { from: pe, slot: d.below(slots as u64) as usize },
    }
}

fn gen_nbi_op(d: &mut impl Draw, npes: usize) -> NbiOp {
    let pe = d.below(npes as u64) as usize;
    match d.below(6) {
        0 => {
            let slot = d.below(SLOTS_PER_PE as u64) as usize;
            let n = 1 + d.below((SLOTS_PER_PE - slot) as u64) as usize;
            NbiOp::PutNbiHeap { to: pe, slot, vals: (0..n).map(|_| word(d)).collect() }
        }
        1 => {
            let slot = d.below(STAT_SLOTS_PER_PE as u64) as usize;
            let n = 1 + d.below((STAT_SLOTS_PER_PE - slot) as u64) as usize;
            NbiOp::PutNbiStatic { to: pe, slot, vals: (0..n).map(|_| word(d)).collect() }
        }
        2 => {
            let slot = d.below(SLOTS_PER_PE as u64) as usize;
            let n = 1 + d.below((SLOTS_PER_PE - slot) as u64) as usize;
            NbiOp::GetNbiHeap { from: pe, slot, n }
        }
        3 => {
            let slot = d.below(STAT_SLOTS_PER_PE as u64) as usize;
            let n = 1 + d.below((STAT_SLOTS_PER_PE - slot) as u64) as usize;
            NbiOp::GetNbiStatic { from: pe, slot, n }
        }
        4 => NbiOp::Fence,
        _ => NbiOp::Quiet,
    }
}

fn gen_aux_round(d: &mut impl Draw, npes: usize, slots: usize) -> Vec<Vec<AuxOp>> {
    (0..npes)
        .map(|_| {
            let nops = d.below(4) as usize;
            (0..nops).map(|_| gen_aux_op(d, npes, slots)).collect()
        })
        .collect()
}

/// Generate one program for `npes` PEs from the draw stream (see the
/// module docs: the stream is frozen).
pub fn gen_program(d: &mut impl Draw, npes: usize) -> Program {
    assert!(npes >= 1);
    // 64 B temp = 8 u64 per chunk: bulk static traffic and strided
    // redirections routinely span several temp round-trips.
    let temp_bytes = [64usize, 512][d.below(2) as usize];
    let algos = (d.below(4) as u8, d.below(3) as u8, d.below(2) as u8);
    let nsteps = 2 + d.below(5) as usize;
    let mut steps = Vec::with_capacity(nsteps);
    let mut coll_idx = 0usize;
    for _ in 0..nsteps {
        match d.below(12) {
            0 | 1 => {
                let ops = (0..npes)
                    .map(|_| {
                        let nops = d.below(5) as usize;
                        (0..nops).map(|_| gen_rma_op(d, npes)).collect()
                    })
                    .collect();
                steps.push(Step::Rma { ops, barrier: d.below(4) as u8 });
            }
            2..=4 => {
                let set = gen_set(d, npes);
                let kind = match d.below(4) {
                    0 => CollKind::Bcast { root_rank: d.below(set.2 as u64) as usize },
                    1 => CollKind::Reduce { op: d.below(5) as u8 },
                    2 => CollKind::Fcollect,
                    _ => CollKind::Collect,
                };
                let vals = (0..set.2).map(|_| (0..COLL_L).map(|_| word(d)).collect()).collect();
                steps.push(Step::Coll { kind, set, idx: coll_idx, vals });
                coll_idx += 1;
            }
            5 => steps.push(Step::Lock { rounds: 1 + d.below(2) as u32 }),
            6 => steps.push(Step::SignalRing { rounds: 1 + d.below(2) as u32 }),
            7 => steps.push(Step::CswapRing { rounds: 1 + d.below(2) as u32 }),
            8 => {
                let slots = 4 + d.below(5) as usize;
                let refresh = d.below(2) == 1;
                let round1 = gen_aux_round(d, npes, slots);
                let round2 = gen_aux_round(d, npes, slots);
                steps.push(Step::HeapChurn {
                    slots,
                    refresh,
                    round1,
                    round2,
                    barrier: d.below(4) as u8,
                });
            }
            9 => {
                let ops = (0..npes)
                    .map(|_| {
                        let nops = 1 + d.below(6) as usize;
                        (0..nops).map(|_| gen_nbi_op(d, npes)).collect()
                    })
                    .collect();
                steps.push(Step::NbiTrain { ops, barrier: d.below(4) as u8 });
            }
            10 => {
                // idx is always non-zero, so every generated chain pins
                // the indexed wait_until path.
                let rounds = 1 + d.below(3) as u32;
                let idx = 1 + d.below(NSIG as u64 - 1) as usize;
                let add = d.below(2) == 1;
                steps.push(Step::SignalChain { rounds, idx, add });
            }
            _ => {
                // Split the world team and run the collective through
                // the Team methods.
                let split = gen_set(d, npes);
                let size = split.2;
                let kind = match d.below(5) {
                    0 => TeamKind::Bcast { root_rank: d.below(size as u64) as usize },
                    1 => TeamKind::Reduce { op: d.below(5) as u8 },
                    2 => TeamKind::Fcollect,
                    3 => TeamKind::Collect,
                    // Alltoall needs size * nelems to fit a COLL_L
                    // source row; degenerate teams fall back.
                    _ if size <= COLL_L => TeamKind::Alltoall { nelems: COLL_L / size },
                    _ => TeamKind::Fcollect,
                };
                let vals = (0..size).map(|_| (0..COLL_L).map(|_| word(d)).collect()).collect();
                steps.push(Step::TeamColl { kind, split, idx: coll_idx, vals });
                coll_idx += 1;
            }
        }
    }
    Program { npes, temp_bytes, algos, steps }
}

/// Number of `Coll` + `TeamColl` steps (each owns one region of the
/// shared `coll` array).
pub fn coll_steps(prog: &Program) -> usize {
    prog.steps
        .iter()
        .filter(|s| matches!(s, Step::Coll { .. } | Step::TeamColl { .. }))
        .count()
}

/// Elements of the shared `coll` array: one `[src | dest]` region per
/// collective step.
pub fn coll_len(prog: &Program) -> usize {
    coll_steps(prog).max(1) * (prog.npes + 1) * COLL_L
}

/// Byte offset of collective step `idx`'s region, in elements.
pub fn coll_base(prog: &Program, idx: usize) -> usize {
    idx * (prog.npes + 1) * COLL_L
}

/// Per-rank contribution size for `CollKind::Collect`.
pub fn collect_nelems(rank: usize, idx: usize) -> usize {
    1 + (rank + idx) % COLL_L
}
