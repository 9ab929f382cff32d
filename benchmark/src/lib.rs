//! The repo benchmark: six pinned, fixed-work workloads over the TSHMEM
//! stack, each measured from outside every layer. See `README.md` for
//! why each workload exists and `NOISE.md` for the measured run-to-run
//! spread the regression bounds come from.
//!
//! The design rule: **work is fixed, not time.** A run is E epochs of R
//! rounds; an epoch is one launch (or one server lifetime). Every
//! end-to-end number is a median over epochs, and a workload whose
//! progress is a chain of thread hand-offs pins the process to one CPU
//! before it spawns anything.

pub mod affinity;
pub mod compare;
pub mod harness;
pub mod json;
pub mod probes;
pub mod registry;
pub mod span;
pub mod stats;
pub mod workloads;

use std::time::{Duration, Instant};

/// What one PE's closure hands back so the harness can place the clocks.
#[derive(Clone, Copy, Debug)]
pub struct PeClock {
    /// Leaving the alignment barrier: the timed rounds start here.
    pub aligned: Instant,
    /// End of the last timed round.
    pub solved: Instant,
    /// End of the headline-operation batches that follow the rounds.
    pub done: Instant,
    /// Benchmark-only work (oracle hashing) done inside the closure
    /// after `done`; it sits outside every clock.
    pub excluded: Duration,
}

/// One epoch as measured: one launch or one server lifetime.
#[derive(Clone, Debug)]
pub struct Epoch {
    /// Wall time of the timed rounds of fixed work, slowest PE.
    pub solve_s: f64,
    /// Epoch wall time minus its timed window (rounds and headline
    /// batches) and minus the benchmark's own checks: launch, arena
    /// allocation and first touch, `shmalloc`, warm-up, `shfree`, join.
    pub setup_s: f64,
    /// Batch means of the headline operation, µs.
    pub op_us: Vec<f64>,
    /// Operations executed in the timed rounds, and how many of them
    /// gave a wrong result.
    pub attempted: u64,
    pub failed: u64,
}

impl Epoch {
    /// Place the clocks of an epoch that ran as one launch of PE lanes.
    pub fn from_clocks(wall: Duration, clocks: &[PeClock]) -> (f64, f64) {
        let solve = clocks
            .iter()
            .map(|c| c.solved - c.aligned)
            .max()
            .expect("no PEs");
        let first = clocks.iter().map(|c| c.aligned).min().expect("no PEs");
        let last = clocks.iter().map(|c| c.done).max().expect("no PEs");
        let excluded = clocks.iter().map(|c| c.excluded).max().expect("no PEs");
        let setup = wall.saturating_sub(last - first).saturating_sub(excluded);
        (solve.as_secs_f64(), setup.as_secs_f64())
    }
}

/// A workload: inputs made from a seed once, then epochs of fixed work.
pub trait Workload {
    /// Run one epoch and check its outputs.
    fn epoch(&mut self, epoch: u32) -> Epoch;
    /// Timed rounds per epoch (for the provenance line).
    fn rounds(&self) -> usize;
    /// Resolved configuration worth recording with every result:
    /// `(key, JSON value)` pairs — worker and slot counts as resolved,
    /// never a raw `0`. Asked for after the epochs, so a workload can
    /// report what its last epoch ran with.
    fn resolved(&self) -> Vec<(&'static str, String)>;
}

/// FNV-style fold of `words` into `h`: the digest every oracle compares.
#[inline]
pub fn fold(mut h: u64, words: &[u64]) -> u64 {
    for &w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seed of [`fold`].
pub const FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The in-tree SplitMix64 step as a pure function of its inputs: the
/// generator behind every seeded input, so an oracle can recompute any
/// element without replaying a stream.
#[inline]
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut state = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    substrate::rng::splitmix64(&mut state)
}
