//! Zero-dependency substrate for the TSHMEM reproduction workspace.
//!
//! TSHMEM's pitch is a thin layer owning its primitives directly over
//! the hardware substrate — TMC sync objects, UDN channels, spin
//! barriers — rather than a stack of third-party runtimes. This crate is
//! the software analog of that stance: everything the build-and-test
//! path needs that `std` does not provide lives here, in-tree, with no
//! external crates. That keeps tier-1 (`cargo build --release &&
//! cargo test -q`) fully offline-reproducible.
//!
//! * [`baton`] — the cooperative handoff core: at most one running
//!   context per domain, handed on by grant flag, ordered by a pluggable
//!   run queue (FIFO admission, or a virtual-time key); every context is
//!   a stack on its domain's carrier thread.
//! * [`stack`] — contexts as stacks on one carrier thread, the
//!   user-space switch between them, the carrier's cross-thread inbox and
//!   deadline-bounded idle park, and the pool stacks are kept in.
//! * [`pages`] — fresh zero pages from the kernel (`mmap`), for common
//!   memory and stacks.
//! * [`sync`] — `Mutex`/`Condvar`/`RwLock` over `std::sync` with
//!   poison-free, `parking_lot`-style APIs (`lock()` returns the guard
//!   directly; `Condvar::wait` takes `&mut MutexGuard`).
//! * [`channel`] — bounded/unbounded MPMC channels with
//!   `recv_timeout`, mirroring the `crossbeam_channel` surface the UDN
//!   fabric model uses.
//! * [`rng`] — the SplitMix64 [`rng::KeyedRng`] plus the [`rng::Rng`]
//!   trait; `below` uses rejection sampling (no modulo bias).
//! * [`proptest_mini`] — a small deterministic property-test harness:
//!   seeded generators, an iteration budget, and tape-based input
//!   shrinking with a failing-seed report.
//! * [`smallvec`] — an inline small-vector for protocol-sized payloads
//!   (UDN packets keep ≤ 6 words inline; no allocator on the hot path).

pub mod baton;
pub mod channel;
pub mod pages;
pub mod proptest_mini;
pub mod rng;
pub mod smallvec;
pub mod stack;
pub mod sync;
