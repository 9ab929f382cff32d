//! Deterministic concurrency stress harness for the TSHMEM native
//! engine.
//!
//! A seeded generator ([`program::gen_program`]) emits random SHMEM
//! programs — puts/gets across all four Figure 7 address-class cases,
//! strided ops, atomics, locks, every barrier/broadcast/reduce variant,
//! and collect/fcollect on random (often overlapping) active sets. The
//! runner ([`run::run_on_ctx`]) executes them on 2–8 PEs at any UDN
//! queue depth and checks the final heap/private state against a
//! sequentially-computed oracle ([`oracle::oracle`]).
//!
//! [`run::run`] makes that launch supervised on any engine: when the
//! job wedges, it returns the engine's per-PE diagnosis (which queue
//! each PE is blocked on, queue occupancy, protocol stash contents,
//! last trace event) plus the reproducing seed, and the job is aborted.
//!
//! Failing programs shrink through `substrate::proptest_mini`
//! ([`program::ProgramStrategy`]); `cargo run -p stress -- --seed N`
//! replays them (see `src/main.rs`).

pub mod oracle;
pub mod program;
pub mod run;
pub mod serve;

pub use oracle::{oracle, Model};
pub use program::{gen_program, AuxOp, Draw, Program, ProgramStrategy, RngDraw};
pub use run::{build_cfg, resolve_coop_workers, run, run_on_ctx, watch_closure, Engine, Outcome};
pub use serve::{serve, Sched, ServeOpts, ServeSummary};
