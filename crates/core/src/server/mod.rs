//! `tshmem::server` — a fault-isolated multi-tenant job runtime.
//!
//! TSHMEM itself runs one job per launch; this layer turns the
//! cooperative M:N engine into a *resident pool*: tenants submit
//! [`JobSpec`]s into a bounded admission queue, a pluggable
//! [`Scheduler`] orders dispatch, and each job runs as its own
//! supervised cooperative launch over a leased slice of the pool's
//! worker slots. The pool survives hostile tenants by construction —
//! panics are caught at the launch boundary ([`JobOutcome::Faulted`]),
//! wedged jobs are diagnosed and evicted by a per-job watchdog
//! ([`JobOutcome::Evicted`]), and overload is shed at admission
//! ([`SubmitError::QueueFull`], [`ShedPolicy`]).
//!
//! Layering:
//!
//! * [`pool`] — the [`Server`]: admission, worker-slot leasing,
//!   per-job supervision, eviction with exponential backoff.
//! * [`scheduler`] — the [`Scheduler`] trait with [`RoundRobin`] and
//!   the CFS-style [`FairScheduler`].
//! * [`job`] — [`JobSpec`] / [`JobOutcome`] / [`SubmitError`] /
//!   [`JobReport`].
//! * [`arena`] — the [`ArenaPool`] recycling the arena and private
//!   segments between tenants (scrubbed to their dirty extent at
//!   checkout).
//!
//! See DESIGN.md §8 for the lifecycle state machine and the isolation
//! boundaries, and EXPERIMENTS.md for the open-loop load methodology
//! (`stress --serve`) and the `server.*` metrics of `BENCH.jsonl`.

pub mod arena;
pub mod job;
pub mod pool;
pub mod scheduler;

pub use arena::{ArenaPool, ArenaPoolStats};
pub use job::{JobId, JobOutcome, JobReport, JobSpec, SubmitError};
pub use pool::{JobHandle, Server, ServerConfig, ServerStats, ShedPolicy};
pub use scheduler::{FairScheduler, QueuedJob, RoundRobin, Scheduler};
