//! # TSHMEM in Rust
//!
//! A reproduction of **TSHMEM** (Lam, George, Lam — *TSHMEM:
//! Shared-Memory Parallel Computing on Tilera Many-Core Processors*,
//! IPDPS Workshops 2013): an OpenSHMEM 1.0 library built on analogs of
//! the Tilera TMC facilities — common memory mapped identically in every
//! task, the UDN low-latency network, and spin/sync barriers — with the
//! Tilera hardware itself provided by the simulator crates of this
//! workspace.
//!
//! ## Quick start
//!
//! ```
//! use tshmem::prelude::*;
//!
//! let cfg = RuntimeConfig::new(4).with_partition_bytes(1 << 20);
//! let sums = tshmem::runtime::launch(&cfg, |ctx| {
//!     let me = ctx.my_pe();
//!     let n = ctx.n_pes();
//!     // Collective allocation: one i64 slot per PE.
//!     let table = ctx.shmalloc::<i64>(n);
//!     // Everyone deposits into PE 0's partition.
//!     ctx.p(&table, me, me as i64 + 1, 0);
//!     ctx.barrier_all();
//!     let local: i64 = if me == 0 {
//!         (0..n).map(|i| ctx.g(&table, i, 0)).sum()
//!     } else {
//!         0
//!     };
//!     // Reduce so every PE learns the answer.
//!     let src = ctx.shmalloc::<i64>(1);
//!     let dst = ctx.shmalloc::<i64>(1);
//!     ctx.local_write(&src, 0, &[local]);
//!     ctx.sum_to_all(&dst, &src, 1, ctx.world());
//!     ctx.local_read(&dst, 0, 1)[0]
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]); // 1+2+3+4 on every PE
//! ```
//!
//! ## Layering
//!
//! | layer | crate |
//! |---|---|
//! | device model (grids, clocks, Table II/III constants) | `tile-arch` |
//! | simulation kernel (virtual-time scheduler, resources) | `desim` |
//! | memory hierarchy + DDC + homing | `cachesim` |
//! | UDN packet fabric + latency model | `udn` |
//! | TMC analog (common memory, barriers, fences) | `tmc` |
//! | **OpenSHMEM library (this crate)** | `tshmem` |
//!
//! Protocol code is written once against [`fabric::Fabric`] and runs on
//! four backends behind one [`runtime::Launcher`], over two fabrics.
//! The wall-clock fabric ([`engine::wall`] — every context a stack on
//! its admission gate's carrier thread, real shared memory, wall time)
//! serves two of them, which differ only in which gates admit their
//! contexts: [`NativeBackend`] runs a gate and a thread per PE, the
//! paper's one task per tile, and one per interrupt handler
//! ([`runtime::launch`] is its shorthand), and [`CoopBackend`]
//! multiplexes PEs M:N over worker threads for 256–1024-PE scaling runs.
//! The virtual-time fabric ([`engine::timed`]) serves the other two,
//! which differ only in their chip count: [`TimedBackend`] runs one
//! chip with calibrated Tilera costs and regenerates the paper's
//! figures; [`MultiChipBackend`] joins several by mPIPE links. Supervision
//! ([`Launcher::run_watched`]), per-launch fault plans, per-PE probes and trace collection compose
//! uniformly over any engine (see [`engine::backend`]).

pub mod active_set;
pub mod api;
pub mod api_typed;
pub mod atomics;
pub mod collectives;
pub mod ctx;
pub mod engine;
pub mod fabric;
pub mod fault;
pub mod heap;
pub mod rma;
pub mod runtime;
pub mod server;
pub mod service;
pub mod symm;
pub mod sync;
pub mod team;
pub mod trace;
pub mod types;
mod watch;

pub use active_set::ActiveSet;
pub use ctx::{Algorithms, BarrierAlgo, BroadcastAlgo, HomingHint, ReduceAlgo, ShmemCtx, Stats};
pub use engine::backend::{EngineBackend, EngineOutcome};
pub use engine::coop::CoopBackend;
pub use engine::timed::{MultiChipBackend, TimedBackend};
pub use engine::wall::{NativeBackend, Resident};
pub use fabric::{BlockedOn, PeProbe};
pub use fault::{Fault, FaultPlan, LaunchFaults};
pub use runtime::{launch, resolve_coop_workers, Launcher, RuntimeConfig, TimedMode};
pub use rma::SignalOp;
pub use server::{
    ArenaPool, FairScheduler, JobHandle, JobId, JobOutcome, JobReport, JobSpec, RoundRobin,
    Scheduler, Server, ServerConfig, ServerStats, ShedPolicy, SubmitError,
};
pub use team::Team;
pub use symm::{AddrClass, Bits, Sym};
pub use sync::pt2pt::Cmp;
pub use types::{Complex32, Complex64, Reducible, ReduceOp};

/// Everything an application typically needs.
pub mod prelude {
    pub use crate::active_set::ActiveSet;
    pub use crate::ctx::{Algorithms, BarrierAlgo, BroadcastAlgo, HomingHint, ReduceAlgo, ShmemCtx};
    pub use crate::rma::SignalOp;
    pub use crate::engine::backend::EngineOutcome;
    pub use crate::engine::coop::CoopBackend;
    pub use crate::engine::timed::{MultiChipBackend, TimedBackend};
    pub use crate::engine::wall::NativeBackend;
    pub use crate::runtime::{launch, Launcher, RuntimeConfig};
    pub use crate::symm::{AddrClass, Sym};
    pub use crate::sync::pt2pt::Cmp;
    pub use crate::team::Team;
    pub use crate::types::{Complex32, Complex64, ReduceOp};
}
