//! Execution engines: four backends over three fabrics.
//!
//! * [`wall`] — the wall-clock fabric: one real thread per context,
//!   real shared memory, wall time, parameterised by an admission
//!   policy. Under free admission it is the **native** engine a
//!   downstream application runs on; under the per-worker gate of
//!   [`coop`] it is the **cooperative M:N** engine (N PEs over M worker
//!   threads) for 256–1024-PE scaling runs an order of magnitude past
//!   the host's core count.
//! * [`timed`] — the same protocol code under the virtual-time
//!   cooperative scheduler with calibrated Tilera costs. The engine the
//!   paper-figure harness runs on.
//! * [`multichip`] — the timed engine spanning several simulated chips
//!   connected by mPIPE links (the paper's Section VI future work).
//!
//! All are instantiations of one contract: [`backend`] defines
//! [`backend::EngineBackend`], consumed by the generic
//! [`Launcher`](crate::runtime::Launcher), so liveness watchdogs, the
//! fault plane, per-PE probes, and trace collection apply uniformly.

pub mod backend;
pub mod coop;
pub mod multichip;
pub mod timed;
pub mod wall;
