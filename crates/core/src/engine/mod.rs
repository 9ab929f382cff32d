//! Execution engines: four backends over two fabrics.
//!
//! * [`wall`] — the wall-clock fabric: real shared memory, wall time,
//!   every context admitted through a FIFO gate ([`coop::GateSet`]) and
//!   run as a stack on that gate's carrier thread. With a gate per PE
//!   and one per interrupt-service context it is the **native** engine a
//!   downstream application runs on; with M workers for N PEs it is the
//!   **cooperative M:N** engine ([`coop`]) for 256–1024-PE scaling runs
//!   an order of magnitude past the host's core count.
//! * [`timed`] — the virtual-time fabric: the same protocol code under
//!   the cooperative scheduler with calibrated Tilera costs,
//!   parameterised by a chip count. On one chip it is the **timed**
//!   engine the paper-figure harness runs on; on several, joined by
//!   mPIPE links, it is the **multichip** engine (the paper's Section
//!   VI future work).
//!
//! Each fabric's module holds the whole fabric, its backends included.
//! All are instantiations of one contract: [`backend`] defines
//! [`backend::EngineBackend`] and [`backend::EngineOutcome`], consumed
//! by the generic [`Launcher`](crate::runtime::Launcher). Both fabrics
//! hold one set of launch instruments
//! ([`Instruments`](crate::fabric::Instruments): per-context probes,
//! trace sink, fault plan), so liveness watchdogs, the fault plane and
//! trace collection apply uniformly.

pub mod backend;
pub mod coop;
pub mod timed;
pub mod wall;
