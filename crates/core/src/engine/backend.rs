//! The engine contract: every engine is one [`EngineBackend`] behind
//! one generic [`Launcher`](crate::runtime::Launcher), and every launch
//! returns one [`EngineOutcome`]. This module holds only the contract;
//! each fabric's module holds its own scaffolding — `run_wall` in
//! [`super::wall`], `run_coop_lps` in [`super::timed`].
//!
//! ## The contract
//!
//! A backend supplies three things:
//!
//! 1. **a spawn model** — how `total_pes` contexts plus their
//!    interrupt-service contexts come to run (the wall-clock backends
//!    run every context as a stack on its admission gate's carrier
//!    thread: each PE gate's carrier on a lane of the launch's
//!    `Resident`, spawned only when none is idle, and on the native
//!    geometry each service gate's carrier on a thread of its own once
//!    a first request reaches it; the virtual-time backends run every
//!    context as a desim LP, a stack on the launching thread);
//! 2. **a fabric factory** — the per-context
//!    [`Fabric`](crate::fabric::Fabric) wiring the protocol code to the
//!    engine's cost/transport model;
//! 3. **a supervision hook** — where a watched launch runs: a wall-clock
//!    backend hands out the `Resident` whose lanes it detaches onto
//!    ([`EngineBackend::resident`]) and publishes its shared state to the
//!    supervisor; a virtual-time backend runs every launch under the
//!    scheduler's drained-queue observer instead.
//!
//! There are four backends over two fabrics.
//! [`NativeBackend`](super::wall::NativeBackend) and
//! [`CoopBackend`](super::coop::CoopBackend) are the wall fabric with a
//! worker per PE and with M workers;
//! [`TimedBackend`](super::timed::TimedBackend) and
//! [`MultiChipBackend`](super::timed::MultiChipBackend) are the
//! virtual-time fabric on one chip and on several. Both fabrics hold
//! the launch's [`Instruments`](crate::fabric::Instruments) — per-context
//! probes, trace sink, armed fault plan — and report a stall through
//! one renderer (`crate::watch`). Another backend means implementing
//! [`EngineBackend::execute`] — the launcher, fault plane and trace
//! plumbing come with it.

use std::sync::Arc;

use desim::time::SimTime;

use crate::ctx::ShmemCtx;
use crate::engine::wall::Resident;
use crate::fault::LaunchFaults;
use crate::runtime::RuntimeConfig;
use crate::trace::TraceEvent;
use crate::watch::JobWatch;

/// What a launch returns, uniformly across backends.
#[derive(Debug)]
pub struct EngineOutcome<R> {
    /// Per-PE return values, indexed by PE.
    pub values: Vec<R>,
    /// Each PE's final virtual clock (empty on the wall-clock engines).
    pub clocks: Vec<SimTime>,
    /// The simulated makespan (max final clock; `ZERO` on the wall-clock
    /// engines).
    pub makespan: SimTime,
    /// Operation trace, when enabled with `RuntimeConfig::with_trace`.
    pub trace: Option<Vec<TraceEvent>>,
    /// OS threads this launch created: on the wall-clock engines the
    /// lanes its PE gates' carriers had to spawn (all of them for a plain
    /// launch, none for a launch over a warm `Resident`) plus, on the
    /// native geometry, the service gates' carriers some request
    /// started; on the virtual-time engines none — their LPs are stacks
    /// on the launching thread. Exact under a fixed program.
    pub threads_spawned: usize,
    /// Token handoffs between LPs on the virtual-time engines (the
    /// scheduler's context switches; exact under a fixed program), 0 on
    /// the wall-clock engines.
    pub handoffs: u64,
}

/// One execution engine, as consumed by the generic
/// [`Launcher`](crate::runtime::Launcher). See the module docs for the
/// contract.
pub trait EngineBackend {
    /// Engine name, for diagnostics.
    fn name(&self) -> &'static str;

    /// Total PEs the job runs (`cfg.npes` unless the backend multiplies
    /// it — multichip runs `cfg.npes` *per chip*).
    fn total_pes(&self, cfg: &RuntimeConfig) -> usize {
        cfg.npes
    }

    /// Backend-specific config validation, run before any resource is
    /// allocated. The launcher has already run `cfg`'s own checks.
    fn validate(&self, cfg: &RuntimeConfig) {
        let _ = cfg;
    }

    /// Run `f` on every PE and collect the outcome. The backend must
    /// honor `cfg.trace` and `faults` — the launch's armed plan, which
    /// every context of this launch and no other reads. A wall-clock
    /// backend publishes its launch's shared state in `watch`, when
    /// [`Launcher::run_watched`](crate::Launcher::run_watched) supervises
    /// it; a virtual-time backend ignores it.
    fn execute<R, F>(
        &self,
        cfg: &RuntimeConfig,
        faults: Option<&Arc<LaunchFaults>>,
        watch: Option<&JobWatch>,
        f: F,
    ) -> EngineOutcome<R>
    where
        R: Send,
        F: Fn(&ShmemCtx) -> R + Send + Sync;

    /// The `Resident` whose lanes a watched launch of this backend runs
    /// detached on while [`Launcher::run_watched`](crate::Launcher::run_watched)
    /// supervises it from the calling thread: the one its PEs attach to,
    /// or one for that launch alone. `None` (the default) for a backend
    /// whose launches supervise themselves — the virtual-time ones,
    /// whose scheduler proves a wedge the instant it happens.
    fn resident(&self) -> Option<Arc<Resident>> {
        None
    }
}
