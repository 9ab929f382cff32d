//! Launching SHMEM jobs — the analog of TSHMEM's executable launcher
//! plus `start_pes()` (paper Section IV-A).
//!
//! The launcher sets up common memory (the globally shared space),
//! partitions it symmetrically, wires up the UDN, binds one task per
//! tile, starts each PE's interrupt-service context, runs the
//! application closure on every PE, and tears everything down through
//! `shmem_finalize`.
//!
//! One generic [`Launcher`] drives every engine: pick an
//! [`EngineBackend`] (native, coop, timed, multichip — see
//! [`crate::engine::backend`]), optionally hand it a fault plan
//! ([`FaultPlan`]), and `run` it — or `run_watched` it, supervised.
//! [`launch`] is the one convenience wrapper, for the common native
//! case.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use tile_arch::area::TestArea;
use tile_arch::device::Device;

use crate::ctx::{Algorithms, Layout, ShmemCtx};
use crate::engine::backend::{EngineBackend, EngineOutcome};
use crate::engine::coop::CoopBackend;
use crate::engine::wall::NativeBackend;
use crate::fault::{FaultPlan, LaunchFaults};
use crate::watch::{self, JobWatch, Stalled};

/// Scheduling discipline for the virtual-time (desim-backed) engines.
///
/// Selects how the cooperative scheduler orders LPs in `TimedBackend` /
/// `MultiChipBackend` runs; the native and coop engines ignore it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TimedMode {
    /// Exact discrete-event order: the LP with the minimum effective
    /// clock always runs next. The calibrated mode — all `[cal]` figures
    /// use it.
    #[default]
    EventDriven,
    /// Lockstep cycle boxes of `tick_ns` virtual nanoseconds: within a
    /// box LPs run in id order, each to the box edge, which cuts
    /// cross-thread handoffs by orders of magnitude. Protocol outcomes
    /// (final heap/static state) converge with event-driven; per-PE
    /// clocks may differ by bounded amounts. The fast-sweep mode.
    CycleBox { tick_ns: u64 },
}

impl TimedMode {
    /// Default cycle-box tick: 1 µs of virtual time (≈1000 TILE-Gx
    /// cycles) — wide enough to batch a protocol phase per box, narrow
    /// enough to keep clock skew within a few spin periods.
    pub const DEFAULT_TICK_NS: u64 = 1_000;

    /// Cycle-box mode at the default tick.
    pub fn cycle_box() -> Self {
        TimedMode::CycleBox {
            tick_ns: Self::DEFAULT_TICK_NS,
        }
    }

    /// The desim scheduler mode this selects.
    pub(crate) fn sched_mode(self) -> desim::coop::SchedMode {
        match self {
            TimedMode::EventDriven => desim::coop::SchedMode::EventDriven,
            TimedMode::CycleBox { tick_ns } => desim::coop::SchedMode::CycleBox {
                tick: desim::SimTime::from_ns(tick_ns.max(1)),
            },
        }
    }
}

/// Configuration of one SHMEM job.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// The modeled device (drives the timed engine's costs; the native
    /// engine uses it only for reporting units).
    pub device: Device,
    /// Number of PEs (one per tile).
    pub npes: usize,
    /// Bytes per symmetric partition (includes TSHMEM's internal region).
    pub partition_bytes: usize,
    /// Bytes per PE private segment (the static-variable analog).
    pub private_bytes: usize,
    /// Temp-buffer bytes inside each partition (static-static transfers,
    /// recursive-doubling exchange).
    pub temp_bytes: usize,
    /// Collective/barrier algorithm selection.
    pub algos: Algorithms,
    /// Bound each UDN demux queue to this many packets
    /// (hardware-faithful backpressure mode — the real device queues
    /// hold 127 words). `None` (default) = unbounded. The native engine
    /// bounds its real channels; the virtual-time engines model the
    /// bound with credit-blocked sends, so finite-buffer deadlocks
    /// reproduce under virtual time too.
    pub udn_queue_packets: Option<usize>,
    /// Record an operation trace on any engine (see [`crate::trace`]).
    pub trace: bool,
    /// Scheduling discipline for the virtual-time engines (see
    /// [`TimedMode`]). Ignored by the native and coop engines.
    pub timed_mode: TimedMode,
}

impl RuntimeConfig {
    /// Defaults: TILE-Gx8036 model, 4 MB partitions, 1 MB private
    /// segments, 64 kB temp.
    pub fn new(npes: usize) -> Self {
        Self::for_device(Device::tile_gx8036(), npes)
    }

    /// Defaults for a specific device.
    pub fn for_device(device: Device, npes: usize) -> Self {
        Self {
            device,
            npes,
            partition_bytes: 4 * 1024 * 1024,
            private_bytes: 1024 * 1024,
            temp_bytes: 64 * 1024,
            algos: Algorithms::default(),
            udn_queue_packets: None,
            trace: false,
            timed_mode: TimedMode::EventDriven,
        }
    }

    /// Defaults for a PE count, picking the smallest device that fits:
    /// the TILE-Gx8036 up to 36 PEs, the TILEPro64 up to 64, and the
    /// hypothetical 1024-tile [`Device::tile_gx_scaled`] beyond that
    /// (the cooperative engine's scaling-study regime). Past 64 PEs the
    /// per-partition defaults shrink (256 kB partitions, 64 kB private
    /// segments) so a 1024-PE arena stays a few hundred MB, and the
    /// temp region grows with the PE count so recursive doubling's
    /// per-sender temp slots (8 bytes minimum each) still fit.
    pub fn for_scale(npes: usize) -> Self {
        if npes <= 36 {
            Self::new(npes)
        } else if npes <= 64 {
            Self::for_device(Device::tilepro64(), npes)
        } else {
            Self::for_device(Device::tile_gx_scaled(), npes)
                .with_partition_bytes(256 * 1024)
                .with_private_bytes(64 * 1024)
                .with_temp_bytes((16 * 1024).max(8 * npes))
        }
    }

    pub fn with_partition_bytes(mut self, b: usize) -> Self {
        self.partition_bytes = b;
        self
    }

    pub fn with_private_bytes(mut self, b: usize) -> Self {
        self.private_bytes = b;
        self
    }

    pub fn with_temp_bytes(mut self, b: usize) -> Self {
        self.temp_bytes = b;
        self
    }

    pub fn with_algos(mut self, a: Algorithms) -> Self {
        self.algos = a;
        self
    }

    /// Bound the UDN demux queues (backpressure mode).
    pub fn with_bounded_udn(mut self, packets: usize) -> Self {
        self.udn_queue_packets = Some(packets);
        self
    }

    /// Record an operation trace on any engine: virtual-time events on
    /// the timed and multichip engines, wall-clock stamps on the native
    /// and coop engines; returned in `EngineOutcome::trace`.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Select the virtual-time scheduling discipline.
    pub fn with_timed_mode(mut self, mode: TimedMode) -> Self {
        self.timed_mode = mode;
        self
    }

    /// Cycle-box mode at the default tick — shorthand for
    /// `with_timed_mode(TimedMode::cycle_box())`.
    pub fn with_cycle_box(self) -> Self {
        self.with_timed_mode(TimedMode::cycle_box())
    }

    /// The test area PEs map onto: the paper's 6×6 area when it fits
    /// (full coverage of the TILE-Gx36, the corner of the TILEPro64),
    /// otherwise the full chip.
    pub fn area(&self) -> TestArea {
        let d = self.device;
        if self.npes <= 36 && d.grid.cols >= 6 && d.grid.rows >= 6 {
            TestArea::paper_6x6(d)
        } else {
            TestArea::new(d, d.grid.cols, d.grid.rows)
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.npes >= 1, "need at least one PE");
        assert!(
            self.npes <= self.area().tiles(),
            "{} PEs exceed the {}-tile device {}",
            self.npes,
            self.area().tiles(),
            self.device.name
        );
        // Layout::new re-validates the internal region fit.
        let _ = Layout::new(self.partition_bytes, self.npes, self.temp_bytes);
    }

    pub(crate) fn layout(&self) -> Layout {
        Layout::new(self.partition_bytes, self.npes, self.temp_bytes)
    }
}

/// The one launcher behind every engine: a config, a backend and an
/// optional fault plan.
///
/// ```ignore
/// let out = Launcher::new(&cfg, TimedBackend)
///     .with_faults(FaultPlan::from_seed(7, cfg.npes))
///     .run_watched(Duration::from_secs(2), |ctx| ...)?;
/// ```
///
/// The launcher owns the engine-independent steps — config validation,
/// backend validation, supervision, panic-vs-stall-report
/// classification — while the backend owns the spawn model and fabric
/// wiring (see [`EngineBackend`]). Cross-cutting planes compose here
/// uniformly: a fault plan ([`with_faults`](Self::with_faults)) applies
/// to this launcher's launch and no other, and `cfg.trace` flows to every
/// backend's sink.
pub struct Launcher<B: EngineBackend> {
    cfg: RuntimeConfig,
    backend: B,
    faults: Option<Arc<LaunchFaults>>,
}

impl<B: EngineBackend> Launcher<B> {
    pub fn new(cfg: &RuntimeConfig, backend: B) -> Self {
        Self {
            cfg: *cfg,
            backend,
            faults: None,
        }
    }

    /// Hand the launch a fault plan — a seeded one
    /// ([`FaultPlan::from_seed`]) or hand-built (`[Fault::EagerNbi]`).
    /// It is armed here, with its own budgets and counters: concurrent
    /// launches never see it, and the stall reports of this one name it.
    pub fn with_faults(self, plan: impl Into<FaultPlan>) -> Self {
        self.with_armed_faults(Some(Arc::new(LaunchFaults::new(plan.into()))))
    }

    /// Hand the launch a plan armed elsewhere, whose budgets and
    /// counters outlive it — a server job's, across its retries.
    pub(crate) fn with_armed_faults(mut self, faults: Option<Arc<LaunchFaults>>) -> Self {
        self.faults = faults;
        self
    }

    /// Total PEs the configured job will run (the backend may multiply
    /// `cfg.npes` — multichip runs `cfg.npes` per chip).
    pub fn total_pes(&self) -> usize {
        self.backend.total_pes(&self.cfg)
    }

    /// Validate and execute: run `f` on every PE.
    ///
    /// # Panics
    /// Propagates application panics. A virtual-time launch its
    /// scheduler proves wedged unwinds too, with its stall report as a
    /// `String`; use [`run_watched`](Self::run_watched) to get the
    /// report as `Err`.
    pub fn run<R, F>(&self, f: F) -> EngineOutcome<R>
    where
        R: Send,
        F: Fn(&ShmemCtx) -> R + Send + Sync,
    {
        catch_unwind(AssertUnwindSafe(|| self.execute(None, f))).unwrap_or_else(|payload| match payload.downcast::<Stalled>() {
            Ok(stalled) => resume_unwind(Box::new(stalled.0)),
            Err(payload) => resume_unwind(payload),
        })
    }

    /// Validate and hand the launch, with its supervisor's `watch` if it
    /// has one, to the backend; a virtual-time wedge unwinds as
    /// [`Stalled`].
    fn execute<R, F>(&self, watch: Option<&JobWatch>, f: F) -> EngineOutcome<R>
    where
        R: Send,
        F: Fn(&ShmemCtx) -> R + Send + Sync,
    {
        self.cfg.validate();
        self.backend.validate(&self.cfg);
        self.backend.execute(&self.cfg, self.faults.as_ref(), watch, f)
    }

    /// [`run`](Self::run), supervised: a launch that wedges returns
    /// `Err` with its per-PE stall report instead of hanging or
    /// panicking, alike on every engine. Panics that are *not* detected
    /// stalls (application asserts, poisoned PEs) still propagate.
    ///
    /// * On a wall-clock engine the launch runs detached on a lane of
    ///   the backend's [`Resident`](crate::Resident) — the server's for a
    ///   job, otherwise one of its own — while this thread polls its
    ///   progress. When no PE or service context completes useful work
    ///   for `stall`, scaled by the launch's oversubscription, the report
    ///   is rendered, the launch aborted, and `Err` returned after a
    ///   bounded grace for it to unwind: a context wedged past every
    ///   abort checkpoint leaks with its lane instead of hanging the
    ///   caller.
    /// * On a virtual-time engine `stall` is unused: the scheduler's
    ///   drained-queue observer reports the instant no LP can ever run
    ///   again.
    pub fn run_watched<R, F>(self, stall: Duration, f: F) -> Result<EngineOutcome<R>, String>
    where
        B: Send + 'static,
        R: Send + 'static,
        F: Fn(&ShmemCtx) -> R + Send + Sync + 'static,
    {
        if let Some(resident) = self.backend.resident() {
            return watch::supervise(&resident, stall, move |w| self.execute(Some(w), f));
        }
        catch_unwind(AssertUnwindSafe(|| self.execute(None, f))).or_else(|payload| match payload.downcast::<Stalled>() {
            Ok(stalled) => Err(stalled.0),
            Err(payload) => resume_unwind(payload),
        })
    }
}

/// Run `f` on every PE with the **native** engine (each PE a context on
/// a carrier thread of its own, wall time). Returns each PE's result,
/// indexed by PE.
///
/// Shorthand for `Launcher::new(cfg, NativeBackend).run(f).values`;
/// every other engine, and any supervised launch, goes through the
/// [`Launcher`].
///
/// # Panics
/// Propagates application panics (other PEs may be aborted mid-protocol).
pub fn launch<R, F>(cfg: &RuntimeConfig, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&ShmemCtx) -> R + Send + Sync,
{
    Launcher::new(cfg, NativeBackend).run(f).values
}

/// The worker count (M) a coop launch of `npes` PEs actually runs on
/// when `requested` workers were asked for (`0` = auto). This is the
/// same resolution [`CoopBackend::resolved_workers`] applies inside
/// `execute`, exposed so harnesses and benchmark emitters can record
/// the *resolved* M — a `"workers": 0` row is meaningless across hosts.
pub fn resolve_coop_workers(requested: usize, npes: usize) -> usize {
    CoopBackend { workers: requested, ..Default::default() }.resolved_workers(npes)
}

#[cfg(test)]
mod tests {
    use super::resolve_coop_workers;

    /// Harnesses record the resolved M; the auto-size request `0` must
    /// never come back as-is, and no launch gets more workers than PEs.
    #[test]
    fn resolve_coop_workers_is_never_zero_and_never_exceeds_npes() {
        for npes in [1, 2, 3, 64, 1024] {
            let auto = resolve_coop_workers(0, npes);
            assert!((1..=npes).contains(&auto), "(0, {npes}) resolved to {auto}");
            assert_eq!(resolve_coop_workers(npes + 5, npes), npes, "explicit request not clamped");
            assert_eq!(resolve_coop_workers(1, npes), 1);
        }
    }
}
