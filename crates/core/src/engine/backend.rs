//! The engine contract: every engine is one [`EngineBackend`] behind
//! one generic [`Launcher`](crate::runtime::Launcher).
//!
//! The PE/service scaffolding (layout validation, fabric construction,
//! `ShmemCtx` setup, service-context wiring, result collection) exists
//! once per clock domain — [`run_wall`](super::wall) for the wall-clock
//! engines, `run_coop_lps` here for the virtual-time ones — and the
//! cross-cutting planes — supervision, the launch's armed
//! [`FaultPlan`](crate::fault::FaultPlan), per-PE introspection, and
//! trace collection — compose uniformly over any backend.
//!
//! ## The contract
//!
//! A backend supplies three things:
//!
//! 1. **a spawn model** — how `total_pes` contexts plus their
//!    interrupt-service contexts come to run (the wall-clock backends
//!    run each PE on a real thread — a lane of the launch's `Resident`,
//!    spawned only when none is idle — and spawn one per service context
//!    when its first request arrives, admitted freely or through a
//!    per-worker gate; the
//!    virtual-time backends run every context as a desim LP);
//! 2. **a fabric factory** — the per-context [`Fabric`] wiring the
//!    protocol code to the engine's cost/transport model;
//! 3. **a supervision hook** — where a watched launch runs: a wall-clock
//!    backend hands out the `Resident` whose lanes it detaches onto
//!    ([`EngineBackend::resident`]) and publishes its probes to the
//!    supervisor; a virtual-time backend runs every launch under the
//!    scheduler's drained-queue observer instead.
//!
//! There are four backends over two fabrics.
//! [`NativeBackend`](super::wall::NativeBackend) and
//! [`CoopBackend`](super::coop::CoopBackend) are the two admission
//! policies of the wall fabric. [`TimedBackend`] and
//! [`MultiChipBackend`] are the virtual-time fabric
//! ([`super::timed`]) on one chip and on several, over the
//! credit-tracked UDN queue model, per-LP probes and trace plumbing of
//! [`CoopCore`]/[`CoopLp`] below. Another
//! backend means implementing [`EngineBackend::execute`] — the
//! launcher, fault plane and trace plumbing come with it.

use std::sync::Arc;

use desim::coop::CoopHandle;
use desim::time::SimTime;
use substrate::sync::Mutex;

use crate::ctx::ShmemCtx;
use crate::fabric::{BlockedOn, Fabric, PeProbe, ProtoMsg, Q_SERVICE};
use crate::fault::LaunchFaults;
use udn::packet::PayloadVec;
use crate::runtime::RuntimeConfig;
use crate::engine::timed::{TimedFabric, TimedShared};
use crate::engine::wall::Resident;
use crate::service::service_loop;
use crate::trace::{TraceEvent, TraceKind, TraceSink};
use crate::watch::TimedWatch;

/// Extra coop channel carrying queue-space credits: a sender blocked on
/// a full modeled UDN queue parks in `recv(CH_CREDIT)` and is granted a
/// zero-latency credit when the destination drains a packet. Parking on
/// a real coop channel makes a cycle of full-queue senders a *genuine*
/// desim deadlock — exactly what the coop watchdog detects.
pub const CH_CREDIT: usize = udn::NUM_QUEUES;
/// Extra coop channel for `tmc_spin_barrier` traffic, so spin-barrier
/// tokens can never interleave with protocol messages on `Q_BARRIER`
/// when a program mixes barrier algorithms.
pub const CH_SPIN: usize = udn::NUM_QUEUES + 1;
/// Channels per LP a cooperative (timed/multichip) run is launched with.
pub const TIMED_CHANNELS: usize = udn::NUM_QUEUES + 2;

/// Failed-poll budget per single wait (`wait_pause` attempts): a wait
/// that polls this many times without its condition changing has spun
/// for tens of virtual seconds — a livelock that would otherwise burn
/// real CPU forever, since virtual time advances keep every poller
/// runnable. Panic instead so the test runner can never hang.
const SPIN_BUDGET: u32 = 2_000_000;

const TAG_CREDIT: u16 = 0x5C;

/// Poll-backoff base charge (see [`CoopLp::wait_pause`]).
const POLL_CYCLES: f64 = 50.0;

/// Per-destination modeled UDN queue occupancy and the senders parked
/// waiting for space.
struct QueueState {
    /// `occ[dest_lp][queue]`: packets sent but not yet received.
    occ: Vec<[usize; udn::NUM_QUEUES]>,
    /// `(dest_lp, queue, sender_lp)` for every parked sender.
    waiters: Vec<(usize, usize, usize)>,
}

/// Launch-wide observability state shared by every LP of a cooperative
/// (timed or multichip) run: per-LP probes, the trace sink, the fault
/// plan, and the modeled UDN queue occupancy with its credit waiters. The
/// drained-queue observer attaches to this — which is why every coop
/// backend gets liveness diagnosis without engine-specific code.
pub struct CoopCore {
    /// Total PEs in the job (across all chips for multichip).
    pub npes: usize,
    /// Chips the job spans (1 for the single-chip timed engine).
    pub chips: usize,
    /// PEs per chip (`npes` when `chips == 1`).
    pub pes_per_chip: usize,
    /// Per-LP probes (`0..npes` the PEs, `npes..2*npes` their service
    /// contexts) — the same introspection the native engine gives the
    /// supervisor, read by the drained-queue observer at
    /// deadlock-detection time.
    pub probes: Vec<Arc<PeProbe>>,
    /// Optional operation trace (see `crate::trace`).
    pub trace: Option<Arc<TraceSink>>,
    /// Modeled UDN queue depth (packets); `None` = unbounded.
    pub queue_cap: Option<usize>,
    /// The fault plan this launch was handed, armed for it alone.
    pub faults: Option<Arc<LaunchFaults>>,
    qstate: Mutex<QueueState>,
}

impl CoopCore {
    pub fn new(
        npes: usize,
        chips: usize,
        trace: Option<Arc<TraceSink>>,
        queue_cap: Option<usize>,
        faults: Option<Arc<LaunchFaults>>,
    ) -> Arc<Self> {
        assert!(queue_cap != Some(0), "queue_cap must be at least 1 packet");
        assert!(chips >= 1 && npes.is_multiple_of(chips));
        Arc::new(Self {
            npes,
            chips,
            pes_per_chip: npes / chips,
            probes: (0..2 * npes).map(|_| Arc::new(PeProbe::new())).collect(),
            trace,
            queue_cap,
            faults,
            qstate: Mutex::new(QueueState {
                // cold: once per launch, in the constructor.
                occ: vec![[0; udn::NUM_QUEUES]; 2 * npes],
                waiters: Vec::new(),
            }),
        })
    }

    /// Snapshot of the modeled demux-queue occupancy of LP `lp`.
    pub fn queue_occupancy(&self, lp: usize) -> [usize; udn::NUM_QUEUES] {
        self.qstate.lock().occ[lp]
    }

    /// The chip hosting `pe`, when the job spans more than one chip.
    pub fn chip_of(&self, pe: usize) -> Option<usize> {
        (self.chips > 1).then(|| pe / self.pes_per_chip)
    }
}

/// One LP's slice of the shared coop machinery: its identity, probe,
/// coop handle, and the tracked send/recv bodies the virtual-time
/// fabric delegates to, passing the *wire* cost (on-chip wormhole or
/// mPIPE frame) to [`send_tracked`](Self::send_tracked).
pub struct CoopLp {
    pub core: Arc<CoopCore>,
    /// The PE this LP belongs to (service LPs share their PE's id).
    pub pe: usize,
    /// This LP's id (`pe` for main contexts, `npes + pe` for service).
    pub lp: usize,
    pub probe: Arc<PeProbe>,
    pub coop: CoopHandle<ProtoMsg>,
    clock: tile_arch::clock::Clock,
}

impl CoopLp {
    /// The LP-`lp_id` slice of a `2 * npes`-LP cooperative run: LPs
    /// `0..npes` are PEs, `npes..2*npes` their service contexts.
    pub fn new(
        core: Arc<CoopCore>,
        lp_id: usize,
        coop: CoopHandle<ProtoMsg>,
        clock: tile_arch::clock::Clock,
    ) -> Self {
        let pe = lp_id % core.npes;
        let probe = core.probes[lp_id].clone();
        Self { core, pe, lp: lp_id, probe, coop, clock }
    }

    /// Count one completed (state-changing) op, tick the fault plan's
    /// op clock, and serve any `SlowPe` fault by advancing virtual time.
    pub fn progress(&self) {
        self.probe.bump();
        if let Some(faults) = &self.core.faults {
            faults.note_op();
            if let Some(us) = faults.slow_pe_delay_us(self.pe) {
                self.coop.advance(SimTime::from_ns(us * 1000));
            }
        }
    }

    /// Effective modeled queue depth: the configured cap, tightened by
    /// any active `ClampQueueDepth` fault.
    fn effective_cap(&self) -> Option<usize> {
        let clamp = self.core.faults.as_ref().and_then(|f| f.clamp_queue_depth());
        match (self.core.queue_cap, clamp) {
            (Some(b), Some(c)) => Some(b.min(c)),
            (Some(b), None) => Some(b),
            (None, c) => c,
        }
    }

    /// The LP a `(dest, queue)` pair routes to: `Q_SERVICE` targets the
    /// destination PE's interrupt-service context.
    pub fn dest_lp(&self, dest: usize, queue: usize) -> usize {
        if queue == Q_SERVICE { self.core.npes + dest } else { dest }
    }

    /// Reserve one slot in `dest_lp`'s modeled demux queue `queue`.
    /// Occupancy is tracked unconditionally (it feeds the stall
    /// diagnosis); the depth bound only gates when a cap is in effect.
    /// Returns `false` if non-blocking and the queue is full. A
    /// blocking reservation parks this LP on [`CH_CREDIT`] until the
    /// destination drains a packet — so a cycle of full-queue blocking
    /// senders is a real desim deadlock.
    fn reserve_slot(&self, dest_lp: usize, queue: usize, dest_pe: usize, blocking: bool) -> bool {
        loop {
            let cap = self.effective_cap();
            {
                let mut q = self.core.qstate.lock();
                if cap.is_none_or(|c| q.occ[dest_lp][queue] < c) {
                    q.occ[dest_lp][queue] += 1;
                    return true;
                }
                if !blocking {
                    return false;
                }
                q.waiters.push((dest_lp, queue, self.lp));
            }
            self.probe.set_blocked(BlockedOn::SendFull { dest: dest_pe, queue });
            self.probe.spin();
            let credit = self.coop.recv(CH_CREDIT);
            debug_assert_eq!(credit.tag, TAG_CREDIT);
            self.probe.set_blocked(BlockedOn::Running);
            // Re-check: another sender may have taken the freed slot.
        }
    }

    /// Release the slot a just-received packet held in this LP's
    /// modeled queue and grant one credit to a parked sender, if any.
    fn release_slot(&self, queue: usize) {
        self.release_slot_of(self.lp, queue);
    }

    fn release_slot_of(&self, lp: usize, queue: usize) {
        let woken = {
            let mut q = self.core.qstate.lock();
            let occ = &mut q.occ[lp][queue];
            *occ = occ.saturating_sub(1);
            q.waiters
                .iter()
                .position(|&(d, qu, _)| d == lp && qu == queue)
                .map(|i| q.waiters.remove(i).2)
        };
        if let Some(sender_lp) = woken {
            self.coop.send(
                sender_lp,
                CH_CREDIT,
                ProtoMsg { src: self.pe, tag: TAG_CREDIT, payload: PayloadVec::new() },
                SimTime::ZERO,
            );
        }
    }

    /// The full tracked UDN send: slot reservation (with credit-parked
    /// backpressure), fault-plane delay, software injection overhead,
    /// then the engine-specific `wire` latency — evaluated *after* the
    /// overhead advances, so link occupancy models see the right clock.
    /// Returns `false` if `blocking` is off and the destination queue
    /// is full.
    #[allow(clippy::too_many_arguments)]
    pub fn send_tracked(
        &self,
        dest: usize,
        queue: usize,
        tag: u16,
        payload: &[u64],
        blocking: bool,
        sw_overhead_ps: u64,
        trace_as: (TraceKind, u64),
        wire: impl FnOnce() -> Option<SimTime>,
    ) -> bool {
        let dest_lp = self.dest_lp(dest, queue);
        if !self.reserve_slot(dest_lp, queue, dest, blocking) {
            self.probe.spin();
            return false;
        }
        let t0 = self.coop.now();
        if let Some(us) = self.core.faults.as_ref().and_then(|f| f.protocol_send_delay_us()) {
            self.coop.advance(SimTime::from_ns(us * 1000));
        }
        self.coop.advance(SimTime::from_ps(sw_overhead_ps));
        match wire() {
            Some(latency) => {
                self.coop.send(
                    dest_lp,
                    queue,
                    ProtoMsg { src: self.pe, tag, payload: payload.into() },
                    latency,
                );
            }
            // The frame was lost in flight (an injected link fault):
            // nothing arrives, so give the reserved slot back — the
            // wedge this causes is the *receiver's* missing message,
            // which the watchdog attributes, not a phantom full queue.
            None => self.release_slot_of(dest_lp, queue),
        }
        let (kind, bytes) = trace_as;
        self.trace(kind, t0, dest, bytes);
        self.progress();
        true
    }

    /// Blocking tracked receive: publishes the blocked state, releases
    /// the modeled queue slot, and traces the wait.
    pub fn recv_tracked(&self, queue: usize) -> ProtoMsg {
        let t0 = self.coop.now();
        self.probe.set_blocked(BlockedOn::Recv { queue });
        let msg = self.coop.recv(queue);
        self.probe.set_blocked(BlockedOn::Running);
        self.release_slot(queue);
        self.trace(TraceKind::Wait, t0, usize::MAX, 0);
        self.progress();
        msg
    }

    /// Non-blocking tracked receive.
    pub fn try_recv_tracked(&self, queue: usize) -> Option<ProtoMsg> {
        let got = self.coop.try_recv(queue);
        if got.is_some() {
            self.release_slot(queue);
            self.progress();
        }
        got
    }

    /// Advance this LP's clock by a cycle count at the modeled clock.
    pub fn advance_cycles(&self, cycles: f64) {
        self.coop.advance(SimTime::from_ps(self.clock.cycles_f64_to_ps(cycles)));
    }

    /// One poll-backoff step of a waiting loop, with the virtual-time
    /// livelock guard: under virtual time every poller stays runnable
    /// (each poll advances its clock), so a livelock would spin real
    /// CPU forever without the desim deadlock detector ever firing.
    /// Bound each wait instead: panicking beats hanging the runner.
    pub fn wait_pause(&self, attempt: u32) {
        self.probe.spin();
        if attempt >= SPIN_BUDGET {
            panic!(
                "PE {} (LP {}): virtual-time livelock guard — {attempt} failed polls in one \
                 wait while {}; useful ops {} spins {}",
                self.pe,
                self.lp,
                self.probe.blocked(),
                self.probe.ops(),
                self.probe.spins(),
            );
        }
        // Exponential backoff: 50 cycles doubling to a 12.8k-cycle cap
        // (~13 us at 1 GHz). Detection latency is overestimated by at
        // most one interval, negligible against the operations these
        // waits pace.
        let step = POLL_CYCLES * f64::from(1u32 << attempt.min(8));
        self.advance_cycles(step);
    }

    /// Append a trace event (no-op unless tracing is enabled).
    pub fn trace(&self, kind: TraceKind, start: SimTime, peer: usize, bytes: u64) {
        if let Some(sink) = &self.core.trace {
            // Lane = LP index: each LP is one execution context, so it
            // is the lane's only writer.
            sink.record_lane(
                self.lp,
                TraceEvent {
                    pe: self.pe,
                    kind,
                    start,
                    end: self.coop.now(),
                    peer,
                    bytes,
                },
            );
        }
    }
}

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
    /// OS threads this launch created: on the wall-clock engines the PE
    /// lanes it had to spawn (all of them for a plain launch, none for a
    /// launch over a warm `Resident`) plus the interrupt-service contexts
    /// some request started; on the virtual-time engines one per LP.
    /// Exact under a fixed program.
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
    /// every context of this launch and no other reads.
    fn execute<R, F>(&self, cfg: &RuntimeConfig, faults: Option<&Arc<LaunchFaults>>, f: F) -> EngineOutcome<R>
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

/// The shared PE/service-LP scaffolding of every cooperative backend:
/// runs the `2 * npes` LPs of `shared`'s chips (PEs then service
/// contexts) under the drained-queue observer, gives PE LPs a
/// [`ShmemCtx`] (finalized on return) and service LPs the service loop,
/// and folds the results into an [`EngineOutcome`]. A launch the
/// scheduler proves wedged unwinds with the observer's per-PE report
/// (which [`Launcher::run_watched`](crate::Launcher::run_watched)
/// returns as `Err`) instead of the scheduler's bare panic.
fn run_coop_lps<R, F>(shared: &Arc<TimedShared>, cfg: &RuntimeConfig, f: F) -> EngineOutcome<R>
where
    R: Send,
    F: Fn(&ShmemCtx) -> R + Send + Sync,
{
    let npes = shared.npes;
    let layout = crate::ctx::Layout::new(cfg.partition_bytes, npes, cfg.temp_bytes);
    let watch = TimedWatch::new(shared.core.clone());
    let observer: Arc<dyn desim::coop::CoopObserver> = watch.clone();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        desim::coop::run_mode(2 * npes, TIMED_CHANNELS, cfg.timed_mode.sched_mode(), Some(observer), |h| {
            let lp = h.id();
            let fab: Box<dyn Fabric> = Box::new(TimedFabric::for_lp(shared.clone(), lp, h));
            if lp < npes {
                let ctx = ShmemCtx::new(fab, layout, cfg.algos, cfg.private_bytes);
                let r = f(&ctx);
                ctx.finalize();
                Some(r)
            } else {
                service_loop(fab.as_ref());
                None
            }
        })
    }));
    let out = run.unwrap_or_else(|payload| match watch.stalled() {
        Some(stalled) => std::panic::resume_unwind(Box::new(stalled)),
        None => std::panic::resume_unwind(payload),
    });

    let mut values = Vec::with_capacity(npes);
    let mut clocks = Vec::with_capacity(npes);
    for (i, v) in out.values.into_iter().enumerate() {
        if i < npes {
            values.push(v.expect("PE LP must return a value"));
            clocks.push(out.clocks[i]);
        }
    }
    let makespan = clocks.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let trace = shared.core.trace.as_ref().map(|s| s.take());
    EngineOutcome { values, clocks, makespan, trace, threads_spawned: 2 * npes, handoffs: out.handoffs }
}

/// The timed engine: the same protocol code under the virtual-time
/// cooperative scheduler with calibrated single-chip Tilera costs —
/// [`MultiChipBackend`] with one chip.
pub struct TimedBackend;

impl EngineBackend for TimedBackend {
    fn name(&self) -> &'static str {
        "timed"
    }

    fn execute<R, F>(&self, cfg: &RuntimeConfig, faults: Option<&Arc<LaunchFaults>>, f: F) -> EngineOutcome<R>
    where
        R: Send,
        F: Fn(&ShmemCtx) -> R + Send + Sync,
    {
        MultiChipBackend { chips: 1 }.execute(cfg, faults, f)
    }
}

/// The multichip engine: `chips` simulated devices with `cfg.npes` PEs
/// **each**, connected by mPIPE links (the paper's Section VI
/// multi-device future work), under the same virtual-time scheduler.
pub struct MultiChipBackend {
    pub chips: usize,
}

impl EngineBackend for MultiChipBackend {
    fn name(&self) -> &'static str {
        "multichip"
    }

    fn total_pes(&self, cfg: &RuntimeConfig) -> usize {
        cfg.npes * self.chips
    }

    fn validate(&self, cfg: &RuntimeConfig) {
        assert!(self.chips >= 1, "need at least one chip");
        assert!(
            cfg.algos.barrier != crate::ctx::BarrierAlgo::TmcSpin || self.chips == 1,
            "the TMC spin barrier cannot span chips"
        );
    }

    fn execute<R, F>(&self, cfg: &RuntimeConfig, faults: Option<&Arc<LaunchFaults>>, f: F) -> EngineOutcome<R>
    where
        R: Send,
        F: Fn(&ShmemCtx) -> R + Send + Sync,
    {
        run_coop_lps(&TimedShared::new(cfg, self.chips, faults.cloned()), cfg, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;

    /// A put to a static symbol is served by the target's
    /// interrupt-service context (LP `npes + pe`), so its Copy/Wait/
    /// UdnSend events need a lane of their own: a sink sized `npes` sent
    /// every one of them through the overflow mutex.
    #[test]
    fn service_contexts_trace_into_their_own_lanes() {
        let cfg = RuntimeConfig::new(4)
            .with_partition_bytes(1 << 20)
            .with_private_bytes(1 << 14)
            .with_trace();
        let shared = TimedShared::new(&cfg, 1, None);
        let sink = shared.core.trace.clone().expect("a traced launch has a sink");
        let out = run_coop_lps(&shared, &cfg, |ctx| {
            let s = ctx.static_sym::<u64>(64);
            ctx.put(&s, 0, &[ctx.my_pe() as u64; 64], (ctx.my_pe() + 1) % ctx.n_pes());
            ctx.barrier_all();
            sink.overflow_len()
        });
        assert_eq!(out.values, vec![0; 4], "events that took the overflow path, per PE");
        assert!(out.trace.unwrap().iter().any(|e| e.kind == TraceKind::Copy));
    }
}
