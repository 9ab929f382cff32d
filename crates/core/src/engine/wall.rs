//! The wall-clock engine: real shared memory, real UDN channels, wall
//! time, real threads carrying the contexts — one data plane under one
//! admission policy.
//!
//! Every context (PE main + interrupt-service) runs the same
//! [`WallFabric`] as a stack on the carrier thread of its FIFO admission
//! gate ([`GateSet`]). A launch runs each PE gate's carrier on a lane of
//! the [`Resident`] it attaches to — its own for a plain launch, the
//! server's for a job — and takes the stacks from the same `Resident`;
//! a PE's interrupt-service context is started by the first request
//! sent to it (the paper's handler is an interrupt: nothing runs on the
//! far tile until one arrives). A context may touch the fabric only
//! while it holds its gate, and waits only parked on it; the two
//! wall-clock engines differ only in how their contexts map to gates:
//!
//! * [`NativeBackend`] runs a gate per PE — the paper's one task per
//!   tile — and gives each PE's service context a gate and a thread of
//!   its own, so a request is served while its target PE runs, as the
//!   paper's interrupt preempts the task ([`GateSet::native`]). One
//!   context per gate: a park is its carrier thread's idle park.
//! * [`CoopBackend`](super::coop::CoopBackend) multiplexes N PEs (up to
//!   1024) and their service contexts over M worker gates in contiguous
//!   blocks, a handoff between two of them one switch of stacks.
//!
//! Whatever the geometry, the symmetric heap is one arena — the TMC
//! common-memory region, partitioned per PE, as on the virtual-time
//! fabric — and a global offset is an offset into it. Both engines
//! offer the [`Locality`] capability. The gate may decide when a context
//! runs and how long it spins before it yields or parks, never what an
//! operation does or what it counts: every byte moved, every probe bump,
//! trace event and fault-plane tick below is the same on every geometry
//! (DESIGN.md §6).

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use substrate::stack;
use substrate::sync::Mutex;
use tmc::barrier::SpinBarrier;
use tmc::common::CommonMemory;
use tmc::task::Lanes;
use udn::fabric::{UdnEndpoint, UdnFabric};
use udn::packet::NUM_QUEUES;

use crate::ctx::ShmemCtx;
use crate::engine::backend::{EngineBackend, EngineOutcome};
use crate::engine::coop::{GateSet, Gated, Waiters};
use crate::fabric::{self, BlockedOn, Fabric, Instruments, Locality, PeProbe, ProtoMsg, RmwOp, RmwWidth, Q_SERVICE};
use crate::fault::LaunchFaults;
use crate::runtime::RuntimeConfig;
use crate::server::arena::{ArenaPool, Geometry, SegmentSet};
use crate::service::{service_loop, TAG_SHUTDOWN};
use crate::trace::{TraceEvent, TraceKind, TraceSink};
use crate::watch::JobWatch;

/// Cheap wall-clock for trace timestamps: the invariant TSC scaled to
/// nanoseconds (one `rdtsc` is ~2x cheaper than `clock_gettime` here,
/// and trace records are the data plane's hottest timestamp consumer).
/// The TSC rate is calibrated once per process against the monotonic
/// clock; non-x86 builds fall back to `Instant`.
pub struct FastClock {
    base: Instant,
    #[cfg(target_arch = "x86_64")]
    base_tsc: u64,
    #[cfg(target_arch = "x86_64")]
    ns_per_tick: f64,
}

#[cfg(target_arch = "x86_64")]
fn tsc_ns_per_tick() -> f64 {
    use std::sync::OnceLock;
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        // Calibrate over ~200 us of busy-waiting; the invariant TSC is
        // stable enough that this once-per-process sample holds.
        let t0 = Instant::now();
        let c0 = unsafe { core::arch::x86_64::_rdtsc() };
        while t0.elapsed() < Duration::from_micros(200) {
            std::hint::spin_loop();
        }
        let dt = t0.elapsed().as_nanos() as f64;
        let dc = (unsafe { core::arch::x86_64::_rdtsc() } - c0) as f64;
        if dc > 0.0 {
            dt / dc
        } else {
            0.0 // non-monotonic TSC: treat every tick as zero ns and
                // let `max(ns)` degrade to coarse Instant readings
        }
    })
}

impl FastClock {
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            #[cfg(target_arch = "x86_64")]
            base_tsc: unsafe { core::arch::x86_64::_rdtsc() },
            #[cfg(target_arch = "x86_64")]
            ns_per_tick: tsc_ns_per_tick(),
        }
    }

    /// Nanoseconds since the clock was created.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            if self.ns_per_tick > 0.0 {
                let dc = unsafe { core::arch::x86_64::_rdtsc() }.wrapping_sub(self.base_tsc);
                return (dc as f64 * self.ns_per_tick) as u64;
            }
        }
        self.base.elapsed().as_nanos() as u64
    }
}

impl Default for FastClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Shared state of one wall-clock launch — what a supervisor of the
/// launch watches.
pub struct WallShared {
    /// The symmetric heap: one arena, partition `pe` at
    /// `pe * partition_bytes`, as on the virtual-time fabric.
    pub arena: Arc<CommonMemory>,
    /// Every tile's UDN endpoint. Contexts receive from their PE's entry
    /// in place; nothing is handed out per context.
    pub(crate) endpoints: Vec<UdnEndpoint>,
    pub privates: Vec<Arc<CommonMemory>>,
    pub npes: usize,
    pub partition_bytes: usize,
    pub device: tile_arch::device::Device,
    pub start: FastClock,
    /// Lazily-created TMC spin barriers, one per distinct active set;
    /// a waiter polls through [`Fabric::wait_pause`], so it yields its
    /// admission between polls and notices a job abort.
    pub spin_barriers: Mutex<HashMap<(usize, u32, usize), Arc<SpinBarrier>>>,
    /// The launch's admission gates, which every wait parks on.
    pub(crate) gate: Gated,
    /// Per tile and demux queue, its consumer — the PE's main context,
    /// or on `Q_SERVICE` its service context — parked on it being empty,
    /// and senders parked on it being full.
    pub(crate) not_empty: Box<[[Waiters; NUM_QUEUES]]>,
    pub(crate) not_full: Box<[[Waiters; NUM_QUEUES]]>,
    /// Every context's probe, the trace sink and the fault plan. The
    /// service contexts have probes of their own, so a stall inside a
    /// redirected-RMA handler is attributed to the handler rather than
    /// showing up only as its clients' reply waits. The trace sink has
    /// one lock-free lane per context that can run at once.
    pub instruments: Instruments,
    /// Completed once PE `i`'s interrupt-service context has been
    /// started — by the first request addressed to it (see
    /// [`WallFabric::listening`]).
    service_started: Vec<Once>,
    /// The carrier threads of the service gates started so far (the
    /// native geometry's; a coop service context runs on its worker's
    /// carrier). The launch joins them on clean completion and detaches
    /// them otherwise.
    service_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Contexts per running context, `ceil(2 * npes / domains)`: `1` on
    /// the native engine, whose every context has a gate of its own. A
    /// stall watchdog scales its wall-clock window by this — a
    /// descheduled-but-runnable PE progresses this many times slower
    /// without being any less live.
    pub oversubscription: usize,
    /// [`crate::fault::coop_locality`] as it read when the launch began:
    /// every PE of one launch takes the same transports.
    pub(crate) locality: bool,
}

impl WallShared {
    /// The shared state of a launch of `cfg` over `endpoints` and the
    /// memory `set`, its `2 * npes` contexts admitted by `gate`, with
    /// `instruments`.
    pub fn new(
        cfg: &RuntimeConfig,
        endpoints: Vec<UdnEndpoint>,
        SegmentSet { arena, privates }: SegmentSet,
        gate: Gated,
        instruments: Instruments,
    ) -> Arc<Self> {
        let npes = cfg.npes;
        assert_eq!(endpoints.len(), npes, "one UDN endpoint per PE");
        assert_eq!(privates.len(), npes, "one private segment per PE");
        Arc::new(Self {
            arena,
            privates,
            npes,
            partition_bytes: cfg.partition_bytes,
            device: cfg.device,
            start: FastClock::new(),
            spin_barriers: Mutex::new(HashMap::new()),
            oversubscription: (2 * npes).div_ceil(gate.domains),
            gate,
            not_empty: (0..npes).map(|_| Default::default()).collect(),
            not_full: (0..npes).map(|_| Default::default()).collect(),
            instruments,
            service_started: (0..npes).map(|_| Once::new()).collect(),
            service_threads: Mutex::new(Vec::new()),
            endpoints,
            locality: crate::fault::coop_locality(),
        })
    }

    /// Abort the job when a PE panics or a supervisor gives up on it
    /// (SHMEM jobs are all-or-nothing). Every wait — for the gate, a
    /// cell, a queue or an injected delay — is a baton park, so a flag
    /// and one grant per context reach them all (`GateSet::abort`).
    pub fn abort(&self) {
        self.gate.abort();
    }
}

/// Failed polls of one wait before [`Fabric::wait_pause`] yields the
/// thread instead of spinning.
const YIELD_AFTER: u32 = 64;
/// A polling wait checks the abort flag every this many polls.
const ABORT_CHECK_EVERY: u32 = 64;

/// Per-context wall-clock fabric. A PE's main context and its
/// interrupt-service context share the PE's endpoint queues; the
/// service context consumes only `Q_SERVICE`.
pub struct WallFabric {
    pub(crate) shared: Arc<WallShared>,
    pub(crate) pe: usize,
    /// Context id: `pe` for the main context, `npes + pe` for the
    /// interrupt-service context.
    pub(crate) ctx: usize,
    /// This context's own probe — the service context must not
    /// overwrite the main context's blocked state.
    probe: Arc<PeProbe>,
    /// The trace lane this context writes: its gate's, which that gate
    /// keeps single-writer.
    lane: usize,
}

impl WallFabric {
    /// A fabric for context `ctx`: PE `ctx`'s main context, or for
    /// `npes + pe` PE `pe`'s interrupt-service context.
    pub fn new(shared: Arc<WallShared>, ctx: usize) -> Self {
        let probe = shared.instruments.probes[ctx].clone();
        let lane = shared.gate.domain_of(ctx);
        Self {
            pe: ctx % shared.npes,
            shared,
            ctx,
            probe,
            lane,
        }
    }

    /// This PE's UDN endpoint.
    #[inline]
    pub(crate) fn udn(&self) -> &UdnEndpoint {
        &self.shared.endpoints[self.pe]
    }

    /// Whether a packet for `(dest, queue)` has a context to go to. A
    /// PE's main context always listens; its interrupt-service context
    /// (`Q_SERVICE`) is started here if this is the first request
    /// addressed to it. Only `finalize`'s [`TAG_SHUTDOWN`] can find none
    /// and leave it so: every request precedes its issuer's `finalize`
    /// barrier, so once a PE is past that barrier no context can start
    /// any more, and a shutdown for one that never did is the fabric's
    /// to consume.
    #[inline]
    fn listening(&self, dest: usize, queue: usize, tag: u16) -> bool {
        if queue != Q_SERVICE || self.shared.service_started[dest].is_completed() {
            return true;
        }
        if tag == TAG_SHUTDOWN {
            return false;
        }
        self.start_service(dest);
        true
    }

    /// Start `dest`'s interrupt-service context, which consumes only
    /// `Q_SERVICE` of that PE's endpoint, waits in that receive with its
    /// gate released and holds it only while serving a request: make it
    /// ready on its gate, where it starts once admitted — on a coop
    /// worker's carrier, a stack beside its PE; on the native geometry
    /// its gate's own carrier, which this starts on a thread.
    /// Concurrent first requesters start exactly one (the losers wait
    /// out the start); a context started after [`WallShared::abort`]
    /// unwinds before it serves anything.
    #[cold]
    fn start_service(&self, dest: usize) {
        self.shared.service_started[dest].call_once(|| {
            let (gate, ctx) = (&self.shared.gate, self.shared.npes + dest);
            gate.make_ready(ctx);
            let dom = gate.domain_of(ctx);
            if dom < gate.workers {
                return;
            }
            let shared = self.shared.clone();
            let thread = std::thread::Builder::new()
                .name(format!("svc-{dest}")) // cold: once per serviced PE
                .spawn(move || shared.gate.run(dom, &|ctx| serve(&shared, ctx)))
                .expect("spawn service thread");
            self.shared.service_threads.lock().push(thread); // cold: once per serviced PE
        });
    }

    #[inline]
    pub(crate) fn gate_acquire(&self) {
        self.shared.gate.acquire(self.ctx, Some(&self.probe));
    }

    #[inline]
    pub(crate) fn gate_release(&self) {
        self.shared.gate.release(self.ctx);
    }

    #[inline]
    fn yield_if_contended(&self) -> bool {
        self.shared.gate.yield_if_contended(self.ctx, &self.probe)
    }

    fn private(&self) -> &CommonMemory {
        &self.shared.privates[self.pe]
    }

    /// Count one completed (state-changing) fabric operation
    /// ([`Instruments::progress`]) and serve a `SlowPe` delay parked. An
    /// injected crash fires while admitted; the launch scaffold's cleanup
    /// releases the slot, so siblings keep running while the job is torn
    /// down.
    #[inline]
    pub(crate) fn progress(&self) {
        if let Some(us) = self.shared.instruments.progress(&self.probe, self.pe) {
            self.delay(us);
        }
    }

    /// Serve a `DelayProtocolSends` fault on the send being made now.
    #[inline]
    fn delay_protocol_send(&self) {
        if let Some(us) = self.shared.instruments.faults.as_ref().and_then(|f| f.protocol_send_delay_us()) {
            self.delay(us);
        }
    }

    pub(crate) fn set_blocked(&self, state: BlockedOn) {
        self.probe.set_blocked(state);
    }

    /// Record an instantaneous wall-clock trace event.
    pub(crate) fn trace(&self, kind: TraceKind, peer: usize, bytes: u64) {
        if let Some(sink) = &self.shared.instruments.trace {
            let now = desim::time::SimTime::from_ns(self.shared.start.now_ns());
            sink.record_lane(
                self.lane,
                TraceEvent {
                    pe: self.pe,
                    kind,
                    start: now,
                    end: now,
                    peer,
                    bytes,
                },
            );
        }
    }

    /// Send to `(dest, queue)` if it has room, and make its consumer
    /// ready if it is parked on the queue being empty.
    #[inline]
    fn push(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]) -> bool {
        let sent = self.udn().try_send(dest, queue, tag, payload);
        if sent {
            self.wake(&self.shared.not_empty[dest][queue]);
        }
        sent
    }

    /// Receive from this PE's `queue` if a packet is there, and make
    /// ready the senders parked on the queue being full.
    #[inline]
    fn take(&self, queue: usize) -> Option<ProtoMsg> {
        let p = self.udn().try_recv(queue)?;
        self.wake(&self.shared.not_full[self.pe][queue]);
        self.progress();
        Some(ProtoMsg { src: p.header.src as usize, tag: p.header.tag, payload: p.payload })
    }
}

impl Fabric for WallFabric {
    fn pe(&self) -> usize {
        self.pe
    }

    fn npes(&self) -> usize {
        self.shared.npes
    }

    fn partition_bytes(&self) -> usize {
        self.shared.partition_bytes
    }

    fn device(&self) -> tile_arch::device::Device {
        self.shared.device
    }

    fn udn_send(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]) {
        self.delay_protocol_send();
        // Q_SERVICE is consumed by the destination's service context;
        // the routing is by queue, so a plain send reaches it.
        if self.listening(dest, queue, tag) {
            // Full bounded queue: park until the receive that frees a
            // slot makes us ready — the consumer that must drain `dest`
            // may be a sibling queued behind us. The re-check is a bare
            // send: its consumer is made ready with the list let go.
            let (not_full, blocked) = (&self.shared.not_full[dest][queue], BlockedOn::SendFull { dest, queue });
            while !self.push(dest, queue, tag, payload) {
                if !self.park_on(not_full, blocked, || self.udn().try_send(dest, queue, tag, payload)) {
                    self.wake(&self.shared.not_empty[dest][queue]);
                    break;
                }
            }
        }
        self.trace(TraceKind::UdnSend, dest, 8 * payload.len() as u64);
        self.progress();
    }

    fn udn_try_send(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]) -> bool {
        // A `ClampQueueDepth` fault squeezes the *effective* queue depth
        // below the fabric's real bound, forcing the draining-send
        // backpressure path mid-run.
        if let Some(depth) = self.shared.instruments.faults.as_ref().and_then(|f| f.clamp_queue_depth()) {
            if self.udn().dest_queue_len(dest, queue) >= depth {
                return false;
            }
        }
        let sent = !self.listening(dest, queue, tag) || self.push(dest, queue, tag, payload);
        if sent {
            self.delay_protocol_send();
            self.trace(TraceKind::UdnSend, dest, 8 * payload.len() as u64);
            self.progress();
        } else {
            self.probe.spin();
        }
        sent
    }

    fn udn_recv(&self, queue: usize) -> ProtoMsg {
        let not_empty = &self.shared.not_empty[self.pe][queue];
        let mut polls = 0;
        loop {
            if let Some(msg) = self.take(queue) {
                return msg;
            }
            if polls < 4 {
                // Opportunistic poll before parking: in a protocol round
                // trip the reply is usually queued already. The gate is
                // still held: yielding the thread would only idle the
                // worker.
                polls += 1;
                std::hint::spin_loop();
            } else {
                // Park with the gate released — the sender that will
                // satisfy this receive may be queued behind us — until
                // its push makes us ready: the wake-up is the grant.
                self.park_on(not_empty, BlockedOn::Recv { queue }, || self.udn().queue_len(queue) > 0);
            }
        }
    }

    fn udn_try_recv(&self, queue: usize) -> Option<ProtoMsg> {
        self.take(queue)
    }

    fn arena_copy(&self, dst: usize, src: usize, len: usize) {
        self.shared.arena.copy_within(dst, src, len);
        self.trace(TraceKind::Copy, usize::MAX, len as u64);
        self.progress();
    }

    fn arena_write(&self, dst: usize, src: &[u8]) {
        self.shared.arena.write_bytes(dst, src);
        self.trace(TraceKind::Copy, usize::MAX, src.len() as u64);
        self.progress();
    }

    fn arena_read(&self, src: usize, dst: &mut [u8]) {
        self.shared.arena.read_bytes(src, dst);
        self.trace(TraceKind::Copy, usize::MAX, dst.len() as u64);
        self.progress();
    }

    fn arena_read_u64(&self, off: usize) -> u64 {
        self.shared.arena.atomic_u64(off).load(Ordering::Acquire)
    }

    fn arena_read_u32(&self, off: usize) -> u32 {
        self.shared.arena.atomic_u32(off).load(Ordering::Acquire)
    }

    fn arena_write_u64(&self, off: usize, v: u64) {
        self.shared.arena.atomic_u64(off).store(v, Ordering::Release);
        // A flag store is a state change (useful work); atomic *loads*
        // stay uncounted so polling can never masquerade as progress.
        self.progress();
    }

    fn arena_rmw(&self, off: usize, op: RmwOp, operand: u64, width: RmwWidth) -> u64 {
        self.trace(TraceKind::Atomic, usize::MAX, width.bytes() as u64);
        self.progress();
        fabric::rmw(&self.shared.arena, off, op, operand, width)
    }

    fn arena_cswap(&self, off: usize, cond: u64, new: u64, width: RmwWidth) -> u64 {
        // Only a *successful* exchange is useful work (and worth a trace
        // event); a failed retry is a spin, or a livelocked CAS loop
        // would look live to the watchdog while flooding the trace sink.
        let old = fabric::cswap(&self.shared.arena, off, cond, new, width);
        if old == cond {
            self.trace(TraceKind::Atomic, usize::MAX, width.bytes() as u64);
            self.progress();
        } else {
            self.probe.spin();
            // A failed cswap is a spin wait in disguise: callers retry in
            // a loop (lock claims, rank-ordered rings) that never blocks,
            // so without this it keeps its admission forever and starves
            // the very sibling whose turn must come first — the same
            // contract `wait_pause` honors for flag polls.
            self.yield_if_contended();
        }
        old
    }

    fn private_write(&self, off: usize, src: &[u8]) {
        self.private().write_bytes(off, src);
        self.progress();
    }

    fn private_read(&self, off: usize, dst: &mut [u8]) {
        self.private().read_bytes(off, dst);
        self.progress();
    }

    fn private_to_arena(&self, arena_dst: usize, priv_src: usize, len: usize) {
        CommonMemory::copy_between(&self.shared.arena, arena_dst, self.private(), priv_src, len);
        self.trace(TraceKind::Copy, usize::MAX, len as u64);
        self.progress();
    }

    fn arena_to_private(&self, priv_dst: usize, arena_src: usize, len: usize) {
        CommonMemory::copy_between(self.private(), priv_dst, &self.shared.arena, arena_src, len);
        self.trace(TraceKind::Copy, usize::MAX, len as u64);
        self.progress();
    }

    fn arena_raw(&self, off: usize, len: usize) -> *mut u8 {
        self.shared.arena.raw(off, len)
    }

    fn private_raw(&self, off: usize, len: usize) -> *mut u8 {
        self.private().raw(off, len)
    }

    fn locality(&self) -> Option<&dyn Locality> {
        self.shared.locality.then_some(self)
    }

    fn tmc_spin_barrier(&self, set: (usize, u32, usize)) {
        let b = {
            let mut map = self.shared.spin_barriers.lock();
            map.entry(set)
                .or_insert_with(|| Arc::new(SpinBarrier::new(set.2)))
                .clone()
        };
        b.wait_with(|attempt| self.wait_pause(attempt));
        self.progress();
    }

    fn probe(&self) -> Option<&PeProbe> {
        Some(&self.probe)
    }

    fn faults(&self) -> Option<&LaunchFaults> {
        self.shared.instruments.faults.as_deref()
    }

    fn quiet(&self) {
        tmc::fence::mem_fence();
    }

    fn wait_pause(&self, attempt: u32) {
        self.probe.spin();
        // Check the abort flag occasionally so polling waits can't hang
        // a job whose peer died.
        if attempt > 0 && attempt.is_multiple_of(ABORT_CHECK_EVERY) {
            self.shared.gate.abort_check(self.ctx);
        }
        // The context that will satisfy this wait may be queued behind
        // us: FIFO admission runs every queued sibling once before we
        // spin again.
        if attempt >= 4 && self.yield_if_contended() {
            return;
        }
        if attempt > YIELD_AFTER {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }

    fn compute(&self, _cycles: f64) {
        // Real computation takes its own real time.
    }

    fn now_ns(&self) -> f64 {
        self.shared.start.now_ns() as f64
    }

    fn inject_delay_us(&self, micros: u64) {
        self.delay(micros);
    }
}

/// What outlives a launch when something keeps it warm: the memory of
/// cleanly completed jobs, the lanes their gates' carriers ran on and
/// the stacks their contexts ran on. The server holds one for its
/// lifetime, so a job only attaches; a plain launch makes an empty one
/// of its own, so there is one launch body.
#[derive(Default)]
pub struct Resident {
    pub sets: ArenaPool,
    pub lanes: Lanes,
    pub stacks: Arc<stack::Pool>,
}

impl Resident {
    /// For one launch alone: nothing to recycle, and lanes closed from
    /// the start, so each ends with its PE instead of parking for a next
    /// job that will not come. Dropping it joins them.
    pub(crate) fn for_one_launch() -> Self {
        let own = Self::default();
        own.lanes.close();
        own
    }
}

/// The one wall-clock launch body: build the gates over stacks kept in
/// `resident` (or one for this launch alone) and the shared state over
/// memory checked out of it, publish that to the launch's supervisor if
/// it has one, queue every PE's main context on its gate, carry each PE
/// gate's contexts on a lane, run `f` under `faults`, and tear down —
/// joining the service carriers the job's requests started and, on clean
/// completion, retiring the memory with its dirty extent.
pub(crate) fn run_wall<R, F>(
    gate: impl FnOnce(&Arc<stack::Pool>) -> Gated,
    resident: Option<&Resident>,
    cfg: &RuntimeConfig,
    faults: Option<&Arc<LaunchFaults>>,
    watch: Option<&JobWatch>,
    f: F,
) -> EngineOutcome<R>
where
    R: Send,
    F: Fn(&ShmemCtx) -> R + Send + Sync,
{
    let npes = cfg.npes;
    let own;
    let resident = match resident {
        Some(kept) => kept,
        None => {
            own = Resident::for_one_launch();
            &own
        }
    };
    let gate = gate(&resident.stacks);
    let layout = cfg.layout();
    let endpoints = match cfg.udn_queue_packets {
        Some(p) => UdnFabric::new_bounded(npes, p),
        None => UdnFabric::new(npes),
    };
    // The supervisor needs a sink for "last event per PE" stall dumps
    // even when the caller did not ask for a trace.
    let sink = (cfg.trace || watch.is_some()).then(|| Arc::new(TraceSink::with_lanes(gate.domains)));
    let geometry = Geometry::of(cfg);
    let set = resident.sets.checkout(geometry);
    let instruments = Instruments::new(npes, sink.clone(), faults.cloned());
    let shared = WallShared::new(cfg, endpoints, set, gate.clone(), instruments);
    if let Some(w) = watch {
        let _ = w.set(shared.clone());
    }
    gate.admit(&shared.instruments.probes);

    // Each PE's value and dirty extent, or the panic it died of: a lane
    // carries a worker's PEs, so the job's panic is picked per PE.
    type Outcome<R> = Mutex<Option<std::thread::Result<(R, (usize, usize))>>>;
    let outcomes: Vec<Outcome<R>> = (0..npes).map(|_| Mutex::new(None)).collect();
    let pe_main = |pe: usize| {
        let fab = WallFabric::new(shared.clone(), pe);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            admitted(&shared, pe, || {
                let ctx = ShmemCtx::new(Box::new(fab), layout, cfg.algos, cfg.private_bytes);
                // If any PE panics, abort the job — its peers and service
                // contexts unwind wherever they wait (SHMEM jobs are
                // all-or-nothing) — then re-raise the original panic,
                // saying whose it was.
                match catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
                    Ok(r) => {
                        ctx.finalize();
                        // Read here, after the closure has returned — not
                        // in `finalize`, which a tenant may call early.
                        (r, ctx.dirty_extent())
                    }
                    Err(p) => {
                        shared.abort();
                        resume_unwind(name_pe(pe, p));
                    }
                }
            })
        }));
        let unwound = outcome.is_err();
        *outcomes[pe].lock() = Some(outcome);
        if unwound {
            // The lane unwinds too: one that carried a panic is retired.
            resume_unwind(Box::new(()));
        }
    };
    let carried = catch_unwind(AssertUnwindSafe(|| {
        resident.lanes.run(gate.workers, |dom| {
            gate.run(dom, &|ctx| if ctx < npes { pe_main(ctx) } else { serve(&shared, ctx) })
        })
    }));
    let lanes_spawned = match carried {
        Ok((_, spawned)) => spawned,
        // The lowest PE that panicked names the job's panic, whatever lane
        // carried it; a service context's, if no PE did. The service
        // carriers of a failed launch are detached.
        Err(lane) => {
            let pe = outcomes.into_iter().find_map(|o| o.into_inner().and_then(Result::err));
            resume_unwind(pe.unwrap_or(lane))
        }
    };

    // Reached only on clean completion. Every PE is past its `finalize`
    // barrier, so the started set is final and each member has been sent
    // its shutdown.
    let service_threads = std::mem::take(&mut *shared.service_threads.lock());
    let threads_spawned = lanes_spawned + service_threads.len();
    for t in service_threads {
        t.join().expect("service thread panicked");
    }
    let tiles: Vec<(R, (usize, usize))> = outcomes
        .into_iter()
        .map(|o| match o.into_inner().expect("every PE ran") {
            Ok(tile) => tile,
            Err(p) => resume_unwind(p),
        })
        .collect();
    // Retire the memory for recycling, dirty as far as any PE's handles
    // reached.
    let (heap_extent, static_extent) =
        tiles.iter().fold((0, 0), |(h, s), (_, (heap, statics))| (h.max(*heap), s.max(*statics)));
    let set = SegmentSet {
        arena: shared.arena.clone(),
        privates: shared.privates.clone(),
    };
    resident.sets.check_in(geometry, set, heap_extent, static_extent);
    EngineOutcome {
        values: tiles.into_iter().map(|(value, _)| value).collect(),
        clocks: Vec::new(),
        makespan: desim::time::SimTime::ZERO,
        // Only a caller-requested trace is returned; the
        // supervisor's sink stays with the supervisor.
        trace: cfg.trace.then(|| sink.expect("sink exists when tracing").take()),
        threads_spawned,
        handoffs: 0,
    }
}

/// The message of a panic payload, when it is a string.
pub(crate) fn panic_text(payload: &(dyn Any + Send)) -> Option<&str> {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => Some(s),
        (_, Some(s)) => Some(s),
        _ => None,
    }
}

/// Lanes are not named after the PE they happen to run, so the panic a
/// job dies of says which PE raised it — unless it already does.
fn name_pe(pe: usize, payload: Box<dyn Any + Send>) -> Box<dyn Any + Send> {
    let Some(message) = panic_text(&*payload) else {
        return payload;
    };
    let prefix = format!("PE {pe}");
    let named = message
        .strip_prefix(&prefix)
        .is_some_and(|rest| !rest.starts_with(|c: char| c.is_ascii_digit()));
    if named {
        payload
    } else {
        Box::new(format!("{prefix}: {message}"))
    }
}

/// Run interrupt-service context `ctx` of `shared`'s launch until its
/// shutdown or the job's abort.
fn serve(shared: &Arc<WallShared>, ctx: usize) {
    let fab = WallFabric::new(shared.clone(), ctx);
    admitted(shared, ctx, || service_loop(&fab));
}

/// Run `body` as context `ctx` of `shared`'s launch, which starts holding
/// its gate — or, started by an abort, without it, and unwinds at once —
/// and give the gate back however it ends. A panic can fire while not
/// admitted (an abort ends a park without admitting): release only a
/// held gate, or the handoff chain double-frees.
fn admitted<T>(shared: &WallShared, ctx: usize, body: impl FnOnce() -> T) -> T {
    let result = catch_unwind(AssertUnwindSafe(|| {
        shared.instruments.probes[ctx].set_blocked(BlockedOn::Running);
        shared.gate.abort_check(ctx);
        body()
    }));
    if shared.gate.is_holding(ctx) {
        shared.gate.release(ctx);
    }
    result.unwrap_or_else(|p| resume_unwind(p))
}

/// The native engine: the paper's one task per tile — the wall fabric
/// on [`GateSet::native`], a gate and a carrier thread per PE and per
/// interrupt-service context.
pub struct NativeBackend;

impl EngineBackend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    fn execute<R, F>(
        &self,
        cfg: &RuntimeConfig,
        faults: Option<&Arc<LaunchFaults>>,
        watch: Option<&JobWatch>,
        f: F,
    ) -> EngineOutcome<R>
    where
        R: Send,
        F: Fn(&ShmemCtx) -> R + Send + Sync,
    {
        run_wall(|stacks| GateSet::native(cfg.npes, stacks), None, cfg, faults, watch, f)
    }

    fn resident(&self) -> Option<Arc<Resident>> {
        Some(Arc::new(Resident::for_one_launch()))
    }
}
