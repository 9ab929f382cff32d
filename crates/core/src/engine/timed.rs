//! The virtual-time engine: the same protocol code and the same real
//! data movement as the native engine, executed under the virtual-time
//! cooperative scheduler with calibrated Tilera costs — on one chip
//! (the timed engine every paper figure runs on) or on several joined
//! by mPIPE links (the paper's Section VI future work):
//!
//! "Finally, we plan to leverage novel architectural features of the
//! TILE-Gx such as the mPIPE packet engine as we explore designs for
//! expanding the shared-memory abstraction in TSHMEM across multiple
//! many-core devices."
//!
//! Every PE (and every PE's interrupt-service context) is a logical
//! process of `desim::coop`; clocks advance by the costs the modeled
//! device would pay — UDN setup-and-teardown plus per-hop wormhole
//! cycles for messages, cache-classified copy cycles for data movement,
//! and busy-until home-port/DRAM contention for concurrent transfers.
//! Determinism is inherited from the scheduler: a timed run is
//! bit-reproducible.
//!
//! PEs are block-distributed over `chips` simulated devices; each chip
//! has its own cache/DDC memory system, and chip pairs are connected by
//! full-duplex mPIPE links ([`mpipe`]). One chip is the degenerate case
//! — no links, every operation on-chip — not a second implementation:
//!
//! * intra-chip operations cost the same at any chip count;
//! * cross-chip UDN messages tunnel over mPIPE (microseconds instead of
//!   the ~21 ns on-chip wire);
//! * cross-chip puts/gets are mPIPE DMA: a descriptor-setup charge,
//!   link serialization at 10 Gbps, and delivery into the far chip's
//!   DDC.
//!
//! Functionally, data always moves in process (the chips are
//! simulated); what the chip count changes is the *cost model*, which
//! is the subject of the multi-device ablation (`microbench::ablation`).
//!
//! The whole fabric is this module, as the wall fabric is `wall`: the
//! tracked UDN queue model (credit-parked backpressure), the wire and
//! memory cost model, the virtual-time livelock guard, and the LP
//! scaffolding [`TimedBackend`] and [`MultiChipBackend`] launch through.
//! Probes, the trace sink and the fault plan are the launch's
//! [`Instruments`], the same set the wall fabric holds. Every cross-chip
//! transfer additionally passes the mPIPE frame-integrity layer
//! ([`mpipe::FrameFault`]): injected corruption/replay panics with a
//! diagnosis naming the link, and injected drops wedge the receiver for
//! the watchdog to attribute.

use std::collections::HashMap;
use std::sync::Arc;

use cachesim::homing::Homing;
use cachesim::memsys::{MemRef, MemorySystem};
use desim::coop::CoopHandle;
use desim::time::SimTime;
use mpipe::{MpipeLink, MpipeTimings};
use substrate::sync::Mutex;
use tmc::common::CommonMemory;
use udn::packet::PayloadVec;
use udn::timing::UdnModel;

use super::backend::{EngineBackend, EngineOutcome};
use crate::ctx::ShmemCtx;
use crate::fabric::{self, BlockedOn, Fabric, Instruments, PeProbe, ProtoMsg, RmwOp, RmwWidth, Q_SERVICE};
use crate::fault::LaunchFaults;
use crate::runtime::RuntimeConfig;
use crate::service::service_loop;
use crate::trace::{TraceEvent, TraceKind, TraceSink};
use crate::watch::{JobWatch, TimedWatch};

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

/// Poll-backoff base charge (see `TimedFabric::wait_pause`).
const POLL_CYCLES: f64 = 50.0;

/// Simulated-address-space bases (disjoint regions for classification).
const SIM_ARENA_BASE: u64 = 1 << 32;
const SIM_PRIV_BASE: u64 = 1 << 40;
const SIM_SCRATCH_BASE: u64 = 1 << 41;
const SIM_REGION_SPAN: u64 = 1 << 28;
/// Local scratch (stack/heap buffers) wraps so repeated transfers from
/// "the same local buffer" stay cache-warm, as they would on hardware.
const SCRATCH_WRAP: u64 = 8 * 1024 * 1024;

/// Cycle charges for operations not covered by the copy model.
const FLAG_RW_CYCLES: f64 = 30.0;
const RMW_CYCLES: f64 = 60.0;
const QUIET_CYCLES: f64 = 10.0;
/// Per-call software overhead of a data-plane operation (argument
/// checks, address classification, `memcpy` setup) — what makes small
/// puts latency-bound in Figure 6 rather than running at the L1d
/// plateau.
const OP_OVERHEAD_CYCLES: f64 = 60.0;

/// Per-destination modeled UDN queue occupancy and the senders parked
/// waiting for space.
struct QueueState {
    /// `occ[dest_lp][queue]`: packets sent but not yet received.
    occ: Vec<[usize; udn::NUM_QUEUES]>,
    /// `(dest_lp, queue, sender_lp)` for every parked sender.
    waiters: Vec<(usize, usize, usize)>,
}

/// Launch-wide state of a virtual-time job.
pub struct TimedShared {
    pub arena: Arc<CommonMemory>,
    pub privates: Vec<Arc<CommonMemory>>,
    /// One memory system per chip.
    pub mems: Vec<Mutex<MemorySystem>>,
    /// Links between chip pairs, keyed by (min, max); empty at one chip.
    pub links: Mutex<HashMap<(usize, usize), MpipeLink>>,
    pub model: UdnModel,
    pub link_timings: MpipeTimings,
    pub npes: usize,
    pub pes_per_chip: usize,
    pub chips: usize,
    pub partition_bytes: usize,
    /// Homing overrides for arena regions: (start, end, policy).
    /// Regions not listed default to hash-for-home (what TSHMEM uses
    /// for common memory).
    pub homing_overrides: Mutex<Vec<(usize, usize, Homing)>>,
    /// Every LP's probe (LPs `0..npes` the PEs, `npes..2*npes` their
    /// service contexts), the trace sink with one lane per LP, and the
    /// fault plan — what the drained-queue observer reports from.
    pub instruments: Instruments,
    /// Modeled UDN queue depth (packets); `None` = unbounded.
    queue_cap: Option<usize>,
    qstate: Mutex<QueueState>,
}

impl TimedShared {
    /// State for `chips` devices of `cfg.npes` PEs each, joined pairwise
    /// by 10 Gbps XAUI mPIPE links. `cfg.trace` enables operation
    /// tracing (cross-chip transfers appear as [`TraceKind::Link`]
    /// events); `cfg.udn_queue_packets` bounds the modeled UDN demux
    /// queues, giving the same finite-buffer backpressure semantics as a
    /// bounded native fabric; `faults` is the launch's armed plan.
    pub fn new(cfg: &RuntimeConfig, chips: usize, faults: Option<Arc<LaunchFaults>>) -> Arc<Self> {
        assert!(chips >= 1);
        assert!(cfg.udn_queue_packets != Some(0), "queue_cap must be at least 1 packet");
        let area = cfg.area();
        let pes_per_chip = cfg.npes;
        assert!(
            pes_per_chip <= area.tiles(),
            "{pes_per_chip} PEs per chip exceed the {}-tile area",
            area.tiles()
        );
        let npes = chips * pes_per_chip;
        // One lane per LP: PEs, then their interrupt-service contexts.
        let trace = cfg.trace.then(|| Arc::new(TraceSink::with_lanes(2 * npes)));
        let link_timings = MpipeTimings::xaui_10g();
        let mut links = HashMap::new();
        for a in 0..chips {
            for b in a + 1..chips {
                links.insert((a, b), MpipeLink::between(link_timings, a, b));
            }
        }
        Arc::new(Self {
            arena: CommonMemory::new(npes * cfg.partition_bytes, Homing::HashForHome),
            privates: (0..npes)
                .map(|pe| CommonMemory::new(cfg.private_bytes, Homing::Local(pe % pes_per_chip)))
                .collect(),
            mems: (0..chips)
                .map(|_| Mutex::new(MemorySystem::new(area.device, pes_per_chip)))
                .collect(),
            links: Mutex::new(links),
            model: UdnModel::new(area),
            link_timings,
            npes,
            pes_per_chip,
            chips,
            partition_bytes: cfg.partition_bytes,
            homing_overrides: Mutex::new(Vec::new()),
            instruments: Instruments::new(npes, trace, faults),
            queue_cap: cfg.udn_queue_packets,
            qstate: Mutex::new(QueueState {
                // cold: once per launch, in the constructor.
                occ: vec![[0; udn::NUM_QUEUES]; 2 * npes],
                waiters: Vec::new(),
            }),
        })
    }

    /// PE `pe`'s modeled demux-queue occupancy: its main LP's queues
    /// plus the `Q_SERVICE` requests waiting for its service LP, as one
    /// endpoint holds them on the wall fabric.
    pub(crate) fn queue_occupancy(&self, pe: usize) -> [usize; udn::NUM_QUEUES] {
        let q = self.qstate.lock();
        std::array::from_fn(|i| q.occ[pe][i] + q.occ[self.npes + pe][i])
    }

    // The chip/tile maps short-circuit at one chip: every op of every
    // paper figure crosses them, and there the answer needs no division.

    fn chip_of_pe(&self, pe: usize) -> usize {
        if self.chips == 1 { 0 } else { pe / self.pes_per_chip }
    }

    fn chip_of_offset(&self, off: usize) -> usize {
        if self.chips == 1 {
            0
        } else {
            self.chip_of_pe((off / self.partition_bytes).min(self.npes - 1))
        }
    }

    /// Tile index of a PE within its chip.
    fn tile_of(&self, pe: usize) -> usize {
        if self.chips == 1 { pe } else { pe % self.pes_per_chip }
    }

    /// Occupy the link between two chips through the frame-integrity
    /// layer. `None` means the frame was dropped in flight by `fault`.
    fn link_transfer_checked(
        &self,
        from: usize,
        to: usize,
        now: SimTime,
        bytes: usize,
        fault: Option<mpipe::FrameFault>,
    ) -> Option<SimTime> {
        debug_assert_ne!(from, to);
        let key = (from.min(to), from.max(to));
        let dir = usize::from(from > to);
        self.links
            .lock()
            .get_mut(&key)
            .expect("link exists for chip pair")
            .transfer_checked(dir, now, bytes, fault)
    }
}

/// Per-LP virtual-time fabric. The PE's main context and its service
/// context share `pe` but hold different coop handles (and distinct
/// probes).
pub struct TimedFabric {
    shared: Arc<TimedShared>,
    /// The PE this LP belongs to (service LPs share their PE's id).
    pe: usize,
    /// This LP's id (`pe` for main contexts, `npes + pe` for service),
    /// and the trace lane it alone writes.
    lp: usize,
    probe: Arc<PeProbe>,
    coop: CoopHandle<ProtoMsg>,
    clock: tile_arch::clock::Clock,
}

impl TimedFabric {
    /// Fabric for LP `lp` of a `2 * npes`-LP cooperative run: LPs
    /// `0..npes` are PEs, `npes..2*npes` their service contexts.
    pub fn for_lp(shared: Arc<TimedShared>, lp: usize, coop: CoopHandle<ProtoMsg>) -> Self {
        let clock = shared.model.area.device.clock;
        let probe = shared.instruments.probes[lp].clone();
        Self { pe: lp % shared.npes, lp, probe, coop, clock, shared }
    }

    /// Count one completed op ([`Instruments::progress`]) and serve a
    /// `SlowPe` delay by advancing virtual time.
    fn progress(&self) {
        if let Some(us) = self.shared.instruments.progress(&self.probe, self.pe) {
            self.coop.advance(SimTime::from_ns(us * 1000));
        }
    }

    /// Advance this LP's clock by a cycle count at the modeled clock.
    fn advance_cycles(&self, cycles: f64) {
        self.coop.advance(SimTime::from_ps(self.clock.cycles_f64_to_ps(cycles)));
    }

    /// Append a trace event from `start` to `end` (now, when `None`) to
    /// this LP's lane; a no-op unless tracing is enabled.
    fn trace(&self, kind: TraceKind, start: SimTime, end: Option<SimTime>, peer: usize, bytes: u64) {
        if let Some(sink) = &self.shared.instruments.trace {
            let end = end.unwrap_or_else(|| self.coop.now());
            sink.record_lane(self.lp, TraceEvent { pe: self.pe, kind, start, end, peer, bytes });
        }
    }

    /// Effective modeled queue depth: the configured cap, tightened by
    /// any active `ClampQueueDepth` fault.
    fn effective_cap(&self) -> Option<usize> {
        let clamp = self.shared.instruments.faults.as_ref().and_then(|f| f.clamp_queue_depth());
        match (self.shared.queue_cap, clamp) {
            (Some(b), Some(c)) => Some(b.min(c)),
            (Some(b), None) => Some(b),
            (None, c) => c,
        }
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
                let mut q = self.shared.qstate.lock();
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

    /// Release a slot of `lp`'s modeled queue `queue` — a packet was
    /// received, or lost in flight — and grant one credit to a parked
    /// sender, if any.
    fn release_slot_of(&self, lp: usize, queue: usize) {
        let woken = {
            let mut q = self.shared.qstate.lock();
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

    fn my_chip(&self) -> usize {
        self.shared.chip_of_pe(self.pe)
    }

    fn my_tile(&self) -> usize {
        self.shared.tile_of(self.pe)
    }

    fn sim_arena(&self, off: usize) -> MemRef {
        let hint = self
            .shared
            .homing_overrides
            .lock()
            .iter()
            .find(|(s, e, _)| (*s..*e).contains(&off))
            .map(|(_, _, h)| *h);
        // A hint names a PE; each chip's memory system knows only its
        // own `pes_per_chip` tiles, so the id is reduced here, the one
        // place it is read.
        let homing = match hint {
            Some(Homing::Local(pe)) => Homing::Local(self.shared.tile_of(pe)),
            Some(Homing::Remote(pe)) => Homing::Remote(self.shared.tile_of(pe)),
            Some(Homing::HashForHome) | None => Homing::HashForHome,
        };
        MemRef::new(SIM_ARENA_BASE + off as u64, homing)
    }

    fn sim_priv(&self, off: usize) -> MemRef {
        MemRef::new(
            SIM_PRIV_BASE + self.pe as u64 * SIM_REGION_SPAN + off as u64,
            Homing::Local(self.my_tile()),
        )
    }

    fn sim_scratch(&self, key: usize, len: usize) -> MemRef {
        let off = (key as u64) % (SCRATCH_WRAP.saturating_sub(len as u64).max(1));
        MemRef::new(
            SIM_SCRATCH_BASE + self.pe as u64 * SIM_REGION_SPAN + off,
            Homing::Local(self.my_tile()),
        )
    }

    /// One cross-chip link occupancy: draws the next fault-plane frame
    /// fault, runs the transfer through the integrity layer, and traces
    /// it as a [`TraceKind::Link`] event (far chip in `peer`). Returns
    /// `None` when the frame was dropped in flight — the caller decides
    /// what "nothing arrived" means for its operation.
    fn link_checked(&self, from: usize, to: usize, now: SimTime, bytes: usize) -> Option<SimTime> {
        let fault = self.shared.instruments.faults.as_ref().and_then(|f| f.link_fault());
        let arrival = self
            .coop
            .with_global(|| self.shared.link_transfer_checked(from, to, now, bytes, fault));
        self.trace(TraceKind::Link, now, Some(arrival.unwrap_or(now)), to, bytes as u64);
        arrival
    }

    /// Cost a data movement between two (possibly cross-chip) simulated
    /// regions; advances this LP's clock to completion.
    fn charge_move(&self, dst_chip: usize, dst: MemRef, src_chip: usize, src: MemRef, len: usize) {
        if len == 0 {
            return;
        }
        let t0 = self.coop.now();
        self.advance_cycles(OP_OVERHEAD_CYCLES);
        let now = self.coop.now();
        let done = if dst_chip == src_chip {
            // Both ends on one chip: a plain on-chip copy (charged to
            // that chip; a remote chip's proxy tile does the work when
            // it isn't ours).
            let tile = if dst_chip == self.my_chip() { self.my_tile() } else { 0 };
            self.coop.with_global(|| {
                self.shared.mems[dst_chip].lock().copy(tile, dst, src, len as u64, now)
            })
        } else {
            // mPIPE egress/ingress DMA directly from/to memory at wire
            // speed (that is mPIPE's selling point), so the link is the
            // bottleneck: a descriptor-setup charge, the serialization
            // occupancy, and DMA delivery that installs the lines into
            // the far chip's DDC for free. An injected frame drop still
            // spends the wire time; the loss surfaces at the next
            // frame's sequence check (or as a receiver wedge).
            let setup = SimTime::from_ps(2 * self.shared.link_timings.frame_overhead_ps);
            let arrive = self
                .link_checked(src_chip, dst_chip, now + setup, len)
                .unwrap_or(now + setup);
            self.coop.with_global(|| {
                self.shared.mems[dst_chip].lock().install_region(dst.addr, len as u64)
            });
            arrive
        };
        self.coop.advance_to(done);
        self.trace(TraceKind::Copy, t0, None, usize::MAX, len as u64);
    }

    /// Atomic on a (possibly remote-chip) word: local cost, or an mPIPE
    /// round trip for cross-chip targets.
    fn charge_atomic(&self, off: usize) {
        let chip = self.shared.chip_of_offset(off);
        if chip == self.my_chip() {
            self.advance_cycles(RMW_CYCLES);
        } else {
            let now = self.coop.now();
            let there = self.link_checked(self.my_chip(), chip, now, 16).unwrap_or(now);
            let back = self.link_checked(chip, self.my_chip(), there, 16).unwrap_or(there);
            self.coop.advance_to(back);
        }
    }

    /// Shared body of `udn_send`/`udn_try_send`: slot reservation (with
    /// credit-parked backpressure), fault-plane delay, software injection
    /// overhead, then the wire — on-chip wormhole latency within a chip,
    /// an mPIPE frame (through the integrity layer) across chips, priced
    /// after the overhead advances so link occupancy sees the right
    /// clock. Returns `false` if `blocking` is off and the destination
    /// queue is full.
    fn send_impl(&self, dest: usize, queue: usize, tag: u16, payload: &[u64], blocking: bool) -> bool {
        assert!(dest < self.shared.npes, "unknown destination PE {dest}");
        let dest_lp = if queue == Q_SERVICE { self.shared.npes + dest } else { dest };
        if !self.reserve_slot(dest_lp, queue, dest, blocking) {
            self.probe.spin();
            return false;
        }
        let t0 = self.coop.now();
        if let Some(us) = self.shared.instruments.faults.as_ref().and_then(|f| f.protocol_send_delay_us()) {
            self.coop.advance(SimTime::from_ns(us * 1000));
        }
        let model = &self.shared.model;
        self.coop.advance(SimTime::from_ps(model.sw_overhead_ps()));
        let (my_chip, dest_chip) = (self.my_chip(), self.shared.chip_of_pe(dest));
        let latency = if my_chip == dest_chip {
            Some(SimTime::from_ps(model.one_way_ps(self.my_tile(), self.shared.tile_of(dest), payload.len() + 1)))
        } else {
            // Tunneled over mPIPE: occupy the link for the (small)
            // control frame and deliver at its arrival.
            let now = self.coop.now();
            self.link_checked(my_chip, dest_chip, now, (payload.len() + 1) * 8)
                .map(|arrival| arrival.saturating_sub(now))
        };
        match latency {
            Some(latency) => {
                self.coop.send(dest_lp, queue, ProtoMsg { src: self.pe, tag, payload: payload.into() }, latency);
            }
            // The frame was lost in flight (an injected link fault):
            // nothing arrives, so give the reserved slot back — the
            // wedge this causes is the *receiver's* missing message,
            // which the watchdog attributes, not a phantom full queue.
            None => self.release_slot_of(dest_lp, queue),
        }
        let bytes = ((payload.len() + 1) * model.area.device.word_bytes) as u64;
        self.trace(TraceKind::UdnSend, t0, None, dest, bytes);
        self.progress();
        true
    }
}

impl Fabric for TimedFabric {
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
        self.shared.model.area.device
    }

    fn udn_send(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]) {
        self.send_impl(dest, queue, tag, payload, true);
    }

    fn udn_try_send(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]) -> bool {
        self.send_impl(dest, queue, tag, payload, false)
    }

    fn udn_recv(&self, queue: usize) -> ProtoMsg {
        let t0 = self.coop.now();
        self.probe.set_blocked(BlockedOn::Recv { queue });
        let msg = self.coop.recv(queue);
        self.probe.set_blocked(BlockedOn::Running);
        self.release_slot_of(self.lp, queue);
        self.trace(TraceKind::Wait, t0, None, usize::MAX, 0);
        self.progress();
        msg
    }

    fn udn_try_recv(&self, queue: usize) -> Option<ProtoMsg> {
        let got = self.coop.try_recv(queue);
        if got.is_some() {
            self.release_slot_of(self.lp, queue);
            self.progress();
        }
        got
    }

    fn arena_copy(&self, dst: usize, src: usize, len: usize) {
        self.shared.arena.copy_within(dst, src, len);
        self.charge_move(
            self.shared.chip_of_offset(dst),
            self.sim_arena(dst),
            self.shared.chip_of_offset(src),
            self.sim_arena(src),
            len,
        );
        self.progress();
    }

    fn arena_write(&self, dst: usize, src: &[u8]) {
        self.shared.arena.write_bytes(dst, src);
        self.charge_move(
            self.shared.chip_of_offset(dst),
            self.sim_arena(dst),
            self.my_chip(),
            self.sim_scratch(dst, src.len()),
            src.len(),
        );
        self.progress();
    }

    fn arena_read(&self, src: usize, dst: &mut [u8]) {
        self.shared.arena.read_bytes(src, dst);
        self.charge_move(
            self.my_chip(),
            self.sim_scratch(src, dst.len()),
            self.shared.chip_of_offset(src),
            self.sim_arena(src),
            dst.len(),
        );
        self.progress();
    }

    fn arena_read_u64(&self, off: usize) -> u64 {
        self.advance_cycles(FLAG_RW_CYCLES);
        self.shared
            .arena
            .atomic_u64(off)
            .load(std::sync::atomic::Ordering::Acquire)
    }

    fn arena_read_u32(&self, off: usize) -> u32 {
        self.advance_cycles(FLAG_RW_CYCLES);
        self.shared
            .arena
            .atomic_u32(off)
            .load(std::sync::atomic::Ordering::Acquire)
    }

    fn arena_write_u64(&self, off: usize, v: u64) {
        let chip = self.shared.chip_of_offset(off);
        if chip == self.my_chip() {
            self.advance_cycles(FLAG_RW_CYCLES);
        } else {
            // A remote-chip flag write is a small mPIPE message. A
            // dropped frame costs nothing extra here; the loss surfaces
            // at the link's next sequence check.
            let now = self.coop.now();
            let arrival = self.link_checked(self.my_chip(), chip, now, 16).unwrap_or(now);
            self.coop.advance_to(arrival);
        }
        self.shared
            .arena
            .atomic_u64(off)
            .store(v, std::sync::atomic::Ordering::Release);
        // A flag store is useful work; atomic loads stay uncounted.
        self.progress();
    }

    fn arena_rmw(&self, off: usize, op: RmwOp, operand: u64, width: RmwWidth) -> u64 {
        self.charge_atomic(off);
        self.progress();
        // Only one LP runs at a time, so sequenced RMW through the
        // shared arena is atomic by construction; the atomics keep the
        // native types shared.
        self.coop
            .with_global(|| fabric::rmw(&self.shared.arena, off, op, operand, width))
    }

    fn arena_cswap(&self, off: usize, cond: u64, new: u64, width: RmwWidth) -> u64 {
        self.charge_atomic(off);
        let old = self
            .coop
            .with_global(|| fabric::cswap(&self.shared.arena, off, cond, new, width));
        // Same useful-vs-spin split as the wall fabric.
        if old == cond {
            self.progress();
        } else {
            self.probe.spin();
        }
        old
    }

    fn private_write(&self, off: usize, src: &[u8]) {
        self.shared.privates[self.pe].write_bytes(off, src);
        let c = self.my_chip();
        self.charge_move(c, self.sim_priv(off), c, self.sim_scratch(off, src.len()), src.len());
        self.progress();
    }

    fn private_read(&self, off: usize, dst: &mut [u8]) {
        self.shared.privates[self.pe].read_bytes(off, dst);
        let c = self.my_chip();
        self.charge_move(c, self.sim_scratch(off, dst.len()), c, self.sim_priv(off), dst.len());
        self.progress();
    }

    fn private_to_arena(&self, arena_dst: usize, priv_src: usize, len: usize) {
        CommonMemory::copy_between(
            &self.shared.arena,
            arena_dst,
            &self.shared.privates[self.pe],
            priv_src,
            len,
        );
        self.charge_move(
            self.shared.chip_of_offset(arena_dst),
            self.sim_arena(arena_dst),
            self.my_chip(),
            self.sim_priv(priv_src),
            len,
        );
        self.progress();
    }

    fn arena_to_private(&self, priv_dst: usize, arena_src: usize, len: usize) {
        CommonMemory::copy_between(
            &self.shared.privates[self.pe],
            priv_dst,
            &self.shared.arena,
            arena_src,
            len,
        );
        self.charge_move(
            self.my_chip(),
            self.sim_priv(priv_dst),
            self.shared.chip_of_offset(arena_src),
            self.sim_arena(arena_src),
            len,
        );
        self.progress();
    }

    fn arena_raw(&self, off: usize, len: usize) -> *mut u8 {
        self.shared.arena.raw(off, len)
    }

    fn private_raw(&self, off: usize, len: usize) -> *mut u8 {
        self.shared.privates[self.pe].raw(off, len)
    }

    fn tmc_spin_barrier(&self, set: (usize, u32, usize)) {
        assert!(
            self.shared.chips == 1,
            "the TMC spin barrier is a single-chip hardware primitive; \
             multi-chip jobs must use the ring barrier (BarrierAlgo::Ring)"
        );
        // Model: everyone announces arrival to the set's start PE with
        // zero wire cost; the release is timed so all participants leave
        // at max(arrivals) + the calibrated Figure 5 spin latency.
        // Tokens ride the dedicated CH_SPIN coop channel so they can
        // never interleave with protocol traffic on Q_BARRIER.
        const TAG_SPIN: u16 = 0x5B;
        let (start, log2_stride, size) = set;
        let stride = 1usize << log2_stride;
        let device = self.shared.model.area.device;
        let spin = SimTime::from_ps(device.timings.barrier.spin_ps(size));
        let me = self.pe;
        if size == 1 {
            self.coop.advance(spin);
            self.progress();
            return;
        }
        if me == start {
            self.probe.set_blocked(BlockedOn::Recv { queue: crate::fabric::Q_BARRIER });
            for _ in 1..size {
                let m = self.coop.recv(CH_SPIN);
                debug_assert_eq!(m.tag, TAG_SPIN);
            }
            self.probe.set_blocked(BlockedOn::Running);
            let release = self.coop.now() + spin;
            for r in 1..size {
                let dest = start + r * stride;
                let latency = release.saturating_sub(self.coop.now());
                self.coop.send(
                    dest,
                    CH_SPIN,
                    ProtoMsg { src: me, tag: TAG_SPIN, payload: PayloadVec::new() },
                    latency,
                );
            }
            self.coop.advance_to(release);
        } else {
            self.coop.send(
                start,
                CH_SPIN,
                ProtoMsg { src: me, tag: TAG_SPIN, payload: PayloadVec::new() },
                SimTime::ZERO,
            );
            self.probe.set_blocked(BlockedOn::Recv { queue: crate::fabric::Q_BARRIER });
            let m = self.coop.recv(CH_SPIN);
            debug_assert_eq!(m.tag, TAG_SPIN);
            self.probe.set_blocked(BlockedOn::Running);
        }
        self.progress();
    }

    fn set_region_homing(&self, global_off: usize, len: usize, homing: Homing) {
        let mut o = self.shared.homing_overrides.lock();
        o.retain(|(s, _, _)| *s != global_off);
        o.push((global_off, global_off + len, homing));
    }

    fn clear_region_homing(&self, global_off: usize) {
        self.shared
            .homing_overrides
            .lock()
            .retain(|(s, _, _)| *s != global_off);
    }

    fn quiet(&self) {
        tmc::fence::mem_fence();
        self.advance_cycles(QUIET_CYCLES);
    }

    /// One poll-backoff step of a waiting loop, with the virtual-time
    /// livelock guard: under virtual time every poller stays runnable
    /// (each poll advances its clock), so a livelock would spin real
    /// CPU forever without the desim deadlock detector ever firing.
    /// Bound each wait instead: panicking beats hanging the runner.
    fn wait_pause(&self, attempt: u32) {
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

    fn compute(&self, cycles: f64) {
        let t0 = self.coop.now();
        self.advance_cycles(cycles);
        self.trace(TraceKind::Compute, t0, None, usize::MAX, 0);
    }

    fn now_ns(&self) -> f64 {
        self.coop.now().ns_f64()
    }

    fn inject_delay_us(&self, micros: u64) {
        self.coop.advance(SimTime::from_ns(micros * 1000));
    }

    fn probe(&self) -> Option<&PeProbe> {
        Some(&self.probe)
    }

    fn faults(&self) -> Option<&LaunchFaults> {
        self.shared.instruments.faults.as_deref()
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
    let watch = TimedWatch::new(shared.clone());
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
    let trace = shared.instruments.trace.as_ref().map(|s| s.take());
    EngineOutcome { values, clocks, makespan, trace, threads_spawned: 0, handoffs: out.handoffs }
}

/// The timed engine: the same protocol code under the virtual-time
/// cooperative scheduler with calibrated single-chip Tilera costs —
/// [`MultiChipBackend`] with one chip.
pub struct TimedBackend;

impl EngineBackend for TimedBackend {
    fn name(&self) -> &'static str {
        "timed"
    }

    fn execute<R, F>(
        &self,
        cfg: &RuntimeConfig,
        faults: Option<&Arc<LaunchFaults>>,
        _watch: Option<&JobWatch>,
        f: F,
    ) -> EngineOutcome<R>
    where
        R: Send,
        F: Fn(&ShmemCtx) -> R + Send + Sync,
    {
        MultiChipBackend { chips: 1 }.execute(cfg, faults, None, f)
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

    fn execute<R, F>(
        &self,
        cfg: &RuntimeConfig,
        faults: Option<&Arc<LaunchFaults>>,
        _watch: Option<&JobWatch>,
        f: F,
    ) -> EngineOutcome<R>
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
        let sink = shared.instruments.trace.clone().expect("a traced launch has a sink");
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
