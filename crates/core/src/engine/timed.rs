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
//! The tracked UDN queue model (credit-parked backpressure), per-LP
//! probes, trace plumbing, and the virtual-time livelock guard live in
//! [`super::backend`]'s [`CoopCore`]/[`CoopLp`] — this module supplies
//! only the wire and memory cost model. Every cross-chip transfer
//! additionally passes the mPIPE frame-integrity layer
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

use super::backend::{CoopCore, CoopLp};
use crate::fabric::{self, BlockedOn, Fabric, PeProbe, ProtoMsg, RmwOp, RmwWidth};
use crate::fault::LaunchFaults;
use crate::runtime::RuntimeConfig;
use crate::trace::{TraceEvent, TraceKind, TraceSink};

pub use super::backend::{CH_CREDIT, CH_SPIN, TIMED_CHANNELS};

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
    /// The observability core shared with the drained-queue observer:
    /// probes, trace sink, and the modeled UDN queue state (see
    /// [`CoopCore`]); `core.chips > 1` adds the chip map to stall
    /// reports.
    pub core: Arc<CoopCore>,
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
            core: CoopCore::new(npes, chips, trace, cfg.udn_queue_packets, faults),
        })
    }

    // The chip/tile maps short-circuit at one chip: every op of every
    // paper figure crosses them, and there the answer needs no division.

    fn chip_of_pe(&self, pe: usize) -> usize {
        self.core.chip_of(pe).unwrap_or(0)
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
    lp: CoopLp,
}

impl TimedFabric {
    /// Fabric for LP `lp_id` of a `2 * npes`-LP cooperative run: LPs
    /// `0..npes` are PEs, `npes..2*npes` their service contexts.
    pub fn for_lp(shared: Arc<TimedShared>, lp_id: usize, coop: CoopHandle<ProtoMsg>) -> Self {
        let clock = shared.model.area.device.clock;
        let lp = CoopLp::new(shared.core.clone(), lp_id, coop, clock);
        Self { shared, lp }
    }

    fn pe_id(&self) -> usize {
        self.lp.pe
    }

    fn my_chip(&self) -> usize {
        self.shared.chip_of_pe(self.pe_id())
    }

    fn my_tile(&self) -> usize {
        self.shared.tile_of(self.pe_id())
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
            SIM_PRIV_BASE + self.pe_id() as u64 * SIM_REGION_SPAN + off as u64,
            Homing::Local(self.my_tile()),
        )
    }

    fn sim_scratch(&self, key: usize, len: usize) -> MemRef {
        let off = (key as u64) % (SCRATCH_WRAP.saturating_sub(len as u64).max(1));
        MemRef::new(
            SIM_SCRATCH_BASE + self.pe_id() as u64 * SIM_REGION_SPAN + off,
            Homing::Local(self.my_tile()),
        )
    }

    /// One cross-chip link occupancy: draws the next fault-plane frame
    /// fault, runs the transfer through the integrity layer, and traces
    /// it as a [`TraceKind::Link`] event (far chip in `peer`). Returns
    /// `None` when the frame was dropped in flight — the caller decides
    /// what "nothing arrived" means for its operation.
    fn link_checked(&self, from: usize, to: usize, now: SimTime, bytes: usize) -> Option<SimTime> {
        let fault = self.shared.core.faults.as_ref().and_then(|f| f.link_fault());
        let arrival = self
            .lp
            .coop
            .with_global(|| self.shared.link_transfer_checked(from, to, now, bytes, fault));
        if let Some(sink) = &self.shared.core.trace {
            sink.record_lane(
                self.lp.lp,
                TraceEvent {
                    pe: self.pe_id(),
                    kind: TraceKind::Link,
                    start: now,
                    end: arrival.unwrap_or(now),
                    peer: to,
                    bytes: bytes as u64,
                },
            );
        }
        arrival
    }

    /// Cost a data movement between two (possibly cross-chip) simulated
    /// regions; advances this LP's clock to completion.
    fn charge_move(&self, dst_chip: usize, dst: MemRef, src_chip: usize, src: MemRef, len: usize) {
        if len == 0 {
            return;
        }
        let t0 = self.lp.coop.now();
        self.lp.advance_cycles(OP_OVERHEAD_CYCLES);
        let now = self.lp.coop.now();
        let done = if dst_chip == src_chip {
            // Both ends on one chip: a plain on-chip copy (charged to
            // that chip; a remote chip's proxy tile does the work when
            // it isn't ours).
            let tile = if dst_chip == self.my_chip() { self.my_tile() } else { 0 };
            self.lp.coop.with_global(|| {
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
            self.lp.coop.with_global(|| {
                self.shared.mems[dst_chip].lock().install_region(dst.addr, len as u64)
            });
            arrive
        };
        self.lp.coop.advance_to(done);
        self.lp.trace(TraceKind::Copy, t0, usize::MAX, len as u64);
    }

    /// Atomic on a (possibly remote-chip) word: local cost, or an mPIPE
    /// round trip for cross-chip targets.
    fn charge_atomic(&self, off: usize) {
        let chip = self.shared.chip_of_offset(off);
        if chip == self.my_chip() {
            self.lp.advance_cycles(RMW_CYCLES);
        } else {
            let now = self.lp.coop.now();
            let there = self.link_checked(self.my_chip(), chip, now, 16).unwrap_or(now);
            let back = self.link_checked(chip, self.my_chip(), there, 16).unwrap_or(there);
            self.lp.coop.advance_to(back);
        }
    }

    /// Shared body of `udn_send`/`udn_try_send`: the tracked send with
    /// this engine's wire model — on-chip wormhole latency within a
    /// chip, an mPIPE frame (through the integrity layer) across chips.
    fn send_impl(&self, dest: usize, queue: usize, tag: u16, payload: &[u64], blocking: bool) -> bool {
        assert!(dest < self.shared.npes, "unknown destination PE {dest}");
        let bytes = ((payload.len() + 1) * self.shared.model.area.device.word_bytes) as u64;
        let (my_chip, dest_chip) = (self.my_chip(), self.shared.chip_of_pe(dest));
        self.lp.send_tracked(
            dest,
            queue,
            tag,
            payload,
            blocking,
            self.shared.model.sw_overhead_ps(),
            (TraceKind::UdnSend, bytes),
            || {
                if my_chip == dest_chip {
                    Some(SimTime::from_ps(self.shared.model.one_way_ps(
                        self.my_tile(),
                        self.shared.tile_of(dest),
                        payload.len() + 1,
                    )))
                } else {
                    // Tunneled over mPIPE: occupy the link for the
                    // (small) control frame and deliver at its arrival.
                    // A dropped frame delivers nothing — the receiver's
                    // wedge is the watchdog's to diagnose.
                    let now = self.lp.coop.now();
                    self.link_checked(my_chip, dest_chip, now, (payload.len() + 1) * 8)
                        .map(|arrival| arrival.saturating_sub(now))
                }
            },
        )
    }
}

impl Fabric for TimedFabric {
    fn pe(&self) -> usize {
        self.pe_id()
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
        self.lp.recv_tracked(queue)
    }

    fn udn_try_recv(&self, queue: usize) -> Option<ProtoMsg> {
        self.lp.try_recv_tracked(queue)
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
        self.lp.progress();
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
        self.lp.progress();
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
        self.lp.progress();
    }

    fn arena_read_u64(&self, off: usize) -> u64 {
        self.lp.advance_cycles(FLAG_RW_CYCLES);
        self.shared
            .arena
            .atomic_u64(off)
            .load(std::sync::atomic::Ordering::Acquire)
    }

    fn arena_read_u32(&self, off: usize) -> u32 {
        self.lp.advance_cycles(FLAG_RW_CYCLES);
        self.shared
            .arena
            .atomic_u32(off)
            .load(std::sync::atomic::Ordering::Acquire)
    }

    fn arena_write_u64(&self, off: usize, v: u64) {
        let chip = self.shared.chip_of_offset(off);
        if chip == self.my_chip() {
            self.lp.advance_cycles(FLAG_RW_CYCLES);
        } else {
            // A remote-chip flag write is a small mPIPE message. A
            // dropped frame costs nothing extra here; the loss surfaces
            // at the link's next sequence check.
            let now = self.lp.coop.now();
            let arrival = self.link_checked(self.my_chip(), chip, now, 16).unwrap_or(now);
            self.lp.coop.advance_to(arrival);
        }
        self.shared
            .arena
            .atomic_u64(off)
            .store(v, std::sync::atomic::Ordering::Release);
        // A flag store is useful work; atomic loads stay uncounted.
        self.lp.progress();
    }

    fn arena_rmw(&self, off: usize, op: RmwOp, operand: u64, width: RmwWidth) -> u64 {
        self.charge_atomic(off);
        self.lp.progress();
        // Only one LP runs at a time, so sequenced RMW through the
        // shared arena is atomic by construction; the atomics keep the
        // native types shared.
        self.lp
            .coop
            .with_global(|| fabric::rmw(&self.shared.arena, off, op, operand, width))
    }

    fn arena_cswap(&self, off: usize, cond: u64, new: u64, width: RmwWidth) -> u64 {
        self.charge_atomic(off);
        let old = self
            .lp
            .coop
            .with_global(|| fabric::cswap(&self.shared.arena, off, cond, new, width));
        // Same useful-vs-spin split as the wall fabric.
        if old == cond {
            self.lp.progress();
        } else {
            self.lp.probe.spin();
        }
        old
    }

    fn private_write(&self, off: usize, src: &[u8]) {
        self.shared.privates[self.pe_id()].write_bytes(off, src);
        let c = self.my_chip();
        self.charge_move(c, self.sim_priv(off), c, self.sim_scratch(off, src.len()), src.len());
        self.lp.progress();
    }

    fn private_read(&self, off: usize, dst: &mut [u8]) {
        self.shared.privates[self.pe_id()].read_bytes(off, dst);
        let c = self.my_chip();
        self.charge_move(c, self.sim_scratch(off, dst.len()), c, self.sim_priv(off), dst.len());
        self.lp.progress();
    }

    fn private_to_arena(&self, arena_dst: usize, priv_src: usize, len: usize) {
        CommonMemory::copy_between(
            &self.shared.arena,
            arena_dst,
            &self.shared.privates[self.pe_id()],
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
        self.lp.progress();
    }

    fn arena_to_private(&self, priv_dst: usize, arena_src: usize, len: usize) {
        CommonMemory::copy_between(
            &self.shared.privates[self.pe_id()],
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
        self.lp.progress();
    }

    fn arena_raw(&self, off: usize, len: usize) -> *mut u8 {
        self.shared.arena.raw(off, len)
    }

    fn private_raw(&self, off: usize, len: usize) -> *mut u8 {
        self.shared.privates[self.pe_id()].raw(off, len)
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
        let me = self.pe_id();
        if size == 1 {
            self.lp.coop.advance(spin);
            self.lp.progress();
            return;
        }
        if me == start {
            self.lp.probe.set_blocked(BlockedOn::Recv { queue: crate::fabric::Q_BARRIER });
            for _ in 1..size {
                let m = self.lp.coop.recv(CH_SPIN);
                debug_assert_eq!(m.tag, TAG_SPIN);
            }
            self.lp.probe.set_blocked(BlockedOn::Running);
            let release = self.lp.coop.now() + spin;
            for r in 1..size {
                let dest = start + r * stride;
                let latency = release.saturating_sub(self.lp.coop.now());
                self.lp.coop.send(
                    dest,
                    CH_SPIN,
                    ProtoMsg { src: me, tag: TAG_SPIN, payload: PayloadVec::new() },
                    latency,
                );
            }
            self.lp.coop.advance_to(release);
        } else {
            self.lp.coop.send(
                start,
                CH_SPIN,
                ProtoMsg { src: me, tag: TAG_SPIN, payload: PayloadVec::new() },
                SimTime::ZERO,
            );
            self.lp.probe.set_blocked(BlockedOn::Recv { queue: crate::fabric::Q_BARRIER });
            let m = self.lp.coop.recv(CH_SPIN);
            debug_assert_eq!(m.tag, TAG_SPIN);
            self.lp.probe.set_blocked(BlockedOn::Running);
        }
        self.lp.progress();
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
        self.lp.advance_cycles(QUIET_CYCLES);
    }

    fn wait_pause(&self, attempt: u32) {
        self.lp.wait_pause(attempt);
    }

    fn compute(&self, cycles: f64) {
        let t0 = self.lp.coop.now();
        self.lp.advance_cycles(cycles);
        self.lp.trace(TraceKind::Compute, t0, usize::MAX, 0);
    }

    fn now_ns(&self) -> f64 {
        self.lp.coop.now().ns_f64()
    }

    fn inject_delay_us(&self, micros: u64) {
        self.lp.coop.advance(SimTime::from_ns(micros * 1000));
    }

    fn probe(&self) -> Option<&PeProbe> {
        Some(&self.lp.probe)
    }

    fn faults(&self) -> Option<&LaunchFaults> {
        self.shared.core.faults.as_deref()
    }
}
