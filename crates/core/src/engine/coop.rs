//! The cooperative M:N engine: N PEs (up to 1024) multiplexed over M
//! worker threads, wall-clock time.
//!
//! The native engine pins one OS thread per PE, which caps realistic
//! runs at roughly the host's core count. This backend keeps the native
//! data plane — real shared memory, real UDN channels, real wall time —
//! but admits at most one *running* context per worker through a FIFO
//! admission gate, so a 1024-PE job is M runnable threads plus N−M
//! parked ones instead of N busy-spinning threads thrashing the
//! scheduler.
//!
//! Scheduling contract (DESIGN.md §6):
//!
//! * Every context (PE main + interrupt-service) is still a real OS
//!   thread; worker `w = pe / ceil(npes / workers)` owns an admission
//!   [`Gate`], and a context may touch the fabric only while holding
//!   its worker's gate.
//! * A context **releases** its gate around every genuine wait — a
//!   parked receive, a blocking send into a full queue, an injected
//!   fault delay — so siblings of the same worker run meanwhile.
//! * A context **yields** its gate (release + requeue at the FIFO tail)
//!   from `wait_pause` whenever siblings are queued, so spin waits
//!   (flag polls, lock backoff, the TMC spin barrier) cannot starve the
//!   very context that would satisfy them.
//! * While queued for admission a context publishes
//!   [`BlockedOn::Descheduled`]: runnable, just not scheduled. The
//!   wall-clock watchdog must not treat that as a livelock symptom —
//!   see [`crate::watch`] and `JobWatch::oversubscription`.
//! * A context parked on a [`SyncCell`] is in no gate rotation at all;
//!   the notify that satisfies it queues it on its gate on its behalf,
//!   so it is woken exactly once, by its admission.
//!
//! The symmetric heap is sharded **per worker** ([`ShardedArena`]): one
//! arena allocation per worker covering its PEs' partitions, located by
//! pure offset arithmetic — no locks, no allocation on any access. The
//! trace sink likewise runs one lock-free lane per worker; the gate's
//! one-running-context-per-worker invariant is exactly the
//! single-writer guarantee each lane needs.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use cachesim::homing::Homing;
use substrate::sync::Mutex;
use tmc::common::CommonMemory;
use udn::fabric::UdnEndpoint;

use crate::ctx::ShmemCtx;
use crate::engine::backend::{EngineBackend, EngineOutcome, WatchPlane};
use crate::engine::native::FastClock;
use crate::fabric::{BlockedOn, Fabric, PeProbe, ProtoMsg, RmwOp, RmwWidth};
use crate::service::{service_loop, TAG_ABORT};
use crate::trace::{TraceEvent, TraceKind, TraceSink};
use crate::watch::WallShared;

/// FIFO admission gate: at most one holder at a time, waiters queued in
/// arrival order and admitted by direct handoff (the releaser picks the
/// next holder and unparks it; `held` never clears while waiters queue,
/// so barging is impossible and admission is starvation-free).
struct Gate {
    inner: Mutex<GateInner>,
    /// Queued-waiter count, readable without the lock: `wait_pause`
    /// polls it on every spin to decide whether to yield the gate.
    waiters: AtomicUsize,
}

struct GateInner {
    held: bool,
    queue: VecDeque<(usize, Thread)>,
}

impl Gate {
    fn new() -> Self {
        Self {
            inner: Mutex::new(GateInner {
                held: false,
                queue: VecDeque::new(),
            }),
            waiters: AtomicUsize::new(0),
        }
    }
}

/// The symmetric-heap arena, sharded per worker: worker `w`'s shard is
/// one contiguous allocation holding the partitions of PEs
/// `[w*block, min(npes, (w+1)*block))`. Global offsets locate their
/// shard by pure arithmetic — every single access stays inside one PE's
/// partition (the `ShmemCtx::go` contract), so only the explicit
/// arena-to-arena copy ever has to consider two shards.
pub struct ShardedArena {
    shards: Vec<Arc<CommonMemory>>,
    partition_bytes: usize,
    /// PEs per shard (the last shard may cover fewer).
    block: usize,
}

impl ShardedArena {
    fn new(npes: usize, workers: usize, block: usize, partition_bytes: usize) -> Self {
        let shards = (0..workers)
            .map(|w| {
                let pes = ((w + 1) * block).min(npes) - w * block;
                CommonMemory::new(pes * partition_bytes, Homing::HashForHome)
            })
            .collect();
        Self {
            shards,
            partition_bytes,
            block,
        }
    }

    /// Wrap a shard set checked out of an [`ArenaPool`] — the pool
    /// guarantees shapes match the launch geometry and that every shard
    /// was scrubbed of the previous tenant's bytes.
    ///
    /// [`ArenaPool`]: crate::server::ArenaPool
    fn from_shards(shards: Vec<Arc<CommonMemory>>, block: usize, partition_bytes: usize) -> Self {
        Self {
            shards,
            partition_bytes,
            block,
        }
    }

    /// `(shard index, shard-local offset)` of a global arena offset.
    #[inline]
    fn locate(&self, off: usize) -> (usize, usize) {
        let w = off / (self.block * self.partition_bytes);
        (w, off - w * self.block * self.partition_bytes)
    }

    #[inline]
    fn shard(&self, off: usize) -> (&CommonMemory, usize) {
        let (w, local) = self.locate(off);
        (&self.shards[w], local)
    }

    fn copy(&self, dst: usize, src: usize, len: usize) {
        if len == 0 {
            return;
        }
        let (dw, dlocal) = self.locate(dst);
        let (sw, slocal) = self.locate(src);
        if dw == sw {
            self.shards[dw].copy_within(dlocal, slocal, len);
        } else {
            CommonMemory::copy_between(&self.shards[dw], dlocal, &self.shards[sw], slocal, len);
        }
    }
}

/// One cache line of locality-collective state, indexed by (leader)
/// PE: word 0 counts arrivals, word 1 is the release epoch. Backs the
/// counter-cell pass of the shard-aligned collectives
/// (`Fabric::sync_cell_add` / `sync_cell_wait_change`); padded to a
/// line so neighboring leaders' cells never false-share. `waiters`
/// holds contexts parked in `sync_cell_wait_change` with their gate
/// released — `sync_cell_notify` moves them onto their worker's gate
/// FIFO, so the wake-up a waiter parks for *is* its gate grant: one
/// park and one wake per member per pass, and a released cluster never
/// stampedes the context that released it.
#[repr(align(64))]
pub struct SyncCell {
    pub words: [AtomicU64; 2],
    /// Parked waiters `(context id, thread)` per word — separate lists
    /// so the last-arrival notify aimed at the leader (word 0) does not
    /// requeue a cluster of members parked on the epoch (word 1).
    waiters: [Mutex<Vec<(usize, Thread)>>; 2],
}

impl Default for SyncCell {
    fn default() -> Self {
        Self {
            words: Default::default(),
            waiters: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
        }
    }
}

/// Shared, immutable state of one cooperative launch.
pub struct CoopShared {
    pub arena: ShardedArena,
    pub privates: Vec<Arc<CommonMemory>>,
    pub npes: usize,
    pub workers: usize,
    /// PEs per worker (`ceil(npes / workers)`).
    pub block: usize,
    /// Locality-barrier cells, one per PE (only leader PEs' cells are
    /// ever touched, but indexing by global PE keeps lookup trivial).
    pub sync_cells: Vec<SyncCell>,
    pub partition_bytes: usize,
    pub device: tile_arch::device::Device,
    pub start: FastClock,
    pub spin_barriers: Mutex<HashMap<(usize, u32, usize), Arc<CoopSpinBarrier>>>,
    pub aborted: AtomicBool,
    pub probes: Vec<Arc<PeProbe>>,
    pub service_probes: Vec<Arc<PeProbe>>,
    /// One lock-free lane per worker; the gate keeps each lane
    /// single-writer.
    pub trace: Option<Arc<TraceSink>>,
    pub waker: udn::fabric::UdnSender,
    gates: Vec<Gate>,
    /// Per-context direct-handoff flags, indexed by context id
    /// (`pe` for main contexts, `npes + pe` for service contexts).
    granted: Vec<AtomicBool>,
    /// Whether each context currently holds its gate — consulted by the
    /// panic-cleanup path, which must release only if the panic fired
    /// inside a gate-held region.
    holding: Vec<AtomicBool>,
}

impl CoopShared {
    /// The worker that owns context `ctx`. A PE's service context runs
    /// on the same worker as its main context.
    #[inline]
    fn worker_of(&self, ctx: usize) -> usize {
        (ctx % self.npes) / self.block
    }

    /// `true` while context `ctx` holds its worker's gate.
    pub fn is_holding(&self, ctx: usize) -> bool {
        self.holding[ctx].load(Ordering::Relaxed)
    }

    /// Whether PEs `a` and `b` are multiplexed on the same worker —
    /// they share an admission gate (so at most one of their contexts
    /// runs at a time) and one arena shard. Pure geometry: the block
    /// sharding assigns PE `p` to worker `p / block`.
    #[inline]
    pub fn co_resident(&self, a: usize, b: usize) -> bool {
        a / self.block == b / self.block
    }

    /// Acquire the worker gate for `ctx`, parking until admitted. While
    /// queued, `probe` (if any) publishes [`BlockedOn::Descheduled`];
    /// the prior blocked state is restored on admission.
    pub fn gate_acquire(&self, ctx: usize, probe: Option<&PeProbe>) {
        let g = &self.gates[self.worker_of(ctx)];
        {
            let mut inner = g.inner.lock();
            if !inner.held {
                inner.held = true;
                self.holding[ctx].store(true, Ordering::Relaxed);
                return;
            }
            inner.queue.push_back((ctx, std::thread::current()));
            g.waiters.fetch_add(1, Ordering::Relaxed);
        }
        let prior = probe.map(|p| {
            let b = p.blocked();
            p.set_blocked(BlockedOn::Descheduled);
            b
        });
        while !self.granted[ctx].swap(false, Ordering::Acquire) {
            std::thread::park();
        }
        self.holding[ctx].store(true, Ordering::Relaxed);
        if let (Some(p), Some(b)) = (probe, prior) {
            p.set_blocked(b);
        }
    }

    /// Release the worker gate held by `ctx`, handing it directly to the
    /// longest-queued waiter (if any). The Release store pairs with the
    /// waiter's Acquire swap, so everything the holder wrote — arena
    /// stores, trace-lane appends — is visible to the next holder.
    pub fn gate_release(&self, ctx: usize) {
        self.holding[ctx].store(false, Ordering::Relaxed);
        let g = &self.gates[self.worker_of(ctx)];
        let next = {
            let mut inner = g.inner.lock();
            match inner.queue.pop_front() {
                Some(n) => {
                    g.waiters.fetch_sub(1, Ordering::Relaxed);
                    Some(n)
                }
                None => {
                    inner.held = false;
                    None
                }
            }
        };
        if let Some((c, t)) = next {
            self.granted[c].store(true, Ordering::Release);
            t.unpark();
        }
    }

    /// Queue parked context `ctx` for admission on its worker's gate on
    /// its behalf (the notify half of a cell wait): it joins the FIFO
    /// tail exactly as if it had called [`Self::gate_acquire`] now, so
    /// admission order, one-holder exclusivity and the Release/Acquire
    /// handoff are the gate's own. From here on the context is runnable
    /// but unscheduled, which is what its probe must say.
    fn gate_requeue(&self, ctx: usize, thread: Thread) {
        let probes = if ctx < self.npes { &self.probes } else { &self.service_probes };
        probes[ctx % self.npes].set_blocked(BlockedOn::Descheduled);
        let g = &self.gates[self.worker_of(ctx)];
        {
            let mut inner = g.inner.lock();
            if inner.held {
                inner.queue.push_back((ctx, thread));
                g.waiters.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Only a notifier on another worker finds the gate free.
            inner.held = true;
        }
        self.granted[ctx].store(true, Ordering::Release);
        thread.unpark();
    }

    /// Queued siblings on `ctx`'s worker gate.
    #[inline]
    fn gate_waiters(&self, ctx: usize) -> usize {
        self.gates[self.worker_of(ctx)].waiters.load(Ordering::Relaxed)
    }

    /// Flag the job aborted and wake every context parked in a blocking
    /// protocol receive (same contract as the native engine). Contexts
    /// queued for gate admission need no wakeup: they are runnable and
    /// hit an abort check as soon as they are admitted.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        for tile in 0..self.npes {
            for q in 0..udn::packet::NUM_QUEUES {
                let _ = self.waker.try_send(tile, q, TAG_ABORT, &[]);
            }
        }
    }
}

impl WallShared for CoopShared {
    fn npes(&self) -> usize {
        self.npes
    }

    fn probes(&self) -> &[Arc<PeProbe>] {
        &self.probes
    }

    fn service_probes(&self) -> &[Arc<PeProbe>] {
        &self.service_probes
    }

    fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    fn abort_job(&self) {
        self.abort();
    }

    fn oversubscription(&self) -> usize {
        (2 * self.npes).div_ceil(self.workers.max(1))
    }
}

/// A sense-reversing counter barrier whose waiters poll through
/// [`Fabric::wait_pause`] — unlike [`tmc::barrier::SpinBarrier`], a
/// parked-out member yields its worker gate between polls, so the TMC
/// spin barrier stays selectable under M:N oversubscription.
pub struct CoopSpinBarrier {
    size: usize,
    count: AtomicUsize,
    sense: AtomicUsize,
}

impl CoopSpinBarrier {
    fn new(size: usize) -> Self {
        Self {
            size,
            count: AtomicUsize::new(0),
            sense: AtomicUsize::new(0),
        }
    }

    fn wait(&self, fab: &CoopFabric) {
        let s = self.sense.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.size {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(s.wrapping_add(1), Ordering::Release);
        } else {
            let mut attempt = 0u32;
            while self.sense.load(Ordering::Acquire) == s {
                fab.wait_pause(attempt);
                attempt = attempt.wrapping_add(1);
            }
        }
    }
}

/// Per-context cooperative fabric: the native data plane with gate
/// hooks around every genuine wait.
pub struct CoopFabric {
    pub(crate) shared: Arc<CoopShared>,
    pub(crate) pe: usize,
    /// Context id: `pe` for the main context, `npes + pe` for the
    /// interrupt-service context.
    ctx: usize,
    pub(crate) udn: UdnEndpoint,
    probe: Option<Arc<PeProbe>>,
    /// Trace lane = owning worker id (single-writer under the gate).
    lane: usize,
}

impl CoopFabric {
    /// A fabric for the PE's **main context**.
    pub fn new_probed(shared: Arc<CoopShared>, pe: usize, udn: UdnEndpoint) -> Self {
        let probe = Some(shared.probes[pe].clone());
        let lane = pe / shared.block;
        Self {
            shared,
            pe,
            ctx: pe,
            udn,
            probe,
            lane,
        }
    }

    /// A fabric for the PE's **interrupt-service context**.
    pub fn new_service(shared: Arc<CoopShared>, pe: usize, udn: UdnEndpoint) -> Self {
        let probe = Some(shared.service_probes[pe].clone());
        let lane = pe / shared.block;
        Self {
            ctx: shared.npes + pe,
            shared,
            pe,
            udn,
            probe,
            lane,
        }
    }

    /// This context's id (for gate bookkeeping in the launch scaffold).
    pub fn ctx_id(&self) -> usize {
        self.ctx
    }

    /// First admission at context start.
    pub fn gate_enter(&self) {
        self.shared.gate_acquire(self.ctx, self.probe.as_deref());
    }

    fn gate_release(&self) {
        self.shared.gate_release(self.ctx);
    }

    fn gate_reacquire(&self) {
        self.shared.gate_acquire(self.ctx, self.probe.as_deref());
    }

    /// Release + requeue at the FIFO tail: every queued sibling runs
    /// once before we hold the gate again.
    fn gate_yield(&self) {
        self.gate_release();
        self.gate_reacquire();
    }

    fn private(&self) -> &CommonMemory {
        &self.shared.privates[self.pe]
    }

    #[inline]
    fn progress(&self) {
        if let Some(p) = &self.probe {
            p.bump();
        }
        crate::fault::note_op();
        // The injected crash fires while holding the gate; the launch
        // scaffold's is_holding cleanup releases it, so worker siblings
        // keep running after the panicking tenant is torn down.
        if crate::fault::panic_pe_now(self.pe) {
            panic!("PE {}: injected PanicPe fault (crashing-tenant model)", self.pe);
        }
        if let Some(us) = crate::fault::slow_pe_delay_us(self.pe) {
            self.sleep_checking_abort(us);
        }
    }

    #[inline]
    fn spin_retry(&self) {
        if let Some(p) = &self.probe {
            p.spin();
        }
    }

    fn abort_check(&self) {
        if self.shared.aborted.load(Ordering::Acquire) {
            panic!("PE {}: aborting — another PE panicked", self.pe);
        }
    }

    /// Sleep `micros` µs with the gate **released** (siblings run
    /// meanwhile), checking the abort flag every chunk. A panic here
    /// fires while not holding, which the cleanup path must tolerate —
    /// see `CoopShared::is_holding`.
    fn sleep_checking_abort(&self, micros: u64) {
        self.gate_release();
        let mut left = std::time::Duration::from_micros(micros);
        while !left.is_zero() {
            let step = left.min(std::time::Duration::from_millis(50));
            std::thread::sleep(step);
            left -= step;
            self.abort_check();
        }
        self.gate_reacquire();
    }

    fn set_blocked(&self, state: BlockedOn) {
        if let Some(p) = &self.probe {
            p.set_blocked(state);
        }
    }

    fn trace(&self, kind: TraceKind, peer: usize, bytes: u64) {
        if let Some(sink) = &self.shared.trace {
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

    fn accept(&self, p: udn::packet::Packet) -> ProtoMsg {
        if p.header.tag == TAG_ABORT {
            panic!("PE {}: aborting — another PE panicked", self.pe);
        }
        self.progress();
        ProtoMsg {
            src: p.header.src as usize,
            tag: p.header.tag,
            payload: p.payload,
        }
    }
}

impl Fabric for CoopFabric {
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
        if let Some(us) = crate::fault::protocol_send_delay_us() {
            self.sleep_checking_abort(us);
        }
        if !self.udn.try_send(dest, queue, tag, payload) {
            // Full bounded queue: park in the blocking send with the
            // gate released — the consumer that must drain `dest` may
            // be a sibling of this very worker.
            self.set_blocked(BlockedOn::SendFull { dest, queue });
            self.gate_release();
            self.udn.send(dest, queue, tag, payload);
            self.gate_reacquire();
            self.set_blocked(BlockedOn::Running);
        }
        self.trace(TraceKind::UdnSend, dest, 8 * payload.len() as u64);
        self.progress();
    }

    fn udn_try_send(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]) -> bool {
        if let Some(depth) = crate::fault::clamp_queue_depth() {
            if self.udn.dest_queue_len(dest, queue) >= depth {
                return false;
            }
        }
        let sent = self.udn.try_send(dest, queue, tag, payload);
        if sent {
            if let Some(us) = crate::fault::protocol_send_delay_us() {
                self.sleep_checking_abort(us);
            }
            self.trace(TraceKind::UdnSend, dest, 8 * payload.len() as u64);
            self.progress();
        } else {
            self.spin_retry();
        }
        sent
    }

    fn udn_recv(&self, queue: usize) -> ProtoMsg {
        // Opportunistic poll while still holding the gate.
        for _ in 0..4 {
            if let Some(p) = self.udn.try_recv(queue) {
                return self.accept(p);
            }
            std::hint::spin_loop();
        }
        // Park with the gate released so worker siblings run; the
        // sender that will satisfy this receive may be queued on our
        // own gate.
        self.set_blocked(BlockedOn::Recv { queue });
        self.gate_release();
        let packet = loop {
            if let Some(p) = self.udn.recv_timeout(queue, std::time::Duration::from_millis(250)) {
                break p;
            }
            self.abort_check();
        };
        self.gate_reacquire();
        self.set_blocked(BlockedOn::Running);
        self.accept(packet)
    }

    fn udn_try_recv(&self, queue: usize) -> Option<ProtoMsg> {
        self.udn.try_recv(queue).map(|p| self.accept(p))
    }

    fn arena_copy(&self, dst: usize, src: usize, len: usize) {
        self.shared.arena.copy(dst, src, len);
        self.trace(TraceKind::Copy, usize::MAX, len as u64);
        self.progress();
    }

    fn arena_write(&self, dst: usize, src: &[u8]) {
        let (shard, local) = self.shared.arena.shard(dst);
        shard.write_bytes(local, src);
        self.trace(TraceKind::Copy, usize::MAX, src.len() as u64);
        self.progress();
    }

    fn arena_read(&self, src: usize, dst: &mut [u8]) {
        let (shard, local) = self.shared.arena.shard(src);
        shard.read_bytes(local, dst);
        self.trace(TraceKind::Copy, usize::MAX, dst.len() as u64);
        self.progress();
    }

    fn arena_read_u64(&self, off: usize) -> u64 {
        let (shard, local) = self.shared.arena.shard(off);
        shard.atomic_u64(local).load(Ordering::Acquire)
    }

    fn arena_read_u32(&self, off: usize) -> u32 {
        let (shard, local) = self.shared.arena.shard(off);
        shard.atomic_u32(local).load(Ordering::Acquire)
    }

    fn arena_write_u64(&self, off: usize, v: u64) {
        let (shard, local) = self.shared.arena.shard(off);
        shard.atomic_u64(local).store(v, Ordering::Release);
        self.progress();
    }

    fn arena_rmw(&self, off: usize, op: RmwOp, operand: u64, width: RmwWidth) -> u64 {
        self.trace(TraceKind::Atomic, usize::MAX, width.bytes() as u64);
        self.progress();
        let (shard, local) = self.shared.arena.shard(off);
        match width {
            RmwWidth::W64 => {
                let a = shard.atomic_u64(local);
                match op {
                    RmwOp::Add => a.fetch_add(operand, Ordering::AcqRel),
                    RmwOp::Swap => a.swap(operand, Ordering::AcqRel),
                    RmwOp::And => a.fetch_and(operand, Ordering::AcqRel),
                    RmwOp::Or => a.fetch_or(operand, Ordering::AcqRel),
                    RmwOp::Xor => a.fetch_xor(operand, Ordering::AcqRel),
                }
            }
            RmwWidth::W32 => {
                let a = shard.atomic_u32(local);
                let v = operand as u32;
                let old = match op {
                    RmwOp::Add => a.fetch_add(v, Ordering::AcqRel),
                    RmwOp::Swap => a.swap(v, Ordering::AcqRel),
                    RmwOp::And => a.fetch_and(v, Ordering::AcqRel),
                    RmwOp::Or => a.fetch_or(v, Ordering::AcqRel),
                    RmwOp::Xor => a.fetch_xor(v, Ordering::AcqRel),
                };
                old as u64
            }
        }
    }

    fn arena_cswap(&self, off: usize, cond: u64, new: u64, width: RmwWidth) -> u64 {
        let (shard, local) = self.shared.arena.shard(off);
        let (old, swapped) = match width {
            RmwWidth::W64 => match shard.atomic_u64(local).compare_exchange(
                cond,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(old) => (old, true),
                Err(old) => (old, false),
            },
            RmwWidth::W32 => match shard.atomic_u32(local).compare_exchange(
                cond as u32,
                new as u32,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(old) => (old as u64, true),
                Err(old) => (old as u64, false),
            },
        };
        if swapped {
            self.trace(TraceKind::Atomic, usize::MAX, width.bytes() as u64);
            self.progress();
        } else {
            self.spin_retry();
            // A failed cswap is a spin wait in disguise: callers retry in
            // a loop (lock claims, rank-ordered rings) that never blocks,
            // so without this it holds the admission gate forever and
            // starves the very sibling whose turn must come first — the
            // same contract `wait_pause` honors for flag polls.
            if self.shared.gate_waiters(self.ctx) > 0 {
                self.gate_yield();
            }
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
        let (shard, local) = self.shared.arena.shard(arena_dst);
        CommonMemory::copy_between(shard, local, self.private(), priv_src, len);
        self.trace(TraceKind::Copy, usize::MAX, len as u64);
        self.progress();
    }

    fn arena_to_private(&self, priv_dst: usize, arena_src: usize, len: usize) {
        let (shard, local) = self.shared.arena.shard(arena_src);
        CommonMemory::copy_between(self.private(), priv_dst, shard, local, len);
        self.trace(TraceKind::Copy, usize::MAX, len as u64);
        self.progress();
    }

    fn arena_raw(&self, off: usize, len: usize) -> *mut u8 {
        let (shard, local) = self.shared.arena.shard(off);
        shard.raw(local, len)
    }

    fn private_raw(&self, off: usize, len: usize) -> *mut u8 {
        self.private().raw(off, len)
    }

    fn co_resident(&self, pe: usize) -> bool {
        crate::fault::coop_locality() && self.shared.co_resident(self.pe, pe)
    }

    fn topology_block(&self) -> Option<usize> {
        crate::fault::coop_locality().then_some(self.shared.block)
    }

    fn udn_recv_local(&self, queue: usize) -> ProtoMsg {
        // The expected sender shares this worker: stay runnable and
        // yield the gate between polls instead of parking in the
        // channel condvar — FIFO admission runs the sibling (which
        // sends and satisfies this receive) within one gate rotation,
        // skipping a condvar park + unpark round trip per message.
        // Bounded and cheap: a wrong hint (sender fault-delayed, knob
        // flipped between launches) falls back to the parked receive
        // after a few gate rotations, so the hint costs at most bounded
        // spinning, never liveness. Under deep oversubscription every
        // runnable-but-waiting context lengthens the gate rotation the
        // real sender must ride, so the bound is deliberately small —
        // whole-cluster synchronization uses the counter cells instead
        // (`sync_cell_add`), not this hint.
        self.set_blocked(BlockedOn::Recv { queue });
        for attempt in 0..32u32 {
            if let Some(p) = self.udn.try_recv(queue) {
                self.set_blocked(BlockedOn::Running);
                return self.accept(p);
            }
            self.wait_pause(attempt);
        }
        self.set_blocked(BlockedOn::Running);
        self.udn_recv(queue)
    }

    fn sync_cell_add(&self, pe: usize, word: usize, delta: u64) -> u64 {
        // AcqRel: the add publishes this PE's pre-barrier writes
        // (Release) and, on the leader's consuming sub, carries every
        // member's release sequence forward (Acquire) — the cells form
        // the barrier's happens-before spine without the gate edge.
        let v = self.shared.sync_cells[pe].words[word].fetch_add(delta, Ordering::AcqRel);
        self.progress();
        v
    }

    fn sync_cell_load(&self, pe: usize, word: usize) -> u64 {
        self.shared.sync_cells[pe].words[word].load(Ordering::Acquire)
    }

    fn sync_cell_wait_change(&self, pe: usize, word: usize, old: u64) -> u64 {
        let cell = &self.shared.sync_cells[pe];
        loop {
            // One yield-free check, then park. Gate-yielding "just in
            // case" polls are a net loss here: a waiter that yields
            // re-enters the FIFO and must be scheduled again merely to
            // park, while the change it hopes to catch (all siblings
            // arriving plus the inter-leader exchange) is almost never
            // one rotation away.
            let cur = cell.words[word].load(Ordering::Acquire);
            if cur != old {
                return cur;
            }
            // Park with the gate released: a parked waiter costs its
            // worker nothing — it is in no gate rotation until a notify
            // requeues it.
            self.set_blocked(BlockedOn::CellWait { pe });
            self.gate_release();
            let listed = {
                let mut w = cell.waiters[word].lock();
                // Re-check under the list lock: a notifier changes the
                // word before it drains the list, so either we see the
                // change here or it sees us there.
                let unchanged = cell.words[word].load(Ordering::Acquire) == old;
                if unchanged {
                    w.push((self.ctx, std::thread::current()));
                }
                unchanged
            };
            if !listed {
                self.gate_reacquire();
                self.set_blocked(BlockedOn::Running);
                continue;
            }
            // The notifier queues us on our gate, so the wake-up we
            // park for is the grant itself (same handoff flag as
            // `gate_acquire`). The timeout only bounds abort latency.
            while !self.shared.granted[self.ctx].swap(false, Ordering::Acquire) {
                std::thread::park_timeout(std::time::Duration::from_millis(250));
                if self.shared.aborted.load(Ordering::Acquire) {
                    let mut w = cell.waiters[word].lock();
                    if let Some(i) = w.iter().position(|(c, _)| *c == self.ctx) {
                        // Still listed: no notifier has seen us, so no
                        // gate will ever be granted to this context.
                        w.remove(i);
                        drop(w);
                        self.abort_check();
                    }
                    // Otherwise a notifier already owns our entry: keep
                    // waiting for the grant it queues and abort once
                    // admitted, so the gate is never handed to a dead
                    // context.
                }
            }
            self.shared.holding[self.ctx].store(true, Ordering::Relaxed);
            self.set_blocked(BlockedOn::Running);
            self.abort_check();
        }
    }

    fn sync_cell_notify(&self, pe: usize, word: usize) {
        let mut w = self.shared.sync_cells[pe].waiters[word].lock();
        for (ctx, thread) in w.drain(..) {
            self.shared.gate_requeue(ctx, thread);
        }
    }

    fn peer_private_write(&self, pe: usize, off: usize, src: &[u8]) {
        debug_assert!(self.shared.co_resident(self.pe, pe));
        debug_assert!(self.shared.is_holding(self.ctx));
        self.shared.privates[pe].write_bytes(off, src);
        self.trace(TraceKind::Copy, pe, src.len() as u64);
        self.progress();
    }

    fn peer_private_read(&self, pe: usize, off: usize, dst: &mut [u8]) {
        debug_assert!(self.shared.co_resident(self.pe, pe));
        debug_assert!(self.shared.is_holding(self.ctx));
        self.shared.privates[pe].read_bytes(off, dst);
        self.trace(TraceKind::Copy, pe, dst.len() as u64);
        self.progress();
    }

    fn peer_private_to_arena(&self, pe: usize, arena_dst: usize, priv_src: usize, len: usize) {
        debug_assert!(self.shared.co_resident(self.pe, pe));
        debug_assert!(self.shared.is_holding(self.ctx));
        let (shard, local) = self.shared.arena.shard(arena_dst);
        CommonMemory::copy_between(shard, local, &self.shared.privates[pe], priv_src, len);
        self.trace(TraceKind::Copy, pe, len as u64);
        self.progress();
    }

    fn peer_arena_to_private(&self, pe: usize, priv_dst: usize, arena_src: usize, len: usize) {
        debug_assert!(self.shared.co_resident(self.pe, pe));
        debug_assert!(self.shared.is_holding(self.ctx));
        let (shard, local) = self.shared.arena.shard(arena_src);
        CommonMemory::copy_between(&self.shared.privates[pe], priv_dst, shard, local, len);
        self.trace(TraceKind::Copy, pe, len as u64);
        self.progress();
    }

    fn tmc_spin_barrier(&self, set: (usize, u32, usize)) {
        let b = {
            let mut map = self.shared.spin_barriers.lock();
            map.entry(set)
                .or_insert_with(|| Arc::new(CoopSpinBarrier::new(set.2)))
                .clone()
        };
        b.wait(self);
        self.progress();
    }

    fn probe(&self) -> Option<&PeProbe> {
        self.probe.as_deref()
    }

    fn quiet(&self) {
        tmc::fence::mem_fence();
    }

    fn wait_pause(&self, attempt: u32) {
        self.spin_retry();
        if attempt > 0 && attempt.is_multiple_of(64) {
            self.abort_check();
        }
        // The context that will satisfy this wait may be queued on our
        // own worker: whenever siblings wait for the gate, yield it —
        // FIFO admission runs every one of them once before we spin
        // again.
        if attempt >= 4 && self.shared.gate_waiters(self.ctx) > 0 {
            self.gate_yield();
        } else if attempt > 64 {
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
        self.sleep_checking_abort(micros);
    }
}

/// The cooperative M:N backend. `workers == 0` (the default) sizes the
/// worker pool from the host's parallelism, floored at 2 so a
/// single-core CI box still interleaves contexts rather than serializing
/// a whole job behind one gate.
#[derive(Default)]
pub struct CoopBackend {
    /// Worker-thread count (M); `0` = auto.
    pub workers: usize,
    /// When set, the symmetric-heap shard set is checked out of this
    /// recycling pool (scrubbed of the previous tenant's bytes) and
    /// retired back to it on clean completion; a panicked or wedged
    /// launch unwinds past the check-in, so its arena is dropped. The
    /// server layer threads its pool through here; `None` (the default)
    /// allocates fresh per launch.
    pub arena_pool: Option<Arc<crate::server::ArenaPool>>,
}

impl CoopBackend {
    /// The worker count a job with `npes` PEs actually runs on.
    pub fn resolved_workers(&self, npes: usize) -> usize {
        let m = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .max(2)
        } else {
            self.workers
        };
        m.clamp(1, npes)
    }
}

impl EngineBackend for CoopBackend {
    fn name(&self) -> &'static str {
        "coop"
    }

    fn execute<R, F>(&self, cfg: &crate::runtime::RuntimeConfig, watch: &WatchPlane<'_>, f: F) -> EngineOutcome<R>
    where
        R: Send,
        F: Fn(&ShmemCtx) -> R + Send + Sync,
    {
        use udn::fabric::UdnFabric;

        let native_watch = match watch {
            WatchPlane::None => None,
            WatchPlane::Native(w) => Some(*w),
            WatchPlane::Coop(_) => panic!(
                "a TimedWatch is the virtual-time scheduler's observer and cannot watch \
                 the coop engine; attach a JobWatch instead"
            ),
        };
        let layout = cfg.layout();
        let block = cfg.npes.div_ceil(self.resolved_workers(cfg.npes));
        // Trim trailing empty shards when ceil rounding overshoots.
        let workers = cfg.npes.div_ceil(block);
        let endpoints = match cfg.udn_queue_packets {
            Some(p) => UdnFabric::new_bounded(cfg.npes, p),
            None => UdnFabric::new(cfg.npes),
        };
        let sink = (cfg.trace || native_watch.is_some())
            .then(|| Arc::new(TraceSink::with_lanes(workers)));
        let waker = endpoints[0].sender();
        let arena = match &self.arena_pool {
            Some(pool) => ShardedArena::from_shards(
                pool.checkout(cfg.npes, workers, block, cfg.partition_bytes, layout.heap_bytes),
                block,
                cfg.partition_bytes,
            ),
            None => ShardedArena::new(cfg.npes, workers, block, cfg.partition_bytes),
        };
        let shared = Arc::new(CoopShared {
            arena,
            privates: (0..cfg.npes)
                .map(|pe| CommonMemory::new(cfg.private_bytes, Homing::Local(pe)))
                .collect(),
            npes: cfg.npes,
            workers,
            block,
            sync_cells: (0..cfg.npes).map(|_| SyncCell::default()).collect(),
            partition_bytes: cfg.partition_bytes,
            device: cfg.device,
            start: FastClock::new(),
            spin_barriers: Mutex::new(HashMap::new()),
            aborted: AtomicBool::new(false),
            probes: (0..cfg.npes).map(|_| Arc::new(PeProbe::new())).collect(),
            service_probes: (0..cfg.npes).map(|_| Arc::new(PeProbe::new())).collect(),
            trace: sink.clone(),
            waker,
            gates: (0..workers).map(|_| Gate::new()).collect(),
            granted: (0..2 * cfg.npes).map(|_| AtomicBool::new(false)).collect(),
            holding: (0..2 * cfg.npes).map(|_| AtomicBool::new(false)).collect(),
        });
        if let Some(w) = native_watch {
            w.attach(shared.clone(), endpoints.clone());
        }

        // Interrupt-service contexts: real threads sharing their PE's
        // worker gate; they sit gate-released in the Q_SERVICE receive
        // and hold the gate only while serving a request.
        let service_threads: Vec<_> = (0..cfg.npes)
            .map(|pe| {
                let fab = CoopFabric::new_service(shared.clone(), pe, endpoints[pe].clone());
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("coop-svc-{pe}"))
                    .spawn(move || {
                        let ctx_id = fab.ctx_id();
                        fab.gate_enter();
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            service_loop(&fab)
                        }));
                        // A panic can fire while not holding (parked
                        // receive, fault-delay sleep): release only a
                        // held gate, or the handoff chain double-frees.
                        if shared.is_holding(ctx_id) {
                            shared.gate_release(ctx_id);
                        }
                        if let Err(p) = r {
                            std::panic::resume_unwind(p);
                        }
                    })
                    .expect("spawn coop service thread")
            })
            .collect();

        let values = tmc::task::run_on_tiles(cfg.npes, |pe| {
            let fab = CoopFabric::new_probed(shared.clone(), pe, endpoints[pe].clone());
            fab.gate_enter();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let ctx = ShmemCtx::new(Box::new(fab), layout, cfg.algos, cfg.private_bytes);
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&ctx))) {
                    Ok(r) => {
                        ctx.finalize();
                        r
                    }
                    Err(p) => {
                        shared.abort();
                        std::panic::resume_unwind(p);
                    }
                }
            }));
            if shared.is_holding(pe) {
                shared.gate_release(pe);
            }
            result.unwrap_or_else(|p| std::panic::resume_unwind(p))
        });

        for t in service_threads {
            t.join().expect("coop service thread panicked");
        }
        // Reached only on clean completion (a tenant panic unwinds out
        // of run_on_tiles above): retire the shard set for recycling.
        if let Some(pool) = &self.arena_pool {
            pool.check_in(cfg.npes, workers, block, cfg.partition_bytes, shared.arena.shards.clone());
        }
        EngineOutcome {
            values,
            clocks: Vec::new(),
            makespan: desim::time::SimTime::ZERO,
            trace: cfg.trace.then(|| sink.expect("sink exists when tracing").take()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_arena_locates_and_copies_across_shards() {
        // 5 PEs, 2 per shard, 64-byte partitions -> shards of 2,2,1 PEs.
        let a = ShardedArena::new(5, 3, 2, 64);
        assert_eq!(a.shards.len(), 3);
        assert_eq!(a.shards[0].len(), 128);
        assert_eq!(a.shards[2].len(), 64);
        // PE 3's partition starts at global 192 = shard 1, local 64.
        let (w, local) = a.locate(192);
        assert_eq!((w, local), (1, 64));
        // Write in PE 0's partition, copy into PE 4's (cross-shard).
        a.shards[0].write_bytes(8, &[1, 2, 3, 4]);
        a.copy(4 * 64 + 16, 8, 4);
        let mut out = [0u8; 4];
        let (shard, local) = a.shard(4 * 64 + 16);
        shard.read_bytes(local, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        // Same-shard copy.
        a.copy(64 + 8, 8, 4);
        let (shard, local) = a.shard(64 + 8);
        shard.read_bytes(local, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn resolved_workers_bounds() {
        assert_eq!(CoopBackend { workers: 4, ..Default::default() }.resolved_workers(256), 4);
        assert_eq!(CoopBackend { workers: 9, ..Default::default() }.resolved_workers(4), 4);
        let auto = CoopBackend::default().resolved_workers(1024);
        assert!((2..=1024).contains(&auto), "auto workers = {auto}");
        assert_eq!(CoopBackend::default().resolved_workers(1), 1);
    }

    /// The launch geometry as `execute` computes it: ceil block, then
    /// trailing-empty-shard trim.
    fn geometry(npes: usize, requested_workers: usize) -> (usize, usize) {
        let block = npes.div_ceil(requested_workers);
        (block, npes.div_ceil(block))
    }

    #[test]
    fn co_resident_geometry_uneven_block() {
        // 10 PEs over 4 workers: block = 3, shards of 3,3,3,1.
        let (block, workers) = geometry(10, 4);
        assert_eq!((block, workers), (3, 4));
        let shared = gate_fixture(10, block);
        assert!(shared.co_resident(0, 2));
        assert!(!shared.co_resident(2, 3));
        assert!(shared.co_resident(3, 5));
        // PE 9 sits alone in the trailing short shard.
        assert!(shared.co_resident(9, 9));
        assert!(!shared.co_resident(8, 9));
        assert_eq!(workers, shared.workers);
    }

    #[test]
    fn co_resident_geometry_one_worker_everything_local() {
        let (block, workers) = geometry(7, 1);
        assert_eq!((block, workers), (7, 1));
        let shared = gate_fixture(7, block);
        for a in 0..7 {
            for b in 0..7 {
                assert!(shared.co_resident(a, b), "({a},{b}) must share the lone worker");
            }
        }
    }

    #[test]
    fn co_resident_geometry_worker_per_pe_nothing_local() {
        let (block, workers) = geometry(6, 6);
        assert_eq!((block, workers), (1, 6));
        let shared = gate_fixture(6, block);
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(shared.co_resident(a, b), a == b, "({a},{b})");
            }
        }
    }

    #[test]
    fn gate_admits_fifo_and_hands_off_directly() {
        use std::sync::atomic::AtomicUsize;
        let shared = gate_fixture(4, 2); // 4 contexts, 2 per worker
        let order = Arc::new(Mutex::new(Vec::new()));
        let running = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for ctx in [0usize, 1] {
                let shared = shared.clone();
                let order = order.clone();
                let running = running.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        shared.gate_acquire(ctx, None);
                        let now = running.fetch_add(1, Ordering::AcqRel);
                        assert_eq!(now, 0, "two holders on one worker gate");
                        order.lock().push(ctx);
                        running.fetch_sub(1, Ordering::AcqRel);
                        shared.gate_release(ctx);
                    }
                });
            }
        });
        assert_eq!(order.lock().len(), 200);
    }

    /// Main-context fabrics over a fixture launch (their UDN endpoints
    /// are a fabric of their own; the cell tests never send).
    fn fabrics(shared: &Arc<CoopShared>) -> Vec<CoopFabric> {
        udn::fabric::UdnFabric::new(shared.npes)
            .into_iter()
            .enumerate()
            .map(|(pe, ep)| CoopFabric::new_probed(shared.clone(), pe, ep))
            .collect()
    }

    /// Park context 1 on word `EPOCH` of PE 0's cell (both on one
    /// worker) and return once it is listed there, gate released.
    /// The thread yields what the wait returned, or the panic payload.
    fn park_on_cell(
        shared: &Arc<CoopShared>,
        waiter: CoopFabric,
    ) -> std::thread::JoinHandle<std::thread::Result<u64>> {
        const EPOCH: usize = 1;
        let t = std::thread::spawn(move || {
            waiter.gate_enter();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                waiter.sync_cell_wait_change(0, EPOCH, 0)
            }))
        });
        while shared.sync_cells[0].waiters[EPOCH].lock().is_empty() {
            std::thread::yield_now();
        }
        t
    }

    #[test]
    fn cell_notify_queues_the_waiter_on_the_gate_behind_the_notifier() {
        let shared = gate_fixture(2, 2);
        let mut fabs = fabrics(&shared);
        let waiter = park_on_cell(&shared, fabs.pop().unwrap());
        let notifier = fabs.pop().unwrap();
        notifier.gate_enter();
        notifier.sync_cell_add(0, 1, 1);
        notifier.sync_cell_notify(0, 1);
        // Moved from the cell to the gate FIFO, not woken: it cannot run
        // before we let go of the gate, and its probe says so.
        assert!(shared.sync_cells[0].waiters[1].lock().is_empty());
        assert_eq!(shared.gate_waiters(0), 1);
        assert!(!shared.granted[1].load(Ordering::Acquire));
        assert!(!waiter.is_finished());
        assert_eq!(shared.probes[1].blocked(), BlockedOn::Descheduled);
        notifier.gate_release();
        assert_eq!(waiter.join().unwrap().expect("waiter admitted"), 1);
        assert!(shared.is_holding(1), "the wake-up is the gate grant");
        assert_eq!(shared.probes[1].blocked(), BlockedOn::Running);
    }

    #[test]
    fn aborted_cell_waiter_delists_itself_and_is_never_granted() {
        let shared = gate_fixture(2, 2);
        let mut fabs = fabrics(&shared);
        let waiter = park_on_cell(&shared, fabs.pop().unwrap());
        shared.aborted.store(true, Ordering::Release);
        assert!(waiter.join().unwrap().is_err(), "parked waiter must unwind on abort");
        assert!(!shared.is_holding(1), "it unwound without the gate");
        assert!(shared.sync_cells[0].waiters[1].lock().is_empty());
        // A late notify finds nobody: no gate is queued for the dead.
        let notifier = fabs.pop().unwrap();
        notifier.gate_enter();
        notifier.sync_cell_notify(0, 1);
        assert_eq!(shared.gate_waiters(0), 0);
        notifier.gate_release();
        assert!(!shared.gates[0].inner.lock().held);
    }

    #[test]
    fn cell_waiter_already_queued_on_the_gate_aborts_on_admission() {
        let shared = gate_fixture(2, 2);
        let mut fabs = fabrics(&shared);
        let waiter = park_on_cell(&shared, fabs.pop().unwrap());
        let notifier = fabs.pop().unwrap();
        notifier.gate_enter();
        notifier.sync_cell_add(0, 1, 1);
        notifier.sync_cell_notify(0, 1);
        shared.aborted.store(true, Ordering::Release);
        // Queued: it must take the grant it is owed before it dies, so
        // the handoff chain behind it keeps moving (the launch scaffold
        // releases the gate of a context that died holding it).
        notifier.gate_release();
        assert!(waiter.join().unwrap().is_err());
        assert!(shared.is_holding(1));
        assert_eq!(shared.gate_waiters(0), 0);
    }

    fn gate_fixture(npes: usize, block: usize) -> Arc<CoopShared> {
        let workers = npes.div_ceil(block);
        let endpoints = udn::fabric::UdnFabric::new(npes);
        Arc::new(CoopShared {
            arena: ShardedArena::new(npes, workers, block, 4096),
            privates: Vec::new(),
            npes,
            workers,
            block,
            sync_cells: (0..npes).map(|_| SyncCell::default()).collect(),
            partition_bytes: 4096,
            device: tile_arch::device::Device::tile_gx8036(),
            start: FastClock::new(),
            spin_barriers: Mutex::new(HashMap::new()),
            aborted: AtomicBool::new(false),
            probes: (0..npes).map(|_| Arc::new(PeProbe::new())).collect(),
            service_probes: (0..npes).map(|_| Arc::new(PeProbe::new())).collect(),
            trace: None,
            waker: endpoints[0].sender(),
            gates: (0..workers).map(|_| Gate::new()).collect(),
            granted: (0..2 * npes).map(|_| AtomicBool::new(false)).collect(),
            holding: (0..2 * npes).map(|_| AtomicBool::new(false)).collect(),
        })
    }
}
