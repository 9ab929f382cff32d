//! The engine abstraction: everything TSHMEM's protocol code needs from
//! the machine underneath it.
//!
//! TSHMEM's algorithms — the token barrier, the four put/get address
//! classes, the collectives — are written once against [`Fabric`] and
//! executed by two fabrics:
//!
//! * [`crate::engine::wall`] moves real bytes between contexts carried
//!   as stacks by real threads and measures wall time, under a
//!   per-worker admission gate — a worker per PE (the native engine) or
//!   M for N PEs (the cooperative M:N engine);
//! * [`crate::engine::timed`] moves the same real bytes under the
//!   cooperative virtual-time scheduler, charging the calibrated Tilera
//!   costs (UDN wire latency, cache-classified copy cycles, contention)
//!   on one chip (the timed engine) or across several joined by mPIPE
//!   links (the multichip engine).
//!
//! Keeping a single protocol implementation is what makes the timed
//! engine an honest model of the shipped library (`DESIGN.md` §6).
//! What only some engines can do — address a co-resident PE's memory,
//! park on a counter cell — is a separate capability, [`Locality`],
//! that protocol code must obtain from [`Fabric::locality`] before it
//! can call it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use substrate::sync::Mutex;
use tmc::common::CommonMemory;

use crate::fault::LaunchFaults;
use crate::trace::TraceSink;

/// UDN demux queue assignments (the hardware provides four).
pub const Q_BARRIER: usize = 0;
/// Collective control traffic (collect offset exchange, etc.).
pub const Q_COLLECT: usize = 1;
/// Completion replies for redirected (static) transfers.
pub const Q_REPLY: usize = 2;
/// Interrupt-service requests — the analog of Tilera UDN interrupts.
pub const Q_SERVICE: usize = 3;

/// A received protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoMsg {
    /// Sending PE.
    pub src: usize,
    /// Software tag (message kind).
    pub tag: u16,
    /// Payload words — protocol-sized payloads (≤ 6 words) stay inline,
    /// so cloning or stashing a barrier/collective token never
    /// allocates.
    pub payload: udn::packet::PayloadVec,
}

/// Read-modify-write operations on symmetric words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmwOp {
    Add,
    Swap,
    And,
    Or,
    Xor,
}

/// Width of an atomic word operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmwWidth {
    W32,
    W64,
}

impl RmwWidth {
    /// Operand size in bytes.
    pub fn bytes(self) -> usize {
        match self {
            RmwWidth::W32 => 4,
            RmwWidth::W64 => 8,
        }
    }
}

/// Apply `op` to the `width`-wide word at `off` of `mem`; returns the
/// old value. The one fetch-op body behind every fabric's `arena_rmw` —
/// each fabric keeps its own charging, tracing and progress accounting
/// around the call.
pub fn rmw(mem: &CommonMemory, off: usize, op: RmwOp, operand: u64, width: RmwWidth) -> u64 {
    match width {
        RmwWidth::W64 => {
            let a = mem.atomic_u64(off);
            match op {
                RmwOp::Add => a.fetch_add(operand, Ordering::AcqRel),
                RmwOp::Swap => a.swap(operand, Ordering::AcqRel),
                RmwOp::And => a.fetch_and(operand, Ordering::AcqRel),
                RmwOp::Or => a.fetch_or(operand, Ordering::AcqRel),
                RmwOp::Xor => a.fetch_xor(operand, Ordering::AcqRel),
            }
        }
        RmwWidth::W32 => {
            let a = mem.atomic_u32(off);
            let v = operand as u32;
            (match op {
                RmwOp::Add => a.fetch_add(v, Ordering::AcqRel),
                RmwOp::Swap => a.swap(v, Ordering::AcqRel),
                RmwOp::And => a.fetch_and(v, Ordering::AcqRel),
                RmwOp::Or => a.fetch_or(v, Ordering::AcqRel),
                RmwOp::Xor => a.fetch_xor(v, Ordering::AcqRel),
            }) as u64
        }
    }
}

/// Replace the `width`-wide word at `off` of `mem` with `new` iff it
/// equals `cond`; returns the old value, so the exchange happened iff
/// that equals `cond` (callers pass words already masked to `width`).
pub fn cswap(mem: &CommonMemory, off: usize, cond: u64, new: u64, width: RmwWidth) -> u64 {
    match width {
        RmwWidth::W64 => {
            match mem.atomic_u64(off).compare_exchange(
                cond,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(old) | Err(old) => old,
            }
        }
        RmwWidth::W32 => {
            match mem.atomic_u32(off).compare_exchange(
                cond as u32,
                new as u32,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(old) | Err(old) => old as u64,
            }
        }
    }
}

/// What a PE's main thread is currently blocked on — the blocked-state
/// introspection a stall watchdog reads to diagnose a wedged job.
///
/// States are advisory snapshots: a PE updates its own [`PeProbe`] just
/// before entering a blocking wait and resets it to `Running` on exit,
/// so a watchdog observing a stable non-`Running` state across its stall
/// window knows *which* protocol wait each PE is parked in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockedOn {
    /// Not in a blocking protocol wait.
    Running,
    /// Blocking receive on a demux queue.
    Recv { queue: usize },
    /// Retrying a send into a full destination queue.
    SendFull { dest: usize, queue: usize },
    /// Polling a completion-flag word (global arena byte offset).
    FlagWait { offset: usize },
    /// Spinning on a lock word (global arena byte offset).
    LockWait { offset: usize },
    /// A service context executing a redirected-RMA request (`tag` is
    /// the protocol tag, `src` the requesting PE). Published by
    /// `service_loop` for the duration of the handler so a stall inside
    /// the handler is attributed to the handler, not its clients.
    Handler { tag: u16, src: usize },
    /// Runnable but not scheduled: the cooperative M:N engine parks a
    /// context here while it waits for a worker slot. The wall-clock
    /// watchdog must not count a descheduled PE as a livelock suspect —
    /// it is making no progress only because M < N, not because its
    /// protocol is wedged.
    Descheduled,
    /// Parked on a sync cell of the cluster led by `pe` (the
    /// counter-cell pass of the clustered collectives): a member
    /// waiting for the release epoch, or a leader waiting for arrivals. Once a notify
    /// has queued the waiter on its gate it reads `Descheduled`.
    CellWait { pe: usize },
}

impl BlockedOn {
    /// Pack into one word for lock-free publication (tag in the top
    /// byte, operands below — offsets fit easily in 48 bits here).
    fn encode(self) -> u64 {
        match self {
            BlockedOn::Running => 0,
            BlockedOn::Recv { queue } => (1 << 56) | queue as u64,
            BlockedOn::SendFull { dest, queue } => {
                (2 << 56) | ((dest as u64) << 8) | queue as u64
            }
            BlockedOn::FlagWait { offset } => (3 << 56) | offset as u64,
            BlockedOn::LockWait { offset } => (4 << 56) | offset as u64,
            BlockedOn::Handler { tag, src } => (5 << 56) | ((tag as u64) << 24) | src as u64,
            BlockedOn::Descheduled => 6 << 56,
            BlockedOn::CellWait { pe } => (7 << 56) | pe as u64,
        }
    }

    fn decode(w: u64) -> Self {
        let lo = w & ((1 << 56) - 1);
        match w >> 56 {
            1 => BlockedOn::Recv { queue: lo as usize },
            2 => BlockedOn::SendFull {
                dest: (lo >> 8) as usize,
                queue: (lo & 0xff) as usize,
            },
            3 => BlockedOn::FlagWait { offset: lo as usize },
            4 => BlockedOn::LockWait { offset: lo as usize },
            5 => BlockedOn::Handler {
                tag: ((lo >> 24) & 0xffff) as u16,
                src: (lo & 0xff_ffff) as usize,
            },
            6 => BlockedOn::Descheduled,
            7 => BlockedOn::CellWait { pe: lo as usize },
            _ => BlockedOn::Running,
        }
    }
}

impl std::fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockedOn::Running => write!(f, "running"),
            BlockedOn::Recv { queue } => write!(f, "recv(q{queue})"),
            BlockedOn::SendFull { dest, queue } => write!(f, "send->PE{dest}(q{queue}) [full]"),
            BlockedOn::FlagWait { offset } => write!(f, "flag-wait@{offset:#x}"),
            BlockedOn::LockWait { offset } => write!(f, "lock-wait@{offset:#x}"),
            BlockedOn::Handler { tag, src } => {
                write!(f, "handler({} from PE {src})", crate::service::tag_name(*tag))
            }
            BlockedOn::Descheduled => write!(f, "descheduled (runnable)"),
            BlockedOn::CellWait { pe } => write!(f, "cell-wait@PE{pe}"),
        }
    }
}

/// Cap on the per-PE stash snapshot mirrored into [`PeProbe`]: a stall
/// dump only needs the leading entries to name the wedged exchange, and
/// an uncapped mirror would clone an arbitrarily deep stash on every
/// push/pop.
pub const STASH_SNAPSHOT_CAP: usize = 16;

/// Per-PE progress/blocked-state probe, shared with a watchdog.
///
/// `ops` is a monotonic count of completed *state-changing* fabric
/// operations (useful work); `spins` counts retries that changed
/// nothing — failed `cswap` attempts, `wait_until`/`flag_wait_ge`
/// polls, lock-acquisition backoff steps. A deadlocked job shows both
/// totals flat across the supervisor's window; a **livelocked** job
/// shows `spins` climbing while `ops` stays flat — the distinction a
/// stall report's `classification:` line draws. `blocked` and `stash` snapshot
/// what the PE is waiting on and which out-of-order protocol messages
/// it has parked.
#[derive(Default)]
pub struct PeProbe {
    ops: AtomicU64,
    spins: AtomicU64,
    blocked: AtomicU64,
    /// `(tag, src)` of the first [`STASH_SNAPSHOT_CAP`] stashed
    /// protocol messages (diagnostics only — see `stash_total` for the
    /// real depth).
    stash: Mutex<Vec<(u16, usize)>>,
    /// Total stash depth at the last snapshot, including entries beyond
    /// the snapshot cap.
    stash_total: AtomicUsize,
}

impl PeProbe {
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one completed (state-changing) fabric operation.
    #[inline]
    pub fn bump(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one spin retry (a poll or CAS attempt that changed no
    /// state).
    #[inline]
    pub fn spin(&self) {
        self.spins.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed-operation count.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Spin-retry count.
    pub fn spins(&self) -> u64 {
        self.spins.load(Ordering::Relaxed)
    }

    /// Publish the current blocked state.
    pub fn set_blocked(&self, state: BlockedOn) {
        self.blocked.store(state.encode(), Ordering::Release);
    }

    /// Read the last published blocked state.
    pub fn blocked(&self) -> BlockedOn {
        BlockedOn::decode(self.blocked.load(Ordering::Acquire))
    }

    /// Replace the stash snapshot. `entries` is capped at
    /// [`STASH_SNAPSHOT_CAP`] by the caller; `total` is the real stash
    /// depth so diagnostics can report what the cap hid.
    pub fn set_stash(&self, entries: Vec<(u16, usize)>, total: usize) {
        debug_assert!(entries.len() <= STASH_SNAPSHOT_CAP);
        self.stash_total.store(total, Ordering::Relaxed);
        *self.stash.lock() = entries;
    }

    /// Read the stash snapshot (at most [`STASH_SNAPSHOT_CAP`] entries).
    pub fn stash(&self) -> Vec<(u16, usize)> {
        self.stash.lock().clone()
    }

    /// Total stash depth at the last snapshot.
    pub fn stash_total(&self) -> usize {
        self.stash_total.load(Ordering::Relaxed)
    }
}

/// A launch's instruments, one set per launch on either fabric: what a
/// stall report reads and what every completed fabric op ticks.
pub struct Instruments {
    pub npes: usize,
    /// One probe per context: `0..npes` the PEs' main contexts,
    /// `npes..2*npes` their interrupt-service contexts. A service context
    /// that has not run reads as what it would be doing if it had: parked
    /// in its `Q_SERVICE` receive.
    pub probes: Vec<Arc<PeProbe>>,
    /// Optional operation trace (see `crate::trace`).
    pub trace: Option<Arc<TraceSink>>,
    /// The fault plan this launch was handed, armed for it alone.
    pub faults: Option<Arc<LaunchFaults>>,
}

impl Instruments {
    pub fn new(npes: usize, trace: Option<Arc<TraceSink>>, faults: Option<Arc<LaunchFaults>>) -> Self {
        let probes = (0..2 * npes)
            .map(|ctx| {
                let probe = PeProbe::new();
                if ctx >= npes {
                    probe.set_blocked(BlockedOn::Recv { queue: Q_SERVICE });
                }
                Arc::new(probe)
            })
            .collect();
        Self { npes, probes, trace, faults }
    }

    /// Count one completed (state-changing) op of a context of PE `pe`
    /// on its `probe`, tick the fault plan's op clock, and fire a
    /// `PanicPe` fault targeting `pe`. Returns the `SlowPe` delay (µs)
    /// this op must serve, which each fabric serves on its own clock.
    #[inline]
    pub fn progress(&self, probe: &PeProbe, pe: usize) -> Option<u64> {
        probe.bump();
        let faults = self.faults.as_deref()?;
        faults.note_op();
        if faults.panic_pe_now(pe) {
            panic!("PE {pe}: injected PanicPe fault (crashing-tenant model)");
        }
        faults.slow_pe_delay_us(pe)
    }
}

/// Engine services available to every PE (and to its interrupt-service
/// context).
///
/// Arena offsets are **global**: PE `p`'s partition occupies
/// `[p * partition_bytes, (p+1) * partition_bytes)`. Private-segment
/// offsets are local to the owning PE.
pub trait Fabric: Send {
    /// This PE's id.
    fn pe(&self) -> usize;
    /// Number of PEs.
    fn npes(&self) -> usize;
    /// Bytes per symmetric partition.
    fn partition_bytes(&self) -> usize;
    /// The modeled device (for compute-cost accounting and reporting).
    fn device(&self) -> tile_arch::device::Device;

    // --- control plane (UDN) ------------------------------------------

    /// Send a protocol message to `dest`'s demux queue `queue`.
    /// `Q_SERVICE` routes to the destination PE's interrupt-service
    /// context rather than its main thread.
    fn udn_send(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]);

    /// Non-blocking send: `false` when the destination queue is full
    /// (finite-buffer engines only). Protocol loops that must not stall
    /// while their own queue backs up retry this between drains of their
    /// own demux queue — see `ShmemCtx::send_draining`. Engines without
    /// send-side backpressure (virtual-time models, unbounded fabrics)
    /// keep this default, which completes the send immediately.
    fn udn_try_send(&self, dest: usize, queue: usize, tag: u16, payload: &[u64]) -> bool {
        self.udn_send(dest, queue, tag, payload);
        true
    }

    /// Blocking receive from `queue`.
    fn udn_recv(&self, queue: usize) -> ProtoMsg;

    /// Non-blocking receive from `queue`.
    fn udn_try_recv(&self, queue: usize) -> Option<ProtoMsg>;

    // --- data plane (common memory) -----------------------------------

    /// `memcpy` within the arena (global offsets; ranges may overlap).
    fn arena_copy(&self, dst: usize, src: usize, len: usize);

    /// Copy local bytes into the arena.
    fn arena_write(&self, dst: usize, src: &[u8]);

    /// Copy arena bytes into a local buffer.
    fn arena_read(&self, src: usize, dst: &mut [u8]);

    /// Atomic (acquire) load of an aligned u64 flag word.
    fn arena_read_u64(&self, off: usize) -> u64;

    /// Atomic (acquire) load of an aligned u32 word (for 32-bit waits).
    fn arena_read_u32(&self, off: usize) -> u32;

    /// Atomic (release) store of an aligned u64 flag word.
    fn arena_write_u64(&self, off: usize, v: u64);

    /// Atomic read-modify-write on an aligned word; returns the old
    /// value (zero-extended for 32-bit widths).
    fn arena_rmw(&self, off: usize, op: RmwOp, operand: u64, width: RmwWidth) -> u64;

    /// Atomic compare-and-swap on an aligned word; returns the old value.
    fn arena_cswap(&self, off: usize, cond: u64, new: u64, width: RmwWidth) -> u64;

    // --- private segment (the static-symmetric analog) ----------------

    /// Write into *this PE's* private segment.
    fn private_write(&self, off: usize, src: &[u8]);

    /// Read from *this PE's* private segment.
    fn private_read(&self, off: usize, dst: &mut [u8]);

    /// One-`memcpy` transfer from this PE's private segment into the
    /// arena (the service path of a redirected get).
    fn private_to_arena(&self, arena_dst: usize, priv_src: usize, len: usize);

    /// One-`memcpy` transfer from the arena into this PE's private
    /// segment (the service path of a redirected put).
    fn arena_to_private(&self, priv_dst: usize, arena_src: usize, len: usize);

    /// Raw pointer into the arena for local compute over symmetric data
    /// (bounds-checked; local access is uncosted in the timed engine —
    /// application compute is charged via [`compute`](Fabric::compute)).
    fn arena_raw(&self, off: usize, len: usize) -> *mut u8;

    /// Raw pointer into this PE's private segment.
    fn private_raw(&self, off: usize, len: usize) -> *mut u8;

    /// The locality capability, when this engine runs PEs on workers
    /// (the wall fabric) and the same-worker fast paths are enabled.
    /// `None` (the default: timed, multichip) disables every locality
    /// fast path and the counter-cell collectives.
    fn locality(&self) -> Option<&dyn Locality> {
        None
    }

    /// The TMC spin barrier over an active set (Figure 5's primitive;
    /// TSHMEM can adopt it for `barrier_all` on TILE-Gx — Section IV-E).
    /// The triplet is `(start_pe, log2_stride, size)`.
    fn tmc_spin_barrier(&self, set: (usize, u32, usize));

    /// Register a homing policy for an arena region (the Section VI
    /// "memory-homing strategies" extension). A no-op on the native
    /// engine; the timed engines cost accesses to the region under the
    /// given policy instead of the hash-for-home default.
    fn set_region_homing(&self, global_off: usize, len: usize, homing: cachesim::homing::Homing) {
        let _ = (global_off, len, homing);
    }

    /// Remove a homing registration (on `shfree`).
    fn clear_region_homing(&self, global_off: usize) {
        let _ = global_off;
    }

    // --- ordering, time, and pacing ------------------------------------

    /// Block until all outstanding stores by this PE are visible
    /// (`tmc_mem_fence` analog; implements `shmem_quiet`).
    fn quiet(&self);

    /// One backoff step of a polling wait (`shmem_wait` inner loop):
    /// a spin hint natively, a clock advance under the timed engine so
    /// that virtual time progresses. `attempt` is the number of failed
    /// polls so far; the timed engine backs off exponentially with it
    /// (capped), which keeps long waits from costing millions of
    /// scheduler round-trips while bounding the detection-latency error.
    fn wait_pause(&self, attempt: u32);

    /// Charge application compute: a no-op natively (the computation
    /// itself takes the time), a clock advance in the timed engine.
    fn compute(&self, cycles: f64);

    /// Engine-native current time in nanoseconds (wall time natively,
    /// virtual time under the timed engine).
    fn now_ns(&self) -> f64;

    /// Stall this context for `micros` engine-native microseconds — the
    /// fault plan's delay primitive (`crate::fault`). The wall-clock
    /// engines serve it in a timed park an abort ends at once; the
    /// timed engine advances virtual time. Engines without fault
    /// support keep this no-op.
    fn inject_delay_us(&self, micros: u64) {
        let _ = micros;
    }

    // --- introspection --------------------------------------------------

    /// This PE's progress/blocked-state probe, when the engine supports
    /// watchdog introspection (every engine's fabric does, including
    /// their service contexts).
    fn probe(&self) -> Option<&PeProbe> {
        None
    }

    /// The fault plan of the launch this context belongs to, if it was
    /// handed one (`Launcher::with_faults`).
    fn faults(&self) -> Option<&crate::fault::LaunchFaults>;
}

/// What the wall fabric's worker topology (native and coop engines)
/// offers beyond [`Fabric`]: direct access to a co-resident PE's memory
/// and the sync cells under the clustered collectives. Reached only
/// through [`Fabric::locality`], so code for an engine without a worker
/// topology cannot call any of it.
pub trait Locality {
    /// Whether `pe`'s memory is directly addressable from this context
    /// because both PEs are multiplexed on the same worker — the POSH
    /// "same address space ⇒ plain memcpy" degradation. While a context
    /// runs it holds its worker's admission gate, and the gate handoff
    /// is a Release/Acquire edge, so touching a co-resident sibling's
    /// memory is race-free for the duration of the call.
    fn co_resident(&self, pe: usize) -> bool;

    /// The PE→worker block size: PEs are sharded over workers in
    /// contiguous blocks of this many — the cluster width that aligns
    /// the counter-cell pass to the sharding.
    fn topology_block(&self) -> usize;

    /// Atomic fetch-add on word `word` of sync cell `cell` — word 0 is
    /// the arrival counter, word 1 the release epoch of the counter-cell
    /// pass under the clustered collectives. The cell exists from its
    /// first use; finding it afterwards allocates nothing. AcqRel, so
    /// the cells alone carry the barrier's happens-before edges.
    fn sync_cell_add(&self, cell: CellKey, word: usize, delta: u64) -> u64;

    /// Acquire load of word `word` of sync cell `cell`.
    fn sync_cell_load(&self, cell: CellKey, word: usize) -> u64;

    /// Block until word `word` of `cell` reads something other than
    /// `old`, returning the new value. Wakeups ride
    /// [`sync_cell_notify`](Locality::sync_cell_notify) — a change
    /// without a notify may be observed late (the cell pass only
    /// notifies on the transitions its waiters care about), but a
    /// notified change is always observed.
    fn sync_cell_wait_change(&self, cell: CellKey, word: usize, old: u64) -> u64;

    /// Make every context parked in
    /// [`sync_cell_wait_change`](Locality::sync_cell_wait_change) on
    /// word `word` of `cell` runnable again, in the order they
    /// parked: each is queued for admission behind the caller, not
    /// woken beside it, and re-checks its own condition once admitted.
    fn sync_cell_notify(&self, cell: CellKey, word: usize);

    /// Write into PE `pe`'s private segment. `pe` must be
    /// [`co_resident`](Locality::co_resident), here and below.
    fn peer_private_write(&self, pe: usize, off: usize, src: &[u8]);

    /// Read from PE `pe`'s private segment.
    fn peer_private_read(&self, pe: usize, off: usize, dst: &mut [u8]);

    /// One-`memcpy` transfer from PE `pe`'s private segment into the
    /// arena (the locality bypass of a redirected get).
    fn peer_private_to_arena(&self, pe: usize, arena_dst: usize, priv_src: usize, len: usize);

    /// One-`memcpy` transfer from the arena into PE `pe`'s private
    /// segment (the locality bypass of a redirected put).
    fn peer_arena_to_private(&self, pe: usize, priv_dst: usize, arena_src: usize, len: usize);
}

/// Names one sync cell of the counter-cell pass by a PE range (first
/// PE, count): a **cluster** — the members an active set has inside one
/// worker shard — or a **root**, from the set's first leader to its last,
/// which always reaches past the first leader's shard. Keying by the
/// cluster rather than by its leader is what keeps two live sets that
/// meet on one leader with different memberships (`[0, 66)` and the
/// world on 70 PEs / 2 workers: PE 35 leads 31 members of one and 35 of
/// the other) off each other's counter, while sets with the same members
/// in a shard share one (`ShmemCtx::cell_pass`, DESIGN.md §6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellKey {
    pub first: usize,
    pub count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_state_roundtrips_through_the_probe() {
        let states = [
            BlockedOn::Running,
            BlockedOn::Recv { queue: 3 },
            BlockedOn::SendFull { dest: 35, queue: 1 },
            BlockedOn::FlagWait { offset: 0x3f_fff8 },
            BlockedOn::LockWait { offset: 8 },
            BlockedOn::Handler { tag: 0xfffe, src: 255 },
            BlockedOn::Handler { tag: 1, src: 0 },
            BlockedOn::Descheduled,
            BlockedOn::CellWait { pe: 1023 },
        ];
        let probe = PeProbe::new();
        for s in states {
            probe.set_blocked(s);
            assert_eq!(probe.blocked(), s);
        }
        assert_eq!(probe.ops(), 0);
        probe.bump();
        probe.bump();
        assert_eq!(probe.ops(), 2);
        assert_eq!(probe.spins(), 0);
        probe.spin();
        assert_eq!(probe.spins(), 1);
        assert_eq!(probe.ops(), 2, "spins must not count as useful work");
        probe.set_stash(vec![(13, 2), (20, 5)], 2);
        assert_eq!(probe.stash(), vec![(13, 2), (20, 5)]);
        assert_eq!(probe.stash_total(), 2);
    }

    #[test]
    fn queue_assignments_are_distinct_and_in_hardware_range() {
        let qs = [Q_BARRIER, Q_COLLECT, Q_REPLY, Q_SERVICE];
        for (i, a) in qs.iter().enumerate() {
            assert!(*a < udn::NUM_QUEUES);
            for b in &qs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
