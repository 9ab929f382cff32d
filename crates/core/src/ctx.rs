//! The per-PE SHMEM context: environment queries, symmetric memory
//! management, local access, and finalization.
//!
//! One [`ShmemCtx`] exists per PE for the lifetime of a launch (the
//! analog of the state `start_pes()` sets up). RMA, synchronization,
//! collective, and atomic operations are implemented in their own modules
//! as further `impl ShmemCtx` blocks.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use crate::active_set::ActiveSet;
use crate::collectives::hier;
use crate::fabric::{Fabric, ProtoMsg};
use crate::fault::Fault;
use crate::heap::{Heap, HeapError};
use crate::symm::{AddrClass, Bits, Sym};

/// Barrier algorithm selection (paper Section IV-C1 and IV-E).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BarrierAlgo {
    /// The paper's design: linear wait/release token over the UDN.
    #[default]
    Ring,
    /// The evaluated alternative: root broadcasts the release signal.
    RootBroadcast,
    /// Adopt the TMC spin barrier (the paper's proposed optimization for
    /// TILE-Gx `barrier_all`).
    TmcSpin,
    /// Dissemination barrier: ⌈log2 n⌉ rounds of shifted pairwise
    /// signals (an extension beyond the paper; the classic
    /// low-latency software barrier).
    Dissemination,
}

/// Broadcast algorithm selection (Figures 9–10 and Section IV-E).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BroadcastAlgo {
    /// All non-root PEs get from the root (the design that scales).
    #[default]
    Pull,
    /// Root puts to every PE sequentially.
    Push,
    /// Binomial tree (listed as future work in the paper).
    Binomial,
}

/// Reduction algorithm selection (Figure 12 and Section IV-E).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReduceAlgo {
    /// Root serially gets and combines every PE's data (the paper's
    /// baseline design).
    #[default]
    Naive,
    /// Recursive doubling (listed as future work in the paper).
    RecursiveDoubling,
}

/// Algorithm configuration for one launch.
#[derive(Clone, Copy, Debug, Default)]
pub struct Algorithms {
    pub barrier: BarrierAlgo,
    pub broadcast: BroadcastAlgo,
    pub reduce: ReduceAlgo,
}

/// Memory-homing hint for [`ShmemCtx::shmalloc_homed`] (the Section VI
/// "memory-homing strategies" extension).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HomingHint {
    /// Hash lines across all tiles' L2s — the TSHMEM default.
    #[default]
    HashForHome,
    /// Home each PE's copy on its own tile.
    MyTile,
    /// Home every copy on one fixed tile (producer-consumer).
    Tile(usize),
}

/// Partition layout: the user-visible symmetric heap plus the internal
/// region TSHMEM reserves at the top of each partition for collective
/// flags and the temporary buffer used by static-static transfers.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    pub npes: usize,
    pub partition_bytes: usize,
    /// Bytes available to `shmalloc` (`[0, heap_bytes)`).
    pub heap_bytes: usize,
    /// Broadcast-ready flags, one 8-byte slot per possible root.
    pub bcast_flags: usize,
    /// Gather flags (fcollect/reduce arrivals), one slot per PE.
    pub gather_flags: usize,
    /// Point-to-point signal slots, one per PE.
    pub pt2pt_flags: usize,
    /// Temp buffer for redirected static-static transfers.
    pub temp_off: usize,
    pub temp_bytes: usize,
}

impl Layout {
    /// Compute the layout for a partition.
    ///
    /// # Panics
    /// Panics if the partition cannot hold the internal region.
    pub fn new(partition_bytes: usize, npes: usize, temp_bytes: usize) -> Self {
        let flags = npes * 8;
        let internal = 3 * flags + temp_bytes;
        assert!(
            partition_bytes > internal + 64,
            "partition of {partition_bytes} B cannot hold {internal} B of internal state"
        );
        let heap_bytes = (partition_bytes - internal) & !7;
        Self {
            npes,
            partition_bytes,
            heap_bytes,
            bcast_flags: heap_bytes,
            gather_flags: heap_bytes + flags,
            pt2pt_flags: heap_bytes + 2 * flags,
            temp_off: heap_bytes + 3 * flags,
            temp_bytes,
        }
    }
}

/// Operation counters (cheap observability for tests and examples).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    pub puts: u64,
    pub gets: u64,
    pub put_bytes: u64,
    pub get_bytes: u64,
    /// Operations redirected through the interrupt service.
    pub redirected: u64,
    /// Explicit barrier calls (`barrier`/`barrier_all`, including the
    /// one inside `shmalloc`/`shfree`). The synchronisation a collective
    /// does on its own behalf is not counted, so the number does not
    /// depend on which transport carried the collective.
    pub barriers: u64,
    pub collectives: u64,
    /// Atomic operations that completed. A `cswap` whose comparison
    /// failed is a retry of its caller's claim loop, not an operation:
    /// it counts in `cswap_retries`, so this stays schedule-independent.
    pub atomics: u64,
    /// `cswap` calls that found another value than `cond` — as many as
    /// the schedule made a claim loop spin, so never compared across
    /// runs.
    pub cswap_retries: u64,
    /// Non-blocking puts issued (`shmem_put_nbi` family).
    pub nbi_puts: u64,
    /// Non-blocking gets issued (`shmem_get_nbi` family).
    pub nbi_gets: u64,
    /// Explicit `shmem_fence` calls. Tracked separately from `quiets`
    /// so tests can assert that fence does **not** complete pending
    /// non-blocking operations while quiet does.
    pub fences: u64,
    /// Explicit `shmem_quiet` calls (the internal completion drains run
    /// by barriers and collectives do not count here).
    pub quiets: u64,
    /// Would-be-redirected operations that instead took a co-resident
    /// locality bypass (coop engine, same-worker direct copies). The
    /// locality equivalence suite compares Stats with `redirected` and
    /// `locality_hits` excluded — locality legitimately converts the
    /// one into the other while every API-visible counter stays equal.
    pub locality_hits: u64,
}

/// Sequence-number namespaces for collective completion flags.
pub(crate) const SEQ_BCAST: u8 = 0;
pub(crate) const SEQ_GATHER: u8 = 1;
pub(crate) const SEQ_PT2PT: u8 = 2;
/// `collect`'s exclusive-scan (offset) exchange. Distinct from
/// [`SEQ_COLLECT_TOTAL`]: on a 2-member set both exchanges involve the
/// same unordered pair, and a shared counter would let a stale TOTAL
/// message satisfy the next collect's OFF matcher.
pub(crate) const SEQ_COLLECT_OFF: u8 = 3;
/// `collect`'s total-size broadcast exchange.
pub(crate) const SEQ_COLLECT_TOTAL: u8 = 4;

/// The per-PE SHMEM context.
pub struct ShmemCtx {
    pub(crate) fab: Box<dyn Fabric>,
    pub(crate) layout: Layout,
    pub(crate) algos: Algorithms,
    heap: RefCell<Heap>,
    static_bump: Cell<usize>,
    private_bytes: usize,
    /// Out-of-order protocol messages parked until their matcher asks.
    pub(crate) stash: RefCell<Vec<ProtoMsg>>,
    /// Monotonic sequence numbers per (namespace, unordered PE pair) for
    /// flag-based completion. Pairwise counters are essential: a counter
    /// shared across a whole set would desynchronize between a root and
    /// a PE that sits out some collectives (overlapping active sets).
    pub(crate) seqs: RefCell<HashMap<(u8, usize, usize), u64>>,
    reply_token: Cell<u64>,
    pub(crate) stats: RefCell<Stats>,
    /// Reused bounce buffer for transfers that need a local staging copy
    /// (local static-static copies, strided-get scatter). Grows to the
    /// high-water mark once instead of allocating per call.
    pub(crate) scratch: RefCell<Vec<u8>>,
    /// Outstanding non-blocking operations, completed by
    /// [`ShmemCtx::quiet`] (or the internal drain at barrier entry).
    /// Capacity is retained across drains, so a steady-state nbi train
    /// allocates only on its high-water mark.
    pub(crate) pending: RefCell<Vec<crate::rma::PendingOp>>,
    /// `fence` calls so far: a pending op records the epoch it was issued
    /// in, and a later put or AMO to its PE completes it first.
    pub(crate) fence_epoch: Cell<u64>,
    /// Bump allocator over the shared temp region for in-flight
    /// redirected nbi chunks. Reset to 0 on every full drain; blocking
    /// temp users drain first, so the two never overlap.
    pub(crate) nbi_temp_used: Cell<usize>,
    /// The RMA batched fast paths are on — off under the launch's
    /// [`Fault::GeneralRmaPaths`] reference arm.
    pub(crate) rma_fast_paths: bool,
    /// Non-blocking ops complete at issue ([`Fault::EagerNbi`]).
    pub(crate) nbi_eager: bool,
    /// Protocol sends are plain blocking sends
    /// ([`Fault::BlockingProtocolSends`]).
    pub(crate) blocking_sends: bool,
    finalized: Cell<bool>,
}

impl ShmemCtx {
    /// Run `f` over the per-context scratch buffer sized to `len` bytes
    /// (contents unspecified on entry). `f` must not re-enter any context
    /// method that also stages through scratch.
    pub(crate) fn with_scratch<R>(&self, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut buf = self.scratch.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0);
        }
        f(&mut buf[..len])
    }

    /// Build a context over a fabric. Called by the runtime launcher; the
    /// equivalent of what `start_pes()` finishes. The launch's fault plan
    /// is read here, once.
    pub fn new(fab: Box<dyn Fabric>, layout: Layout, algos: Algorithms, private_bytes: usize) -> Self {
        let heap = Heap::new(layout.heap_bytes);
        let has = |fault: Fault| fab.faults().is_some_and(|f| f.has(&fault));
        let (rma_fast_paths, nbi_eager, blocking_sends) =
            (!has(Fault::GeneralRmaPaths), has(Fault::EagerNbi), has(Fault::BlockingProtocolSends));
        Self {
            fab,
            layout,
            algos,
            heap: RefCell::new(heap),
            static_bump: Cell::new(0),
            private_bytes,
            stash: RefCell::new(Vec::new()),
            seqs: RefCell::new(HashMap::new()),
            reply_token: Cell::new(0),
            stats: RefCell::new(Stats::default()),
            scratch: RefCell::new(Vec::new()),
            pending: RefCell::new(Vec::new()),
            fence_epoch: Cell::new(0),
            nbi_temp_used: Cell::new(0),
            rma_fast_paths,
            nbi_eager,
            blocking_sends,
            finalized: Cell::new(false),
        }
    }

    // --- environment (`_my_pe`, `_num_pes`) ---------------------------

    /// This PE's id (`_my_pe()`).
    pub fn my_pe(&self) -> usize {
        self.fab.pe()
    }

    /// Number of PEs (`_num_pes()`).
    pub fn n_pes(&self) -> usize {
        self.fab.npes()
    }

    /// The active set of all PEs.
    pub fn world(&self) -> ActiveSet {
        ActiveSet::all(self.n_pes())
    }

    /// Snapshot of operation counters.
    pub fn stats(&self) -> Stats {
        *self.stats.borrow()
    }

    /// Engine-native time in nanoseconds (wall time on the native
    /// engine, virtual time on the timed engine) — the measurement clock
    /// used by benchmarks.
    pub fn time_ns(&self) -> f64 {
        self.fab.now_ns()
    }

    /// Charge application compute to the engine clock: a no-op natively,
    /// a clock advance on the timed engine. Used by the application case
    /// studies to model Figure 13/14 compute phases.
    pub fn compute(&self, cycles: f64) {
        self.fab.compute(cycles);
    }

    /// The modeled device this job runs on.
    pub fn device(&self) -> tile_arch::device::Device {
        self.fab.device()
    }

    /// Charge `flops` single-precision floating-point operations at the
    /// device's calibrated rate (TILEPro has no FP hardware, hence the
    /// order-of-magnitude Figure 13 gap).
    pub fn compute_flops(&self, flops: f64) {
        let d = self.fab.device();
        self.fab.compute(flops * d.timings.compute.cycles_per_flop);
    }

    /// Charge `intops` integer operations at the device's calibrated
    /// rate.
    pub fn compute_intops(&self, intops: f64) {
        let d = self.fab.device();
        self.fab.compute(intops * d.timings.compute.cycles_per_intop);
    }

    // --- symmetric memory management -----------------------------------

    /// Collective allocation from the symmetric heap (`shmalloc`).
    /// Every PE must call with the same `len` at the same point in the
    /// execution path; the result is symmetric by construction. Performs
    /// the spec's implicit `barrier_all` before returning.
    ///
    /// # Panics
    /// Panics if the symmetric heap is exhausted (`try_shmalloc` is the
    /// fallible variant).
    pub fn shmalloc<T: Bits>(&self, len: usize) -> Sym<T> {
        self.try_shmalloc(len).unwrap_or_else(|e| panic!("shmalloc: {e}"))
    }

    /// Fallible `shmalloc`.
    pub fn try_shmalloc<T: Bits>(&self, len: usize) -> Result<Sym<T>, HeapError> {
        let bytes = len * std::mem::size_of::<T>();
        let off = self.heap.borrow_mut().alloc(bytes)?;
        self.barrier_all();
        Ok(Sym::new(AddrClass::Dynamic, off, len))
    }

    /// Collective allocation with a **memory-homing hint** — the
    /// Section VI "memory-homing strategies" extension. The hint applies
    /// to each PE's own copy of the object:
    ///
    /// * [`HomingHint::HashForHome`] — the TSHMEM default (lines hashed
    ///   across all tiles' L2s);
    /// * [`HomingHint::MyTile`] — each copy homed on its owner (fast
    ///   local re-use, no DDC distribution);
    /// * [`HomingHint::Tile`] — every copy homed on one fixed tile
    ///   (the producer-consumer pattern of paper Section III-A).
    ///
    /// Functionally identical to [`shmalloc`](Self::shmalloc); the timed
    /// engines cost accesses under the chosen policy.
    pub fn shmalloc_homed<T: Bits>(&self, len: usize, hint: HomingHint) -> Sym<T> {
        let sym = self.shmalloc::<T>(len);
        let me = self.my_pe();
        let homing = match hint {
            HomingHint::HashForHome => cachesim::homing::Homing::HashForHome,
            HomingHint::MyTile => cachesim::homing::Homing::Local(me),
            HomingHint::Tile(t) => {
                self.check_pe(t);
                cachesim::homing::Homing::Remote(t)
            }
        };
        self.fab
            .set_region_homing(self.go(me, sym.offset()), sym.byte_len(), homing);
        sym
    }

    /// Aligned collective allocation (`shmemalign`).
    pub fn shmemalign<T: Bits>(&self, align: usize, len: usize) -> Sym<T> {
        let bytes = len * std::mem::size_of::<T>();
        let off = self
            .heap
            .borrow_mut()
            .alloc_aligned(bytes, align)
            .unwrap_or_else(|e| panic!("shmemalign: {e}"));
        self.barrier_all();
        Sym::new(AddrClass::Dynamic, off, len)
    }

    /// Collective free (`shfree`). Performs the spec's implicit
    /// `barrier_all` *before* releasing, so no PE frees memory another PE
    /// is still addressing.
    ///
    /// # Panics
    /// Panics on a handle not produced by `shmalloc`/`shmemalign`, or on
    /// double free.
    pub fn shfree<T: Bits>(&self, sym: Sym<T>) {
        assert_eq!(sym.class(), AddrClass::Dynamic, "shfree of a static object");
        self.barrier_all();
        self.fab
            .clear_region_homing(self.go(self.my_pe(), sym.offset()));
        self.heap
            .borrow_mut()
            .free(sym.offset())
            .unwrap_or_else(|e| panic!("shfree: {e}"));
    }

    /// Collective resize (`shrealloc`): contents up to
    /// `min(old, new)` are preserved.
    pub fn shrealloc<T: Bits>(&self, sym: Sym<T>, new_len: usize) -> Sym<T> {
        assert_eq!(sym.class(), AddrClass::Dynamic, "shrealloc of a static object");
        let new_bytes = new_len * std::mem::size_of::<T>();
        let keep = sym.byte_len().min(new_bytes);
        self.barrier_all();
        let old_off = sym.offset();
        let new_off = self
            .heap
            .borrow_mut()
            .realloc(old_off, new_bytes)
            .unwrap_or_else(|e| panic!("shrealloc: {e}"));
        if new_off != old_off && keep > 0 {
            let me = self.my_pe();
            self.fab
                .arena_copy(self.go(me, new_off), self.go(me, old_off), keep);
        }
        self.barrier_all();
        Sym::new(AddrClass::Dynamic, new_off, new_len)
    }

    /// Allocate a **static** symmetric object — the analog of a
    /// link-time global. Must be called by every PE in the same order
    /// (the analog of "running the same executable"); offsets are then
    /// identical everywhere. No implicit barrier: real statics exist
    /// before `start_pes()`.
    ///
    /// # Panics
    /// Panics if the private segment is exhausted.
    pub fn static_sym<T: Bits>(&self, len: usize) -> Sym<T> {
        let bytes = (len * std::mem::size_of::<T>() + 7) & !7;
        let off = self.static_bump.get();
        assert!(
            off + bytes <= self.private_bytes,
            "private segment exhausted: {off} + {bytes} > {}",
            self.private_bytes
        );
        self.static_bump.set(off + bytes);
        Sym::new(AddrClass::Static, off, len)
    }

    // --- local access ---------------------------------------------------

    /// Write `src` into this PE's copy of `sym` starting at element
    /// `index`.
    pub fn local_write<T: Bits>(&self, sym: &Sym<T>, index: usize, src: &[T]) {
        assert!(index + src.len() <= sym.len(), "local_write out of bounds");
        self.local_write_bytes(sym, index, byte_view(src));
    }

    /// Read this PE's copy of `sym` into a new `Vec`.
    pub fn local_read<T: Bits>(&self, sym: &Sym<T>, index: usize, len: usize) -> Vec<T> {
        assert!(index + len <= sym.len(), "local_read out of bounds");
        let mut out = vec![unsafe { std::mem::zeroed() }; len];
        self.local_read_bytes(sym, index, byte_view_mut(&mut out));
        out
    }

    /// [`local_write`](Self::local_write) of raw bytes; bounds are the
    /// caller's.
    pub(crate) fn local_write_bytes<T: Bits>(&self, sym: &Sym<T>, index: usize, bytes: &[u8]) {
        let off = sym.elem_offset(index);
        match sym.class() {
            AddrClass::Dynamic => self.fab.arena_write(self.go(self.my_pe(), off), bytes),
            AddrClass::Static => self.fab.private_write(off, bytes),
        }
    }

    /// [`local_read`](Self::local_read) into raw bytes; bounds are the
    /// caller's.
    pub(crate) fn local_read_bytes<T: Bits>(&self, sym: &Sym<T>, index: usize, bytes: &mut [u8]) {
        let off = sym.elem_offset(index);
        match sym.class() {
            AddrClass::Dynamic => self.fab.arena_read(self.go(self.my_pe(), off), bytes),
            AddrClass::Static => self.fab.private_read(off, bytes),
        }
    }

    /// Fill this PE's copy of `sym` with `value`.
    pub fn local_fill<T: Bits>(&self, sym: &Sym<T>, value: T) {
        let v = vec![value; sym.len()];
        self.local_write(sym, 0, &v);
    }

    /// Run `f` over this PE's copy of `sym` as a mutable slice (zero
    /// copies — for compute kernels over symmetric data).
    ///
    /// # Panics
    /// Panics if `T`'s alignment exceeds the heap's 8-byte allocation
    /// alignment guarantee.
    pub fn with_local_mut<T: Bits, R>(&self, sym: &Sym<T>, f: impl FnOnce(&mut [T]) -> R) -> R {
        assert!(std::mem::align_of::<T>() <= 8, "over-aligned element type");
        let ptr = match sym.class() {
            AddrClass::Dynamic => self
                .fab
                .arena_raw(self.go(self.my_pe(), sym.offset()), sym.byte_len()),
            AddrClass::Static => self.fab.private_raw(sym.offset(), sym.byte_len()),
        };
        assert_eq!(ptr as usize % std::mem::align_of::<T>(), 0, "unaligned symmetric data");
        // SAFETY: bounds checked by the raw accessor; alignment asserted;
        // cross-PE ordering is the application's job (SHMEM semantics).
        let slice = unsafe { std::slice::from_raw_parts_mut(ptr.cast::<T>(), sym.len()) };
        f(slice)
    }

    /// Run `f` over this PE's copy of `sym` as a shared slice.
    pub fn with_local<T: Bits, R>(&self, sym: &Sym<T>, f: impl FnOnce(&[T]) -> R) -> R {
        self.with_local_mut(sym, |s| f(&*s))
    }

    // --- finalization (`shmem_finalize`, the paper's proposal) ----------

    /// Orderly teardown: synchronize all PEs and disengage this PE's
    /// interrupt-service context. Idempotent. The launcher calls this
    /// automatically when the application closure returns; applications
    /// may call it earlier, after their last SHMEM operation.
    ///
    /// The synchronisation must stay abortable if a peer died, which
    /// rules out a hardware spin barrier whatever is configured: it is
    /// the default `barrier_all`'s counter-cell pass wherever the
    /// transport selection offers one (a cell waiter unwinds on abort
    /// like a parked receive), and the ring everywhere else.
    pub fn finalize(&self) {
        if self.finalized.replace(true) {
            return;
        }
        let world = self.world();
        match self.select(world, self.my_pe(), hier::Configured::Default) {
            Some(cl) => {
                self.complete_puts();
                self.cell_pass(&cl, || {}, || {}, || {});
            }
            None => self.barrier_ring_explicit(world),
        }
        self.fab.udn_send(
            self.my_pe(),
            crate::fabric::Q_SERVICE,
            crate::service::TAG_SHUTDOWN,
            &[],
        );
    }

    pub fn is_finalized(&self) -> bool {
        self.finalized.get()
    }

    /// How far this PE's handles ever reached: the symmetric heap's
    /// high-water mark and the static bump. Every byte a tenant can
    /// address through a handle this PE produced — in any PE's partition
    /// or private segment — lies below these.
    pub(crate) fn dirty_extent(&self) -> (usize, usize) {
        (self.heap.borrow().high_water(), self.static_bump.get())
    }

    // --- internals -------------------------------------------------------

    /// Global arena offset of `(pe, partition-relative offset)`.
    #[inline]
    pub(crate) fn go(&self, pe: usize, local: usize) -> usize {
        debug_assert!(pe < self.layout.npes, "PE {pe} out of range");
        debug_assert!(local <= self.layout.partition_bytes);
        pe * self.layout.partition_bytes + local
    }

    /// Mirror the stash's (tag, src) shape into this PE's probe so a
    /// stall watchdog can dump which parked messages a wedged PE holds.
    pub(crate) fn mirror_stash(&self) {
        if let Some(p) = self.fab.probe() {
            let stash = self.stash.borrow();
            let shape = stash
                .iter()
                .take(crate::fabric::STASH_SNAPSHOT_CAP)
                .map(|m| (m.tag, m.src))
                .collect();
            p.set_stash(shape, stash.len());
        }
    }

    /// Next reply token for redirected transfers.
    pub(crate) fn next_token(&self) -> u64 {
        let t = self.reply_token.get() + 1;
        self.reply_token.set(t);
        t
    }

    /// Next sequence number for signals between PEs `a` and `b` in a
    /// flag namespace. Both endpoints must observe the same event
    /// sequence for their pair (guaranteed by SHMEM's collective-call
    /// ordering rules), so incrementing locally on each side stays
    /// consistent.
    pub(crate) fn next_seq(&self, ns: u8, a: usize, b: usize) -> u64 {
        let mut m = self.seqs.borrow_mut();
        let e = m.entry((ns, a.min(b), a.max(b))).or_insert(0);
        *e += 1;
        *e
    }

    /// Validate a remote PE id.
    pub(crate) fn check_pe(&self, pe: usize) {
        assert!(pe < self.n_pes(), "PE {pe} out of range (npes {})", self.n_pes());
    }
}

/// View a slice as bytes.
pub(crate) fn byte_view<T: Bits>(s: &[T]) -> &[u8] {
    // SAFETY: T: Bits is plain data; lifetimes tied to s.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// View a mutable slice as bytes.
pub(crate) fn byte_view_mut<T: Bits>(s: &mut [T]) -> &mut [u8] {
    // SAFETY: as above; T: Bits accepts any bit pattern.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_partitions_cleanly() {
        let l = Layout::new(1 << 20, 8, 4096);
        assert_eq!(l.heap_bytes % 8, 0);
        assert!(l.heap_bytes < l.partition_bytes);
        assert_eq!(l.gather_flags - l.bcast_flags, 64);
        assert_eq!(l.pt2pt_flags - l.gather_flags, 64);
        assert_eq!(l.temp_off - l.pt2pt_flags, 64);
        assert_eq!(l.temp_off + l.temp_bytes, l.heap_bytes + 3 * 64 + 4096);
        assert!(l.temp_off + l.temp_bytes <= l.partition_bytes);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn tiny_partition_rejected() {
        Layout::new(1024, 64, 4096);
    }

    #[test]
    fn byte_views() {
        let v = [1u32, 2];
        assert_eq!(byte_view(&v).len(), 8);
        let mut w = [0u8; 3];
        byte_view_mut(&mut w)[1] = 7;
        assert_eq!(w, [0, 7, 0]);
    }
}
