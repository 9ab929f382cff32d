//! The cooperative M:N engine — N PEs (up to 1024) over M worker
//! threads on the wall fabric ([`super::wall`]) — and the admission gate
//! both wall-clock engines run under. A 1024-PE job is M runnable
//! threads, not N busy-spinning ones.
//!
//! Scheduling contract (DESIGN.md §6):
//!
//! * Worker `w = pe / ceil(npes / workers)` is one domain of the
//!   cooperative handoff core ([`substrate::baton`]) over a FIFO of
//!   context ids — its admission gate — and one carrier thread, the
//!   worker's lane, on which its PEs' main and interrupt-service
//!   contexts run as stacks. A context may touch the fabric only while
//!   holding its worker's gate. The core is the one the virtual-time
//!   scheduler runs on; the FIFO is this engine's ordering policy, and
//!   an empty queue leaves the gate free.
//! * Every genuine wait is one **baton park** with the gate released,
//!   so siblings run meanwhile: handing the gate to a sibling and
//!   parking is one switch of stacks on the lane. A receive on an empty
//!   queue, a send into a full one and a [`SyncCell`] wait list the
//!   context (`Waiters`), re-check and park; the send, receive or notify
//!   that ends the wait queues it on its gate, so it is woken once, by
//!   its admission. An injected fault delay is a park until a deadline,
//!   which the lane's idle park honours. Nothing else blocks a lane.
//! * A context **yields** its gate (requeue at the FIFO tail, hand the
//!   gate to the head) from `wait_pause` whenever siblings are queued,
//!   and otherwise lets the lane's other runnable stacks (a context
//!   past its delay, one just started) run first, so spin waits (flag
//!   polls, lock backoff, the TMC spin barrier) cannot starve the very
//!   context that would satisfy them.
//! * While queued for admission a context publishes
//!   [`BlockedOn::Descheduled`]: runnable, just not scheduled. The
//!   wall-clock supervisor must not treat that as a livelock symptom,
//!   and scales its stall window by the launch's oversubscription.
//! * An abort is a flag plus the baton's `wake_all`, and every return
//!   from a park checks the flag before it touches the fabric, so each
//!   context unwinds without a gate it does not hold (`GateSet::abort`).
//!
//! The trace sink is one lock-free lane per gate: one running context
//! per gate is the single-writer guarantee a lane needs. The symmetric
//! heap is one arena for the launch, whatever its geometry.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use substrate::baton::Baton;
use substrate::stack;
use substrate::sync::Mutex;
use tmc::common::CommonMemory;

use crate::ctx::ShmemCtx;
use crate::engine::backend::{EngineBackend, EngineOutcome};
use crate::engine::wall::{run_wall, Resident, WallFabric};
use crate::fabric::{BlockedOn, CellKey, Locality, PeProbe};
use crate::fault::LaunchFaults;
use crate::trace::TraceKind;
use crate::watch::JobWatch;

/// One cache line of locality-collective state, keyed by the cluster it
/// serves ([`CellKey`]: the members an active set has inside one worker
/// shard): word 0 counts arrivals, word 1 is the release epoch. Backs
/// the counter-cell pass of the clustered collectives
/// (`Locality::sync_cell_add` / `sync_cell_wait_change`); padded to a
/// line so neighboring clusters' cells never false-share. A notify
/// queues the word's parked members on their gates: one park and one
/// wake per member per pass, and a released cluster never stampedes the
/// context that released it.
#[repr(align(64))]
#[derive(Default)]
pub struct SyncCell {
    pub words: [AtomicU64; 2],
    /// Parked waiters per word — separate lists so the last-arrival
    /// notify aimed at the leader (word 0) does not requeue a cluster of
    /// members parked on the epoch (word 1).
    waiters: [Waiters; 2],
}

/// Contexts parked until what they wait for changes — a cell word, or a
/// demux queue empty for its consumer or full for its senders — each
/// listed by [`WallFabric::park_on`] and made ready on its gate by the
/// [`WallFabric::wake`] that follows the change.
#[derive(Default)]
pub(crate) struct Waiters {
    /// What a waker reads without the lock: the listed contexts plus a
    /// lister between counting itself in and its re-check.
    count: AtomicUsize,
    list: Mutex<VecDeque<usize>>,
}

/// The cells of every PE range one PE starts, by range length − 1.
type CellRow = Box<[OnceLock<Box<SyncCell>>]>;

/// The admission gates of one wall-clock launch: one FIFO gate per
/// worker, at most one running context each, and one carrier thread
/// each that runs its contexts as stacks. The handle is shared by every
/// context of the launch.
pub type Gated = Arc<GateSet>;

/// Per-launch gate state.
pub struct GateSet {
    pub npes: usize,
    pub workers: usize,
    /// PEs per worker (`ceil(npes / workers)`).
    pub block: usize,
    /// Gate domains, each one running context and one trace lane: the
    /// `workers` PE gates, then on the native geometry
    /// ([`GateSet::native`]) one gate per interrupt-service context.
    pub domains: usize,
    /// Sync cells by key: row `first` has one slot per range length a
    /// cluster or root starting at PE `first` can have (it ends with the
    /// job at the latest). Rows and cells are created on first use — a
    /// launch touches a handful of the ranges — and never move or go
    /// away before the launch does, so finding one afterwards is two
    /// acquire loads and no arithmetic ([`GateSet::cell`]).
    sync_cells: Vec<OnceLock<CellRow>>,
    /// The gates: one domain each over a FIFO of context ids (`pe` for
    /// main contexts, `npes + pe` for service contexts), whose members
    /// run as stacks on its carrier.
    baton: Baton<VecDeque<usize>>,
    /// Set by [`GateSet::abort`].
    aborted: AtomicBool,
}

impl GateSet {
    /// Gates for `npes` PEs sharded `block` to a worker; a PE's service
    /// context shares its PE's gate and carrier. Stacks come from
    /// `stacks`.
    pub fn new(npes: usize, block: usize, stacks: &Arc<stack::Pool>) -> Gated {
        Self::build(npes, block, false, stacks)
    }

    /// The native geometry: a worker per PE, and a gate of its own for
    /// each PE's interrupt-service context, so a request is served while
    /// its target PE computes or spins on raw loads that never enter the
    /// runtime — the paper's handler is an interrupt, and it preempts
    /// the task (§IV-B2). Every domain has one context, so its carrier's
    /// idle park is the context's park, a futex.
    pub fn native(npes: usize, stacks: &Arc<stack::Pool>) -> Gated {
        Self::build(npes, 1, true, stacks)
    }

    fn build(npes: usize, block: usize, service_gates: bool, stacks: &Arc<stack::Pool>) -> Gated {
        let workers = npes.div_ceil(block);
        let domains = workers + if service_gates { npes } else { 0 };
        let home = |ctx: usize| (domain(npes, workers, block, domains, ctx), ctx < npes);
        Arc::new(GateSet {
            npes,
            workers,
            block,
            domains,
            sync_cells: (0..npes).map(|_| OnceLock::new()).collect(),
            baton: Baton::new(2 * npes, (0..domains).map(|_| VecDeque::new()), home, stacks),
            aborted: AtomicBool::new(false),
        })
    }

    /// The gate domain of context `ctx`: its PE's worker, or a service
    /// context's own gate on the native geometry.
    #[inline]
    pub(crate) fn domain_of(&self, ctx: usize) -> usize {
        domain(self.npes, self.workers, self.block, self.domains, ctx)
    }

    /// Queue every PE's main context on its worker's gate — the first
    /// of each holding it, ready to start on its carrier, the rest
    /// `Descheduled` behind it — before any carrier runs.
    pub fn admit(&self, probes: &[Arc<PeProbe>]) {
        for (pe, probe) in probes[..self.npes].iter().enumerate() {
            let w = pe / self.block;
            if pe == w * self.block {
                self.baton.start(w, pe);
            } else {
                probe.set_blocked(BlockedOn::Descheduled);
                self.baton.lock(w).make_ready(pe);
            }
        }
    }

    /// Queue `ctx` on its gate, or grant it the gate if it is free: it
    /// runs — or starts — once admitted.
    #[inline]
    pub(crate) fn make_ready(&self, ctx: usize) {
        self.baton.lock(self.domain_of(ctx)).make_ready(ctx);
    }

    /// Carry the contexts of domain `dom` on the calling thread until
    /// each that started has finished (and each main one has started),
    /// context `ctx` running `body(ctx)`.
    pub fn run(&self, dom: usize, body: &dyn Fn(usize)) {
        self.baton.run(dom, body);
    }

    /// The sync cell of `key`, created if this is its first use.
    fn cell(&self, key: CellKey) -> &SyncCell {
        let row = self.sync_cells[key.first].get_or_init(|| {
            (key.first..self.npes).map(|_| OnceLock::new()).collect() // cold: first use of this leader
        });
        row[key.count - 1].get_or_init(Box::default) // cold: first use of this cell
    }

    /// Whether PEs `a` and `b` are multiplexed on the same worker —
    /// they share an admission gate, so at most one of their contexts
    /// runs at a time. Pure geometry: the block sharding assigns PE `p`
    /// to worker `p / block`.
    #[inline]
    pub fn co_resident(&self, a: usize, b: usize) -> bool {
        a / self.block == b / self.block
    }

    /// Acquire the worker gate for `ctx`, parking until admitted. While
    /// queued, `probe` reads `Descheduled`; the prior blocked state is
    /// restored on admission. Unwinds if it parked and the job was aborted.
    pub fn acquire(&self, ctx: usize, probe: Option<&PeProbe>) {
        let (prior, mut parked) = (probe.map(|p| p.blocked()), false);
        self.baton.acquire(self.domain_of(ctx), ctx, || {
            parked = true;
            if let Some(p) = probe {
                p.set_blocked(BlockedOn::Descheduled);
            }
        });
        if parked {
            if let (Some(p), Some(b)) = (probe, prior) {
                p.set_blocked(b);
            }
            self.abort_check(ctx);
        }
    }

    /// Release the worker gate held by `ctx`, handing it directly to the
    /// longest-queued waiter (if any). The grant's Release store pairs
    /// with the waiter's Acquire swap, so everything the holder wrote —
    /// arena stores, trace-lane appends — is visible to the next holder.
    pub fn release(&self, ctx: usize) {
        let _ = self.baton.lock(self.domain_of(ctx)).release();
    }

    /// Whether `ctx` holds its worker's gate — the panic-cleanup path
    /// releases only a held one.
    pub(crate) fn is_holding(&self, ctx: usize) -> bool {
        self.baton.lock(self.domain_of(ctx)).holder() == Some(ctx)
    }

    /// Queued siblings go first: requeue at the tail, hand the gate to
    /// the head, and park until admitted again (`probe` reads
    /// `Descheduled` meanwhile). With none queued, the carrier's other
    /// runnable stacks — a context past its delay or one just started,
    /// which will queue for the gate — run first, the gate kept. A spin
    /// wait must not starve the very context that would satisfy it.
    /// Whether it yielded; unwinds if the job was aborted meanwhile.
    #[inline]
    pub(crate) fn yield_if_contended(&self, ctx: usize, probe: &PeProbe) -> bool {
        if self.baton.queued(self.domain_of(ctx)) == 0 {
            let ran = self.baton.run_others(ctx);
            if ran {
                self.abort_check(ctx);
            }
            return ran;
        }
        let prior = probe.blocked();
        probe.set_blocked(BlockedOn::Descheduled);
        let _ = self.baton.lock(self.domain_of(ctx)).yield_now(ctx);
        probe.set_blocked(prior);
        self.abort_check(ctx);
        true
    }

    /// Abort the job: set the flag and grant every context, parked or not
    /// (`Baton::wake_all`). Every return from a park checks the flag, so a
    /// parked context unwinds at once, and a running one at its next
    /// park, which takes the grant left for it; a context that starts
    /// afterwards — a main one the wake starts, or a service context a
    /// late request starts — checks it before anything else.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        self.baton.wake_all();
    }

    /// Unwind context `ctx` if the job was aborted.
    pub(crate) fn abort_check(&self, ctx: usize) {
        if self.aborted.load(Ordering::Acquire) {
            panic!("PE {}: aborting — another PE panicked", ctx % self.npes)
        }
    }
}

/// The gate domain of context `ctx` in a launch of `npes` PEs over
/// `workers` workers of `block` PEs, with `domains` gates in all.
fn domain(npes: usize, workers: usize, block: usize, domains: usize, ctx: usize) -> usize {
    if ctx >= npes && domains > workers {
        workers + ctx - npes
    } else {
        (ctx % npes) / block
    }
}

/// The one way a wall-clock context waits: parked on the baton with its
/// gate released, until a grant admits it or an abort unwinds it.
impl WallFabric {
    /// List this context on `waiters` unless `over()`, read once the
    /// listing is visible to every waker, says the wait is over; listed,
    /// release the gate and park until a [`wake`](Self::wake). Whether it
    /// parked. The lister counts itself in before `over()` reads and a
    /// waker changes what it waits for before it reads the count — SeqCst
    /// on both sides, or ordered by the channel lock both take — so one
    /// sees the other. A waiter found before it has let its gate go is
    /// queued on that gate and handed it back in turn.
    pub(crate) fn park_on(&self, waiters: &Waiters, blocked: BlockedOn, over: impl FnOnce() -> bool) -> bool {
        self.set_blocked(blocked);
        let mut list = waiters.list.lock();
        waiters.count.fetch_add(1, Ordering::SeqCst);
        let listed = !over();
        if listed {
            list.push_back(self.ctx);
        } else {
            waiters.count.fetch_sub(1, Ordering::SeqCst);
        }
        drop(list);
        if listed {
            self.gate_release();
            self.shared.gate.baton.park(self.ctx);
            self.shared.gate.abort_check(self.ctx);
        }
        self.set_blocked(BlockedOn::Running);
        listed
    }

    /// Make the contexts listed on `waiters` ready on their gates, in
    /// listing order, after the change that ends their wait: each joins
    /// its gate's FIFO as [`GateSet::acquire`] would, or is granted a
    /// free gate. One atomic load when none is listed. A grant can switch
    /// to its wakee, which may list itself again at once, so only those
    /// counted up front are taken off, and each is made ready unlocked.
    #[inline]
    pub(crate) fn wake(&self, waiters: &Waiters) {
        for _ in 0..waiters.count.load(Ordering::SeqCst) {
            let ctx = {
                let mut list = waiters.list.lock();
                let Some(ctx) = list.pop_front() else { break };
                waiters.count.fetch_sub(1, Ordering::SeqCst);
                ctx
            };
            self.shared.instruments.probes[ctx].set_blocked(BlockedOn::Descheduled);
            self.shared.gate.make_ready(ctx);
        }
    }

    /// Serve an injected delay of `micros` µs parked until its deadline
    /// with the gate released: the carrier runs the siblings meanwhile,
    /// or idles no longer than the deadline. Only an abort grants a
    /// context in a timed park.
    pub(crate) fn delay(&self, micros: u64) {
        let deadline = Instant::now() + Duration::from_micros(micros);
        self.gate_release();
        self.shared.gate.baton.park_until(self.ctx, deadline);
        self.shared.gate.abort_check(self.ctx);
        self.gate_acquire();
    }

    fn debug_assert_reachable(&self, pe: usize) {
        debug_assert!(self.shared.gate.co_resident(self.pe, pe));
        debug_assert!(self.shared.gate.is_holding(self.ctx));
    }
}

impl Locality for WallFabric {
    fn co_resident(&self, pe: usize) -> bool {
        self.shared.gate.co_resident(self.pe, pe)
    }

    fn topology_block(&self) -> usize {
        self.shared.gate.block
    }

    fn sync_cell_add(&self, cell: CellKey, word: usize, delta: u64) -> u64 {
        // The add publishes this PE's pre-barrier writes (Release) and,
        // on the leader's consuming sub, carries every member's release
        // sequence forward (Acquire) — the cells form the barrier's
        // happens-before spine without the gate edge. SeqCst, because a
        // notify reads the waiter count after it and a waiter re-checks
        // the word after counting itself in (`WallFabric::park_on`).
        let v = self.shared.gate.cell(cell).words[word].fetch_add(delta, Ordering::SeqCst);
        self.progress();
        v
    }

    fn sync_cell_load(&self, cell: CellKey, word: usize) -> u64 {
        self.shared.gate.cell(cell).words[word].load(Ordering::Acquire)
    }

    fn sync_cell_wait_change(&self, cell: CellKey, word: usize, old: u64) -> u64 {
        let pe = cell.first;
        let cell = self.shared.gate.cell(cell);
        loop {
            // One yield-free check, then park. Gate-yielding "just in
            // case" polls are a net loss here: a waiter that yields
            // re-enters the FIFO and must be scheduled again merely to
            // park, while the change it hopes to catch (all siblings
            // arriving plus the leaders' root meeting) is almost never
            // one rotation away.
            let cur = cell.words[word].load(Ordering::Acquire);
            if cur != old {
                return cur;
            }
            self.park_on(&cell.waiters[word], BlockedOn::CellWait { pe }, || {
                cell.words[word].load(Ordering::SeqCst) != old
            });
        }
    }

    fn sync_cell_notify(&self, cell: CellKey, word: usize) {
        self.wake(&self.shared.gate.cell(cell).waiters[word]);
    }

    fn peer_private_write(&self, pe: usize, off: usize, src: &[u8]) {
        self.debug_assert_reachable(pe);
        self.shared.privates[pe].write_bytes(off, src);
        self.trace(TraceKind::Copy, pe, src.len() as u64);
        self.progress();
    }

    fn peer_private_read(&self, pe: usize, off: usize, dst: &mut [u8]) {
        self.debug_assert_reachable(pe);
        self.shared.privates[pe].read_bytes(off, dst);
        self.trace(TraceKind::Copy, pe, dst.len() as u64);
        self.progress();
    }

    fn peer_private_to_arena(&self, pe: usize, arena_dst: usize, priv_src: usize, len: usize) {
        self.debug_assert_reachable(pe);
        CommonMemory::copy_between(&self.shared.arena, arena_dst, &self.shared.privates[pe], priv_src, len);
        self.trace(TraceKind::Copy, pe, len as u64);
        self.progress();
    }

    fn peer_arena_to_private(&self, pe: usize, priv_dst: usize, arena_src: usize, len: usize) {
        self.debug_assert_reachable(pe);
        CommonMemory::copy_between(&self.shared.privates[pe], priv_dst, &self.shared.arena, arena_src, len);
        self.trace(TraceKind::Copy, pe, len as u64);
        self.progress();
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
    /// What the launch attaches to instead of building its own: memory
    /// is checked out of these retired sets (scrubbed of the previous
    /// tenant's bytes) and retired back on clean completion, and the PEs
    /// run on these lanes. A panicked or wedged launch unwinds past the
    /// check-in, so its memory is dropped, and its unwound lanes end.
    /// The server threads its own through here; `None` (the default)
    /// builds both for this launch alone.
    pub resident: Option<Arc<Resident>>,
}

/// What an automatic worker or slot count (`0`) resolves to: the host's
/// parallelism, floored at 2.
pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get()).max(2)
}

impl CoopBackend {
    /// The worker count a job with `npes` PEs actually runs on.
    pub fn resolved_workers(&self, npes: usize) -> usize {
        let m = if self.workers == 0 { host_parallelism() } else { self.workers };
        m.clamp(1, npes)
    }
}

impl EngineBackend for CoopBackend {
    fn name(&self) -> &'static str {
        "coop"
    }

    fn execute<R, F>(
        &self,
        cfg: &crate::runtime::RuntimeConfig,
        faults: Option<&Arc<LaunchFaults>>,
        watch: Option<&JobWatch>,
        f: F,
    ) -> EngineOutcome<R>
    where
        R: Send,
        F: Fn(&ShmemCtx) -> R + Send + Sync,
    {
        // Ceil block; the worker count is then re-derived from it, which
        // trims the trailing empty workers the rounding would leave.
        let block = cfg.npes.div_ceil(self.resolved_workers(cfg.npes));
        let gate = |stacks: &Arc<stack::Pool>| GateSet::new(cfg.npes, block, stacks);
        run_wall(gate, self.resident.as_deref(), cfg, faults, watch, f)
    }

    fn resident(&self) -> Option<Arc<Resident>> {
        Some(self.resident.clone().unwrap_or_else(|| Arc::new(Resident::for_one_launch())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::wall::WallShared;
    use crate::fabric::{Fabric, Instruments};
    use crate::server::arena::{ArenaPool, Geometry};

    type CoopFabric = WallFabric;

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
        let (_, shared) = gate_fixture(10, block);
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
        let (_, shared) = gate_fixture(7, block);
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
        let (_, shared) = gate_fixture(6, block);
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(shared.co_resident(a, b), a == b, "({a},{b})");
            }
        }
    }

    /// On the native geometry a PE's service context is admitted while
    /// its PE holds its own gate; on a worker per PE it would queue.
    #[test]
    fn native_service_contexts_have_gates_of_their_own() {
        let native = GateSet::native(3, &Arc::default());
        assert_eq!((native.workers, native.domains), (3, 6));
        assert_eq!((native.domain_of(1), native.domain_of(3 + 1)), (1, 4));
        native.acquire(1, None);
        native.acquire(3 + 1, None);
        assert!(native.is_holding(1) && native.is_holding(3 + 1));
        native.release(3 + 1);
        native.release(1);
        let shared = GateSet::new(3, 1, &Arc::default());
        assert_eq!((shared.domains, shared.domain_of(3 + 1)), (3, 1));
    }

    /// Two contexts of one worker pass its gate back and forth on its
    /// carrier: each release hands it to the other, queued behind, and
    /// each acquire queues behind the other and parks.
    #[test]
    fn gate_admits_fifo_and_hands_off_directly() {
        use std::sync::atomic::AtomicUsize;
        let (_, shared) = gate_fixture(4, 2); // 4 PEs, 2 per worker
        let order = Mutex::new(Vec::new());
        let running = AtomicUsize::new(0);
        carry(&shared, 0, 1, &|ctx| {
            for _ in 0..100 {
                let now = running.fetch_add(1, Ordering::AcqRel);
                assert_eq!(now, 0, "two holders on one worker gate");
                order.lock().push(ctx);
                running.fetch_sub(1, Ordering::AcqRel);
                shared.release(ctx);
                shared.acquire(ctx, None);
            }
            shared.release(ctx);
        });
        let order = order.into_inner();
        assert_eq!(order.len(), 200);
        assert!(order.iter().enumerate().all(|(i, &ctx)| ctx == i % 2), "{order:?}");
        assert_eq!(shared.baton.lock(0).holder(), None);
    }

    #[test]
    fn cells_are_keyed_by_cluster_and_stable_once_created() {
        // 70 PEs, 35 per worker: `[0, 66)` and the world meet on leader
        // 35 with 31 and 35 members.
        let (_, shared) = gate_fixture(70, 35);
        let subset = shared.cell(CellKey { first: 35, count: 31 });
        let world = shared.cell(CellKey { first: 35, count: 35 });
        assert!(!std::ptr::eq(subset, world), "one leader, two memberships, two cells");
        assert!(std::ptr::eq(world, shared.cell(CellKey { first: 35, count: 35 })));
        // A row reaches to the end of the job and no further.
        assert_eq!(shared.sync_cells[35].get().unwrap().len(), 35);
        assert_eq!(shared.cell(CellKey { first: 40, count: 30 }).words[0].load(Ordering::Relaxed), 0);
        assert_eq!(shared.sync_cells[40].get().unwrap().len(), 30);
        assert!(shared.sync_cells[0].get().is_none(), "untouched leaders cost nothing");
        // Leader 0's root (leaders 0 and 35) is neither of its clusters.
        let root = shared.cell(CellKey { first: 0, count: 36 });
        assert!(!std::ptr::eq(root, shared.cell(CellKey { first: 0, count: 35 })));
        assert!(!std::ptr::eq(root, shared.cell(CellKey { first: 0, count: 1 })));
    }

    /// Main-context fabrics over a fixture launch.
    fn fabrics(wall: &Arc<WallShared>, shared: &Gated) -> Vec<CoopFabric> {
        (0..shared.npes)
            .map(|pe| CoopFabric::new(wall.clone(), pe))
            .collect()
    }

    /// The two-PE cluster led by PE 0 that the cell tests park on.
    const PAIR: CellKey = CellKey { first: 0, count: 2 };

    /// The cell word the waiters park on.
    const EPOCH: usize = 1;

    /// Carry the contexts of worker 0 on this thread: `first` starts
    /// holding the gate, `then` queued behind it, each running
    /// `body(ctx)` as a stack.
    fn carry(gate: &Gated, first: usize, then: usize, body: &dyn Fn(usize)) {
        gate.baton.start(0, first);
        gate.make_ready(then);
        gate.run(0, body);
    }

    /// Unwind message of `f`, which must panic.
    fn unwound(f: impl FnOnce() -> u64) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("it unwinds");
        *payload.downcast::<String>().expect("a formatted panic")
    }

    #[test]
    fn cell_notify_queues_the_waiter_on_the_gate_behind_the_notifier() {
        let (wall, shared) = gate_fixture(2, 2);
        let fabs = fabrics(&wall, &shared);
        let got = std::cell::Cell::new(None);
        carry(&shared, 1, 0, &|ctx| {
            let fab = &fabs[ctx];
            if ctx == 1 {
                got.set(Some(fab.sync_cell_wait_change(PAIR, EPOCH, 0)));
                assert!(shared.is_holding(1), "the wake-up is the gate grant");
                assert_eq!(wall.instruments.probes[1].blocked(), BlockedOn::Running);
                fab.gate_release();
                return;
            }
            // The waiter listed itself and handed us the gate.
            assert_eq!(shared.cell(PAIR).waiters[EPOCH].list.lock().len(), 1);
            assert_eq!(wall.instruments.probes[1].blocked(), BlockedOn::CellWait { pe: 0 });
            fab.sync_cell_add(PAIR, EPOCH, 1);
            fab.sync_cell_notify(PAIR, EPOCH);
            // Moved from the cell to the gate FIFO, not woken: it cannot
            // run before we let go of the gate, and its probe says so.
            assert!(shared.cell(PAIR).waiters[EPOCH].list.lock().is_empty());
            assert_eq!(shared.baton.queued(0), 1);
            assert!(!shared.baton.is_granted(1));
            assert_eq!(wall.instruments.probes[1].blocked(), BlockedOn::Descheduled);
            fab.gate_release();
        });
        assert_eq!(got.get(), Some(1), "the waiter saw the change");
    }

    #[test]
    fn an_aborted_cell_waiter_unwinds_without_the_gate() {
        let (wall, shared) = gate_fixture(2, 2);
        let fabs = fabrics(&wall, &shared);
        carry(&shared, 1, 0, &|ctx| {
            let fab = &fabs[ctx];
            if ctx == 1 {
                let msg = unwound(|| fab.sync_cell_wait_change(PAIR, EPOCH, 0));
                assert_eq!(msg, "PE 1: aborting — another PE panicked");
                assert!(!shared.is_holding(1), "it unwound without the gate");
            } else {
                shared.abort();
                fab.gate_release();
            }
        });
        assert_eq!(shared.baton.lock(0).holder(), None, "and handed it to nobody");
    }

    /// A receive on an empty queue and a send into a full one park on the
    /// baton, and the send or receive that ends the wait queues the
    /// parked context on its gate: the wake-up is the grant, as for a
    /// cell wait.
    #[test]
    fn a_send_and_a_receive_queue_the_context_parked_on_the_other() {
        const Q: usize = crate::fabric::Q_BARRIER;
        let (wall, shared) = fixture(2, 2, udn::fabric::UdnFabric::new_bounded(2, 1));
        let fabs = fabrics(&wall, &shared);
        carry(&shared, 1, 0, &|ctx| {
            let fab = &fabs[ctx];
            if ctx == 1 {
                assert_eq!(fab.udn_recv(Q).payload[0], 1);
                fab.gate_release();
                return;
            }
            assert_eq!(wall.instruments.probes[1].blocked(), BlockedOn::Recv { queue: Q });
            fab.udn_send(1, Q, 0, &[1]);
            assert_eq!(shared.baton.queued(0), 1);
            assert_eq!(wall.instruments.probes[1].blocked(), BlockedOn::Descheduled);
            // One packet fills the queue: this send parks, its gate going
            // to the receiver, whose receive frees the slot and queues it
            // back.
            fab.udn_send(1, Q, 0, &[2]);
            assert!(shared.is_holding(0), "the wake-up is the gate grant");
            fab.gate_release();
        });
        assert_eq!(wall.endpoints[1].try_recv(Q).expect("sent").payload[0], 2);
    }

    #[test]
    fn cell_waiter_already_queued_on_the_gate_aborts_on_admission() {
        let (wall, shared) = gate_fixture(2, 2);
        let fabs = fabrics(&wall, &shared);
        carry(&shared, 1, 0, &|ctx| {
            let fab = &fabs[ctx];
            if ctx == 1 {
                unwound(|| fab.sync_cell_wait_change(PAIR, EPOCH, 0));
                assert!(shared.is_holding(1));
                assert_eq!(shared.baton.queued(0), 0);
                fab.gate_release();
                return;
            }
            fab.sync_cell_add(PAIR, EPOCH, 1);
            fab.sync_cell_notify(PAIR, EPOCH);
            shared.aborted.store(true, Ordering::Release);
            // Queued: it must take the grant it is owed before it dies, so
            // the handoff chain behind it keeps moving (the launch scaffold
            // releases the gate of a context that died holding it).
            fab.gate_release();
        });
    }

    fn gate_fixture(npes: usize, block: usize) -> (Arc<WallShared>, Gated) {
        fixture(npes, block, udn::fabric::UdnFabric::new(npes))
    }

    fn fixture(npes: usize, block: usize, endpoints: Vec<udn::fabric::UdnEndpoint>) -> (Arc<WallShared>, Gated) {
        let gate = GateSet::new(npes, block, &Arc::default());
        let cfg = crate::runtime::RuntimeConfig::new(npes)
            .with_partition_bytes(4096)
            .with_private_bytes(64)
            .with_temp_bytes(1024);
        let set = ArenaPool::new().checkout(Geometry::of(&cfg));
        let wall = WallShared::new(&cfg, endpoints, set, gate.clone(), Instruments::new(npes, None, None));
        (wall, gate)
    }
}
