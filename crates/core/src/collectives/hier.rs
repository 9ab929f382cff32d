//! Clustered collectives, and the one function that decides who takes
//! them ([`ShmemCtx::select`]). They began as the >64-PE scaling
//! extension (the paper's TILE-Gx hardware stops at 36 tiles, but the
//! M:N coop engine runs 256–1024 PEs, where every flat algorithm's
//! serial root or O(n·log n) message volume collapses); on the coop
//! engine they are the default transport of contiguous sets at every
//! size, because PEs that share a worker share an address space and a
//! counter beats a channel token per member (the paper's own remedy,
//! §IV-E: the TMC spin barrier in place of the UDN token ring).
//!
//! Ranks are grouped into clusters of consecutive ranks; the first rank
//! of cluster `c` is its leader ([`Cluster`]). Every collective here is
//! gather → leaders → release over that grouping, on one of two
//! transports:
//!
//! * **The counter-cell pass** ([`ShmemCtx::cell_pass`]) when the
//!   fabric offers [`Locality`] and the set is contiguous: cluster `c`
//!   is *set ∩ worker shard* — whole shards in the middle, whatever the
//!   set covers of its first and last one. Members fetch-add their
//!   cluster's cell and park; the leader, alone awake among them, does
//!   the whole cluster's work by direct copies, exchanges with the
//!   other leaders, writes every member's result and releases the
//!   cluster with one epoch bump. The barrier is the payload-free
//!   instance; reduce, broadcast and `fcollect` hand it a closure.
//! * **Message trees** everywhere else (native/timed/multichip engines,
//!   strided sets, locality off) once the set is past [`FLAT_MAX`] or
//!   `Hierarchical` is configured: an intra-cluster binomial tree
//!   funnels into the leader, the leaders run a flat log-depth
//!   exchange, and a binomial tree fans back down, bracketed by two
//!   barriers. Message volume drops from `n·⌈log₂ n⌉` to roughly
//!   `2n + nc·⌈log₂ nc⌉` with `nc = ⌈n/cs⌉`.
//!
//! Every point-to-point completion flag here lives on the pairwise
//! `SEQ_PT2PT` counters, which are **shared** with recursive-doubling
//! reduce's data/ack handshake. That handshake writes flag values
//! `2*seq` and `2*seq + 1`, so every wait/set in this module uses the
//! doubled convention too — a plain `seq` would be stale-satisfied by
//! any earlier exchange on the same unordered pair (`flag_wait_ge` is
//! `>=`).
//!
//! The cluster/tree arithmetic is kept in pure functions so the
//! non-power-of-two cases (96 ranks → 3 clusters, 768 → 24) are testable
//! without spawning a single thread.

use crate::active_set::ActiveSet;
use crate::ctx::{BarrierAlgo, BroadcastAlgo, ReduceAlgo, ShmemCtx, SEQ_PT2PT};
use crate::fabric::{CellKey, Locality};
use crate::symm::{Bits, Sym};
use crate::types::{Reducible, ReduceOp};

/// Largest set the flat default algorithms serve on a fabric without
/// sync cells; past it [`ShmemCtx::select`] clusters `Ring` /
/// `Dissemination` barriers, `Pull` broadcasts and `Naive` reductions
/// whatever the fabric.
const FLAT_MAX: usize = 64;

/// Default cluster width. 32 keeps the intra-cluster trees at depth ≤5
/// while 1024 PEs still make only 32 leaders for the flat exchange.
pub(crate) const CLUSTER: usize = 32;

/// Largest power of two `<= n`.
///
/// # Panics
/// Panics if `n == 0`.
pub(crate) fn largest_pow2_le(n: usize) -> usize {
    assert!(n > 0, "no power of two <= 0");
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// Number of clusters covering `n` ranks at width `cs`.
pub(crate) fn n_clusters(n: usize, cs: usize) -> usize {
    n.div_ceil(cs)
}

/// Size of cluster `c` (the last cluster may be short).
pub(crate) fn cluster_size(c: usize, cs: usize, n: usize) -> usize {
    cs.min(n - c * cs)
}

/// Parent of node `lr` in the binomial *broadcast* tree rooted at 0:
/// strip the highest set bit. Node `lr` receives in round
/// `floor(log2 lr)` and forwards in every later round.
///
/// # Panics
/// Panics if `lr == 0` (the root has no parent).
pub(crate) fn bcast_parent(lr: usize) -> usize {
    lr - largest_pow2_le(lr)
}

/// Parent of node `lr` in the binomial *gather* (reduction) tree rooted
/// at 0: clear the lowest set bit. Node `lr` absorbs children
/// `lr + 2^k` for `k < trailing_zeros(lr)` in ascending rounds, then
/// sends upward once.
///
/// # Panics
/// Panics if `lr == 0` (the root has no parent).
pub(crate) fn gather_parent(lr: usize) -> usize {
    assert!(lr > 0, "the gather root has no parent");
    lr & (lr - 1)
}

/// Rounds of the dissemination barrier over `n` members: `⌈log₂ n⌉`.
pub(crate) fn diss_rounds(n: usize) -> u32 {
    assert!(n > 0);
    usize::BITS - (n - 1).leading_zeros()
}

/// Arrival-counter and release-epoch words of a cluster's sync cell.
const ARRIVALS: usize = 0;
const EPOCH: usize = 1;

/// How a collective entry point is configured, as far as
/// [`ShmemCtx::select`] cares.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Configured {
    /// The algorithm enum's `#[default]` (`Ring`, `Pull`, `Naive`; all
    /// `fcollect` has): nobody asked for it by name, so the library
    /// picks the transport.
    Default,
    /// `Hierarchical`, by name: clustered at every size.
    Hierarchical,
    /// `Dissemination`: a flat algorithm asked for by name, which past
    /// [`FLAT_MAX`] has always been upgraded like the default.
    FlatInRange,
    /// Any other algorithm asked for by name: honoured at every size.
    Flat,
}

impl From<BarrierAlgo> for Configured {
    fn from(a: BarrierAlgo) -> Self {
        match a {
            BarrierAlgo::Ring => Self::Default,
            BarrierAlgo::Dissemination => Self::FlatInRange,
            BarrierAlgo::RootBroadcast | BarrierAlgo::TmcSpin => Self::Flat,
            BarrierAlgo::Hierarchical => Self::Hierarchical,
        }
    }
}

impl From<BroadcastAlgo> for Configured {
    fn from(a: BroadcastAlgo) -> Self {
        match a {
            BroadcastAlgo::Pull => Self::Default,
            BroadcastAlgo::Push | BroadcastAlgo::Binomial => Self::Flat,
            BroadcastAlgo::Hierarchical => Self::Hierarchical,
        }
    }
}

impl From<ReduceAlgo> for Configured {
    fn from(a: ReduceAlgo) -> Self {
        match a {
            ReduceAlgo::Naive => Self::Default,
            ReduceAlgo::RecursiveDoubling => Self::Flat,
            ReduceAlgo::Hierarchical => Self::Hierarchical,
        }
    }
}

/// One rank's place in a clustering of `set`: cluster `c` covers ranks
/// `[c·cs − skew, (c+1)·cs − skew) ∩ [0, set.size)`. On the message
/// trees `skew` is 0 and clusters are `cs` wide from rank 0 (the last
/// may be short). On the cell pass `cs` is the worker block and `skew`
/// is how far into its shard the set starts, which makes every cluster
/// *set ∩ shard*: the first and last may both be short.
#[derive(Clone, Copy)]
pub(crate) struct Cluster<'a> {
    pub set: ActiveSet,
    pub cs: usize,
    skew: usize,
    /// This rank's cluster, that cluster's first rank (its leader) and
    /// this rank's position inside it (0 = the leader).
    pub c: usize,
    pub first: usize,
    pub lr: usize,
    /// Members in this cluster; clusters in all.
    pub m: usize,
    pub nc: usize,
    /// Set when clusters are *set ∩ worker shard*: the collective runs
    /// on [`ShmemCtx::cell_pass`] over these sync cells instead of the
    /// message trees.
    pub cells: Option<&'a dyn Locality>,
}

impl<'a> Cluster<'a> {
    fn new(set: ActiveSet, rank: usize, cs: usize, skew: usize, cells: Option<&'a dyn Locality>) -> Self {
        assert!(cs > 0 && skew < cs, "cluster width must be positive");
        let mut cl = Self { set, cs, skew, c: (rank + skew) / cs, first: 0, lr: 0, m: 0, nc: 0, cells };
        cl.first = cl.first_rank(cl.c);
        cl.lr = rank - cl.first;
        cl.m = cl.size(cl.c);
        cl.nc = n_clusters(set.size + skew, cs);
        cl
    }

    /// Rank of cluster `c`'s leader.
    fn first_rank(&self, c: usize) -> usize {
        (c * self.cs).saturating_sub(self.skew)
    }

    /// Members in cluster `c`.
    fn size(&self, c: usize) -> usize {
        ((c + 1) * self.cs - self.skew).min(self.set.size) - self.first_rank(c)
    }

    /// The cluster `rank` belongs to.
    fn cluster_of(&self, rank: usize) -> usize {
        (rank + self.skew) / self.cs
    }

    /// This rank's position in the set.
    pub fn rank(&self) -> usize {
        self.first + self.lr
    }

    /// PE of cluster `c`'s leader.
    pub fn leader_pe(&self, c: usize) -> usize {
        self.set.pe_at(self.first_rank(c))
    }

    /// PEs of this cluster's non-leader members, in rank order.
    pub fn members(&self) -> impl Iterator<Item = usize> + '_ {
        (1..self.m).map(|lr| self.set.pe_at(self.first + lr))
    }

    /// The sync cell of cluster `c`: keyed by the cluster's members,
    /// not its leader, so two live sets that meet on a leader with
    /// different memberships never add into one counter.
    fn cell(&self, c: usize) -> CellKey {
        CellKey { first: self.leader_pe(c), count: self.size(c) }
    }
}

impl ShmemCtx {
    /// The transport of one collective call on `set`: `Some(cluster)`
    /// to run it clustered — on the counter-cell pass when
    /// `cluster.cells` is set, on the message trees otherwise — or
    /// `None` for the flat algorithm `how` stands for. The one
    /// selection site: barrier, reduce, broadcast and `fcollect` each
    /// call it once per collective, and it reads nothing but its input
    /// — what the fabric offers, the set's stride and size, how many
    /// worker shards the set touches, and whether the algorithm was
    /// asked for by name.
    ///
    /// * An algorithm asked for by name is what runs
    ///   ([`Configured::Flat`]; `Dissemination` up to [`FLAT_MAX`]):
    ///   the figures, the ablations and the stress generator's
    ///   algorithm coverage depend on getting what they configured.
    /// * `Hierarchical` is clustered at every size, as it always was.
    /// * A default is clustered past [`FLAT_MAX`] on every fabric, as
    ///   it always was; and below that when the cell pass is on offer
    ///   **and some member shares a worker with its leader**
    ///   (`nc < set.size`). That is the measured crossover, not a
    ///   tunable: with one PE per worker the pass has no co-residency
    ///   to exploit and degenerates to all-leaders dissemination /
    ///   recursive doubling / n² `fcollect`, which loses to the ring
    ///   (EXPERIMENTS.md, the block-of-one rows of the sweep); with
    ///   any block ≥ 2 it wins at every size measured.
    ///
    /// Fabrics without [`Locality`] (native, timed, multichip; coop
    /// with locality off) therefore select exactly what `FLAT_MAX`
    /// alone selected before.
    pub(crate) fn select(&self, set: ActiveSet, rank: usize, how: Configured) -> Option<Cluster<'_>> {
        let past_flat = set.size > FLAT_MAX;
        if how == Configured::Flat || (how == Configured::FlatInRange && !past_flat) {
            return None;
        }
        let cl = self.cluster_for(set, rank, None);
        let clustered = how == Configured::Hierarchical
            || past_flat
            || (cl.cells.is_some() && cl.nc < set.size);
        clustered.then_some(cl)
    }

    /// `rank`'s place in the clustering a clustered collective over
    /// `set` uses. When the engine publishes a PE→worker block and the
    /// set is contiguous, clusters are *set ∩ worker shard* and the
    /// transport is the cell pass: every member of a cluster shares its
    /// leader's worker, every leader sits on its own, and each cluster
    /// has the sync cell its membership names ([`Cluster::cell`]) — so
    /// a set may start or stop anywhere inside a shard. Strided sets,
    /// like native/timed/multichip engines and locality off, take the
    /// message trees at the span-≤[`CLUSTER`] default. An explicit
    /// `width` gets the cells only if it *is* the shard clustering.
    pub(crate) fn cluster_for(&self, set: ActiveSet, rank: usize, width: Option<usize>) -> Cluster<'_> {
        if let Some(loc) = self.fab.locality().filter(|_| set.log2_stride == 0) {
            let block = loc.topology_block();
            let skew = set.start % block;
            if width.is_none_or(|w| w == block && skew == 0) {
                return Cluster::new(set, rank, block, skew, Some(loc));
            }
        }
        Cluster::new(set, rank, width.unwrap_or(CLUSTER), 0, None)
    }

    /// One gather → leaders → release pass over the *set ∩ shard*
    /// clustering: the single transport of every clustered collective
    /// on the coop engine.
    ///
    /// A member fetch-adds its cluster's arrival cell (the arrival that
    /// completes the gather wakes the leader) and parks on the release
    /// epoch with its gate released. The leader consumes its `m - 1`
    /// arrivals, disseminates with the other leaders — after which
    /// **every** rank of the set has entered this call and every
    /// non-leader is parked — runs `lead`, then bumps the epoch and
    /// requeues its cluster with one notify. The barrier passes an
    /// empty `lead`.
    ///
    /// What `lead` may touch (DESIGN.md §6): the user buffers of its
    /// own parked members, which nobody else reads or writes between
    /// their arrival and their release; and, because the dissemination
    /// is behind it, the buffers of other *leaders* — each of which
    /// answers for its own use of them until it releases.
    ///
    /// Cell reuse across instances: a member reads the epoch *before*
    /// adding its arrival, so a release between those two points still
    /// satisfies its wait; the leader subtracts the arrivals it
    /// consumed *before* releasing, and no member can start a later
    /// pass (and re-add) until it is released from this one — so counts
    /// from successive instances never mix. Counts from different
    /// *sets* never mix because the cell is keyed by the cluster
    /// ([`Cluster::cell`]): two sets reach the same cell only if they
    /// have the same members in this shard, so both expect the same
    /// `m - 1` arrivals from the same PEs, which call them in one
    /// program order; sets that merely share the leader (`[0, 66)` and
    /// the world on 70 PEs / 2 workers) count on different cells.
    /// Ordering is AcqRel through the cells (see
    /// [`Locality::sync_cell_add`]), giving the same
    /// all-prior-writes-visible guarantee the message barrier gets from
    /// channel edges. Every arrival and release is a counted op and
    /// parked waiters publish
    /// [`BlockedOn::CellWait`](crate::fabric::BlockedOn::CellWait), so
    /// the stall watchdog both sees the pass progressing and can name
    /// the cell a wedged member is stuck on.
    pub(crate) fn cell_pass(&self, cells: &dyn Locality, cl: &Cluster, lead: impl FnOnce()) {
        let cell = cl.cell(cl.c);
        if cl.lr > 0 {
            let e0 = cells.sync_cell_load(cell, EPOCH);
            self.cell_signal(cells, cell, cl.m - 1);
            cells.sync_cell_wait_change(cell, EPOCH, e0);
            return;
        }
        self.cell_await(cells, cell, cl.m - 1);
        self.leader_dissemination(cl);
        lead();
        cells.sync_cell_add(cell, EPOCH, 1);
        cells.sync_cell_notify(cell, EPOCH);
    }

    /// Add one arrival to `cell`; the one that completes `count` wakes
    /// the cluster's leader (intermediate arrivals change the count
    /// without a notify, which `sync_cell_wait_change` permits). Used
    /// by members during the gather and by leaders telling each other
    /// "my copy into/out of your buffers is done" inside `lead` — the
    /// two never overlap on one cell, since a leader inside `lead` has
    /// consumed its gather and its members stay parked.
    fn cell_signal(&self, cells: &dyn Locality, cell: CellKey, count: usize) {
        if cells.sync_cell_add(cell, ARRIVALS, 1) as usize + 1 == count {
            cells.sync_cell_notify(cell, ARRIVALS);
        }
    }

    /// Leader side of [`ShmemCtx::cell_signal`] on its own cluster's
    /// `cell`: park until `count` arrivals are in, then consume exactly
    /// those (wrapping add of the negation), restoring the cell before
    /// anyone is released into its next use.
    fn cell_await(&self, cells: &dyn Locality, cell: CellKey, count: usize) {
        let mut cur = cells.sync_cell_load(cell, ARRIVALS);
        while (cur as usize) < count {
            cur = cells.sync_cell_wait_change(cell, ARRIVALS, cur);
        }
        cells.sync_cell_add(cell, ARRIVALS, (count as u64).wrapping_neg());
    }

    /// Hierarchical reduction with the topology-aligned cluster width
    /// (explicit, like [`ShmemCtx::reduce_naive`] and friends).
    pub fn reduce_hier<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
        set: ActiveSet,
        rank: usize,
    ) {
        self.reduce_clustered(op, dest, source, nreduce, &self.cluster_for(set, rank, None));
    }

    /// [`ShmemCtx::reduce_hier`] with an explicit cluster width, so the
    /// equivalence suite can exercise odd cluster geometries on small
    /// sets.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_hier_with<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
        set: ActiveSet,
        rank: usize,
        cs: usize,
    ) {
        self.reduce_clustered(op, dest, source, nreduce, &self.cluster_for(set, rank, Some(cs)));
    }

    pub(crate) fn reduce_clustered<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
        cl: &Cluster,
    ) {
        let me = self.my_pe();
        if let Some(cells) = cl.cells {
            // The leader folds its parked members' `source` straight
            // into its own `dest`, reduces across the leaders, and
            // hands every member the result.
            self.complete_puts();
            return self.cell_pass(cells, cl, || {
                self.put_sym(dest, 0, source, 0, nreduce, me);
                for pe in cl.members() {
                    self.fold_peer_source(op, dest, source, nreduce, pe);
                }
                self.leaders_recursive_doubling(op, dest, nreduce, cl);
                for pe in cl.members() {
                    self.put_sym(dest, 0, dest, 0, nreduce, pe);
                }
            });
        }
        let Cluster { set, first, lr, m, .. } = *cl;
        self.sync_set(set);
        // Seed the accumulator with our own contribution.
        self.put_sym(dest, 0, source, 0, nreduce, me);

        // Phase 1: binomial fold into the cluster leader. In round k a
        // node whose low k+1 bits read 10…0 pushes its accumulator to
        // the gather parent; nodes with low bits 0…0 absorb.
        let mut span = 1usize;
        while span < m {
            if lr % (2 * span) == span {
                debug_assert_eq!(gather_parent(lr), lr - span);
                self.fold_into(dest, nreduce, set.pe_at(first + lr - span));
                break;
            }
            if lr.is_multiple_of(2 * span) && lr + span < m {
                self.fold_from(op, dest, nreduce, set.pe_at(first + lr + span));
            }
            span <<= 1;
        }

        // Phase 2: across the leaders.
        if lr == 0 {
            self.leaders_recursive_doubling(op, dest, nreduce, cl);
        }

        // Phase 3: binomial push-down of the finished result inside each
        // cluster (broadcast tree — different edges than the gather
        // tree, which is fine: the pairwise counters order each pair
        // independently).
        if lr > 0 {
            let parent_pe = set.pe_at(first + bcast_parent(lr));
            let seq = self.next_seq(SEQ_PT2PT, parent_pe, me);
            self.flag_wait_ge(self.layout.pt2pt_flags, parent_pe, 2 * seq);
        }
        let mut span = 1usize;
        while span < m {
            if lr < span && lr + span < m {
                let child_pe = set.pe_at(first + lr + span);
                self.put_sym(dest, 0, dest, 0, nreduce, child_pe);
                self.complete_puts();
                let seq = self.next_seq(SEQ_PT2PT, child_pe, me);
                self.flag_set(child_pe, self.layout.pt2pt_flags, me, 2 * seq);
            }
            span <<= 1;
        }
        self.sync_set(set);
    }

    /// `dest[i] = op(dest[i], source[i] on pe)` on this PE's copy of
    /// `dest`, in place. `pe` is a member of our shard parked in
    /// [`ShmemCtx::cell_pass`], so its `source` is directly addressable
    /// and nobody writes it until we release.
    fn fold_peer_source<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
        pe: usize,
    ) {
        if nreduce == 0 {
            return;
        }
        let theirs = self
            .ptr(&source.slice(0, nreduce), pe)
            .expect("reduce operands are dynamic symmetric objects");
        assert_eq!(theirs as usize % std::mem::align_of::<T>(), 0, "unaligned symmetric data");
        self.with_local_mut(&dest.slice(0, nreduce), |acc| {
            // SAFETY: `ptr` bounds-checked `nreduce` elements inside
            // `pe`'s partition, which is disjoint from ours (`acc`),
            // and alignment is asserted above; the owner is parked
            // until we release it, and its arrival on the cell (AcqRel)
            // published what it wrote.
            let theirs = unsafe { std::slice::from_raw_parts(theirs.cast_const(), nreduce) };
            for (a, b) in acc.iter_mut().zip(theirs) {
                *a = T::reduce(op, *a, *b);
            }
        });
    }

    /// Recursive doubling of `dest` across the cluster leaders (called
    /// by leaders only), with the non-power-of-two excess folded into
    /// the power-of-two core first — the same scheme as the flat RD
    /// reduce, audited at `nc` = 3 and 24 by the unit tests below. Data
    /// moves through the per-sender temp slots under the `2*seq` /
    /// `2*seq + 1` handshake, chunked when `nreduce` exceeds a slot.
    fn leaders_recursive_doubling<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        nreduce: usize,
        cl: &Cluster,
    ) {
        let (c, nc, me) = (cl.c, cl.nc, self.my_pe());
        let p2 = largest_pow2_le(nc);
        if c >= p2 {
            let partner = cl.leader_pe(c - p2);
            self.fold_into(dest, nreduce, partner);
            let seq = self.next_seq(SEQ_PT2PT, partner, me);
            // Doubled convention — see the module docs.
            self.flag_wait_ge(self.layout.pt2pt_flags, partner, 2 * seq);
            return;
        }
        if c + p2 < nc {
            self.fold_from(op, dest, nreduce, cl.leader_pe(c + p2));
        }
        let mut k = 1usize;
        while k < p2 {
            self.exchange_combine(op, dest, nreduce, cl.leader_pe(c ^ k));
            k <<= 1;
        }
        if c + p2 < nc {
            let partner = cl.leader_pe(c + p2);
            self.put_sym(dest, 0, dest, 0, nreduce, partner);
            self.complete_puts();
            let seq = self.next_seq(SEQ_PT2PT, partner, me);
            self.flag_set(partner, self.layout.pt2pt_flags, me, 2 * seq);
        }
    }

    /// Hierarchical broadcast with the topology-aligned cluster width.
    pub fn broadcast_hier<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        root_rank: usize,
        set: ActiveSet,
    ) {
        let rank = self.collective_checks(source, nelems, root_rank, set);
        self.broadcast_clustered(dest, source, nelems, root_rank, &self.cluster_for(set, rank, None));
    }

    /// [`ShmemCtx::broadcast_hier`] with an explicit cluster width.
    ///
    /// On the message trees ranks are rotated so the root is virtual
    /// rank 0 — the leader of cluster 0 and the root of both tree
    /// levels. Per the OpenSHMEM spec the root's `dest` is never
    /// written: virtual rank 0 has no parent in either tree and
    /// forwards straight from `source`.
    #[doc(hidden)]
    pub fn broadcast_hier_with<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        root_rank: usize,
        set: ActiveSet,
        cs: usize,
    ) {
        let rank = self.collective_checks(source, nelems, root_rank, set);
        self.broadcast_clustered(dest, source, nelems, root_rank, &self.cluster_for(set, rank, Some(cs)));
    }

    pub(crate) fn broadcast_clustered<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        root_rank: usize,
        cl: &Cluster,
    ) {
        if let Some(cells) = cl.cells {
            return self.broadcast_cells(cells, dest, source, nelems, root_rank, cl);
        }
        // Message trees: clusters are `cs` wide from (virtual) rank 0.
        let Cluster { set, cs, .. } = *cl;
        let rank = cl.rank();
        self.sync_set(set);
        let n = set.size;
        let me = self.my_pe();
        let vr = (rank + n - root_rank) % n;
        let c = vr / cs;
        let lvr = vr % cs;
        let m = cluster_size(c, cs, n);
        let nc = n_clusters(n, cs);
        let pe_of_v = |v: usize| set.pe_at((v + root_rank) % n);

        // Phase A: binomial tree over the cluster leaders, rooted at
        // the root's cluster.
        if lvr == 0 {
            if c > 0 {
                let parent_pe = pe_of_v(bcast_parent(c) * cs);
                let seq = self.next_seq(SEQ_PT2PT, parent_pe, me);
                // Doubled convention — see the module docs.
                self.flag_wait_ge(self.layout.pt2pt_flags, parent_pe, 2 * seq);
            }
            let from: Sym<T> = if vr == 0 { *source } else { *dest };
            let mut span = 1usize;
            while span < nc {
                if c < span && c + span < nc {
                    let child_pe = pe_of_v((c + span) * cs);
                    assert!(nelems <= dest.len(), "broadcast dest too small");
                    self.put_sym(dest, 0, &from, 0, nelems, child_pe);
                    self.complete_puts();
                    let seq = self.next_seq(SEQ_PT2PT, child_pe, me);
                    self.flag_set(child_pe, self.layout.pt2pt_flags, me, 2 * seq);
                }
                span <<= 1;
            }
        } else {
            let parent_pe = pe_of_v(c * cs + bcast_parent(lvr));
            let seq = self.next_seq(SEQ_PT2PT, parent_pe, me);
            self.flag_wait_ge(self.layout.pt2pt_flags, parent_pe, 2 * seq);
        }

        // Phase B: binomial tree down each cluster from its leader.
        let from: Sym<T> = if vr == 0 { *source } else { *dest };
        let mut span = 1usize;
        while span < m {
            if lvr < span && lvr + span < m {
                let child_pe = pe_of_v(c * cs + lvr + span);
                assert!(nelems <= dest.len(), "broadcast dest too small");
                self.put_sym(dest, 0, &from, 0, nelems, child_pe);
                self.complete_puts();
                let seq = self.next_seq(SEQ_PT2PT, child_pe, me);
                self.flag_set(child_pe, self.layout.pt2pt_flags, me, 2 * seq);
            }
            span <<= 1;
        }
        self.sync_set(set);
    }

    /// Broadcast on the cell pass: every leader pulls the root's
    /// `source` once and copies it into each of its members' `dest`.
    /// The root may overwrite `source` the moment it is released, so
    /// its leader releases only after every other leader has signalled
    /// that its pull is done. The root's own `dest` is never written.
    fn broadcast_cells<T: Bits>(
        &self,
        cells: &dyn Locality,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        root_rank: usize,
        cl: &Cluster,
    ) {
        self.complete_puts();
        self.cell_pass(cells, cl, || {
            let me = self.my_pe();
            let root_pe = cl.set.pe_at(root_rank);
            let root_cell = cl.cell(cl.cluster_of(root_rank));
            let from = if me == root_pe {
                *source
            } else {
                self.get_sym(dest, 0, source, 0, nelems, root_pe);
                *dest
            };
            if me != root_cell.first {
                self.cell_signal(cells, root_cell, cl.nc - 1);
            }
            for pe in cl.members().filter(|&pe| pe != root_pe) {
                self.put_sym(dest, 0, &from, 0, nelems, pe);
            }
            if me == root_cell.first {
                self.cell_await(cells, root_cell, cl.nc - 1);
            }
        });
    }

    /// `fcollect` on the cell pass: each leader assembles its cluster's
    /// contiguous range in its own `dest`, pushes that range into every
    /// other leader's `dest` and signals it, waits for the `nc - 1`
    /// ranges it is owed, and copies the finished concatenation into
    /// each member's `dest`.
    pub(crate) fn fcollect_cells<T: Bits>(
        &self,
        cells: &dyn Locality,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        cl: &Cluster,
    ) {
        self.complete_puts();
        self.cell_pass(cells, cl, || {
            let me = self.my_pe();
            let first = cl.first * nelems;
            self.put_sym(dest, first, source, 0, nelems, me);
            for (i, pe) in cl.members().enumerate() {
                self.get_sym(dest, first + (i + 1) * nelems, source, 0, nelems, pe);
            }
            // Start at our successor so the leaders do not all write
            // into leader 0 first.
            for d in 1..cl.nc {
                let peer = cl.cell((cl.c + d) % cl.nc);
                self.put_sym(dest, first, dest, first, cl.m * nelems, peer.first);
                self.cell_signal(cells, peer, cl.nc - 1);
            }
            self.cell_await(cells, cl.cell(cl.c), cl.nc - 1);
            for pe in cl.members() {
                self.put_sym(dest, 0, dest, 0, cl.set.size * nelems, pe);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_pow2_le_matches_naive_scan() {
        for n in 1..=1025usize {
            let mut p = 1usize;
            while p * 2 <= n {
                p *= 2;
            }
            assert_eq!(largest_pow2_le(n), p, "n={n}");
        }
        assert_eq!(largest_pow2_le(768), 512);
        assert_eq!(largest_pow2_le(1024), 1024);
    }

    #[test]
    fn cluster_geometry_covers_every_rank_exactly_once() {
        for (n, cs) in [(96, 32), (768, 32), (1024, 32), (96, 7), (65, 64), (5, 8)] {
            let nc = n_clusters(n, cs);
            let total: usize = (0..nc).map(|c| cluster_size(c, cs, n)).sum();
            assert_eq!(total, n, "n={n} cs={cs}");
            for c in 0..nc {
                let m = cluster_size(c, cs, n);
                assert!(m >= 1 && m <= cs, "n={n} cs={cs} c={c} m={m}");
            }
            assert_eq!(n_clusters(96, 32), 3);
            assert_eq!(n_clusters(768, 32), 24);
        }
    }

    /// Skewed clustering is *set ∩ shard*: replay it against plain
    /// PE-over-block arithmetic for every contiguous set of a 23-PE job
    /// at a few block sizes (short trailing shard included).
    #[test]
    fn skewed_clusters_are_the_set_cut_by_shard_boundaries() {
        let npes = 23;
        for block in [1usize, 2, 5, 8, 23] {
            for start in 0..npes {
                for size in 1..=npes - start {
                    let set = ActiveSet::new(start, 0, size);
                    let shard = |pe: usize| pe / block;
                    let nc = shard(start + size - 1) - shard(start) + 1;
                    for rank in 0..size {
                        let cl = Cluster::new(set, rank, block, start % block, None);
                        let pe = start + rank;
                        let mates: Vec<usize> = // cold: test harness
                            (start..start + size).filter(|&p| shard(p) == shard(pe)).collect();
                        assert_eq!(cl.nc, nc, "{set:?} block {block}");
                        assert_eq!(cl.c, shard(pe) - shard(start));
                        assert_eq!((cl.rank(), cl.m, cl.lr), (rank, mates.len(), pe - mates[0]));
                        assert_eq!(cl.leader_pe(cl.c), mates[0]);
                        assert_eq!(cl.cluster_of(rank), cl.c);
                        assert_eq!(cl.cell(cl.c), CellKey { first: mates[0], count: mates.len() });
                        assert_eq!(cl.members().collect::<Vec<_>>(), mates[1..]); // cold: test harness
                    }
                    let cl = Cluster::new(set, 0, block, start % block, None);
                    assert_eq!((0..nc).map(|c| cl.size(c)).sum::<usize>(), size);
                }
            }
        }
    }

    #[test]
    fn diss_rounds_is_ceil_log2() {
        assert_eq!(diss_rounds(1), 0);
        assert_eq!(diss_rounds(2), 1);
        assert_eq!(diss_rounds(3), 2);
        assert_eq!(diss_rounds(24), 5);
        assert_eq!(diss_rounds(32), 5);
        for n in 1..=1024usize {
            let r = diss_rounds(n);
            let mut dist = 1usize;
            let mut rounds = 0;
            while dist < n {
                dist <<= 1;
                rounds += 1;
            }
            assert_eq!(r, rounds, "n={n}");
        }
    }

    /// Replay the broadcast tree exactly as the production loops walk
    /// it and check every node is reached exactly once, from a parent
    /// that [`bcast_parent`] agrees on.
    #[test]
    fn bcast_tree_reaches_every_node_once() {
        let sizes = (1..=70usize).chain([96, 768, 1024]);
        for m in sizes {
            let mut from = vec![usize::MAX; m]; // cold: test harness
            from[0] = 0;
            let mut span = 1usize;
            while span < m {
                for lr in 0..span.min(m) {
                    if lr + span < m {
                        assert_ne!(from[lr], usize::MAX, "m={m}: {lr} sends before reached");
                        assert_eq!(from[lr + span], usize::MAX, "m={m}: {} reached twice", lr + span);
                        from[lr + span] = lr;
                    }
                }
                span <<= 1;
            }
            for (lr, &f) in from.iter().enumerate().skip(1) {
                assert_eq!(f, bcast_parent(lr), "m={m} lr={lr}");
                assert!(bcast_parent(lr) < lr);
            }
        }
    }

    /// Replay the gather tree: every non-root sends exactly once, to
    /// [`gather_parent`], and the receiver-side round condition accepts
    /// exactly those sends.
    #[test]
    fn gather_tree_funnels_every_node_into_the_root() {
        let sizes = (1..=70usize).chain([96, 768, 1024]);
        for m in sizes {
            let mut sent_to = vec![usize::MAX; m]; // cold: test harness
            let mut recv_count = vec![0usize; m]; // cold: test harness
            for lr in 0..m {
                let mut span = 1usize;
                while span < m {
                    if lr % (2 * span) == span {
                        sent_to[lr] = lr - span;
                        break;
                    }
                    if lr % (2 * span) == 0 && lr + span < m {
                        recv_count[lr] += 1;
                    }
                    span <<= 1;
                }
            }
            assert_eq!(sent_to[0], usize::MAX, "m={m}: root must not send");
            for (lr, &s) in sent_to.iter().enumerate().skip(1) {
                assert_eq!(s, gather_parent(lr), "m={m} lr={lr}");
            }
            for (parent, &rc) in recv_count.iter().enumerate() {
                let children = (0..m).filter(|&l| l > 0 && sent_to[l] == parent).count();
                assert_eq!(rc, children, "m={m} parent={parent}");
            }
            assert_eq!(recv_count.iter().sum::<usize>(), m.saturating_sub(1));
        }
    }

    /// Simulate the leader-phase recursive doubling (excess fold, XOR
    /// rounds, push-back) on contributor *sets* and check every leader
    /// ends with all contributions — the non-power-of-two audit at the
    /// leader counts the 96/768/1024-PE jobs actually produce.
    #[test]
    fn leader_recursive_doubling_combines_all_contributions() {
        for nc in (1..=33usize).chain([n_clusters(96, 32), n_clusters(768, 32), 24, 48]) {
            let mut have: Vec<u128> = (0..nc).map(|c| 1u128 << c).collect(); // cold: test harness
            let p2 = largest_pow2_le(nc);
            // Excess leaders fold into the core.
            for c in p2..nc {
                have[c - p2] |= have[c];
            }
            // XOR rounds within the power-of-two core.
            let mut k = 1usize;
            while k < p2 {
                let snapshot = have.clone(); // cold: test harness
                for c in 0..p2 {
                    have[c] |= snapshot[c ^ k];
                }
                k <<= 1;
            }
            // Push-back to the excess.
            for c in p2..nc {
                have[c] = have[c - p2];
            }
            let all = (1u128 << nc) - 1;
            for (c, h) in have.iter().enumerate() {
                assert_eq!(*h, all, "nc={nc} leader {c} missing contributions");
            }
        }
    }
}
