//! The counter-cell pass, and the one function that decides who takes
//! it (`ShmemCtx::select`). PEs that share a worker of the M:N coop
//! engine share an address space, and a counter beats a channel token
//! per member — the paper's own remedy, §IV-E: the TMC spin barrier in
//! place of the UDN token ring. Everywhere else a collective runs the
//! flat algorithm it was configured with, at every size.
//!
//! Ranks are grouped into clusters of consecutive ranks; the first rank
//! of cluster `c` is its leader (`Cluster`). Cluster `c` is *set ∩
//! worker shard* — whole shards in the middle, whatever the set covers
//! of its first and last one. Members fetch-add their cluster's cell and
//! park; the leader, alone awake among them, does the whole cluster's
//! work by direct copies, exchanges with the other leaders, writes every
//! member's result and releases the cluster with one epoch bump
//! (`ShmemCtx::cell_pass`). The barrier is the payload-free instance;
//! reduce, broadcast and `fcollect` hand it a closure.
//!
//! The leaders' reduce exchange uses the pairwise `SEQ_PT2PT` counters,
//! which are **shared** with recursive-doubling reduce's data/ack
//! handshake. That handshake writes flag values `2*seq` and
//! `2*seq + 1`, so every wait/set here uses the doubled convention too —
//! a plain `seq` would be stale-satisfied by any earlier exchange on the
//! same unordered pair (`flag_wait_ge` is `>=`).

use crate::active_set::ActiveSet;
use crate::ctx::{BarrierAlgo, BroadcastAlgo, ReduceAlgo, ShmemCtx, SEQ_PT2PT};
use crate::fabric::{CellKey, Locality};
use crate::symm::{Bits, Sym};
use crate::types::{Reducible, ReduceOp};

/// Largest set a default algorithm serves flat on a fabric with sync
/// cells when no member shares a worker with its leader; past it
/// [`ShmemCtx::select`] puts every contiguous set on the cell pass.
const FLAT_MAX: usize = 64;

/// Largest power of two `<= n`.
///
/// # Panics
/// Panics if `n == 0`.
pub(crate) fn largest_pow2_le(n: usize) -> usize {
    assert!(n > 0, "no power of two <= 0");
    1 << (usize::BITS - 1 - n.leading_zeros())
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
    /// `Dissemination`: a flat algorithm asked for by name, which past
    /// [`FLAT_MAX`] takes the cell pass like the default.
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
        }
    }
}

impl From<BroadcastAlgo> for Configured {
    fn from(a: BroadcastAlgo) -> Self {
        match a {
            BroadcastAlgo::Pull => Self::Default,
            BroadcastAlgo::Push | BroadcastAlgo::Binomial => Self::Flat,
        }
    }
}

impl From<ReduceAlgo> for Configured {
    fn from(a: ReduceAlgo) -> Self {
        match a {
            ReduceAlgo::Naive => Self::Default,
            ReduceAlgo::RecursiveDoubling => Self::Flat,
        }
    }
}

/// One rank's place in the *set ∩ shard* clustering of a contiguous
/// `set`: cluster `c` covers ranks `[c·cs − skew, (c+1)·cs − skew) ∩
/// [0, set.size)`, where `cs` is the worker block and `skew` is how far
/// into its shard the set starts — so the first and last cluster may
/// both be short.
#[derive(Clone, Copy)]
pub(crate) struct Cluster<'a> {
    pub set: ActiveSet,
    cs: usize,
    skew: usize,
    /// This rank's cluster, that cluster's first rank (its leader) and
    /// this rank's position inside it (0 = the leader).
    pub c: usize,
    pub first: usize,
    pub lr: usize,
    /// Members in this cluster; clusters in all.
    pub m: usize,
    pub nc: usize,
    /// The sync cells the pass runs on.
    pub cells: &'a dyn Locality,
}

impl<'a> Cluster<'a> {
    fn new(set: ActiveSet, rank: usize, cs: usize, skew: usize, cells: &'a dyn Locality) -> Self {
        assert!(cs > 0 && skew < cs, "cluster width must be positive");
        let mut cl = Self { set, cs, skew, c: (rank + skew) / cs, first: 0, lr: 0, m: 0, nc: 0, cells };
        cl.first = cl.first_rank(cl.c);
        cl.lr = rank - cl.first;
        cl.m = cl.size(cl.c);
        cl.nc = (set.size + skew).div_ceil(cs);
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
    /// to run it on the counter-cell pass, or `None` for the flat
    /// algorithm `how` stands for. The one selection site: barrier,
    /// reduce, broadcast and `fcollect` each call it once per
    /// collective, and it reads nothing but its input — what the fabric
    /// offers, the set's stride and size, how many worker shards the
    /// set touches, and whether the algorithm was asked for by name.
    ///
    /// * An algorithm asked for by name is what runs
    ///   ([`Configured::Flat`]; `Dissemination` up to [`FLAT_MAX`]):
    ///   the figures, the ablations and the stress generator's
    ///   algorithm coverage depend on getting what they configured.
    /// * With cells on offer and a contiguous set, a default takes the
    ///   pass past [`FLAT_MAX`], and below that **when some member
    ///   shares a worker with its leader** (`nc < set.size`). That is
    ///   the measured crossover, not a tunable: with one PE per worker
    ///   the pass has no co-residency to exploit and degenerates to
    ///   all-leaders dissemination / recursive doubling / n² `fcollect`,
    ///   which loses to the ring (EXPERIMENTS.md, the block-of-one rows
    ///   of the sweep); with any block ≥ 2 it wins at every size
    ///   measured.
    /// * Everywhere else — fabrics without [`Locality`] (native, timed;
    ///   coop with locality off) and strided sets — the configured flat
    ///   algorithm runs at every size.
    pub(crate) fn select(&self, set: ActiveSet, rank: usize, how: Configured) -> Option<Cluster<'_>> {
        let past_flat = set.size > FLAT_MAX;
        if how == Configured::Flat || (how == Configured::FlatInRange && !past_flat) {
            return None;
        }
        self.cluster_for(set, rank).filter(|cl| past_flat || cl.nc < set.size)
    }

    /// `rank`'s place in the *set ∩ shard* clustering of `set`, when the
    /// engine publishes a PE→worker block and the set is contiguous:
    /// every member of a cluster shares its leader's worker, every
    /// leader sits on its own, and each cluster has the sync cell its
    /// membership names ([`Cluster::cell`]) — so a set may start or stop
    /// anywhere inside a shard. `None` for strided sets and on fabrics
    /// without [`Locality`].
    pub(crate) fn cluster_for(&self, set: ActiveSet, rank: usize) -> Option<Cluster<'_>> {
        let cells = self.fab.locality().filter(|_| set.log2_stride == 0)?;
        let block = cells.topology_block();
        Some(Cluster::new(set, rank, block, set.start % block, cells))
    }

    /// One gather → leaders → release pass over the *set ∩ shard*
    /// clustering: the single transport of every clustered collective.
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
    pub(crate) fn cell_pass(&self, cl: &Cluster, lead: impl FnOnce()) {
        let (cells, cell) = (cl.cells, cl.cell(cl.c));
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

    /// Clustered reduction by name (the scaling probes): the cell pass
    /// wherever the fabric has cells for `set`, otherwise what
    /// [`ShmemCtx::reduce`] runs.
    pub fn reduce_hier<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
        set: ActiveSet,
        rank: usize,
    ) {
        match self.cluster_for(set, rank) {
            Some(cl) => self.reduce_cells(op, dest, source, nreduce, &cl),
            None => self.reduce(op, dest, source, nreduce, set),
        }
    }

    /// Reduce on the cell pass: the leader folds its parked members'
    /// `source` straight into its own `dest`, reduces across the
    /// leaders, and hands every member the result.
    pub(crate) fn reduce_cells<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
        cl: &Cluster,
    ) {
        let me = self.my_pe();
        self.complete_puts();
        self.cell_pass(cl, || {
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

    /// Clustered broadcast by name (the scaling probes): the cell pass
    /// wherever the fabric has cells for `set`, otherwise what
    /// [`ShmemCtx::broadcast`] runs.
    pub fn broadcast_hier<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        root_rank: usize,
        set: ActiveSet,
    ) {
        let rank = set
            .rank_of(self.my_pe())
            .unwrap_or_else(|| panic!("PE {} not in active set", self.my_pe()));
        match self.cluster_for(set, rank) {
            Some(cl) => self.broadcast_cells(dest, source, nelems, root_rank, &cl),
            None => self.broadcast(dest, source, nelems, root_rank, set),
        }
    }

    /// Broadcast on the cell pass: every leader pulls the root's
    /// `source` once and copies it into each of its members' `dest`.
    /// The root may overwrite `source` the moment it is released, so
    /// its leader releases only after every other leader has signalled
    /// that its pull is done. The root's own `dest` is never written.
    pub(crate) fn broadcast_cells<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        root_rank: usize,
        cl: &Cluster,
    ) {
        self.collective_checks(source, nelems, root_rank, cl.set);
        self.complete_puts();
        self.cell_pass(cl, || {
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
                self.cell_signal(cl.cells, root_cell, cl.nc - 1);
            }
            for pe in cl.members().filter(|&pe| pe != root_pe) {
                self.put_sym(dest, 0, &from, 0, nelems, pe);
            }
            if me == root_cell.first {
                self.cell_await(cl.cells, root_cell, cl.nc - 1);
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
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        cl: &Cluster,
    ) {
        self.complete_puts();
        self.cell_pass(cl, || {
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
                self.cell_signal(cl.cells, peer, cl.nc - 1);
            }
            self.cell_await(cl.cells, cl.cell(cl.c), cl.nc - 1);
            for pe in cl.members() {
                self.put_sym(dest, 0, dest, 0, cl.set.size * nelems, pe);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cluster geometry without an engine: no test here touches a cell.
    struct NoCells;

    impl Locality for NoCells {
        fn co_resident(&self, _: usize) -> bool { unreachable!() }
        fn topology_block(&self) -> usize { unreachable!() }
        fn sync_cell_add(&self, _: CellKey, _: usize, _: u64) -> u64 { unreachable!() }
        fn sync_cell_load(&self, _: CellKey, _: usize) -> u64 { unreachable!() }
        fn sync_cell_wait_change(&self, _: CellKey, _: usize, _: u64) -> u64 { unreachable!() }
        fn sync_cell_notify(&self, _: CellKey, _: usize) { unreachable!() }
        fn peer_private_write(&self, _: usize, _: usize, _: &[u8]) { unreachable!() }
        fn peer_private_read(&self, _: usize, _: usize, _: &mut [u8]) { unreachable!() }
        fn peer_private_to_arena(&self, _: usize, _: usize, _: usize, _: usize) { unreachable!() }
        fn peer_arena_to_private(&self, _: usize, _: usize, _: usize, _: usize) { unreachable!() }
    }

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
                        let cl = Cluster::new(set, rank, block, start % block, &NoCells);
                        let pe = start + rank;
                        let mates: Vec<usize> = // cold: test harness
                            (start..start + size).filter(|&p| shard(p) == shard(pe)).collect();
                        assert_eq!(cl.nc, nc, "{set:?} block {block}");
                        assert_eq!(cl.c, shard(pe) - shard(start));
                        assert_eq!((cl.first + cl.lr, cl.m, cl.lr), (rank, mates.len(), pe - mates[0]));
                        assert_eq!(cl.leader_pe(cl.c), mates[0]);
                        assert_eq!(cl.cluster_of(rank), cl.c);
                        assert_eq!(cl.cell(cl.c), CellKey { first: mates[0], count: mates.len() });
                        assert_eq!(cl.members().collect::<Vec<_>>(), mates[1..]); // cold: test harness
                    }
                    let cl = Cluster::new(set, 0, block, start % block, &NoCells);
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

    /// Simulate the leader-phase recursive doubling (excess fold, XOR
    /// rounds, push-back) on contributor *sets* and check every leader
    /// ends with all contributions — the non-power-of-two audit at the
    /// leader counts 96/768/1024-PE jobs produce (3, 24, 48).
    #[test]
    fn leader_recursive_doubling_combines_all_contributions() {
        for nc in (1..=33usize).chain([48]) {
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
