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
//! of its first and last one. The pass is a two-level tree of one
//! primitive, a sync cell (`ShmemCtx::cell_pass`): members fetch-add
//! their cluster's cell and park; each leader, alone awake among them,
//! does its cluster's share by direct copies and meets the other leaders
//! on one root cell; leader 0, alone awake among the leaders, combines
//! across clusters and releases them; each leader then writes its
//! members' results and releases its cluster with one epoch bump. The
//! barrier is the payload-free instance; reduce, broadcast and
//! `fcollect` hand it an *up*, a *root* and a *down* step, and
//! `alltoall` / `alltoalls` a root step alone: the one point where every
//! rank has entered and none is released, so leader 0 copies every
//! block of the transpose there, straight through the one arena.

use crate::active_set::ActiveSet;
use crate::ctx::{BarrierAlgo, BroadcastAlgo, ReduceAlgo, ShmemCtx};
use crate::fabric::{CellKey, Locality};
use crate::symm::{Bits, Sym};
use crate::types::{Reducible, ReduceOp};

/// Arrival-counter and release-epoch words of a sync cell.
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
    /// Any other algorithm, asked for by name: honoured at every size.
    Flat,
}

impl From<BarrierAlgo> for Configured {
    fn from(a: BarrierAlgo) -> Self {
        match a {
            BarrierAlgo::Ring => Self::Default,
            BarrierAlgo::Dissemination | BarrierAlgo::RootBroadcast | BarrierAlgo::TmcSpin => {
                Self::Flat
            }
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

    /// PE of cluster `c`'s leader.
    pub fn leader_pe(&self, c: usize) -> usize {
        self.set.pe_at(self.first_rank(c))
    }

    /// PEs of this cluster's non-leader members, in rank order.
    pub fn members(&self) -> impl Iterator<Item = usize> + '_ {
        (1..self.m).map(|lr| self.set.pe_at(self.first + lr))
    }

    /// PEs of every leader but leader 0's, in rank order.
    fn other_leaders(&self) -> impl Iterator<Item = usize> + '_ {
        (1..self.nc).map(|c| self.leader_pe(c))
    }

    /// The sync cell of this rank's cluster: keyed by the cluster's
    /// members, not its leader, so two live sets that meet on a leader
    /// with different memberships never add into one counter.
    fn cell(&self) -> CellKey {
        CellKey { first: self.leader_pe(self.c), count: self.m }
    }

    /// The leaders' root cell (`nc > 1`): the PE range from leader 0 to
    /// the last leader. Every leader past the first is its shard's first
    /// PE, so the range is a function of (leader 0, `nc`), and sets that
    /// share it have the same leaders. It reaches past leader 0's shard,
    /// which no cluster does, so it never names a cluster's cell.
    fn root(&self) -> CellKey {
        let first = self.leader_pe(0);
        CellKey { first, count: self.leader_pe(self.nc - 1) + 1 - first }
    }
}

/// Every rank's copy of one dynamic symmetric object of a contiguous
/// set, addressed through the one arena: rank `r`'s copy starts `r`
/// partitions past rank 0's ([`ShmemCtx::copies`]).
#[derive(Clone, Copy)]
struct Copies<T> {
    first: *mut T,
    /// Elements per partition.
    stride: usize,
}

impl<T> Copies<T> {
    /// Rank `r`'s copy.
    ///
    /// # Safety
    /// `r` is a rank of the set the copies were taken for.
    unsafe fn of(&self, r: usize) -> *mut T {
        self.first.add(r * self.stride)
    }
}

impl ShmemCtx {
    /// The transport of one collective call on `set`: `Some(cluster)`
    /// to run it on the counter-cell pass, or `None` for the flat
    /// algorithm `how` stands for. The one selection site: barrier,
    /// reduce, broadcast, `fcollect` and `alltoall` each call it once
    /// per collective, and it reads nothing but its input — what the
    /// fabric offers, the set's stride and size, and whether the
    /// algorithm was asked for by name.
    ///
    /// * An algorithm asked for by name is what runs, at every size
    ///   ([`Configured::Flat`]): the figures, the ablations and the
    ///   stress generator's algorithm coverage depend on getting what
    ///   they configured.
    /// * With cells on offer and a contiguous set, a default takes the
    ///   pass at every size.
    /// * Everywhere else — fabrics without [`Locality`] (timed,
    ///   multichip; native and coop with locality off) and strided sets —
    ///   the configured flat algorithm runs at every size.
    pub(crate) fn select(&self, set: ActiveSet, rank: usize, how: Configured) -> Option<Cluster<'_>> {
        if how == Configured::Flat {
            return None;
        }
        self.cluster_for(set, rank)
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

    /// One pass over the *set ∩ shard* clustering: the single transport
    /// of every clustered collective, a two-level tree of
    /// [`ShmemCtx::meet`]s.
    ///
    /// Members meet their leader on the cluster's cell. The leader runs
    /// `up` with them parked; then, if the set spans `nc > 1` shards,
    /// it meets the other leaders on the root cell ([`Cluster::root`]),
    /// where leader 0 runs `root` with every other leader parked (a
    /// lone leader runs `root` itself). From there on **every** rank of
    /// the set has entered this call. Each leader runs `down` and
    /// releases its cluster. The barrier passes three empty steps.
    ///
    /// What a step may touch (DESIGN.md §6): the one awake PE at a level
    /// may read and write the buffers of every PE parked beneath it —
    /// `up` and `down` those of the leader's members, `root` those of
    /// every rank of the set. Nobody else reads or writes them between
    /// the owner's arrival and its release.
    ///
    /// Cells shared across *sets* never mix counts. A cluster cell is
    /// keyed by the cluster ([`Cluster::cell`]): two sets reach it only
    /// with the same members in this shard, who expect the same `m − 1`
    /// arrivals from the same PEs, who call them in one program order;
    /// sets that merely share the leader (`[0, 66)` and the world on 70
    /// PEs / 2 workers) count on different cells. The root cell is keyed
    /// by (leader 0, `nc`): sets that reach it have the same leaders,
    /// who arrive in one program order — the same argument one level
    /// up. Ordering is AcqRel through the cells (see
    /// [`Locality::sync_cell_add`]), giving the same
    /// all-prior-writes-visible guarantee the message barrier gets from
    /// channel edges. Every arrival and release is a counted op and
    /// parked waiters publish
    /// [`BlockedOn::CellWait`](crate::fabric::BlockedOn::CellWait), so
    /// the stall watchdog both sees the pass progressing and can name
    /// the cell a wedged PE is stuck on.
    pub(crate) fn cell_pass(&self, cl: &Cluster, up: impl FnOnce(), root: impl FnOnce(), down: impl FnOnce()) {
        self.meet(cl.cells, cl.cell(), cl.m, cl.lr == 0, || {
            up();
            if cl.nc > 1 {
                self.meet(cl.cells, cl.root(), cl.nc, cl.c == 0, root);
            } else {
                root();
            }
            down();
        });
    }

    /// One level of the pass: `count` PEs meet on `cell`, and the
    /// `first` of them runs `step` while the others are parked.
    ///
    /// Each other PE reads the epoch, adds an arrival (the one that
    /// completes the count wakes `first`; earlier ones change the count
    /// without a notify, which `sync_cell_wait_change` permits) and
    /// parks until the epoch moves, its gate released. `first` consumes
    /// exactly `count − 1` arrivals (a wrapping add of the negation),
    /// runs `step`, bumps the epoch and requeues them with one notify.
    ///
    /// Cell reuse across instances: a PE reads the epoch *before*
    /// adding its arrival, so a release between those two points still
    /// satisfies its wait; `first` subtracts the arrivals it consumed
    /// *before* releasing, and no PE can arrive for a later instance
    /// until it is released from this one — so counts from successive
    /// instances never mix.
    fn meet(&self, cells: &dyn Locality, cell: CellKey, count: usize, first: bool, step: impl FnOnce()) {
        let others = count - 1;
        if !first {
            let e0 = cells.sync_cell_load(cell, EPOCH);
            if cells.sync_cell_add(cell, ARRIVALS, 1) as usize + 1 == others {
                cells.sync_cell_notify(cell, ARRIVALS);
            }
            cells.sync_cell_wait_change(cell, EPOCH, e0);
            return;
        }
        let mut cur = cells.sync_cell_load(cell, ARRIVALS);
        while (cur as usize) < others {
            cur = cells.sync_cell_wait_change(cell, ARRIVALS, cur);
        }
        cells.sync_cell_add(cell, ARRIVALS, (others as u64).wrapping_neg());
        step();
        cells.sync_cell_add(cell, EPOCH, 1);
        cells.sync_cell_notify(cell, EPOCH);
    }

    /// Clustered reduction by name (the scaling probes): the cell pass
    /// wherever the fabric has cells for `set`, otherwise what
    /// [`ShmemCtx::reduce`] runs. Both objects are dynamic, as
    /// `reduce` requires: the pass copies into every `dest` raw.
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

    /// Reduce on the cell pass: each leader folds its parked members'
    /// `source` straight into its own `dest`; leader 0 folds the other
    /// leaders' `dest` into its own and writes the result back into
    /// theirs; each leader hands its members the result. Every copy is
    /// a [`ShmemCtx::copy_parked`].
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
        self.cell_pass(
            cl,
            || {
                self.copy_parked(dest, source, nreduce, me);
                for pe in cl.members() {
                    self.fold_peer_source(op, dest, source, nreduce, pe);
                }
            },
            || {
                for pe in cl.other_leaders() {
                    self.fold_peer_source(op, dest, dest, nreduce, pe);
                }
                for pe in cl.other_leaders() {
                    self.copy_parked(dest, dest, nreduce, pe);
                }
            },
            || {
                for pe in cl.members() {
                    self.copy_parked(dest, dest, nreduce, pe);
                }
            },
        );
    }

    /// `dest[i] = op(dest[i], source[i] on pe)` on this PE's copy of
    /// `dest`, in place. `pe` is parked beneath us in
    /// [`ShmemCtx::cell_pass`], so its `source` is directly addressable
    /// and nobody writes it until it is released.
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
        let theirs = self.parked(source, 0, nreduce, pe);
        self.with_local_mut(&dest.slice(0, nreduce), |acc| {
            // SAFETY: `parked` bounds-checked `nreduce` elements inside
            // `pe`'s partition, which is disjoint from ours (`acc`),
            // and asserted their alignment; the owner is parked until
            // it is released, and its arrival on the cell (AcqRel)
            // published what it wrote.
            let theirs = unsafe { std::slice::from_raw_parts(theirs.cast_const(), nreduce) };
            for (a, b) in acc.iter_mut().zip(theirs) {
                *a = T::reduce(op, *a, *b);
            }
        });
    }

    /// `len` elements of the dynamic object `sym` on PE `pe`, from
    /// element `at`, as a raw pointer for a step of the cell pass to
    /// copy through: [`ShmemCtx::ptr`] bounds-checks them inside `pe`'s
    /// partition, and their alignment is asserted. `pe` is the step's
    /// own PE or one parked beneath it, so nobody else reads or writes
    /// them until it is released.
    fn parked<T: Bits>(&self, sym: &Sym<T>, at: usize, len: usize, pe: usize) -> *mut T {
        let p = self.ptr(&sym.slice(at, len), pe).expect("cell-pass operands are dynamic symmetric objects");
        assert_eq!(p as usize % std::mem::align_of::<T>(), 0, "unaligned symmetric data");
        p
    }

    /// `dest[..n]` on PE `pe` = `from[..n]` on this PE: one raw copy in
    /// a step of the cell pass, into a PE parked beneath it (or into
    /// this PE's own `dest`), in place of a `put_sym` and its RMA entry.
    fn copy_parked<T: Bits>(&self, dest: &Sym<T>, from: &Sym<T>, n: usize, pe: usize) {
        if n == 0 {
            return;
        }
        let to = self.parked(dest, 0, n, pe);
        let from = self.parked(from, 0, n, self.my_pe());
        // SAFETY: both runs come from `parked`; `ptr::copy` allows them
        // to overlap.
        unsafe { std::ptr::copy(from, to, n) };
    }

    /// `reach` elements of `sym` on every rank of the contiguous `set`,
    /// for leader 0's root step. The first and the last rank's copies
    /// come from `parked`, which bounds-checks and aligns them, and they
    /// lie a whole number of partitions apart in the one arena, so every
    /// rank's copy between them is in bounds too.
    fn copies<T: Bits>(&self, sym: &Sym<T>, reach: usize, set: ActiveSet) -> Copies<T> {
        let first = self.parked(sym, 0, reach, set.pe_at(0));
        let last = self.parked(sym, 0, reach, set.pe_at(set.size - 1));
        let stride = self.layout.partition_bytes / std::mem::size_of::<T>();
        assert_eq!(
            last as usize - first as usize,
            (set.size - 1) * stride * std::mem::size_of::<T>(),
            "a contiguous set's partitions are one run of the arena"
        );
        Copies { first, stride }
    }

    /// `alltoall` / `alltoalls` on the cell pass, with element strides
    /// `dst` and `sst` (`alltoall` is `(1, 1)`). The whole transpose is
    /// leader 0's root step: element `k` of `source[j·sst·nelems ..]` on
    /// rank `i` is copied straight to `dest[i·dst·nelems + k·dst]` on
    /// rank `j`, one raw copy per element run, for every `(i, j)`.
    ///
    /// The root step is the one place this is safe. Every rank of the
    /// set has entered — its `source` is written and it no longer reads
    /// its `dest` — and none is released, so none is rewriting its
    /// `source` or reading its `dest` yet. An up step runs before some
    /// other cluster has entered, and a down step after leader 0 has
    /// released the other leaders, whose clusters may already be out.
    /// The arrivals (AcqRel) publish every rank's `source` to leader 0,
    /// and the epoch bumps from leader 0 to the leaders to the members
    /// publish the copies. The up and down steps are empty: in one
    /// arena every `source` and `dest` is in reach of the root step, so
    /// each block moves once instead of being gathered and scattered.
    pub(crate) fn alltoall_cells<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        (dst, sst): (usize, usize),
        nelems: usize,
        cl: &Cluster,
    ) {
        self.complete_puts();
        let set = cl.set;
        let transpose = || {
            if nelems == 0 {
                return;
            }
            let reach = |stride| (set.size * nelems - 1) * stride + 1;
            let (to, from) = (self.copies(dest, reach(dst), set), self.copies(source, reach(sst), set));
            for j in 0..set.size {
                for i in 0..set.size {
                    // SAFETY: `copies` bounds-checked `reach` elements of
                    // every rank's object, and block (i, j) lies inside
                    // them on both sides. Both owners are parked.
                    unsafe {
                        let to = to.of(j).add(i * dst * nelems);
                        let from = from.of(i).add(j * sst * nelems);
                        for k in 0..nelems {
                            to.add(k * dst).write(from.add(k * sst).read());
                        }
                    }
                }
            }
        };
        self.cell_pass(cl, || {}, transpose, || {});
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

    /// Broadcast on the cell pass: leader 0 gets the root's `source`
    /// and puts it into every other leader's `dest`; each leader copies
    /// it into its members' `dest`. The root is released only after the
    /// whole pass, so it cannot overwrite `source` under a reader, and
    /// nothing writes its own `dest`.
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
        let (me, root_pe) = (self.my_pe(), cl.set.pe_at(root_rank));
        let from = if me == root_pe { *source } else { *dest };
        self.cell_pass(
            cl,
            || {},
            || {
                if me != root_pe {
                    self.get_sym(dest, 0, source, 0, nelems, root_pe);
                }
                for pe in cl.other_leaders().filter(|&pe| pe != root_pe) {
                    self.put_sym(dest, 0, &from, 0, nelems, pe);
                }
            },
            || {
                for pe in cl.members().filter(|&pe| pe != root_pe) {
                    self.put_sym(dest, 0, &from, 0, nelems, pe);
                }
            },
        );
    }

    /// `fcollect` on the cell pass: each leader assembles its cluster's
    /// contiguous range in its own `dest`; leader 0 pulls every other
    /// range and pushes the full concatenation to every other leader;
    /// each leader copies it into its members' `dest`.
    pub(crate) fn fcollect_cells<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        cl: &Cluster,
    ) {
        self.complete_puts();
        let (me, all) = (self.my_pe(), cl.set.size * nelems);
        self.cell_pass(
            cl,
            || {
                let first = cl.first * nelems;
                self.put_sym(dest, first, source, 0, nelems, me);
                for (i, pe) in cl.members().enumerate() {
                    self.get_sym(dest, first + (i + 1) * nelems, source, 0, nelems, pe);
                }
            },
            || {
                for c in 1..cl.nc {
                    let at = cl.first_rank(c) * nelems;
                    self.get_sym(dest, at, dest, at, cl.size(c) * nelems, cl.leader_pe(c));
                }
                for pe in cl.other_leaders() {
                    self.put_sym(dest, 0, dest, 0, all, pe);
                }
            },
            || {
                for pe in cl.members() {
                    self.put_sym(dest, 0, dest, 0, all, pe);
                }
            },
        );
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
                        assert_eq!(cl.cell(), CellKey { first: mates[0], count: mates.len() });
                        assert_eq!(cl.members().collect::<Vec<_>>(), mates[1..]); // cold: test harness
                    }
                    let cl = Cluster::new(set, 0, block, start % block, &NoCells);
                    assert_eq!((0..nc).map(|c| cl.size(c)).sum::<usize>(), size);
                    if nc > 1 {
                        // Leader 0 to the last shard's first PE: past the
                        // end of leader 0's shard, where no cluster reaches.
                        let last = shard(start + size - 1) * block;
                        assert_eq!(cl.root(), CellKey { first: start, count: last + 1 - start });
                        assert!(cl.root().count > (shard(start) + 1) * block - start);
                    }
                }
            }
        }
    }
}
