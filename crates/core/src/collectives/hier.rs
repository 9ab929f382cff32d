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
//! `fcollect` hand it an *up*, a *root* and a *down* step.

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

impl ShmemCtx {
    /// The transport of one collective call on `set`: `Some(cluster)`
    /// to run it on the counter-cell pass, or `None` for the flat
    /// algorithm `how` stands for. The one selection site: barrier,
    /// reduce, broadcast and `fcollect` each call it once per
    /// collective, and it reads nothing but its input — what the fabric
    /// offers, the set's stride and size, and whether the algorithm was
    /// asked for by name.
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

    /// Reduce on the cell pass: each leader folds its parked members'
    /// `source` straight into its own `dest`; leader 0 folds the other
    /// leaders' `dest` into its own and writes the result back into
    /// theirs; each leader hands its members the result.
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
                self.put_sym(dest, 0, source, 0, nreduce, me);
                for pe in cl.members() {
                    self.fold_peer_source(op, dest, source, nreduce, pe);
                }
            },
            || {
                for pe in cl.other_leaders() {
                    self.fold_peer_source(op, dest, dest, nreduce, pe);
                }
                for pe in cl.other_leaders() {
                    self.put_sym(dest, 0, dest, 0, nreduce, pe);
                }
            },
            || {
                for pe in cl.members() {
                    self.put_sym(dest, 0, dest, 0, nreduce, pe);
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
        let theirs = self
            .ptr(&source.slice(0, nreduce), pe)
            .expect("reduce operands are dynamic symmetric objects");
        assert_eq!(theirs as usize % std::mem::align_of::<T>(), 0, "unaligned symmetric data");
        self.with_local_mut(&dest.slice(0, nreduce), |acc| {
            // SAFETY: `ptr` bounds-checked `nreduce` elements inside
            // `pe`'s partition, which is disjoint from ours (`acc`),
            // and alignment is asserted above; the owner is parked
            // until it is released, and its arrival on the cell (AcqRel)
            // published what it wrote.
            let theirs = unsafe { std::slice::from_raw_parts(theirs.cast_const(), nreduce) };
            for (a, b) in acc.iter_mut().zip(theirs) {
                *a = T::reduce(op, *a, *b);
            }
        });
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
