//! Broadcast: one-to-all (paper Section IV-D1, Figures 9–10).
//!
//! Three algorithms:
//!
//! * **Pull** (the paper's scalable design): every non-root PE gets the
//!   data from the root, spreading the load across the whole DDC.
//! * **Push** (the paper's baseline): the root puts to every PE
//!   sequentially — aggregate bandwidth stays flat as tiles are added.
//! * **Binomial** tree (the paper's future work, our extension).
//!
//! Per the OpenSHMEM spec the root's *dest* buffer is not written.

use crate::active_set::ActiveSet;
use crate::ctx::{BroadcastAlgo, ShmemCtx, SEQ_BCAST, SEQ_PT2PT};
use crate::symm::{Bits, Sym};

impl ShmemCtx {
    /// `shmem_broadcast`: copy `nelems` elements of `source` on the
    /// root (rank `root_rank` *within the active set*) into `dest` on
    /// every other member.
    pub fn broadcast<T: Bits>(
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
        if let Some(cl) = self.select(set, rank, self.algos.broadcast.into()) {
            return self.broadcast_cells(dest, source, nelems, root_rank, &cl);
        }
        match self.algos.broadcast {
            BroadcastAlgo::Pull => self.broadcast_pull(dest, source, nelems, root_rank, set),
            BroadcastAlgo::Push => self.broadcast_push(dest, source, nelems, root_rank, set),
            BroadcastAlgo::Binomial => self.broadcast_binomial(dest, source, nelems, root_rank, set),
        }
    }

    /// Pull-based broadcast (explicit, for the Figure 10 bench).
    pub fn broadcast_pull<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        root_rank: usize,
        set: ActiveSet,
    ) {
        let rank = self.collective_entry(source, nelems, root_rank, set);
        let root_pe = set.pe_at(root_rank);
        // Source is ready (entry barrier): everyone pulls in parallel.
        if rank != root_rank {
            assert!(nelems <= dest.len(), "broadcast dest too small");
            self.get_sym(dest, 0, source, 0, nelems, root_pe);
        }
        self.sync_set(set);
    }

    /// Push-based broadcast (explicit, for the Figure 9 bench).
    pub fn broadcast_push<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        root_rank: usize,
        set: ActiveSet,
    ) {
        let rank = self.collective_entry(source, nelems, root_rank, set);
        let root_pe = set.pe_at(root_rank);
        if rank == root_rank {
            // The root does all the work, serially.
            for r in 0..set.size {
                if r == root_rank {
                    continue;
                }
                assert!(nelems <= dest.len(), "broadcast dest too small");
                self.put_sym(dest, 0, source, 0, nelems, set.pe_at(r));
            }
            self.complete_puts();
            for r in 0..set.size {
                if r != root_rank {
                    let dest_pe = set.pe_at(r);
                    let seq = self.next_seq(SEQ_BCAST, root_pe, dest_pe);
                    self.flag_set(dest_pe, self.layout.bcast_flags, root_pe, seq);
                }
            }
        } else {
            let seq = self.next_seq(SEQ_BCAST, root_pe, self.my_pe());
            self.flag_wait_ge(self.layout.bcast_flags, root_pe, seq);
        }
    }

    /// Binomial-tree broadcast (extension; Section IV-E future work).
    pub fn broadcast_binomial<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        root_rank: usize,
        set: ActiveSet,
    ) {
        let rank = self.collective_entry(source, nelems, root_rank, set);
        let n = set.size;
        let vr = (rank + n - root_rank) % n; // rank relative to the root
        if vr > 0 {
            // Receive from the parent: the sender that covers us is
            // vr - 2^floor(log2(vr)).
            let k = usize::BITS - 1 - vr.leading_zeros();
            let parent_vr = vr - (1 << k);
            let parent_pe = set.pe_at((parent_vr + root_rank) % n);
            let seq = self.next_seq(SEQ_PT2PT, parent_pe, self.my_pe());
            // Doubled convention, matching recursive-doubling reduce:
            // the pairwise SEQ_PT2PT counter is shared with reduce's
            // data/ack handshake, which writes flag values 2*seq and
            // 2*seq+1. A plain `seq` wait here would be stale-satisfied
            // by any prior reduce on the same pair (flag_wait_ge is >=),
            // letting a child forward its not-yet-written dest buffer.
            self.flag_wait_ge(self.layout.pt2pt_flags, parent_pe, 2 * seq);
        }
        // Forward to children: in round k, virtual ranks < 2^k send to
        // vr + 2^k.
        let from: Sym<T> = if vr == 0 { *source } else { *dest };
        let mut k = 0;
        while (1usize << k) < n {
            let span = 1usize << k;
            if vr < span {
                let child_vr = vr + span;
                if child_vr < n {
                    let child_pe = set.pe_at((child_vr + root_rank) % n);
                    assert!(nelems <= dest.len(), "broadcast dest too small");
                    self.put_sym(dest, 0, &from, 0, nelems, child_pe);
                    self.complete_puts();
                    let seq = self.next_seq(SEQ_PT2PT, child_pe, self.my_pe());
                    // Doubled convention — see the parent-side wait.
                    self.flag_set(child_pe, self.layout.pt2pt_flags, self.my_pe(), 2 * seq);
                }
            }
            k += 1;
        }
        self.sync_set(set);
    }

    /// Shared entry validation + barrier; returns this PE's rank.
    pub(crate) fn collective_entry<T: Bits>(
        &self,
        source: &Sym<T>,
        nelems: usize,
        root_rank: usize,
        set: ActiveSet,
    ) -> usize {
        let rank = self.collective_checks(source, nelems, root_rank, set);
        self.sync_set(set);
        rank
    }

    /// Entry validation and the `collectives` count, without the entry
    /// barrier (the cell pass brings its own); returns this PE's rank.
    pub(crate) fn collective_checks<T: Bits>(
        &self,
        source: &Sym<T>,
        nelems: usize,
        root_rank: usize,
        set: ActiveSet,
    ) -> usize {
        assert!(set.max_pe() < self.n_pes(), "active set exceeds job");
        assert!(root_rank < set.size, "root rank {root_rank} outside set");
        assert!(nelems <= source.len(), "broadcast source too small");
        let rank = set
            .rank_of(self.my_pe())
            .unwrap_or_else(|| panic!("PE {} not in active set", self.my_pe()));
        self.stats.borrow_mut().collectives += 1;
        rank
    }
}
