//! Collection: all-to-all concatenation (paper Section IV-D2, Figure 11).
//!
//! `fcollect` (fast collect) requires the same contribution size from
//! every PE, so each PE implicitly knows where its block lands. General
//! `collect` allows different sizes; the offsets are computed with an
//! exclusive scan passed linearly over the UDN.
//!
//! Both use the paper's naive design: every PE puts its block to the
//! root, and the concatenated result is then pull-broadcast — stage 2's
//! total traffic grows *quadratically* with the number of PEs, which is
//! exactly the effect Figure 11 shows. Where the selection function
//! (`hier.rs`) picks the counter-cell pass, `fcollect` runs on it
//! instead; variable-size `collect` has no cell form — it keeps the
//! scan and the root gather, and only its bracketing barriers ride the
//! faster transport.

use crate::active_set::ActiveSet;
use crate::collectives::hier;
use crate::ctx::{ShmemCtx, SEQ_BCAST, SEQ_COLLECT_OFF, SEQ_COLLECT_TOTAL, SEQ_GATHER};
use crate::fabric::{ProtoMsg, Q_COLLECT};
use crate::symm::{Bits, Sym};

/// Exclusive-scan token for variable-size collect.
pub const TAG_COLLECT_OFF: u16 = 20;
/// Total-size distribution for variable-size collect.
pub const TAG_COLLECT_TOTAL: u16 = 21;

// `collect` messages carry `[set.ident(), pairwise_seq, value]`.
// Filtering by ident alone is not collision-free: `ident()` packs
// (start, stride, size), so back-to-back or concurrent collects on the
// *same* set — or distinct sets on fabrics where stale messages linger in
// a stash — could consume each other's OFF/TOTAL tokens. The per-pair,
// per-namespace sequence number makes every (set, invocation, edge)
// token unique, so a matcher only accepts the message addressed to this
// exact invocation.

impl ShmemCtx {
    /// `shmem_fcollect`: concatenate `nelems` elements from every set
    /// member (in rank order) into `dest` on every member.
    pub fn fcollect<T: Bits>(&self, dest: &Sym<T>, source: &Sym<T>, nelems: usize, set: ActiveSet) {
        assert!(set.max_pe() < self.n_pes(), "active set exceeds job");
        assert!(nelems <= source.len(), "fcollect source too small");
        assert!(set.size * nelems <= dest.len(), "fcollect dest too small");
        let rank = set
            .rank_of(self.my_pe())
            .unwrap_or_else(|| panic!("PE {} not in active set", self.my_pe()));
        self.stats.borrow_mut().collectives += 1;
        // Where the selection function picks the cell pass, the leaders
        // assemble and hand out the concatenation (hier.rs). The root
        // gather below serves everything else, its two barriers on
        // whatever `sync_set` selects.
        if let Some(cl) = self.select(set, rank, hier::Configured::Default) {
            return self.fcollect_cells(dest, source, nelems, &cl);
        }
        self.sync_set(set);
        self.gather_and_redistribute(dest, source, rank * nelems, nelems, set.size * nelems, set, rank);
    }

    /// `shmem_collect`: concatenate `my_nelems` (which may differ per
    /// PE) elements from every member into `dest` on every member.
    /// Returns the total element count.
    pub fn collect<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        my_nelems: usize,
        set: ActiveSet,
    ) -> usize {
        assert!(set.max_pe() < self.n_pes(), "active set exceeds job");
        assert!(my_nelems <= source.len(), "collect source too small");
        let rank = set
            .rank_of(self.my_pe())
            .unwrap_or_else(|| panic!("PE {} not in active set", self.my_pe()));
        self.stats.borrow_mut().collectives += 1;
        self.sync_set(set);

        // Exclusive scan of contribution sizes, passed linearly.
        let id = set.ident();
        let me = self.my_pe();
        let my_off = if set.size == 1 {
            0
        } else if rank == 0 {
            let next = set.pe_at(1);
            let seq = self.next_seq(SEQ_COLLECT_OFF, me, next);
            self.send_draining(next, Q_COLLECT, TAG_COLLECT_OFF, &[id, seq, my_nelems as u64]);
            0
        } else {
            let prev = set.pe_at(rank - 1);
            let seq = self.next_seq(SEQ_COLLECT_OFF, me, prev);
            let m = self.recv_matching(Q_COLLECT, |m: &ProtoMsg| {
                m.tag == TAG_COLLECT_OFF
                    && m.payload.first() == Some(&id)
                    && m.payload.get(1) == Some(&seq)
            });
            let off = m.payload[2] as usize;
            if rank + 1 < set.size {
                let next = set.pe_at(rank + 1);
                let nseq = self.next_seq(SEQ_COLLECT_OFF, me, next);
                self.send_draining(
                    next,
                    Q_COLLECT,
                    TAG_COLLECT_OFF,
                    &[id, nseq, (off + my_nelems) as u64],
                );
            }
            off
        };

        // Total: the last rank knows it and tells everyone.
        let last = set.pe_at(set.size - 1);
        let total = if set.size == 1 {
            my_nelems
        } else if rank == set.size - 1 {
            let total = my_off + my_nelems;
            for r in 0..set.size - 1 {
                let member = set.pe_at(r);
                let seq = self.next_seq(SEQ_COLLECT_TOTAL, me, member);
                self.send_draining(
                    member,
                    Q_COLLECT,
                    TAG_COLLECT_TOTAL,
                    &[id, seq, total as u64],
                );
            }
            total
        } else {
            let seq = self.next_seq(SEQ_COLLECT_TOTAL, me, last);
            let m = self.recv_matching(Q_COLLECT, |m: &ProtoMsg| {
                m.tag == TAG_COLLECT_TOTAL
                    && m.payload.first() == Some(&id)
                    && m.payload.get(1) == Some(&seq)
            });
            m.payload[2] as usize
        };
        assert!(total <= dest.len(), "collect dest too small for {total} elements");
        self.gather_and_redistribute(dest, source, my_off, my_nelems, total, set, rank);
        total
    }

    /// The shared tail of both collects: put my block into the root's
    /// `dest`, then pull-broadcast the concatenation.
    #[allow(clippy::too_many_arguments)]
    fn gather_and_redistribute<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        my_elem_off: usize,
        my_nelems: usize,
        total_elems: usize,
        set: ActiveSet,
        rank: usize,
    ) {
        let root_pe = set.pe_at(0);
        let me = self.my_pe();
        // Stage 1: n PEs transfer their blocks to the root.
        if my_nelems > 0 {
            self.put_sym(dest, my_elem_off, source, 0, my_nelems, root_pe);
        }
        self.complete_puts();
        let seq = self.next_seq(SEQ_GATHER, root_pe, me);
        self.flag_set(root_pe, self.layout.gather_flags, me, seq);

        if rank == 0 {
            for r in 0..set.size {
                let member = set.pe_at(r);
                let mseq = if member == me {
                    seq
                } else {
                    self.next_seq(SEQ_GATHER, root_pe, member)
                };
                self.flag_wait_ge(self.layout.gather_flags, member, mseq);
            }
            // Stage 2: root signals and everyone pulls n*M elements.
            for r in 1..set.size {
                let member = set.pe_at(r);
                let bseq = self.next_seq(SEQ_BCAST, root_pe, member);
                self.flag_set(member, self.layout.bcast_flags, root_pe, bseq);
            }
        } else {
            let bseq = self.next_seq(SEQ_BCAST, root_pe, me);
            self.flag_wait_ge(self.layout.bcast_flags, root_pe, bseq);
            self.get_sym(dest, 0, dest, 0, total_elems, root_pe);
        }
        self.sync_set(set);
    }
}
