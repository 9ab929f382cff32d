//! All-to-all exchange (`shmem_alltoall` / `shmem_alltoalls`,
//! OpenSHMEM 1.3).
//!
//! Every member sends a distinct `nelems`-element block to every other
//! member: after the exchange, `dest[i*nelems ..]` on the member with
//! set-rank `j` holds the block `source[j*nelems ..]` contributed by
//! the member with set-rank `i`. Unlike collect, no root concentrates
//! the traffic — each PE pushes its own row directly, staggered from
//! `rank + 1` so the `n·(n-1)` transfers spread across destinations
//! instead of all hammering member 0 first (the same rotation the
//! paper's DDC layout rewards for pull-broadcast).
//!
//! `alltoalls` is the strided variant: element strides `dst`/`sst`
//! (in elements, per the spec) between consecutive elements of each
//! block.

use crate::active_set::ActiveSet;
use crate::ctx::ShmemCtx;
use crate::symm::{Bits, Sym};

impl ShmemCtx {
    /// `shmem_alltoall`: exchange `nelems`-element blocks between all
    /// members of `set`. `source` and `dest` must each hold
    /// `set.size * nelems` elements; `dest` must not overlap `source`.
    pub fn alltoall<T: Bits>(&self, dest: &Sym<T>, source: &Sym<T>, nelems: usize, set: ActiveSet) {
        assert!(set.max_pe() < self.n_pes(), "active set exceeds job");
        assert!(set.size * nelems <= source.len(), "alltoall source too small");
        assert!(set.size * nelems <= dest.len(), "alltoall dest too small");
        let rank = set
            .rank_of(self.my_pe())
            .unwrap_or_else(|| panic!("PE {} not in active set", self.my_pe()));
        self.stats.borrow_mut().collectives += 1;
        self.sync_set(set); // peers' source buffers are ready after this
        if nelems > 0 {
            for i in 0..set.size {
                let peer_rank = (rank + i) % set.size;
                self.put_sym(
                    dest,
                    rank * nelems,
                    source,
                    peer_rank * nelems,
                    nelems,
                    set.pe_at(peer_rank),
                );
            }
            self.complete_puts();
        }
        self.sync_set(set); // everyone's dest rows have landed
    }

    /// `shmem_alltoalls`: strided all-to-all. Element `k` of the block
    /// for peer `j` is read from `source[j*sst*nelems + k*sst]` and
    /// lands at `dest[i*dst*nelems + k*dst]` on that peer (where `i` is
    /// the sender's set-rank), matching the OpenSHMEM layout.
    #[allow(clippy::too_many_arguments)] // mirrors the OpenSHMEM C signature
    pub fn alltoalls<T: Bits>(
        &self,
        dest: &Sym<T>,
        source: &Sym<T>,
        dst: usize,
        sst: usize,
        nelems: usize,
        set: ActiveSet,
    ) {
        assert!(dst >= 1 && sst >= 1, "alltoalls strides must be >= 1");
        if nelems > 0 {
            let s_span = (set.size - 1) * sst * nelems + (nelems - 1) * sst + 1;
            let d_span = (set.size - 1) * dst * nelems + (nelems - 1) * dst + 1;
            assert!(s_span <= source.len(), "alltoalls source too small");
            assert!(d_span <= dest.len(), "alltoalls dest too small");
        }
        let rank = set
            .rank_of(self.my_pe())
            .unwrap_or_else(|| panic!("PE {} not in active set", self.my_pe()));
        self.stats.borrow_mut().collectives += 1;
        self.sync_set(set);
        if nelems > 0 {
            for i in 0..set.size {
                let peer_rank = (rank + i) % set.size;
                // Gather my strided block for this peer into contiguous
                // staging (local reads), then one strided put delivers it.
                let block: Vec<T> = (0..nelems)
                    .map(|k| self.g(source, peer_rank * sst * nelems + k * sst, self.my_pe()))
                    .collect();
                self.iput(
                    dest,
                    rank * dst * nelems,
                    dst,
                    &block,
                    1,
                    nelems,
                    set.pe_at(peer_rank),
                );
            }
            self.complete_puts();
        }
        self.sync_set(set);
    }
}
