//! Reduction: all-to-all associative combining (paper Section IV-D3,
//! Figure 12).
//!
//! The paper's baseline is deliberately naive: the root serially gets
//! each PE's array, folds it into the accumulator, and then pull-
//! broadcasts the outcome — aggregate bandwidth stays flat (~150 MB/s on
//! the TILE-Gx36) no matter how many tiles join, because everything
//! serializes on one tile. Recursive doubling (the paper's future work)
//! is the extension algorithm.

use crate::active_set::ActiveSet;
use crate::ctx::{ReduceAlgo, ShmemCtx, SEQ_BCAST, SEQ_PT2PT};
use crate::symm::{AddrClass, Sym};
use crate::types::{Reducible, ReduceOp};

/// Modeled cost of the naive per-element reduce step (load both
/// operands, combine through a per-element call, store) — calibrated so
/// the timed engine's Figure 12 lands at the paper's ~150 MB/s aggregate
/// for 32-bit integer sums.
pub const REDUCE_CYCLES_PER_ELEMENT: f64 = 23.0;

/// Largest power of two `<= n`.
///
/// # Panics
/// Panics if `n == 0`.
fn largest_pow2_le(n: usize) -> usize {
    assert!(n > 0, "no power of two <= 0");
    1 << (usize::BITS - 1 - n.leading_zeros())
}

impl ShmemCtx {
    /// `shmem_*_to_all`: reduce `nreduce` elements of `source` across
    /// the active set with `op`, leaving the result in `dest` on every
    /// member.
    pub fn reduce<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
        set: ActiveSet,
    ) {
        assert!(set.max_pe() < self.n_pes(), "active set exceeds job");
        assert!(nreduce <= source.len() && nreduce <= dest.len(), "reduce buffers too small");
        assert_eq!(dest.class(), AddrClass::Dynamic, "reduce dest must be dynamic");
        assert_eq!(source.class(), AddrClass::Dynamic, "reduce source must be dynamic");
        let rank = set
            .rank_of(self.my_pe())
            .unwrap_or_else(|| panic!("PE {} not in active set", self.my_pe()));
        self.stats.borrow_mut().collectives += 1;
        if let Some(cl) = self.select(set, rank, self.algos.reduce.into()) {
            return self.reduce_cells(op, dest, source, nreduce, &cl);
        }
        match self.algos.reduce {
            ReduceAlgo::Naive => self.reduce_naive(op, dest, source, nreduce, set, rank),
            ReduceAlgo::RecursiveDoubling => {
                self.reduce_recursive_doubling(op, dest, source, nreduce, set, rank)
            }
        }
    }

    /// The paper's serialized design (explicit, for Figure 12).
    pub fn reduce_naive<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
        set: ActiveSet,
        rank: usize,
    ) {
        self.sync_set(set);
        let root_pe = set.pe_at(0);
        if rank == 0 {
            // Fold every remote contribution into a local accumulator.
            // cold: two buffers once per call, reused by every contribution.
            let mut acc = self.local_read(source, 0, nreduce);
            let mut buf = vec![unsafe { std::mem::zeroed::<T>() }; nreduce];
            for r in 1..set.size {
                self.get(&mut buf, source, 0, set.pe_at(r));
                for (a, b) in acc.iter_mut().zip(&buf) {
                    *a = T::reduce(op, *a, *b);
                }
                self.compute(nreduce as f64 * REDUCE_CYCLES_PER_ELEMENT);
            }
            self.local_write(dest, 0, &acc);
            self.complete_puts();
            for r in 1..set.size {
                let dest_pe = set.pe_at(r);
                let bseq = self.next_seq(SEQ_BCAST, root_pe, dest_pe);
                self.flag_set(dest_pe, self.layout.bcast_flags, root_pe, bseq);
            }
        } else {
            let bseq = self.next_seq(SEQ_BCAST, root_pe, self.my_pe());
            self.flag_wait_ge(self.layout.bcast_flags, root_pe, bseq);
            self.get_sym(dest, 0, dest, 0, nreduce, root_pe);
        }
        self.sync_set(set);
    }

    /// Recursive-doubling reduction (extension; Section IV-E future
    /// work). Handles non-power-of-two sets by folding the excess ranks
    /// into the power-of-two core first.
    pub fn reduce_recursive_doubling<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
        set: ActiveSet,
        rank: usize,
    ) {
        self.sync_set(set);
        let n = set.size;
        let p2 = largest_pow2_le(n);
        // Start with our own contribution in dest.
        let me = self.my_pe();
        self.put_sym(dest, 0, source, 0, nreduce, me);

        if rank >= p2 {
            // Excess rank: fold our data into the partner, then wait for
            // the final result.
            let partner = set.pe_at(rank - p2);
            self.fold_into(dest, nreduce, partner);
            let seq = self.next_seq(SEQ_PT2PT, partner, self.my_pe());
            self.flag_wait_ge(self.layout.pt2pt_flags, partner, 2 * seq);
        } else {
            if rank + p2 < n {
                // Absorb the excess partner's data first.
                let partner = set.pe_at(rank + p2);
                self.fold_from(op, dest, nreduce, partner);
            }
            // Pairwise exchange over log2(p2) rounds.
            let mut k = 1usize;
            while k < p2 {
                let partner = set.pe_at(rank ^ k);
                self.exchange_combine(op, dest, nreduce, partner);
                k <<= 1;
            }
            if rank + p2 < n {
                // Return the final result to the excess partner.
                let partner = set.pe_at(rank + p2);
                self.put_sym(dest, 0, dest, 0, nreduce, partner);
                self.complete_puts();
                let seq = self.next_seq(SEQ_PT2PT, partner, self.my_pe());
                self.flag_set(partner, self.layout.pt2pt_flags, me, 2 * seq);
            }
        }
        self.sync_set(set);
    }

    /// Per-sender slot inside a partition's temp region. Recursive
    /// doubling overlaps exchanges with *different* partners across
    /// rounds, so each sender writes a disjoint slot of the receiver's
    /// temp — otherwise a fast PE's round-N chunk could clobber its
    /// partner's unconsumed round-(N-1) data from another sender.
    pub(crate) fn temp_slot_sym<T: Reducible>(&self, sender_pe: usize) -> Sym<T> {
        let slot_bytes = (self.layout.temp_bytes / self.layout.npes) & !7;
        let cap = slot_bytes / std::mem::size_of::<T>();
        assert!(
            cap > 0,
            "temp buffer too small for per-sender slots ({} B / {} PEs)",
            self.layout.temp_bytes,
            self.layout.npes
        );
        Sym::new(
            AddrClass::Dynamic,
            self.layout.temp_off + sender_pe * slot_bytes,
            cap,
        )
    }

    /// One-directional fold: push our accumulator to `partner`, chunk by
    /// chunk, with a data/ack handshake per chunk so the temp buffer is
    /// never overwritten before the partner consumed it. Flag values:
    /// `2*seq` = data ready, `2*seq + 1` = consumed.
    pub(crate) fn fold_into<T: Reducible>(&self, dest: &Sym<T>, nreduce: usize, partner: usize) {
        let me = self.my_pe();
        let temp = self.temp_slot_sym::<T>(me);
        let cap = temp.len();
        let mut done = 0;
        while done < nreduce {
            let n = (nreduce - done).min(cap);
            let seq = self.next_seq(SEQ_PT2PT, partner, self.my_pe());
            self.put_sym(&temp, 0, &dest.slice(done, n), 0, n, partner);
            self.complete_puts();
            self.flag_set(partner, self.layout.pt2pt_flags, me, 2 * seq);
            self.flag_wait_ge(self.layout.pt2pt_flags, partner, 2 * seq + 1);
            done += n;
        }
    }

    /// Receiving side of [`fold_into`].
    pub(crate) fn fold_from<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        nreduce: usize,
        partner: usize,
    ) {
        let me = self.my_pe();
        let temp = self.temp_slot_sym::<T>(partner);
        let cap = temp.len();
        let mut done = 0;
        while done < nreduce {
            let n = (nreduce - done).min(cap);
            let seq = self.next_seq(SEQ_PT2PT, partner, self.my_pe());
            self.flag_wait_ge(self.layout.pt2pt_flags, partner, 2 * seq);
            self.combine_from_temp(op, dest, done, n, &temp);
            self.flag_set(partner, self.layout.pt2pt_flags, me, 2 * seq + 1);
            done += n;
        }
    }

    /// Full-duplex exchange: both partners push the current accumulator
    /// chunk into each other's temp, combine, and ack. Both sides bump
    /// the pairwise sequence once per chunk, so values agree.
    pub(crate) fn exchange_combine<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        nreduce: usize,
        partner: usize,
    ) {
        let me = self.my_pe();
        let my_slot = self.temp_slot_sym::<T>(me); // in the partner's temp
        let partner_slot = self.temp_slot_sym::<T>(partner); // in my temp
        let cap = my_slot.len();
        let mut done = 0;
        while done < nreduce {
            let n = (nreduce - done).min(cap);
            let seq = self.next_seq(SEQ_PT2PT, partner, self.my_pe());
            self.put_sym(&my_slot, 0, &dest.slice(done, n), 0, n, partner);
            self.complete_puts();
            self.flag_set(partner, self.layout.pt2pt_flags, me, 2 * seq);
            self.flag_wait_ge(self.layout.pt2pt_flags, partner, 2 * seq);
            self.combine_from_temp(op, dest, done, n, &partner_slot);
            self.flag_set(partner, self.layout.pt2pt_flags, me, 2 * seq + 1);
            self.flag_wait_ge(self.layout.pt2pt_flags, partner, 2 * seq + 1);
            done += n;
        }
    }

    /// Fold `temp[..n]` into `dest[done..done + n]` through the context's
    /// scratch, allocation-free: read the chunk, read the accumulator,
    /// write the accumulator back.
    fn combine_from_temp<T: Reducible>(
        &self,
        op: ReduceOp,
        dest: &Sym<T>,
        done: usize,
        n: usize,
        temp: &Sym<T>,
    ) {
        let size = std::mem::size_of::<T>();
        self.with_scratch(2 * n * size, |buf| {
            let (chunk, acc) = buf.split_at_mut(n * size);
            self.local_read_bytes(temp, 0, chunk);
            self.local_read_bytes(dest, done, acc);
            for i in (0..n * size).step_by(size) {
                // SAFETY: both halves hold `n` whole `T`s, and `T: Bits`
                // is plain data; the scratch is bytes, so unaligned.
                unsafe {
                    let a = acc.as_mut_ptr().add(i).cast::<T>();
                    let b = chunk.as_ptr().add(i).cast::<T>();
                    a.write_unaligned(T::reduce(op, a.read_unaligned(), b.read_unaligned()));
                }
            }
            self.compute(n as f64 * REDUCE_CYCLES_PER_ELEMENT * 0.5);
            self.local_write_bytes(dest, done, acc);
        });
    }

    // --- convenience wrappers (the OpenSHMEM `*_to_all` names) ---------

    /// `shmem_*_sum_to_all`.
    pub fn sum_to_all<T: Reducible>(&self, dest: &Sym<T>, source: &Sym<T>, n: usize, set: ActiveSet) {
        self.reduce(ReduceOp::Sum, dest, source, n, set);
    }

    /// `shmem_*_prod_to_all`.
    pub fn prod_to_all<T: Reducible>(&self, dest: &Sym<T>, source: &Sym<T>, n: usize, set: ActiveSet) {
        self.reduce(ReduceOp::Prod, dest, source, n, set);
    }

    /// `shmem_*_min_to_all`.
    pub fn min_to_all<T: Reducible>(&self, dest: &Sym<T>, source: &Sym<T>, n: usize, set: ActiveSet) {
        self.reduce(ReduceOp::Min, dest, source, n, set);
    }

    /// `shmem_*_max_to_all`.
    pub fn max_to_all<T: Reducible>(&self, dest: &Sym<T>, source: &Sym<T>, n: usize, set: ActiveSet) {
        self.reduce(ReduceOp::Max, dest, source, n, set);
    }

    /// `shmem_*_and_to_all`.
    pub fn and_to_all<T: Reducible>(&self, dest: &Sym<T>, source: &Sym<T>, n: usize, set: ActiveSet) {
        self.reduce(ReduceOp::And, dest, source, n, set);
    }

    /// `shmem_*_or_to_all`.
    pub fn or_to_all<T: Reducible>(&self, dest: &Sym<T>, source: &Sym<T>, n: usize, set: ActiveSet) {
        self.reduce(ReduceOp::Or, dest, source, n, set);
    }

    /// `shmem_*_xor_to_all`.
    pub fn xor_to_all<T: Reducible>(&self, dest: &Sym<T>, source: &Sym<T>, n: usize, set: ActiveSet) {
        self.reduce(ReduceOp::Xor, dest, source, n, set);
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
}
