//! Teams (OpenSHMEM 1.4): first-class handles over active sets.
//!
//! A [`Team`] wraps an [`ActiveSet`] and adds the rank-space view the
//! 1.4 API is built around: `my_pe()`/`n_pes()` answer in *team* ranks,
//! creation is by strided split of a parent team (so teams compose —
//! a split of a split is still one strided set over job PEs), and the
//! collectives are team-scoped methods that translate to the underlying
//! active-set algorithms. Nothing is reimplemented: a team collective
//! and the equivalent triplet collective run the *same* algorithm on
//! the same PEs, which the equivalence suite asserts by comparing memory
//! state and `Stats`.
//!
//! Because every team is a strided set, `split_strided` composes
//! strides multiplicatively: taking every `2^k`-th member of a parent
//! with stride `2^j` yields a child with stride `2^(j+k)`. (OpenSHMEM
//! 1.4 has the same power-of-two shape for `shmem_team_split_strided`
//! on strided parents.)

use crate::active_set::ActiveSet;
use crate::ctx::ShmemCtx;
use crate::symm::{Bits, Sym};
use crate::types::{Reducible, ReduceOp};

/// A team handle: an active set plus this PE's rank within it.
///
/// Construct with [`ShmemCtx::team_world`] or by splitting an existing
/// team; all members of the parent must call the split collectively
/// with the same arguments (as in OpenSHMEM), though the split itself
/// is purely local arithmetic here.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Team {
    set: ActiveSet,
    /// This PE's rank within `set`, fixed at creation.
    rank: usize,
}

impl ShmemCtx {
    /// The predefined world team (`SHMEM_TEAM_WORLD`): all PEs.
    pub fn team_world(&self) -> Team {
        Team { set: ActiveSet::all(self.n_pes()), rank: self.my_pe() }
    }

    /// A team over an explicit active set. Returns `None` if this PE is
    /// not a member (OpenSHMEM's `SHMEM_TEAM_INVALID`).
    pub fn team_from_set(&self, set: ActiveSet) -> Option<Team> {
        assert!(set.max_pe() < self.n_pes(), "active set exceeds job");
        set.rank_of(self.my_pe()).map(|rank| Team { set, rank })
    }
}

impl Team {
    /// This PE's rank within the team (`shmem_team_my_pe`).
    pub fn my_pe(&self) -> usize {
        self.rank
    }

    /// Number of team members (`shmem_team_n_pes`).
    pub fn n_pes(&self) -> usize {
        self.set.size
    }

    /// The underlying active set (the `(start, logPE_stride, size)`
    /// triplet this team names).
    pub fn active_set(&self) -> ActiveSet {
        self.set
    }

    /// Translate a team rank to a job PE id
    /// (`shmem_team_translate_pe` to the world team).
    pub fn pe_of_rank(&self, rank: usize) -> usize {
        self.set.pe_at(rank)
    }

    /// Translate this team's rank `rank` into `other`'s rank space, if
    /// that PE is also a member of `other`.
    pub fn translate_rank(&self, rank: usize, other: &Team) -> Option<usize> {
        other.set.rank_of(self.set.pe_at(rank))
    }

    /// `shmem_team_split_strided`: the sub-team of `size` members
    /// starting at team rank `start_rank`, taking every `2^log2_stride`
    /// -th member. Returns `None` on the callers that are not members
    /// of the child (the OpenSHMEM contract: they get
    /// `SHMEM_TEAM_INVALID`).
    ///
    /// # Panics
    /// Panics if the child would reach past the parent.
    pub fn split_strided(&self, start_rank: usize, log2_stride: u32, size: usize) -> Option<Team> {
        assert!(size > 0, "team cannot be empty");
        let last = start_rank + (size - 1) * (1usize << log2_stride);
        assert!(last < self.set.size, "child team exceeds parent (rank {last})");
        // Parent ranks r map to job PEs start + r·2^j; taking every
        // 2^k-th parent rank from start_rank is the job-PE set starting
        // at pe_at(start_rank) with stride 2^(j+k).
        let child = ActiveSet::new(
            self.set.pe_at(start_rank),
            self.set.log2_stride + log2_stride,
            size,
        );
        child.rank_of(self.set.pe_at(self.rank)).map(|rank| Team { set: child, rank })
    }

    /// `shmem_team_split_2d`-flavored even/odd halves are the common
    /// case of [`Team::split_strided`]; this is the `color`-style convenience:
    /// split the team into `parts` round-robin sub-teams and return the
    /// one this PE belongs to.
    ///
    /// # Panics
    /// Panics if `parts` is not a power of two or exceeds the team size.
    pub fn split_round_robin(&self, parts: usize) -> Team {
        assert!(parts.is_power_of_two(), "round-robin split needs power-of-two parts");
        assert!(parts <= self.set.size, "more parts than members");
        let color = self.rank % parts;
        let size = (self.set.size - color).div_ceil(parts);
        self.split_strided(color, parts.trailing_zeros(), size)
            .expect("splitter is always a member of its own color")
    }

    // --- team-scoped collectives (same algorithms, team rank space) ---

    /// Team barrier (`shmem_team_sync`): completes outstanding puts and
    /// nbi ops, like the active-set barrier it forwards to.
    pub fn barrier(&self, ctx: &ShmemCtx) {
        ctx.barrier(self.set)
    }

    /// Team broadcast; `root` is a *team rank*.
    pub fn broadcast<T: Bits>(
        &self,
        ctx: &ShmemCtx,
        dest: &Sym<T>,
        source: &Sym<T>,
        nelems: usize,
        root: usize,
    ) {
        ctx.broadcast(dest, source, nelems, root, self.set)
    }

    /// Team reduction to all members under an explicit operator.
    pub fn reduce<T: Reducible>(
        &self,
        ctx: &ShmemCtx,
        op: ReduceOp,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
    ) {
        ctx.reduce(op, dest, source, nreduce, self.set)
    }

    /// Team sum-reduction to all members.
    pub fn sum_to_all<T: Reducible>(
        &self,
        ctx: &ShmemCtx,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
    ) {
        ctx.sum_to_all(dest, source, nreduce, self.set)
    }

    /// Team max-reduction to all members.
    pub fn max_to_all<T: Reducible>(
        &self,
        ctx: &ShmemCtx,
        dest: &Sym<T>,
        source: &Sym<T>,
        nreduce: usize,
    ) {
        ctx.max_to_all(dest, source, nreduce, self.set)
    }

    /// Team fixed-size collect (`shmem_fcollect` over the team).
    pub fn fcollect<T: Bits>(&self, ctx: &ShmemCtx, dest: &Sym<T>, source: &Sym<T>, nelems: usize) {
        ctx.fcollect(dest, source, nelems, self.set)
    }

    /// Team variable-size collect; returns the total element count.
    pub fn collect<T: Bits>(
        &self,
        ctx: &ShmemCtx,
        dest: &Sym<T>,
        source: &Sym<T>,
        my_nelems: usize,
    ) -> usize {
        ctx.collect(dest, source, my_nelems, self.set)
    }

    /// Team all-to-all block exchange (`shmem_alltoall` over the team).
    pub fn alltoall<T: Bits>(&self, ctx: &ShmemCtx, dest: &Sym<T>, source: &Sym<T>, nelems: usize) {
        ctx.alltoall(dest, source, nelems, self.set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pure rank arithmetic is testable without a fabric: build teams
    /// around hand-made sets.
    fn team_of(set: ActiveSet, pe: usize) -> Team {
        Team { set, rank: set.rank_of(pe).unwrap() }
    }

    #[test]
    fn split_strided_composes_strides() {
        // Parent: PEs {1, 3, 5, 7, 9, 11, 13, 15} (start 1, stride 2).
        let parent = team_of(ActiveSet::new(1, 1, 8), 5);
        assert_eq!(parent.my_pe(), 2);
        // Children: every 2nd member from rank 1 → PEs {3, 7, 11, 15}.
        // PE 5 is parent rank 2 (even), so it is not a member.
        assert!(parent.split_strided(1, 1, 4).is_none());
        // From the view of PE 7 (parent rank 3) the child rank is 1.
        let member = team_of(ActiveSet::new(1, 1, 8), 7).split_strided(1, 1, 4).unwrap();
        assert_eq!(member.active_set(), ActiveSet::new(3, 2, 4));
        assert!(member.active_set().rank_of(5).is_none());
        assert_eq!(member.my_pe(), 1);
        assert_eq!(member.pe_of_rank(1), 7);
    }

    #[test]
    fn split_membership_matches_openshmem_invalid_contract() {
        let parent = team_of(ActiveSet::all(8), 2);
        // Evens child: {0, 2, 4, 6} — PE 2 is a member at rank 1.
        let evens = parent.split_strided(0, 1, 4).unwrap();
        assert_eq!(evens.my_pe(), 1);
        // Odds child: {1, 3, 5, 7} — PE 2 is not a member.
        assert!(parent.split_strided(1, 1, 4).is_none());
    }

    #[test]
    fn round_robin_split_covers_the_parent() {
        for pe in 0..8 {
            let t = team_of(ActiveSet::all(8), pe).split_round_robin(2);
            assert_eq!(t.n_pes(), 4);
            assert!(t.active_set().contains(pe));
        }
    }

    #[test]
    fn translate_between_overlapping_teams() {
        let world = team_of(ActiveSet::all(8), 6);
        let evens = world.split_strided(0, 1, 4).unwrap(); // {0,2,4,6}
        // World rank 6 is evens rank 3.
        assert_eq!(world.translate_rank(6, &evens), Some(3));
        assert_eq!(world.translate_rank(3, &evens), None);
        assert_eq!(evens.translate_rank(3, &world), Some(6));
    }

    #[test]
    #[should_panic(expected = "exceeds parent")]
    fn oversized_split_panics() {
        team_of(ActiveSet::all(4), 0).split_strided(2, 1, 2);
    }
}
