//! The symmetric-heap allocator.
//!
//! The paper's `shmalloc()` design is "a doubly-linked list tracking the
//! memory segments being used in the current tile's partition"
//! (Section IV-A); symmetry is implicit — every PE calls the allocator
//! with the same sizes in the same order, so every PE computes the same
//! partition-relative offsets. This module is that allocator: a
//! doubly-linked block list (indices into a slab, not raw pointers) with
//! first-fit allocation, block splitting, and coalescing on free.
//!
//! The allocator itself is single-threaded per PE (each PE manages its
//! own partition); determinism across PEs is what makes offsets
//! symmetric, and is checked by tests and the `substrate::proptest_mini`
//! property suite in `tests/heap_props.rs`.

const NONE: usize = usize::MAX;

/// Default allocation alignment — `shmemalign` can request more.
pub const DEFAULT_ALIGN: usize = 8;

#[derive(Clone, Debug)]
struct Block {
    off: usize,
    len: usize,
    free: bool,
    prev: usize,
    next: usize,
}

/// First-fit free-list allocator over one partition.
#[derive(Clone, Debug)]
pub struct Heap {
    blocks: Vec<Block>,
    head: usize,
    size: usize,
    allocated: usize,
    /// Free slots in `blocks` available for reuse.
    spare: Vec<usize>,
    /// The highest end of any block ever allocated; `free` never lowers
    /// it, so a stale handle still lies under it.
    high_water: usize,
}

/// Allocation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeapError {
    /// No free block large enough.
    OutOfMemory { requested: usize },
    /// `shfree`/`shrealloc` of an offset that is not an allocation start.
    InvalidFree { offset: usize },
    /// Alignment must be a nonzero power of two.
    BadAlign { align: usize },
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::OutOfMemory { requested } => {
                write!(f, "symmetric heap exhausted allocating {requested} bytes")
            }
            HeapError::InvalidFree { offset } => {
                write!(f, "offset {offset} is not the start of a live allocation")
            }
            HeapError::BadAlign { align } => write!(f, "bad alignment {align}"),
        }
    }
}

impl std::error::Error for HeapError {}

impl Heap {
    /// An empty heap managing `[0, size)`.
    pub fn new(size: usize) -> Self {
        let first = Block {
            off: 0,
            len: size,
            free: true,
            prev: NONE,
            next: NONE,
        };
        Self {
            blocks: vec![first],
            head: 0,
            size,
            allocated: 0,
            spare: Vec::new(),
            high_water: 0,
        }
    }

    /// Total managed bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Bytes currently allocated (including alignment padding absorbed
    /// into blocks).
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Every byte any allocation of this heap ever covered lies in
    /// `[0, high_water)` — what a recycler has to scrub.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Mark block `idx` allocated.
    fn claim(&mut self, idx: usize) {
        let b = &mut self.blocks[idx];
        b.free = false;
        self.high_water = self.high_water.max(b.off + b.len);
    }

    /// Allocate `len` bytes at [`DEFAULT_ALIGN`]. Zero-length requests
    /// consume a minimal block so every allocation has a unique offset
    /// (matching `malloc` semantics).
    pub fn alloc(&mut self, len: usize) -> Result<usize, HeapError> {
        self.alloc_aligned(len, DEFAULT_ALIGN)
    }

    /// Allocate with explicit alignment (`shmemalign`).
    pub fn alloc_aligned(&mut self, len: usize, align: usize) -> Result<usize, HeapError> {
        if align == 0 || !align.is_power_of_two() {
            return Err(HeapError::BadAlign { align });
        }
        let want = round_up(len.max(1), DEFAULT_ALIGN);
        let mut cur = self.head;
        while cur != NONE {
            let (off, blen, free) = {
                let b = &self.blocks[cur];
                (b.off, b.len, b.free)
            };
            if free {
                let aligned = round_up(off, align);
                let pad = aligned - off;
                if blen >= pad + want {
                    return Ok(self.carve(cur, pad, want));
                }
            }
            cur = self.blocks[cur].next;
        }
        Err(HeapError::OutOfMemory { requested: len })
    }

    /// Split free block `idx` into [pad][want][rest], allocating the
    /// middle; returns the allocation offset.
    fn carve(&mut self, idx: usize, pad: usize, want: usize) -> usize {
        if pad > 0 {
            // Leading pad becomes (stays) a free block; the allocation
            // starts at a new block after it.
            let alloc_idx = self.split_at(idx, pad);
            return self.carve(alloc_idx, 0, want);
        }
        let blen = self.blocks[idx].len;
        if blen > want {
            self.split_at(idx, want);
        }
        self.claim(idx);
        self.allocated += self.blocks[idx].len;
        self.blocks[idx].off
    }

    /// Split block `idx` at `at` bytes; returns the index of the new
    /// second block. Both halves keep `free = blocks[idx].free`.
    fn split_at(&mut self, idx: usize, at: usize) -> usize {
        let (off, len, free, next) = {
            let b = &self.blocks[idx];
            (b.off, b.len, b.free, b.next)
        };
        debug_assert!(at > 0 && at < len);
        let new = Block {
            off: off + at,
            len: len - at,
            free,
            prev: idx,
            next,
        };
        let new_idx = self.insert_block(new);
        self.blocks[idx].len = at;
        self.blocks[idx].next = new_idx;
        if next != NONE {
            self.blocks[next].prev = new_idx;
        }
        new_idx
    }

    fn insert_block(&mut self, b: Block) -> usize {
        if let Some(i) = self.spare.pop() {
            self.blocks[i] = b;
            i
        } else {
            self.blocks.push(b);
            self.blocks.len() - 1
        }
    }

    /// Free the allocation starting at `off`, coalescing with free
    /// neighbors.
    pub fn free(&mut self, off: usize) -> Result<(), HeapError> {
        let idx = self
            .find_live(off)
            .ok_or(HeapError::InvalidFree { offset: off })?;
        self.allocated -= self.blocks[idx].len;
        self.blocks[idx].free = true;
        // Coalesce with next.
        let next = self.blocks[idx].next;
        if next != NONE && self.blocks[next].free {
            self.absorb_next(idx);
        }
        // Coalesce with prev.
        let prev = self.blocks[idx].prev;
        if prev != NONE && self.blocks[prev].free {
            self.absorb_next(prev);
        }
        Ok(())
    }

    /// Grow or shrink an allocation (`shrealloc`): returns the new
    /// offset. Contents preservation is the caller's job (the context
    /// copies through the arena), since the heap only tracks geometry.
    pub fn realloc(&mut self, off: usize, new_len: usize) -> Result<usize, HeapError> {
        let idx = self
            .find_live(off)
            .ok_or(HeapError::InvalidFree { offset: off })?;
        let cur_len = self.blocks[idx].len;
        let want = round_up(new_len.max(1), DEFAULT_ALIGN);
        if want <= cur_len {
            return Ok(off); // shrink in place (keep block size; simple)
        }
        // Try extending into a free successor.
        let next = self.blocks[idx].next;
        if next != NONE && self.blocks[next].free && cur_len + self.blocks[next].len >= want {
            self.absorb_next(idx);
            let total = self.blocks[idx].len;
            if total > want {
                let rest = self.split_at(idx, want);
                self.blocks[rest].free = true;
            }
            self.claim(idx);
            self.allocated += self.blocks[idx].len - cur_len;
            return Ok(off);
        }
        // Move: allocate elsewhere, then free the old block.
        let new_off = self.alloc(new_len)?;
        self.free(off)?;
        Ok(new_off)
    }

    fn absorb_next(&mut self, idx: usize) {
        let next = self.blocks[idx].next;
        debug_assert_ne!(next, NONE);
        let (nlen, nnext) = (self.blocks[next].len, self.blocks[next].next);
        self.blocks[idx].len += nlen;
        self.blocks[idx].next = nnext;
        if nnext != NONE {
            self.blocks[nnext].prev = idx;
        }
        self.spare.push(next);
    }

    fn find_live(&self, off: usize) -> Option<usize> {
        let mut cur = self.head;
        while cur != NONE {
            let b = &self.blocks[cur];
            if !b.free && b.off == off {
                return Some(cur);
            }
            cur = b.next;
        }
        None
    }

    /// Internal consistency check (used by tests): blocks tile the
    /// partition exactly, links are consistent, and no two free blocks
    /// are adjacent.
    pub fn check_invariants(&self) {
        let mut cur = self.head;
        let mut expect_off = 0;
        let mut prev = NONE;
        let mut last_free = false;
        let mut total = 0;
        while cur != NONE {
            let b = &self.blocks[cur];
            assert_eq!(b.off, expect_off, "blocks must tile the partition");
            assert_eq!(b.prev, prev, "prev link broken at {cur}");
            assert!(b.len > 0, "zero-length block {cur}");
            assert!(!(last_free && b.free), "adjacent free blocks not coalesced");
            assert!(b.free || b.off + b.len <= self.high_water, "live block {cur} above the high-water mark");
            last_free = b.free;
            expect_off += b.len;
            total += b.len;
            prev = cur;
            cur = b.next;
        }
        assert_eq!(total, self.size, "blocks must cover the whole partition");
    }

    /// Live allocations as (offset, len) pairs, in address order.
    pub fn live_blocks(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut cur = self.head;
        while cur != NONE {
            let b = &self.blocks[cur];
            if !b.free {
                out.push((b.off, b.len));
            }
            cur = b.next;
        }
        out
    }
}

fn round_up(v: usize, align: usize) -> usize {
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_covers_every_allocation_and_never_falls() {
        let mut h = Heap::new(4096);
        assert_eq!(h.high_water(), 0);
        let a = h.alloc(100).unwrap(); // rounds to 104
        assert_eq!(h.high_water(), 104);
        h.free(a).unwrap();
        assert_eq!(h.high_water(), 104, "a stale handle still lies under the mark");
        let b = h.alloc(8).unwrap();
        assert_eq!((b, h.high_water()), (0, 104), "reuse below the mark leaves it");
        let c = h.alloc_aligned(16, 256).unwrap();
        assert_eq!((c, h.high_water()), (256, 272), "alignment padding counts");
        // Grow in place into the free successor, then by moving.
        assert_eq!(h.realloc(c, 100).unwrap(), c);
        assert_eq!(h.high_water(), 256 + 104);
        let d = h.alloc_aligned(8, 512).unwrap();
        assert_eq!((d, h.high_water()), (512, 520));
        let moved = h.realloc(c, 1000).unwrap();
        assert_eq!((moved, h.high_water()), (520, 1520));
        h.check_invariants();
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut h = Heap::new(1024);
        let a = h.alloc(100).unwrap();
        let b = h.alloc(200).unwrap();
        assert_ne!(a, b);
        h.check_invariants();
        h.free(a).unwrap();
        h.free(b).unwrap();
        h.check_invariants();
        assert_eq!(h.allocated(), 0);
        // Fully coalesced: a max-size alloc succeeds again.
        let c = h.alloc(1024).unwrap();
        assert_eq!(c, 0);
    }

    #[test]
    fn deterministic_offsets_across_replicas() {
        // The symmetry property: same call sequence => same offsets.
        let run = || {
            let mut h = Heap::new(4096);
            let a = h.alloc(64).unwrap();
            let b = h.alloc(128).unwrap();
            h.free(a).unwrap();
            let c = h.alloc(32).unwrap();
            let d = h.alloc(640).unwrap();
            (a, b, c, d)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn first_fit_reuses_freed_hole() {
        let mut h = Heap::new(1024);
        let a = h.alloc(128).unwrap();
        let _b = h.alloc(128).unwrap();
        h.free(a).unwrap();
        let c = h.alloc(64).unwrap();
        assert_eq!(c, a, "first fit should land in the freed hole");
        h.check_invariants();
    }

    #[test]
    fn allocations_are_aligned() {
        let mut h = Heap::new(1024);
        let a = h.alloc(3).unwrap();
        let b = h.alloc(5).unwrap();
        assert_eq!(a % DEFAULT_ALIGN, 0);
        assert_eq!(b % DEFAULT_ALIGN, 0);
        let c = h.alloc_aligned(10, 64).unwrap();
        assert_eq!(c % 64, 0);
        h.check_invariants();
    }

    #[test]
    fn bad_alignment_rejected() {
        let mut h = Heap::new(64);
        assert_eq!(h.alloc_aligned(8, 3), Err(HeapError::BadAlign { align: 3 }));
        assert_eq!(h.alloc_aligned(8, 0), Err(HeapError::BadAlign { align: 0 }));
    }

    #[test]
    fn oom_reported() {
        let mut h = Heap::new(128);
        h.alloc(100).unwrap();
        assert!(matches!(h.alloc(100), Err(HeapError::OutOfMemory { .. })));
    }

    #[test]
    fn double_free_rejected() {
        let mut h = Heap::new(128);
        let a = h.alloc(16).unwrap();
        h.free(a).unwrap();
        assert_eq!(h.free(a), Err(HeapError::InvalidFree { offset: a }));
        assert_eq!(h.free(9999), Err(HeapError::InvalidFree { offset: 9999 }));
    }

    #[test]
    fn zero_length_allocs_get_unique_offsets() {
        let mut h = Heap::new(128);
        let a = h.alloc(0).unwrap();
        let b = h.alloc(0).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn realloc_in_place_when_possible() {
        let mut h = Heap::new(1024);
        let a = h.alloc(64).unwrap();
        // Nothing after `a` yet, so growth extends in place.
        let a2 = h.realloc(a, 256).unwrap();
        assert_eq!(a, a2);
        h.check_invariants();
        // Shrink is in place.
        let a3 = h.realloc(a2, 16).unwrap();
        assert_eq!(a2, a3);
    }

    #[test]
    fn realloc_moves_when_blocked() {
        let mut h = Heap::new(1024);
        let a = h.alloc(64).unwrap();
        let _wall = h.alloc(64).unwrap();
        let a2 = h.realloc(a, 512).unwrap();
        assert_ne!(a, a2);
        h.check_invariants();
    }

    #[test]
    fn fragmentation_then_coalesce() {
        let mut h = Heap::new(4096);
        // Fill the heap completely, then punch alternating holes.
        let offs: Vec<_> = (0..32).map(|_| h.alloc(128).unwrap()).collect();
        // Free every other block: no full-size alloc possible.
        for o in offs.iter().step_by(2) {
            h.free(*o).unwrap();
        }
        h.check_invariants();
        assert!(matches!(h.alloc(2048), Err(HeapError::OutOfMemory { .. })));
        // Free the rest: coalescing restores the arena.
        for o in offs.iter().skip(1).step_by(2) {
            h.free(*o).unwrap();
        }
        h.check_invariants();
        assert_eq!(h.alloc(4096).unwrap(), 0);
    }

    #[test]
    fn live_blocks_reporting() {
        let mut h = Heap::new(512);
        let a = h.alloc(64).unwrap();
        let b = h.alloc(32).unwrap();
        h.free(a).unwrap();
        let live = h.live_blocks();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].0, b);
    }
}
