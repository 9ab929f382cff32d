//! Recycling pool for the memory of a launch: the symmetric-heap arena
//! and the private segments.
//!
//! A job's memory is a [`SegmentSet`]: one `CommonMemory` arena holding
//! every PE's partition — the TMC common-memory region of the paper,
//! partitioned per PE — and one private (static-variable) segment per
//! PE. A fresh set is zero pages (`CommonMemory::new` maps, it does not
//! `memset`), but it still costs a mapping per segment, a page fault per
//! page the job touches and an unmapping at the end; so whoever keeps
//! an [`ArenaPool`] warm — the server — gets the set of a cleanly
//! completed job back, its pages resident, for the next job of the same
//! [`Geometry`].
//!
//! **Isolation contract:** a retired set still holds the previous
//! tenant's bytes, so every checkout scrubs it — to its *dirty extent*,
//! not end to end. A set is retired with two numbers, read after the
//! tenant closure has returned on every PE: the maximum over PEs of the
//! symmetric heap's high-water mark and of the static bump
//! (`ShmemCtx::dirty_extent`). Checkout scrubs, per partition,
//! `[0, heap extent)` and the internal region
//! `[heap_bytes, partition_bytes)`, and per private segment
//! `[0, static extent)`. Bytes beyond were clean when the set was handed
//! out and no tenant handle can address them: a `Sym` is only ever made
//! by the allocator (`Sym::new` is crate-private), every RMA and local
//! access is bounded by its `Sym`, a stale handle after `shfree` still
//! lies under the monotone mark, and the maximum over PEs covers a job
//! whose PEs `shmalloc` different sizes and `put` through the larger
//! handle.
//!
//! The heap extent is zeroed — except that under `debug_assertions` it
//! is filled with [`POISON`], so a tenant that reads heap memory before
//! initializing it fails loudly in debug runs instead of silently
//! inheriting zeros (a debug heap is therefore poison or zero, never a
//! tenant's bytes). The internal region (barrier / collective flags,
//! temp buffer) is always zeroed whole: the sequence-numbered flag
//! protocols start every launch from zero, and a poisoned flag word
//! would satisfy a wait that no peer ever signaled. Statics are the
//! analog of `.bss` and are always zero.
//!
//! Only *cleanly completed* jobs retire their set. A panicked or wedged
//! job unwinds out of the launch before the check-in point, so its
//! memory — which leaked PE threads might in principle still reach — is
//! simply dropped and the next job allocates fresh.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cachesim::homing::Homing;
use substrate::sync::Mutex;
use tmc::common::CommonMemory;

use crate::runtime::RuntimeConfig;

/// Debug-build fill byte for recycled `shmalloc` heap regions.
pub const POISON: u8 = 0xA5;

/// The shape of one launch's memory: shapes must match exactly for a
/// retired set to satisfy a checkout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Geometry {
    pub npes: usize,
    pub partition_bytes: usize,
    /// The `shmalloc` region at the bottom of each partition; the
    /// internal region is `[heap_bytes, partition_bytes)`.
    pub heap_bytes: usize,
    pub private_bytes: usize,
}

impl Geometry {
    /// The geometry of a launch of `cfg`.
    pub fn of(cfg: &RuntimeConfig) -> Self {
        Self {
            npes: cfg.npes,
            partition_bytes: cfg.partition_bytes,
            heap_bytes: cfg.layout().heap_bytes,
            private_bytes: cfg.private_bytes,
        }
    }

    fn fits(self, set: &SegmentSet) -> bool {
        set.arena.len() == self.npes * self.partition_bytes
            && set.privates.len() == self.npes
            && set.privates.iter().all(|p| p.len() == self.private_bytes)
    }
}

/// The memory of one launch.
#[derive(Clone)]
pub struct SegmentSet {
    /// The symmetric-heap arena: partition `pe` at `pe * partition_bytes`.
    pub arena: Arc<CommonMemory>,
    /// Private (static-variable) segments, one per PE.
    pub privates: Vec<Arc<CommonMemory>>,
}

/// A set as its last job left it.
struct Retired {
    set: SegmentSet,
    heap_extent: usize,
    static_extent: usize,
}

/// Counters of how checkouts were satisfied (see [`ArenaPool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaPoolStats {
    /// Checkouts that allocated a fresh set.
    pub fresh: u64,
    /// Checkouts satisfied by scrubbing a retired set.
    pub recycled: u64,
    /// Bytes those scrubs wrote.
    pub scrubbed_bytes: u64,
}

/// A geometry-keyed pool of retired segment sets (see the module docs
/// for the scrub-on-checkout isolation contract).
pub struct ArenaPool {
    pools: Mutex<HashMap<Geometry, Vec<Retired>>>,
    /// Retired sets kept per geometry; extras are dropped at check-in.
    cap_per_geometry: usize,
    fresh: AtomicU64,
    recycled: AtomicU64,
    scrubbed_bytes: AtomicU64,
}

impl Default for ArenaPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ArenaPool {
    pub fn new() -> Self {
        Self::with_capacity(8)
    }

    /// A pool keeping at most `cap_per_geometry` retired sets per shape.
    pub fn with_capacity(cap_per_geometry: usize) -> Self {
        Self {
            pools: Mutex::new(HashMap::new()),
            cap_per_geometry: cap_per_geometry.max(1),
            fresh: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            scrubbed_bytes: AtomicU64::new(0),
        }
    }

    /// How checkouts so far were satisfied.
    pub fn stats(&self) -> ArenaPoolStats {
        ArenaPoolStats {
            fresh: self.fresh.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            scrubbed_bytes: self.scrubbed_bytes.load(Ordering::Relaxed),
        }
    }

    /// A clean set for launch geometry `g`: a retired one scrubbed to
    /// its dirty extent when one matches, freshly allocated otherwise.
    pub fn checkout(&self, g: Geometry) -> SegmentSet {
        let reused = self.pools.lock().get_mut(&g).and_then(Vec::pop);
        let Some(Retired { set, heap_extent, static_extent }) = reused else {
            self.fresh.fetch_add(1, Ordering::Relaxed);
            // Only when no retired set matches: a warm server allocates
            // once per geometry and job width in flight.
            let private = |pe| CommonMemory::new(g.private_bytes, Homing::Local(pe)); // cold: see above
            return SegmentSet {
                arena: CommonMemory::new(g.npes * g.partition_bytes, Homing::HashForHome), // cold: see above
                privates: (0..g.npes).map(private).collect(),
            };
        };
        // Scrub outside the pool lock: a memset must not serialize
        // concurrent checkouts.
        let heap_fill = if cfg!(debug_assertions) { POISON } else { 0 };
        let privates = set.privates.iter().map(|p| scrub(p, g.private_bytes, static_extent, g.private_bytes, 0));
        let scrubbed = scrub(&set.arena, g.partition_bytes, heap_extent, g.heap_bytes, heap_fill) + privates.sum::<usize>();
        self.scrubbed_bytes.fetch_add(scrubbed as u64, Ordering::Relaxed);
        self.recycled.fetch_add(1, Ordering::Relaxed);
        set
    }

    /// Retire the set of a cleanly completed job of geometry `g` whose
    /// handles reached no further than `heap_extent` bytes into any
    /// partition's heap and `static_extent` bytes into any private
    /// segment. A set that does not have the claimed shape (or exceeds
    /// the per-geometry cap) is dropped instead of pooled.
    pub fn check_in(&self, g: Geometry, set: SegmentSet, heap_extent: usize, static_extent: usize) {
        if !g.fits(&set) {
            return;
        }
        let mut pools = self.pools.lock();
        let sets = pools.entry(g).or_default();
        if sets.len() < self.cap_per_geometry {
            sets.push(Retired {
                set,
                heap_extent: heap_extent.min(g.heap_bytes),
                static_extent: static_extent.min(g.private_bytes),
            });
        }
    }
}

/// Scrub every `stride`-byte unit of `segment` (a partition of the
/// arena, or a whole private segment): `fill` over its first `extent`
/// bytes, zero over `[tail, stride)`. Returns the bytes written.
fn scrub(segment: &CommonMemory, stride: usize, extent: usize, tail: usize, fill: u8) -> usize {
    let units = segment.len().checked_div(stride).unwrap_or(0);
    for base in (0..units).map(|u| u * stride) {
        segment.fill(base, extent, fill);
        if tail < stride {
            segment.fill(base + tail, stride - tail, 0);
        }
    }
    units * (extent + stride - tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PART: usize = 256;
    const HEAP: usize = 192;
    const PRIV: usize = 64;

    /// 3 PEs: an arena of 3 partitions.
    const G: Geometry = Geometry {
        npes: 3,
        partition_bytes: PART,
        heap_bytes: HEAP,
        private_bytes: PRIV,
    };

    fn read<const N: usize>(seg: &CommonMemory, off: usize) -> [u8; N] {
        let mut buf = [0xEE; N];
        seg.read_bytes(off, &mut buf);
        buf
    }

    const HEAP_CLEAN: u8 = if cfg!(debug_assertions) { POISON } else { 0 };

    #[test]
    fn checkout_recycles_matching_geometry_and_scrubs_to_the_recorded_extents() {
        let pool = ArenaPool::new();
        let set = pool.checkout(G);
        assert_eq!(pool.stats(), ArenaPoolStats { fresh: 1, recycled: 0, scrubbed_bytes: 0 });
        assert_eq!(set.arena.len(), 3 * PART);
        assert_eq!(set.privates.iter().map(|p| p.len()).collect::<Vec<_>>(), [PRIV; 3]);
        // A tenant whose handles reached 48 heap bytes and 16 static
        // bytes writes a secret at the very end of each reach, in the
        // second partition, and dirties the internal region.
        set.arena.write_bytes(PART + 42, b"secret");
        set.arena.write_bytes(PART + HEAP + 4, b"flags");
        set.privates[2].write_bytes(10, b"static");
        let ptrs: Vec<*const u8> = std::iter::once(&set.arena).chain(&set.privates).map(|s| s.raw(0, 1) as *const u8).collect();
        pool.check_in(G, set, 48, 16);

        let again = pool.checkout(G);
        // Exactly the extents and the internal regions were written.
        let scrubbed = 3 * (48 + PART - HEAP) + 3 * 16;
        assert_eq!(pool.stats(), ArenaPoolStats { fresh: 1, recycled: 1, scrubbed_bytes: scrubbed as u64 });
        // Same allocations back...
        for (s, p) in std::iter::once(&again.arena).chain(&again.privates).zip(&ptrs) {
            assert!(std::ptr::eq(s.raw(0, 1) as *const u8, *p));
        }
        // ...scrubbed: the heap extent zeroed or poisoned, beyond it
        // untouched (still the zeros it was handed out with); internal
        // region and static extent always zeroed.
        assert_eq!(read::<6>(&again.arena, PART + 42), [HEAP_CLEAN; 6], "heap bytes leaked through recycling");
        assert_eq!(read::<8>(&again.arena, PART + 44), [HEAP_CLEAN, HEAP_CLEAN, HEAP_CLEAN, HEAP_CLEAN, 0, 0, 0, 0]);
        assert_eq!(read::<5>(&again.arena, PART + HEAP + 4), [0; 5], "internal flag region must be zeroed");
        assert_eq!(read::<6>(&again.privates[2], 10), [0; 6], "static bytes leaked through recycling");

        // The extents are this job's, not the largest ever seen: a job
        // that touched nothing costs the internal regions only.
        pool.check_in(G, again, 0, 0);
        let _ = pool.checkout(G);
        assert_eq!(pool.stats().scrubbed_bytes as usize, scrubbed + 3 * (PART - HEAP));
    }

    /// The scrub trusts the extent: one byte short and the secret stays.
    /// (What makes the recorded extent large enough is `Heap::high_water`
    /// and the server's isolation tests.)
    #[test]
    fn the_scrub_reaches_exactly_as_far_as_the_extent() {
        let pool = ArenaPool::new();
        let set = pool.checkout(G);
        set.arena.write_bytes(2 * PART + 40, &[7; 8]);
        set.privates[0].write_bytes(8, &[7; 8]);
        pool.check_in(G, set, 47, 15);
        let set = pool.checkout(G);
        assert_eq!(read::<8>(&set.arena, 2 * PART + 40), [HEAP_CLEAN, HEAP_CLEAN, HEAP_CLEAN, HEAP_CLEAN, HEAP_CLEAN, HEAP_CLEAN, HEAP_CLEAN, 7]);
        assert_eq!(read::<8>(&set.privates[0], 8), [0, 0, 0, 0, 0, 0, 0, 7]);
    }

    #[test]
    fn a_set_of_another_geometry_is_not_matched() {
        for other in [
            Geometry { npes: 4, ..G },
            Geometry { partition_bytes: 2 * PART, ..G },
            Geometry { heap_bytes: HEAP - 8, ..G },
            Geometry { private_bytes: 2 * PRIV, ..G },
        ] {
            let pool = ArenaPool::new();
            let set = pool.checkout(G);
            pool.check_in(G, set, 8, 8);
            let _ = pool.checkout(other);
            assert_eq!(pool.stats().recycled, 0, "{other:?} took a set of {G:?}");
        }
    }

    #[test]
    fn a_set_that_lacks_the_claimed_shape_is_dropped() {
        for claimed in [Geometry { npes: 4, ..G }, Geometry { private_bytes: 2 * PRIV, ..G }] {
            let pool = ArenaPool::new();
            let set = pool.checkout(G);
            pool.check_in(claimed, set, 0, 0);
            let _ = pool.checkout(claimed);
            assert_eq!(pool.stats(), ArenaPoolStats { fresh: 2, recycled: 0, scrubbed_bytes: 0 });
        }
    }

    /// A fresh set is zero pages, not a `memset`: checking out the
    /// `coll_hier256` launch's memory (256 PEs: one 64 MiB arena and
    /// 256 × 64 KiB privates) makes under 1 MiB resident, it
    /// reads zero, and a write lands. Smallest of three tries, as in
    /// `tmc::common`'s test of one segment.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_fresh_set_stays_non_resident_until_touched() {
        let resident_anon = || {
            let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
            let kib = status.lines().find_map(|l| l.strip_prefix("RssAnon:")).expect("RssAnon line");
            kib.trim().trim_end_matches("kB").trim().parse::<usize>().expect("a kB count") * 1024
        };
        let cfg = RuntimeConfig::for_scale(256);
        let g = Geometry::of(&cfg);
        let grew = (0..3)
            .map(|_| {
                let before = resident_anon();
                let set = ArenaPool::new().checkout(g);
                assert_eq!(set.arena.len(), 64 << 20);
                for seg in std::iter::once(&set.arena).chain(&set.privates) {
                    for off in (0..seg.len()).step_by(seg.len() / 4) {
                        assert_eq!(read::<8>(seg, off), [0; 8]);
                    }
                }
                let grew = resident_anon().saturating_sub(before);
                set.arena.write_bytes(53 << 20, b"touched");
                assert_eq!(&read::<7>(&set.arena, 53 << 20), b"touched");
                grew
            })
            .min()
            .unwrap();
        assert!(grew < 1 << 20, "a fresh 80 MiB set made {grew} B resident");
    }

    #[test]
    fn pool_capacity_bounds_retired_sets() {
        let pool = ArenaPool::with_capacity(1);
        let a = pool.checkout(G);
        let b = pool.checkout(G);
        pool.check_in(G, a, 0, 0);
        pool.check_in(G, b, 0, 0); // over cap: dropped
        let _ = pool.checkout(G);
        let _ = pool.checkout(G);
        assert_eq!((pool.stats().fresh, pool.stats().recycled), (3, 1));
    }
}
