//! Recycling pool for symmetric-heap arena shard sets.
//!
//! A server job's symmetric heap is a [`ShardedArena`]: one
//! `CommonMemory` allocation per coop worker covering that worker's PE
//! partitions. Allocating (and faulting in) hundreds of KB per job
//! dominates small-job launch cost, so the server keeps retired shard
//! sets in a geometry-keyed pool and hands them to the next job with
//! the same shape.
//!
//! [`ShardedArena`]: crate::engine::wall::ShardedArena
//!
//! **Isolation contract:** a recycled shard still holds the previous
//! tenant's heap bytes, so every checkout is scrubbed before reuse —
//! the whole partition is zeroed (restoring the freshly-allocated
//! contract), except that under `debug_assertions` the `shmalloc` heap
//! region is filled with [`POISON`] instead, so a tenant that reads
//! heap memory before initializing it fails loudly in debug runs
//! instead of silently inheriting zeros. The internal region (barrier /
//! collective flags, temp buffer, `[heap_bytes, partition_bytes)`) is
//! always zeroed: the sequence-numbered flag protocols start every
//! launch from zero, and a poisoned flag word would satisfy a wait that
//! no peer ever signaled.
//!
//! Only *cleanly completed* jobs retire their shards here. A panicked
//! or wedged job unwinds out of the launch before the check-in point,
//! so its arena — which leaked PE threads might in principle still
//! reach — is simply dropped and the next job allocates fresh.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cachesim::homing::Homing;
use substrate::sync::Mutex;
use tmc::common::CommonMemory;

/// Debug-build fill byte for recycled `shmalloc` heap regions.
pub const POISON: u8 = 0xA5;

/// Geometry key of one shard set: shapes must match exactly for a
/// retired set to satisfy a checkout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Geometry {
    npes: usize,
    workers: usize,
    /// PEs per shard (`ceil(npes / workers)`).
    block: usize,
    partition_bytes: usize,
}

/// Per-shard byte lengths for a geometry (the last shard may cover
/// fewer PEs).
fn shard_lens(g: Geometry) -> impl Iterator<Item = usize> {
    (0..g.workers).map(move |w| {
        let pes = ((w + 1) * g.block).min(g.npes) - w * g.block;
        pes * g.partition_bytes
    })
}

/// Counters of how checkouts were satisfied (see [`ArenaPool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaPoolStats {
    /// Checkouts that allocated a fresh shard set.
    pub fresh: u64,
    /// Checkouts satisfied by scrubbing a retired set.
    pub recycled: u64,
}

/// A geometry-keyed pool of retired symmetric-heap shard sets (see the
/// module docs for the scrub-on-checkout isolation contract).
pub struct ArenaPool {
    pools: Mutex<HashMap<Geometry, Vec<Vec<Arc<CommonMemory>>>>>,
    /// Retired sets kept per geometry; extras are dropped at check-in.
    cap_per_geometry: usize,
    fresh: AtomicU64,
    recycled: AtomicU64,
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
        }
    }

    /// How checkouts so far were satisfied.
    pub fn stats(&self) -> ArenaPoolStats {
        ArenaPoolStats {
            fresh: self.fresh.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
        }
    }

    /// A scrubbed shard set for the given launch geometry: recycled
    /// when a matching retired set exists, freshly allocated otherwise.
    /// `heap_bytes` is the `shmalloc` region length at the bottom of
    /// each partition — the boundary between the (debug-poisoned) tenant
    /// heap and the always-zeroed internal region.
    pub(crate) fn checkout(
        &self,
        npes: usize,
        workers: usize,
        block: usize,
        partition_bytes: usize,
        heap_bytes: usize,
    ) -> Vec<Arc<CommonMemory>> {
        let g = Geometry { npes, workers, block, partition_bytes };
        let reused = self.pools.lock().get_mut(&g).and_then(Vec::pop);
        match reused {
            Some(shards) => {
                // Scrub outside the pool lock: a memset over a few
                // hundred KB must not serialize concurrent checkouts.
                for shard in &shards {
                    scrub_shard(shard, partition_bytes, heap_bytes);
                }
                self.recycled.fetch_add(1, Ordering::Relaxed);
                shards
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                shard_lens(g)
                    .map(|len| CommonMemory::new(len, Homing::HashForHome))
                    .collect()
            }
        }
    }

    /// Retire a cleanly-completed job's shard set. Sets whose shapes do
    /// not match the claimed geometry (or that exceed the per-geometry
    /// cap) are dropped instead of pooled.
    pub(crate) fn check_in(
        &self,
        npes: usize,
        workers: usize,
        block: usize,
        partition_bytes: usize,
        shards: Vec<Arc<CommonMemory>>,
    ) {
        let g = Geometry { npes, workers, block, partition_bytes };
        let shapes_match = shards.len() == workers
            && shard_lens(g).zip(shards.iter()).all(|(len, s)| s.len() == len);
        if !shapes_match {
            return;
        }
        let mut pools = self.pools.lock();
        let sets = pools.entry(g).or_default();
        if sets.len() < self.cap_per_geometry {
            sets.push(shards);
        }
    }
}

/// Scrub one recycled shard: zero every partition's internal region,
/// and zero (release) or poison (debug) its tenant heap region.
fn scrub_shard(shard: &CommonMemory, partition_bytes: usize, heap_bytes: usize) {
    let heap = heap_bytes.min(partition_bytes);
    let mut base = 0;
    while base < shard.len() {
        if cfg!(debug_assertions) {
            shard.fill(base, heap, POISON);
            shard.fill(base + heap, partition_bytes - heap, 0);
        } else {
            shard.fill(base, partition_bytes, 0);
        }
        base += partition_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PART: usize = 256;
    const HEAP: usize = 192;

    fn geometry_shards(pool: &ArenaPool) -> Vec<Arc<CommonMemory>> {
        pool.checkout(3, 2, 2, PART, HEAP)
    }

    #[test]
    fn checkout_recycles_matching_geometry_and_scrubs() {
        let pool = ArenaPool::new();
        let shards = geometry_shards(&pool);
        assert_eq!(pool.stats(), ArenaPoolStats { fresh: 1, recycled: 0 });
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].len(), 2 * PART); // 2 PEs
        assert_eq!(shards[1].len(), PART); // trailing single PE
        // A tenant writes a secret into its heap AND the internal region.
        shards[0].write_bytes(10, b"secret");
        shards[0].write_bytes(HEAP + 4, b"flags");
        let ptrs: Vec<*const u8> = shards.iter().map(|s| s.raw(0, 1) as *const u8).collect();
        pool.check_in(3, 2, 2, PART, shards);

        let again = geometry_shards(&pool);
        assert_eq!(pool.stats(), ArenaPoolStats { fresh: 1, recycled: 1 });
        // Same allocations back...
        for (s, p) in again.iter().zip(&ptrs) {
            assert!(std::ptr::eq(s.raw(0, 1) as *const u8, *p));
        }
        // ...but scrubbed: heap region zeroed or poisoned, never the
        // prior tenant's bytes; internal region always zeroed.
        let mut buf = [0u8; 6];
        again[0].read_bytes(10, &mut buf);
        let expect = if cfg!(debug_assertions) { [POISON; 6] } else { [0; 6] };
        assert_eq!(buf, expect, "prior tenant's heap bytes leaked through recycling");
        let mut flags = [POISON; 5];
        again[0].read_bytes(HEAP + 4, &mut flags);
        assert_eq!(flags, [0; 5], "internal flag region must be zeroed on recycle");
    }

    #[test]
    fn mismatched_geometry_is_not_recycled() {
        let pool = ArenaPool::new();
        let shards = pool.checkout(2, 1, 2, PART, HEAP);
        // Claiming the wrong shape drops the set instead of pooling it.
        pool.check_in(4, 1, 4, PART, shards);
        let _ = pool.checkout(4, 1, 4, PART, HEAP);
        assert_eq!(pool.stats(), ArenaPoolStats { fresh: 2, recycled: 0 });
    }

    #[test]
    fn pool_capacity_bounds_retired_sets() {
        let pool = ArenaPool::with_capacity(1);
        let a = geometry_shards(&pool);
        let b = geometry_shards(&pool);
        pool.check_in(3, 2, 2, PART, a);
        pool.check_in(3, 2, 2, PART, b); // over cap: dropped
        let _ = geometry_shards(&pool);
        let _ = geometry_shards(&pool);
        assert_eq!(pool.stats(), ArenaPoolStats { fresh: 3, recycled: 1 });
    }
}
