//! Dynamic Distributed Cache (DDC) directory.
//!
//! Tilera's DDC presents the union of all tiles' L2 caches as a large
//! shared L3: a line missing the local L1d/L2 may still be served from
//! its *home tile's* L2 instead of DRAM. We model the directory as a
//! residency set with **CLOCK (second-chance) replacement** and a
//! configurable effective capacity:
//!
//! * a *single* streaming tile only reaches the "L2 caches of nearby
//!   tiles" (the paper's explanation of Figure 3's third transition),
//!   captured by `MemTimings::ddc_effective_bytes`;
//! * when many tiles are active, each contributes its own L2 to the
//!   pool, so [`crate::memsys::MemorySystem`] scales the capacity with
//!   the tile count.
//!
//! Second-chance replacement matters for the collective workloads:
//! a broadcast source re-referenced by every reader stays on chip while
//! the readers' streaming destination writes flow through, which is what
//! the real LRU-ish L2s do.
//!
//! The residency map is keyed by line index and hashed with
//! [`LineHasher`], one multiply per probe instead of SipHash. The map is
//! never iterated (CLOCK order lives in the FIFO), so the hasher cannot
//! change which lines are resident or which one is evicted.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Fibonacci hashing of a line index: one multiply by 2^64/φ, rotated so
/// the well-mixed high half of the product lands in the low bits the map
/// indexes its buckets by. Line indices are keys the simulator chose, not
/// adversarial input, so no keyed hash is needed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Residency directory for on-chip (remote-L2) lines.
#[derive(Clone, Debug)]
pub struct DdcDirectory<S = BuildHasherDefault<LineHasher>> {
    capacity_lines: usize,
    /// CLOCK order (front = next eviction candidate).
    fifo: VecDeque<u64>,
    /// line -> referenced bit (second chance).
    resident: HashMap<u64, bool, S>,
    hits: u64,
    misses: u64,
}

impl DdcDirectory {
    /// Directory with `capacity_bytes` of effective on-chip capacity,
    /// tracked at `line_bytes` granularity.
    pub fn new(capacity_bytes: usize, line_bytes: usize) -> Self {
        Self::with_hasher(capacity_bytes, line_bytes)
    }
}

impl<S: BuildHasher + Default> DdcDirectory<S> {
    fn with_hasher(capacity_bytes: usize, line_bytes: usize) -> Self {
        let capacity_lines = (capacity_bytes / line_bytes).max(1);
        Self {
            capacity_lines,
            fifo: VecDeque::with_capacity(capacity_lines),
            resident: HashMap::with_capacity_and_hasher(capacity_lines * 2, S::default()),
            hits: 0,
            misses: 0,
        }
    }

    pub fn capacity_lines(&self) -> usize {
        self.capacity_lines
    }

    /// Touch a line: returns `true` if it was on chip (marking it
    /// recently used). On miss the line is installed (it has now been
    /// fetched to its home L2), evicting per CLOCK when at capacity.
    pub fn access(&mut self, line_addr: u64) -> bool {
        if let Some(referenced) = self.resident.get_mut(&line_addr) {
            *referenced = true;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.install_cold(line_addr);
        false
    }

    /// Install a line without counting an access (stores write through
    /// to the home L2, bringing the line on chip). Already-resident
    /// lines are marked recently used (the store re-references them).
    pub fn install(&mut self, line_addr: u64) {
        if let Some(referenced) = self.resident.get_mut(&line_addr) {
            *referenced = true;
            return;
        }
        self.install_cold(line_addr);
    }

    fn install_cold(&mut self, line_addr: u64) {
        while self.fifo.len() >= self.capacity_lines {
            let victim = self.fifo.pop_front().expect("fifo tracks residency");
            match self.resident.get_mut(&victim) {
                Some(referenced) if *referenced => {
                    // Second chance: clear the bit and recycle.
                    *referenced = false;
                    self.fifo.push_back(victim);
                }
                Some(_) => {
                    self.resident.remove(&victim);
                    break;
                }
                None => unreachable!("fifo entry without residency"),
            }
        }
        self.fifo.push_back(line_addr);
        self.resident.insert(line_addr, false);
    }

    /// Residency check without side effects.
    pub fn probe(&self, line_addr: u64) -> bool {
        self.resident.contains_key(&line_addr)
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn resident_lines(&self) -> usize {
        self.resident.len()
    }

    /// Drop everything (e.g. between benchmark configurations).
    pub fn flush(&mut self) {
        self.fifo.clear();
        self.resident.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_capacity_second_sweep_hits() {
        let mut d = DdcDirectory::new(64 * 100, 64); // 100 lines
        for l in 0..100 {
            assert!(!d.access(l));
        }
        for l in 0..100 {
            assert!(d.access(l));
        }
        assert_eq!(d.hits(), 100);
        assert_eq!(d.misses(), 100);
    }

    #[test]
    fn cyclic_sweep_well_beyond_capacity_thrashes() {
        let mut d = DdcDirectory::new(64 * 100, 64);
        // 4x capacity: even with second chances, a pure cyclic sweep
        // cannot retain its working set.
        let mut second_sweep_hits = 0;
        for sweep in 0..3 {
            for l in 0..400u64 {
                if d.access(l) && sweep > 0 {
                    second_sweep_hits += 1;
                }
            }
        }
        assert!(
            second_sweep_hits < 100,
            "mostly misses expected, got {second_sweep_hits} hits"
        );
    }

    #[test]
    fn hot_lines_survive_streaming_writes() {
        // The broadcast pattern: a re-referenced source must survive a
        // much larger stream of install-only destination lines.
        let mut d = DdcDirectory::new(64 * 64, 64); // 64 lines
        for l in 0..32 {
            d.access(l); // source, cold
        }
        d.install(5000); // one unreferenced line so round 0 has a victim
        for round in 0..8u64 {
            // Re-reference the source, then stream a batch of one-shot
            // lines smaller than the unreferenced pool (the broadcast
            // pattern: each reader touches the source, then writes its
            // own destination).
            for l in 0..32 {
                assert!(d.access(l), "source line {l} lost in round {round}");
            }
            for s in 0..24 {
                d.install(10_000 + round * 24 + s);
            }
        }
    }

    #[test]
    fn install_brings_line_on_chip() {
        let mut d = DdcDirectory::new(64 * 10, 64);
        d.install(42);
        assert!(d.probe(42));
        assert!(d.access(42));
        assert_eq!(d.misses(), 0);
    }

    #[test]
    fn install_is_idempotent() {
        let mut d = DdcDirectory::new(64 * 2, 64);
        d.install(1);
        d.install(1);
        d.install(2);
        assert_eq!(d.resident_lines(), 2);
        // Line 3 must evict exactly one line.
        d.install(3);
        assert_eq!(d.resident_lines(), 2);
    }

    #[test]
    fn capacity_floor_is_one_line() {
        let d = DdcDirectory::new(1, 64);
        assert_eq!(d.capacity_lines(), 1);
    }

    #[test]
    fn flush_resets() {
        let mut d = DdcDirectory::new(64 * 4, 64);
        d.access(9);
        d.flush();
        assert!(!d.probe(9));
        assert_eq!(d.resident_lines(), 0);
        assert_eq!(d.misses(), 0);
    }

    #[test]
    fn resident_never_exceeds_capacity() {
        let mut d = DdcDirectory::new(64 * 16, 64);
        for l in 0..1000 {
            if l % 3 == 0 {
                d.access(l);
            } else {
                d.install(l);
            }
            assert!(d.resident_lines() <= 16);
        }
    }

    /// The one-multiply hasher changes nothing the simulator can see:
    /// over a seeded stream of accesses and installs (reuse, streaming
    /// and strided lines, several evictions' worth), a directory hashed
    /// with SipHash returns the same hit/miss sequence and residency.
    #[test]
    fn line_hasher_matches_siphash_residency() {
        use std::collections::hash_map::RandomState;
        let mut fast = DdcDirectory::new(64 * 256, 64);
        let mut sip = DdcDirectory::<RandomState>::with_hasher(64 * 256, 64);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..200_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let line = match (x >> 60) % 4 {
                0 => (x >> 20) % 300,          // hot set just past capacity
                1 => i,                        // streaming
                2 => ((x >> 20) % 512) << 10,  // strided, shared low bits
                _ => (x >> 8) % 100_000,       // scattered
            };
            if (x >> 40).is_multiple_of(3) {
                fast.install(line);
                sip.install(line);
            } else {
                assert_eq!(fast.access(line), sip.access(line), "access {i} of line {line}");
            }
            assert_eq!(fast.resident_lines(), sip.resident_lines());
        }
        assert_eq!((fast.hits(), fast.misses()), (sip.hits(), sip.misses()));
        assert!(fast.hits() > 0 && fast.misses() > 0);
    }
}
