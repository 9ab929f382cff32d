//! Set-associative caches with LRU replacement (tag store only).
//!
//! The simulator tracks which lines are resident, not their contents —
//! data movement happens for real in the native engine and is costed by
//! the copy model in the timed engine.

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    pub size_bytes: usize,
    pub line_bytes: usize,
    pub assoc: usize,
}

impl CacheConfig {
    pub fn new(size_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(size_bytes.is_multiple_of(line_bytes * assoc), "size must divide into sets");
        Self {
            size_bytes,
            line_bytes,
            assoc,
        }
    }

    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.assoc)
    }

    pub fn lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }
}

/// A set-associative LRU cache over 64-bit line addresses.
///
/// `access` touches a line (allocating it on miss) and reports whether it
/// hit; `probe` checks residency without disturbing LRU state.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Per-set tag lists, most-recently-used first.
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    pub fn new(cfg: CacheConfig) -> Self {
        Self {
            cfg,
            sets: vec![Vec::with_capacity(cfg.assoc); cfg.sets()], // cold: once per tile hierarchy
            hits: 0,
            misses: 0,
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr % self.sets.len() as u64) as usize
    }

    /// Touch `line_addr` (a *line* address, i.e. byte address divided by
    /// the line size). Returns `true` on hit. On miss the line is
    /// allocated, evicting the LRU line of the set if full; the evicted
    /// line address is returned through `evicted`.
    pub fn access(&mut self, line_addr: u64) -> (bool, Option<u64>) {
        let assoc = self.cfg.assoc;
        let set_idx = self.set_of(line_addr);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line_addr) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.insert(0, t);
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        let evicted = if set.len() == assoc { set.pop() } else { None };
        set.insert(0, line_addr);
        (false, evicted)
    }

    /// Residency check without LRU update.
    pub fn probe(&self, line_addr: u64) -> bool {
        self.sets[self.set_of(line_addr)].contains(&line_addr)
    }

    /// Remove a line if present (invalidation).
    pub fn invalidate(&mut self, line_addr: u64) -> bool {
        let set_idx = self.set_of(line_addr);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line_addr) {
            set.remove(pos);
            true
        } else {
            false
        }
    }

    /// Drop all lines and reset statistics.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.hits = 0;
        self.misses = 0;
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of lines currently resident.
    pub fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        SetAssocCache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(32 * 1024, 64, 8);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.lines(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig::new(512, 48, 2);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(5), (false, None));
        assert_eq!(c.access(5), (true, None));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent_within_set() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.access(0);
        c.access(4);
        c.access(0); // 0 becomes MRU, 4 is LRU
        let (hit, evicted) = c.access(8);
        assert!(!hit);
        assert_eq!(evicted, Some(4));
        assert!(c.probe(0));
        assert!(!c.probe(4));
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = tiny();
        c.access(0);
        c.access(4); // MRU=4, LRU=0
        assert!(c.probe(0)); // does not promote 0
        let (_, evicted) = c.access(8);
        assert_eq!(evicted, Some(0));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = tiny();
        c.access(3);
        assert!(c.invalidate(3));
        assert!(!c.invalidate(3));
        assert!(!c.probe(3));
        c.access(1);
        c.flush();
        assert_eq!(c.resident(), 0);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn working_set_within_capacity_all_hits_on_second_sweep() {
        let mut c = SetAssocCache::new(CacheConfig::new(4096, 64, 4));
        let lines = (c.config().lines()) as u64;
        for l in 0..lines {
            c.access(l);
        }
        let misses_before = c.misses();
        for l in 0..lines {
            let (hit, _) = c.access(l);
            assert!(hit, "line {l} should be resident on second sweep");
        }
        assert_eq!(c.misses(), misses_before);
    }

    #[test]
    fn cyclic_sweep_beyond_capacity_thrashes() {
        let mut c = SetAssocCache::new(CacheConfig::new(4096, 64, 4));
        let lines = c.config().lines() as u64 * 2;
        for sweep in 0..3 {
            for l in 0..lines {
                let (hit, _) = c.access(l);
                if sweep > 0 {
                    // LRU + cyclic overflow = every access misses.
                    assert!(!hit);
                }
            }
        }
    }
}
