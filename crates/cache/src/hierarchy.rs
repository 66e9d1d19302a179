//! The three-level hierarchy with write-back fills and cascading evictions.

use crate::set_assoc::{CacheConfig, CacheStats, SetAssocCache};

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// L1 data cache hit.
    L1,
    /// L2 hit.
    L2,
    /// L3 hit.
    L3,
    /// Miss everywhere: the line must come from memory.
    Memory,
}

/// Latencies and geometries of all three levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1D geometry (32 KB, 4-way on the Power5+).
    pub l1: CacheConfig,
    /// L2 geometry (3x640 KB, 10-way shared).
    pub l2: CacheConfig,
    /// L3 geometry (36 MB off-chip).
    pub l3: CacheConfig,
    /// L1 hit latency, cycles.
    pub l1_latency: u64,
    /// L2 hit latency, cycles.
    pub l2_latency: u64,
    /// L3 hit latency, cycles.
    pub l3_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 32 * 1024, assoc: 4, line_bytes: 128 },
            l2: CacheConfig { size_bytes: 1920 * 1024, assoc: 10, line_bytes: 128 },
            l3: CacheConfig { size_bytes: 36 * 1024 * 1024, assoc: 12, line_bytes: 128 },
            l1_latency: 2,
            l2_latency: 13,
            l3_latency: 87,
        }
    }
}

/// Result of a hierarchy access or fill: where it hit, the load-to-use
/// latency for cache hits, and any dirty lines displaced all the way out to
/// memory (which the caller must enqueue as DRAM writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Level that serviced the access ([`HitLevel::Memory`] means the
    /// caller must fetch the line and then call
    /// [`Hierarchy::fill_from_memory`]).
    pub level: HitLevel,
    /// Latency in cycles for cache hits; for [`HitLevel::Memory`] this is
    /// the lookup cost spent discovering the miss (the DRAM round trip is
    /// the caller's to add).
    pub latency: u64,
    /// Dirty victim lines displaced out of the L3 by this operation.
    pub writebacks: Writebacks,
}

/// The dirty lines one hierarchy operation displaced out of the L3, in
/// the order they left. There are at most three: an operation installs
/// its line into at most three levels, and each install starts a chain in
/// which every fill displaces at most one victim into the level below, so
/// each chain sends at most one line out of the L3. Held inline
/// (`[u64; 3]` and a length), so an operation allocates nothing; it
/// derefs to `&[u64]` and iterates by value. Entries past the length are
/// always zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Writebacks {
    lines: [u64; 3],
    len: u8,
}

impl Writebacks {
    fn push(&mut self, line: u64) {
        self.lines[usize::from(self.len)] = line;
        self.len += 1;
    }
}

impl std::ops::Deref for Writebacks {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.lines[..usize::from(self.len)]
    }
}

impl IntoIterator for Writebacks {
    type Item = u64;
    type IntoIter = std::iter::Take<std::array::IntoIter<u64, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.lines.into_iter().take(usize::from(self.len))
    }
}

asd_core::counters! {
    /// Per-level statistics.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct HierarchyStats {
        /// L1 counters.
        pub l1: CacheStats => (nested),
        /// L2 counters.
        pub l2: CacheStats => (nested),
        /// L3 counters.
        pub l3: CacheStats => (nested),
        /// Lines written back to memory.
        pub memory_writebacks: u64 => (Lines, "dirty lines written back to memory"),
    }
}

/// The L1/L2/L3 stack. Mostly-inclusive, write-back, write-allocate;
/// evictions cascade downward and dirty L3 victims surface as memory
/// writebacks.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    memory_writebacks: u64,
}

impl Hierarchy {
    /// Build the hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Hierarchy {
            cfg,
            l1: SetAssocCache::new(cfg.l1),
            l2: SetAssocCache::new(cfg.l2),
            l3: SetAssocCache::new(cfg.l3),
            memory_writebacks: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Service one demand access to `line`.
    ///
    /// * L1 hit: done.
    /// * L2/L3 hit: line promoted into the upper levels.
    /// * Miss: outcome says [`HitLevel::Memory`]; once the caller has the
    ///   data it calls [`fill_from_memory`](Hierarchy::fill_from_memory).
    pub fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        let mut wb = Writebacks::default();
        let (level, latency) = if self.l1.access(line, is_write) {
            (HitLevel::L1, self.cfg.l1_latency)
        } else if self.l2.access(line, false) {
            self.promote_to_l1(line, is_write, &mut wb);
            (HitLevel::L2, self.cfg.l2_latency)
        } else if self.l3.access(line, false) {
            self.promote_to_l2(line, false, &mut wb);
            self.promote_to_l1(line, is_write, &mut wb);
            (HitLevel::L3, self.cfg.l3_latency)
        } else {
            (HitLevel::Memory, self.cfg.l3_latency)
        };
        AccessOutcome { level, latency, writebacks: wb }
    }

    /// Install a line fetched from memory into all levels (the demand-fill
    /// path; the Power5+ fills L1 and L2 on demand misses, and our L3 is a
    /// lookaside copy). `is_write` marks the L1 copy dirty.
    pub fn fill_from_memory(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        let mut wb = Writebacks::default();
        self.install_l3(line, false, &mut wb);
        self.promote_to_l2(line, false, &mut wb);
        self.promote_to_l1(line, is_write, &mut wb);
        AccessOutcome { level: HitLevel::Memory, latency: 0, writebacks: wb }
    }

    /// Install a processor-side-prefetched line into L1 (and L2), as the
    /// Power5 stream prefetcher does for the "one line ahead" fill.
    pub fn prefetch_fill_l1(&mut self, line: u64) -> AccessOutcome {
        let mut wb = Writebacks::default();
        self.promote_to_l2(line, false, &mut wb);
        self.promote_to_l1(line, false, &mut wb);
        AccessOutcome { level: HitLevel::Memory, latency: 0, writebacks: wb }
    }

    /// Install a processor-side-prefetched line into L2 only (the "one
    /// further line" fill of the Power5 prefetcher).
    pub fn prefetch_fill_l2(&mut self, line: u64) -> AccessOutcome {
        let mut wb = Writebacks::default();
        self.promote_to_l2(line, false, &mut wb);
        AccessOutcome { level: HitLevel::Memory, latency: 0, writebacks: wb }
    }

    /// Whether `line` is resident anywhere on chip (L1 or L2); used by the
    /// processor-side prefetcher to avoid redundant prefetches.
    pub fn on_chip(&self, line: u64) -> bool {
        self.l1.contains(line) || self.l2.contains(line)
    }

    /// Whether `line` is in a given level (diagnostics and tests).
    pub fn contains(&self, level: HitLevel, line: u64) -> bool {
        match level {
            HitLevel::L1 => self.l1.contains(line),
            HitLevel::L2 => self.l2.contains(line),
            HitLevel::L3 => self.l3.contains(line),
            HitLevel::Memory => false,
        }
    }

    fn promote_to_l1(&mut self, line: u64, dirty: bool, wb: &mut Writebacks) {
        if let Some((victim, victim_dirty)) = self.l1.fill(line, dirty) {
            if victim_dirty {
                // Write-back into L2.
                self.install_l2_dirty(victim, wb);
            }
        }
    }

    fn promote_to_l2(&mut self, line: u64, dirty: bool, wb: &mut Writebacks) {
        if let Some((victim, victim_dirty)) = self.l2.fill(line, dirty) {
            if victim_dirty {
                self.install_l3_dirty(victim, wb);
            }
        }
    }

    fn install_l2_dirty(&mut self, line: u64, wb: &mut Writebacks) {
        if let Some((victim, victim_dirty)) = self.l2.fill(line, true) {
            if victim_dirty {
                self.install_l3_dirty(victim, wb);
            }
        }
    }

    fn install_l3(&mut self, line: u64, dirty: bool, wb: &mut Writebacks) {
        if let Some((victim, victim_dirty)) = self.l3.fill(line, dirty) {
            if victim_dirty {
                self.memory_writebacks += 1;
                wb.push(victim);
            }
        }
    }

    fn install_l3_dirty(&mut self, line: u64, wb: &mut Writebacks) {
        self.install_l3(line, true, wb);
    }

    /// Counters across all levels.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
            memory_writebacks: self.memory_writebacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        // Shrunken hierarchy so tests can force capacity evictions quickly.
        Hierarchy::new(HierarchyConfig {
            l1: CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 128 }, // 8 lines
            l2: CacheConfig { size_bytes: 4096, assoc: 4, line_bytes: 128 }, // 32 lines
            l3: CacheConfig { size_bytes: 16 * 1024, assoc: 4, line_bytes: 128 }, // 128 lines
            l1_latency: 2,
            l2_latency: 13,
            l3_latency: 87,
        })
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut h = small();
        let out = h.access(42, false);
        assert_eq!(out.level, HitLevel::Memory);
        assert!(out.writebacks.is_empty());
    }

    #[test]
    fn fill_then_l1_hit() {
        let mut h = small();
        h.access(42, false);
        h.fill_from_memory(42, false);
        let out = h.access(42, false);
        assert_eq!(out.level, HitLevel::L1);
        assert_eq!(out.latency, 2);
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut h = small();
        h.fill_from_memory(42, false);
        // Push 42 out of tiny L1 (set = 42 % 4 = 2; lines 2+4k map there).
        h.fill_from_memory(2, false);
        h.fill_from_memory(6, false);
        h.fill_from_memory(10, false);
        assert!(!h.contains(HitLevel::L1, 42));
        let out = h.access(42, false);
        assert_eq!(out.level, HitLevel::L2);
        assert!(h.contains(HitLevel::L1, 42), "promoted on hit");
    }

    #[test]
    fn dirty_line_cascades_to_memory_writeback() {
        let mut h = small();
        h.fill_from_memory(0, true); // dirty in L1
                                     // Flood every level's set 0 until the dirty line is forced out of L3.
        let mut wrote_back = false;
        for i in 1..2000u64 {
            let line = i * 4; // all in L1 set 0 orbit
            h.access(line, false);
            let out = h.fill_from_memory(line, false);
            if out.writebacks.contains(&0) {
                wrote_back = true;
                break;
            }
        }
        assert!(wrote_back, "dirty line must eventually surface as a memory writeback");
        assert!(h.stats().memory_writebacks > 0);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut h = small();
        h.fill_from_memory(5, false);
        h.access(5, true); // write hit in L1
                           // Evict from L1: the dirty copy must land in L2 (not be lost).
        h.fill_from_memory(9, false);
        h.fill_from_memory(13, false);
        h.fill_from_memory(17, false);
        assert!(!h.contains(HitLevel::L1, 5));
        assert!(h.contains(HitLevel::L2, 5));
    }

    #[test]
    fn prefetch_fills_target_levels() {
        let mut h = small();
        h.prefetch_fill_l2(30);
        assert!(!h.contains(HitLevel::L1, 30));
        assert!(h.contains(HitLevel::L2, 30));
        h.prefetch_fill_l1(31);
        assert!(h.contains(HitLevel::L1, 31));
        assert!(h.contains(HitLevel::L2, 31));
        assert!(h.on_chip(30));
        assert!(!h.on_chip(999));
    }

    #[test]
    fn l3_hit_latency() {
        let mut h = small();
        h.fill_from_memory(7, false);
        // Evict from L1 and L2 but not L3: flood 40 lines in the same orbits.
        for i in 1..40u64 {
            h.fill_from_memory(7 + i * 4, false);
        }
        if !h.contains(HitLevel::L1, 7)
            && !h.contains(HitLevel::L2, 7)
            && h.contains(HitLevel::L3, 7)
        {
            let out = h.access(7, false);
            assert_eq!(out.level, HitLevel::L3);
            assert_eq!(out.latency, 87);
        }
    }

    #[test]
    fn stats_populated() {
        let mut h = small();
        h.access(1, false);
        h.fill_from_memory(1, false);
        h.access(1, false);
        let s = h.stats();
        assert_eq!(s.l1.hits, 1);
        assert!(s.l1.misses >= 1);
    }

    #[test]
    fn writebacks_are_bounded_by_three_and_all_counted() {
        // A seeded random stream of every hierarchy operation over tiny
        // geometries (1-8 ways, one or two sets per level) and a handful
        // of lines, half the accesses and demand fills writes, so dirty
        // victims cascade out of every level at once. No operation may
        // return more than three writebacks (a fourth would overrun the
        // inline list and panic in `push`), some must return exactly
        // three, and the hierarchy's count is the sum of what the
        // operations returned.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut triples = 0;
        for _ in 0..400 {
            let mut level = || {
                let r = next();
                let assoc = 1 + (r % 8) as usize;
                let sets = 1 + (r >> 8) % 2;
                CacheConfig { size_bytes: sets * assoc as u64 * 128, assoc, line_bytes: 128 }
            };
            let (l1, l2, l3) = (level(), level(), level());
            let mut h =
                Hierarchy::new(HierarchyConfig { l1, l2, l3, ..HierarchyConfig::default() });
            let lines = 2 + next() % 30;
            let mut returned = 0;
            for _ in 0..2_000 {
                let r = next();
                let line = (r >> 8) % lines;
                let out = match r % 8 {
                    0..=2 => h.access(line, r & 0x10 != 0),
                    3..=5 => h.fill_from_memory(line, r & 0x10 != 0),
                    6 => h.prefetch_fill_l1(line),
                    _ => h.prefetch_fill_l2(line),
                };
                assert!(out.writebacks.len() <= 3, "{:?}", out.writebacks);
                triples += usize::from(out.writebacks.len() == 3);
                returned += out.writebacks.len() as u64;
            }
            assert_eq!(h.stats().memory_writebacks, returned);
        }
        assert!(triples > 0, "some operation writes back three lines");
    }

    #[test]
    fn default_config_matches_power5() {
        let cfg = HierarchyConfig::default();
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1.assoc, 4);
        assert_eq!(cfg.l2.size_bytes, 1920 * 1024);
        assert_eq!(cfg.l2.assoc, 10);
        assert_eq!(cfg.l2.line_bytes, 128);
        assert_eq!(cfg.l3.size_bytes, 36 * 1024 * 1024);
        let _ = Hierarchy::new(cfg);
    }
}
