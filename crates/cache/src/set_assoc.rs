//! A generic set-associative, write-back cache with true-LRU replacement.

/// Geometry of one cache level. Sizes are in bytes; lines are 128 B on the
/// Power5+.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (static configuration bug).
    pub fn sets(&self) -> usize {
        assert!(self.assoc > 0 && self.line_bytes > 0, "bad geometry");
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines / self.assoc as u64;
        assert!(sets > 0, "cache smaller than one set");
        sets as usize
    }
}

/// Per-level counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines displaced by fills.
    pub dirty_evictions: u64,
}

/// Tag-word bit: slot holds a line.
const VALID: u64 = 1 << 63;
/// Tag-word bit: the held line is dirty.
const DIRTY: u64 = 1 << 62;
/// Mask extracting the line address from a tag word.
const LINE_MASK: u64 = DIRTY - 1;

/// A set-associative cache indexed by cache-line address (the address with
/// the line offset already stripped). Lookup and fill are separate
/// operations: the hierarchy decides what to do on a miss.
///
/// Storage is struct-of-arrays over two flat stripes with set `s` owning
/// indices `s * assoc .. (s + 1) * assoc` of each: `tags` packs
/// `VALID`/`DIRTY` into the top bits of the line address (line addresses
/// are physical addresses shifted right by the 128-byte line offset, so
/// bits 62–63 are always free), and `lrus` holds the recency stamps. The
/// lookup scan — every access, every level on the way down — is one
/// equality compare per way against `line | VALID`, touching only the
/// `tags` stripe; `lrus` is read when a hit or a victim choice needs it.
/// A line occupies at most one way of its set and `lru` stamps are unique
/// (one clock for the whole cache), so hit detection and victim choice
/// are independent of slot order — the flat layout is observationally
/// identical to the per-set `Vec<Way>` one it replaced, while costing one
/// allocation per cache instead of one per set (the 36 MB L3 has
/// 24 576 sets).
///
/// Both stripes share that one allocation, tags first. Systems are built
/// and dropped back to back, one per simulation job, and the L3's 4.7 MB
/// block dominates each. As one block it lifts glibc's dynamic trim
/// threshold (twice the largest freed `mmap` block) above a whole
/// system's footprint, so the next system reuses the heap. As two 2.4 MB
/// blocks, a replay job holding its decoded trace crossed the threshold,
/// and every job then page-faulted the L3 back in (10–20 % slower).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// The `tags` stripe (`[..slots]`), then the `lrus` stripe.
    stripes: Box<[u64]>,
    slots: usize,
    assoc: usize,
    /// Number of sets.
    sets: u64,
    /// `sets - 1` when `sets` is a power of two (mask indexing); else 0
    /// and [`SetAssocCache::set_range`] falls back to modulo (e.g. the
    /// 1536-set L2).
    pow2_mask: u64,
    lru_clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build a cache from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (static configuration bug).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let slots = sets * cfg.assoc;
        SetAssocCache {
            stripes: vec![0; 2 * slots].into_boxed_slice(),
            slots,
            assoc: cfg.assoc,
            sets: sets as u64,
            pow2_mask: if sets.is_power_of_two() { sets as u64 - 1 } else { 0 },
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The slot range of `line`'s set.
    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = if self.pow2_mask != 0 { line & self.pow2_mask } else { line % self.sets };
        let lo = set as usize * self.assoc;
        lo..lo + self.assoc
    }

    /// The slot holding `line` in its set, if resident. One compare per
    /// way: a resident line's tag word is `line | VALID` or
    /// `line | VALID | DIRTY`.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let want = line | VALID;
        let tags = &self.stripes[..self.slots];
        self.set_range(line).find(|&i| tags[i] | DIRTY == want | DIRTY)
    }

    /// Look up `line`; on a hit, refresh LRU and (for writes) set dirty.
    /// Counts toward hit/miss statistics.
    // asd-lint: hot
    pub fn access(&mut self, line: u64, is_write: bool) -> bool {
        self.lru_clock += 1;
        match self.find(line) {
            Some(i) => {
                let (tags, lrus) = self.stripes.split_at_mut(self.slots);
                lrus[i] = self.lru_clock;
                if is_write {
                    tags[i] |= DIRTY;
                }
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Whether `line` is present, without perturbing LRU or statistics.
    // asd-lint: hot
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Install `line`, evicting the LRU way if the set is full. Returns the
    /// evicted line as `Some((line, was_dirty))`.
    ///
    /// Two phases: the `tags` stripe alone answers "already present?" and
    /// "is a way free?", and the `lrus` stripe is read only when the set
    /// is full and a victim must be chosen. Most fills into a large cache
    /// land in a free way, so they never touch the LRU stamps.
    // asd-lint: hot
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let new_tag = line | VALID | if dirty { DIRTY } else { 0 };
        let ways = self.set_range(line);
        let (tags, lrus) = self.stripes.split_at_mut(self.slots);
        // Already present (e.g. racing fills): refresh. Otherwise note the
        // first free way.
        let mut free: Option<usize> = None;
        for i in ways.clone() {
            let t = tags[i];
            if t & VALID == 0 {
                free = free.or(Some(i));
            } else if t & LINE_MASK == line {
                lrus[i] = clock;
                tags[i] = t | new_tag;
                return None;
            }
        }
        if let Some(i) = free {
            tags[i] = new_tag;
            lrus[i] = clock;
            return None;
        }
        // The set is full: evict the least recently used way (stamps are
        // unique, so the first minimum is the only one).
        let mut victim = ways.start;
        for i in ways {
            if lrus[i] < lrus[victim] {
                victim = i;
            }
        }
        let evicted = (tags[victim] & LINE_MASK, tags[victim] & DIRTY != 0);
        tags[victim] = new_tag;
        lrus[victim] = clock;
        self.stats.evictions += 1;
        if evicted.1 {
            self.stats.dirty_evictions += 1;
        }
        Some(evicted)
    }

    /// Remove `line` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let i = self.find(line)?;
        let dirty = self.stripes[i] & DIRTY != 0;
        self.stripes[i] = 0;
        Some(dirty)
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.stripes[..self.slots].iter().filter(|&&t| t & VALID != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways of 128B lines = 1KB.
        SetAssocCache::new(CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 128 })
    }

    #[test]
    fn sets_computed() {
        let cfg = CacheConfig { size_bytes: 32 * 1024, assoc: 4, line_bytes: 128 };
        assert_eq!(cfg.sets(), 64);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(5, false));
        c.fill(5, false);
        assert!(c.access(5, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        c.fill(0, false);
        c.fill(4, false);
        c.access(0, false); // 0 now MRU
        let evicted = c.fill(8, false);
        assert_eq!(evicted, Some((4, false)), "4 was LRU");
        assert!(c.contains(0));
        assert!(c.contains(8));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.fill(0, false);
        c.access(0, true); // make dirty
        c.fill(4, false);
        let evicted = c.fill(8, false);
        assert_eq!(evicted, Some((0, true)));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut c = tiny();
        c.fill(0, false);
        assert!(c.fill(0, true).is_none());
        assert_eq!(c.resident_lines(), 1);
        // The refresh made it dirty.
        c.fill(4, false);
        let ev = c.fill(8, false);
        assert_eq!(ev, Some((0, true)));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.fill(7, false);
        c.access(7, true);
        assert_eq!(c.invalidate(7), Some(true));
        assert_eq!(c.invalidate(7), None);
        assert!(!c.contains(7));
    }

    #[test]
    fn invalidated_slot_is_reused_before_eviction() {
        let mut c = tiny();
        c.fill(0, false);
        c.fill(4, false); // set 0 now full
        c.invalidate(0);
        // The freed way absorbs the new line: no eviction of 4.
        assert!(c.fill(8, false).is_none());
        assert!(c.contains(4));
        assert!(c.contains(8));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn contains_does_not_count() {
        let mut c = tiny();
        c.fill(3, false);
        let before = c.stats();
        assert!(c.contains(3));
        assert!(!c.contains(99));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn line_zero_is_a_real_line() {
        // Line 0 must be distinguishable from an empty slot (the packed
        // tag word keeps VALID out of band).
        let mut c = tiny();
        assert!(!c.contains(0));
        c.fill(0, false);
        assert!(c.contains(0));
        assert!(c.access(0, true));
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.contains(0));
    }

    /// The single-pass fill that [`SetAssocCache::fill`] replaced: one
    /// scan finds a match, the first free way and the LRU victim at once.
    fn fill_single_pass(c: &mut SetAssocCache, line: u64, dirty: bool) -> Option<(u64, bool)> {
        c.lru_clock += 1;
        let clock = c.lru_clock;
        let new_tag = line | VALID | if dirty { DIRTY } else { 0 };
        let ways = c.set_range(line);
        let (tags, lrus) = c.stripes.split_at_mut(c.slots);
        let mut free: Option<usize> = None;
        let mut victim = usize::MAX;
        let mut victim_lru = u64::MAX;
        for i in ways {
            let t = tags[i];
            if t & VALID == 0 {
                if free.is_none() {
                    free = Some(i);
                }
                continue;
            }
            if t & LINE_MASK == line {
                lrus[i] = clock;
                tags[i] = t | new_tag;
                return None;
            }
            if lrus[i] < victim_lru {
                victim_lru = lrus[i];
                victim = i;
            }
        }
        if let Some(i) = free {
            tags[i] = new_tag;
            lrus[i] = clock;
            return None;
        }
        let evicted = (tags[victim] & LINE_MASK, tags[victim] & DIRTY != 0);
        tags[victim] = new_tag;
        lrus[victim] = clock;
        c.stats.evictions += 1;
        if evicted.1 {
            c.stats.dirty_evictions += 1;
        }
        Some(evicted)
    }

    #[test]
    fn two_phase_fill_matches_single_pass_fill() {
        // Random fills, accesses and invalidations over a small line
        // space, so sets fill, evict, refresh and reuse freed ways; both
        // power-of-two (mask) and non-power-of-two (modulo) set counts.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for cfg in [
            CacheConfig { size_bytes: 8 * 4 * 128, assoc: 4, line_bytes: 128 },
            CacheConfig { size_bytes: 6 * 10 * 128, assoc: 10, line_bytes: 128 },
            CacheConfig { size_bytes: 128, assoc: 1, line_bytes: 128 },
        ] {
            let mut fast = SetAssocCache::new(cfg);
            let mut slow = SetAssocCache::new(cfg);
            let lines = cfg.sets() as u64 * cfg.assoc as u64 * 3;
            for step in 0..50_000 {
                let r = next();
                let line = (r >> 8) % lines;
                match r % 8 {
                    0..=3 => {
                        let dirty = r & 0x10 != 0;
                        assert_eq!(
                            fast.fill(line, dirty),
                            fill_single_pass(&mut slow, line, dirty)
                        );
                    }
                    4..=6 => {
                        let write = r & 0x10 != 0;
                        assert_eq!(fast.access(line, write), slow.access(line, write));
                    }
                    _ => assert_eq!(fast.invalidate(line), slow.invalidate(line)),
                }
                if step % 1_000 == 0 {
                    assert_eq!(fast.resident_lines(), slow.resident_lines());
                }
            }
            assert_eq!(fast.stats(), slow.stats());
            assert!(fast.stats().evictions > 1_000, "sets filled and evicted");
            assert_eq!(fast.resident_lines(), slow.resident_lines());
            assert_eq!(fast.stripes, slow.stripes);
        }
    }

    #[test]
    fn non_power_of_two_sets() {
        // 10-way, 1920KB, 128B lines -> 1536 sets (not a power of two).
        let cfg = CacheConfig { size_bytes: 1920 * 1024, assoc: 10, line_bytes: 128 };
        assert_eq!(cfg.sets(), 1536);
        let mut c = SetAssocCache::new(cfg);
        for line in 0..20_000u64 {
            c.fill(line * 3, false);
        }
        assert!(c.resident_lines() <= 1536 * 10);
        c.fill(123, false);
        assert!(c.contains(123));
    }
}
