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

/// Tag-word bit: the held line is dirty. Line addresses are physical
/// addresses shifted right by the 128-byte line offset, so bits 62–63 of
/// a tag word are always free.
const DIRTY: u64 = 1 << 62;
/// Mask extracting the line address from a tag word.
const LINE_MASK: u64 = DIRTY - 1;
/// Low bits of a directory word holding the set's count of valid ways.
const COUNT_BITS: u32 = 8;
/// Mask extracting the valid-way count from a directory word.
const COUNT_MASK: u32 = (1 << COUNT_BITS) - 1;

/// A set-associative cache indexed by cache-line address (the address with
/// the line offset already stripped). Lookup and fill are separate
/// operations: the hierarchy decides what to do on a miss.
///
/// Storage costs what a run touches, not what the geometry could hold:
///
/// * `dir` has one `u32` per set: 0 while the set has never been filled,
///   otherwise `(block + 1) << COUNT_BITS | valid_ways`.
/// * `slab` holds one block of `2 * assoc` words per touched set — its
///   tag words, then its LRU stamps. A set's block is appended on its
///   first fill, into capacity [`SetAssocCache::new`] reserves for every
///   set, so blocks sit in first-touch order and a fill never
///   reallocates. The 36 MB L3 has 24,576 sets; a 20k-access replay job
///   touches about a third of them, and only their blocks are written.
///
/// A set's valid ways are packed at the front of its block, so a probe
/// compares only the occupied ways, and an untouched or emptied set
/// answers from its directory word alone. A tag word is the line address
/// with `DIRTY` above it. A line occupies at most one way of its set and
/// LRU stamps are unique (one clock for the whole cache), so hits,
/// victims, evictions and stats do not depend on way order: `invalidate`
/// moves the set's last valid way into the hole it leaves.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Per set: 0 if untouched, else `(block + 1) << COUNT_BITS | valid`.
    dir: Box<[u32]>,
    /// Touched sets' blocks: `assoc` tag words, then `assoc` LRU stamps.
    slab: Vec<u64>,
    assoc: usize,
    /// Number of sets.
    sets: u64,
    /// `sets - 1` when `sets` is a power of two (mask indexing); else 0
    /// and [`SetAssocCache::set_of`] falls back to modulo (e.g. the
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
    /// Panics if the geometry is inconsistent (static configuration bug),
    /// or too large for the packed directory word: at most 255 ways and
    /// 2^24 − 1 sets.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            cfg.assoc <= COUNT_MASK as usize && sets <= (u32::MAX >> COUNT_BITS) as usize,
            "geometry does not fit the packed directory word"
        );
        SetAssocCache {
            dir: vec![0; sets].into_boxed_slice(),
            slab: Vec::with_capacity(sets * 2 * cfg.assoc),
            assoc: cfg.assoc,
            sets: sets as u64,
            pow2_mask: if sets.is_power_of_two() { sets as u64 - 1 } else { 0 },
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The set `line` maps to.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (if self.pow2_mask != 0 { line & self.pow2_mask } else { line % self.sets }) as usize
    }

    /// Slab offset of the block named by a touched set's directory word.
    #[inline]
    fn base(&self, word: u32) -> usize {
        ((word >> COUNT_BITS) as usize - 1) * 2 * self.assoc
    }

    /// The slab index of `line`'s tag word, if resident: one compare per
    /// occupied way of its set.
    // asd-lint: hot
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let word = self.dir[self.set_of(line)];
        let valid = (word & COUNT_MASK) as usize;
        if valid == 0 {
            return None;
        }
        let base = self.base(word);
        let tags = &self.slab[base..base + valid];
        tags.iter().position(|&t| t & LINE_MASK == line).map(|i| base + i)
    }

    /// Look up `line`; on a hit, refresh LRU and (for writes) set dirty.
    /// Counts toward hit/miss statistics.
    // asd-lint: hot
    pub fn access(&mut self, line: u64, is_write: bool) -> bool {
        self.lru_clock += 1;
        match self.find(line) {
            Some(i) => {
                self.slab[i + self.assoc] = self.lru_clock;
                if is_write {
                    self.slab[i] |= DIRTY;
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
    /// The occupied tag words alone answer "already present?", and the
    /// count says whether a way is free; the LRU stamps are read only
    /// when the set is full and a victim must be chosen.
    // asd-lint: hot
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let new_tag = line | if dirty { DIRTY } else { 0 };
        let set = self.set_of(line);
        let mut word = self.dir[set];
        if word == 0 {
            // First touch: append the set's block, within the capacity
            // `new` reserved for every set.
            let block = self.slab.len() / (2 * self.assoc);
            self.slab.resize(self.slab.len() + 2 * self.assoc, 0);
            word = (block as u32 + 1) << COUNT_BITS;
        }
        let valid = (word & COUNT_MASK) as usize;
        let base = self.base(word);
        let (tags, lrus) = self.slab[base..base + 2 * self.assoc].split_at_mut(self.assoc);
        // Already present (e.g. racing fills): refresh.
        if let Some(i) = tags[..valid].iter().position(|&t| t & LINE_MASK == line) {
            tags[i] |= new_tag;
            lrus[i] = clock;
            return None;
        }
        if valid < self.assoc {
            tags[valid] = new_tag;
            lrus[valid] = clock;
            self.dir[set] = word + 1;
            return None;
        }
        // The set is full: evict the least recently used way (stamps are
        // unique, so the first minimum is the only one).
        let mut victim = 0;
        for i in 1..valid {
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

    /// Remove `line` if present, returning whether it was dirty. The set's
    /// last valid way moves into the hole, keeping the valid ways packed.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let i = self.find(line)?;
        let set = self.set_of(line);
        let word = self.dir[set];
        let last = self.base(word) + (word & COUNT_MASK) as usize - 1;
        let dirty = self.slab[i] & DIRTY != 0;
        self.slab[i] = self.slab[last];
        self.slab[i + self.assoc] = self.slab[last + self.assoc];
        self.dir[set] = word - 1;
        Some(dirty)
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.dir.iter().map(|&w| (w & COUNT_MASK) as usize).sum()
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

    /// The dense layout this cache replaced, kept as a reference model:
    /// every set's ways resident from construction, validity as a tag
    /// bit, the first free way taken on a fill, and the single-pass fill
    /// that finds a match, the first free way and the LRU victim at once.
    struct Dense {
        tags: Vec<u64>,
        lrus: Vec<u64>,
        assoc: usize,
        sets: u64,
        clock: u64,
        stats: CacheStats,
    }

    /// Tag-word bit of the reference model: the way holds a line.
    const VALID: u64 = 1 << 63;

    impl Dense {
        fn new(cfg: CacheConfig) -> Self {
            let slots = cfg.sets() * cfg.assoc;
            Dense {
                tags: vec![0; slots],
                lrus: vec![0; slots],
                assoc: cfg.assoc,
                sets: cfg.sets() as u64,
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn ways(&self, line: u64) -> std::ops::Range<usize> {
            let lo = (line % self.sets) as usize * self.assoc;
            lo..lo + self.assoc
        }

        fn find(&self, line: u64) -> Option<usize> {
            self.ways(line).find(|&i| self.tags[i] | DIRTY == line | VALID | DIRTY)
        }

        fn access(&mut self, line: u64, is_write: bool) -> bool {
            self.clock += 1;
            let Some(i) = self.find(line) else {
                self.stats.misses += 1;
                return false;
            };
            self.lrus[i] = self.clock;
            if is_write {
                self.tags[i] |= DIRTY;
            }
            self.stats.hits += 1;
            true
        }

        fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
            self.clock += 1;
            let new_tag = line | VALID | if dirty { DIRTY } else { 0 };
            let mut free: Option<usize> = None;
            let mut victim = usize::MAX;
            let mut victim_lru = u64::MAX;
            for i in self.ways(line) {
                let t = self.tags[i];
                if t & VALID == 0 {
                    free = free.or(Some(i));
                } else if t & LINE_MASK == line {
                    self.lrus[i] = self.clock;
                    self.tags[i] = t | new_tag;
                    return None;
                } else if self.lrus[i] < victim_lru {
                    victim_lru = self.lrus[i];
                    victim = i;
                }
            }
            if let Some(i) = free {
                self.tags[i] = new_tag;
                self.lrus[i] = self.clock;
                return None;
            }
            let evicted = (self.tags[victim] & LINE_MASK, self.tags[victim] & DIRTY != 0);
            self.tags[victim] = new_tag;
            self.lrus[victim] = self.clock;
            self.stats.evictions += 1;
            if evicted.1 {
                self.stats.dirty_evictions += 1;
            }
            Some(evicted)
        }

        fn invalidate(&mut self, line: u64) -> Option<bool> {
            let i = self.find(line)?;
            let dirty = self.tags[i] & DIRTY != 0;
            self.tags[i] = 0;
            Some(dirty)
        }

        /// `Some(dirty)` if `line` is resident.
        fn dirty(&self, line: u64) -> Option<bool> {
            self.find(line).map(|i| self.tags[i] & DIRTY != 0)
        }

        fn resident_lines(&self) -> usize {
            self.tags.iter().filter(|&&t| t & VALID != 0).count()
        }
    }

    /// `Some(dirty)` if `line` is resident in `c`.
    fn dirty_bit(c: &SetAssocCache, line: u64) -> Option<bool> {
        c.find(line).map(|i| c.slab[i] & DIRTY != 0)
    }

    #[test]
    fn two_phase_fill_matches_single_pass_fill() {
        // Random fills, accesses and invalidations, so sets fill, evict,
        // refresh, empty and reuse freed ways. Each geometry draws its
        // lines from up to 32 sets spread over the whole index range,
        // 3 x assoc lines per set in each of two ranges: from line 0 up,
        // and just below 2^62 (the largest line a tag word holds). Small
        // geometries, then the Power5+ L1 (64 x 4, mask indexing), L2
        // (1536 x 10) and L3 (24 576 x 12, both modulo).
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (sets, assoc) in [(8, 4), (6, 10), (1, 1), (64, 4), (1536, 10), (24_576, 12)] {
            let cfg = CacheConfig {
                size_bytes: sets * assoc * 128,
                assoc: assoc as usize,
                line_bytes: 128,
            };
            let mut fast = SetAssocCache::new(cfg);
            let mut slow = Dense::new(cfg);
            let picked = sets.min(32);
            let spread = sets / picked;
            let per_set = 3 * assoc;
            let high = ((1u64 << 62) / sets - per_set) * sets;
            let mut lines = Vec::new();
            for s in 0..picked {
                for k in 0..per_set {
                    lines.push(s * spread + sets * k);
                    lines.push(high + s * spread + sets * k);
                }
            }
            assert!(lines.contains(&0) && lines.iter().all(|&l| l <= LINE_MASK));
            for step in 0..50_000 {
                let r = next();
                let line = lines[(r >> 8) as usize % lines.len()];
                match r % 8 {
                    0..=3 => {
                        let dirty = r & 0x10 != 0;
                        assert_eq!(fast.fill(line, dirty), slow.fill(line, dirty));
                    }
                    4..=6 => {
                        let write = r & 0x10 != 0;
                        assert_eq!(fast.access(line, write), slow.access(line, write));
                    }
                    _ => assert_eq!(fast.invalidate(line), slow.invalidate(line)),
                }
                assert_eq!(fast.stats(), slow.stats);
                if step % 1_000 == 0 {
                    assert_eq!(fast.resident_lines(), slow.resident_lines());
                }
            }
            assert!(fast.stats().evictions > 1_000, "sets filled and evicted");
            assert!(fast.stats().dirty_evictions > 100, "dirty lines evicted");
            assert_eq!(fast.resident_lines(), slow.resident_lines());
            for &line in &lines {
                assert_eq!(fast.contains(line), slow.find(line).is_some(), "line {line:#x}");
                assert_eq!(dirty_bit(&fast, line), slow.dirty(line), "line {line:#x}");
            }
        }
    }

    #[test]
    fn emptied_set_refills_without_eviction() {
        let mut c = tiny();
        // Lines 0, 4 and 8 map to set 0 (4 sets x 2 ways).
        c.fill(0, true);
        c.fill(4, false);
        assert_eq!(c.invalidate(4), Some(false));
        assert_eq!(c.invalidate(0), Some(true));
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.contains(0) && !c.contains(4));
        assert!(!c.access(0, false), "an emptied set misses");
        assert!(c.fill(8, false).is_none());
        assert!(c.fill(0, false).is_none());
        assert!(c.contains(8) && c.contains(0));
        assert_eq!(c.slab.len(), 2 * 2, "the set's one block is reused");
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.fill(4, false), Some((8, false)), "8 is the LRU way");
    }

    #[test]
    fn invalidate_keeps_other_ways_intact() {
        // Invalidate the first way of a full 4-way set: the last way
        // moves into the hole, keeping its dirty bit and its LRU order.
        let cfg = CacheConfig { size_bytes: 4 * 128, assoc: 4, line_bytes: 128 };
        let mut c = SetAssocCache::new(cfg);
        for line in [10, 11, 12, 13] {
            c.fill(line, line == 13);
        }
        c.access(12, false); // LRU order now 11, 13, 12
        assert_eq!(c.invalidate(10), Some(false));
        assert_eq!(dirty_bit(&c, 13), Some(true));
        assert!(c.fill(14, false).is_none(), "the freed way absorbs the fill");
        assert_eq!(c.fill(15, false), Some((11, false)));
        assert_eq!(c.fill(16, false), Some((13, true)));
        assert_eq!(c.fill(17, false), Some((12, false)));
    }

    #[test]
    fn lines_near_the_tag_limit() {
        // The largest lines a tag word holds sit just below the DIRTY bit.
        let mut c = tiny();
        let top = LINE_MASK;
        let twin = top - 4; // same set as `top`
        c.fill(top, true);
        c.fill(twin, false);
        assert!(c.contains(top) && c.contains(twin));
        assert!(!c.contains(top - 1));
        assert_eq!(c.fill(top - 8, false), Some((top, true)));
        assert_eq!(c.invalidate(twin), Some(false));
    }

    #[test]
    fn untouched_sets_cost_no_slab() {
        let cfg = CacheConfig { size_bytes: 36 * 1024 * 1024, assoc: 12, line_bytes: 128 };
        let mut c = SetAssocCache::new(cfg);
        assert!(c.slab.is_empty());
        assert!(!c.access(123, false));
        c.fill(123, false);
        c.fill(123 + 24_576, false); // same set
        c.fill(7, false);
        assert_eq!(c.slab.len(), 2 * 2 * 12, "one block per touched set");
        assert_eq!(c.resident_lines(), 3);
    }

    #[test]
    #[should_panic(expected = "packed directory word")]
    fn too_many_ways_rejected() {
        SetAssocCache::new(CacheConfig { size_bytes: 256 * 128, assoc: 256, line_bytes: 128 });
    }

    #[test]
    #[should_panic(expected = "packed directory word")]
    fn too_many_sets_rejected() {
        SetAssocCache::new(CacheConfig { size_bytes: (1 << 24) * 128, assoc: 1, line_bytes: 128 });
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
