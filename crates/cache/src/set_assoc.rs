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

asd_core::counters! {
    /// Per-level counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct CacheStats {
        /// Lookups that hit.
        pub hits: u64 => (Accesses, "lookups that hit"),
        /// Lookups that missed.
        pub misses: u64 => (Accesses, "lookups that missed"),
        /// Valid lines displaced by fills.
        pub evictions: u64 => (unexported),
        /// Dirty lines displaced by fills.
        pub dirty_evictions: u64 => (unexported),
    }
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
/// Most ways a set can have: its recency word holds one 4-bit way number
/// per rank.
const MAX_WAYS: usize = 16;

/// A set-associative cache indexed by cache-line address (the address with
/// the line offset already stripped). Lookup and fill are separate
/// operations: the hierarchy decides what to do on a miss.
///
/// Storage costs what a run touches, not what the geometry could hold:
///
/// * `dir` has one `u32` per set: 0 while the set has never been filled,
///   otherwise `(block + 1) << COUNT_BITS | valid_ways`.
/// * `slab` holds one block of `1 + assoc` words per touched set — its
///   recency word, then its tag words. A set's block is appended on its
///   first fill, into capacity [`SetAssocCache::new`] reserves for every
///   set, so blocks sit in first-touch order and a fill never
///   reallocates. The 36 MB L3 has 24,576 sets; a 20k-access replay job
///   touches about a third of them, and only their blocks are written.
///
/// A set's valid ways are packed at the front of its block, so a probe
/// compares only the occupied ways, and an untouched or emptied set
/// answers from its directory word alone. A tag word is the line address
/// with `DIRTY` above it. A line occupies at most one way of its set.
///
/// True LRU is kept as the set's recency order: nibble `r` of the
/// recency word is the way at rank `r`, rank 0 the most recently used.
/// Ranks `0..valid` name each valid way once; higher nibbles are stale.
/// A hit or refill moves its way to rank 0, and a fill shifts its way in
/// at rank 0: a free way, or in a full set the victim, the way at rank
/// `assoc − 1`. `invalidate` drops its way's rank and moves the set's
/// last valid way into the hole, renaming that way in the recency word.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Per set: 0 if untouched, else `(block + 1) << COUNT_BITS | valid`.
    dir: Box<[u32]>,
    /// Touched sets' blocks: a recency word, then `assoc` tag words.
    slab: Vec<u64>,
    assoc: usize,
    /// Number of sets.
    sets: u64,
    /// `sets - 1` when `sets` is a power of two (mask indexing); else 0
    /// and [`SetAssocCache::set_of`] falls back to modulo (e.g. the
    /// 1536-set L2).
    pow2_mask: u64,
    stats: CacheStats,
}

/// The rank of `way` in a recency word: its lowest nibble equal to `way`,
/// found without a loop by a SWAR zero-nibble test on
/// `order ^ way × 0x1…1`. Borrows run only upward from a true zero
/// nibble, so the lowest flagged nibble is exact: the first `valid`
/// ranks, which hold `way` once, answer before any stale higher nibble.
#[inline]
fn rank_of(order: u64, way: usize) -> usize {
    const ONES: u64 = 0x1111_1111_1111_1111;
    const HIGHS: u64 = 0x8888_8888_8888_8888;
    let x = order ^ (way as u64 * ONES);
    (x.wrapping_sub(ONES) & !x & HIGHS).trailing_zeros() as usize / 4
}

/// The recency word with the way at rank `r` moved to rank 0; ranks
/// `0..r` age by one, ranks above `r` stay.
#[inline]
fn to_front(order: u64, r: usize) -> u64 {
    let through = u64::MAX >> (60 - 4 * r); // ranks 0..=r
    let way = (order >> (4 * r)) & 0xF;
    (order & !through) | ((order << 4) & through) | way
}

/// The recency word with rank `r` removed; the ranks above it move down
/// by one.
#[inline]
fn drop_rank(order: u64, r: usize) -> u64 {
    let below = (1u64 << (4 * r)) - 1;
    (order & below) | ((order >> 4) & !below)
}

impl SetAssocCache {
    /// Build a cache from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (static configuration bug),
    /// or too large for the packed directory word and the recency word:
    /// at most 16 ways and 2^24 − 1 sets.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            cfg.assoc <= MAX_WAYS && sets <= (u32::MAX >> COUNT_BITS) as usize,
            "geometry does not fit the packed directory word and recency word"
        );
        SetAssocCache {
            dir: vec![0; sets].into_boxed_slice(),
            slab: Vec::with_capacity(sets * (1 + cfg.assoc)),
            assoc: cfg.assoc,
            sets: sets as u64,
            pow2_mask: if sets.is_power_of_two() { sets as u64 - 1 } else { 0 },
            stats: CacheStats::default(),
        }
    }

    /// The set `line` maps to.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (if self.pow2_mask != 0 { line & self.pow2_mask } else { line % self.sets }) as usize
    }

    /// Slab offset of the block (its recency word) named by a touched
    /// set's directory word.
    #[inline]
    fn base(&self, word: u32) -> usize {
        ((word >> COUNT_BITS) as usize - 1) * (1 + self.assoc)
    }

    /// `line`'s block offset and way, if resident: one compare per
    /// occupied way of its set.
    // asd-lint: hot
    #[inline]
    fn find(&self, line: u64) -> Option<(usize, usize)> {
        let word = self.dir[self.set_of(line)];
        let valid = (word & COUNT_MASK) as usize;
        if valid == 0 {
            return None;
        }
        let base = self.base(word);
        let tags = &self.slab[base + 1..base + 1 + valid];
        tags.iter().position(|&t| t & LINE_MASK == line).map(|way| (base, way))
    }

    /// Look up `line`; on a hit, refresh LRU and (for writes) set dirty.
    /// Counts toward hit/miss statistics.
    // asd-lint: hot
    pub fn access(&mut self, line: u64, is_write: bool) -> bool {
        match self.find(line) {
            Some((base, way)) => {
                let order = self.slab[base];
                self.slab[base] = to_front(order, rank_of(order, way));
                if is_write {
                    self.slab[base + 1 + way] |= DIRTY;
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
    /// count says whether a way is free; a full set's victim is the way
    /// at the last rank of its recency word.
    // asd-lint: hot
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let new_tag = line | if dirty { DIRTY } else { 0 };
        let set = self.set_of(line);
        let stride = 1 + self.assoc;
        let mut word = self.dir[set];
        if word == 0 {
            // First touch: append the set's block, within the capacity
            // `new` reserved for every set.
            let block = self.slab.len() / stride;
            self.slab.resize(self.slab.len() + stride, 0);
            word = (block as u32 + 1) << COUNT_BITS;
        }
        let valid = (word & COUNT_MASK) as usize;
        let base = self.base(word);
        let (head, tags) = self.slab[base..base + stride].split_at_mut(1);
        let order = &mut head[0];
        // Already present (e.g. racing fills): refresh.
        if let Some(way) = tags[..valid].iter().position(|&t| t & LINE_MASK == line) {
            tags[way] |= new_tag;
            *order = to_front(*order, rank_of(*order, way));
            return None;
        }
        if valid < self.assoc {
            tags[valid] = new_tag;
            *order = *order << 4 | valid as u64;
            self.dir[set] = word + 1;
            return None;
        }
        // The set is full: evict the least recently used way, the last
        // rank's. Shifting it back in at rank 0 ages every other way.
        let victim = (*order >> (4 * (self.assoc - 1))) as usize & 0xF;
        let evicted = (tags[victim] & LINE_MASK, tags[victim] & DIRTY != 0);
        tags[victim] = new_tag;
        *order = *order << 4 | victim as u64;
        self.stats.evictions += 1;
        if evicted.1 {
            self.stats.dirty_evictions += 1;
        }
        Some(evicted)
    }

    /// Remove `line` if present, returning whether it was dirty. The set's
    /// last valid way moves into the hole, keeping the valid ways packed.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let (base, way) = self.find(line)?;
        let set = self.set_of(line);
        let word = self.dir[set];
        let last = (word & COUNT_MASK) as usize - 1;
        let dirty = self.slab[base + 1 + way] & DIRTY != 0;
        self.slab[base + 1 + way] = self.slab[base + 1 + last];
        let mut order = drop_rank(self.slab[base], rank_of(self.slab[base], way));
        if way != last {
            // Rename the moved way: `last` becomes `way` at its rank.
            order ^= ((last ^ way) as u64) << (4 * rank_of(order, last));
        }
        self.slab[base] = order;
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
        c.find(line).map(|(base, way)| c.slab[base + 1 + way] & DIRTY != 0)
    }

    #[test]
    fn two_phase_fill_matches_single_pass_fill() {
        // Random fills, accesses and invalidations, so sets fill, evict,
        // refresh, empty and reuse freed ways. Each geometry draws its
        // lines from up to 32 sets spread over the whole index range,
        // 3 x assoc lines per set in each of two ranges: from line 0 up,
        // and just below 2^62 (the largest line a tag word holds). Small
        // geometries (the 16-way one fills every nibble of the recency
        // word), then the Power5+ L1 (64 x 4, mask indexing), L2
        // (1536 x 10) and L3 (24 576 x 12, both modulo).
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (sets, assoc) in [(8, 4), (6, 10), (1, 1), (5, 16), (64, 4), (1536, 10), (24_576, 12)] {
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
        assert_eq!(c.slab.len(), 1 + 2, "the set's one block is reused");
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
        assert_eq!(c.slab.len(), 2 * (1 + 12), "one block per touched set");
        assert_eq!(c.resident_lines(), 3);
    }

    #[test]
    #[should_panic(expected = "packed directory word")]
    fn too_many_ways_rejected() {
        SetAssocCache::new(CacheConfig { size_bytes: 256 * 128, assoc: 256, line_bytes: 128 });
    }

    #[test]
    fn sixteen_ways_fit_the_recency_word() {
        // One full 16-way set: after a hit on line 0, each fill evicts the
        // way at rank 15, lines 1, 2 and 3 in turn.
        let cfg = CacheConfig { size_bytes: 16 * 128, assoc: 16, line_bytes: 128 };
        let mut c = SetAssocCache::new(cfg);
        for line in 0..16 {
            assert!(c.fill(line, line == 3).is_none());
        }
        assert!(c.access(0, false), "line 0 becomes most recent");
        assert_eq!(c.fill(16, false), Some((1, false)));
        assert_eq!(c.fill(17, false), Some((2, false)));
        assert_eq!(c.fill(18, false), Some((3, true)));
        assert!(c.contains(0) && c.contains(15));
        assert_eq!(c.resident_lines(), 16);
    }

    #[test]
    #[should_panic(expected = "packed directory word")]
    fn seventeen_ways_rejected() {
        SetAssocCache::new(CacheConfig { size_bytes: 17 * 128, assoc: 17, line_bytes: 128 });
    }

    #[test]
    fn recency_word_matches_a_move_to_front_list() {
        // The rank, move-to-front and drop helpers against a list of ways
        // in recency order, for every associativity up to 16 (rank 15 is
        // reached only by the 16-way runs). Each step inserts a new way
        // at the front, touches a present way, evicts the last rank of a
        // full set, or invalidates a way the way `invalidate` does.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for assoc in 1..=MAX_WAYS {
            let mut order = 0u64;
            let mut list: Vec<usize> = Vec::new();
            let mut deepest = 0;
            for _ in 0..20_000 {
                let r = next();
                let pick = (r >> 8) as usize % list.len().max(1);
                match r % 4 {
                    0 | 1 if list.len() < assoc => {
                        order = order << 4 | list.len() as u64;
                        list.insert(0, list.len());
                    }
                    0 | 1 => {
                        let victim = (order >> (4 * (assoc - 1))) as usize & 0xF;
                        assert_eq!(victim, list[assoc - 1]);
                        order = order << 4 | victim as u64;
                        list.rotate_right(1);
                    }
                    2 if !list.is_empty() => {
                        let way = list[pick];
                        let rank = rank_of(order, way);
                        assert_eq!(rank, pick, "way {way} in {order:#x}");
                        deepest = deepest.max(rank);
                        order = to_front(order, rank);
                        list.remove(pick);
                        list.insert(0, way);
                    }
                    3 if !list.is_empty() => {
                        let way = list[pick];
                        let last = list.len() - 1;
                        order = drop_rank(order, rank_of(order, way));
                        list.remove(pick);
                        if way != last {
                            let at = rank_of(order, last);
                            order ^= ((last ^ way) as u64) << (4 * at);
                            let moved = list.iter().position(|&w| w == last).unwrap();
                            list[moved] = way;
                        }
                    }
                    _ => {}
                }
                for (rank, &way) in list.iter().enumerate() {
                    assert_eq!((order >> (4 * rank)) as usize & 0xF, way, "rank {rank}");
                }
            }
            assert_eq!(deepest, assoc - 1, "a way at the last rank was touched");
        }
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
