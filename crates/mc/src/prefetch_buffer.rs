//! The Prefetch Buffer: a small set-associative cache for memory-side
//! prefetched lines (16 lines / 2 KB in the paper's configuration).

asd_core::counters! {
    /// Prefetch Buffer statistics, including the usefulness accounting behind
    /// the paper's Figure 13 (82–91% useful prefetches).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct PrefetchBufferStats {
        /// Lines inserted.
        pub inserts: u64 => (Lines, "prefetch buffer inserts"),
        /// Lines consumed by a demand read (useful prefetches).
        pub read_hits: u64 => (Lines, "prefetch buffer lines consumed by demand reads"),
        /// Lines invalidated by a write before use.
        pub write_invalidations: u64 => (Lines, "prefetch buffer lines invalidated by writes"),
        /// Lines evicted (LRU) without ever being used — useless prefetches.
        pub unused_evictions: u64 => (Lines, "prefetch buffer lines evicted unused"),
    }
}

const EMPTY: u64 = 0;

/// One buffer slot: the line it holds and its LRU stamp.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    /// `EMPTY` (0) marks a free slot.
    lru: u64,
}

/// Set-associative LRU buffer. Entries are **invalidated on read hit**
/// (the data moves into the caches, so keeping it is pointless, §3.3) and
/// on any write to the same line.
///
/// Storage is one array of `(line, lru)` slots, with set `s` owning slots
/// `s * assoc .. (s + 1) * assoc` (64 bytes for a 4-way set), so a lookup
/// reads each line together with its stamp. `lru == 0` marks an empty
/// slot (the clock increments before every insert, so live entries always
/// carry `lru >= 1`); an emptied slot keeps its stale line, which never
/// matches because every lookup checks the stamp too.
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    slots: Vec<Slot>,
    sets: usize,
    assoc: usize,
    clock: u64,
    stats: PrefetchBufferStats,
}

impl PrefetchBuffer {
    /// A buffer of `lines` total entries with the given associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `lines` is a positive multiple of `assoc`.
    pub fn new(lines: usize, assoc: usize) -> Self {
        assert!(lines > 0 && assoc > 0 && lines % assoc == 0, "bad PB geometry");
        PrefetchBuffer {
            slots: vec![Slot { line: 0, lru: EMPTY }; lines],
            sets: lines / assoc,
            assoc,
            clock: 0,
            stats: PrefetchBufferStats::default(),
        }
    }

    /// The slot range of `line`'s set.
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line % self.sets as u64) as usize * self.assoc;
        set..set + self.assoc
    }

    /// The live slot holding `line`, if any.
    fn find(&self, line: u64) -> Option<usize> {
        self.set_range(line).find(|&i| self.slots[i].line == line && self.slots[i].lru != EMPTY)
    }

    /// Total capacity in lines.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.lru != EMPTY).count()
    }

    /// Whether `line` is resident (no statistics side effects).
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Insert a prefetched line, evicting the set's LRU entry if needed.
    /// Re-inserting a resident line refreshes its LRU position.
    pub fn insert(&mut self, line: u64) {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(line);
        let base = range.start;
        let mut victim = 0usize;
        let mut victim_lru = u64::MAX;
        for i in range {
            let slot = &mut self.slots[i];
            if slot.lru == EMPTY {
                // Any empty slot beats evicting a live line.
                if victim_lru != EMPTY {
                    victim = i;
                    victim_lru = EMPTY;
                }
            } else if slot.line == line {
                slot.lru = clock;
                return;
            } else if slot.lru < victim_lru {
                victim = i;
                victim_lru = slot.lru;
            }
        }
        debug_assert!(victim >= base);
        self.stats.inserts += 1;
        if victim_lru != EMPTY {
            self.stats.unused_evictions += 1;
        }
        self.slots[victim] = Slot { line, lru: clock };
    }

    /// Demand-read lookup: on hit, the entry is removed (invalidate on
    /// match) and counted as a useful prefetch.
    pub fn take_for_read(&mut self, line: u64) -> bool {
        let Some(i) = self.find(line) else { return false };
        self.slots[i].lru = EMPTY;
        self.stats.read_hits += 1;
        true
    }

    /// Write invalidation: drop the entry if resident.
    pub fn invalidate_for_write(&mut self, line: u64) -> bool {
        let Some(i) = self.find(line) else { return false };
        self.slots[i].lru = EMPTY;
        self.stats.write_invalidations += 1;
        true
    }

    /// Counters.
    pub fn stats(&self) -> PrefetchBufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asd_core::rng::Xoshiro256PlusPlus;

    /// The buffer as it was stored before the slot array: one vector of
    /// lines and one of LRU stamps. Kept as the reference model for the
    /// differential test below.
    struct Reference {
        lines: Vec<u64>,
        lrus: Vec<u64>,
        sets: usize,
        assoc: usize,
        clock: u64,
        stats: PrefetchBufferStats,
    }

    impl Reference {
        fn new(lines: usize, assoc: usize) -> Self {
            Reference {
                lines: vec![0; lines],
                lrus: vec![EMPTY; lines],
                sets: lines / assoc,
                assoc,
                clock: 0,
                stats: PrefetchBufferStats::default(),
            }
        }

        fn set_range(&self, line: u64) -> std::ops::Range<usize> {
            let set = (line % self.sets as u64) as usize * self.assoc;
            set..set + self.assoc
        }

        fn occupancy(&self) -> usize {
            self.lrus.iter().filter(|&&l| l != EMPTY).count()
        }

        fn contains(&self, line: u64) -> bool {
            let range = self.set_range(line);
            self.lines[range.clone()]
                .iter()
                .zip(&self.lrus[range])
                .any(|(&l, &lru)| lru != EMPTY && l == line)
        }

        fn insert(&mut self, line: u64) {
            self.clock += 1;
            let mut victim = 0usize;
            let mut victim_lru = u64::MAX;
            for i in self.set_range(line) {
                let lru = self.lrus[i];
                if lru == EMPTY {
                    if victim_lru != EMPTY {
                        victim = i;
                        victim_lru = EMPTY;
                    }
                } else if self.lines[i] == line {
                    self.lrus[i] = self.clock;
                    return;
                } else if lru < victim_lru {
                    victim = i;
                    victim_lru = lru;
                }
            }
            self.stats.inserts += 1;
            if victim_lru != EMPTY {
                self.stats.unused_evictions += 1;
            }
            self.lines[victim] = line;
            self.lrus[victim] = self.clock;
        }

        /// `take_for_read` and `invalidate_for_write` differ only in the
        /// counter they bump.
        fn drop_line(&mut self, line: u64, for_read: bool) -> bool {
            for i in self.set_range(line) {
                if self.lines[i] == line && self.lrus[i] != EMPTY {
                    self.lrus[i] = EMPTY;
                    if for_read {
                        self.stats.read_hits += 1;
                    } else {
                        self.stats.write_invalidations += 1;
                    }
                    return true;
                }
            }
            false
        }
    }

    #[test]
    fn matches_the_two_vector_reference() {
        // The paper's geometry, a smaller and a much larger one, a single
        // set, and a three-set buffer whose set index is not a mask.
        for (lines, assoc) in [(16, 4), (8, 4), (1024, 4), (4, 4), (12, 4)] {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x9b + lines as u64);
            let mut pb = PrefetchBuffer::new(lines, assoc);
            let mut model = Reference::new(lines, assoc);
            // Three candidate lines per slot: sets overflow and evict.
            let span = 3 * lines as u64;
            for step in 0..20_000 {
                let line = rng.gen_range_u64(0, span);
                match rng.gen_range_u64(0, 4) {
                    0 | 1 => {
                        pb.insert(line);
                        model.insert(line);
                    }
                    2 => assert_eq!(pb.take_for_read(line), model.drop_line(line, true)),
                    _ => assert_eq!(pb.invalidate_for_write(line), model.drop_line(line, false)),
                }
                assert_eq!(pb.contains(line), model.contains(line));
                assert_eq!(pb.stats(), model.stats, "({lines}, {assoc}) step {step}");
                assert_eq!(pb.occupancy(), model.occupancy(), "({lines}, {assoc}) step {step}");
            }
            assert!(model.stats.unused_evictions > 0 && model.stats.read_hits > 0);
        }
    }

    #[test]
    fn insert_then_read_hit_removes() {
        let mut pb = PrefetchBuffer::new(16, 4);
        pb.insert(100);
        assert!(pb.contains(100));
        assert!(pb.take_for_read(100));
        assert!(!pb.contains(100), "read hit invalidates");
        assert!(!pb.take_for_read(100));
        assert_eq!(pb.stats().read_hits, 1);
    }

    #[test]
    fn write_invalidates() {
        let mut pb = PrefetchBuffer::new(16, 4);
        pb.insert(5);
        assert!(pb.invalidate_for_write(5));
        assert!(!pb.contains(5));
        assert!(!pb.invalidate_for_write(5));
        assert_eq!(pb.stats().write_invalidations, 1);
    }

    #[test]
    fn lru_eviction_counts_unused() {
        let mut pb = PrefetchBuffer::new(4, 4); // one set
        for line in 0..4 {
            pb.insert(line);
        }
        assert_eq!(pb.occupancy(), 4);
        pb.take_for_read(0); // use and free a slot
        pb.insert(10);
        assert_eq!(pb.stats().unused_evictions, 0);
        pb.insert(11); // evicts LRU (line 1) unused
        assert_eq!(pb.stats().unused_evictions, 1);
        assert!(!pb.contains(1));
    }

    #[test]
    fn reinsert_refreshes_lru() {
        let mut pb = PrefetchBuffer::new(4, 4);
        for line in 0..4 {
            pb.insert(line);
        }
        pb.insert(0); // refresh 0; LRU is now 1
        pb.insert(9);
        assert!(pb.contains(0));
        assert!(!pb.contains(1));
        assert_eq!(pb.stats().inserts, 5, "refresh is not an insert");
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut pb = PrefetchBuffer::new(8, 4);
        for line in 0..100 {
            pb.insert(line);
            assert!(pb.occupancy() <= 8);
        }
    }

    #[test]
    fn stale_line_value_in_emptied_slot_never_matches() {
        // take_for_read leaves the line value behind with lru == EMPTY;
        // a later lookup of that line must not see a phantom hit.
        let mut pb = PrefetchBuffer::new(4, 4);
        pb.insert(3);
        assert!(pb.take_for_read(3));
        assert!(!pb.contains(3));
        assert!(!pb.take_for_read(3));
        assert!(!pb.invalidate_for_write(3));
    }

    #[test]
    #[should_panic(expected = "bad PB geometry")]
    fn bad_geometry_panics() {
        let _ = PrefetchBuffer::new(10, 4);
    }
}
