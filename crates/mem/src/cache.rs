//! The cache bank inside one memory module.
//!
//! Each XMT memory module pairs an on-chip cache slice with a share of
//! a DRAM channel (Fig. 1 of the paper). Its module feeds the bank one
//! access per cycle in arrival order — "within each MM, the order of
//! operations to the same memory location is preserved" — which is the
//! same-module queuing that motivates the twiddle replication scheme
//! (the queue itself is the module's, see [`crate::module`]).
//!
//! The cache proper is set-associative with LRU replacement and
//! write-back/write-allocate policy; only *timing* state (tags) is
//! tracked here — data lives in the simulator's flat functional memory.

/// A memory access request arriving at a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Word address (already known to be homed at this module).
    pub addr: u32,
    /// True for a write/write-back.
    pub is_write: bool,
    /// Opaque caller token (the simulator's reply token).
    pub tag: u64,
}

/// A completed access leaving the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResp {
    /// The originating request.
    pub req: MemReq,
    /// True if the access hit in the module's cache slice.
    pub hit: bool,
}

/// Tag-word flag: the way holds a line.
const VALID: u32 = 1;
/// Tag-word flag: the held line is dirty.
const DIRTY: u32 = 2;

/// Set-associative tag store with LRU replacement, holding host memory
/// only for the sets an access has reached: a set is born, its ways
/// all empty, at its first access.
#[derive(Debug, Clone)]
struct TagStore {
    ways: usize,
    /// `slot[set]` is `0` for a set not yet born, which reads as `ways`
    /// empty ways, else one more than the index of its block of `ways`
    /// words in `tags`.
    slot: Vec<u32>,
    /// The born sets' blocks, in birth order. A word is `0` for an
    /// empty way, else `line << 2 | DIRTY? | VALID` — the word
    /// checkpoints store, so an 8-way set is half a host cache line.
    /// LRU order kept by position (way 0 = most recent).
    tags: Vec<u32>,
}

impl TagStore {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            slot: vec![0; sets],
            tags: Vec::new(),
        }
    }

    fn set_of(&self, line: u32) -> usize {
        (line as usize) & (self.slot.len() - 1)
    }

    /// Where set `s`'s block starts in `tags`, if it is born.
    fn block(&self, s: usize) -> Option<usize> {
        match self.slot[s] {
            0 => None,
            k => Some((k as usize - 1) * self.ways),
        }
    }

    /// Set `s`'s ways, born on first use.
    #[inline]
    fn ways_mut(&mut self, s: usize) -> &mut [u32] {
        let at = match self.block(s) {
            Some(at) => at,
            None => self.bear(s),
        };
        &mut self.tags[at..at + self.ways]
    }

    /// Give set `s` a block of empty ways at the end of `tags`; returns
    /// where it starts.
    #[cold]
    #[inline(never)]
    fn bear(&mut self, s: usize) -> usize {
        let at = self.tags.len();
        self.tags.resize(at + self.ways, 0);
        self.slot[s] = u32::try_from(at / self.ways + 1).expect("at most 2^32 - 1 sets");
        at
    }

    /// Access `line`; returns (hit, writeback_of_dirty_line).
    fn access(&mut self, line: u32, write: bool) -> (bool, Option<u32>) {
        let ways = self.ways;
        let slice = self.ways_mut(self.set_of(line));
        let clean = line << 2 | VALID;
        let dirty = if write { DIRTY } else { 0 };
        if let Some(pos) = slice.iter().position(|&e| e & !DIRTY == clean) {
            // Hit: move to MRU, merge dirty bit.
            let e = slice[pos];
            slice.copy_within(0..pos, 1);
            slice[0] = e | dirty;
            (true, None)
        } else {
            // Miss: evict LRU way.
            let victim = slice[ways - 1];
            slice.copy_within(0..ways - 1, 1);
            slice[0] = clean | dirty;
            let wb = (victim & (VALID | DIRTY) == VALID | DIRTY).then_some(victim >> 2);
            (false, wb)
        }
    }
}

/// Configuration of one cache bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in cache lines.
    pub lines: usize,
    /// The `ways` value.
    pub ways: usize,
    /// Words per line.
    pub line_words: usize,
    /// Cycles from service start to response for a hit.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// The workspace default: 32 KB per module (8-word = 32-byte lines,
    /// 1024 lines, 8-way), 2-cycle hit. 4096 modules × 32 KB = 128 MB
    /// of on-chip cache — the Table VI figure for the 128k x4
    /// configuration.
    pub fn default_module() -> Self {
        Self {
            lines: 1024,
            ways: 8,
            line_words: 8,
            hit_latency: 2,
        }
    }
}

/// Cycle-level statistics of one bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// The `accesses` value.
    pub accesses: u64,
    /// The `hits` value.
    pub hits: u64,
    /// The `misses` value.
    pub misses: u64,
    /// The `writebacks` value.
    pub writebacks: u64,
    /// The most requests queued at the bank at once (kept by its
    /// module, which holds the queue).
    pub peak_queue: usize,
}

/// One memory-module cache bank (timing only).
#[derive(Debug)]
pub struct CacheBank {
    cfg: CacheConfig,
    /// `log2(line_words)`: a word address's line is `addr >> line_shift`.
    line_shift: u32,
    tags: TagStore,
    /// Accumulated statistics.
    pub stats: CacheStats,
}

/// Outcome of servicing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// Hit: respond after `hit_latency`.
    Hit(MemReq),
    /// Miss: a line fill is required (plus an optional dirty
    /// write-back line that the DRAM channel must also absorb).
    Miss {
        /// The originating request.
        req: MemReq,
        /// Line to fetch from DRAM.
        fill_line: u32,
        /// Dirty line to write back, if an eviction occurred.
        writeback: Option<u32>,
    },
}

impl CacheBank {
    /// Construct a new instance.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.lines.is_power_of_two() && cfg.ways.is_power_of_two());
        assert!(cfg.ways <= cfg.lines);
        // Word addresses are `u32`, so this bounds a line index to the
        // 30 bits the packed tag word has for it.
        assert!(cfg.line_words >= 4, "lines shorter than 4 words");
        assert!(cfg.line_words.is_power_of_two());
        let sets = cfg.lines / cfg.ways;
        Self {
            cfg,
            line_shift: cfg.line_words.trailing_zeros(),
            tags: TagStore::new(sets, cfg.ways),
            stats: CacheStats::default(),
        }
    }

    /// The configuration used.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Line index of a word address under this bank's line size.
    pub fn line_of(&self, addr: u32) -> u32 {
        addr >> self.line_shift
    }

    /// Flat snapshot of the tag store for checkpointing. One word per
    /// (set, way) slot, set by set, in LRU order (way 0 = MRU): `0` for
    /// an empty slot, else `(line << 2) | (dirty << 1) | 1`; a set not
    /// yet born reads as empty slots. Because the tag store keeps
    /// recency by position, the snapshot round-trips the complete
    /// replacement state.
    pub fn tag_snapshot(&self) -> Vec<u64> {
        let ways = self.tags.ways;
        let mut words = Vec::with_capacity(self.tags.slot.len() * ways);
        for s in 0..self.tags.slot.len() {
            match self.tags.block(s) {
                Some(at) => {
                    words.extend(self.tags.tags[at..at + ways].iter().map(|&w| u64::from(w)))
                }
                None => words.resize(words.len() + ways, 0),
            }
        }
        words
    }

    /// Restore a [`CacheBank::tag_snapshot`] into a freshly built bank
    /// of the same geometry. Only sets holding a line are born.
    pub fn restore_tags(&mut self, snapshot: &[u64]) {
        let ways = self.tags.ways;
        assert_eq!(
            snapshot.len(),
            self.tags.slot.len() * ways,
            "tag snapshot geometry mismatch"
        );
        for (s, words) in snapshot.chunks_exact(ways).enumerate() {
            if self.tags.block(s).is_none() && words.iter().all(|&w| w == 0) {
                continue;
            }
            for (slot, &word) in self.tags.ways_mut(s).iter_mut().zip(words) {
                *slot = u32::try_from(word).expect("tag word beyond 32 bits");
            }
        }
    }

    /// Service `req`, the one access the bank port takes this cycle.
    pub fn access(&mut self, req: MemReq) -> Service {
        self.stats.accesses += 1;
        let line = self.line_of(req.addr);
        let (hit, wb) = self.tags.access(line, req.is_write);
        if hit {
            self.stats.hits += 1;
            Service::Hit(req)
        } else {
            self.stats.misses += 1;
            if wb.is_some() {
                self.stats.writebacks += 1;
            }
            Service::Miss {
                req,
                fill_line: line,
                writeback: wb,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::MemoryModule;
    use proptest::prelude::*;

    fn bank(lines: usize, ways: usize) -> CacheBank {
        CacheBank::new(CacheConfig {
            lines,
            ways,
            line_words: 8,
            hit_latency: 2,
        })
    }

    fn req(addr: u32, write: bool) -> MemReq {
        MemReq {
            addr,
            is_write: write,
            tag: addr as u64,
        }
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut b = bank(64, 4);
        // 100 and 101 share 8-word line 12.
        match b.access(req(100, false)) {
            Service::Miss {
                fill_line,
                writeback,
                ..
            } => {
                assert_eq!(fill_line, 12);
                assert!(writeback.is_none());
            }
            other => panic!("expected miss, got {other:?}"),
        }
        assert!(matches!(b.access(req(101, false)), Service::Hit(_)));
        assert_eq!(b.stats.hits, 1);
        assert_eq!(b.stats.misses, 1);
    }

    #[test]
    fn one_service_per_cycle() {
        // The bank port takes one queued request per module step.
        let mut m = MemoryModule::new(0, bank(64, 4).config());
        for i in 0..4 {
            m.enqueue(req(i * 64, false));
        }
        assert_eq!(m.bank().stats.peak_queue, 4);
        m.step(&mut Vec::new(), &mut Vec::new());
        assert_eq!(m.bank().stats.accesses, 1);
        m.step(&mut Vec::new(), &mut Vec::new());
        assert_eq!(m.bank().stats.accesses, 2);
        assert_eq!(m.bank().stats.peak_queue, 4);
    }

    #[test]
    fn empty_queue_services_nothing() {
        let mut m = MemoryModule::new(0, bank(64, 4).config());
        let (mut creqs, mut resps) = (Vec::new(), Vec::new());
        m.step(&mut creqs, &mut resps);
        assert_eq!(m.bank().stats, CacheStats::default());
        assert!(creqs.is_empty() && resps.is_empty());
    }

    #[test]
    fn lru_evicts_oldest() {
        // Direct-mapped-ish: 4 lines, 4 ways = 1 set.
        let mut b = bank(4, 4);
        for line in 0..4u32 {
            b.access(req(line * 8, false));
        }
        // Touch line 0 to make it MRU, then insert a 5th line: the LRU
        // victim must be line 1.
        assert!(matches!(b.access(req(0, false)), Service::Hit(_)));
        b.access(req(4 * 8, false));
        // Line 1 evicted: re-access misses; line 0 still hits.
        assert!(matches!(b.access(req(8, false)), Service::Miss { .. }));
        // Line 0 was evicted by the re-fill of line 1? Capacity 4:
        // after inserting line 4 the set is {4,0,3,2}; missing line 1
        // evicts 2 → set {1,4,0,3}; line 0 must still be present.
        assert!(matches!(b.access(req(0, false)), Service::Hit(_)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut b = bank(4, 4);
        // Fill the single set with writes (all dirty).
        for line in 0..4u32 {
            b.access(req(line * 8, true));
        }
        match b.access(req(4 * 8, false)) {
            Service::Miss { writeback, .. } => assert_eq!(writeback, Some(0)),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(b.stats.writebacks, 1);
    }

    #[test]
    fn tag_snapshot_round_trips_lru_and_dirty_state() {
        let mut b = bank(8, 4);
        for line in [0u32, 1, 2, 0, 3, 4] {
            b.access(req(line * 8, line % 2 == 1));
        }
        let snap = b.tag_snapshot();
        let mut r = bank(8, 4);
        r.restore_tags(&snap);
        // The restored bank must behave identically from here on.
        for line in [0u32, 4, 5, 1, 2, 6] {
            let a = b.access(req(line * 8, false));
            let x = r.access(req(line * 8, false));
            assert_eq!(a, x, "divergence after restore at line {line}");
        }
        assert_eq!(b.tag_snapshot(), r.tag_snapshot());
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn restore_rejects_wrong_geometry() {
        let mut b = bank(8, 4);
        b.restore_tags(&[0; 4]);
    }

    /// The tag store as it was before sets were born on first access:
    /// the whole `sets × ways` array, zeroed, up front. The oracle of
    /// `born_sets_equal_the_full_array`.
    struct FullTags {
        ways: usize,
        tags: Vec<u32>,
    }

    impl FullTags {
        fn access(&mut self, line: u32, write: bool) -> (bool, Option<u32>) {
            let s = line as usize & (self.tags.len() / self.ways - 1);
            let slice = &mut self.tags[s * self.ways..(s + 1) * self.ways];
            let clean = line << 2 | VALID;
            let dirty = if write { DIRTY } else { 0 };
            if let Some(pos) = slice.iter().position(|&e| e & !DIRTY == clean) {
                let e = slice[pos];
                slice.copy_within(0..pos, 1);
                slice[0] = e | dirty;
                (true, None)
            } else {
                let victim = slice[self.ways - 1];
                slice.copy_within(0..self.ways - 1, 1);
                slice[0] = clean | dirty;
                let wb = (victim & (VALID | DIRTY) == VALID | DIRTY).then_some(victim >> 2);
                (false, wb)
            }
        }
    }

    /// Service `addr` at once; returns (hit, write-back).
    fn serve(b: &mut CacheBank, addr: u32, write: bool) -> (bool, Option<u32>) {
        match b.access(req(addr, write)) {
            Service::Hit(_) => (true, None),
            Service::Miss { writeback, .. } => (false, writeback),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A bank whose sets are born on first access is the full
        /// array: the same hit and write-back at every access, and a
        /// snapshot equal to the array word for word after each. The
        /// final snapshot restored into a fresh bank births exactly the
        /// sets holding a line and reads back unchanged, and restored
        /// over a bank that touched other sets it empties them; both
        /// then go on as the array does.
        #[test]
        fn born_sets_equal_the_full_array(
            log_lines in 0u32..7,
            log_ways in 0u32..4,
            log_words in 2u32..5,
            ops in proptest::collection::vec((0u32..48, 0u32..16, any::<bool>()), 0..160),
            tail in proptest::collection::vec((0u32..48, 0u32..16, any::<bool>()), 0..40),
        ) {
            let cfg = CacheConfig {
                lines: 1 << log_lines,
                ways: 1 << log_ways.min(log_lines),
                line_words: 1 << log_words,
                hit_latency: 2,
            };
            let addr = |(line, off, _): (u32, u32, bool)| line << log_words | off & ((1 << log_words) - 1);
            let mut b = CacheBank::new(cfg);
            let mut full = FullTags { ways: cfg.ways, tags: vec![0; cfg.lines] };
            let words = |f: &FullTags| f.tags.iter().map(|&w| u64::from(w)).collect::<Vec<u64>>();
            for &op in &ops {
                let a = addr(op);
                prop_assert_eq!(serve(&mut b, a, op.2), full.access(a / cfg.line_words as u32, op.2));
                prop_assert_eq!(b.tag_snapshot(), words(&full));
            }
            let snap = b.tag_snapshot();
            let held = snap.chunks(cfg.ways).filter(|set| set.iter().any(|&w| w != 0)).count();
            let mut fresh = CacheBank::new(cfg);
            fresh.restore_tags(&snap);
            prop_assert_eq!(fresh.tags.tags.len(), held * cfg.ways);
            prop_assert_eq!(fresh.tag_snapshot(), snap);
            let mut other = CacheBank::new(cfg);
            for &op in ops.iter().rev().chain(&tail) {
                serve(&mut other, addr(op), !op.2);
            }
            other.restore_tags(&snap);
            prop_assert_eq!(other.tag_snapshot(), snap);
            for &op in &tail {
                let a = addr(op);
                let want = full.access(a / cfg.line_words as u32, op.2);
                prop_assert_eq!(serve(&mut fresh, a, op.2), want);
                prop_assert_eq!(serve(&mut other, a, op.2), want);
            }
            prop_assert_eq!(fresh.tag_snapshot(), words(&full));
            prop_assert_eq!(other.tag_snapshot(), words(&full));
        }
    }

    /// A bank no request reached holds no tag words, nor does one
    /// restored from an all-empty snapshot; its snapshot is every slot
    /// empty. Its first access births exactly one set.
    #[test]
    fn an_untouched_bank_holds_no_tag_words() {
        let cfg = CacheConfig::default_module();
        let mut b = CacheBank::new(cfg);
        assert_eq!(b.tags.tags.capacity(), 0);
        assert_eq!(b.tag_snapshot(), vec![0; cfg.lines]);
        let mut r = CacheBank::new(cfg);
        r.restore_tags(&vec![0; cfg.lines]);
        assert_eq!(r.tags.tags.capacity(), 0);
        serve(&mut b, 5 * 8, true);
        assert_eq!(b.tags.tags.len(), cfg.ways);
    }

    #[test]
    fn small_table_stays_resident() {
        // A twiddle-table-sized working set must hit after warmup.
        let mut b = bank(64, 8);
        let table_lines = 32u32;
        for pass in 0..3 {
            for line in 0..table_lines {
                let s = b.access(req(line * 8, false));
                if pass > 0 {
                    assert!(matches!(s, Service::Hit(_)), "pass {pass} line {line}");
                }
            }
        }
    }
}
