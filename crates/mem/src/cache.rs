//! The cache bank inside one memory module.
//!
//! Each XMT memory module pairs an on-chip cache slice with a share of
//! a DRAM channel (Fig. 1 of the paper). The bank services one access
//! per cycle in arrival order — "within each MM, the order of
//! operations to the same memory location is preserved" — which is the
//! same-module queuing that motivates the twiddle replication scheme.
//!
//! The cache proper is set-associative with LRU replacement and
//! write-back/write-allocate policy; only *timing* state (tags) is
//! tracked here — data lives in the simulator's flat functional memory.

use std::collections::VecDeque;

/// A memory access request arriving at a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Word address (already known to be homed at this module).
    pub addr: u32,
    /// True for a write/write-back.
    pub is_write: bool,
    /// Opaque caller token (transaction id).
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

/// Set-associative tag store with LRU replacement.
#[derive(Debug, Clone)]
struct TagStore {
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]` is `0` for an empty way, else
    /// `line << 2 | DIRTY? | VALID` — the word checkpoints store, so an
    /// 8-way set is half a host cache line. LRU order kept by position
    /// (way 0 = most recent).
    tags: Vec<u32>,
}

impl TagStore {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets,
            ways,
            tags: vec![0; sets * ways],
        }
    }

    fn set_of(&self, line: u32) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Access `line`; returns (hit, writeback_of_dirty_line).
    fn access(&mut self, line: u32, write: bool) -> (bool, Option<u32>) {
        let s = self.set_of(line);
        let slice = &mut self.tags[s * self.ways..(s + 1) * self.ways];
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
            let victim = slice[self.ways - 1];
            slice.copy_within(0..self.ways - 1, 1);
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
    /// The `peak_queue` value.
    pub peak_queue: usize,
}

/// One memory-module cache bank (timing only).
#[derive(Debug)]
pub struct CacheBank {
    cfg: CacheConfig,
    tags: TagStore,
    /// Requests queued at the bank (arrival order).
    queue: VecDeque<MemReq>,
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
        let sets = cfg.lines / cfg.ways;
        Self {
            cfg,
            tags: TagStore::new(sets, cfg.ways),
            queue: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// The configuration used.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Queue an arriving request.
    pub fn enqueue(&mut self, req: MemReq) {
        self.queue.push_back(req);
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
    }

    /// The `queue_len` value.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The request at the head of the bank queue, if any.
    pub fn peek(&self) -> Option<&MemReq> {
        self.queue.front()
    }

    /// Remove the head request without probing the tag store (used when
    /// the line already has a fill in flight and the request merges
    /// into the waiting set instead).
    pub fn pop_head(&mut self) -> Option<MemReq> {
        self.queue.pop_front()
    }

    /// Line index of a word address under this bank's line size.
    pub fn line_of(&self, addr: u32) -> u32 {
        addr / self.cfg.line_words as u32
    }

    /// Flat snapshot of the tag store for checkpointing. One word per
    /// (set, way) slot in LRU order (way 0 = MRU): `0` for an empty
    /// slot, else `(line << 2) | (dirty << 1) | 1`. Because the tag
    /// store keeps recency by position, the raw vector round-trips the
    /// complete replacement state.
    pub fn tag_snapshot(&self) -> Vec<u64> {
        self.tags.tags.iter().map(|&word| u64::from(word)).collect()
    }

    /// Restore a [`CacheBank::tag_snapshot`] into a freshly built bank
    /// of the same geometry (queue must be empty).
    pub fn restore_tags(&mut self, snapshot: &[u64]) {
        assert_eq!(
            snapshot.len(),
            self.tags.tags.len(),
            "tag snapshot geometry mismatch"
        );
        assert!(self.queue.is_empty(), "restore into a busy bank");
        for (slot, &word) in self.tags.tags.iter_mut().zip(snapshot) {
            *slot = u32::try_from(word).expect("tag word beyond 32 bits");
        }
    }

    /// Service at most one request this cycle (bank port = 1/cycle).
    pub fn service_one(&mut self) -> Option<Service> {
        let req = self.queue.pop_front()?;
        self.stats.accesses += 1;
        let line = req.addr / self.cfg.line_words as u32;
        let (hit, wb) = self.tags.access(line, req.is_write);
        if hit {
            self.stats.hits += 1;
            Some(Service::Hit(req))
        } else {
            self.stats.misses += 1;
            if wb.is_some() {
                self.stats.writebacks += 1;
            }
            Some(Service::Miss {
                req,
                fill_line: line,
                writeback: wb,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        b.enqueue(req(100, false));
        b.enqueue(req(101, false)); // same 8-word line as 100? 100/8=12, 101/8=12 yes
        match b.service_one().unwrap() {
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
        assert!(matches!(b.service_one().unwrap(), Service::Hit(_)));
        assert_eq!(b.stats.hits, 1);
        assert_eq!(b.stats.misses, 1);
    }

    #[test]
    fn one_service_per_cycle() {
        let mut b = bank(64, 4);
        for i in 0..4 {
            b.enqueue(req(i * 64, false));
        }
        assert_eq!(b.queue_len(), 4);
        b.service_one();
        assert_eq!(b.queue_len(), 3);
        assert_eq!(b.stats.peak_queue, 4);
    }

    #[test]
    fn empty_queue_services_nothing() {
        let mut b = bank(64, 4);
        assert!(b.service_one().is_none());
    }

    #[test]
    fn lru_evicts_oldest() {
        // Direct-mapped-ish: 4 lines, 4 ways = 1 set.
        let mut b = bank(4, 4);
        for line in 0..4u32 {
            b.enqueue(req(line * 8, false));
            b.service_one();
        }
        // Touch line 0 to make it MRU, then insert a 5th line: the LRU
        // victim must be line 1.
        b.enqueue(req(0, false));
        assert!(matches!(b.service_one().unwrap(), Service::Hit(_)));
        b.enqueue(req(4 * 8, false));
        b.service_one();
        // Line 1 evicted: re-access misses; line 0 still hits.
        b.enqueue(req(8, false));
        assert!(matches!(b.service_one().unwrap(), Service::Miss { .. }));
        b.enqueue(req(0, false));
        // Line 0 was evicted by the re-fill of line 1? Capacity 4:
        // after inserting line 4 the set is {4,0,3,2}; missing line 1
        // evicts 2 → set {1,4,0,3}; line 0 must still be present.
        assert!(matches!(b.service_one().unwrap(), Service::Hit(_)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut b = bank(4, 4);
        // Fill the single set with writes (all dirty).
        for line in 0..4u32 {
            b.enqueue(req(line * 8, true));
            b.service_one();
        }
        b.enqueue(req(4 * 8, false));
        match b.service_one().unwrap() {
            Service::Miss { writeback, .. } => assert_eq!(writeback, Some(0)),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(b.stats.writebacks, 1);
    }

    #[test]
    fn tag_snapshot_round_trips_lru_and_dirty_state() {
        let mut b = bank(8, 4);
        for line in [0u32, 1, 2, 0, 3, 4] {
            b.enqueue(req(line * 8, line % 2 == 1));
            b.service_one();
        }
        let snap = b.tag_snapshot();
        let mut r = bank(8, 4);
        r.restore_tags(&snap);
        // The restored bank must behave identically from here on.
        for line in [0u32, 4, 5, 1, 2, 6] {
            b.enqueue(req(line * 8, false));
            r.enqueue(req(line * 8, false));
            let a = b.service_one().unwrap();
            let x = r.service_one().unwrap();
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

    #[test]
    fn small_table_stays_resident() {
        // A twiddle-table-sized working set must hit after warmup.
        let mut b = bank(64, 8);
        let table_lines = 32u32;
        for pass in 0..3 {
            for line in 0..table_lines {
                b.enqueue(req(line * 8, false));
                let s = b.service_one().unwrap();
                if pass > 0 {
                    assert!(matches!(s, Service::Hit(_)), "pass {pass} line {line}");
                }
            }
        }
    }
}
