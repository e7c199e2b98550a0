//! Content-addressed result cache: cost-aware eviction in memory,
//! optionally persisted to disk.
//!
//! Keys are the 64-bit content addresses from [`crate::SimRequest::digest`]
//! — `(workload, program digest, config cache key)` — and values are
//! canonical report bytes ([`crate::wire::encode_report`]) plus the
//! simulated cycles the run burned. The memory tier is bounded;
//! past capacity the entry with the lowest **recompute cost per byte**
//! (`cycles / len`) is evicted first — a cheap sweep row that takes
//! milliseconds to regenerate makes way for a paper-scale run that
//! takes minutes, even if the big run is colder. Recency is only the
//! tiebreak between equal scores.
//!
//! Values are shared, not copied: the memory tier holds each report as
//! one `Arc<[u8]>` and [`ResultCache::get`] hands out a clone of it, so
//! a cache hit, the job it resolves and that job's dedupe followers all
//! point at the same allocation.
//!
//! When a persistence directory is configured, every insert also lands
//! in `<key>.rep` on disk (cost header + payload) and a memory miss
//! falls back to the file before declaring a true miss. Eviction only
//! trims memory — persisted files survive, so a server restart (or an
//! evicted-but-resubmitted sweep row) still hits.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Hit/miss counters for the cache, split by tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident in memory.
    pub entries: usize,
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups served from the persistence directory.
    pub disk_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Memory-tier evictions (persisted files are never evicted).
    pub evictions: u64,
}

// The statistics frame's cache half, in wire order.
xmt_sim::word_codec!(
    pub(crate) CacheStats,
    5,
    [entries, hits, disk_hits, misses, evictions]
);

/// One resident entry: the canonical report bytes plus the eviction
/// score inputs.
#[derive(Debug)]
struct Entry {
    bytes: Arc<[u8]>,
    /// Simulated cycles the producing run burned — the recompute cost.
    cycles: u64,
    /// Logical access clock at last touch (tiebreak only).
    touched: u64,
}

impl Entry {
    /// Eviction score: recompute cost per cached byte. Lower = cheaper
    /// to regenerate = evicted first.
    fn score(&self) -> f64 {
        self.cycles as f64 / self.bytes.len().max(1) as f64
    }
}

/// The server's result cache. Not thread-safe by itself — the server
/// wraps it in a mutex.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    map: HashMap<u64, Entry>,
    clock: u64,
    dir: Option<PathBuf>,
    /// The counters (`entries` is filled in by [`ResultCache::stats`]).
    stats: CacheStats,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries in memory,
    /// persisting to `dir` when given (the directory is created).
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> Self {
        if let Some(d) = &dir {
            // Best-effort: a read-only filesystem degrades the cache
            // to memory-only rather than failing the server.
            let _ = std::fs::create_dir_all(d);
        }
        Self {
            capacity: capacity.max(1),
            map: HashMap::new(),
            clock: 0,
            dir,
            stats: CacheStats::default(),
        }
    }

    fn path_for(&self, key: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key:016x}.rep")))
    }

    /// Look a key up, refreshing its recency tiebreak. Falls back to
    /// the persistence directory on a memory miss (re-admitting the
    /// bytes to memory on success). The bytes are the entry's own
    /// allocation, shared.
    pub fn get(&mut self, key: u64) -> Option<Arc<[u8]>> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.map.get_mut(&key) {
            e.touched = clock;
            self.stats.hits += 1;
            return Some(Arc::clone(&e.bytes));
        }
        if let Some(path) = self.path_for(key) {
            if let Some((cycles, bytes)) = std::fs::read(&path).ok().and_then(split_disk_entry) {
                self.stats.disk_hits += 1;
                let bytes: Arc<[u8]> = bytes.into();
                self.admit(key, Arc::clone(&bytes), cycles);
                return Some(bytes);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Insert (or overwrite) an entry with the simulated cycles its
    /// run burned, persisting it when a directory is configured and
    /// evicting the lowest cost-per-byte memory entry past capacity.
    pub fn insert(&mut self, key: u64, bytes: impl Into<Arc<[u8]>>, cycles: u64) {
        let bytes = bytes.into();
        if let Some(path) = self.path_for(key) {
            let mut file = Vec::with_capacity(8 + bytes.len());
            file.extend_from_slice(&cycles.to_le_bytes());
            file.extend_from_slice(&bytes);
            let _ = std::fs::write(&path, &file);
        }
        self.admit(key, bytes, cycles);
    }

    /// Memory-tier insert + cost-eviction bookkeeping (no disk write).
    fn admit(&mut self, key: u64, bytes: Arc<[u8]>, cycles: u64) {
        self.clock += 1;
        self.map.insert(
            key,
            Entry {
                bytes,
                cycles,
                touched: self.clock,
            },
        );
        while self.map.len() > self.capacity {
            // Evict the cheapest-to-recompute entry per byte; recency
            // breaks ties (older goes first). Capacities are small, so
            // the linear scan is fine.
            let victim = self
                .map
                .iter()
                .map(|(&k, e)| (k, e.score(), e.touched))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)))
                .map(|(k, _, _)| k);
            if let Some(k) = victim {
                self.map.remove(&k);
                self.stats.evictions += 1;
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            ..self.stats
        }
    }
}

/// Split a persisted cache file into (cycles header, payload); `None`
/// for files too short to carry the header.
fn split_disk_entry(mut file: Vec<u8>) -> Option<(u64, Vec<u8>)> {
    if file.len() < 8 {
        return None;
    }
    let cycles = u64::from_le_bytes(file[..8].try_into().unwrap());
    file.drain(..8);
    Some((cycles, file))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique scratch directory under the system temp dir.
    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "xmt-server-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn evicts_cheapest_per_byte_first() {
        let mut c = ResultCache::new(2, None);
        c.insert(1, vec![0; 100], 1_000_000); // 10k cycles/byte
        c.insert(2, vec![0; 100], 100); // 1 cycle/byte — cheapest
        c.insert(3, vec![0; 100], 50_000); // 500 cycles/byte
        assert_eq!(c.get(2), None, "cheap-to-recompute entry evicted first");
        assert!(c.get(1).is_some(), "expensive entry survives");
        assert!(c.get(3).is_some());
        let s = c.stats();
        assert_eq!((s.entries, s.evictions, s.misses), (2, 1, 1));
    }

    #[test]
    fn recency_breaks_equal_scores() {
        let mut c = ResultCache::new(2, None);
        c.insert(1, vec![0; 10], 100);
        c.insert(2, vec![0; 10], 100);
        assert!(c.get(1).is_some(), "touch key 1");
        c.insert(3, vec![0; 10], 100); // same score everywhere: evict coldest (2)
        assert_eq!(c.get(2), None);
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn persistence_survives_eviction_and_restart() {
        let dir = scratch("persist");
        let mut c = ResultCache::new(1, Some(dir.clone()));
        c.insert(7, vec![7, 7], 500);
        c.insert(8, vec![8, 8], 900); // evicts 7 from memory only
        assert_eq!(
            c.get(7).as_deref(),
            Some(&[7, 7][..]),
            "disk fallback after eviction"
        );
        assert_eq!(c.stats().disk_hits, 1);
        drop(c);
        // A fresh cache over the same directory still hits, and the
        // cost header survives the round trip (re-eviction stays
        // cost-ordered).
        let mut c2 = ResultCache::new(4, Some(dir.clone()));
        assert_eq!(c2.get(8).as_deref(), Some(&[8, 8][..]));
        assert_eq!(c2.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_disk_entry_is_a_miss() {
        let dir = scratch("trunc");
        let mut c = ResultCache::new(2, Some(dir.clone()));
        c.insert(9, vec![1, 2, 3], 42);
        std::fs::write(dir.join(format!("{:016x}.rep", 9u64)), [1, 2]).unwrap();
        let mut fresh = ResultCache::new(2, Some(dir.clone()));
        assert_eq!(fresh.get(9), None, "short file cannot carry the header");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
