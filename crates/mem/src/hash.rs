//! Global-address hashing across memory modules.
//!
//! Section II-A: "The global memory address space is evenly partitioned
//! into the MMs through a form of hashing" — consecutive cache lines
//! land on different modules so regular strides do not hotspot a single
//! module, and cache-coherence is avoided because every address has
//! exactly one home module.

/// Maps word addresses to (module, line) homes at cache-line
/// granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressHash {
    modules: usize,
    /// Words per cache line (power of two).
    line_words: usize,
    /// If false, use the low line bits directly (interleaving without
    /// mixing) — the ablation baseline that exposes stride hotspots.
    mix: bool,
    /// Bit `m` set ⇔ module `m` accepts lines. `u64::MAX` is the
    /// healthy sentinel: every module online, selection stays the
    /// bit-exact mask of the original placement. Degraded placement
    /// (some bits clear) requires `modules ≤ 64`.
    online_mask: u64,
    /// Popcount of `online_mask` restricted to real modules.
    online_count: u32,
}

impl AddressHash {
    /// Hashed placement (the XMT default).
    pub fn new(modules: usize, line_words: usize) -> Self {
        assert!(
            modules.is_power_of_two(),
            "module count must be a power of two"
        );
        assert!(
            line_words.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            modules,
            line_words,
            mix: true,
            online_mask: u64::MAX,
            online_count: modules.min(64) as u32,
        }
    }

    /// Hashed placement that routes around offline modules: lines are
    /// spread over the surviving modules only, so a machine with dead
    /// DRAM channels (and hence dead module groups) still serves the
    /// whole address space at reduced aggregate bandwidth. With an
    /// empty `offline` list this is bit-identical to [`AddressHash::new`].
    pub fn degraded(modules: usize, line_words: usize, offline: &[usize]) -> Self {
        let mut h = Self::new(modules, line_words);
        if offline.is_empty() {
            return h;
        }
        assert!(modules <= 64, "degraded placement requires ≤ 64 modules");
        let mut mask = if modules == 64 {
            u64::MAX
        } else {
            (1u64 << modules) - 1
        };
        for &m in offline {
            assert!(m < modules, "offline module {m} out of range");
            mask &= !(1u64 << m);
        }
        assert!(mask != 0, "at least one module must stay online");
        h.online_mask = mask;
        h.online_count = mask.count_ones();
        h
    }

    /// Plain modulo interleaving (no bit mixing); for ablations.
    pub fn interleaved(modules: usize, line_words: usize) -> Self {
        Self {
            mix: false,
            ..Self::new(modules, line_words)
        }
    }

    /// Cache-line index of a word address.
    #[inline(always)]
    pub fn line_of(&self, addr: u32) -> u32 {
        addr / self.line_words as u32
    }

    /// Finalizing mix (xor-shift-multiply; invertible on u32).
    #[inline(always)]
    fn mix32(mut x: u32) -> u32 {
        x ^= x >> 16;
        x = x.wrapping_mul(0x7FEB_352D);
        x ^= x >> 15;
        x = x.wrapping_mul(0x846C_A68B);
        x ^= x >> 16;
        x
    }

    /// Home module of a word address. Healthy machines take the
    /// original mask path bit-for-bit; a degraded hash folds the key
    /// over the surviving modules instead.
    #[inline(always)]
    pub fn module_of(&self, addr: u32) -> usize {
        let line = self.line_of(addr);
        let key = if self.mix { Self::mix32(line) } else { line };
        if self.online_mask == u64::MAX {
            return (key as usize) & (self.modules - 1);
        }
        // Select the idx-th surviving module. O(modules) worst case,
        // but degraded runs trade throughput for availability anyway.
        let idx = key % self.online_count;
        let mut mask = self.online_mask;
        for _ in 0..idx {
            mask &= mask - 1;
        }
        mask.trailing_zeros() as usize
    }

    /// Module-local line identifier (used as the cache index/tag key
    /// inside the home module). Together with `module_of` this is a
    /// bijection on lines: two distinct lines never collapse to the
    /// same (module, local_line) pair.
    #[inline(always)]
    pub fn local_line(&self, addr: u32) -> u32 {
        // The full line id is retained, so distinct lines mapping to
        // the same module keep distinct local ids.
        self.line_of(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_line_same_module() {
        let h = AddressHash::new(64, 8);
        for base in [0u32, 8, 1024, 4096] {
            let m = h.module_of(base);
            for off in 0..8 {
                assert_eq!(h.module_of(base + off), m, "line must be atomic");
            }
        }
    }

    #[test]
    fn distinct_lines_distinct_local_ids() {
        let h = AddressHash::new(8, 8);
        // Two lines homed to the same module must differ in local id.
        let mut by_module: std::collections::HashMap<usize, Vec<u32>> = Default::default();
        for line in 0..4096u32 {
            let addr = line * 8;
            by_module
                .entry(h.module_of(addr))
                .or_default()
                .push(h.local_line(addr));
        }
        for (m, ids) in by_module {
            let mut s = ids.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), ids.len(), "module {m} has colliding local lines");
        }
    }

    #[test]
    fn hashing_spreads_unit_stride() {
        let h = AddressHash::new(64, 8);
        let mut counts = vec![0usize; 64];
        for line in 0..64 * 64u32 {
            counts[h.module_of(line * 8)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        // Perfect balance would be 64 per module; allow ±50 %.
        assert!(*min >= 32 && *max <= 96, "imbalanced: min {min} max {max}");
    }

    #[test]
    fn hashing_spreads_large_power_of_two_stride() {
        // Stride 64 lines: plain interleaving over 64 modules would put
        // every access on module 0; hashing must spread them.
        let h = AddressHash::new(64, 8);
        let hi = AddressHash::interleaved(64, 8);
        let mut hashed = std::collections::HashSet::new();
        let mut interleaved = std::collections::HashSet::new();
        for i in 0..256u32 {
            let addr = i * 64 * 8;
            hashed.insert(h.module_of(addr));
            interleaved.insert(hi.module_of(addr));
        }
        assert_eq!(interleaved.len(), 1, "plain interleave hotspots on stride");
        assert!(
            hashed.len() > 32,
            "hash must spread strided lines, got {}",
            hashed.len()
        );
    }

    #[test]
    fn interleaved_round_robins_consecutive_lines() {
        let h = AddressHash::interleaved(8, 4);
        for line in 0..32u32 {
            assert_eq!(h.module_of(line * 4), (line as usize) % 8);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_modules() {
        AddressHash::new(12, 8);
    }

    #[test]
    fn degraded_with_no_offline_modules_is_bit_identical() {
        let healthy = AddressHash::new(16, 8);
        let degraded = AddressHash::degraded(16, 8, &[]);
        for line in 0..4096u32 {
            let addr = line * 8;
            assert_eq!(healthy.module_of(addr), degraded.module_of(addr));
            assert_eq!(healthy.local_line(addr), degraded.local_line(addr));
        }
    }

    #[test]
    fn degraded_routes_around_offline_modules() {
        let h = AddressHash::degraded(16, 8, &[0, 5, 6, 7]);
        assert_eq!(h.online_count, 12);
        let mut seen = std::collections::HashSet::new();
        for line in 0..4096u32 {
            let m = h.module_of(line * 8);
            assert!(!([0usize, 5, 6, 7].contains(&m)), "offline module {m} hit");
            seen.insert(m);
        }
        assert_eq!(seen.len(), 12, "all survivors must take traffic");
    }

    #[test]
    fn degraded_placement_stays_bijective() {
        let h = AddressHash::degraded(8, 8, &[2, 3]);
        let mut pairs = std::collections::HashSet::new();
        for line in 0..4096u32 {
            let addr = line * 8;
            assert!(
                pairs.insert((h.module_of(addr), h.local_line(addr))),
                "degraded placement collapsed two lines"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one module")]
    fn degraded_rejects_all_modules_offline() {
        AddressHash::degraded(2, 8, &[0, 1]);
    }

    #[test]
    fn single_module_absorbs_every_address() {
        // modules = 1 makes the mask zero: every line must home to
        // module 0 under both placements, and locality ids must still
        // distinguish lines (the degenerate config a scaled-down
        // machine can produce).
        for h in [AddressHash::new(1, 8), AddressHash::interleaved(1, 8)] {
            let mut locals = std::collections::HashSet::new();
            for line in 0..512u32 {
                let addr = line * 8 + (line % 8); // arbitrary in-line offset
                assert_eq!(h.module_of(addr), 0);
                locals.insert(h.local_line(line * 8));
            }
            assert_eq!(locals.len(), 512, "local line ids must stay distinct");
        }
    }

    #[test]
    fn power_of_two_aliasing_stays_bijective() {
        // Lines exactly `modules` apart alias to one module under plain
        // interleaving — the pathological stride. The (module,
        // local_line) pair must remain a bijection anyway, and the
        // hashed placement must break the alias class apart.
        let modules = 16;
        let h = AddressHash::new(modules as u32 as usize, 8);
        let hi = AddressHash::interleaved(modules, 8);
        let mut hashed_homes = std::collections::HashSet::new();
        let mut pairs = std::collections::HashSet::new();
        for i in 0..128u32 {
            let line = i * modules as u32; // all alias under interleave
            let addr = line * 8;
            assert_eq!(hi.module_of(addr), 0, "interleave alias class");
            assert!(
                pairs.insert((hi.module_of(addr), hi.local_line(addr))),
                "aliasing lines collapsed to one (module, local_line)"
            );
            hashed_homes.insert(h.module_of(addr));
        }
        assert!(
            hashed_homes.len() > modules / 2,
            "hashing left the power-of-two alias class on {} modules",
            hashed_homes.len()
        );
    }
}
