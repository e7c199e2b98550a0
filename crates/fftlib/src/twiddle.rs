//! Twiddle-factor tables.
//!
//! The FFT's twiddle factors `ω_N^{-k} = e^{-i2πk/N}` depend only on the
//! transform size, so they are precomputed once ([`TwiddleTable`]) and
//! shared by every row of a multidimensional transform — exactly the
//! lookup-table strategy of Section IV-A of the paper.
//!
//! The paper additionally *replicates* the table across cache modules so
//! that concurrent reads of the same factor by many threads do not queue
//! on a single memory location. [`ReplicatedTwiddles`] models that layout
//! in a machine-independent way: `copies` interleaved replicas, with the
//! reader choosing a replica from its thread index. On the host this is
//! performance-neutral; in the XMT simulator the same layout removes the
//! same-address queuing bottleneck (see the `ablation_twiddle` bench).

use crate::complex::{Complex, Float};
use crate::FftDirection;

/// Precomputed `ω_N^{±k}` for `0 ≤ k < N`.
#[derive(Clone, Debug)]
pub struct TwiddleTable<T> {
    n: usize,
    direction: FftDirection,
    factors: Vec<Complex<T>>,
}

impl<T: Float> TwiddleTable<T> {
    /// Build the table for an `n`-point transform in the given direction.
    ///
    /// Forward uses `e^{-i2πk/n}`, inverse `e^{+i2πk/n}`.
    pub fn new(n: usize, direction: FftDirection) -> Self {
        assert!(n > 0, "twiddle table size must be positive");
        let sign = match direction {
            FftDirection::Forward => -T::ONE,
            FftDirection::Inverse => T::ONE,
        };
        let step = T::TAU / T::from_usize(n);
        let factors = (0..n)
            .map(|k| Complex::cis(sign * step * T::from_usize(k)))
            .collect();
        Self {
            n,
            direction,
            factors,
        }
    }

    /// Transform size this table was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    /// Transform direction.
    pub fn direction(&self) -> FftDirection {
        self.direction
    }

    /// `ω_n^{±k}` with `k` reduced modulo `n`.
    #[inline(always)]
    pub fn get(&self, k: usize) -> Complex<T> {
        self.factors[k % self.n]
    }
}

/// A twiddle table stored as `copies` interleaved replicas.
///
/// Replica `c` of factor `k` lives at flat index `k * copies + c`, so a
/// full set of factors occupies a contiguous region per *replica stripe*
/// and concurrent readers with different `reader` hints touch different
/// addresses. This mirrors the paper's one-cache-line-per-cache-module
/// replication policy.
#[derive(Clone, Debug)]
pub struct ReplicatedTwiddles<T> {
    n: usize,
    copies: usize,
    flat: Vec<Complex<T>>,
}

impl<T: Float> ReplicatedTwiddles<T> {
    /// Replicate `table` into `copies` interleaved replicas.
    pub fn new(table: &TwiddleTable<T>, copies: usize) -> Self {
        assert!(copies > 0, "at least one replica required");
        let n = table.len();
        let mut flat = vec![Complex::zero(); n * copies];
        for k in 0..n {
            let w = table.get(k);
            for c in 0..copies {
                flat[k * copies + c] = w;
            }
        }
        Self { n, copies, flat }
    }

    /// Read factor `k`, spreading readers across replicas by `reader`.
    #[inline(always)]
    pub fn get(&self, k: usize, reader: usize) -> Complex<T> {
        self.flat[(k % self.n) * self.copies + reader % self.copies]
    }

    /// Flat replicated storage (used to initialize XMT shared memory).
    #[inline]
    pub fn flat(&self) -> &[Complex<T>] {
        &self.flat
    }
}

/// Choose the replica count the paper prescribes: just enough copies that
/// each of the `cache_modules` holds one cache line's worth of table.
///
/// `line_elems` is how many complex elements fit in one cache line.
/// Using more copies would not help (same-module requests queue anyway);
/// fewer would leave cache modules idle.
pub fn replication_for(n: usize, cache_modules: usize, line_elems: usize) -> usize {
    if n == 0 || cache_modules == 0 {
        return 1;
    }
    let lines_needed = n.div_ceil(line_elems);
    // Enough replicas that replicas × lines_needed covers every module.
    cache_modules.div_ceil(lines_needed).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn forward_table_matches_definition() {
        let t = TwiddleTable::<f64>::new(16, FftDirection::Forward);
        for k in 0..16 {
            let expect = Complex64::cis(-std::f64::consts::TAU * k as f64 / 16.0);
            assert!(t.get(k).dist(expect) < 1e-12);
        }
    }

    #[test]
    fn inverse_is_conjugate_of_forward() {
        let f = TwiddleTable::<f64>::new(32, FftDirection::Forward);
        let i = TwiddleTable::<f64>::new(32, FftDirection::Inverse);
        for k in 0..32 {
            assert!(f.get(k).conj().dist(i.get(k)) < 1e-12);
        }
    }

    #[test]
    fn get_wraps_modulo_n() {
        let t = TwiddleTable::<f64>::new(8, FftDirection::Forward);
        assert!(t.get(3).dist(t.get(11)) < 1e-15);
    }

    #[test]
    fn replicas_agree_with_base_table() {
        let t = TwiddleTable::<f64>::new(16, FftDirection::Forward);
        let r = ReplicatedTwiddles::new(&t, 4);
        for k in 0..16 {
            for reader in 0..9 {
                assert_eq!(r.get(k, reader), t.get(k));
            }
        }
    }

    #[test]
    fn replication_policy_covers_modules() {
        // 16-entry table, 8 elements per line => 2 lines; 8 modules => 4 copies.
        assert_eq!(replication_for(16, 8, 8), 4);
        // Table bigger than module count: a single copy already spans all.
        assert_eq!(replication_for(1 << 20, 128, 8), 1);
        // Degenerate inputs.
        assert_eq!(replication_for(0, 128, 8), 1);
        assert_eq!(replication_for(16, 0, 8), 1);
    }
}
