//! Planner API: build a reusable [`Fft`] plan for a size/direction, then
//! apply it to as many buffers as you like (the FFTW usage model the
//! paper benchmarks against).

use crate::bluestein::Bluestein;
use crate::complex::{Complex, Float};
use crate::stockham::{fft_stockham, fft_stockham_par, plan_stages};
use crate::twiddle::TwiddleTable;
use crate::FftDirection;
use std::collections::HashMap;
use std::sync::Arc;

/// Which algorithm a plan selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Mixed-radix self-sorting Stockham (smooth sizes).
    Stockham,
    /// Bluestein chirp-z (sizes with a large prime factor).
    Bluestein,
}

/// How (and whether) to normalize transform output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// No scaling in either direction (FFTW convention).
    #[default]
    None,
    /// Scale the inverse by 1/N so forward∘inverse is the identity.
    Inverse,
    /// Scale both directions by 1/√N (unitary transform).
    Unitary,
}

/// A reusable FFT plan for a fixed size and direction.
pub struct Fft<T> {
    n: usize,
    direction: FftDirection,
    normalization: Normalization,
    algorithm: Algorithm,
    stages: Vec<usize>,
    tw: Option<TwiddleTable<T>>,
    bluestein: Option<Bluestein<T>>,
}

impl<T: Float> Fft<T> {
    /// Plan an `n`-point transform with no normalization.
    pub fn new(n: usize, direction: FftDirection) -> Self {
        Self::with_normalization(n, direction, Normalization::None)
    }

    /// Plan with an explicit normalization convention.
    pub fn with_normalization(
        n: usize,
        direction: FftDirection,
        normalization: Normalization,
    ) -> Self {
        assert!(n > 0, "FFT size must be positive");
        if let Some(stages) = plan_stages(n) {
            Self {
                n,
                direction,
                normalization,
                algorithm: Algorithm::Stockham,
                tw: Some(TwiddleTable::new(n, direction)),
                stages,
                bluestein: None,
            }
        } else {
            Self {
                n,
                direction,
                normalization,
                algorithm: Algorithm::Bluestein,
                tw: None,
                stages: Vec::new(),
                bluestein: Some(Bluestein::new(n, direction)),
            }
        }
    }

    /// Scratch elements required by [`Self::process_with_scratch`].
    pub fn scratch_len(&self) -> usize {
        match self.algorithm {
            Algorithm::Stockham => self.n,
            Algorithm::Bluestein => 0, // Bluestein manages its own buffers.
        }
    }

    fn normalize(&self, data: &mut [Complex<T>]) {
        let s = match (self.normalization, self.direction) {
            (Normalization::None, _) => return,
            (Normalization::Inverse, FftDirection::Forward) => return,
            (Normalization::Inverse, FftDirection::Inverse) => T::ONE / T::from_usize(self.n),
            (Normalization::Unitary, _) => T::ONE / T::from_usize(self.n).sqrt(),
        };
        for v in data {
            *v = v.scale(s);
        }
    }

    /// Transform in place, allocating scratch internally.
    pub fn process(&self, data: &mut [Complex<T>]) {
        let mut scratch = vec![Complex::zero(); self.scratch_len()];
        self.process_with_scratch(data, &mut scratch);
    }

    /// Transform in place using caller-provided scratch of at least
    /// [`Self::scratch_len`] elements (zero allocation on the hot path).
    pub fn process_with_scratch(&self, data: &mut [Complex<T>], scratch: &mut [Complex<T>]) {
        assert_eq!(data.len(), self.n, "buffer length must match plan size");
        match self.algorithm {
            Algorithm::Stockham => {
                let tw = self.tw.as_ref().expect("stockham plan has twiddles");
                fft_stockham(
                    data,
                    &mut scratch[..self.n],
                    &self.stages,
                    self.direction,
                    tw,
                );
            }
            Algorithm::Bluestein => {
                self.bluestein
                    .as_ref()
                    .expect("bluestein plan")
                    .process(data);
            }
        }
        self.normalize(data);
    }

    /// Multithreaded transform (rayon); falls back to serial for
    /// Bluestein plans and tiny sizes where threading cannot pay off.
    pub fn process_par(&self, data: &mut [Complex<T>]) {
        assert_eq!(data.len(), self.n, "buffer length must match plan size");
        match self.algorithm {
            Algorithm::Stockham if self.n >= 1 << 10 => {
                let tw = self.tw.as_ref().expect("stockham plan has twiddles");
                let mut scratch = vec![Complex::zero(); self.n];
                fft_stockham_par(data, &mut scratch, &self.stages, self.direction, tw);
                self.normalize(data);
            }
            _ => self.process(data),
        }
    }
}

/// Caching planner: repeated requests for the same (size, direction)
/// return the same shared plan, amortizing twiddle construction across
/// the rows of multidimensional transforms.
pub struct FftPlanner<T> {
    cache: HashMap<(usize, FftDirection), Arc<Fft<T>>>,
}

impl<T: Float> FftPlanner<T> {
    /// Construct a new instance.
    pub fn new() -> Self {
        Self {
            cache: HashMap::new(),
        }
    }

    /// Get or create a plan.
    pub fn plan(&mut self, n: usize, direction: FftDirection) -> Arc<Fft<T>> {
        self.cache
            .entry((n, direction))
            .or_insert_with(|| Arc::new(Fft::new(n, direction)))
            .clone()
    }
}

impl<T: Float> Default for FftPlanner<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience one-shot forward FFT (plans internally).
pub fn fft<T: Float>(data: &mut [Complex<T>]) {
    Fft::new(data.len(), FftDirection::Forward).process(data);
}

/// Convenience one-shot inverse FFT including the 1/N normalization.
pub fn ifft<T: Float>(data: &mut [Complex<T>]) {
    Fft::with_normalization(data.len(), FftDirection::Inverse, Normalization::Inverse)
        .process(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, max_error};
    use crate::Complex64;

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.11).cos(), (i as f64 * 0.77).sin()))
            .collect()
    }

    #[test]
    fn plan_selects_algorithm_by_smoothness() {
        assert_eq!(
            Fft::<f64>::new(512, FftDirection::Forward).algorithm,
            Algorithm::Stockham
        );
        assert_eq!(
            Fft::<f64>::new(360, FftDirection::Forward).algorithm,
            Algorithm::Stockham
        );
        assert_eq!(
            Fft::<f64>::new(17, FftDirection::Forward).algorithm,
            Algorithm::Bluestein
        );
        assert_eq!(
            Fft::<f64>::new(34, FftDirection::Forward).algorithm,
            Algorithm::Bluestein
        );
    }

    #[test]
    fn process_matches_naive_across_algorithms() {
        for n in [16usize, 60, 17, 97] {
            let x = sample(n);
            let mut got = x.clone();
            Fft::new(n, FftDirection::Forward).process(&mut got);
            let want = dft(&x, FftDirection::Forward);
            assert!(max_error(&got, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn fft_ifft_roundtrip() {
        for n in [64usize, 30, 19] {
            let x = sample(n);
            let mut v = x.clone();
            fft(&mut v);
            ifft(&mut v);
            assert!(max_error(&x, &v) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn unitary_preserves_energy() {
        let n = 256;
        let x = sample(n);
        let mut v = x.clone();
        Fft::with_normalization(n, FftDirection::Forward, Normalization::Unitary).process(&mut v);
        let e_in: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let e_out: f64 = v.iter().map(|c| c.norm_sqr()).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-10, "Parseval violated");
    }

    #[test]
    fn parallel_matches_serial() {
        let n = 1 << 12;
        let x = sample(n);
        let plan = Fft::new(n, FftDirection::Forward);
        let mut a = x.clone();
        let mut b = x.clone();
        plan.process(&mut a);
        plan.process_par(&mut b);
        assert!(max_error(&a, &b) < 1e-12);
    }

    #[test]
    fn planner_caches() {
        let mut p = FftPlanner::<f64>::new();
        let a = p.plan(64, FftDirection::Forward);
        let b = p.plan(64, FftDirection::Forward);
        assert!(Arc::ptr_eq(&a, &b));
        let _ = p.plan(64, FftDirection::Inverse);
        let _ = p.plan(128, FftDirection::Forward);
        assert_eq!(p.cache.len(), 3);
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let n = 128;
        let x = sample(n);
        let plan = Fft::new(n, FftDirection::Forward);
        let mut scratch = vec![Complex64::zero(); plan.scratch_len()];
        let mut a = x.clone();
        let mut b = x.clone();
        plan.process(&mut a);
        plan.process_with_scratch(&mut b, &mut scratch);
        assert!(max_error(&a, &b) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "must match plan")]
    fn wrong_length_panics() {
        let plan = Fft::<f64>::new(8, FftDirection::Forward);
        let mut v = vec![Complex64::zero(); 4];
        plan.process(&mut v);
    }
}
