//! Bluestein's chirp-z algorithm: an N-point DFT for *arbitrary* N,
//! expressed as a circular convolution of length M ≥ 2N−1 carried out by
//! power-of-two FFTs. Completes the library's coverage beyond the smooth
//! sizes handled by the mixed-radix Stockham driver.

use crate::complex::{Complex, Float};
use crate::stockham::{fft_stockham, plan_stages};
use crate::twiddle::TwiddleTable;
use crate::FftDirection;

/// Precomputed state for an N-point Bluestein transform.
#[derive(Clone, Debug)]
pub struct Bluestein<T> {
    n: usize,
    m: usize,
    stages: Vec<usize>,
    tw_fwd: TwiddleTable<T>,
    tw_inv: TwiddleTable<T>,
    /// Chirp `c_j = e^{∓iπ j²/N}` for `0 ≤ j < n`.
    chirp: Vec<Complex<T>>,
    /// FFT of the conjugate-chirp kernel, length `m`.
    kernel_hat: Vec<Complex<T>>,
}

impl<T: Float> Bluestein<T> {
    /// Plan an `n`-point transform in `direction`.
    pub fn new(n: usize, direction: FftDirection) -> Self {
        assert!(n > 0, "Bluestein size must be positive");
        let m = (2 * n - 1).next_power_of_two();
        let stages = plan_stages(m).expect("power of two is always smooth");
        let tw_fwd = TwiddleTable::new(m, FftDirection::Forward);
        let tw_inv = TwiddleTable::new(m, FftDirection::Inverse);

        let sign = match direction {
            FftDirection::Forward => -T::ONE,
            FftDirection::Inverse => T::ONE,
        };
        // Angle of c_j is ∓π j²/N = ∓2π (j² mod 2N) / (2N); reducing the
        // square modulo 2N first keeps the argument small for f32.
        let two_n = 2 * n;
        let step = T::TAU / T::from_usize(two_n);
        let chirp: Vec<Complex<T>> = (0..n)
            .map(|j| {
                let sq = (j * j) % two_n;
                Complex::cis(sign * step * T::from_usize(sq))
            })
            .collect();

        // Convolution kernel b_j = conj(c_|j|), wrapped circularly in M.
        let mut kernel = vec![Complex::zero(); m];
        for j in 0..n {
            let b = chirp[j].conj();
            kernel[j] = b;
            if j != 0 {
                kernel[m - j] = b;
            }
        }
        let mut scratch = vec![Complex::zero(); m];
        fft_stockham(
            &mut kernel,
            &mut scratch,
            &stages,
            FftDirection::Forward,
            &tw_fwd,
        );

        Self {
            n,
            m,
            stages,
            tw_fwd,
            tw_inv,
            chirp,
            kernel_hat: kernel,
        }
    }

    /// Transform `data` in place (unnormalized, like the other drivers).
    pub fn process(&self, data: &mut [Complex<T>]) {
        assert_eq!(data.len(), self.n, "input length must match plan");
        let m = self.m;
        let mut a = vec![Complex::zero(); m];
        let mut scratch = vec![Complex::zero(); m];
        for j in 0..self.n {
            a[j] = data[j] * self.chirp[j];
        }
        fft_stockham(
            &mut a,
            &mut scratch,
            &self.stages,
            FftDirection::Forward,
            &self.tw_fwd,
        );
        for (av, kv) in a.iter_mut().zip(&self.kernel_hat) {
            *av *= *kv;
        }
        fft_stockham(
            &mut a,
            &mut scratch,
            &self.stages,
            FftDirection::Inverse,
            &self.tw_inv,
        );
        let inv_m = T::ONE / T::from_usize(m);
        for k in 0..self.n {
            data[k] = a[k].scale(inv_m) * self.chirp[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, max_error};
    use crate::Complex64;

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 1.7).sin(), (i as f64 * 0.3).cos() - 0.2))
            .collect()
    }

    #[test]
    fn matches_naive_for_awkward_sizes() {
        for n in [1usize, 2, 7, 13, 17, 31, 97, 100, 257] {
            let plan = Bluestein::new(n, FftDirection::Forward);
            let x = sample(n);
            let mut got = x.clone();
            plan.process(&mut got);
            let want = dft(&x, FftDirection::Forward);
            assert!(max_error(&got, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_naive() {
        let n = 23;
        let plan = Bluestein::new(n, FftDirection::Inverse);
        let x = sample(n);
        let mut got = x.clone();
        plan.process(&mut got);
        let want = dft(&x, FftDirection::Inverse);
        assert!(max_error(&got, &want) < 1e-9 * n as f64);
    }

    #[test]
    fn roundtrip_prime_size() {
        let n = 101;
        let fwd = Bluestein::new(n, FftDirection::Forward);
        let inv = Bluestein::new(n, FftDirection::Inverse);
        let x = sample(n);
        let mut v = x.clone();
        fwd.process(&mut v);
        inv.process(&mut v);
        for e in &mut v {
            *e = e.scale(1.0 / n as f64);
        }
        assert!(max_error(&x, &v) < 1e-9);
    }

    #[test]
    fn conv_len_is_sufficient_power_of_two() {
        let plan = Bluestein::<f64>::new(100, FftDirection::Forward);
        assert!(plan.m.is_power_of_two());
        assert!(plan.m >= 199);
    }
}
