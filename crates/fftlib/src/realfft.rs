//! Real-input FFT via the packed half-length complex transform.
//!
//! N real samples are packed into N/2 complex values, transformed with a
//! single N/2-point complex FFT, and unpacked with the standard
//! split/recombination identities into the N/2+1 non-redundant
//! (Hermitian) spectrum bins.

use crate::complex::{Complex, Float};
use crate::plan::Fft;
use crate::FftDirection;

/// Plan for a forward real-to-complex FFT of even length `n`.
pub struct RealFft<T> {
    n: usize,
    half_plan: Fft<T>,
    /// ω_n^{-k} for the recombination, `0 ≤ k ≤ n/2`.
    twiddles: Vec<Complex<T>>,
}

impl<T: Float> RealFft<T> {
    /// Construct a new instance.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_multiple_of(2),
            "real FFT requires even length >= 2"
        );
        let step = T::TAU / T::from_usize(n);
        let twiddles = (0..=n / 2)
            .map(|k| Complex::cis(-step * T::from_usize(k)))
            .collect();
        Self {
            n,
            half_plan: Fft::new(n / 2, FftDirection::Forward),
            twiddles,
        }
    }

    /// Number of output bins: `n/2 + 1`.
    pub fn output_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Transform `input` (length n) into `output` (length n/2+1), the
    /// non-negative-frequency half of the spectrum. The remaining bins
    /// are the conjugate mirror `X[n-k] = conj(X[k])`.
    pub fn process(&self, input: &[T], output: &mut [Complex<T>]) {
        assert_eq!(input.len(), self.n, "input length must match plan");
        assert_eq!(
            output.len(),
            self.output_len(),
            "output must hold n/2+1 bins"
        );
        let h = self.n / 2;
        // Pack x[2j] + i·x[2j+1].
        let mut z: Vec<Complex<T>> = (0..h)
            .map(|j| Complex::new(input[2 * j], input[2 * j + 1]))
            .collect();
        self.half_plan.process(&mut z);

        let half = T::from_f64(0.5);
        for k in 0..=h {
            let zk = if k == h { z[0] } else { z[k] };
            let zmk = z[(h - k) % h].conj();
            // Even (real-part) and odd (imag-part) sub-spectra.
            let xe = (zk + zmk).scale(half);
            let xo = (zk - zmk).scale(half).mul_neg_i();
            output[k] = xe + self.twiddles[k] * xo;
        }
    }

    /// Convenience wrapper allocating the output.
    pub fn transform(&self, input: &[T]) -> Vec<Complex<T>> {
        let mut out = vec![Complex::zero(); self.output_len()];
        self.process(input, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft_forward, max_error};
    use crate::Complex64;

    fn real_sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.41).sin() + 0.3 * (i as f64 * 1.9).cos())
            .collect()
    }

    #[test]
    fn matches_complex_dft_of_real_signal() {
        for n in [2usize, 4, 8, 16, 64, 128, 24, 60] {
            let x = real_sample(n);
            let plan = RealFft::new(n);
            let half = plan.transform(&x);
            let xc: Vec<Complex64> = x.iter().map(|&r| Complex64::new(r, 0.0)).collect();
            let want = dft_forward(&xc);
            assert!(
                max_error(&half, &want[..n / 2 + 1]) < 1e-8 * n as f64,
                "n={n}"
            );
        }
    }

    #[test]
    fn dc_bin_is_sum() {
        let x = real_sample(32);
        let plan = RealFft::new(32);
        let half = plan.transform(&x);
        let sum: f64 = x.iter().sum();
        assert!((half[0].re - sum).abs() < 1e-9);
        assert!(half[0].im.abs() < 1e-9);
    }

    #[test]
    fn nyquist_bin_is_real() {
        let x = real_sample(64);
        let plan = RealFft::new(64);
        let half = plan.transform(&x);
        assert!(half[32].im.abs() < 1e-9, "Nyquist bin must be real");
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn rejects_odd_length() {
        RealFft::<f64>::new(9);
    }

    #[test]
    fn output_len_is_half_plus_one() {
        assert_eq!(RealFft::<f64>::new(16).output_len(), 9);
    }
}
