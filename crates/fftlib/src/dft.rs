//! Naive O(N²) discrete Fourier transform, the correctness oracle.
//!
//! Every FFT code path in this workspace — host codelets, the Stockham
//! and Bluestein drivers, and the XMT-simulated kernels — is ultimately
//! validated against this direct evaluation of Eq. (1) of the paper.

use crate::complex::{Complex, Float};
use crate::FftDirection;

/// Directly evaluate `X_k = Σ_n x_n · e^{∓i2πkn/N}`.
///
/// O(N²); intended for tests and tiny sizes only.
pub fn dft<T: Float>(input: &[Complex<T>], direction: FftDirection) -> Vec<Complex<T>> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let sign = match direction {
        FftDirection::Forward => -T::ONE,
        FftDirection::Inverse => T::ONE,
    };
    let step = T::TAU / T::from_usize(n);
    (0..n)
        .map(|k| {
            let mut acc = Complex::zero();
            for (j, &x) in input.iter().enumerate() {
                // Reduce k·j mod n before converting to angle to keep the
                // argument small (important for f32 inputs at large N).
                let kj = (k * j) % n;
                acc += x * Complex::cis(sign * step * T::from_usize(kj));
            }
            acc
        })
        .collect()
}

/// Inverse naive DFT *including* the 1/N normalization, so that
/// `idft(dft(x)) == x`.
pub fn idft_normalized<T: Float>(input: &[Complex<T>]) -> Vec<Complex<T>> {
    let n = input.len();
    let mut out = dft(input, FftDirection::Inverse);
    if n > 0 {
        let s = T::ONE / T::from_usize(n);
        for v in &mut out {
            *v = v.scale(s);
        }
    }
    out
}

/// Maximum element-wise distance between two complex slices.
///
/// Panics if lengths differ; returns 0 for empty slices.
pub fn max_error<T: Float>(a: &[Complex<T>], b: &[Complex<T>]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch in max_error");
    a.iter()
        .zip(b)
        .map(|(x, y)| x.dist(*y).to_f64())
        .fold(0.0, f64::max)
}

/// Relative max error scaled by the RMS magnitude of `a`, robust to
/// signal amplitude. Returns absolute error when `a` is all-zero.
pub fn rel_error<T: Float>(a: &[Complex<T>], b: &[Complex<T>]) -> f64 {
    let err = max_error(a, b);
    let rms = (a.iter().map(|x| x.norm_sqr().to_f64()).sum::<f64>() / a.len().max(1) as f64).sqrt();
    if rms > 0.0 {
        err / rms
    } else {
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    fn impulse(n: usize, at: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::zero(); n];
        v[at] = Complex64::one();
        v
    }

    #[test]
    fn dft_of_impulse_is_flat() {
        let x = impulse(8, 0);
        let y = dft(&x, FftDirection::Forward);
        for v in y {
            assert!(v.dist(Complex64::one()) < 1e-12);
        }
    }

    #[test]
    fn dft_of_shifted_impulse_is_twiddles() {
        let n = 16;
        let x = impulse(n, 1);
        let y = dft(&x, FftDirection::Forward);
        for (k, v) in y.iter().enumerate() {
            let expect = Complex64::cis(-std::f64::consts::TAU * k as f64 / n as f64);
            assert!(v.dist(expect) < 1e-12);
        }
    }

    #[test]
    fn dft_of_constant_is_impulse() {
        let n = 12;
        let x = vec![Complex64::one(); n];
        let y = dft(&x, FftDirection::Forward);
        assert!(y[0].dist(Complex64::new(n as f64, 0.0)) < 1e-10);
        for v in &y[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn roundtrip_identity() {
        let x: Vec<Complex64> = (0..10)
            .map(|i| Complex64::new(i as f64 * 0.3 - 1.0, (i * i) as f64 * 0.01))
            .collect();
        let back = idft_normalized(&dft(&x, FftDirection::Forward));
        assert!(max_error(&x, &back) < 1e-10);
    }

    #[test]
    fn dft_linear() {
        let x: Vec<Complex64> = (0..9)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        let y: Vec<Complex64> = (0..9)
            .map(|i| Complex64::new(1.0 / (i + 1) as f64, 0.5))
            .collect();
        let sum: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let lhs = dft(&sum, FftDirection::Forward);
        let rhs: Vec<Complex64> = dft(&x, FftDirection::Forward)
            .iter()
            .zip(dft(&y, FftDirection::Forward))
            .map(|(a, b)| *a + b)
            .collect();
        assert!(max_error(&lhs, &rhs) < 1e-10);
    }

    #[test]
    fn empty_input_ok() {
        assert!(dft::<f64>(&[], FftDirection::Forward).is_empty());
        assert!(idft_normalized::<f64>(&[]).is_empty());
    }

    #[test]
    fn rel_error_scales() {
        let a = vec![Complex64::new(100.0, 0.0); 4];
        let mut b = a.clone();
        b[0].re += 1.0;
        assert!((rel_error(&a, &b) - 0.01).abs() < 1e-12);
    }
}
