//! Small fixed-size DFT codelets (radix butterflies).
//!
//! Each `dftN` computes an N-point DFT of its inputs in registers, the
//! "small FFT problem of size r" each XMT thread solves (Section IV-A).
//! The forward transform uses `ω_N^{-jk}`; pass `Inverse` to conjugate.

use crate::complex::{Complex, Float};
use crate::FftDirection;

/// Multiply by ±i depending on direction: forward uses `-i` (= ω₄⁻¹).
#[inline(always)]
fn rot90<T: Float>(x: Complex<T>, dir: FftDirection) -> Complex<T> {
    match dir {
        FftDirection::Forward => x.mul_neg_i(),
        FftDirection::Inverse => x.mul_i(),
    }
}

/// 2-point DFT: `(a+b, a-b)`.
#[inline(always)]
pub fn dft2<T: Float>(a: Complex<T>, b: Complex<T>) -> [Complex<T>; 2] {
    [a + b, a - b]
}

/// 4-point DFT via two levels of 2-point butterflies.
#[inline(always)]
pub fn dft4<T: Float>(x: [Complex<T>; 4], dir: FftDirection) -> [Complex<T>; 4] {
    let [e0, e1] = dft2(x[0], x[2]);
    let [o0, o1] = dft2(x[1], x[3]);
    let o1r = rot90(o1, dir);
    [e0 + o0, e1 + o1r, e0 - o0, e1 - o1r]
}

/// 8-point DFT via two 4-point DFTs on even/odd with ω₈ twiddles.
#[inline(always)]
pub fn dft8<T: Float>(x: [Complex<T>; 8], dir: FftDirection) -> [Complex<T>; 8] {
    let e = dft4([x[0], x[2], x[4], x[6]], dir);
    let o = dft4([x[1], x[3], x[5], x[7]], dir);
    // ω₈^{-1} = (1 - i)·√2/2 (forward); conjugate for inverse.
    let h = T::from_f64(std::f64::consts::FRAC_1_SQRT_2);
    let w1 = match dir {
        FftDirection::Forward => Complex::new(h, -h),
        FftDirection::Inverse => Complex::new(h, h),
    };
    let w3 = match dir {
        FftDirection::Forward => Complex::new(-h, -h),
        FftDirection::Inverse => Complex::new(-h, h),
    };
    let t0 = o[0];
    let t1 = o[1] * w1;
    let t2 = rot90(o[2], dir);
    let t3 = o[3] * w3;
    [
        e[0] + t0,
        e[1] + t1,
        e[2] + t2,
        e[3] + t3,
        e[0] - t0,
        e[1] - t1,
        e[2] - t2,
        e[3] - t3,
    ]
}

/// Generic small DFT for any radix (used for prime factors 3, 5, 7, …).
///
/// `roots[j]` must hold `ω_r^{∓j}` in the requested direction for
/// `0 ≤ j < r`. O(r²); only sensible for small `r`.
#[inline]
pub fn dft_generic<T: Float>(x: &[Complex<T>], roots: &[Complex<T>], out: &mut [Complex<T>]) {
    let r = x.len();
    debug_assert_eq!(roots.len(), r);
    debug_assert_eq!(out.len(), r);
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::zero();
        for (j, &xj) in x.iter().enumerate() {
            acc += xj * roots[(j * k) % r];
        }
        *o = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, max_error};
    use crate::{Complex64, FftDirection};

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect()
    }

    #[test]
    fn dft2_matches_naive() {
        let x = sample(2);
        let got = dft2(x[0], x[1]);
        let want = dft(&x, FftDirection::Forward);
        assert!(max_error(&got, &want) < 1e-12);
    }

    #[test]
    fn dft4_matches_naive_both_directions() {
        let x = sample(4);
        for dir in [FftDirection::Forward, FftDirection::Inverse] {
            let got = dft4([x[0], x[1], x[2], x[3]], dir);
            let want = dft(&x, dir);
            assert!(max_error(&got, &want) < 1e-12, "{dir:?}");
        }
    }

    #[test]
    fn dft8_matches_naive_both_directions() {
        let x = sample(8);
        for dir in [FftDirection::Forward, FftDirection::Inverse] {
            let mut arr = [Complex64::zero(); 8];
            arr.copy_from_slice(&x);
            let got = dft8(arr, dir);
            let want = dft(&x, dir);
            assert!(max_error(&got, &want) < 1e-12, "{dir:?}");
        }
    }

    #[test]
    fn generic_matches_naive_for_prime_radices() {
        for r in [3usize, 5, 7, 11] {
            let x = sample(r);
            let roots: Vec<Complex64> = (0..r)
                .map(|j| Complex64::cis(-std::f64::consts::TAU * j as f64 / r as f64))
                .collect();
            let mut out = vec![Complex64::zero(); r];
            dft_generic(&x, &roots, &mut out);
            let want = dft(&x, FftDirection::Forward);
            assert!(max_error(&out, &want) < 1e-12, "radix {r}");
        }
    }
}
