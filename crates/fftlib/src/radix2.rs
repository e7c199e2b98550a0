//! Classic in-place radix-2 drivers: decimation-in-time (DIT) and
//! decimation-in-frequency (DIF).
//!
//! These exist for the paper's design-choice ablations (Section IV-A
//! "Decimation-in-time versus -frequency"): the DIT variant consumes
//! twiddles fine-to-coarse (2nd roots first), DIF coarse-to-fine (N-th
//! roots first) — the property that makes DIF mesh with the paper's
//! twiddle-replication scheme. The production path is the self-sorting
//! driver in [`crate::stockham`].

use crate::complex::{Complex, Float};
use crate::permute::bit_reverse_permute;
use crate::twiddle::TwiddleTable;
use crate::FftDirection;

fn check<T: Float>(data: &[Complex<T>], tw: &TwiddleTable<T>, dir: FftDirection) {
    assert!(
        data.len().is_power_of_two(),
        "radix-2 driver needs power-of-two length"
    );
    assert_eq!(tw.len(), data.len(), "twiddle table must match data length");
    assert_eq!(tw.direction(), dir, "twiddle table direction mismatch");
}

/// In-place radix-2 decimation-in-time FFT (Cooley–Tukey).
///
/// Bit-reverses the input, then runs log₂N butterfly stages from the
/// smallest sub-problems up; twiddles go 2nd roots → 4th roots → … → Nth.
pub fn fft_dit2<T: Float>(data: &mut [Complex<T>], dir: FftDirection, tw: &TwiddleTable<T>) {
    check(data, tw, dir);
    let n = data.len();
    if n <= 1 {
        return;
    }
    bit_reverse_permute(data);
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let step = n / len; // ω_len = ω_n^step
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let w = tw.get(step * k);
                let a = data[start + k];
                let b = data[start + k + half] * w;
                data[start + k] = a + b;
                data[start + k + half] = a - b;
            }
        }
        len *= 2;
    }
}

/// In-place radix-2 decimation-in-frequency FFT.
///
/// Runs butterfly stages from the full problem down (Nth roots first —
/// the ordering the paper exploits for twiddle replication), leaving the
/// output bit-reversed, then unscrambles.
pub fn fft_dif2<T: Float>(data: &mut [Complex<T>], dir: FftDirection, tw: &TwiddleTable<T>) {
    fft_dif2_scrambled(data, dir, tw);
    bit_reverse_permute(data);
}

/// The DIF butterfly passes only, leaving the result in bit-reversed
/// order (useful when a subsequent pass can absorb the permutation, as
/// the paper's fused rotation does).
pub fn fft_dif2_scrambled<T: Float>(
    data: &mut [Complex<T>],
    dir: FftDirection,
    tw: &TwiddleTable<T>,
) {
    check(data, tw, dir);
    let n = data.len();
    if n <= 1 {
        return;
    }
    let mut len = n;
    while len >= 2 {
        let half = len / 2;
        let step = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let w = tw.get(step * k);
                let a = data[start + k];
                let b = data[start + k + half];
                data[start + k] = a + b;
                data[start + k + half] = (a - b) * w;
            }
        }
        len /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, max_error};
    use crate::Complex64;

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64).cos(), (3.0 * i as f64).sin()))
            .collect()
    }

    #[test]
    fn dit_matches_naive() {
        for n in [2usize, 4, 16, 128, 1024] {
            let x = sample(n);
            let mut got = x.clone();
            let tw = TwiddleTable::new(n, FftDirection::Forward);
            fft_dit2(&mut got, FftDirection::Forward, &tw);
            let want = dft(&x, FftDirection::Forward);
            assert!(max_error(&got, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn dif_matches_dit() {
        for n in [8usize, 64, 512] {
            let x = sample(n);
            let tw = TwiddleTable::new(n, FftDirection::Forward);
            let mut a = x.clone();
            let mut b = x.clone();
            fft_dit2(&mut a, FftDirection::Forward, &tw);
            fft_dif2(&mut b, FftDirection::Forward, &tw);
            assert!(max_error(&a, &b) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn dif_scrambled_is_bitreversed_dif() {
        let n = 64;
        let x = sample(n);
        let tw = TwiddleTable::new(n, FftDirection::Forward);
        let mut full = x.clone();
        let mut scram = x.clone();
        fft_dif2(&mut full, FftDirection::Forward, &tw);
        fft_dif2_scrambled(&mut scram, FftDirection::Forward, &tw);
        bit_reverse_permute(&mut scram);
        assert!(max_error(&full, &scram) < 1e-14);
    }

    #[test]
    fn inverse_roundtrip() {
        let n = 256;
        let x = sample(n);
        let mut v = x.clone();
        let twf = TwiddleTable::new(n, FftDirection::Forward);
        let twi = TwiddleTable::new(n, FftDirection::Inverse);
        fft_dit2(&mut v, FftDirection::Forward, &twf);
        fft_dit2(&mut v, FftDirection::Inverse, &twi);
        for e in &mut v {
            *e = e.scale(1.0 / n as f64);
        }
        assert!(max_error(&x, &v) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        let mut v = vec![Complex64::zero(); 12];
        let tw = TwiddleTable::new(12, FftDirection::Forward);
        fft_dit2(&mut v, FftDirection::Forward, &tw);
    }
}
