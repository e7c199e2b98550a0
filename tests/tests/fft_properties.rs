//! Property-based tests of the host FFT library's mathematical
//! invariants: inversion, Parseval, linearity, shift theorem, and
//! cross-algorithm agreement (Stockham ≡ Bluestein ≡ naive DFT).

use parafft::bluestein::Bluestein;
use parafft::dft::{dft, idft_normalized, max_error};
use parafft::{fft, ifft, Complex64, Fft, FftDirection, Normalization};
use proptest::prelude::*;
use xmt_integration::sample64;

fn arb_complex() -> impl Strategy<Value = Complex64> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(re, im)| Complex64::new(re, im))
}

fn arb_signal(max_log2: u32) -> impl Strategy<Value = Vec<Complex64>> {
    (1..=max_log2).prop_flat_map(move |k| proptest::collection::vec(arb_complex(), 1 << k as usize))
}

/// Arbitrary (possibly non-power-of-two) length signal, 1..=96.
fn arb_signal_any_len() -> impl Strategy<Value = Vec<Complex64>> {
    (1usize..=96).prop_flat_map(|n| proptest::collection::vec(arb_complex(), n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_ifft_is_identity(x in arb_signal(10)) {
        let mut v = x.clone();
        fft(&mut v);
        ifft(&mut v);
        prop_assert!(max_error(&x, &v) < 1e-7 * x.len() as f64);
    }

    #[test]
    fn fft_ifft_identity_any_length(x in arb_signal_any_len()) {
        let mut v = x.clone();
        fft(&mut v);
        ifft(&mut v);
        prop_assert!(max_error(&x, &v) < 1e-6 * x.len() as f64);
    }

    #[test]
    fn parseval_energy_conserved(x in arb_signal(9)) {
        let n = x.len();
        let mut v = x.clone();
        fft(&mut v);
        let e_time: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let e_freq: f64 = v.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((e_time - e_freq).abs() <= 1e-8 * e_time.max(1.0));
    }

    #[test]
    fn fft_is_linear(x in arb_signal(7), alpha in -10.0f64..10.0) {
        let n = x.len();
        let y = sample64(n, 7);
        let combo: Vec<Complex64> =
            x.iter().zip(&y).map(|(a, b)| a.scale(alpha) + *b).collect();
        let mut f_combo = combo;
        fft(&mut f_combo);
        let mut fx = x.clone();
        fft(&mut fx);
        let mut fy = y;
        fft(&mut fy);
        let want: Vec<Complex64> =
            fx.iter().zip(&fy).map(|(a, b)| a.scale(alpha) + *b).collect();
        prop_assert!(max_error(&f_combo, &want) < 1e-6 * n as f64);
    }

    #[test]
    fn matches_naive_dft(x in arb_signal(7)) {
        let mut got = x.clone();
        fft(&mut got);
        let want = dft(&x, FftDirection::Forward);
        prop_assert!(max_error(&got, &want) < 1e-7 * x.len() as f64);
    }

    #[test]
    fn bluestein_matches_naive(x in arb_signal_any_len()) {
        let mut got = x.clone();
        Fft::new(x.len(), FftDirection::Forward).process(&mut got);
        let want = dft(&x, FftDirection::Forward);
        prop_assert!(max_error(&got, &want) < 1e-6 * x.len() as f64);
    }

    #[test]
    fn all_power_of_two_drivers_agree(x in arb_signal(9)) {
        // The planner never sends a power-of-two size to Bluestein, so
        // drive it directly on the sizes Stockham owns.
        let n = x.len();
        let mut stockham = x.clone();
        Fft::new(n, FftDirection::Forward).process(&mut stockham);
        let mut chirp = x.clone();
        Bluestein::new(n, FftDirection::Forward).process(&mut chirp);
        prop_assert!(max_error(&stockham, &chirp) < 1e-7 * n as f64);
    }

    #[test]
    fn naive_roundtrip(x in arb_signal(6)) {
        let back = idft_normalized(&dft(&x, FftDirection::Forward));
        prop_assert!(max_error(&x, &back) < 1e-8 * x.len() as f64);
    }

    #[test]
    fn unitary_norm_is_isometry(x in arb_signal(8)) {
        let n = x.len();
        let mut v = x.clone();
        Fft::with_normalization(n, FftDirection::Forward, Normalization::Unitary)
            .process(&mut v);
        let a: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let b: f64 = v.iter().map(|c| c.norm_sqr()).sum();
        prop_assert!((a - b).abs() <= 1e-8 * a.max(1.0));
    }

    #[test]
    fn circular_shift_multiplies_phase(shift in 1usize..16, k in 0usize..16) {
        // FFT(x shifted by s)[k] = FFT(x)[k] · ω^{-ks}… for forward
        // convention: X'[j] = X[j]·e^{-i2πjs/N}.
        let n = 64;
        let x = sample64(n, 3);
        let shifted: Vec<Complex64> = (0..n).map(|i| x[(i + n - shift) % n]).collect();
        let mut fx = x.clone();
        fft(&mut fx);
        let mut fs = shifted;
        fft(&mut fs);
        let w = Complex64::cis(-std::f64::consts::TAU * (k * shift) as f64 / n as f64);
        prop_assert!(fs[k].dist(fx[k] * w) < 1e-7);
    }
}

#[test]
fn impulse_response_is_flat_spectrum() {
    let n = 256;
    let mut x = vec![Complex64::zero(); n];
    x[0] = Complex64::one();
    fft(&mut x);
    for v in &x {
        assert!(v.dist(Complex64::one()) < 1e-10);
    }
}

#[test]
fn real_even_signal_has_real_spectrum() {
    let n = 128;
    // x[i] = x[n-i] (even), real -> spectrum is real.
    let x: Vec<Complex64> = (0..n)
        .map(|i| {
            let d = i.min(n - i) as f64;
            Complex64::new((-d * d / 100.0).exp(), 0.0)
        })
        .collect();
    let mut f = x;
    fft(&mut f);
    for v in &f {
        assert!(
            v.im.abs() < 1e-9,
            "even real signal must have real spectrum"
        );
    }
}
