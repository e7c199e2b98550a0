//! Self-sorting mixed-radix Stockham FFT driver.
//!
//! This is the breadth-first, iterative formulation the paper selects for
//! XMT (Section IV-A): at every stage *all* `N/r` radix-`r` sub-problems
//! are independent — each conceptual thread reads its `r` inputs, solves
//! the size-`r` DFT in registers, applies twiddles and writes `r`
//! outputs. The Stockham (ping-pong) data flow keeps both input and
//! output in natural order, avoiding a separate digit-reversal pass.
//!
//! The same stage structure, expressed as XMT ISA kernels, is what the
//! `xmt-fft` crate runs through the cycle simulator.

use crate::codelets::{dft2, dft4, dft8, dft_generic};
use crate::complex::{Complex, Float};
use crate::twiddle::TwiddleTable;
use crate::FftDirection;
use rayon::prelude::*;

/// Factor `n` into a stage list, preferring the largest radix first.
///
/// Powers of two are covered greedily by 8s with a 4 or 2 tail (the
/// paper's radix-8 choice, Section IV-A); remaining small primes
/// (3, 5, 7, 11, 13) are appended. Returns `None` if `n` has a prime
/// factor larger than 13 (callers fall back to Bluestein).
pub fn plan_stages(n: usize) -> Option<Vec<usize>> {
    if n == 0 {
        return None;
    }
    let mut stages = Vec::new();
    let mut m = n;
    let two = m.trailing_zeros();
    m >>= two;
    let mut rem2 = two;
    while rem2 >= 3 {
        stages.push(8);
        rem2 -= 3;
    }
    match rem2 {
        2 => stages.push(4),
        1 => stages.push(2),
        _ => {}
    }
    for p in [3usize, 5, 7, 11, 13] {
        while m.is_multiple_of(p) {
            stages.push(p);
            m /= p;
        }
    }
    if m == 1 {
        Some(stages)
    } else {
        None
    }
}

const MAX_RADIX: usize = 16;

/// One Stockham stage: consume `src`, produce `dst`.
///
/// * `sub` — current sub-transform length (divides `src.len()`),
/// * `s` — stride = number of already-completed output points,
/// * invariant `s * sub == n`.
#[allow(clippy::too_many_arguments)]
fn stage<T: Float>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    r: usize,
    sub: usize,
    s: usize,
    dir: FftDirection,
    tw: &TwiddleTable<T>,
    roots: &[Complex<T>],
) {
    let m = sub / r;
    debug_assert_eq!(s * sub, src.len());
    let mut xs = [Complex::<T>::zero(); MAX_RADIX];
    let mut bs = [Complex::<T>::zero(); MAX_RADIX];
    for p in 0..m {
        for q in 0..s {
            for j in 0..r {
                xs[j] = src[q + s * (p + m * j)];
            }
            match r {
                2 => {
                    let o = dft2(xs[0], xs[1]);
                    bs[..2].copy_from_slice(&o);
                }
                4 => {
                    let o = dft4([xs[0], xs[1], xs[2], xs[3]], dir);
                    bs[..4].copy_from_slice(&o);
                }
                8 => {
                    let o = dft8(
                        [xs[0], xs[1], xs[2], xs[3], xs[4], xs[5], xs[6], xs[7]],
                        dir,
                    );
                    bs[..8].copy_from_slice(&o);
                }
                _ => dft_generic(&xs[..r], roots, &mut bs[..r]),
            }
            // ω_sub^{∓pk} = ω_n^{∓ s·p·k}; table already carries the sign.
            for k in 0..r {
                let v = if p == 0 || k == 0 {
                    bs[k]
                } else {
                    bs[k] * tw.get(s * p * k % tw.len())
                };
                dst[q + s * (r * p + k)] = v;
            }
        }
    }
}

/// Parallel variant of [`stage`]: sub-problems `p` are independent and
/// each owns the contiguous output block `dst[s·r·p .. s·r·(p+1)]`.
#[allow(clippy::too_many_arguments)]
fn stage_par<T: Float>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    r: usize,
    sub: usize,
    s: usize,
    dir: FftDirection,
    tw: &TwiddleTable<T>,
    roots: &[Complex<T>],
) {
    let m = sub / r;
    dst.par_chunks_mut(s * r).enumerate().for_each(|(p, out)| {
        let mut xs = [Complex::<T>::zero(); MAX_RADIX];
        let mut bs = [Complex::<T>::zero(); MAX_RADIX];
        for q in 0..s {
            for j in 0..r {
                xs[j] = src[q + s * (p + m * j)];
            }
            match r {
                2 => {
                    let o = dft2(xs[0], xs[1]);
                    bs[..2].copy_from_slice(&o);
                }
                4 => {
                    let o = dft4([xs[0], xs[1], xs[2], xs[3]], dir);
                    bs[..4].copy_from_slice(&o);
                }
                8 => {
                    let o = dft8(
                        [xs[0], xs[1], xs[2], xs[3], xs[4], xs[5], xs[6], xs[7]],
                        dir,
                    );
                    bs[..8].copy_from_slice(&o);
                }
                _ => dft_generic(&xs[..r], roots, &mut bs[..r]),
            }
            for k in 0..r {
                let v = if p == 0 || k == 0 {
                    bs[k]
                } else {
                    bs[k] * tw.get(s * p * k % tw.len())
                };
                out[q + s * k] = v;
            }
        }
    });
}

fn roots_for<T: Float>(r: usize, dir: FftDirection) -> Vec<Complex<T>> {
    let sign = match dir {
        FftDirection::Forward => -T::ONE,
        FftDirection::Inverse => T::ONE,
    };
    let step = T::TAU / T::from_usize(r);
    (0..r)
        .map(|j| Complex::cis(sign * step * T::from_usize(j)))
        .collect()
}

/// Run a full Stockham FFT over `data` using `scratch` as the ping-pong
/// buffer. `stages` must multiply to `data.len()`; `tw` must be a table
/// of the same length and direction.
///
/// The transform is unnormalized in both directions (like FFTW); divide
/// by `n` after an inverse transform, or use [`crate::plan::Fft`].
pub fn fft_stockham<T: Float>(
    data: &mut [Complex<T>],
    scratch: &mut [Complex<T>],
    stages: &[usize],
    dir: FftDirection,
    tw: &TwiddleTable<T>,
) {
    run(data, scratch, stages, dir, tw, false);
}

/// Parallel (rayon) version of [`fft_stockham`]. Worth using from about
/// 2¹⁴ points; below that thread coordination dominates.
pub fn fft_stockham_par<T: Float>(
    data: &mut [Complex<T>],
    scratch: &mut [Complex<T>],
    stages: &[usize],
    dir: FftDirection,
    tw: &TwiddleTable<T>,
) {
    run(data, scratch, stages, dir, tw, true);
}

fn run<T: Float>(
    data: &mut [Complex<T>],
    scratch: &mut [Complex<T>],
    stages: &[usize],
    dir: FftDirection,
    tw: &TwiddleTable<T>,
    parallel: bool,
) {
    let n = data.len();
    assert_eq!(scratch.len(), n, "scratch must match data length");
    assert_eq!(tw.len(), n, "twiddle table must match data length");
    assert_eq!(tw.direction(), dir, "twiddle table direction mismatch");
    let prod: usize = stages.iter().product();
    assert_eq!(prod, n.max(1), "stage radices must multiply to n");
    if n <= 1 {
        return;
    }
    debug_assert!(stages.iter().all(|&r| (2..=MAX_RADIX).contains(&r)));

    let mut sub = n;
    let mut s = 1usize;
    // Ping-pong between data and scratch; track where the live copy is.
    let mut in_data = true;
    for &r in stages {
        let roots = if matches!(r, 2 | 4 | 8) {
            Vec::new()
        } else {
            roots_for(r, dir)
        };
        let (src, dst): (&[Complex<T>], &mut [Complex<T>]) = if in_data {
            (&*data, &mut *scratch)
        } else {
            (&*scratch, &mut *data)
        };
        if parallel {
            stage_par(src, dst, r, sub, s, dir, tw, &roots);
        } else {
            stage(src, dst, r, sub, s, dir, tw, &roots);
        }
        in_data = !in_data;
        sub /= r;
        s *= r;
    }
    if !in_data {
        data.copy_from_slice(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, max_error};
    use crate::Complex64;

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos() * 0.5))
            .collect()
    }

    fn run_stockham(x: &[Complex64], dir: FftDirection) -> Vec<Complex64> {
        let n = x.len();
        let stages = plan_stages(n).expect("smooth size");
        let tw = TwiddleTable::new(n, dir);
        let mut data = x.to_vec();
        let mut scratch = vec![Complex64::zero(); n];
        fft_stockham(&mut data, &mut scratch, &stages, dir, &tw);
        data
    }

    #[test]
    fn plan_prefers_radix8() {
        assert_eq!(plan_stages(512).unwrap(), vec![8, 8, 8]);
        assert_eq!(plan_stages(1024).unwrap(), vec![8, 8, 8, 2]);
        assert_eq!(plan_stages(256).unwrap(), vec![8, 8, 4]);
        assert_eq!(plan_stages(1).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn plan_handles_smooth_composites() {
        assert_eq!(plan_stages(120).unwrap(), vec![8, 3, 5]);
        assert_eq!(plan_stages(7).unwrap(), vec![7]);
        assert_eq!(plan_stages(0), None);
        assert_eq!(plan_stages(17), None); // prime > 13
        assert_eq!(plan_stages(2 * 17), None);
    }

    #[test]
    fn matches_naive_dft_power_of_two_sizes() {
        for n in [2usize, 4, 8, 16, 32, 64, 128, 256, 512] {
            let x = sample(n);
            let got = run_stockham(&x, FftDirection::Forward);
            let want = dft(&x, FftDirection::Forward);
            assert!(max_error(&got, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn matches_naive_dft_mixed_sizes() {
        for n in [3usize, 5, 6, 12, 15, 24, 60, 120, 360] {
            let x = sample(n);
            let got = run_stockham(&x, FftDirection::Forward);
            let want = dft(&x, FftDirection::Forward);
            assert!(max_error(&got, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn inverse_direction_matches_naive() {
        for n in [8usize, 64, 48] {
            let x = sample(n);
            let got = run_stockham(&x, FftDirection::Inverse);
            let want = dft(&x, FftDirection::Inverse);
            assert!(max_error(&got, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let n = 1 << 12;
        let x = sample(n);
        let stages = plan_stages(n).unwrap();
        let tw = TwiddleTable::new(n, FftDirection::Forward);
        let mut a = x.clone();
        let mut b = x.clone();
        let mut sa = vec![Complex64::zero(); n];
        let mut sb = vec![Complex64::zero(); n];
        fft_stockham(&mut a, &mut sa, &stages, FftDirection::Forward, &tw);
        fft_stockham_par(&mut b, &mut sb, &stages, FftDirection::Forward, &tw);
        assert!(max_error(&a, &b) < 1e-12);
    }

    #[test]
    fn roundtrip_through_inverse() {
        let n = 512;
        let x = sample(n);
        let fwd = run_stockham(&x, FftDirection::Forward);
        let mut back = run_stockham(&fwd, FftDirection::Inverse);
        for v in &mut back {
            *v = v.scale(1.0 / n as f64);
        }
        assert!(max_error(&x, &back) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "stage radices")]
    fn wrong_stage_product_panics() {
        let n = 16;
        let tw = TwiddleTable::<f64>::new(n, FftDirection::Forward);
        let mut d = vec![Complex64::zero(); n];
        let mut s = vec![Complex64::zero(); n];
        fft_stockham(&mut d, &mut s, &[8], FftDirection::Forward, &tw);
    }
}
