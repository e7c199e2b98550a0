//! Depth-first (recursive, cache-oblivious) radix-2 FFT.
//!
//! The paper (Section IV-A "Depth-first versus breadth-first") contrasts
//! this traversal — working set shrinks as `N/2^i` with recursion depth,
//! so deep levels fit in cache, but available parallelism shrinks with
//! it — against the breadth-first iterative driver that XMT prefers.
//! Both are provided so the `ablation_traversal` bench can measure the
//! locality/parallelism trade-off, and [`fft_hybrid`] implements the
//! paper's suggested "start depth-first, switch to breadth-first when
//! the subproblem is small enough" strategy for large inputs.

use crate::complex::{Complex, Float};
use crate::stockham::{fft_stockham, plan_stages};
use crate::twiddle::TwiddleTable;
use crate::FftDirection;

/// Out-of-place depth-first radix-2 DIT FFT.
///
/// `n` must be a power of two. The recursion reads `input` with a stride
/// and writes contiguous halves of `output`, the classic cache-oblivious
/// formulation (Frigo et al. \[29\]).
pub fn fft_recursive<T: Float>(
    input: &[Complex<T>],
    output: &mut [Complex<T>],
    dir: FftDirection,
    tw: &TwiddleTable<T>,
) {
    let n = input.len();
    assert!(
        n.is_power_of_two() || n == 1,
        "recursive driver needs power-of-two length"
    );
    assert_eq!(output.len(), n);
    assert_eq!(tw.len(), n, "twiddle table must match data length");
    assert_eq!(tw.direction(), dir);
    rec(input, 1, output, tw, n);
}

fn rec<T: Float>(
    input: &[Complex<T>],
    stride: usize,
    output: &mut [Complex<T>],
    tw: &TwiddleTable<T>,
    n: usize,
) {
    if n == 1 {
        output[0] = input[0];
        return;
    }
    let half = n / 2;
    {
        let (even_out, odd_out) = output.split_at_mut(half);
        rec(input, stride * 2, even_out, tw, half);
        rec(&input[stride..], stride * 2, odd_out, tw, half);
    }
    // ω_n^k = ω_N^{k·N/n}; table length is the full N.
    let step = tw.len() / n;
    for k in 0..half {
        let t = output[half + k] * tw.get(step * k);
        let e = output[k];
        output[k] = e + t;
        output[half + k] = e - t;
    }
}

/// Hybrid traversal: recurse depth-first until the sub-problem is at
/// most `cutoff` points, then solve it breadth-first (Stockham).
///
/// With `cutoff >= n` this is pure breadth-first; with `cutoff <= 1` it
/// degenerates to [`fft_recursive`].
pub fn fft_hybrid<T: Float>(
    input: &[Complex<T>],
    output: &mut [Complex<T>],
    dir: FftDirection,
    tw: &TwiddleTable<T>,
    cutoff: usize,
) {
    let n = input.len();
    assert!(n.is_power_of_two() || n == 1);
    assert_eq!(output.len(), n);
    assert_eq!(tw.len(), n);
    assert_eq!(tw.direction(), dir);
    let mut scratch = vec![Complex::zero(); n.min(cutoff.next_power_of_two())];
    hybrid_rec(input, 1, output, dir, tw, n, cutoff.max(1), &mut scratch);
}

#[allow(clippy::too_many_arguments)]
fn hybrid_rec<T: Float>(
    input: &[Complex<T>],
    stride: usize,
    output: &mut [Complex<T>],
    dir: FftDirection,
    tw: &TwiddleTable<T>,
    n: usize,
    cutoff: usize,
    scratch: &mut [Complex<T>],
) {
    if n <= cutoff || n == 1 {
        // Gather the strided sub-sequence and solve breadth-first.
        for (i, o) in output.iter_mut().enumerate().take(n) {
            *o = input[i * stride];
        }
        if n > 1 {
            let stages = plan_stages(n).expect("power of two is smooth");
            let sub_tw = TwiddleTable::new(n, dir);
            fft_stockham(&mut output[..n], &mut scratch[..n], &stages, dir, &sub_tw);
        }
        return;
    }
    let half = n / 2;
    {
        let (even_out, odd_out) = output.split_at_mut(half);
        hybrid_rec(input, stride * 2, even_out, dir, tw, half, cutoff, scratch);
        hybrid_rec(
            &input[stride..],
            stride * 2,
            odd_out,
            dir,
            tw,
            half,
            cutoff,
            scratch,
        );
    }
    let step = tw.len() / n;
    for k in 0..half {
        let t = output[half + k] * tw.get(step * k);
        let e = output[k];
        output[k] = e + t;
        output[half + k] = e - t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, max_error};
    use crate::Complex64;

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((2.0 * i as f64).sin(), (0.5 * i as f64).cos()))
            .collect()
    }

    #[test]
    fn recursive_matches_naive() {
        for n in [1usize, 2, 8, 64, 256] {
            let x = sample(n);
            let mut out = vec![Complex64::zero(); n];
            let tw = TwiddleTable::new(n, FftDirection::Forward);
            fft_recursive(&x, &mut out, FftDirection::Forward, &tw);
            let want = dft(&x, FftDirection::Forward);
            assert!(max_error(&out, &want) < 1e-9 * n.max(1) as f64, "n={n}");
        }
    }

    #[test]
    fn recursive_inverse_matches_naive() {
        let n = 128;
        let x = sample(n);
        let mut out = vec![Complex64::zero(); n];
        let tw = TwiddleTable::new(n, FftDirection::Inverse);
        fft_recursive(&x, &mut out, FftDirection::Inverse, &tw);
        let want = dft(&x, FftDirection::Inverse);
        assert!(max_error(&out, &want) < 1e-9 * n as f64);
    }

    #[test]
    fn hybrid_matches_recursive_for_all_cutoffs() {
        let n = 256;
        let x = sample(n);
        let tw = TwiddleTable::new(n, FftDirection::Forward);
        let mut reference = vec![Complex64::zero(); n];
        fft_recursive(&x, &mut reference, FftDirection::Forward, &tw);
        for cutoff in [1usize, 2, 16, 64, 256, 1024] {
            let mut out = vec![Complex64::zero(); n];
            fft_hybrid(&x, &mut out, FftDirection::Forward, &tw, cutoff);
            assert!(max_error(&out, &reference) < 1e-10, "cutoff={cutoff}");
        }
    }
}
