//! Floating-point operation accounting conventions.
//!
//! The paper reports FLOPS "based on the standard rule of 5N·log₂N
//! floating-point operations for an FFT of N elements" (Section VI),
//! *except* in the Roofline analysis, which uses actual operation
//! counts. The convention lives here so every crate agrees on it; the
//! actual counts are `xmt_fft::phases`', built on
//! [`codelet_flops`](crate::codelets::codelet_flops).

/// The 5N·log₂N convention for an N-point complex FFT.
///
/// This is the community-standard normalization (used by FFTW's
/// benchmarks and the MPI work the paper compares against); it slightly
/// overstates the *actual* work of higher-radix algorithms.
pub fn fft_flops_convention(n: u64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    5.0 * n as f64 * (n as f64).log2()
}

/// The 5N·log₂N convention for a multidimensional FFT of total size
/// `n_total = Π dims`: each axis pass of length `d` over `n_total/d`
/// rows costs `(n_total/d)·5d·log₂d`, which sums to `5·n_total·log₂(n_total)`.
pub fn fft_flops_convention_nd(dims: &[u64]) -> f64 {
    let n_total: u64 = dims.iter().product();
    fft_flops_convention(n_total)
}

/// GFLOPS given a flop count and elapsed seconds.
pub fn gflops(flops: f64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    flops / seconds / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convention_matches_formula() {
        assert_eq!(fft_flops_convention(1024), 5.0 * 1024.0 * 10.0);
        assert_eq!(fft_flops_convention(1), 0.0);
        assert_eq!(fft_flops_convention(0), 0.0);
    }

    #[test]
    fn nd_convention_composes() {
        // 512^3 cube: 5·N·log2(N) with N = 2^27.
        let dims = [512u64, 512, 512];
        let n = 512u64 * 512 * 512;
        assert!((fft_flops_convention_nd(&dims) - 5.0 * n as f64 * 27.0).abs() < 1.0);
    }

    #[test]
    fn paper_headline_flop_count() {
        // The paper's 512³ FFT: 5·2^27·27 ≈ 18.1 GFLOP.
        let f = fft_flops_convention_nd(&[512, 512, 512]);
        assert!((f / 1e9 - 18.12) < 0.1);
    }

    #[test]
    fn gflops_helpers() {
        assert_eq!(gflops(2e9, 1.0), 2.0);
        assert_eq!(gflops(1.0, 0.0), 0.0);
    }
}
