//! # parafft — serial and parallel FFTs in pure Rust
//!
//! This crate is the host-side FFT substrate of the *FFT on XMT*
//! reproduction. It plays two roles:
//!
//! 1. **Reference & baseline.** A complete, optimized FFT library —
//!    the stand-in for FFTW 3.3.4 in the paper's Table V baselines —
//!    with serial and rayon-parallel paths.
//! 2. **Algorithm source of truth.** The breadth-first, mixed-radix,
//!    decimation-in-frequency Stockham formulation in [`stockham`] is
//!    the exact stage structure the XMT kernels (crate `xmt-fft`)
//!    execute on the cycle simulator; the simulator's numeric output is
//!    validated against this crate.
//!
//! ## Quick start
//!
//! ```
//! use parafft::{Complex64, Fft, FftDirection};
//!
//! let n = 1024;
//! let mut signal: Vec<Complex64> = (0..n)
//!     .map(|i| Complex64::new((i as f64 * 0.1).sin(), 0.0))
//!     .collect();
//! let plan = Fft::new(n, FftDirection::Forward);
//! plan.process(&mut signal);
//! ```
//!
//! ## Layout
//!
//! * [`complex`] — `Complex<T>` and the `Float` scalar trait.
//! * [`twiddle`] — twiddle tables and the paper's replication scheme.
//! * [`codelets`] — fixed-size DFT butterflies (radix 2/4/8 + generic).
//! * [`stockham`] — the breadth-first mixed-radix engine (serial/parallel).
//! * [`radix2`] — classic in-place DIT/DIF drivers (ablations).
//! * [`recursive`] — depth-first cache-oblivious driver and the
//!   depth-first→breadth-first hybrid the paper suggests for large N.
//! * [`bluestein`] — arbitrary-size transforms.
//! * [`plan`] — the planner front end ([`Fft`], [`FftPlanner`]).
//! * [`nd`] — 2D/3D transforms by the rotation method.
//! * [`realfft`] — real-input transforms.
//! * [`flops`] — the 5N·log₂N accounting convention.

#![warn(missing_docs)]
#![allow(clippy::len_without_is_empty)]

pub mod bluestein;
pub mod codelets;
pub mod complex;
pub mod dft;
pub mod flops;
pub mod nd;
pub mod permute;
pub mod plan;
pub mod radix2;
pub mod realfft;
pub mod recursive;
pub mod stockham;
pub mod twiddle;

pub use complex::{Complex, Complex32, Complex64, Float};
pub use nd::{Fft2d, Fft3d, Granularity};
pub use plan::{fft, ifft, Algorithm, Fft, FftPlanner, Normalization};
pub use realfft::RealFft;
pub use twiddle::{ReplicatedTwiddles, TwiddleTable};

/// Transform direction. Forward uses the `e^{-i2πkn/N}` kernel of
/// Eq. (1) of the paper; inverse conjugates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FftDirection {
    /// Time → frequency.
    Forward,
    /// Frequency → time (unnormalized unless a plan normalization says
    /// otherwise).
    Inverse,
}

impl FftDirection {
    /// The opposite direction.
    pub fn reversed(self) -> Self {
        match self {
            FftDirection::Forward => FftDirection::Inverse,
            FftDirection::Inverse => FftDirection::Forward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_reversal() {
        assert_eq!(FftDirection::Forward.reversed(), FftDirection::Inverse);
        assert_eq!(FftDirection::Inverse.reversed(), FftDirection::Forward);
    }
}
