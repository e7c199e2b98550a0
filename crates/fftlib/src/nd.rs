//! Multidimensional FFTs by the paper's rotation method (Section IV,
//! "Multidimensional FFT" and Section VI-B).
//!
//! A 2D/3D transform alternates two phases: (1) FFT every contiguous row
//! and (2) rotate the axes so the next dimension's data becomes the
//! contiguous rows. After `d` passes the layout returns to the original
//! orientation with every axis transformed. Phase (2) is pure data
//! movement — the communication-intensive phase that dominates the
//! Roofline analysis of Fig. 3.

use crate::complex::{Complex, Float};
use crate::plan::{Fft, FftPlanner};
use crate::FftDirection;
use rayon::prelude::*;
use std::sync::Arc;

/// Row-assignment granularity for parallel multidimensional transforms
/// (Section IV-A "Granularity of parallelism").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// One or more whole rows per task; each task runs a serial row FFT.
    /// This is the coarse-grained scheme of conventional platforms.
    #[default]
    Coarse,
    /// All rows advance stage-by-stage together (maximum available
    /// parallelism — the fine-grained scheme XMT favours). On the host
    /// this is realized as stage-synchronous batched rows.
    Fine,
}

/// 2D FFT plan over a `rows × cols` row-major array.
pub struct Fft2d<T> {
    rows: usize,
    cols: usize,
    direction: FftDirection,
    row_plan: Arc<Fft<T>>,
    col_plan: Arc<Fft<T>>,
}

impl<T: Float> Fft2d<T> {
    /// Construct a new instance.
    pub fn new(rows: usize, cols: usize, direction: FftDirection) -> Self {
        assert!(rows > 0 && cols > 0, "2D shape must be non-degenerate");
        let mut planner = FftPlanner::new();
        Self {
            rows,
            cols,
            direction,
            row_plan: planner.plan(cols, direction),
            col_plan: planner.plan(rows, direction),
        }
    }

    /// Transform direction.
    pub fn direction(&self) -> FftDirection {
        self.direction
    }

    /// Serial in-place 2D transform.
    pub fn process(&self, data: &mut [Complex<T>]) {
        self.run(data, false, Granularity::Coarse);
    }

    /// Parallel in-place 2D transform.
    pub fn process_par(&self, data: &mut [Complex<T>], granularity: Granularity) {
        self.run(data, true, granularity);
    }

    fn run(&self, data: &mut [Complex<T>], parallel: bool, granularity: Granularity) {
        assert_eq!(data.len(), self.rows * self.cols, "buffer shape mismatch");
        let mut rotated = vec![Complex::zero(); data.len()];
        // Pass 1: rows of length `cols`.
        fft_rows(data, self.cols, &self.row_plan, parallel, granularity);
        crate::permute::transpose_into(data, self.rows, self.cols, &mut rotated);
        // Pass 2: rows of length `rows` (the original columns).
        fft_rows(
            &mut rotated,
            self.rows,
            &self.col_plan,
            parallel,
            granularity,
        );
        crate::permute::transpose_into(&rotated, self.cols, self.rows, data);
    }
}

/// 3D FFT plan over a `(d0, d1, d2)` row-major array (`d2` contiguous).
pub struct Fft3d<T> {
    shape: (usize, usize, usize),
    direction: FftDirection,
    /// Row plans in application order: lengths `d2`, then `d0`, then `d1`
    /// (each rotation brings the next original axis into contiguous rows).
    plans: [Arc<Fft<T>>; 3],
}

impl<T: Float> Fft3d<T> {
    /// Construct a new instance.
    pub fn new(shape: (usize, usize, usize), direction: FftDirection) -> Self {
        let (d0, d1, d2) = shape;
        assert!(
            d0 > 0 && d1 > 0 && d2 > 0,
            "3D shape must be non-degenerate"
        );
        let mut planner = FftPlanner::new();
        Self {
            shape,
            direction,
            plans: [
                planner.plan(d2, direction),
                planner.plan(d0, direction),
                planner.plan(d1, direction),
            ],
        }
    }

    /// Cube constructor, the paper's 512×512×512 shape.
    pub fn cube(n: usize, direction: FftDirection) -> Self {
        Self::new((n, n, n), direction)
    }

    /// Transform direction.
    pub fn direction(&self) -> FftDirection {
        self.direction
    }

    /// Length/count of contained items.
    pub fn len(&self) -> usize {
        self.shape.0 * self.shape.1 * self.shape.2
    }

    /// Serial in-place 3D transform.
    pub fn process(&self, data: &mut [Complex<T>]) {
        self.run(data, false, Granularity::Coarse);
    }

    /// Parallel in-place 3D transform.
    pub fn process_par(&self, data: &mut [Complex<T>], granularity: Granularity) {
        self.run(data, true, granularity);
    }

    fn run(&self, data: &mut [Complex<T>], parallel: bool, granularity: Granularity) {
        assert_eq!(data.len(), self.len(), "buffer shape mismatch");
        let mut scratch = vec![Complex::zero(); data.len()];
        let (d0, d1, d2) = self.shape;
        // Shapes seen by the three passes as the axes rotate.
        let shapes = [(d0, d1, d2), (d1, d2, d0), (d2, d0, d1)];
        for (pass, &(s0, s1, s2)) in shapes.iter().enumerate() {
            fft_rows(data, s2, &self.plans[pass], parallel, granularity);
            crate::permute::rotate3d_into(data, (s0, s1, s2), &mut scratch);
            data.copy_from_slice(&scratch);
        }
    }
}

/// Apply `plan` to every contiguous `row_len` chunk of `data`.
fn fft_rows<T: Float>(
    data: &mut [Complex<T>],
    row_len: usize,
    plan: &Arc<Fft<T>>,
    parallel: bool,
    granularity: Granularity,
) {
    debug_assert_eq!(data.len() % row_len, 0);
    if !parallel {
        let mut scratch = vec![Complex::zero(); plan.scratch_len()];
        for row in data.chunks_exact_mut(row_len) {
            plan.process_with_scratch(row, &mut scratch);
        }
        return;
    }
    match granularity {
        Granularity::Coarse => {
            data.par_chunks_exact_mut(row_len).for_each_init(
                || vec![Complex::zero(); plan.scratch_len()],
                |scratch, row| plan.process_with_scratch(row, scratch),
            );
        }
        Granularity::Fine => {
            // Stage-synchronous: smaller work items (half-row batches)
            // give the scheduler the fine-grained supply of tasks the
            // paper's XMT mapping exploits; on the host this bounds
            // imbalance when rows ≫ threads is *not* satisfied.
            let batch = row_len.max(1);
            data.par_chunks_exact_mut(batch).for_each_init(
                || vec![Complex::zero(); plan.scratch_len()],
                |scratch, row| plan.process_with_scratch(row, scratch),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, max_error};
    use crate::{Complex64, FftDirection};

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
            .collect()
    }

    /// Reference 2D DFT: naive transform of rows then columns.
    fn dft2d(data: &[Complex64], rows: usize, cols: usize) -> Vec<Complex64> {
        let mut out = data.to_vec();
        for r in 0..rows {
            let row = dft(&out[r * cols..(r + 1) * cols], FftDirection::Forward);
            out[r * cols..(r + 1) * cols].copy_from_slice(&row);
        }
        for c in 0..cols {
            let col: Vec<Complex64> = (0..rows).map(|r| out[r * cols + c]).collect();
            let t = dft(&col, FftDirection::Forward);
            for r in 0..rows {
                out[r * cols + c] = t[r];
            }
        }
        out
    }

    #[test]
    fn fft2d_matches_naive() {
        for (r, c) in [(4usize, 8usize), (8, 8), (6, 10), (16, 4)] {
            let x = sample(r * c);
            let mut got = x.clone();
            Fft2d::new(r, c, FftDirection::Forward).process(&mut got);
            let want = dft2d(&x, r, c);
            assert!(max_error(&got, &want) < 1e-8 * (r * c) as f64, "{r}x{c}");
        }
    }

    #[test]
    fn fft2d_parallel_matches_serial() {
        let (r, c) = (32usize, 64usize);
        let x = sample(r * c);
        let plan = Fft2d::new(r, c, FftDirection::Forward);
        let mut a = x.clone();
        let mut b = x.clone();
        let mut d = x.clone();
        plan.process(&mut a);
        plan.process_par(&mut b, Granularity::Coarse);
        plan.process_par(&mut d, Granularity::Fine);
        assert!(max_error(&a, &b) < 1e-12);
        assert!(max_error(&a, &d) < 1e-12);
    }

    /// Reference 3D DFT by transforming each axis naively.
    fn dft3d(data: &[Complex64], (d0, d1, d2): (usize, usize, usize)) -> Vec<Complex64> {
        let mut out = data.to_vec();
        // axis 2
        for i0 in 0..d0 {
            for i1 in 0..d1 {
                let base = (i0 * d1 + i1) * d2;
                let row = dft(&out[base..base + d2], FftDirection::Forward);
                out[base..base + d2].copy_from_slice(&row);
            }
        }
        // axis 1
        for i0 in 0..d0 {
            for i2 in 0..d2 {
                let col: Vec<Complex64> = (0..d1).map(|i1| out[(i0 * d1 + i1) * d2 + i2]).collect();
                let t = dft(&col, FftDirection::Forward);
                for i1 in 0..d1 {
                    out[(i0 * d1 + i1) * d2 + i2] = t[i1];
                }
            }
        }
        // axis 0
        for i1 in 0..d1 {
            for i2 in 0..d2 {
                let col: Vec<Complex64> = (0..d0).map(|i0| out[(i0 * d1 + i1) * d2 + i2]).collect();
                let t = dft(&col, FftDirection::Forward);
                for i0 in 0..d0 {
                    out[(i0 * d1 + i1) * d2 + i2] = t[i0];
                }
            }
        }
        out
    }

    #[test]
    fn fft3d_matches_naive_cube() {
        let n = 8;
        let x = sample(n * n * n);
        let mut got = x.clone();
        Fft3d::cube(n, FftDirection::Forward).process(&mut got);
        let want = dft3d(&x, (n, n, n));
        assert!(max_error(&got, &want) < 1e-8 * (n * n * n) as f64);
    }

    #[test]
    fn fft3d_matches_naive_rectangular() {
        let shape = (4usize, 6usize, 8usize);
        let x = sample(shape.0 * shape.1 * shape.2);
        let mut got = x.clone();
        Fft3d::new(shape, FftDirection::Forward).process(&mut got);
        let want = dft3d(&x, shape);
        assert!(max_error(&got, &want) < 1e-8 * x.len() as f64);
    }

    #[test]
    fn fft3d_parallel_matches_serial() {
        let shape = (8usize, 16usize, 32usize);
        let x = sample(shape.0 * shape.1 * shape.2);
        let plan = Fft3d::new(shape, FftDirection::Forward);
        let mut a = x.clone();
        let mut b = x.clone();
        plan.process(&mut a);
        plan.process_par(&mut b, Granularity::Fine);
        assert!(max_error(&a, &b) < 1e-12);
    }

    #[test]
    fn fft3d_roundtrip() {
        let n = 8;
        let x = sample(n * n * n);
        let mut v = x.clone();
        Fft3d::cube(n, FftDirection::Forward).process(&mut v);
        Fft3d::cube(n, FftDirection::Inverse).process(&mut v);
        let scale = 1.0 / (n * n * n) as f64;
        for e in &mut v {
            *e = e.scale(scale);
        }
        assert!(max_error(&x, &v) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_buffer_shape_panics() {
        let plan = Fft2d::<f64>::new(4, 4, FftDirection::Forward);
        let mut v = vec![Complex64::zero(); 8];
        plan.process(&mut v);
    }
}
