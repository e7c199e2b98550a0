//! Data-reordering primitives: the 2D transpose and the 3D axis rotation
//! that form the communication-intensive phase of the paper's
//! multidimensional FFT (Section VI-B), and the exact-power test
//! `xmt-fft`'s planner applies to a forced radix.

/// `log_r(n)` if `n` is an exact power of `r`, else `None`.
pub fn exact_log(n: usize, r: usize) -> Option<u32> {
    if n == 0 || r < 2 {
        return None;
    }
    let mut v = n;
    let mut k = 0;
    while v > 1 {
        if !v.is_multiple_of(r) {
            return None;
        }
        v /= r;
        k += 1;
    }
    Some(k)
}

/// Out-of-place transpose of a `rows × cols` row-major matrix into
/// `dst` (which becomes `cols × rows`).
pub fn transpose_into<T: Copy>(src: &[T], rows: usize, cols: usize, dst: &mut [T]) {
    assert_eq!(src.len(), rows * cols, "src shape mismatch");
    assert_eq!(dst.len(), rows * cols, "dst shape mismatch");
    // Blocked to keep both src row and dst row lines live in cache.
    const B: usize = 32;
    for ib in (0..rows).step_by(B) {
        for jb in (0..cols).step_by(B) {
            for i in ib..(ib + B).min(rows) {
                for j in jb..(jb + B).min(cols) {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
        }
    }
}

/// Rotate the axes of a row-major 3D array so the old axis order
/// `(d0, d1, d2)` (d2 contiguous) becomes `(d1, d2, d0)`.
///
/// Element `src[i0][i1][i2]` moves to `dst[i1][i2][i0]`. Applying this
/// three times returns to the original layout, which is how the paper's
/// 3D FFT applies the same contiguous row-FFT kernel to each dimension
/// in turn (footnote 2: for 2D this degenerates to a transpose).
pub fn rotate3d_into<T: Copy>(src: &[T], (d0, d1, d2): (usize, usize, usize), dst: &mut [T]) {
    assert_eq!(src.len(), d0 * d1 * d2, "src shape mismatch");
    assert_eq!(dst.len(), d0 * d1 * d2, "dst shape mismatch");
    for i0 in 0..d0 {
        for i1 in 0..d1 {
            let srow = &src[(i0 * d1 + i1) * d2..][..d2];
            for (i2, &v) in srow.iter().enumerate() {
                dst[(i1 * d2 + i2) * d0 + i0] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_log_works() {
        assert_eq!(exact_log(512, 8), Some(3));
        assert_eq!(exact_log(64, 4), Some(3));
        assert_eq!(exact_log(1, 8), Some(0));
        assert_eq!(exact_log(24, 2), None);
        assert_eq!(exact_log(0, 2), None);
        assert_eq!(exact_log(8, 1), None);
    }

    #[test]
    fn transpose_rectangular() {
        // 2x3 -> 3x2
        let src = [1, 2, 3, 4, 5, 6];
        let mut dst = [0; 6];
        transpose_into(&src, 2, 3, &mut dst);
        assert_eq!(dst, [1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn rotate3d_three_times_is_identity() {
        let (d0, d1, d2) = (3usize, 4usize, 5usize);
        let src: Vec<usize> = (0..d0 * d1 * d2).collect();
        let mut a = vec![0; src.len()];
        let mut b = vec![0; src.len()];
        let mut c = vec![0; src.len()];
        rotate3d_into(&src, (d0, d1, d2), &mut a);
        rotate3d_into(&a, (d1, d2, d0), &mut b);
        rotate3d_into(&b, (d2, d0, d1), &mut c);
        assert_eq!(c, src);
    }

    #[test]
    fn rotate3d_element_mapping() {
        let (d0, d1, d2) = (2usize, 3usize, 4usize);
        let src: Vec<usize> = (0..d0 * d1 * d2).collect();
        let mut dst = vec![0; src.len()];
        rotate3d_into(&src, (d0, d1, d2), &mut dst);
        for i0 in 0..d0 {
            for i1 in 0..d1 {
                for i2 in 0..d2 {
                    assert_eq!(dst[(i1 * d2 + i2) * d0 + i0], src[(i0 * d1 + i1) * d2 + i2]);
                }
            }
        }
    }

    #[test]
    fn rotate2d_is_transpose() {
        // With d0 = rows, d1 = cols, d2 = 1, rotation == transpose.
        let (r, c) = (3usize, 5usize);
        let src: Vec<usize> = (0..r * c).collect();
        let mut rot = vec![0; src.len()];
        let mut tr = vec![0; src.len()];
        rotate3d_into(&src, (r, c, 1), &mut rot);
        transpose_into(&src, r, c, &mut tr);
        assert_eq!(rot, tr);
    }
}
