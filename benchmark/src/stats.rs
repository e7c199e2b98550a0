//! Order statistics over small samples.

/// The `q`-quantile of `sorted` (ascending) by the exclusive method:
/// position `q·(n+1)` with linear interpolation, clamped to the data
/// range. For the quartiles of three or more values this is the number
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance rule for the benchmark is written in.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - j as f64;
    let v = sorted[j - 1] + frac * (sorted[j] - sorted[j - 1]);
    v.clamp(sorted[0], sorted[n - 1])
}

/// Ascending copy of `values` (NaN-free by construction: every sample
/// is a measured duration or a count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Lower quartile, median and upper quartile of `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run spread the benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn quantile_never_leaves_the_data_range() {
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.99), 2.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
