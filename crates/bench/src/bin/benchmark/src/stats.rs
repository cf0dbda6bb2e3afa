//! Order statistics for timing samples: medians and tail percentiles, with
//! the "at least ten samples beyond it" admissibility rule for tails.

/// Median of `values` (mean of the two middle elements for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample — a timing series with neither
/// rounds nor finite clocks is a bug in the caller.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation between
/// closest ranks — the same estimator as numpy's default, so numbers can be
/// cross-checked outside the benchmark.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Samples strictly beyond the `p`-th percentile in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    (n as f64 * (100.0 - p) / 100.0).floor() as usize
}

/// The highest of p99 / p95 / p90 that still has at least ten samples beyond
/// it, or `None` when even p90 does not (fewer than 100 samples): a tail
/// read off fewer points is one outlier, not a percentile.
pub fn highest_admissible_tail(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert!((percentile(&[10.0, 20.0], 25.0) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_admissible_tail(99), None);
        assert_eq!(highest_admissible_tail(100), Some(90.0));
        assert_eq!(highest_admissible_tail(199), Some(90.0));
        assert_eq!(highest_admissible_tail(200), Some(95.0));
        assert_eq!(highest_admissible_tail(1000), Some(99.0));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_samples_are_rejected() {
        let _ = median(&[]);
    }
}
