//! Descriptive statistics used by threshold calibration and reporting.

/// Summary of a scalar sample: mean, standard deviation and extremes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
    /// Minimum value.
    pub min: f32,
    /// Maximum value.
    pub max: f32,
    /// Number of observations.
    pub n: usize,
}

impl Summary {
    /// Computes a summary of `xs` (all-zero summary for empty input).
    pub fn of(xs: &[f32]) -> Self {
        if xs.is_empty() {
            return Self {
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let mean = crate::vector::mean(xs);
        let std = crate::vector::std_dev(xs);
        let min = xs.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        Self {
            mean,
            std,
            min,
            max,
            n: xs.len(),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} (min {:.4}, max {:.4}, n={})",
            self.mean, self.std, self.min, self.max, self.n
        )
    }
}

/// Empirical quantile with linear interpolation, `q ∈ [0, 1]`.
///
/// Uses `select_nth_unstable_by` (expected O(n)) instead of a full sort —
/// the median heuristic feeds this ~32k pairwise distances per detector
/// construction, where O(n log n) sorting dominated. Only the `lo`-th order
/// statistic is selected; the `hi` neighbour needed for interpolation is the
/// minimum of the partition's upper half.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f32], q: f32) -> f32 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let mut scratch: Vec<f32> = xs.to_vec();
    let pos = q * (scratch.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut lo_val, upper) = scratch.select_nth_unstable_by(lo, f32::total_cmp);
    if lo == hi {
        lo_val
    } else {
        let hi_val = upper
            .iter()
            .copied()
            .min_by(f32::total_cmp)
            .expect("hi > lo implies a non-empty upper partition");
        let frac = pos - lo as f32;
        lo_val * (1.0 - frac) + hi_val * frac
    }
}

/// Histogram of non-negative integer-valued labels into `bins` counts.
pub fn label_counts(labels: impl IntoIterator<Item = usize>, bins: usize) -> Vec<usize> {
    let mut counts = vec![0usize; bins];
    for l in labels {
        if l < bins {
            counts[l] += 1;
        }
    }
    counts
}

/// Normalised label histogram (`ŷ[i] = count_i / total`); uniform if empty.
pub fn label_histogram(labels: impl IntoIterator<Item = usize>, bins: usize) -> Vec<f32> {
    let counts = label_counts(labels, bins);
    let total: usize = counts.iter().sum();
    if total == 0 {
        return vec![1.0 / bins.max(1) as f32; bins];
    }
    counts
        .into_iter()
        .map(|c| c as f32 / total as f32)
        .collect()
}

/// Exponential moving average: `beta * prev + (1 - beta) * next`, elementwise.
///
/// # Panics
///
/// Panics if the slices have different lengths or `beta` is outside `[0, 1]`.
pub fn ema_update(prev: &[f32], next: &[f32], beta: f32) -> Vec<f32> {
    assert_eq!(prev.len(), next.len(), "ema length mismatch");
    assert!((0.0..=1.0).contains(&beta), "ema beta must be in [0,1]");
    prev.iter()
        .zip(next.iter())
        .map(|(&p, &n)| beta * p + (1.0 - beta) * n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.n, 4);
    }

    #[test]
    fn summary_of_empty_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn label_histogram_normalises() {
        let h = label_histogram([0, 0, 1, 2], 4);
        assert_eq!(h, vec![0.5, 0.25, 0.25, 0.0]);
    }

    #[test]
    fn label_histogram_empty_is_uniform() {
        let h = label_histogram(std::iter::empty(), 4);
        assert_eq!(h, vec![0.25; 4]);
    }

    #[test]
    fn ema_blends() {
        let out = ema_update(&[1.0, 0.0], &[0.0, 1.0], 0.9);
        assert!((out[0] - 0.9).abs() < 1e-6);
        assert!((out[1] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn label_counts_ignores_out_of_range() {
        let c = label_counts([0, 1, 9], 2);
        assert_eq!(c, vec![1, 1]);
    }
}
