//! Bootstrap threshold calibration (§5 of the paper).
//!
//! "The thresholds δ_cov and δ_label are derived during the bootstrap phase
//! from the null distributions of MMD and JSD scores. δ_cov is set via
//! p-value estimation from bootstrapped client feature representations
//! assuming no shift, while δ_label is based on JSD statistics between
//! predicted and prior label distributions under stable conditions."

use rand::Rng;
use serde::{Deserialize, Serialize};
use shiftex_tensor::{rngx, stats, Matrix};

use crate::divergence::jsd;
use crate::kernel::RbfKernel;
use crate::mmd::{mmd2_biased, mmd2_unbiased};

/// Calibrated detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibratedThresholds {
    /// Covariate-shift threshold on MMD².
    pub delta_cov: f32,
    /// Label-shift threshold on JSD (nats).
    pub delta_label: f32,
}

/// Bootstrap calibrator: estimates null distributions under "no shift" and
/// places thresholds at the `1 − p_value` quantile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdCalibrator {
    /// Significance level (probability of a false shift alarm per test).
    pub p_value: f32,
    /// Number of bootstrap resamples.
    pub iterations: usize,
    /// Rows per split when bootstrapping MMD.
    pub split_size: usize,
}

impl Default for ThresholdCalibrator {
    fn default() -> Self {
        Self {
            p_value: 0.05,
            iterations: 100,
            split_size: 32,
        }
    }
}

impl ThresholdCalibrator {
    /// Creates a calibrator.
    ///
    /// # Panics
    ///
    /// Panics if `p_value ∉ (0, 1)` or `iterations == 0`.
    pub fn new(p_value: f32, iterations: usize, split_size: usize) -> Self {
        assert!(p_value > 0.0 && p_value < 1.0, "p_value must be in (0,1)");
        assert!(iterations > 0, "need at least one bootstrap iteration");
        assert!(split_size >= 2, "split_size must be >= 2");
        Self {
            p_value,
            iterations,
            split_size,
        }
    }

    /// Calibrates `δ_cov` from stable-period embeddings, returning the
    /// threshold **and the kernel it is valid for**.
    ///
    /// Repeatedly splits the pooled no-shift embeddings into two random
    /// halves and records the MMD² between them; since both halves come from
    /// the same distribution, these scores sample the null. The threshold is
    /// the `1 − p` quantile.
    ///
    /// The kernel bandwidth is fixed once here (median heuristic over the
    /// stable pool) and must be reused for every subsequent detection: MMD
    /// scores under different bandwidths are not comparable, and re-running
    /// the median heuristic on *shifted* pairs adaptively normalises the
    /// very shift being measured.
    ///
    /// # Panics
    ///
    /// Panics if `embeddings` has fewer than 4 rows.
    pub fn calibrate_cov(&self, embeddings: &Matrix, rng: &mut impl Rng) -> (f32, RbfKernel) {
        assert!(embeddings.rows() >= 4, "need >= 4 embeddings to calibrate");
        let n = embeddings.rows();
        let half = self.split_size.min(n / 2).max(2);
        let kernel = RbfKernel::median_heuristic(embeddings, embeddings);
        let mut nulls = Vec::with_capacity(self.iterations);
        for _ in 0..self.iterations {
            let idx = rngx::sample_without_replacement(rng, n, 2 * half);
            let a = embeddings.select_rows(&idx[..half]);
            let b = embeddings.select_rows(&idx[half..]);
            nulls.push(mmd2_biased(&a, &b, &kernel));
        }
        (stats::quantile(&nulls, 1.0 - self.p_value), kernel)
    }

    /// Calibrates `δ_label` from stable-period label histograms.
    ///
    /// For each bootstrap iteration a party histogram is chosen and a fresh
    /// multinomial sample of `count` draws is taken from it; the JSD between
    /// the histogram and its resample estimates the no-shift JSD noise floor.
    ///
    /// # Panics
    ///
    /// Panics if `histograms` is empty or `count == 0`.
    fn calibrate_label(&self, histograms: &[Vec<f32>], count: usize, rng: &mut impl Rng) -> f32 {
        assert!(!histograms.is_empty(), "need at least one histogram");
        assert!(count > 0, "resample count must be positive");
        let mut nulls = Vec::with_capacity(self.iterations);
        for _ in 0..self.iterations {
            let h = &histograms[rng.random_range(0..histograms.len())];
            let resampled = multinomial_histogram(h, count, rng);
            nulls.push(jsd(h, &resampled));
        }
        stats::quantile(&nulls, 1.0 - self.p_value)
    }

    /// Calibrates both thresholds from per-party stable-window statistics —
    /// the decision the aggregator runs at its first window boundary.
    ///
    /// `embeddings` holds one matrix per party (frozen-encoder embeddings of
    /// its previous window, already capped to the profile size by the
    /// caller) and `histograms` the matching label histograms. One kernel
    /// is fitted by the median heuristic over the pooled rows and shared by
    /// every score. The `δ_cov` null is *within* party: each party with at
    /// least four rows is split into random halves up to 20 times
    /// (`min(iterations, 20)`) and scored with [`mmd2_unbiased`]; the
    /// threshold is the `1 − p` quantile. Pooling the null *across* parties
    /// (as [`calibrate_cov`](Self::calibrate_cov) does) would confound it
    /// with cross-party heterogeneity (different label mixes), inflating
    /// `δ_cov` and masking real shifts. `δ_label` is the `1 − p` quantile of
    /// the JSD between a randomly chosen histogram and a `label_count`-draw
    /// multinomial resample of it, over `iterations` draws.
    ///
    /// With no embeddings at all (no stable window to learn from) nothing
    /// is drawn from `rng` and the permissive defaults `δ_cov = 0.05`,
    /// `δ_label = 0.1` come back without a kernel; `δ_cov` also falls back
    /// to `0.05` when no party has four rows.
    ///
    /// # Panics
    ///
    /// Panics if `embeddings` is non-empty and `histograms` is empty or
    /// `label_count == 0`.
    pub fn calibrate_per_party(
        &self,
        embeddings: &[Matrix],
        histograms: &[Vec<f32>],
        label_count: usize,
        rng: &mut impl Rng,
    ) -> (CalibratedThresholds, Option<RbfKernel>) {
        if embeddings.is_empty() {
            let fallback = CalibratedThresholds {
                delta_cov: 0.05,
                delta_label: 0.1,
            };
            return (fallback, None);
        }
        let refs: Vec<&Matrix> = embeddings.iter().collect();
        let pooled = Matrix::vstack(&refs);
        let kernel = RbfKernel::median_heuristic(&pooled, &pooled);
        let mut nulls = Vec::new();
        for m in embeddings.iter().filter(|m| m.rows() >= 4) {
            let half = m.rows() / 2;
            for _ in 0..self.iterations.min(20) {
                let idx = rngx::sample_without_replacement(rng, m.rows(), 2 * half);
                let a = m.select_rows(&idx[..half]);
                let b = m.select_rows(&idx[half..]);
                nulls.push(mmd2_unbiased(&a, &b, &kernel));
            }
        }
        let delta_cov = if nulls.is_empty() {
            0.05
        } else {
            stats::quantile(&nulls, 1.0 - self.p_value)
        };
        let delta_label = self.calibrate_label(histograms, label_count, rng);
        let thresholds = CalibratedThresholds {
            delta_cov,
            delta_label,
        };
        (thresholds, Some(kernel))
    }
}

/// Draws `count` samples from the categorical distribution `probs` and
/// returns the normalised empirical histogram.
fn multinomial_histogram(probs: &[f32], count: usize, rng: &mut impl Rng) -> Vec<f32> {
    let mut counts = vec![0usize; probs.len()];
    for _ in 0..count {
        counts[rngx::categorical(rng, probs)] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f32 / count as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cov_threshold_separates_null_from_shift() {
        let mut rng = StdRng::seed_from_u64(0);
        let stable = Matrix::randn(128, 6, 0.0, 1.0, &mut rng);
        let cal = ThresholdCalibrator::default();
        let (delta, kernel) = cal.calibrate_cov(&stable, &mut rng);
        assert!(delta > 0.0);

        // A genuinely shifted sample must exceed the threshold.
        let shifted = Matrix::randn(64, 6, 3.0, 1.0, &mut rng);
        let score = mmd2_biased(&stable, &shifted, &kernel);
        assert!(score > delta, "shift score {score} <= threshold {delta}");

        // A same-distribution sample should usually stay below it.
        let same = Matrix::randn(64, 6, 0.0, 1.0, &mut rng);
        let score_same = mmd2_biased(
            &stable.select_rows(&(0..64).collect::<Vec<_>>()),
            &same,
            &kernel,
        );
        assert!(
            score_same < delta * 4.0,
            "null score {score_same} wildly exceeds threshold {delta}"
        );
    }

    #[test]
    fn label_threshold_separates_stable_from_shifted() {
        let mut rng = StdRng::seed_from_u64(1);
        let stable_hists = vec![vec![0.25; 4], vec![0.3, 0.2, 0.3, 0.2]];
        let cal = ThresholdCalibrator::default();
        let delta = cal.calibrate_label(&stable_hists, 100, &mut rng);
        assert!(delta > 0.0 && delta < crate::divergence::jsd_max());

        // A hard label shift must exceed the threshold.
        let shifted = vec![0.85, 0.05, 0.05, 0.05];
        assert!(jsd(&stable_hists[0], &shifted) > delta);
    }

    #[test]
    fn smaller_p_value_gives_larger_threshold() {
        let mut rng1 = StdRng::seed_from_u64(2);
        let mut rng2 = StdRng::seed_from_u64(2);
        let stable = Matrix::randn(128, 4, 0.0, 1.0, &mut StdRng::seed_from_u64(3));
        let (strict, _) = ThresholdCalibrator::new(0.01, 200, 32).calibrate_cov(&stable, &mut rng1);
        let (loose, _) = ThresholdCalibrator::new(0.25, 200, 32).calibrate_cov(&stable, &mut rng2);
        assert!(strict >= loose, "strict {strict} < loose {loose}");
    }

    #[test]
    fn per_party_null_ignores_cross_party_heterogeneity() {
        // Two parties far apart in embedding space: the within-party null
        // stays small where the pooled null would span the gap.
        let mut rng = StdRng::seed_from_u64(4);
        let parties = [
            Matrix::randn(32, 6, 0.0, 1.0, &mut rng),
            Matrix::randn(32, 6, 4.0, 1.0, &mut rng),
        ];
        let hists = vec![vec![0.25; 4], vec![0.4, 0.2, 0.2, 0.2]];
        let cal = ThresholdCalibrator::new(0.05, 40, 32);
        let (t, kernel) = cal.calibrate_per_party(&parties, &hists, 100, &mut rng);
        let kernel = kernel.expect("a kernel is fitted whenever embeddings exist");
        assert!(t.delta_cov < mmd2_unbiased(&parties[0], &parties[1], &kernel));
        assert!(t.delta_label > 0.0);
    }

    #[test]
    fn per_party_fallbacks_draw_nothing_without_embeddings() {
        let cal = ThresholdCalibrator::new(0.05, 40, 32);
        let mut rng = StdRng::seed_from_u64(5);
        let (t, kernel) = cal.calibrate_per_party(&[], &[], 0, &mut rng);
        assert_eq!((t.delta_cov, t.delta_label, kernel), (0.05, 0.1, None));
        assert_eq!(rng, StdRng::seed_from_u64(5), "no draw without embeddings");
        // Too few rows for a split-half: δ_cov falls back, δ_label does not.
        let tiny = [Matrix::randn(3, 4, 0.0, 1.0, &mut rng)];
        let (t, kernel) = cal.calibrate_per_party(&tiny, &[vec![0.5, 0.5]], 50, &mut rng);
        assert_eq!(t.delta_cov, 0.05);
        assert!(kernel.is_some());
    }

    #[test]
    #[should_panic(expected = "p_value must be in (0,1)")]
    fn rejects_bad_p_value() {
        let _ = ThresholdCalibrator::new(0.0, 10, 8);
    }
}
