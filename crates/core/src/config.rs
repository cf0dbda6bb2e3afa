//! ShiftEx configuration.

use shiftex_nn::TrainConfig;

/// All tunables of the ShiftEx aggregator, with the paper's defaults.
///
/// Thresholds `δ_cov` / `δ_label` are usually left `None` and calibrated
/// from bootstrap-phase null distributions (§5); setting them explicitly
/// is the threshold-sensitivity ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftExConfig {
    /// Covariate-shift threshold on MMD²; `None` = calibrate at bootstrap.
    pub delta_cov: Option<f32>,
    /// Label-shift threshold on JSD; `None` = calibrate at bootstrap.
    pub delta_label: Option<f32>,
    /// Expert-consolidation cosine-similarity threshold τ (Algorithm 2).
    pub tau: f32,
    /// Latent-memory match tolerance ε: a cluster reuses expert *k* when
    /// `MMD(P̄_j, M(k)) ≤ ε · δ_cov` (relative to the calibrated threshold).
    /// Values above 1 trade expert reuse against sensitivity: sliding-window
    /// carryover makes half-shifted cohort profiles sit between regimes, and
    /// a loose ε wrongly sends them back to their old expert.
    pub epsilon_factor: f32,
    /// Minimum cluster size γ for federated treatment; smaller clusters
    /// fall back to local fine-tuning (Algorithm 2 line 29).
    pub gamma_min_cluster: usize,
    /// Hard cap on live experts (`U_max`-style capacity guard).
    pub max_experts: usize,
    /// EMA coefficient β for latent-memory updates.
    pub memory_beta: f32,
    /// Maximum clusters the aggregator will consider per window (k_max for
    /// Davies–Bouldin selection).
    pub max_clusters_per_window: usize,
    /// Rows retained per embedding profile (party → aggregator payload cap).
    pub profile_rows: usize,
    /// Cohort size per expert-training round.
    pub participants_per_round: usize,
    /// Local-training hyper-parameters for expert updates.
    pub train: TrainConfig,
    /// Epochs of local fine-tuning for sub-γ clusters.
    pub finetune_epochs: usize,
    /// Significance level for threshold calibration.
    pub calibration_p_value: f32,
    /// Disable the latent memory (ablation: every shift spawns an expert).
    pub disable_memory: bool,
    /// Disable consolidation (ablation: experts never merge).
    pub disable_consolidation: bool,
    /// Use uniform instead of FLIPS selection (ablation).
    pub uniform_selection: bool,
}

impl Default for ShiftExConfig {
    fn default() -> Self {
        Self {
            delta_cov: None,
            delta_label: None,
            tau: 0.995,
            epsilon_factor: 1.0,
            gamma_min_cluster: 2,
            max_experts: 8,
            memory_beta: 0.7,
            max_clusters_per_window: 4,
            profile_rows: 64,
            participants_per_round: 10,
            train: TrainConfig::default(),
            finetune_epochs: 2,
            calibration_p_value: 0.05,
            disable_memory: false,
            disable_consolidation: false,
            uniform_selection: false,
        }
    }
}

impl ShiftExConfig {
    /// Validates invariants; called by [`crate::ShiftEx::new`].
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.tau), "tau must be in [0,1]");
        assert!(self.epsilon_factor > 0.0, "epsilon_factor must be positive");
        assert!(
            self.max_experts >= 1,
            "need capacity for at least one expert"
        );
        assert!(
            (0.0..=1.0).contains(&self.memory_beta),
            "memory_beta must be in [0,1]"
        );
        assert!(
            self.max_clusters_per_window >= 1,
            "need at least one cluster"
        );
        assert!(self.profile_rows >= 2, "profiles need at least two rows");
        assert!(
            self.calibration_p_value > 0.0 && self.calibration_p_value < 1.0,
            "calibration p-value must be in (0,1)"
        );
        if let Some(d) = self.delta_cov {
            assert!(d > 0.0, "delta_cov must be positive");
        }
        if let Some(d) = self.delta_label {
            assert!(d > 0.0, "delta_label must be positive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ShiftExConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "tau must be in [0,1]")]
    fn rejects_bad_tau() {
        let cfg = ShiftExConfig {
            tau: 1.5,
            ..ShiftExConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "delta_cov must be positive")]
    fn rejects_bad_delta() {
        let cfg = ShiftExConfig {
            delta_cov: Some(-1.0),
            ..ShiftExConfig::default()
        };
        cfg.validate();
    }
}
