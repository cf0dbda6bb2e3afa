//! Distribution regimes: the unit of covariate/label shift.
//!
//! A [`Regime`] describes the data-generating condition of one party in one
//! window: an optional covariate corruption or transform, and an optional
//! label distribution. Two parties in the same regime experience the same
//! kind of shift — the recurring-regime structure ShiftEx's latent memory
//! exploits.

use rand::Rng;

use crate::corruption::Corruption;
use crate::dataset::Dataset;
use crate::transform::Transform;

/// Opaque regime identifier, used by shift schedules and expert bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegimeId(pub u32);

impl std::fmt::Display for RegimeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regime#{}", self.0)
    }
}

/// The covariate component of a regime.
#[derive(Debug, Clone, PartialEq)]
pub enum CovariateSpec {
    /// Clean inputs.
    Clear,
    /// Corruption at a fixed severity.
    Corrupted(Corruption, u8),
    /// A chain of geometric/photometric transforms.
    Transformed(Vec<Transform>),
}

/// A data-generating condition: covariate spec + optional label distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Regime {
    /// Identifier (stable across windows for recurring regimes).
    pub id: RegimeId,
    /// Covariate condition.
    pub covariate: CovariateSpec,
    /// Optional class-probability vector (label shift); `None` = uniform.
    pub label_dist: Option<Vec<f32>>,
}

impl Regime {
    /// Clean regime with uniform labels.
    pub fn clear() -> Self {
        Self {
            id: RegimeId(0),
            covariate: CovariateSpec::Clear,
            label_dist: None,
        }
    }

    /// Corruption regime with uniform labels.
    pub fn corrupted(corruption: Corruption, severity: u8) -> Self {
        Self {
            id: RegimeId(1),
            covariate: CovariateSpec::Corrupted(corruption, severity),
            label_dist: None,
        }
    }

    /// Transform-chain regime with uniform labels.
    pub fn transformed(transforms: Vec<Transform>) -> Self {
        Self {
            id: RegimeId(1),
            covariate: CovariateSpec::Transformed(transforms),
            label_dist: None,
        }
    }

    /// Returns a copy with the given id.
    pub fn with_id(mut self, id: RegimeId) -> Self {
        self.id = id;
        self
    }

    /// Returns a copy with the given label distribution.
    ///
    /// # Panics
    ///
    /// Panics if `dist` is empty or has non-positive mass.
    pub fn with_label_dist(mut self, dist: Vec<f32>) -> Self {
        assert!(!dist.is_empty(), "label distribution must be non-empty");
        assert!(
            dist.iter().sum::<f32>() > 0.0,
            "label distribution needs positive mass"
        );
        self.label_dist = Some(dist);
        self
    }

    /// Class weights for sampling, or `None` for uniform.
    ///
    /// # Panics
    ///
    /// Panics if a stored distribution's length disagrees with `num_classes`.
    pub fn label_weights(&self, num_classes: usize) -> Option<Vec<f32>> {
        self.label_dist.as_ref().map(|d| {
            assert_eq!(d.len(), num_classes, "label distribution length mismatch");
            d.clone()
        })
    }

    /// `true` if this regime perturbs the input distribution.
    pub fn has_covariate_shift(&self) -> bool {
        !matches!(self.covariate, CovariateSpec::Clear)
    }

    /// Applies the covariate component to every sample of `ds` in place.
    pub fn apply_covariate(&self, ds: &mut Dataset, rng: &mut impl Rng) {
        let shape = ds.shape();
        match &self.covariate {
            CovariateSpec::Clear => {}
            CovariateSpec::Corrupted(corruption, severity) => {
                let features = ds.features_mut();
                for r in 0..features.rows() {
                    corruption.apply(features.row_mut(r), shape, *severity, rng);
                }
            }
            CovariateSpec::Transformed(transforms) => {
                let features = ds.features_mut();
                for r in 0..features.rows() {
                    for t in transforms {
                        t.apply(features.row_mut(r), shape, rng);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ImageShape;
    use crate::synth::PrototypeGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clear_regime_leaves_data_unchanged() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 2, &mut rng);
        let ds = g.generate_uniform(8, &mut rng);
        let mut ds2 = ds.clone();
        Regime::clear().apply_covariate(&mut ds2, &mut rng);
        assert_eq!(ds.features(), ds2.features());
    }

    #[test]
    fn corrupted_regime_changes_features_not_labels() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 2, &mut rng);
        let ds = g.generate_uniform(8, &mut rng);
        let mut ds2 = ds.clone();
        Regime::corrupted(Corruption::Fog, 3).apply_covariate(&mut ds2, &mut rng);
        assert_ne!(ds.features(), ds2.features());
        assert_eq!(ds.labels(), ds2.labels());
    }

    #[test]
    fn label_dist_biases_generation() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
        let regime = Regime::clear().with_label_dist(vec![1.0, 0.0, 0.0]);
        let ds = g.generate_with_regime(50, &regime, &mut rng);
        assert!(ds.labels().iter().all(|&l| l == 0));
    }

    #[test]
    fn has_covariate_shift_flags() {
        assert!(!Regime::clear().has_covariate_shift());
        assert!(Regime::corrupted(Corruption::Fog, 1).has_covariate_shift());
    }
}
