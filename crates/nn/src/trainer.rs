//! Local-training entry point used by the federated runtime.
//!
//! A party receives global parameters, trains on its private window data and
//! returns updated parameters — this module packages that step so the FL
//! crate never touches layer internals.

use rand::Rng;
use shiftex_tensor::Matrix;

use crate::arch::ArchSpec;
use crate::model::Sequential;

/// Hyper-parameters for one local training call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the local data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// FedProx proximal coefficient μ; `None` gives plain FedAvg local SGD.
    pub prox_mu: Option<f32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 2,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            prox_mu: None,
        }
    }
}

/// Result of [`train_local_params`].
#[derive(Debug, Clone, PartialEq)]
pub struct LocalFitReport {
    /// Updated flattened parameters.
    pub params: Vec<f32>,
    /// Mean training loss of the final epoch.
    pub final_loss: f32,
    /// Number of training samples used.
    pub num_samples: usize,
}

/// Trains a model that starts from `global_params` on `(x, labels)` and
/// returns the updated flat parameters.
///
/// This is the party-side work of one federated round. The model is
/// reconstructed from `spec` each call, which keeps the federated runtime
/// stateless with respect to layer internals.
///
/// # Panics
///
/// Panics if `global_params` does not match the architecture's parameter
/// count, or labels mismatch `x`.
pub fn train_local_params(
    spec: &ArchSpec,
    global_params: &[f32],
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    rng: &mut impl Rng,
) -> LocalFitReport {
    // Not `Sequential::from_params`: the initialisation draws of `build`
    // come off the party's seeded stream *before* the shuffle draws of
    // `train`, so every conformance golden pins them. The draws are taken
    // and their values dropped; no initialised model is built.
    let mut model = Sequential::from_params_after_init_draws(spec, global_params, rng);
    let report = model.train(x, labels, cfg, rng);
    LocalFitReport {
        params: model.params_flat(),
        final_loss: report.final_loss,
        num_samples: x.rows(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn local_training_improves_loss() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = ArchSpec::mlp("t", 4, &[8], 2);
        let init = Sequential::build(&spec, &mut rng).params_flat();
        let mut labels = Vec::new();
        let x = Matrix::from_fn(40, 4, |i, j| {
            let c = i % 2;
            if j == 0 {
                labels.push(c);
            }
            // Alternating sign pattern per class (InstanceNorm-safe).
            if (j % 2 == 0) == (c == 0) {
                1.5
            } else {
                -1.5
            }
        });
        let cfg = TrainConfig {
            epochs: 20,
            lr: 0.1,
            ..TrainConfig::default()
        };
        let fit = train_local_params(&spec, &init, &x, &labels, &cfg, &mut rng);
        assert_eq!(fit.num_samples, 40);

        let mut trained = Sequential::build(&spec, &mut rng);
        trained.set_params_flat(&fit.params);
        let mut fresh = Sequential::build(&spec, &mut rng);
        fresh.set_params_flat(&init);
        assert!(trained.evaluate(&x, &labels).loss < fresh.evaluate(&x, &labels).loss);
    }

    /// Taking `build`'s draws without building leaves the parameters and
    /// the stream of `build` + `set_params_flat`, exactly.
    #[test]
    fn init_draws_without_a_model_match_build() {
        use crate::arch::InputShape;
        for spec in [
            ArchSpec::mlp("t", 12, &[9, 5], 4),
            ArchSpec::lenet5_lite(InputShape { c: 1, h: 8, w: 8 }, 10, 24),
            ArchSpec::resnet18_lite(InputShape { c: 3, h: 8, w: 8 }, 10, 24),
        ] {
            let mut rng = StdRng::seed_from_u64(30);
            let global = Sequential::build(&spec, &mut rng).params_flat();
            let x = Matrix::randn(19, spec.input.dim(), 0.0, 1.0, &mut rng);
            let labels: Vec<usize> = (0..19).map(|i| i % spec.classes).collect();
            let cfg = TrainConfig {
                batch_size: 8,
                prox_mu: Some(0.01),
                ..TrainConfig::default()
            };

            let (mut old_rng, mut new_rng) = (rng.clone(), rng);
            let mut model = Sequential::build(&spec, &mut old_rng);
            model.set_params_flat(&global);
            model.train(&x, &labels, &cfg, &mut old_rng);
            let fit = train_local_params(&spec, &global, &x, &labels, &cfg, &mut new_rng);

            let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&fit.params),
                bits(&model.params_flat()),
                "{}",
                spec.label
            );
            assert_ne!(fit.params, global, "{}: training moved nothing", spec.label);
            assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "{}", spec.label);
        }
    }

    #[test]
    fn zero_epochs_returns_global_params() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = ArchSpec::mlp("t", 4, &[4], 2);
        let init = Sequential::build(&spec, &mut rng).params_flat();
        let x = Matrix::zeros(4, 4);
        let cfg = TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        };
        let fit = train_local_params(&spec, &init, &x, &[0, 1, 0, 1], &cfg, &mut rng);
        assert_eq!(fit.params, init);
    }
}
