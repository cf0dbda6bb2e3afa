//! In-process federated-learning runtime.
//!
//! Models the middleware dataflow the paper assumes from frameworks like
//! PySyft or Flower: a [`PopulationStore`] lends parties (private windowed
//! datasets) to each round on demand, a round selects a cohort, each cohort
//! member trains locally from the current global parameters, updates are
//! shipped (and metered) as binary wire payloads under a pluggable
//! [`codec`] (dense / int8-quantised / top-k sparse / delta), and the
//! aggregator folds what it decodes. Every round of every algorithm goes
//! through one driver, [`run_algorithm_round`], configured by a
//! [`RoundCtx`]. Everything is deterministic given a seed: each cohort
//! member trains under its own pre-drawn seed, so results do not depend on
//! training order.
//!
//! The store is the scale lever: with a lazy [`PartyProvider`] only the
//! sampled cohort is ever resident, so a 100k-party federation runs in
//! O(cohort) memory (see [`population`]).
//!
//! # Example
//!
//! A runnable federation (`ShiftEx` under [`run_algorithm_round`]) is in the
//! facade crate's docs (`shiftex`, "Quickstart") — the shipped algorithms
//! live downstream of this crate, in `shiftex_baselines` and
//! `shiftex_core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod codec;
mod comm;
pub mod control;
pub mod join;
mod party;
pub mod population;
pub mod robust;
pub mod scenario;
pub mod selection;
pub mod transport;
mod update;

pub use algo::{
    local_update, run_algorithm_round, AlgoRoundOutcome, FederatedAlgorithm, RoundCodec, RoundCtx,
};
pub use codec::{CodecError, CodecKind, CodecSpec};
pub use comm::{CommLedger, CommTotals};
pub use control::{BudgetSpec, CodecController};
pub use join::{JoinConfig, JoinSync, JOIN_CHUNK_HEADER_LEN};
pub use party::{Party, PartyId, PartyInfo};
pub use population::{PartyProvider, PopulationStats, PopulationStore, PopulationView};
pub use robust::{aggregate_robust, FoldPolicy, RobustFold, UpdateVerdict};
pub use scenario::{
    aggregate_weighted, AsyncSpec, AttackKind, AttackSchedule, AttackSpec, BroadcastDelivery,
    ChurnSchedule, ChurnSpec, DelayDist, LatePolicy, ParticipationStats, RoundDelivery, RoundMode,
    RoundParticipation, ScenarioEngine, ScenarioSpec, StragglerSpec, WeightedUpdate,
};
pub use selection::{FlipsSelector, ParticipantSelector, UniformSelector};
pub use transport::{CohortExchange, CohortTransport, LocalStepFn, LocalTransport, UploadOutcome};
pub use update::ModelUpdate;

use shiftex_nn::{ArchSpec, Sequential};

/// Evaluates `params` on the test split of every party in `view`,
/// returning the sample-weighted mean accuracy in `[0, 1]` (0 when no party
/// has test data) — [`evaluate_assigned_view`] with one model for everyone.
pub fn evaluate_on_view(spec: &ArchSpec, params: &[f32], view: &PopulationView<'_>) -> f32 {
    evaluate_assigned_view(spec, view, |_| params)
}

/// Sample-weighted population accuracy where `params_of` supplies each
/// party's assigned parameters — the one per-party scoring loop. Only each
/// party's test split is read ([`PopulationView::with_test_split`]), one
/// at a time in view order and dropped after scoring, so evaluation stays
/// O(1)-resident at any population size.
pub fn evaluate_assigned_view<'a>(
    spec: &ArchSpec,
    view: &PopulationView<'_>,
    mut params_of: impl FnMut(PartyId) -> &'a [f32],
) -> f32 {
    let mut correct = 0.0f64;
    let mut total = 0usize;
    // One built model per distinct parameter slice (by pointer identity).
    let mut cache: Vec<(&[f32], Sequential)> = Vec::new();
    for &id in view.ids() {
        view.with_test_split(id, |test| {
            if test.is_empty() {
                return;
            }
            let params = params_of(id);
            let slot = match cache
                .iter()
                .position(|(p, _)| std::ptr::eq(p.as_ptr(), params.as_ptr()))
            {
                Some(i) => i,
                None => {
                    cache.push((params, Sequential::from_params(spec, params)));
                    cache.len() - 1
                }
            };
            // Arg-max against the label only; the same `f32` accuracy, then
            // `f64` weighting, that an `EvalReport` would have gone through.
            let n = test.labels().len();
            let hits = cache[slot].1.count_correct(test.features(), test.labels());
            let accuracy = hits as f32 / n as f32;
            correct += accuracy as f64 * n as f64;
            total += n;
        });
    }
    if total == 0 {
        0.0
    } else {
        (correct / total as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shiftex_data::{ImageShape, PrototypeGenerator};

    #[test]
    fn evaluate_assigned_uses_per_party_models() {
        let mut rng = StdRng::seed_from_u64(0);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 2, &mut rng);
        let parties: Vec<Party> = (0..3)
            .map(|i| {
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(16, &mut rng),
                    gen.generate_uniform(16, &mut rng),
                )
            })
            .collect();
        let spec = ArchSpec::mlp("t", 16, &[6], 2);
        let good = {
            // Train a model on pooled data so it beats random.
            let pooled = shiftex_data::Dataset::concat(&[
                parties[0].train(),
                parties[1].train(),
                parties[2].train(),
            ]);
            let mut m = Sequential::build(&spec, &mut rng);
            let cfg = shiftex_nn::TrainConfig {
                epochs: 25,
                ..Default::default()
            };
            m.train(pooled.features(), pooled.labels(), &cfg, &mut rng);
            m.params_flat()
        };
        let bad = Sequential::build(&spec, &mut StdRng::seed_from_u64(99)).params_flat();
        let store = PopulationStore::from_parties(parties);
        let view = store.view(store.party_ids());

        let acc_good = evaluate_on_view(&spec, &good, &view);
        let acc_bad = evaluate_on_view(&spec, &bad, &view);
        assert!(acc_good > acc_bad, "trained {acc_good} vs fresh {acc_bad}");

        // Mixed assignment lands between the two pure assignments.
        let acc_mixed =
            evaluate_assigned_view(&spec, &view, |id| if id.0 == 0 { &bad } else { &good });
        assert!(acc_mixed <= acc_good + 1e-6 && acc_mixed >= acc_bad - 1e-6);
    }
}
