//! In-process federated-learning runtime.
//!
//! Models the middleware dataflow the paper assumes from frameworks like
//! PySyft or Flower: a [`PopulationStore`] lends parties (private windowed
//! datasets) to each round on demand, a round selects a cohort, each cohort
//! member trains locally from the current global parameters, updates are
//! shipped (and metered) as binary wire payloads under a pluggable
//! [`codec`] (dense / int8-quantised / top-k sparse / delta), and the
//! aggregator folds what it decodes with federated averaging. Everything is
//! deterministic given a seed; local training fans out across threads with
//! `crossbeam` when enabled.
//!
//! The store is the scale lever: with a lazy [`PartyProvider`] only the
//! sampled cohort is ever resident, so a 100k-party federation runs in
//! O(cohort) memory (see [`population`]).
//!
//! # Example
//!
//! ```
//! use shiftex_fl::{
//!     FederatedJob, Party, PartyId, PopulationStore, RoundConfig, UniformSelector,
//! };
//! use shiftex_data::{ImageShape, PrototypeGenerator};
//! use shiftex_nn::{ArchSpec, Sequential};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
//! let parties: Vec<Party> = (0..4)
//!     .map(|i| {
//!         let train = gen.generate_uniform(32, &mut rng);
//!         let test = gen.generate_uniform(16, &mut rng);
//!         Party::new(PartyId(i), train, test)
//!     })
//!     .collect();
//! // Back the job with a population store; `from_parties` materializes,
//! // a custom `PartyProvider` makes the same job lazy.
//! let population = PopulationStore::from_parties(parties);
//! let spec = ArchSpec::mlp("demo", 16, &[8], 3);
//! let init = Sequential::build(&spec, &mut rng).params_flat();
//! let mut job = FederatedJob::from_population(spec, population, RoundConfig::default());
//! let report = job.run_rounds(init, 3, &mut UniformSelector, &mut rng);
//! assert_eq!(report.accuracy_per_round.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod codec;
mod comm;
pub mod control;
mod job;
pub mod join;
mod party;
pub mod population;
pub mod robust;
mod round;
pub mod scenario;
pub mod selection;
pub mod transport;
mod update;

pub use algo::{
    run_algorithm_round, run_algorithm_round_transported, run_algorithm_round_with,
    AlgoRoundOutcome, FederatedAlgorithm, RobustnessReport, RoundCodec,
};
pub use codec::{CodecError, CodecKind, CodecSpec, UpdateCodec};
pub use comm::{CommLedger, CommTotals};
pub use control::{BudgetSpec, CodecController};
pub use job::{FederatedJob, JobReport, RoundParticipation, ScenarioJobReport};
pub use join::{JoinConfig, JoinSync, JOIN_CHUNK_HEADER_LEN};
pub use party::{Party, PartyId, PartyInfo};
pub use population::{PartyProvider, PopulationStats, PopulationStore, PopulationView};
pub use robust::{aggregate_robust, FoldPolicy, RobustFold, UpdateVerdict};
pub use round::{
    local_update, run_round, run_round_scenario, train_cohort, RoundConfig, RoundOutcome,
    ScenarioRoundOutcome,
};
pub use scenario::{
    aggregate_weighted, AsyncSpec, AttackKind, AttackSchedule, AttackSpec, BroadcastDelivery,
    ChurnSchedule, ChurnSpec, DelayDist, LatePolicy, ParticipationStats, RoundDelivery, RoundMode,
    ScenarioEngine, ScenarioSpec, StragglerSpec, WeightedUpdate,
};
pub use selection::{ParticipantSelector, UniformSelector};
pub use transport::{CohortExchange, CohortTransport, LocalStepFn, LocalTransport, UploadOutcome};
pub use update::ModelUpdate;

use shiftex_nn::{ArchSpec, Sequential};
use shiftex_tensor::Matrix;

/// Evaluates `params` on every party's test split, returning the
/// sample-weighted mean accuracy in `[0, 1]`.
///
/// Returns 0 when no party has test data.
pub fn evaluate_on_parties(spec: &ArchSpec, params: &[f32], parties: &[Party]) -> f32 {
    let model = Sequential::from_params(spec, params);
    weighted_accuracy(
        &model,
        parties.iter().map(|p| (p.test_features(), p.test_labels())),
    )
}

/// Like [`evaluate_on_parties`] but over borrowed parties — scenario loops
/// evaluate a liveness-filtered view every round and must not pay a deep
/// clone of the population to do so.
pub fn evaluate_on_party_refs(spec: &ArchSpec, params: &[f32], parties: &[&Party]) -> f32 {
    let model = Sequential::from_params(spec, params);
    weighted_accuracy(
        &model,
        parties.iter().map(|p| (p.test_features(), p.test_labels())),
    )
}

/// Like [`evaluate_on_party_refs`] but streamed through a
/// [`PopulationView`]: parties are materialized one at a time in view
/// order and dropped after scoring, so evaluation stays O(1)-resident at
/// any population size. The accumulation order and arithmetic are
/// identical to the slice evaluators, so the result is bit-identical.
pub fn evaluate_on_view(spec: &ArchSpec, params: &[f32], view: &PopulationView<'_>) -> f32 {
    let model = Sequential::from_params(spec, params);
    let mut correct = 0.0f64;
    let mut total = 0usize;
    for &id in view.ids() {
        view.with_party(id, |p| {
            let y = p.test_labels();
            if y.is_empty() {
                return;
            }
            let report = model.evaluate(p.test_features(), y);
            correct += (report.accuracy as f64) * y.len() as f64;
            total += y.len();
        });
    }
    if total == 0 {
        0.0
    } else {
        (correct / total as f64) as f32
    }
}

/// Weighted accuracy over `(features, labels)` pairs.
fn weighted_accuracy<'a>(
    model: &Sequential,
    sets: impl Iterator<Item = (&'a Matrix, &'a [usize])>,
) -> f32 {
    let mut correct = 0.0f64;
    let mut total = 0usize;
    for (x, y) in sets {
        if y.is_empty() {
            continue;
        }
        let report = model.evaluate(x, y);
        correct += (report.accuracy as f64) * y.len() as f64;
        total += y.len();
    }
    if total == 0 {
        0.0
    } else {
        (correct / total as f64) as f32
    }
}
