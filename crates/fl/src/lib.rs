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
//! A runnable federation (`FedAvg` under [`run_algorithm_round`]) is in the
//! facade crate's docs (`shiftex`, "One round driver") — the shipped
//! algorithms live downstream of this crate, in `shiftex_baselines` and
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
    local_update, run_algorithm_round, AlgoRoundOutcome, FederatedAlgorithm, RobustnessReport,
    RoundCodec, RoundCtx,
};
pub use codec::{CodecError, CodecKind, CodecSpec, UpdateCodec};
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
pub use selection::{ParticipantSelector, UniformSelector};
pub use transport::{CohortExchange, CohortTransport, LocalStepFn, LocalTransport, UploadOutcome};
pub use update::ModelUpdate;

use shiftex_nn::{ArchSpec, Sequential};

/// Evaluates `params` on the test split of every party in `view`,
/// returning the sample-weighted mean accuracy in `[0, 1]` (0 when no party
/// has test data). Parties are materialized one at a time in view order and
/// dropped after scoring, so evaluation stays O(1)-resident at any
/// population size.
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
