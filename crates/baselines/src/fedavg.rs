//! The paper's single-model baselines (§6): one global model folded by
//! federated averaging, with no shift awareness. They differ in two
//! decisions only, each held in one field:
//!
//! * **the proximal term**, [`TrainConfig::prox_mu`]. FedProx (Li et al.,
//!   MLSys 2020) keeps local updates near the global model with it;
//! * **the cohort source**. FedAvg (McMahan et al., AISTATS 2017) and
//!   FedProx draw each round's cohort through the driver's pluggable
//!   [`ParticipantSelector`], so they run as classic uniform FedAvg or as
//!   OORT-selected FedAvg (`--selector oort`). FLIPS (Bhope et al.,
//!   Middleware 2023) and Fielding (Li et al., 2024) ignore the driver's
//!   selector and deal cohorts from label clusters ([`FlipsSelector`]).
//!
//! **FLIPS** ([`FedAvg::flips`]) fits the label clusters **once**, at
//! [`FederatedAlgorithm::init`]. It is the federation ShiftEx borrows its
//! selection subsystem from. As a baseline it isolates what equitable
//! label representation buys *without* any shift reaction: parties whose
//! label mix drifts across windows keep their stale cluster membership.
//!
//! **Fielding** ([`FedAvg::fielding`]) refits the label clusters at every
//! window boundary. Per the paper, it "re-clusters parties based on label
//! distributions to train balanced experts, as in FLIPS, but overlooks
//! covariate shifts": the refit reacts to label histograms only, so
//! weather-style covariate shifts pass undetected.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use shiftex_fl::{
    aggregate_robust, evaluate_on_view, FederatedAlgorithm, FlipsSelector, FoldPolicy,
    ParticipantSelector, PartyId, PartyInfo, PopulationView, UpdateVerdict, WeightedUpdate,
};
use shiftex_nn::{ArchSpec, Sequential, TrainConfig};

/// Most label clusters a FLIPS or Fielding fit may form.
const MAX_LABEL_CLUSTERS: usize = 4;

/// Where each round's cohort comes from. A label-cluster fit is `None`
/// until one over a non-empty view.
#[derive(Debug)]
enum CohortSource {
    /// The driver's selector (FedAvg, FedProx).
    Selector,
    /// Label clusters fit once, at `init` (FLIPS).
    Flips(Option<FlipsSelector>),
    /// Label clusters fit at `init` and refit at every window boundary
    /// (Fielding).
    Fielding(Option<FlipsSelector>),
}

/// Fits (or refits) label clusters over `infos`; an empty view leaves them
/// as they are.
fn fit_label_clusters(fit: &mut Option<FlipsSelector>, infos: &[PartyInfo], rng: &mut StdRng) {
    if infos.is_empty() {
        return;
    }
    match fit {
        Some(s) => s.refit(infos, MAX_LABEL_CLUSTERS, rng),
        None => *fit = Some(FlipsSelector::fit(infos, MAX_LABEL_CLUSTERS, rng)),
    }
}

/// The single-model baseline: FedAvg, and FedProx, FLIPS and Fielding
/// through [`FedAvg::fedprox`], [`FedAvg::flips`] and [`FedAvg::fielding`].
#[derive(Debug)]
pub struct FedAvg {
    spec: ArchSpec,
    train: TrainConfig,
    participants_per_round: usize,
    cohorts: CohortSource,
    params: Vec<f32>,
}

impl FedAvg {
    /// Creates a FedAvg instance. Model parameters are drawn from the run's
    /// RNG stream at [`FederatedAlgorithm::init`] time. A `train` config that
    /// already carries a proximal coefficient makes it FedProx.
    pub fn new(spec: ArchSpec, train: TrainConfig, participants_per_round: usize) -> Self {
        Self {
            spec,
            train,
            participants_per_round,
            cohorts: CohortSource::Selector,
            params: Vec::new(),
        }
    }

    /// Creates a FedProx instance: FedAvg whose local steps carry a
    /// proximal term with coefficient `mu`, reported as `"FedProx"`.
    ///
    /// # Panics
    ///
    /// Panics if `mu < 0`.
    pub fn fedprox(
        spec: ArchSpec,
        train: TrainConfig,
        participants_per_round: usize,
        mu: f32,
    ) -> Self {
        assert!(mu >= 0.0, "prox coefficient must be non-negative");
        let train = TrainConfig {
            prox_mu: Some(mu),
            ..train
        };
        Self::new(spec, train, participants_per_round)
    }

    /// Creates a FLIPS instance: cohorts dealt from label clusters fitted
    /// at [`FederatedAlgorithm::init`] time and never refit, reported as
    /// `"FLIPS"`.
    pub fn flips(spec: ArchSpec, train: TrainConfig, participants_per_round: usize) -> Self {
        Self {
            cohorts: CohortSource::Flips(None),
            ..Self::new(spec, train, participants_per_round)
        }
    }

    /// Creates a Fielding instance: FLIPS with the label clusters refit at
    /// every window boundary, reported as `"Fielding"`.
    pub fn fielding(spec: ArchSpec, train: TrainConfig, participants_per_round: usize) -> Self {
        Self {
            cohorts: CohortSource::Fielding(None),
            ..Self::new(spec, train, participants_per_round)
        }
    }

    /// Current global parameters (empty before `init`).
    pub fn params(&self) -> &[f32] {
        &self.params
    }
}

impl FederatedAlgorithm for FedAvg {
    fn name(&self) -> &str {
        match (&self.cohorts, self.train.prox_mu) {
            (CohortSource::Selector, None) => "FedAvg",
            (CohortSource::Selector, Some(_)) => "FedProx",
            (CohortSource::Flips(_), _) => "FLIPS",
            (CohortSource::Fielding(_), _) => "Fielding",
        }
    }

    fn arch(&self) -> &ArchSpec {
        &self.spec
    }

    fn init(&mut self, parties: &PopulationView<'_>, rng: &mut StdRng) {
        self.params = Sequential::build(&self.spec, rng).params_flat();
        if let CohortSource::Flips(fit) | CohortSource::Fielding(fit) = &mut self.cohorts {
            fit_label_clusters(fit, &parties.infos(), rng);
        }
    }

    fn begin_window(&mut self, _window: usize, members: &PopulationView<'_>, rng: &mut StdRng) {
        // Fielding re-clusters on the *new* label distributions. FLIPS
        // "assumes stationary label distributions": no refit, which is its
        // failure mode under shift. FedAvg and FedProx have nothing to
        // reorganise.
        if let CohortSource::Fielding(fit) = &mut self.cohorts {
            fit_label_clusters(fit, &members.infos(), rng);
        }
    }

    fn streams(&self) -> Vec<usize> {
        vec![0]
    }

    fn broadcast_state(&self, _key: usize) -> Vec<f32> {
        self.params.clone()
    }

    fn train_config(&self, _key: usize) -> TrainConfig {
        self.train
    }

    fn cohort(
        &mut self,
        _key: usize,
        live: &PopulationView<'_>,
        selector: &mut dyn ParticipantSelector,
        rng: &mut StdRng,
    ) -> Vec<PartyId> {
        // The label-cluster path drops zero-train parties after selection;
        // the selector path keeps them.
        let (selector, drop_empty): (&mut dyn ParticipantSelector, bool) = match &mut self.cohorts {
            CohortSource::Selector => (selector, false),
            CohortSource::Flips(Some(s)) | CohortSource::Fielding(Some(s)) => (s, true),
            CohortSource::Flips(None) | CohortSource::Fielding(None) => return Vec::new(),
        };
        if live.is_empty() {
            return Vec::new();
        }
        let infos = live.infos();
        let chosen: BTreeSet<PartyId> = selector
            .select(&infos, self.participants_per_round, rng)
            .into_iter()
            .collect();
        infos
            .iter()
            .filter(|i| chosen.contains(&i.id) && !(drop_empty && i.num_samples == 0))
            .map(|i| i.id)
            .collect()
    }

    fn fold(
        &mut self,
        _key: usize,
        ready: &[WeightedUpdate],
        server_lr: f32,
        policy: &FoldPolicy,
    ) -> Vec<UpdateVerdict> {
        let fold = aggregate_robust(&self.params, ready, server_lr, policy);
        if let Some(params) = fold.params {
            self.params = params;
        }
        fold.verdicts
    }

    fn eval(&self, parties: &PopulationView<'_>) -> f32 {
        evaluate_on_view(&self.spec, &self.params, parties)
    }

    fn model_index(&self, _party: PartyId) -> usize {
        0
    }

    fn num_models(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use shiftex_data::{ImageShape, PrototypeGenerator};
    use shiftex_fl::{
        run_algorithm_round, Party, PopulationStore, RoundCtx, ScenarioEngine, ScenarioSpec,
        UniformSelector,
    };

    /// Six uniform parties; trains `alg` for eight driver rounds and
    /// asserts the single global model improved.
    fn assert_improves_through_the_driver(mut alg: FedAvg) {
        let mut rng = StdRng::seed_from_u64(0);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
        let parties: Vec<Party> = (0..6)
            .map(|i| {
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(32, &mut rng),
                    gen.generate_uniform(16, &mut rng),
                )
            })
            .collect();
        let ids: Vec<PartyId> = parties.iter().map(Party::id).collect();
        let store = PopulationStore::from_parties(parties);
        alg.init(&store.view(store.party_ids()), &mut rng);
        let before = alg.eval(&store.view(store.party_ids()));
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(1), &ids);
        for _ in 0..8 {
            run_algorithm_round(&mut alg, &mut RoundCtx::new(&store, &mut engine), &mut rng);
        }
        let after = alg.eval(&store.view(store.party_ids()));
        assert!(after > before, "{before} -> {after}");
        assert_eq!(alg.num_models(), 1);
        assert_eq!(alg.model_index(PartyId(3)), 0);
    }

    #[test]
    fn fedavg_trains_a_single_model_through_the_driver() {
        let alg = FedAvg::new(ArchSpec::mlp("t", 16, &[10], 3), TrainConfig::default(), 6);
        assert_eq!(alg.name(), "FedAvg");
        assert_eq!(alg.train_config(0).prox_mu, None);
        assert_improves_through_the_driver(alg);
    }

    /// Five parties of 16 training rows, except party 2, which has none.
    fn store_with_an_empty_party(rng: &mut StdRng) -> PopulationStore {
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, rng);
        let parties = (0..5)
            .map(|i| {
                let rows = if i == 2 { 0 } else { 16 };
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(rows, rng),
                    gen.generate_uniform(8, rng),
                )
            })
            .collect();
        PopulationStore::from_parties(parties)
    }

    #[test]
    fn cohort_sources_keep_their_empty_party_and_rng_rules() {
        let spec = ArchSpec::mlp("t", 16, &[10], 3);
        let train = TrainConfig::default();
        let mut rng = StdRng::seed_from_u64(5);
        let store = store_with_an_empty_party(&mut rng);
        let all = store.view(store.party_ids());
        let nobody = store.view(Vec::new());
        // The selector path keeps the empty-train party; the FLIPS path
        // drops zero-train parties after selection.
        let sources: [(Box<dyn FederatedAlgorithm>, bool); 4] = [
            (Box::new(FedAvg::new(spec.clone(), train, 5)), true),
            (
                Box::new(FedAvg::fedprox(spec.clone(), train, 5, 0.01)),
                true,
            ),
            (Box::new(FedAvg::fielding(spec.clone(), train, 5)), false),
            (Box::new(FedAvg::flips(spec.clone(), train, 5)), false),
        ];
        for (mut alg, keeps_empty) in sources {
            alg.init(&all, &mut rng);
            let cohort = alg.cohort(0, &all, &mut UniformSelector, &mut rng);
            let name = alg.name().to_string();
            assert_eq!(
                cohort.contains(&PartyId(2)),
                keeps_empty,
                "{name}: {cohort:?}"
            );
            assert!(cohort.len() >= 4, "{name}: {cohort:?}");
            // A cohort over an empty view returns before any draw.
            let mut untouched = rng.clone();
            assert!(alg
                .cohort(0, &nobody, &mut UniformSelector, &mut rng)
                .is_empty());
            assert_eq!(rng.random::<u64>(), untouched.random::<u64>(), "{name}");
        }
        // A FLIPS source fit over an empty view has no clusters to draw from.
        for mut alg in [
            FedAvg::fielding(spec.clone(), train, 5),
            FedAvg::flips(spec.clone(), train, 5),
        ] {
            alg.init(&nobody, &mut rng);
            assert!(alg
                .cohort(0, &all, &mut UniformSelector, &mut rng)
                .is_empty());
        }
    }

    #[test]
    fn fedprox_carries_the_proximal_term_and_improves() {
        let spec = ArchSpec::mlp("t", 16, &[10], 3);
        let alg = FedAvg::fedprox(spec, TrainConfig::default(), 6, 0.01);
        assert_eq!(alg.name(), "FedProx");
        assert_eq!(alg.train_config(0).prox_mu, Some(0.01));
        assert_improves_through_the_driver(alg);
    }

    /// Label clusters of the last fit (0 before one).
    fn label_clusters(alg: &FedAvg) -> usize {
        match &alg.cohorts {
            CohortSource::Flips(Some(s)) | CohortSource::Fielding(Some(s)) => {
                s.clusters().clusters.len()
            }
            _ => 0,
        }
    }

    /// Eight parties, half class-0-heavy and half class-3-heavy.
    fn two_label_regimes(rng: &mut StdRng) -> (PopulationStore, Vec<PartyId>) {
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 4, rng);
        let parties: Vec<Party> = (0..8)
            .map(|i| {
                let weights = if i < 4 {
                    vec![8.0, 1.0, 1.0, 1.0]
                } else {
                    vec![1.0, 1.0, 1.0, 8.0]
                };
                Party::new(
                    PartyId(i),
                    gen.generate(32, &weights, rng),
                    gen.generate_uniform(16, rng),
                )
            })
            .collect();
        let ids = parties.iter().map(Party::id).collect();
        (PopulationStore::from_parties(parties), ids)
    }

    #[test]
    fn fielding_reclusters_each_window() {
        let mut rng = StdRng::seed_from_u64(0);
        let (store, ids) = two_label_regimes(&mut rng);
        let spec = ArchSpec::mlp("t", 16, &[10], 4);
        let mut alg = FedAvg::fielding(spec, TrainConfig::default(), 4);
        assert_eq!(alg.name(), "Fielding");
        alg.init(&store.view(store.party_ids()), &mut rng);
        assert_eq!(label_clusters(&alg), 2);
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(1), &ids);
        for _ in 0..6 {
            run_algorithm_round(&mut alg, &mut RoundCtx::new(&store, &mut engine), &mut rng);
        }
        assert!(alg.eval(&store.view(store.party_ids())) > 0.3);
        // A boundary refit still works over a member view.
        alg.begin_window(1, &store.view(store.party_ids()), &mut rng);
        assert!(label_clusters(&alg) >= 1);
    }

    #[test]
    fn flips_balances_cohorts_and_keeps_clusters_static() {
        let mut rng = StdRng::seed_from_u64(0);
        let (store, ids) = two_label_regimes(&mut rng);
        let spec = ArchSpec::mlp("t", 16, &[10], 4);
        let mut alg = FedAvg::flips(spec, TrainConfig::default(), 4);
        assert_eq!(alg.name(), "FLIPS");
        alg.init(&store.view(store.party_ids()), &mut rng);
        let fitted = label_clusters(&alg);
        assert_eq!(fitted, 2, "two label regimes");
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(1), &ids);
        for _ in 0..4 {
            run_algorithm_round(&mut alg, &mut RoundCtx::new(&store, &mut engine), &mut rng);
        }
        // Window boundaries leave the clustering untouched: the boundary
        // must not draw from the RNG a refit would consume.
        let mut untouched = rng.clone();
        alg.begin_window(1, &store.view(store.party_ids()), &mut rng);
        assert_eq!(label_clusters(&alg), fitted);
        assert_eq!(rng.random::<u64>(), untouched.random::<u64>());
    }
}
