//! Fielding (Li et al., 2024) and FLIPS (Bhope et al., Middleware 2023) as
//! standalone techniques: a single global model trained with
//! label-cluster-balanced participant selection. They differ in one
//! decision — whether the label clusters are refit at window boundaries —
//! so they are one struct with two constructors.
//!
//! **Fielding** ([`Fielding::new`]) re-clusters parties by *label
//! distribution* at every window boundary. Per the paper's
//! characterisation: it "re-clusters parties based on label distributions
//! to train balanced experts, as in FLIPS, but overlooks covariate shifts
//! and does not adapt clusters as party distributions change across
//! windows" — the re-clustering reacts to label histograms only, so
//! weather-style covariate shifts pass undetected.
//!
//! **FLIPS** ([`Fielding::flips`]) fits the clusters **once** at bootstrap.
//! This is the federation ShiftEx borrows its selection subsystem from
//! ([`FlipsSelector`]). As a baseline it isolates what equitable label
//! representation buys *without* any shift reaction: clusters are never
//! refit, so parties whose label mix drifts across windows keep their stale
//! cluster membership — exactly the gap Fielding (per-window refit) and
//! ShiftEx (expert spawning) close.
//!
//! Selection is internal (the FLIPS clusters) in both, so the driver's
//! pluggable selector is not consulted.

use rand::rngs::StdRng;
use shiftex_fl::{
    aggregate_robust, evaluate_on_view, FederatedAlgorithm, FlipsSelector, FoldPolicy,
    ParticipantSelector, PartyId, PartyInfo, PopulationView, UpdateVerdict, WeightedUpdate,
};
use shiftex_nn::{ArchSpec, Sequential, TrainConfig};

/// The Fielding baseline, and FLIPS via [`Fielding::flips`].
#[derive(Debug)]
pub struct Fielding {
    /// `true` = Fielding (refit at every boundary); `false` = FLIPS (the
    /// bootstrap clusters stand for the whole run).
    refit_each_window: bool,
    spec: ArchSpec,
    train: TrainConfig,
    participants_per_round: usize,
    params: Vec<f32>,
    selector: Option<FlipsSelector>,
    max_label_clusters: usize,
}

impl Fielding {
    /// Creates a Fielding instance. Model parameters and the initial label
    /// clustering come from the run's RNG stream at
    /// [`FederatedAlgorithm::init`] time.
    pub fn new(spec: ArchSpec, train: TrainConfig, participants_per_round: usize) -> Self {
        Self {
            refit_each_window: true,
            spec,
            train,
            participants_per_round,
            params: Vec::new(),
            selector: None,
            max_label_clusters: 4,
        }
    }

    /// Creates a FLIPS instance: the same federation with the label
    /// clusters fitted once at [`FederatedAlgorithm::init`] time and never
    /// refit, reported as `"FLIPS"`.
    pub fn flips(spec: ArchSpec, train: TrainConfig, participants_per_round: usize) -> Self {
        Self {
            refit_each_window: false,
            ..Self::new(spec, train, participants_per_round)
        }
    }

    /// The current number of label clusters (after the last fit).
    pub fn num_label_clusters(&self) -> usize {
        self.selector
            .as_ref()
            .map_or(0, |s| s.clusters().clusters.len())
    }

    fn refit(&mut self, infos: &[PartyInfo], rng: &mut StdRng) {
        if infos.is_empty() {
            return;
        }
        match self.selector.as_mut() {
            Some(s) => s.refit(infos, self.max_label_clusters, rng),
            None => self.selector = Some(FlipsSelector::fit(infos, self.max_label_clusters, rng)),
        }
    }
}

impl FederatedAlgorithm for Fielding {
    fn name(&self) -> &str {
        if self.refit_each_window {
            "Fielding"
        } else {
            "FLIPS"
        }
    }

    fn arch(&self) -> &ArchSpec {
        &self.spec
    }

    fn init(&mut self, parties: &PopulationView<'_>, rng: &mut StdRng) {
        self.params = Sequential::build(&self.spec, rng).params_flat();
        self.refit(&parties.infos(), rng);
    }

    fn begin_window(&mut self, _window: usize, members: &PopulationView<'_>, rng: &mut StdRng) {
        // Fielding re-clusters on the *new* label distributions. FLIPS
        // "assumes stationary label distributions": no refit, which is its
        // failure mode under shift.
        if self.refit_each_window {
            self.refit(&members.infos(), rng);
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
        _selector: &mut dyn ParticipantSelector,
        rng: &mut StdRng,
    ) -> Vec<PartyId> {
        let Some(flips) = self.selector.as_mut() else {
            return Vec::new();
        };
        if live.is_empty() {
            return Vec::new();
        }
        let infos = live.infos();
        let chosen: std::collections::BTreeSet<PartyId> = flips
            .select(&infos, self.participants_per_round, rng)
            .into_iter()
            .collect();
        infos
            .iter()
            .filter(|i| chosen.contains(&i.id) && i.num_samples > 0)
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
    };

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
        let mut alg = Fielding::new(spec, TrainConfig::default(), 4);
        assert_eq!(alg.name(), "Fielding");
        alg.init(&store.view(store.party_ids()), &mut rng);
        assert_eq!(alg.num_label_clusters(), 2);
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(1), &ids);
        for _ in 0..6 {
            run_algorithm_round(&mut alg, &mut RoundCtx::new(&store, &mut engine), &mut rng);
        }
        assert!(alg.eval(&store.view(store.party_ids())) > 0.3);
        // A boundary refit still works over a member view.
        alg.begin_window(1, &store.view(store.party_ids()), &mut rng);
        assert!(alg.num_label_clusters() >= 1);
    }

    #[test]
    fn flips_balances_cohorts_and_keeps_clusters_static() {
        let mut rng = StdRng::seed_from_u64(0);
        let (store, ids) = two_label_regimes(&mut rng);
        let spec = ArchSpec::mlp("t", 16, &[10], 4);
        let mut alg = Fielding::flips(spec, TrainConfig::default(), 4);
        assert_eq!(alg.name(), "FLIPS");
        alg.init(&store.view(store.party_ids()), &mut rng);
        let fitted = alg.num_label_clusters();
        assert_eq!(fitted, 2, "two label regimes");
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(1), &ids);
        for _ in 0..4 {
            run_algorithm_round(&mut alg, &mut RoundCtx::new(&store, &mut engine), &mut rng);
        }
        // Window boundaries leave the clustering untouched: the boundary
        // must not draw from the RNG a refit would consume.
        let mut untouched = rng.clone();
        alg.begin_window(1, &store.view(store.party_ids()), &mut rng);
        assert_eq!(alg.num_label_clusters(), fitted);
        assert_eq!(rng.random::<u64>(), untouched.random::<u64>());
    }
}
