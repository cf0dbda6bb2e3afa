//! FLIPS (Bhope et al., Middleware 2023) as a standalone technique: a
//! single global model trained with label-cluster-balanced participant
//! selection, clusters fitted **once** at bootstrap.
//!
//! This is the federation ShiftEx borrows its selection subsystem from
//! (the [`FlipsSelector`] itself lives in `shiftex-flips`). As a baseline
//! it isolates what equitable label representation buys *without* any
//! shift reaction: clusters are never refit, so parties whose label mix
//! drifts across windows keep their stale cluster membership — exactly the
//! gap Fielding (per-window refit) and ShiftEx (expert spawning) close.

use rand::rngs::StdRng;
use shiftex_fl::{
    aggregate_robust, evaluate_on_view, FederatedAlgorithm, FoldPolicy, ParticipantSelector,
    PartyId, PopulationView, UpdateVerdict, WeightedUpdate,
};
use shiftex_flips::FlipsSelector;
use shiftex_nn::{ArchSpec, Sequential, TrainConfig};

/// The FLIPS baseline: FedAvg + static label-balanced cohorts.
#[derive(Debug)]
pub struct Flips {
    spec: ArchSpec,
    train: TrainConfig,
    participants_per_round: usize,
    params: Vec<f32>,
    selector: Option<FlipsSelector>,
    max_label_clusters: usize,
}

impl Flips {
    /// Creates a FLIPS instance. Model parameters and the one-time label
    /// clustering come from the run's RNG stream at
    /// [`FederatedAlgorithm::init`] time.
    pub fn new(spec: ArchSpec, train: TrainConfig, participants_per_round: usize) -> Self {
        Self {
            spec,
            train,
            participants_per_round,
            params: Vec::new(),
            selector: None,
            max_label_clusters: 4,
        }
    }

    /// Number of label clusters fitted at bootstrap.
    pub fn num_label_clusters(&self) -> usize {
        self.selector
            .as_ref()
            .map_or(0, |s| s.clusters().clusters.len())
    }
}

impl FederatedAlgorithm for Flips {
    fn name(&self) -> &str {
        "FLIPS"
    }

    fn arch(&self) -> &ArchSpec {
        &self.spec
    }

    fn init(&mut self, parties: &PopulationView<'_>, rng: &mut StdRng) {
        self.params = Sequential::build(&self.spec, rng).params_flat();
        let infos = parties.infos();
        if !infos.is_empty() {
            self.selector = Some(FlipsSelector::fit(&infos, self.max_label_clusters, rng));
        }
    }

    fn begin_window(&mut self, _window: usize, _members: &PopulationView<'_>, _rng: &mut StdRng) {
        // Static clusters by design: FLIPS "assumes stationary label
        // distributions" — no refit, which is its failure mode under shift.
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
    use rand::SeedableRng;
    use shiftex_data::{ImageShape, PrototypeGenerator};
    use shiftex_fl::{
        run_algorithm_round, Party, PopulationStore, RoundCtx, ScenarioEngine, ScenarioSpec,
    };

    #[test]
    fn flips_balances_cohorts_and_keeps_clusters_static() {
        let mut rng = StdRng::seed_from_u64(0);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 4, &mut rng);
        let parties: Vec<Party> = (0..8)
            .map(|i| {
                let weights = if i < 4 {
                    vec![8.0, 1.0, 1.0, 1.0]
                } else {
                    vec![1.0, 1.0, 1.0, 8.0]
                };
                Party::new(
                    PartyId(i),
                    gen.generate(32, &weights, &mut rng),
                    gen.generate_uniform(16, &mut rng),
                )
            })
            .collect();
        let ids: Vec<PartyId> = parties.iter().map(Party::id).collect();
        let spec = ArchSpec::mlp("t", 16, &[10], 4);
        let mut alg = Flips::new(spec, TrainConfig::default(), 4);
        let store = PopulationStore::from_parties(parties);
        alg.init(&store.view(store.party_ids()), &mut rng);
        let fitted = alg.num_label_clusters();
        assert_eq!(fitted, 2, "two label regimes");
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(1), &ids);
        for _ in 0..4 {
            run_algorithm_round(&mut alg, &mut RoundCtx::new(&store, &mut engine), &mut rng);
        }
        // Window boundaries leave the clustering untouched.
        alg.begin_window(1, &store.view(store.party_ids()), &mut rng);
        assert_eq!(alg.num_label_clusters(), fitted);
    }
}
