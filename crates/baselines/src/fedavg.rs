//! FedAvg (McMahan et al., AISTATS 2017): one global model, federated
//! averaging, no shift awareness — the reference point every comparison in
//! the paper is anchored to — and FedProx (Li et al., MLSys 2020), which is
//! FedAvg plus a proximal term that keeps local updates near the global
//! model: the canonical "traditional FL" baseline. The server side is the
//! same, so FedProx is [`FedAvg::fedprox`]: the same struct with the
//! proximal coefficient set in its local [`TrainConfig`].
//!
//! Cohort selection delegates to the scenario driver's pluggable
//! [`ParticipantSelector`], so the same implementation runs as classic
//! uniform FedAvg or as OORT-selected FedAvg (`--selector oort`).

use rand::rngs::StdRng;
use shiftex_fl::{
    aggregate_robust, evaluate_on_view, FederatedAlgorithm, FoldPolicy, ParticipantSelector,
    PartyId, PopulationView, UpdateVerdict, WeightedUpdate,
};
use shiftex_nn::{ArchSpec, Sequential, TrainConfig};

/// The FedAvg baseline, and FedProx via [`FedAvg::fedprox`].
#[derive(Debug)]
pub struct FedAvg {
    spec: ArchSpec,
    train: TrainConfig,
    participants_per_round: usize,
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

    /// Current global parameters (empty before `init`).
    pub fn params(&self) -> &[f32] {
        &self.params
    }
}

impl FederatedAlgorithm for FedAvg {
    fn name(&self) -> &str {
        match self.train.prox_mu {
            Some(_) => "FedProx",
            None => "FedAvg",
        }
    }

    fn arch(&self) -> &ArchSpec {
        &self.spec
    }

    fn init(&mut self, _parties: &PopulationView<'_>, rng: &mut StdRng) {
        self.params = Sequential::build(&self.spec, rng).params_flat();
    }

    fn begin_window(&mut self, _window: usize, _members: &PopulationView<'_>, _rng: &mut StdRng) {
        // Single global model: nothing to reorganise at window boundaries.
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
        if live.is_empty() {
            return Vec::new();
        }
        let infos = live.infos();
        let chosen: std::collections::BTreeSet<PartyId> = selector
            .select(&infos, self.participants_per_round, rng)
            .into_iter()
            .collect();
        live.ids()
            .iter()
            .copied()
            .filter(|id| chosen.contains(id))
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

    #[test]
    fn fedprox_carries_the_proximal_term_and_improves() {
        let spec = ArchSpec::mlp("t", 16, &[10], 3);
        let alg = FedAvg::fedprox(spec, TrainConfig::default(), 6, 0.01);
        assert_eq!(alg.name(), "FedProx");
        assert_eq!(alg.train_config(0).prox_mu, Some(0.01));
        assert_improves_through_the_driver(alg);
    }
}
