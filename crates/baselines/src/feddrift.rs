//! FedDrift (Jothimurugesan et al., 2023): multiple-model FL under
//! distributed concept drift, with *loss-based* drift detection.
//!
//! At each window boundary every party evaluates its local data under every
//! existing model; parties whose best achievable loss exceeds their previous
//! loss by more than a tolerance are flagged as drifted, clustered by their
//! loss vectors, and routed to fresh models. Unlike ShiftEx this reacts to
//! the *symptom* (loss) rather than the distribution itself — "it offers
//! only coarse adaptation and lacks explicit modeling of covariate or label
//! shift dynamics".
//!
//! Under the unified API each model is one update stream; per-model cohorts
//! are drawn through the driver's pluggable [`ParticipantSelector`]
//! restricted to that model's assigned parties.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use shiftex_cluster::choose_k;
use shiftex_fl::{
    aggregate_robust, evaluate_assigned_view, FederatedAlgorithm, FoldPolicy, ParticipantSelector,
    PartyId, PopulationView, UpdateVerdict, WeightedUpdate,
};
use shiftex_nn::{ArchSpec, Sequential, TrainConfig};

/// FedDrift tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedDriftConfig {
    /// Loss increase (absolute, nats) tolerated before a party counts as
    /// drifted.
    pub loss_tolerance: f32,
    /// Maximum number of concurrently maintained models.
    pub max_models: usize,
    /// Maximum drift clusters formed per window.
    pub max_clusters: usize,
}

impl Default for FedDriftConfig {
    fn default() -> Self {
        Self {
            loss_tolerance: 0.35,
            max_models: 6,
            max_clusters: 3,
        }
    }
}

/// The FedDrift baseline.
#[derive(Debug)]
pub struct FedDrift {
    spec: ArchSpec,
    train: TrainConfig,
    participants_per_round: usize,
    cfg: FedDriftConfig,
    models: Vec<Vec<f32>>,
    assignment: BTreeMap<PartyId, usize>,
    prev_loss: BTreeMap<PartyId, f32>,
}

impl FedDrift {
    /// Creates a FedDrift instance. The initial model is drawn from the
    /// run's RNG stream at [`FederatedAlgorithm::init`] time.
    pub fn new(
        spec: ArchSpec,
        train: TrainConfig,
        participants_per_round: usize,
        cfg: FedDriftConfig,
    ) -> Self {
        Self {
            spec,
            train,
            participants_per_round,
            cfg,
            models: Vec::new(),
            assignment: BTreeMap::new(),
            prev_loss: BTreeMap::new(),
        }
    }

    fn model_of(&self, party: PartyId) -> usize {
        self.assignment.get(&party).copied().unwrap_or(0)
    }

    /// Per-party loss of its local data under every model; parties stream
    /// through the view one at a time (only the loss rows stay resident).
    fn loss_matrix(&self, parties: &PopulationView<'_>) -> Vec<Vec<f32>> {
        let built: Vec<Sequential> = self
            .models
            .iter()
            .map(|m| Sequential::from_params(&self.spec, m))
            .collect();
        parties
            .ids()
            .iter()
            .map(|&id| {
                parties
                    .with_party(id, |p| {
                        built
                            .iter()
                            .map(|m| {
                                if p.train().is_empty() {
                                    0.0
                                } else {
                                    m.evaluate(p.train_features(), p.train_labels()).loss
                                }
                            })
                            .collect()
                    })
                    .unwrap_or_else(|| vec![0.0; built.len()])
            })
            .collect()
    }
}

impl FederatedAlgorithm for FedDrift {
    fn name(&self) -> &str {
        "FedDrift"
    }

    fn arch(&self) -> &ArchSpec {
        &self.spec
    }

    fn init(&mut self, parties: &PopulationView<'_>, rng: &mut StdRng) {
        self.models = vec![Sequential::build(&self.spec, rng).params_flat()];
        self.assignment.clear();
        self.prev_loss.clear();
        let losses = self.loss_matrix(parties);
        for (&id, row) in parties.ids().iter().zip(losses.iter()) {
            self.assignment.insert(id, 0);
            self.prev_loss.insert(id, row[0]);
        }
    }

    fn begin_window(&mut self, _window: usize, members: &PopulationView<'_>, rng: &mut StdRng) {
        let losses = self.loss_matrix(members);
        let member_ids = members.ids();
        // Re-assign every party to its best existing model; flag drifted
        // parties whose best loss regressed beyond the tolerance.
        let mut drifted: Vec<usize> = Vec::new();
        for (i, (&id, row)) in member_ids.iter().zip(losses.iter()).enumerate() {
            let (best_model, best_loss) = row
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(k, &l)| (k, l))
                .unwrap_or((0, 0.0));
            self.assignment.insert(id, best_model);
            let prev = self.prev_loss.get(&id).copied().unwrap_or(best_loss);
            if best_loss > prev + self.cfg.loss_tolerance {
                drifted.push(i);
            }
            self.prev_loss.insert(id, best_loss);
        }
        if drifted.is_empty() {
            return;
        }
        // Cluster drifted parties by their loss vectors and spawn one model
        // per cluster (bounded by capacity).
        let points: Vec<Vec<f32>> = drifted.iter().map(|&i| losses[i].clone()).collect();
        let selection = choose_k(&points, self.cfg.max_clusters, rng);
        for group in selection.result.groups() {
            if group.is_empty() {
                continue;
            }
            let model_idx = if self.models.len() < self.cfg.max_models {
                // New model initialised from the group's current best model
                // (FedDrift's cluster-split initialisation).
                let seed_from = self.model_of(member_ids[drifted[group[0]]]);
                self.models.push(self.models[seed_from].clone());
                self.models.len() - 1
            } else {
                self.model_of(member_ids[drifted[group[0]]])
            };
            for &gi in &group {
                self.assignment.insert(member_ids[drifted[gi]], model_idx);
            }
        }
    }

    fn streams(&self) -> Vec<usize> {
        (0..self.models.len()).collect()
    }

    fn broadcast_state(&self, key: usize) -> Vec<f32> {
        self.models[key].clone()
    }

    fn train_config(&self, _key: usize) -> TrainConfig {
        self.train
    }

    fn cohort(
        &mut self,
        key: usize,
        live: &PopulationView<'_>,
        selector: &mut dyn ParticipantSelector,
        rng: &mut StdRng,
    ) -> Vec<PartyId> {
        let infos: Vec<_> = live
            .infos()
            .into_iter()
            .filter(|i| self.model_of(i.id) == key && i.num_samples > 0)
            .collect();
        if infos.is_empty() {
            return Vec::new();
        }
        let chosen: std::collections::BTreeSet<PartyId> = selector
            .select(&infos, self.participants_per_round, rng)
            .into_iter()
            .collect();
        infos
            .iter()
            .map(|i| i.id)
            .filter(|id| chosen.contains(id))
            .collect()
    }

    fn fold(
        &mut self,
        key: usize,
        ready: &[WeightedUpdate],
        server_lr: f32,
        policy: &FoldPolicy,
    ) -> Vec<UpdateVerdict> {
        if ready.is_empty() {
            return Vec::new();
        }
        let fold = aggregate_robust(&self.models[key], ready, server_lr, policy);
        // Keep each party's reference loss fresh so window-boundary drift
        // detection compares against the *trained* model. Quarantined
        // updates contributed nothing, so they don't refresh either.
        let quarantined: std::collections::BTreeSet<PartyId> =
            fold.quarantined().map(|v| v.party).collect();
        if let Some(params) = fold.params {
            self.models[key] = params;
        }
        for w in ready {
            if !quarantined.contains(&w.update.party) {
                self.prev_loss.insert(w.update.party, w.update.train_loss);
            }
        }
        fold.verdicts
    }

    fn eval(&self, parties: &PopulationView<'_>) -> f32 {
        evaluate_assigned_view(&self.spec, parties, |id| {
            self.models[self.model_of(id)].as_slice()
        })
    }

    fn model_index(&self, party: PartyId) -> usize {
        self.model_of(party)
    }

    fn num_models(&self) -> usize {
        self.models.len().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use shiftex_data::{Corruption, ImageShape, PrototypeGenerator, Regime};
    use shiftex_fl::{
        run_algorithm_round, Party, PopulationStore, RoundCtx, ScenarioEngine, ScenarioSpec,
    };

    fn make(n: usize, rng: &mut StdRng) -> (PrototypeGenerator, Vec<Party>) {
        let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 3, rng);
        let parties = (0..n)
            .map(|i| {
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(40, rng),
                    gen.generate_uniform(16, rng),
                )
            })
            .collect();
        (gen, parties)
    }

    fn rounds(alg: &mut FedDrift, parties: &[Party], n: usize, rng: &mut StdRng) {
        let store = PopulationStore::from_parties(parties.to_vec());
        let ids = store.party_ids();
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(1), &ids);
        for _ in 0..n {
            run_algorithm_round(alg, &mut RoundCtx::new(&store, &mut engine), rng);
        }
    }

    #[test]
    fn drift_spawns_new_model() {
        let mut rng = StdRng::seed_from_u64(0);
        let (gen, mut parties) = make(8, &mut rng);
        let spec = ArchSpec::mlp("t", 64, &[16], 3);
        let mut alg = FedDrift::new(spec, TrainConfig::default(), 8, FedDriftConfig::default());
        let init_store = PopulationStore::from_parties(parties.clone());
        alg.init(&init_store.view(init_store.party_ids()), &mut rng);
        rounds(&mut alg, &parties, 6, &mut rng);
        assert_eq!(alg.num_models(), 1);

        // Window 1: severe corruption for half the population.
        let regime = Regime::corrupted(Corruption::ImpulseNoise, 5);
        for (i, p) in parties.iter_mut().enumerate() {
            let (train, test) = if i < 4 {
                (
                    gen.generate_with_regime(40, &regime, &mut rng),
                    gen.generate_with_regime(16, &regime, &mut rng),
                )
            } else {
                (
                    gen.generate_uniform(40, &mut rng),
                    gen.generate_uniform(16, &mut rng),
                )
            };
            p.advance_window(train, test);
        }
        let store = PopulationStore::from_parties(parties.clone());
        alg.begin_window(1, &store.view(store.party_ids()), &mut rng);
        assert!(
            alg.num_models() >= 2,
            "loss regression should spawn a model, got {}",
            alg.num_models()
        );
        // Drifted parties moved off model 0.
        assert!(
            (0..4).any(|i| alg.model_index(PartyId(i)) != 0),
            "shifted parties should be re-routed"
        );
        // Every model is a live stream for the driver.
        assert_eq!(alg.streams().len(), alg.num_models());
    }

    #[test]
    fn stable_windows_keep_one_model() {
        let mut rng = StdRng::seed_from_u64(1);
        let (gen, mut parties) = make(6, &mut rng);
        let spec = ArchSpec::mlp("t", 64, &[16], 3);
        let mut alg = FedDrift::new(spec, TrainConfig::default(), 6, FedDriftConfig::default());
        let init_store = PopulationStore::from_parties(parties.clone());
        alg.init(&init_store.view(init_store.party_ids()), &mut rng);
        for w in 1..3 {
            for p in parties.iter_mut() {
                let train = gen.generate_uniform(40, &mut rng);
                let test = gen.generate_uniform(16, &mut rng);
                p.advance_window(train, test);
            }
            rounds(&mut alg, &parties, 3, &mut rng);
            let store = PopulationStore::from_parties(parties.clone());
            alg.begin_window(w, &store.view(store.party_ids()), &mut rng);
        }
        assert_eq!(alg.num_models(), 1, "no drift, no models");
    }

    #[test]
    fn model_cap_is_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let (gen, mut parties) = make(6, &mut rng);
        let spec = ArchSpec::mlp("t", 64, &[16], 3);
        let cfg = FedDriftConfig {
            max_models: 2,
            loss_tolerance: 0.01,
            ..Default::default()
        };
        let mut alg = FedDrift::new(spec, TrainConfig::default(), 6, cfg);
        let init_store = PopulationStore::from_parties(parties.clone());
        alg.init(&init_store.view(init_store.party_ids()), &mut rng);
        for w in 1..5 {
            let regime = Regime::corrupted(Corruption::GaussianNoise, (w as u8 % 5) + 1);
            for p in parties.iter_mut() {
                p.advance_window(
                    gen.generate_with_regime(40, &regime, &mut rng),
                    gen.generate_with_regime(16, &regime, &mut rng),
                );
            }
            let store = PopulationStore::from_parties(parties.clone());
            alg.begin_window(w, &store.view(store.party_ids()), &mut rng);
        }
        assert!(alg.num_models() <= 2);
    }
}
