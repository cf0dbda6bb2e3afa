//! Aggregator-side ShiftEx — the paper's **Algorithm 2**.
//!
//! Per window: receive party shift statistics, threshold them into the
//! shifted set, cluster shifted parties by latent profile, match clusters to
//! existing experts through the latent memory (or create new experts),
//! train each expert with FLIPS label-balanced cohorts, locally fine-tune
//! sub-γ clusters, and consolidate near-duplicate experts.
//!
//! [`ShiftEx`] has no runtime of its own: it implements
//! [`FederatedAlgorithm`] and is trained, like every baseline, by
//! [`shiftex_fl::run_algorithm_round`].

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use shiftex_cluster::choose_k;
use shiftex_detect::{CalibratedThresholds, EmbeddingProfile, RbfKernel, ThresholdCalibrator};
use shiftex_fl::{
    aggregate_robust, evaluate_assigned_view, FederatedAlgorithm, FlipsSelector, FoldPolicy,
    ParticipantSelector, PartyId, PartyInfo, PopulationView, UniformSelector, UpdateVerdict,
    WeightedUpdate,
};
use shiftex_nn::{train_local_params, ArchSpec, Sequential, TrainConfig};
use shiftex_tensor::Matrix;

use crate::config::ShiftExConfig;
use crate::consolidate::{consolidate_experts, MergeEvent};
use crate::memory::LatentMemory;
use crate::party::{compute_shift_stats, ShiftStats};
use crate::registry::{ExpertId, ExpertRegistry};
use crate::snapshot::{RegistrySnapshot, SNAPSHOT_VERSION};

/// Upper bound on the parties contributing embeddings to threshold
/// calibration. The split-half null needs a representative sample, not the
/// census: pooling every party's embeddings makes the median-heuristic
/// kernel fit quadratic in population size (hopeless at 10k+ parties), so
/// calibration strides evenly across the id space instead. Populations at
/// or below the cap use every party — bit-identical to the uncapped code.
const CALIBRATION_MAX_PARTIES: usize = 64;

/// What happened in one window of aggregator-side processing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window index (1-based; 0 is bootstrap).
    pub window: usize,
    /// Parties whose MMD exceeded `δ_cov`.
    pub cov_shifted: Vec<PartyId>,
    /// Parties whose JSD exceeded `δ_label`.
    pub label_shifted: Vec<PartyId>,
    /// Number of covariate clusters formed among shifted parties.
    pub num_clusters: usize,
    /// Experts created this window.
    pub created: Vec<ExpertId>,
    /// Experts reused via latent-memory matching this window.
    pub reused: Vec<ExpertId>,
    /// Parties sent to local fine-tuning (cluster smaller than γ).
    pub finetuned: Vec<PartyId>,
    /// Consolidation merges performed.
    pub merges: Vec<MergeEvent>,
    /// Post-window cohort sizes per expert (the expert-distribution figures).
    pub cohort_sizes: Vec<(ExpertId, usize)>,
    /// Threshold on MMD² in force this window.
    pub delta_cov: f32,
    /// Threshold on JSD in force this window.
    pub delta_label: f32,
    /// `(party, Δcov, Δlabel)` per reporting party, in view order.
    pub scores: Vec<(PartyId, f32, f32)>,
}

/// The ShiftEx middleware: expert registry + assignment map + detection
/// thresholds, orchestrated per window.
#[derive(Debug)]
pub struct ShiftEx {
    cfg: ShiftExConfig,
    spec: ArchSpec,
    registry: ExpertRegistry,
    assignment: BTreeMap<PartyId, ExpertId>,
    /// Personalised parameters for parties in sub-γ clusters.
    personal: BTreeMap<PartyId, Vec<f32>>,
    thresholds: Option<CalibratedThresholds>,
    /// Kernel fixed at calibration time; all MMD scores (detection, memory
    /// matching) use this bandwidth so they are comparable to `δ_cov`.
    kernel: Option<RbfKernel>,
    /// θ0 — the frozen encoder for embedding extraction and the template
    /// cloned for new experts (Algorithm 2 line 20). Fixed at the end of the
    /// W0 burn-in so profiles are comparable across windows, parties and
    /// the latent memory (the paper's "reliance on frozen encoders", §9).
    frozen_params: Vec<f32>,
    window: usize,
    last_report: Option<WindowReport>,
}

impl ShiftEx {
    /// Creates a ShiftEx instance with a freshly initialised model template.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ShiftExConfig, spec: ArchSpec, rng: &mut StdRng) -> Self {
        cfg.validate();
        let frozen_params = Sequential::build(&spec, rng).params_flat();
        Self {
            cfg,
            spec,
            registry: ExpertRegistry::new(),
            assignment: BTreeMap::new(),
            personal: BTreeMap::new(),
            thresholds: None,
            kernel: None,
            frozen_params,
            window: 0,
            last_report: None,
        }
    }

    /// The architecture every expert shares.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Configuration in force.
    pub fn config(&self) -> &ShiftExConfig {
        &self.cfg
    }

    /// Number of live experts.
    pub fn num_experts(&self) -> usize {
        self.registry.len().max(1)
    }

    /// The expert registry.
    pub fn registry(&self) -> &ExpertRegistry {
        &self.registry
    }

    /// Current party → expert assignment.
    pub fn assignments(&self) -> &BTreeMap<PartyId, ExpertId> {
        &self.assignment
    }

    /// Report of the most recent window.
    pub fn last_report(&self) -> Option<&WindowReport> {
        self.last_report.as_ref()
    }

    /// Current window index (0 until the first
    /// [`begin_window`](FederatedAlgorithm::begin_window)).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Captures the current serving state as a snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            version: SNAPSHOT_VERSION,
            window: self.window,
            registry: self.registry.clone(),
            assignment: self.assignment.iter().map(|(p, e)| (*p, *e)).collect(),
            personal: self.personal.iter().map(|(p, v)| (*p, v.clone())).collect(),
            thresholds: self.thresholds,
            kernel: self.kernel,
            frozen_params: self.frozen_params.clone(),
        }
    }

    /// Restores serving state from a snapshot: expert parameters and
    /// memories, assignments, thresholds, and the calibrated kernel and
    /// frozen encoder every later MMD is scored under.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's registry is empty.
    pub fn restore(&mut self, snapshot: RegistrySnapshot) {
        assert!(
            !snapshot.registry.is_empty(),
            "cannot restore an empty registry"
        );
        self.window = snapshot.window;
        self.registry = snapshot.registry;
        self.assignment = snapshot.assignment.into_iter().collect();
        self.personal = snapshot.personal.into_iter().collect();
        self.thresholds = snapshot.thresholds;
        self.kernel = snapshot.kernel;
        self.frozen_params = snapshot.frozen_params;
    }

    /// Party side (Algorithm 1): every member of `parties` with data
    /// "transmits" its shift statistics under `model`. Each member is
    /// materialized, summarised, and dropped in turn — only the
    /// O(profile_rows) statistics stay resident.
    fn shift_stats(
        &self,
        parties: &PopulationView<'_>,
        model: &Sequential,
        kernel: Option<&RbfKernel>,
        rng: &mut StdRng,
    ) -> Vec<ShiftStats> {
        parties
            .ids()
            .iter()
            .filter_map(|&id| {
                parties
                    .with_party(id, |p| {
                        compute_shift_stats(p, model, self.cfg.profile_rows, kernel, rng)
                    })
                    .flatten()
            })
            .collect()
    }

    /// Latent-memory matching, falling back to expert creation
    /// (§5.2.2 / §5.2.4).
    fn match_or_create(
        &mut self,
        pooled: &EmbeddingProfile,
        delta_cov: f32,
        report: &mut WindowReport,
    ) -> ExpertId {
        let epsilon = self.cfg.epsilon_factor * delta_cov;
        if !self.cfg.disable_memory {
            if let Some((id, score)) = self.registry.best_match(pooled, self.kernel.as_ref()) {
                if score <= epsilon {
                    let beta = self.cfg.memory_beta;
                    self.registry.live_mut(id).memory.update(pooled, beta);
                    report.reused.push(id);
                    return id;
                }
            }
        }
        if self.registry.len() >= self.cfg.max_experts {
            // Capacity guard: reuse the best match even above ε.
            let (id, _) = self
                .registry
                .best_match(pooled, self.kernel.as_ref())
                // lint:allow(panic): guarded — len() >= max_experts >= 1 means a best match exists
                .expect("registry non-empty");
            report.reused.push(id);
            return id;
        }
        let id = self
            .registry
            .create(self.frozen_params.clone(), pooled, self.window);
        report.created.push(id);
        id
    }

    /// The expert currently assigned to `party` (defaults to the first
    /// expert for parties never seen before).
    pub fn expert_of(&self, party: PartyId) -> ExpertId {
        self.assignment
            .get(&party)
            .copied()
            .unwrap_or_else(|| self.registry.ids()[0])
    }

    fn refresh_cohort_sizes(&mut self) {
        let mut counts: BTreeMap<ExpertId, usize> = BTreeMap::new();
        for eid in self.assignment.values() {
            *counts.entry(*eid).or_default() += 1;
        }
        for e in self.registry.iter_mut() {
            e.cohort_size = counts.get(&e.id).copied().unwrap_or(0);
        }
    }

    /// Reads each party's previous (stable) window at most once; returns the
    /// thresholds in force. At window 1 it freezes θ0 at the first expert's
    /// trained parameters and rebuilds that expert's latent memory in the
    /// frozen embedding space. While no thresholds are in force, the same
    /// embeddings calibrate them and the kernel.
    fn stable_window(
        &mut self,
        parties: &PopulationView<'_>,
        rng: &mut StdRng,
    ) -> CalibratedThresholds {
        if let Some((delta_cov, delta_label)) = self.cfg.delta_cov.zip(self.cfg.delta_label) {
            self.thresholds = Some(CalibratedThresholds {
                delta_cov,
                delta_label,
            });
        }
        let freeze = self.window == 1;
        if let (Some(t), false) = (self.thresholds, freeze) {
            return t;
        }
        let expert0 = self.registry.ids()[0];
        if freeze {
            self.frozen_params = self.registry.live(expert0).params.clone();
        }
        let encoder = Sequential::from_params(&self.spec, &self.frozen_params);
        let calibrate = self.thresholds.is_none();
        let rows = self.cfg.profile_rows;
        // Calibration reads every `stride`-th party: at most
        // [`CALIBRATION_MAX_PARTIES`] contribute.
        let ids = parties.ids();
        let stride = ids.len().div_ceil(CALIBRATION_MAX_PARTIES).max(1);
        let mut profiles: Vec<EmbeddingProfile> = Vec::new();
        let mut mats: Vec<Matrix> = Vec::new();
        let mut hists: Vec<Vec<f32>> = Vec::new();
        let mut count = 0usize;
        for (i, &id) in ids.iter().enumerate() {
            let calibrates = calibrate && i % stride == 0;
            if !freeze && !calibrates {
                continue;
            }
            parties.with_party(id, |p| {
                let prev = p.prev_train().filter(|prev| !prev.is_empty());
                let data = prev.unwrap_or_else(|| p.train());
                if data.is_empty() {
                    return;
                }
                let emb = encoder.embed(data.features());
                if freeze {
                    profiles.push(EmbeddingProfile::from_embeddings(&emb, rows, rng));
                }
                // The null is learned from the previous window only.
                if let Some(prev) = prev.filter(|_| calibrates) {
                    let idx: Vec<usize> = (0..emb.rows().min(rows)).collect();
                    mats.push(emb.select_rows(&idx));
                    hists.push(prev.label_histogram());
                    count = count.max(prev.len());
                }
            });
        }
        if !profiles.is_empty() {
            let refs: Vec<&EmbeddingProfile> = profiles.iter().collect();
            let pooled = EmbeddingProfile::pool(&refs, rows * 2, rng);
            self.registry.live_mut(expert0).memory = LatentMemory::from_profile(&pooled);
        }
        if let Some(t) = self.thresholds {
            return t;
        }
        let (mut t, kernel) = ThresholdCalibrator::new(self.cfg.calibration_p_value, 40, 32)
            .calibrate_per_party(&mats, &hists, count, rng);
        self.kernel = kernel;
        t.delta_cov = self.cfg.delta_cov.unwrap_or(t.delta_cov);
        t.delta_label = self.cfg.delta_label.unwrap_or(t.delta_label);
        self.thresholds = Some(t);
        t
    }
}

/// ShiftEx under the unified algorithm API: one update stream per expert
/// (stream key = expert id, stable across merges), per-expert FLIPS
/// cohorts, and personalised parties taking their local step in the
/// post-round hook. Cohort selection is internal — the driver's pluggable
/// selector is not consulted (the paper's design: label-balanced FLIPS per
/// expert).
impl FederatedAlgorithm for ShiftEx {
    fn name(&self) -> &str {
        "ShiftEx"
    }

    fn arch(&self) -> &ArchSpec {
        &self.spec
    }

    /// Bootstrap enrolment (§4.1): creates expert 0 from a fresh template,
    /// assigns every party to it, and pools the initial profiles into its
    /// memory. The W0 burn-in rounds are the driver's job.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is empty.
    fn init(&mut self, parties: &PopulationView<'_>, rng: &mut StdRng) {
        // Rebuild the model template from *this run's* RNG stream (the
        // instance may have been constructed with a throwaway seed).
        *self = ShiftEx::new(self.cfg.clone(), self.spec.clone(), rng);
        assert!(!parties.is_empty(), "bootstrap needs parties");
        let template = Sequential::from_params(&self.spec, &self.frozen_params);
        let stats = self.shift_stats(parties, &template, None, rng);
        let profiles: Vec<&EmbeddingProfile> = stats.iter().map(|s| &s.profile).collect();
        let pooled = EmbeddingProfile::pool(&profiles, self.cfg.profile_rows * 2, rng);
        let expert0 = self.registry.create(self.frozen_params.clone(), &pooled, 0);
        for &id in parties.ids() {
            self.assignment.insert(id, expert0);
        }
        self.refresh_cohort_sizes();
    }

    /// Algorithm 2 body for one new window; the outcome is kept as
    /// [`ShiftEx::last_report`].
    fn begin_window(&mut self, _window: usize, parties: &PopulationView<'_>, rng: &mut StdRng) {
        // Only enrolled members publish shift statistics for the window; a
        // fully churned-out boundary processes nothing.
        if parties.is_empty() {
            return;
        }
        self.window += 1;
        // --- Encoder, thresholds and kernel come from the previous (stable)
        // window before any score is computed, so every MMD below shares
        // the frozen embedding space and the calibrated bandwidth.
        let thresholds = self.stable_window(parties, rng);

        // --- Party side (Algorithm 1). All embeddings come from the frozen
        // encoder so windows, parties and the latent memory share one
        // comparable embedding space.
        let encoder = Sequential::from_params(&self.spec, &self.frozen_params);
        let all_stats = self.shift_stats(parties, &encoder, self.kernel.as_ref(), rng);

        // --- Detection.
        let cov_shifted: Vec<PartyId> = all_stats
            .iter()
            .filter(|s| s.mmd > thresholds.delta_cov)
            .map(|s| s.party)
            .collect();
        let label_shifted: Vec<PartyId> = all_stats
            .iter()
            .filter(|s| s.jsd > thresholds.delta_label)
            .map(|s| s.party)
            .collect();
        let mut shifted: Vec<PartyId> = cov_shifted.clone();
        for id in &label_shifted {
            if !shifted.contains(id) {
                shifted.push(*id);
            }
        }

        let mut report = WindowReport {
            window: self.window,
            cov_shifted,
            label_shifted,
            num_clusters: 0,
            created: Vec::new(),
            reused: Vec::new(),
            finetuned: Vec::new(),
            merges: Vec::new(),
            cohort_sizes: Vec::new(),
            delta_cov: thresholds.delta_cov,
            delta_label: thresholds.delta_label,
            scores: all_stats.iter().map(|s| (s.party, s.mmd, s.jsd)).collect(),
        };

        let stats_by_id: BTreeMap<PartyId, &ShiftStats> =
            all_stats.iter().map(|s| (s.party, s)).collect();

        if !shifted.is_empty() {
            // --- Cluster shifted parties on their latent profile means.
            let points: Vec<Vec<f32>> = shifted
                .iter()
                .map(|id| stats_by_id[id].profile.mean().to_vec())
                .collect();
            let selection = choose_k(&points, self.cfg.max_clusters_per_window, rng);
            let groups = selection.result.groups();
            report.num_clusters = groups.len();

            for group in &groups {
                let members: Vec<PartyId> = group.iter().map(|&i| shifted[i]).collect();
                if members.is_empty() {
                    continue;
                }
                let profiles: Vec<&EmbeddingProfile> =
                    members.iter().map(|id| &stats_by_id[id].profile).collect();
                let pooled = EmbeddingProfile::pool(&profiles, self.cfg.profile_rows * 2, rng);

                if members.len() >= self.cfg.gamma_min_cluster {
                    let target = self.match_or_create(&pooled, thresholds.delta_cov, &mut report);
                    for id in &members {
                        self.assignment.insert(*id, target);
                        self.personal.remove(id);
                    }
                } else {
                    // Sub-γ cluster: local fine-tuning on the assigned expert.
                    for id in &members {
                        let base = self.personal.get(id).cloned().unwrap_or_else(|| {
                            self.registry.live(self.expert_of(*id)).params.clone()
                        });
                        let mut cfg = self.cfg.train;
                        cfg.epochs = self.cfg.finetune_epochs;
                        // Members are drawn from `parties`' own stats lines
                        // above, so the lookup always lands.
                        let fit = parties.with_party(*id, |party| {
                            train_local_params(
                                &self.spec,
                                &base,
                                party.train_features(),
                                party.train_labels(),
                                &cfg,
                                rng,
                            )
                        });
                        if let Some(fit) = fit {
                            self.personal.insert(*id, fit.params);
                            report.finetuned.push(*id);
                        }
                    }
                }
            }
        }

        // --- Consolidation.
        self.refresh_cohort_sizes();
        if !self.cfg.disable_consolidation {
            let merges = consolidate_experts(
                &mut self.registry,
                self.cfg.tau,
                self.window,
                self.cfg.epsilon_factor * thresholds.delta_cov,
                self.kernel.as_ref(),
            );
            for m in &merges {
                for target in self.assignment.values_mut() {
                    if *target == m.removed {
                        *target = m.kept;
                    }
                }
            }
            report.merges = merges;
            self.refresh_cohort_sizes();
        }

        report.cohort_sizes = self
            .registry
            .iter()
            .map(|e| (e.id, e.cohort_size))
            .collect();

        self.last_report = Some(report);
    }

    fn streams(&self) -> Vec<usize> {
        self.registry.ids().iter().map(|id| id.0 as usize).collect()
    }

    fn broadcast_state(&self, key: usize) -> Vec<f32> {
        self.registry.live(ExpertId(key as u32)).params.clone()
    }

    fn train_config(&self, _key: usize) -> TrainConfig {
        self.cfg.train
    }

    /// Selects this round's cohort for expert `key` from the live view, in
    /// selection order with empty-train parties dropped. Only metadata
    /// ([`PartyInfo`]) is consulted — no party materializes here.
    fn cohort(
        &mut self,
        key: usize,
        parties: &PopulationView<'_>,
        _selector: &mut dyn ParticipantSelector,
        rng: &mut StdRng,
    ) -> Vec<PartyId> {
        let expert_id = ExpertId(key as u32);
        let cohort_ids: Vec<PartyId> = self
            .assignment
            .iter()
            .filter(|(pid, &eid)| {
                eid == expert_id && !self.personal.contains_key(pid) && parties.contains(**pid)
            })
            .map(|(pid, _)| *pid)
            .collect();
        if cohort_ids.is_empty() {
            return Vec::new();
        }
        let infos: Vec<PartyInfo> = cohort_ids
            .iter()
            .filter_map(|id| parties.info(*id))
            .collect();
        let chosen: Vec<PartyId> = if self.cfg.uniform_selection {
            UniformSelector.select(&infos, self.cfg.participants_per_round, rng)
        } else {
            let mut flips = FlipsSelector::fit(&infos, 4, rng);
            flips.select(&infos, self.cfg.participants_per_round, rng)
        };
        chosen
            .into_iter()
            .filter(|id| parties.info(*id).is_some_and(|info| info.num_samples > 0))
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
        let expert = self.registry.live_mut(ExpertId(key as u32));
        let fold = aggregate_robust(&expert.params, ready, server_lr, policy);
        if let Some(params) = fold.params {
            expert.params = params;
        }
        fold.verdicts
    }

    /// Personalised parties take one local continuation step.
    fn end_round(&mut self, parties: &PopulationView<'_>, rng: &mut StdRng) {
        let personal_ids: Vec<PartyId> = self.personal.keys().copied().collect();
        for id in personal_ids {
            let base = self.personal[&id].clone();
            let mut cfg = self.cfg.train;
            cfg.epochs = 1;
            let fit = parties
                .with_party(id, |party| {
                    if party.train().is_empty() {
                        return None;
                    }
                    Some(train_local_params(
                        &self.spec,
                        &base,
                        party.train_features(),
                        party.train_labels(),
                        &cfg,
                        rng,
                    ))
                })
                .flatten();
            if let Some(fit) = fit {
                self.personal.insert(id, fit.params);
            }
        }
    }

    fn eval(&self, parties: &PopulationView<'_>) -> f32 {
        evaluate_assigned_view(&self.spec, parties, |id| {
            if let Some(p) = self.personal.get(&id) {
                p.as_slice()
            } else {
                &self.registry.live(self.expert_of(id)).params
            }
        })
    }

    fn model_index(&self, party: PartyId) -> usize {
        let eid = self.expert_of(party);
        self.registry
            .ids()
            .iter()
            .position(|&id| id == eid)
            .unwrap_or(0)
    }

    fn num_models(&self) -> usize {
        self.num_experts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use shiftex_data::{Corruption, Dataset, ImageShape, PrototypeGenerator, Regime};
    use shiftex_fl::{
        run_algorithm_round, AsyncSpec, ChurnSpec, CommLedger, LatePolicy, Party, PopulationStore,
        RoundCtx, ScenarioEngine, ScenarioSpec, StragglerSpec,
    };

    const SAMPLES: usize = 48;

    /// A hand-built federation driven the way every caller drives ShiftEx:
    /// `init`, `run_algorithm_round`, `begin_window`, `eval`.
    struct Fed {
        gen: PrototypeGenerator,
        store: PopulationStore,
        engine: ScenarioEngine,
        shiftex: ShiftEx,
        rng: StdRng,
    }

    impl Fed {
        /// `n` clear-regime parties enrolled on expert 0 under the clean
        /// synchronous protocol.
        fn new(n: usize) -> Self {
            let mut rng = StdRng::seed_from_u64(42);
            let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 4, &mut rng);
            let parties: Vec<Party> = (0..n)
                .map(|i| {
                    Party::new(
                        PartyId(i),
                        gen.generate_uniform(SAMPLES, &mut rng),
                        gen.generate_uniform(SAMPLES / 2, &mut rng),
                    )
                })
                .collect();
            let store = PopulationStore::from_parties(parties);
            let engine = ScenarioEngine::new(ScenarioSpec::sync(0), &store.party_ids());
            let cfg = ShiftExConfig {
                participants_per_round: n,
                ..ShiftExConfig::default()
            };
            let mut shiftex = ShiftEx::new(cfg, ArchSpec::mlp("t", 64, &[24, 12], 4), &mut rng);
            shiftex.init(&store.view(store.party_ids()), &mut rng);
            Self {
                gen,
                store,
                engine,
                shiftex,
                rng,
            }
        }

        fn rounds(&mut self, n: usize) {
            for _ in 0..n {
                run_algorithm_round(
                    &mut self.shiftex,
                    &mut RoundCtx::new(&self.store, &mut self.engine),
                    &mut self.rng,
                );
            }
        }

        /// Advances every party one window: parties in `shifted` draw from
        /// `regime`, the rest stay clear.
        fn advance(&mut self, regime: &Regime, shifted: std::ops::Range<usize>) {
            for id in self.store.party_ids() {
                let (train, test) = if shifted.contains(&id.0) {
                    (
                        self.gen
                            .generate_with_regime(SAMPLES, regime, &mut self.rng),
                        self.gen
                            .generate_with_regime(SAMPLES / 2, regime, &mut self.rng),
                    )
                } else {
                    (
                        self.gen.generate_uniform(SAMPLES, &mut self.rng),
                        self.gen.generate_uniform(SAMPLES / 2, &mut self.rng),
                    )
                };
                self.store
                    .with_party_mut(id, |p| p.advance_window(train, test));
            }
        }

        /// Runs the window boundary and returns its report.
        fn window(&mut self) -> WindowReport {
            let view = self.store.view(self.store.party_ids());
            self.shiftex
                .begin_window(self.shiftex.window() + 1, &view, &mut self.rng);
            self.shiftex.last_report().expect("window ran").clone()
        }

        fn eval(&self) -> f32 {
            self.shiftex.eval(&self.store.view(self.store.party_ids()))
        }
    }

    fn fog() -> Regime {
        Regime::corrupted(Corruption::Fog, 4)
    }

    #[test]
    fn bootstrap_creates_single_expert_and_assigns_all() {
        let mut fed = Fed::new(6);
        fed.rounds(2);
        assert_eq!(fed.shiftex.num_experts(), 1);
        assert_eq!(fed.shiftex.assignments().len(), 6);
    }

    #[test]
    fn stable_window_creates_no_experts() {
        let mut fed = Fed::new(6);
        fed.rounds(3);
        fed.advance(&Regime::clear(), 0..0);
        let report = fed.window();
        assert!(
            report.created.is_empty(),
            "stable window spawned {:?}",
            report.created
        );
        assert_eq!(fed.shiftex.num_experts(), 1);
    }

    #[test]
    fn covariate_shift_spawns_expert_for_shifted_group() {
        let mut fed = Fed::new(8);
        fed.rounds(3);
        fed.advance(&fog(), 0..4);
        let report = fed.window();
        assert!(
            report.cov_shifted.len() >= 3,
            "expected most of the fog group detected, got {:?}",
            report.cov_shifted
        );
        assert_eq!(report.created.len(), 1, "one new expert for the fog regime");
        assert_eq!(fed.shiftex.num_experts(), 2);
        // The shifted parties point at the new expert.
        let new_expert = report.created[0];
        for i in 0..4 {
            assert_eq!(fed.shiftex.expert_of(PartyId(i)), new_expert);
        }
    }

    #[test]
    fn recurring_regime_reuses_expert_via_latent_memory() {
        let mut fed = Fed::new(8);
        fed.rounds(3);

        // W1: fog arrives for half the parties → new expert.
        fed.advance(&fog(), 0..4);
        let r1 = fed.window();
        assert_eq!(r1.created.len(), 1);
        let fog_expert = r1.created[0];
        fed.rounds(2);

        // W2: everyone clear again → shifted-back parties should go to an
        // existing expert (the clear expert 0), not a new one.
        fed.advance(&Regime::clear(), 0..0);
        let r2 = fed.window();
        assert!(r2.created.is_empty(), "clear regime must reuse: {r2:?}");
        fed.rounds(2);

        // W3: fog recurs for a different subset → reuse the fog expert.
        fed.advance(&fog(), 4..8);
        let r3 = fed.window();
        assert!(
            r3.created.is_empty() && !r3.reused.is_empty(),
            "recurring fog should reuse the fog expert: {r3:?}"
        );
        assert!(
            r3.reused.contains(&fog_expert) || fed.shiftex.registry().get(fog_expert).is_none(),
            "the fog expert (or its consolidation survivor) should be reused: {r3:?}"
        );
    }

    #[test]
    fn training_rounds_improve_shifted_accuracy() {
        let mut fed = Fed::new(8);
        fed.rounds(5);
        fed.advance(&fog(), 0..4);
        fed.window();
        let before = fed.eval();
        fed.rounds(6);
        let after = fed.eval();
        assert!(
            after > before,
            "training should recover accuracy: {before} -> {after}"
        );
    }

    /// FNV-1a over the bit patterns of every live expert's parameters.
    fn expert_fingerprint(shiftex: &ShiftEx) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for expert in shiftex.registry().iter() {
            for x in &expert.params {
                for byte in x.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn driver_rounds_are_bit_pinned() {
        // `to_bits` fingerprints of ShiftEx under the one round driver: any
        // change to the RNG draw order of `init` / `cohort` / `begin_window`
        // or to the fold arithmetic moves them.
        let mut fed = Fed::new(8);
        fed.rounds(3);
        assert_eq!(
            expert_fingerprint(&fed.shiftex),
            0xbf7a_740a_9767_df35,
            "one expert"
        );

        // Two experts plus the window-boundary machinery in between.
        fed.advance(&fog(), 0..4);
        fed.window();
        assert_eq!(fed.shiftex.num_experts(), 2);
        fed.rounds(3);
        assert_eq!(
            expert_fingerprint(&fed.shiftex),
            0x53bf_0c3c_94aa_37b9,
            "two experts"
        );
    }

    #[test]
    fn restore_resumes_detection_bit_identically() {
        // Two same-seed runs; one is interrupted by snapshot → JSON → fresh
        // aggregator → restore. Everything downstream must agree to the bit:
        // the restored run scores MMDs under the calibrated kernel and the
        // frozen encoder, not under whatever expert 0 has since become.
        let run = |interrupt: bool| {
            let mut fed = Fed::new(8);
            fed.rounds(3);
            fed.advance(&fog(), 0..4);
            fed.window();
            fed.rounds(2);
            if interrupt {
                let json = fed.shiftex.snapshot().to_json().expect("serialises");
                let mut fresh = ShiftEx::new(
                    fed.shiftex.config().clone(),
                    fed.shiftex.spec().clone(),
                    &mut StdRng::seed_from_u64(99),
                );
                fresh.restore(RegistrySnapshot::from_json(&json).expect("parses"));
                fed.shiftex = fresh;
            }
            fed.advance(&Regime::corrupted(Corruption::Snow, 4), 0..4);
            let report = fed.window();
            let mmds: Vec<u32> = report.scores.iter().map(|s| s.1.to_bits()).collect();
            fed.rounds(1);
            (report, mmds, expert_fingerprint(&fed.shiftex))
        };
        let (straight, restored) = (run(false), run(true));
        assert_eq!(straight.0, restored.0, "window report");
        assert_eq!(straight.1, restored.1, "party MMD bits");
        assert_eq!(straight.2, restored.2, "expert fingerprints");
    }

    #[test]
    fn restore_without_thresholds_calibrates_again() {
        let mut fed = Fed::new(6);
        fed.rounds(2);
        fed.advance(&Regime::clear(), 0..0);
        fed.window();
        let mut snapshot = fed.shiftex.snapshot();
        snapshot.thresholds = None;
        fed.shiftex.restore(snapshot);
        fed.advance(&fog(), 0..3);
        let report = fed.window();
        assert!(report.delta_cov > 0.0 && report.delta_label > 0.0);
    }

    #[test]
    fn party_with_empty_window_reports_nothing_and_keeps_its_expert() {
        let mut fed = Fed::new(6);
        fed.rounds(2);
        fed.advance(&fog(), 0..3);
        let empty = PartyId(5);
        let expert = fed.shiftex.expert_of(empty);
        let blank = || Dataset::empty(4, ImageShape::new(1, 8, 8));
        fed.store
            .with_party_mut(empty, |p| p.advance_window(blank(), blank()));
        let report = fed.window();
        assert_eq!(report.scores.len(), 5);
        assert!(report.scores.iter().all(|&(id, _, _)| id != empty));
        fed.rounds(2);
        assert_eq!(fed.shiftex.expert_of(empty), expert);
    }

    #[test]
    fn boundary_reads_each_party_once_per_pass() {
        // Window 1 reads every party twice — the stable-window pass and the
        // shift statistics — plus once per fine-tuned party; later windows
        // skip the stable-window pass.
        let n = 8;
        let mut fed = Fed::new(n);
        let reads = |fed: &Fed| fed.store.stats().materializations;
        fed.rounds(2);
        fed.advance(&fog(), 0..4);
        let before = reads(&fed);
        let report = fed.window();
        assert_eq!(
            reads(&fed) - before,
            (2 * n + report.finetuned.len()) as u64
        );
        fed.rounds(2);
        fed.advance(&Regime::clear(), 0..0);
        let before = reads(&fed);
        let report = fed.window();
        assert_eq!(reads(&fed) - before, (n + report.finetuned.len()) as u64);
    }

    #[test]
    fn max_experts_cap_is_respected() {
        let mut fed = Fed::new(8);
        fed.shiftex.cfg.max_experts = 2;
        fed.rounds(2);
        for (w, corruption) in [
            Corruption::Fog,
            Corruption::Snow,
            Corruption::ImpulseNoise,
            Corruption::Brightness,
        ]
        .into_iter()
        .enumerate()
        {
            let regime =
                Regime::corrupted(corruption, 5).with_id(shiftex_data::RegimeId(w as u32 + 1));
            fed.advance(&regime, 0..4);
            fed.window();
        }
        assert!(fed.shiftex.num_experts() <= 2);
    }

    #[test]
    fn scenario_rounds_train_experts_under_churn() {
        let spec = ScenarioSpec::sync(5)
            .with_churn(ChurnSpec::dropout_only(0.2))
            .with_stragglers(StragglerSpec::uniform(0.8, 1.0, LatePolicy::Defer))
            .with_async(AsyncSpec {
                min_buffer: 2,
                staleness_alpha: 0.5,
                max_staleness: 3,
                server_lr: 1.0,
            });
        // W0 and the fog window run clean; the churned engine takes over
        // for the rounds under test.
        let mut fed = Fed::new(8);
        fed.rounds(3);
        fed.advance(&fog(), 0..4);
        fed.window();
        assert_eq!(fed.shiftex.num_experts(), 2);

        let mut engine = ScenarioEngine::new(spec, &fed.store.party_ids());
        let ledger = CommLedger::new();
        let before = fed.eval();
        let params = |shiftex: &ShiftEx| -> Vec<Vec<f32>> {
            shiftex
                .registry()
                .iter()
                .map(|e| e.params.clone())
                .collect()
        };
        let params_before = params(&fed.shiftex);
        let mut ctx = RoundCtx::new(&fed.store, &mut engine).with_ledger(&ledger);
        for _ in 0..6 {
            run_algorithm_round(&mut fed.shiftex, &mut ctx, &mut fed.rng);
        }
        let after = fed.eval();
        assert_ne!(
            params_before,
            params(&fed.shiftex),
            "experts must keep training under churned async rounds"
        );
        let stats = engine.stats();
        assert!(stats.delivered > 0, "some updates aggregated: {stats:?}");
        assert!(
            stats.deferred > 0,
            "uniform(0,1.6) delays vs deadline 1.0 must defer some: {stats:?}"
        );
        assert!(
            after >= before - 0.1,
            "accuracy must not collapse under churn: {before} -> {after}"
        );
        assert_eq!(
            ledger.totals().aborted_messages,
            stats.dropped_churn + stats.dropped_late
        );
    }

    #[test]
    fn algorithm_interface_reports_models() {
        let mut fed = Fed::new(6);
        assert_eq!(FederatedAlgorithm::name(&fed.shiftex), "ShiftEx");
        assert_eq!(fed.shiftex.num_models(), 1);
        assert_eq!(fed.shiftex.streams(), vec![0]);
        fed.advance(&fog(), 0..3);
        fed.window();
        for id in fed.store.party_ids() {
            let idx = fed.shiftex.model_index(id);
            assert!(idx < fed.shiftex.num_models());
        }
        // Stream keys are expert ids — stable even when experts merge.
        for key in fed.shiftex.streams() {
            assert!(!fed.shiftex.broadcast_state(key).is_empty());
        }
    }
}
