//! Aggregator-side ShiftEx — the paper's **Algorithm 2**.
//!
//! Per window: receive party shift statistics, threshold them into the
//! shifted set, cluster shifted parties by latent profile, match clusters to
//! existing experts through the latent memory (or create new experts),
//! train each expert with FLIPS label-balanced cohorts, locally fine-tune
//! sub-γ clusters, and consolidate near-duplicate experts.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use shiftex_cluster::choose_k;
use shiftex_detect::{CalibratedThresholds, EmbeddingProfile, RbfKernel, ThresholdCalibrator};
use shiftex_fl::{
    aggregate_robust, local_update, FederatedAlgorithm, FoldPolicy, ModelUpdate,
    ParticipantSelector, Party, PartyId, PartyInfo, PopulationView, UniformSelector, UpdateVerdict,
    WeightedUpdate,
};
use shiftex_flips::FlipsSelector;
use shiftex_nn::{fedavg, train_local_params, ArchSpec, Sequential, TrainConfig};
use shiftex_tensor::Matrix;

use crate::config::ShiftExConfig;
use crate::consolidate::{consolidate_experts, MergeEvent};
use crate::party::{compute_shift_stats, ShiftStats};
use crate::registry::{ExpertId, ExpertRegistry};
use crate::strategy::{
    build_model, evaluate_assigned_refs, evaluate_assigned_view, MemberAccess, SliceAccess,
};

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
    /// θ0 — the bootstrap template cloned for new experts (Algorithm 2
    /// line 20).
    bootstrap_params: Vec<f32>,
    /// Frozen encoder parameters for embedding extraction. Fixed at the end
    /// of the bootstrap phase so profiles are comparable across windows,
    /// parties and the latent memory (the paper's "reliance on frozen
    /// encoders", §9).
    encoder_params: Vec<f32>,
    window: usize,
    stats: BTreeMap<PartyId, ShiftStats>,
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
        let bootstrap_params = Sequential::build(&spec, rng).params_flat();
        Self {
            cfg,
            spec,
            registry: ExpertRegistry::new(),
            assignment: BTreeMap::new(),
            personal: BTreeMap::new(),
            thresholds: None,
            kernel: None,
            encoder_params: bootstrap_params.clone(),
            bootstrap_params,
            window: 0,
            stats: BTreeMap::new(),
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

    /// Calibrated thresholds, once available.
    pub fn thresholds(&self) -> Option<CalibratedThresholds> {
        self.thresholds
    }

    /// Report of the most recent window.
    pub fn last_report(&self) -> Option<&WindowReport> {
        self.last_report.as_ref()
    }

    /// The frozen encoder parameters used for embedding extraction
    /// (fixed at the end of the bootstrap phase).
    pub fn encoder_params(&self) -> &[f32] {
        &self.encoder_params
    }

    /// Current window index (0 until the first `process_window`).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Personalised (sub-γ fine-tuned) parameters currently in force.
    pub fn personal_params(&self) -> impl Iterator<Item = (PartyId, &[f32])> {
        self.personal.iter().map(|(p, v)| (*p, v.as_slice()))
    }

    /// Restores serving state (used by [`crate::snapshot`]).
    pub(crate) fn restore_parts(
        &mut self,
        window: usize,
        registry: ExpertRegistry,
        assignment: Vec<(PartyId, ExpertId)>,
        personal: Vec<(PartyId, Vec<f32>)>,
        thresholds: Option<CalibratedThresholds>,
    ) {
        assert!(!registry.is_empty(), "cannot restore an empty registry");
        self.window = window;
        // The first expert's parameters double as encoder/θ0 on restore;
        // they were frozen from the same model at snapshot time.
        let first = registry.ids()[0];
        let params = registry.live(first).params.clone();
        self.encoder_params = params.clone();
        self.bootstrap_params = params;
        self.registry = registry;
        self.assignment = assignment.into_iter().collect();
        self.personal = personal.into_iter().collect();
        self.thresholds = thresholds;
        self.stats.clear();
        self.kernel = None; // re-derived at the next calibration
    }

    /// The most recent shift statistics per party (diagnostics, TEE export).
    pub fn party_stats(&self) -> impl Iterator<Item = &ShiftStats> {
        self.stats.values()
    }

    /// Bootstrap phase (§4.1): creates expert 0 from the template, assigns
    /// every party to it, runs `rounds` FLIPS-balanced federated rounds, and
    /// records each party's initial profile.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is empty.
    pub fn bootstrap(&mut self, parties: &[Party], rounds: usize, rng: &mut StdRng) {
        self.bootstrap_impl(&SliceAccess::new(parties), rounds, rng);
    }

    fn bootstrap_impl<M: MemberAccess>(&mut self, parties: &M, rounds: usize, rng: &mut StdRng) {
        let ids = parties.member_ids();
        assert!(!ids.is_empty(), "bootstrap needs parties");
        self.window = 0;
        // Provisional stats (for FLIPS label histograms during the burn-in
        // rounds) under the untrained template. Parties are visited one at a
        // time so a lazy population only ever has one resident member here.
        let template = build_model(&self.spec, &self.bootstrap_params);
        let provisional: Vec<ShiftStats> = ids
            .iter()
            .filter_map(|&id| {
                parties.with_member(id, |p| {
                    compute_shift_stats(p, &template, self.cfg.profile_rows, None, rng)
                })
            })
            .collect();
        let profile_refs: Vec<&EmbeddingProfile> = provisional.iter().map(|s| &s.profile).collect();
        let pooled = EmbeddingProfile::pool(&profile_refs, self.cfg.profile_rows * 2, rng);
        let expert0 = self
            .registry
            .create(self.bootstrap_params.clone(), &pooled, 0);
        for &id in &ids {
            self.assignment.insert(id, expert0);
        }
        for s in provisional {
            self.stats.insert(s.party, s);
        }
        self.refresh_cohort_sizes();
        for _ in 0..rounds {
            self.train_round_impl(parties, rng);
        }
        // Freeze the encoder at the bootstrap-trained global model and keep
        // θ0 = that model as the clone template for new experts.
        let trained = self.registry.live(expert0).params.clone();
        self.bootstrap_params = trained.clone();
        self.encoder_params = trained;

        // Recompute stats and the expert-0 latent signature under the frozen
        // encoder so every later comparison shares one embedding space.
        let encoder = build_model(&self.spec, &self.encoder_params);
        let final_stats: Vec<ShiftStats> = ids
            .iter()
            .filter_map(|&id| {
                parties.with_member(id, |p| {
                    compute_shift_stats(p, &encoder, self.cfg.profile_rows, None, rng)
                })
            })
            .collect();
        let profile_refs: Vec<&EmbeddingProfile> = final_stats.iter().map(|s| &s.profile).collect();
        let pooled = EmbeddingProfile::pool(&profile_refs, self.cfg.profile_rows * 2, rng);
        self.registry.live_mut(expert0).memory = crate::memory::LatentMemory::from_profile(&pooled);
        self.stats = final_stats.into_iter().map(|s| (s.party, s)).collect();
    }

    /// Processes one new window (Algorithm 2 body). Parties' data must have
    /// been advanced first.
    pub fn process_window(
        &mut self,
        parties: &[impl Borrow<Party>],
        rng: &mut StdRng,
    ) -> WindowReport {
        self.process_window_impl(&SliceAccess::new(parties), rng)
    }

    fn process_window_impl<M: MemberAccess>(
        &mut self,
        parties: &M,
        rng: &mut StdRng,
    ) -> WindowReport {
        self.window += 1;
        if self.window == 1 {
            // End of the burn-in: W0 training (however it was driven — via
            // `bootstrap(…, rounds)` or external `train_round` calls) is
            // complete, so *now* freeze the encoder and the θ0 clone
            // template at the trained global model, and re-tag expert 0's
            // latent memory in the frozen embedding space.
            self.freeze_encoder_impl(parties, rng);
        }
        // --- Thresholds and kernel: calibrate lazily from the previous
        // (stable) window before any score is computed, so every MMD below
        // shares the calibrated bandwidth.
        let thresholds = self.ensure_thresholds_impl(parties, rng);

        // --- Party side (Algorithm 1): compute and "transmit" statistics.
        // All embeddings come from the frozen encoder so windows, parties
        // and the latent memory share one comparable embedding space. Each
        // member is materialized, summarised, and dropped in turn — only
        // the O(profile_rows) statistics stay resident.
        let encoder = build_model(&self.spec, &self.encoder_params);
        let kernel = self.kernel;
        let all_stats: Vec<ShiftStats> = parties
            .member_ids()
            .into_iter()
            .filter_map(|id| {
                parties.with_member(id, |party| {
                    compute_shift_stats(
                        party,
                        &encoder,
                        self.cfg.profile_rows,
                        kernel.as_ref(),
                        rng,
                    )
                })
            })
            .collect();

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
                        let fit = parties.with_member(*id, |party| {
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

        self.stats = all_stats.into_iter().map(|s| (s.party, s)).collect();
        self.last_report = Some(report.clone());
        report
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
            .create(self.bootstrap_params.clone(), pooled, self.window);
        report.created.push(id);
        id
    }

    /// Runs one communication round: every expert trains on its cohort with
    /// FLIPS (or uniform, per config) selection; personalised parties run a
    /// local step instead.
    pub fn train_round(&mut self, parties: &[Party], rng: &mut StdRng) {
        self.train_round_impl(&SliceAccess::new(parties), rng);
    }

    fn train_round_impl<M: MemberAccess>(&mut self, parties: &M, rng: &mut StdRng) {
        for expert_id in self.registry.ids() {
            let cohort_ids = self.expert_cohort_impl(expert_id, parties, rng);
            // One pre-drawn seed per member, in cohort order — the same
            // draw sequence as the scenario driver.
            let seeds: Vec<u64> = cohort_ids.iter().map(|_| rng.random::<u64>()).collect();
            let params = &self.registry.live(expert_id).params;
            // Only one cohort member is ever borrowed at a time.
            let updates: Vec<ModelUpdate> = cohort_ids
                .iter()
                .zip(&seeds)
                .filter_map(|(&id, &seed)| {
                    parties.with_member(id, |party| {
                        local_update(&self.spec, params, party, &self.cfg.train, seed)
                    })
                })
                .filter(|update| update.num_samples > 0)
                .collect();
            if updates.is_empty() {
                continue;
            }
            let (trained, samples): (Vec<&[f32]>, Vec<usize>) = updates
                .iter()
                .map(|update| (update.params.as_slice(), update.num_samples))
                .unzip();
            self.registry.live_mut(expert_id).params = fedavg(&trained, &samples);
        }
        self.personal_steps_impl(parties, rng);
    }

    /// Selects this round's cohort for `expert_id` from the (already
    /// liveness-filtered) member view of the population, in selection
    /// order with empty-train parties dropped. Only metadata
    /// ([`PartyInfo`]) is consulted — no party materializes here.
    fn expert_cohort_impl<M: MemberAccess>(
        &self,
        expert_id: ExpertId,
        parties: &M,
        rng: &mut StdRng,
    ) -> Vec<PartyId> {
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
            .filter_map(|id| {
                let mut info = parties.member_info(*id)?;
                if let Some(s) = self.stats.get(id) {
                    info.label_hist = s.label_hist.clone();
                }
                Some(info)
            })
            .collect();
        let chosen: Vec<PartyId> = if self.cfg.uniform_selection {
            UniformSelector.select(&infos, self.cfg.participants_per_round, rng)
        } else {
            let mut flips = FlipsSelector::fit(&infos, 4, rng);
            flips.select(&infos, self.cfg.participants_per_round, rng)
        };
        chosen
            .into_iter()
            .filter(|id| {
                parties
                    .member_info(*id)
                    .is_some_and(|info| info.num_samples > 0)
            })
            .collect()
    }

    /// Personalised parties take one local continuation step.
    fn personal_steps_impl<M: MemberAccess>(&mut self, parties: &M, rng: &mut StdRng) {
        let personal_ids: Vec<PartyId> = self.personal.keys().copied().collect();
        for id in personal_ids {
            let base = self.personal[&id].clone();
            let mut cfg = self.cfg.train;
            cfg.epochs = 1;
            let fit = parties
                .with_member(id, |party| {
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

    /// Population accuracy under the current assignment (personal params
    /// take precedence over the assigned expert's).
    pub fn evaluate(&self, parties: &[Party]) -> f32 {
        let refs: Vec<&Party> = parties.iter().collect();
        self.evaluate_refs(&refs)
    }

    /// Like [`ShiftEx::evaluate`] over borrowed parties (scenario loops
    /// evaluate a liveness-filtered view every round without cloning it).
    pub fn evaluate_refs(&self, parties: &[&Party]) -> f32 {
        evaluate_assigned_refs(&self.spec, parties, |id| {
            if let Some(p) = self.personal.get(&id) {
                p.as_slice()
            } else {
                &self.registry.live(self.expert_of(id)).params
            }
        })
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

    /// Freezes the encoder / θ0 template at the current first expert's
    /// (bootstrap-trained) parameters and rebuilds that expert's latent
    /// memory from the previous window's data in the frozen embedding space.
    fn freeze_encoder_impl<M: MemberAccess>(&mut self, parties: &M, rng: &mut StdRng) {
        let expert0 = self.registry.ids()[0];
        let trained = self.registry.live(expert0).params.clone();
        self.bootstrap_params = trained.clone();
        self.encoder_params = trained;
        let encoder = build_model(&self.spec, &self.encoder_params);
        let mut profiles = Vec::new();
        for id in parties.member_ids() {
            let profile = parties
                .with_member(id, |p| {
                    let data = match p.prev_train() {
                        Some(prev) if !prev.is_empty() => prev,
                        _ => p.train(),
                    };
                    if data.is_empty() {
                        return None;
                    }
                    let emb = encoder.embed(data.features());
                    Some(EmbeddingProfile::from_embeddings(
                        &emb,
                        self.cfg.profile_rows,
                        rng,
                    ))
                })
                .flatten();
            if let Some(profile) = profile {
                profiles.push(profile);
            }
        }
        if !profiles.is_empty() {
            let refs: Vec<&EmbeddingProfile> = profiles.iter().collect();
            let pooled = EmbeddingProfile::pool(&refs, self.cfg.profile_rows * 2, rng);
            self.registry.live_mut(expert0).memory =
                crate::memory::LatentMemory::from_profile(&pooled);
        }
    }

    /// Calibrates thresholds from the previous (assumed stable) window's
    /// data if not yet fixed.
    fn ensure_thresholds_impl<M: MemberAccess>(
        &mut self,
        parties: &M,
        rng: &mut StdRng,
    ) -> CalibratedThresholds {
        if let (Some(dc), Some(dl)) = (self.cfg.delta_cov, self.cfg.delta_label) {
            let t = CalibratedThresholds {
                delta_cov: dc,
                delta_label: dl,
            };
            self.thresholds = Some(t);
            return t;
        }
        if let Some(t) = self.thresholds {
            return t;
        }
        // Per-party null distributions under the frozen encoder
        // ("bootstrapped client feature representations assuming no shift",
        // §5): each party's previous-window embeddings are split into random
        // halves and compared with the shared kernel. Pooling *across*
        // parties would confound the null with cross-party heterogeneity
        // (different label mixes), inflating δ_cov and masking real shifts.
        //
        // Calibration strides across the population so at most
        // [`CALIBRATION_MAX_PARTIES`] parties contribute embeddings: the
        // median-heuristic kernel fit below is quadratic in pooled rows.
        // Populations at or below the cap take stride 1 — every party
        // contributes, exactly as before the cap existed.
        let model = build_model(&self.spec, &self.encoder_params);
        let mut mats: Vec<Matrix> = Vec::new();
        let mut hists: Vec<Vec<f32>> = Vec::new();
        let mut count = 0usize;
        let ids = parties.member_ids();
        let stride = ids.len().div_ceil(CALIBRATION_MAX_PARTIES).max(1);
        for id in ids.into_iter().step_by(stride) {
            parties.with_member(id, |p| {
                if let Some(prev) = p.prev_train() {
                    if prev.is_empty() {
                        return;
                    }
                    let emb = model.embed(prev.features());
                    let rows = emb.rows().min(self.cfg.profile_rows);
                    let idx: Vec<usize> = (0..rows).collect();
                    mats.push(emb.select_rows(&idx));
                    hists.push(prev.label_histogram());
                    count = count.max(prev.len());
                }
            });
        }
        let calibrator = ThresholdCalibrator::new(self.cfg.calibration_p_value, 40, 32);
        let mut t = if mats.is_empty() {
            // No stable window available: fall back to permissive defaults.
            CalibratedThresholds {
                delta_cov: 0.05,
                delta_label: 0.1,
            }
        } else {
            // Shared kernel from the pooled stable embeddings.
            let mat_refs: Vec<&Matrix> = mats.iter().collect();
            let pooled = Matrix::vstack(&mat_refs);
            let kernel = shiftex_detect::RbfKernel::median_heuristic(&pooled, &pooled);
            // Within-party split-half null scores.
            let mut nulls = Vec::new();
            for m in &mats {
                if m.rows() < 4 {
                    continue;
                }
                let half = (m.rows() / 2).min(self.cfg.profile_rows);
                for _ in 0..calibrator.iterations.min(20) {
                    let idx =
                        shiftex_tensor::rngx::sample_without_replacement(rng, m.rows(), 2 * half);
                    let a = m.select_rows(&idx[..half]);
                    let b = m.select_rows(&idx[half..]);
                    nulls.push(shiftex_detect::mmd2_unbiased(&a, &b, &kernel));
                }
            }
            let delta_cov = if nulls.is_empty() {
                0.05
            } else {
                shiftex_tensor::stats::quantile(&nulls, 1.0 - self.cfg.calibration_p_value)
            };
            let delta_label = calibrator.calibrate_label(&hists, count.max(1), rng);
            self.kernel = Some(kernel);
            CalibratedThresholds {
                delta_cov,
                delta_label,
            }
        };
        if let Some(dc) = self.cfg.delta_cov {
            t.delta_cov = dc;
        }
        if let Some(dl) = self.cfg.delta_label {
            t.delta_label = dl;
        }
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

    fn init(&mut self, parties: &PopulationView<'_>, rng: &mut StdRng) {
        // Rebuild the model template from *this run's* RNG stream (the
        // instance may have been constructed with a throwaway seed), then
        // enrol everyone on expert 0. Burn-in training is the driver's job.
        *self = ShiftEx::new(self.cfg.clone(), self.spec.clone(), rng);
        self.bootstrap_impl(parties, 0, rng);
    }

    fn begin_window(&mut self, _window: usize, members: &PopulationView<'_>, rng: &mut StdRng) {
        // Only enrolled members publish shift statistics for the window; a
        // fully churned-out boundary processes nothing.
        if members.is_empty() {
            return;
        }
        self.process_window_impl(members, rng);
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

    fn cohort(
        &mut self,
        key: usize,
        live: &PopulationView<'_>,
        _selector: &mut dyn ParticipantSelector,
        rng: &mut StdRng,
    ) -> Vec<PartyId> {
        self.expert_cohort_impl(ExpertId(key as u32), live, rng)
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

    fn end_round(&mut self, live: &PopulationView<'_>, rng: &mut StdRng) {
        self.personal_steps_impl(live, rng);
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
    use shiftex_data::{Corruption, ImageShape, PrototypeGenerator, Regime};

    fn make_parties(
        gen: &PrototypeGenerator,
        n: usize,
        samples: usize,
        rng: &mut StdRng,
    ) -> Vec<Party> {
        (0..n)
            .map(|i| {
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(samples, rng),
                    gen.generate_uniform(samples / 2, rng),
                )
            })
            .collect()
    }

    fn advance_with_regime(
        parties: &mut [Party],
        gen: &PrototypeGenerator,
        regime: &Regime,
        which: &[usize],
        samples: usize,
        rng: &mut StdRng,
    ) {
        for (i, p) in parties.iter_mut().enumerate() {
            let (train, test) = if which.contains(&i) {
                (
                    gen.generate_with_regime(samples, regime, rng),
                    gen.generate_with_regime(samples / 2, regime, rng),
                )
            } else {
                (
                    gen.generate_uniform(samples, rng),
                    gen.generate_uniform(samples / 2, rng),
                )
            };
            p.advance_window(train, test);
        }
    }

    fn setup(n: usize) -> (PrototypeGenerator, Vec<Party>, ShiftEx, StdRng) {
        let mut rng = StdRng::seed_from_u64(42);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 4, &mut rng);
        let parties = make_parties(&gen, n, 48, &mut rng);
        let spec = ArchSpec::mlp("t", 64, &[24, 12], 4);
        let cfg = ShiftExConfig {
            participants_per_round: n,
            ..ShiftExConfig::default()
        };
        let shiftex = ShiftEx::new(cfg, spec, &mut rng);
        (gen, parties, shiftex, rng)
    }

    #[test]
    fn bootstrap_creates_single_expert_and_assigns_all() {
        let (_gen, parties, mut shiftex, mut rng) = setup(6);
        shiftex.bootstrap(&parties, 2, &mut rng);
        assert_eq!(shiftex.num_experts(), 1);
        assert_eq!(shiftex.assignments().len(), 6);
    }

    #[test]
    fn stable_window_creates_no_experts() {
        let (gen, mut parties, mut shiftex, mut rng) = setup(6);
        shiftex.bootstrap(&parties, 3, &mut rng);
        advance_with_regime(&mut parties, &gen, &Regime::clear(), &[], 48, &mut rng);
        let report = shiftex.process_window(&parties, &mut rng);
        assert!(
            report.created.is_empty(),
            "stable window spawned {:?}",
            report.created
        );
        assert_eq!(shiftex.num_experts(), 1);
    }

    #[test]
    fn covariate_shift_spawns_expert_for_shifted_group() {
        let (gen, mut parties, mut shiftex, mut rng) = setup(8);
        shiftex.bootstrap(&parties, 3, &mut rng);
        let fog = Regime::corrupted(Corruption::Fog, 4);
        advance_with_regime(&mut parties, &gen, &fog, &[0, 1, 2, 3], 48, &mut rng);
        let report = shiftex.process_window(&parties, &mut rng);
        assert!(
            report.cov_shifted.len() >= 3,
            "expected most of the fog group detected, got {:?}",
            report.cov_shifted
        );
        assert_eq!(report.created.len(), 1, "one new expert for the fog regime");
        assert_eq!(shiftex.num_experts(), 2);
        // The shifted parties point at the new expert.
        let new_expert = report.created[0];
        for i in 0..4 {
            assert_eq!(shiftex.expert_of(PartyId(i)), new_expert);
        }
    }

    #[test]
    fn recurring_regime_reuses_expert_via_latent_memory() {
        let (gen, mut parties, mut shiftex, mut rng) = setup(8);
        shiftex.bootstrap(&parties, 3, &mut rng);
        let fog = Regime::corrupted(Corruption::Fog, 4);
        let rounds = |s: &mut ShiftEx, parties: &[Party], rng: &mut StdRng| {
            for _ in 0..2 {
                ShiftEx::train_round(s, parties, rng);
            }
        };

        // W1: fog arrives for half the parties → new expert.
        advance_with_regime(&mut parties, &gen, &fog, &[0, 1, 2, 3], 48, &mut rng);
        let r1 = shiftex.process_window(&parties, &mut rng);
        assert_eq!(r1.created.len(), 1);
        let fog_expert = r1.created[0];
        rounds(&mut shiftex, &parties, &mut rng);

        // W2: everyone clear again → shifted-back parties should go to an
        // existing expert (the clear expert 0), not a new one.
        advance_with_regime(&mut parties, &gen, &Regime::clear(), &[], 48, &mut rng);
        let r2 = shiftex.process_window(&parties, &mut rng);
        assert!(r2.created.is_empty(), "clear regime must reuse: {r2:?}");
        rounds(&mut shiftex, &parties, &mut rng);

        // W3: fog recurs for a different subset → reuse the fog expert.
        advance_with_regime(&mut parties, &gen, &fog, &[4, 5, 6, 7], 48, &mut rng);
        let r3 = shiftex.process_window(&parties, &mut rng);
        assert!(
            r3.created.is_empty() && !r3.reused.is_empty(),
            "recurring fog should reuse the fog expert: {r3:?}"
        );
        assert!(
            r3.reused.contains(&fog_expert) || shiftex.registry().get(fog_expert).is_none(),
            "the fog expert (or its consolidation survivor) should be reused: {r3:?}"
        );
    }

    #[test]
    fn training_rounds_improve_shifted_accuracy() {
        let (gen, mut parties, mut shiftex, mut rng) = setup(8);
        shiftex.bootstrap(&parties, 5, &mut rng);
        let fog = Regime::corrupted(Corruption::Fog, 4);
        advance_with_regime(&mut parties, &gen, &fog, &[0, 1, 2, 3], 48, &mut rng);
        shiftex.process_window(&parties, &mut rng);
        let before = shiftex.evaluate(&parties);
        for _ in 0..6 {
            ShiftEx::train_round(&mut shiftex, &parties, &mut rng);
        }
        let after = shiftex.evaluate(&parties);
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
    fn standalone_rounds_are_bit_pinned() {
        // `to_bits` fingerprints of the standalone slice API (cohort → one
        // pre-drawn seed per member → `local_update` → `fedavg`), recorded
        // before it was composed from the driver's primitives: any change to
        // the draw order or the averaging arithmetic moves them.
        let (gen, mut parties, mut shiftex, mut rng) = setup(8);
        shiftex.bootstrap(&parties, 3, &mut rng);
        for _ in 0..2 {
            shiftex.train_round(&parties, &mut rng);
        }
        assert_eq!(
            expert_fingerprint(&shiftex),
            0x4022_8048_9d38_c98a,
            "one expert"
        );

        // Two experts plus the window-boundary machinery in between.
        let fog = Regime::corrupted(Corruption::Fog, 4);
        advance_with_regime(&mut parties, &gen, &fog, &[0, 1, 2, 3], 48, &mut rng);
        shiftex.process_window(&parties, &mut rng);
        assert_eq!(shiftex.num_experts(), 2);
        for _ in 0..2 {
            shiftex.train_round(&parties, &mut rng);
        }
        assert_eq!(
            expert_fingerprint(&shiftex),
            0x1d05_828a_2083_ef68,
            "two experts"
        );
    }

    #[test]
    fn driver_rounds_match_the_slice_api_bit_for_bit() {
        use shiftex_fl::{
            run_algorithm_round, PopulationStore, RoundCtx, ScenarioEngine, ScenarioSpec,
        };
        let fog = Regime::corrupted(Corruption::Fog, 4);

        // Arm A — the standalone slice API, mirroring `init` (template
        // redrawn from the run RNG, then a zero-round bootstrap).
        let (gen, mut parties, template, mut rng_a) = setup(8);
        let mut a = ShiftEx::new(template.cfg.clone(), template.spec.clone(), &mut rng_a);
        a.bootstrap(&parties, 0, &mut rng_a);
        for _ in 0..3 {
            a.train_round(&parties, &mut rng_a);
        }
        let a_one = expert_fingerprint(&a);
        advance_with_regime(&mut parties, &gen, &fog, &[0, 1, 2, 3], 48, &mut rng_a);
        let a_report = a.process_window(&parties, &mut rng_a);
        for _ in 0..3 {
            a.train_round(&parties, &mut rng_a);
        }

        // Arm B — the same federation through `FederatedAlgorithm` and the
        // one round driver, clean synchronous protocol.
        let (gen, parties_b, mut b, mut rng_b) = setup(8);
        let ids: Vec<PartyId> = parties_b.iter().map(|p| p.id()).collect();
        let mut store = PopulationStore::from_parties(parties_b);
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids);
        b.init(&store.view(ids.clone()), &mut rng_b);
        for _ in 0..3 {
            run_algorithm_round(&mut b, &mut RoundCtx::new(&store, &mut engine), &mut rng_b);
        }
        let b_one = expert_fingerprint(&b);
        for (i, &id) in ids.iter().enumerate() {
            let (train, test) = if i < 4 {
                (
                    gen.generate_with_regime(48, &fog, &mut rng_b),
                    gen.generate_with_regime(24, &fog, &mut rng_b),
                )
            } else {
                (
                    gen.generate_uniform(48, &mut rng_b),
                    gen.generate_uniform(24, &mut rng_b),
                )
            };
            store.with_party_mut(id, |p| p.advance_window(train, test));
        }
        b.begin_window(1, &store.view(ids.clone()), &mut rng_b);
        assert_eq!(b.num_experts(), 2);
        for _ in 0..3 {
            run_algorithm_round(&mut b, &mut RoundCtx::new(&store, &mut engine), &mut rng_b);
        }

        println!(
            "driver fingerprints: one expert {b_one:#018x}, two experts {:#018x}",
            expert_fingerprint(&b)
        );
        assert_eq!(a_one, b_one, "W0 rounds");
        assert_eq!(Some(&a_report), b.last_report(), "window report");
        assert_eq!(expert_fingerprint(&a), expert_fingerprint(&b), "W1 rounds");
        assert_eq!(
            a.evaluate(&parties).to_bits(),
            b.eval(&store.view(ids)).to_bits(),
            "evaluate vs eval"
        );
        assert_eq!(
            rng_a.random::<u64>(),
            rng_b.random::<u64>(),
            "RNG draw count"
        );
    }

    #[test]
    fn max_experts_cap_is_respected() {
        let (gen, mut parties, mut shiftex, mut rng) = setup(8);
        shiftex.cfg.max_experts = 2;
        shiftex.bootstrap(&parties, 2, &mut rng);
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
            advance_with_regime(&mut parties, &gen, &regime, &[0, 1, 2, 3], 48, &mut rng);
            shiftex.process_window(&parties, &mut rng);
        }
        assert!(shiftex.num_experts() <= 2);
    }

    #[test]
    fn scenario_rounds_train_experts_under_churn() {
        use shiftex_fl::{
            run_algorithm_round, AsyncSpec, ChurnSpec, CommLedger, PopulationStore, RoundCtx,
            ScenarioSpec, StragglerSpec,
        };
        let (gen, mut parties, mut shiftex, mut rng) = setup(8);
        shiftex.bootstrap(&parties, 3, &mut rng);
        let fog = Regime::corrupted(Corruption::Fog, 4);
        advance_with_regime(&mut parties, &gen, &fog, &[0, 1, 2, 3], 48, &mut rng);
        shiftex.process_window(&parties, &mut rng);
        assert_eq!(shiftex.num_experts(), 2);

        let ids: Vec<PartyId> = parties.iter().map(|p| p.id()).collect();
        let store = PopulationStore::from_parties(parties.clone());
        let spec = ScenarioSpec::sync(5)
            .with_churn(ChurnSpec::dropout_only(0.2))
            .with_stragglers(StragglerSpec::uniform(
                0.8,
                1.0,
                shiftex_fl::LatePolicy::Defer,
            ))
            .with_async(AsyncSpec {
                min_buffer: 2,
                staleness_alpha: 0.5,
                max_staleness: 3,
                server_lr: 1.0,
            });
        let mut engine = shiftex_fl::ScenarioEngine::new(spec, &ids);
        let ledger = CommLedger::new();
        let before = shiftex.evaluate(&parties);
        let params_before: Vec<Vec<f32>> = shiftex
            .registry()
            .iter()
            .map(|e| e.params.clone())
            .collect();
        let mut ctx = RoundCtx::new(&store, &mut engine).with_ledger(&ledger);
        for _ in 0..6 {
            run_algorithm_round(&mut shiftex, &mut ctx, &mut rng);
        }
        let after = shiftex.evaluate(&parties);
        let params_after: Vec<Vec<f32>> = shiftex
            .registry()
            .iter()
            .map(|e| e.params.clone())
            .collect();
        assert_ne!(
            params_before, params_after,
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
        use shiftex_fl::PopulationStore;
        let (gen, mut parties, mut shiftex, mut rng) = setup(6);
        let init_store = PopulationStore::from_parties(parties.clone());
        FederatedAlgorithm::init(
            &mut shiftex,
            &init_store.view(init_store.party_ids()),
            &mut rng,
        );
        assert_eq!(FederatedAlgorithm::name(&shiftex), "ShiftEx");
        assert_eq!(shiftex.num_models(), 1);
        assert_eq!(shiftex.streams(), vec![0]);
        advance_with_regime(
            &mut parties,
            &gen,
            &Regime::corrupted(Corruption::Fog, 4),
            &[0, 1, 2],
            48,
            &mut rng,
        );
        let store = PopulationStore::from_parties(parties.clone());
        FederatedAlgorithm::begin_window(&mut shiftex, 1, &store.view(store.party_ids()), &mut rng);
        for p in &parties {
            let idx = shiftex.model_index(p.id());
            assert!(idx < shiftex.num_models());
        }
        // Stream keys are expert ids — stable even when experts merge.
        for key in shiftex.streams() {
            assert!(!shiftex.broadcast_state(key).is_empty());
        }
    }
}
