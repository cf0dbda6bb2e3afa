//! The one scenario driver: runs any [`FederatedAlgorithm`] — ShiftEx and
//! every baseline — through a dataset scenario's windows under the full
//! federation runtime (churn, stragglers, staleness-aware async rounds,
//! codec-metered communication), recording everything the tables, figures
//! and comm reports need.
//!
//! There is no per-algorithm driver and no dispatch enum: the paper's
//! head-to-head comparison is only honest if every technique pays for the
//! same scenario axes and the same bytes, so every run goes through
//! [`run_federation_scenario`]. The paper's clean synchronous protocol is
//! the degenerate case ([`ScenarioSpec::sync`] with no axes).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use shiftex_baselines::OortSelector;
use shiftex_fl::{
    run_algorithm_round, BudgetSpec, CodecController, CodecSpec, CommLedger, CommTotals,
    FederatedAlgorithm, FoldPolicy, JoinConfig, ParticipantSelector, ParticipationStats,
    PopulationStore, RoundCodec, RoundCtx, RoundParticipation, ScenarioEngine, ScenarioSpec,
    UniformSelector,
};

use crate::algorithms::build_algorithm;
use crate::metrics::{window_metrics, WindowMetrics};
use crate::population::{LazyPopulation, ResidentPopulation};
use crate::scenario::Scenario;

/// Everything recorded from one algorithm × scenario × federation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedRunResult {
    /// Algorithm name.
    pub strategy: String,
    /// Live-member accuracy after every round, across all windows in order
    /// (the convergence curves of Figures 3–4).
    pub accuracy_series: Vec<f32>,
    /// Accuracy measured immediately after each window's shift, before any
    /// training round (index 0 ↔ W1).
    pub post_shift_accuracy: Vec<f32>,
    /// Per-window metrics for W1..Wn.
    pub windows: Vec<WindowMetrics>,
    /// Per-window distribution of parties over models/experts (index 0 ↔
    /// W0): `counts[w][m]` = parties on model `m` — Figures 7–8.
    pub expert_distribution: Vec<Vec<usize>>,
    /// Number of models at the end of the run.
    pub final_models: usize,
    /// Per-round participation records (round, live pool, fate deltas,
    /// encoded bytes up/down/first-contact).
    pub participation: Vec<RoundParticipation>,
    /// Cumulative participation counters.
    pub totals: ParticipationStats,
    /// Communication totals, including aborted uploads and first-contact
    /// downlinks.
    pub comm: CommTotals,
    /// Wire codec the run was metered under. For adaptive runs this is the
    /// controller's configuration baseline (the static spec the run was
    /// launched with); [`FedRunResult::codec_label`] names the regime.
    pub codec: CodecSpec,
    /// Reporting label for the comm regime: the static codec's display
    /// name, or `"adaptive"` when a byte-budget controller picked the spec
    /// per round.
    pub codec_label: String,
    /// Aggregation fold policy the run folded under.
    pub fold: FoldPolicy,
    /// Flattened model parameter count (sizes the compression ratio).
    pub param_count: usize,
    /// Population residency counters at the end of the run (peak
    /// materialized cohort, total materializations) — the memory envelope
    /// the lazy store is held to.
    pub residency: shiftex_fl::PopulationStats,
}

impl FedRunResult {
    /// Upload compression ratio versus dense framing. Static codecs report
    /// their analytic ratio; adaptive runs (where the per-round spec varies)
    /// report the *measured* ratio — what the same update frames would have
    /// cost dense, over what the ledger actually metered. Every metered
    /// upload frame counts: delivered, aborted, and stale-discarded (which
    /// arrived and was metered, then thrown away).
    pub fn compression_ratio(&self) -> f64 {
        if self.codec_label == "adaptive" {
            let frames =
                self.totals.delivered + self.totals.stale_dropped + self.comm.aborted_messages;
            let actual = self.comm.up_bytes + self.comm.aborted_up_bytes;
            if actual == 0 {
                return 1.0;
            }
            let dense = frames * CodecSpec::dense().update_len(self.param_count) as u64;
            dense as f64 / actual as f64
        } else {
            self.codec.compression_ratio(self.param_count)
        }
    }
}

/// Cohort-selection policy handed to the generic driver. Algorithms with
/// their own internal policy (ShiftEx's per-expert FLIPS, Fielding/FLIPS
/// label clusters) ignore it; the single-model algorithms (FedAvg, FedProx)
/// and FedDrift's per-model cohorts consume it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FedSelector {
    /// Uniform sampling without replacement.
    Uniform,
    /// Availability-aware OORT ([`shiftex_baselines::OortSelector`]):
    /// utility-guided with dropout penalties and cooldowns.
    Oort,
}

impl FedSelector {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<FedSelector> {
        match s.to_ascii_lowercase().as_str() {
            "uniform" => Some(FedSelector::Uniform),
            "oort" => Some(FedSelector::Oort),
            _ => None,
        }
    }

    fn build(self) -> Box<dyn ParticipantSelector> {
        match self {
            FedSelector::Uniform => Box::new(UniformSelector),
            FedSelector::Oort => Box::new(OortSelector::default()),
        }
    }
}

/// How the party population is held in memory.
///
/// Both modes draw every party's data from the same per-`(id, window)`
/// seeded streams and drive the same [`shiftex_fl::run_algorithm_round`]
/// loop through the same [`PopulationStore`] interface, so a run is
/// bit-identical under either: the mode is a memory/speed choice, never a
/// data or protocol one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PopulationMode {
    /// Parties as seeded specs ([`LazyPopulation`]): rebuilt when sampled
    /// into a cohort, dropped when the round drops it. Resident memory is
    /// O(cohort); every read pays a rebuild.
    Lazy,
    /// Every party built up front and advanced in place
    /// ([`ResidentPopulation`]). Resident memory is O(population); reads
    /// are free. The default, and the arm the conformance suite compares a
    /// lazy run against, bit for bit.
    Resident,
}

impl PopulationMode {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<PopulationMode> {
        match s.to_ascii_lowercase().as_str() {
            "lazy" => Some(PopulationMode::Lazy),
            "resident" => Some(PopulationMode::Resident),
            _ => None,
        }
    }
}

/// Round budget and communication regime of a federation-scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedRunOptions {
    /// Shifted windows to simulate (W1..).
    pub windows: usize,
    /// Burn-in rounds on W0.
    pub bootstrap_rounds: usize,
    /// Rounds per shifted window.
    pub rounds_per_window: usize,
    /// Wire codec for every broadcast and upload.
    pub codec: CodecSpec,
    /// Cohort selection policy (for algorithms that consume it).
    pub selector: FedSelector,
    /// Robust aggregation fold every stream's updates pass through.
    pub fold: FoldPolicy,
    /// Population storage mode.
    pub population: PopulationMode,
    /// Byte budget for the adaptive codec controller. `None` runs the
    /// static `codec` for every exchange (the byte-pinned legacy path);
    /// `Some` hands each round's spec choice to a
    /// [`CodecController`] seeded from the federation spec.
    pub budget: Option<BudgetSpec>,
    /// Chunked, resumable first-contact sync
    /// ([`shiftex_fl::JoinSync`]). `None` keeps monolithic
    /// first-contact frames.
    pub join: Option<JoinConfig>,
}

impl FedRunOptions {
    /// Plain budget with dense framing, uniform selection and a resident
    /// population.
    pub fn new(windows: usize, bootstrap_rounds: usize, rounds_per_window: usize) -> Self {
        Self {
            windows,
            bootstrap_rounds,
            rounds_per_window,
            codec: CodecSpec::dense(),
            selector: FedSelector::Uniform,
            fold: FoldPolicy::Mean,
            population: PopulationMode::Resident,
            budget: None,
            join: None,
        }
    }

    /// Swaps in a wire codec.
    pub fn with_codec(mut self, codec: CodecSpec) -> Self {
        self.codec = codec;
        self
    }

    /// Swaps in a selection policy.
    pub fn with_selector(mut self, selector: FedSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Swaps in a robust aggregation fold.
    pub fn with_fold(mut self, fold: FoldPolicy) -> Self {
        self.fold = fold;
        self
    }

    /// Swaps in a population storage mode.
    pub fn with_population(mut self, population: PopulationMode) -> Self {
        self.population = population;
        self
    }

    /// Switches the run onto the adaptive codec controller under `budget`.
    pub fn with_budget(mut self, budget: BudgetSpec) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Switches first-contact sync onto the chunked, resumable join path.
    pub fn with_join_chunking(mut self, join: JoinConfig) -> Self {
        self.join = Some(join);
        self
    }
}

/// Runs the named algorithm over `scenario` with `runs` different seeds
/// under the paper's clean synchronous protocol (no federation axes, dense
/// framing, full window/round budget), returning one [`FedRunResult`] per
/// seed — the table/figure entry point.
///
/// # Panics
///
/// Panics if `name` is not one of
/// [`ALGORITHM_NAMES`](crate::algorithms::ALGORITHM_NAMES).
pub fn run_scenario(
    name: &str,
    scenario: &Scenario,
    runs: usize,
    shiftex_cfg: &shiftex_core::ShiftExConfig,
) -> Vec<FedRunResult> {
    let opts = FedRunOptions::new(
        scenario.eval_windows(),
        scenario.bootstrap_rounds(),
        scenario.rounds_per_window,
    );
    (0..runs)
        .map(|r| {
            let mut algorithm = build_algorithm(name, scenario, shiftex_cfg)
                .unwrap_or_else(|| panic!("unknown algorithm {name:?}"));
            let fed = ScenarioSpec::sync(scenario.seed ^ (0x9e37 + r as u64));
            run_federation_scenario(algorithm.as_mut(), scenario, &fed, &opts)
        })
        .collect()
}

/// Drives `algorithm` through `opts.windows` windows of `scenario` under
/// the federation axes in `fed`: `opts.bootstrap_rounds` burn-in rounds on
/// W0, then `opts.rounds_per_window` rounds per shifted window, every round
/// mediated by a [`ScenarioEngine`] (membership churn, mid-round dropout,
/// stragglers, staleness-aware aggregation) and every exchange encoded and
/// metered under `opts.codec` — first-contact full-state downlinks and
/// error-feedback accumulation included.
///
/// This is the **only** scenario driver: every algorithm, baseline or not,
/// runs through it, so results are comparable by construction.
///
/// # Panics
///
/// Panics if `opts.windows` exceeds the scenario's evaluation windows.
pub fn run_federation_scenario<A: FederatedAlgorithm + ?Sized>(
    algorithm: &mut A,
    scenario: &Scenario,
    fed: &ScenarioSpec,
    opts: &FedRunOptions,
) -> FedRunResult {
    assert!(
        opts.windows <= scenario.eval_windows(),
        "scenario only has {} evaluation windows",
        scenario.eval_windows()
    );
    let stream_seed = fed.seed ^ scenario.seed.rotate_left(17);
    let mut rng = StdRng::seed_from_u64(stream_seed);
    let mut store = match opts.population {
        PopulationMode::Lazy => LazyPopulation::new(scenario.clone(), stream_seed).into_store(),
        PopulationMode::Resident => {
            ResidentPopulation::new(scenario.clone(), stream_seed).into_store()
        }
    };
    let ids = store.party_ids();
    let mut engine = ScenarioEngine::new(fed.clone(), &ids);
    if let Some(join) = opts.join {
        engine.enable_join_chunking(join);
    }
    // The controller is seeded from the federation spec, so adaptive runs
    // rerun bit-identically under the same scenario.
    let controller = opts.budget.map(|b| CodecController::new(fed.seed, b));
    let round_codec = match &controller {
        Some(c) => RoundCodec::Adaptive(c),
        None => RoundCodec::Static(&opts.codec),
    };
    let ledger = CommLedger::new();
    let mut selector = opts.selector.build();
    algorithm.init(&store.view(ids.clone()), &mut rng);
    let param_count = algorithm
        .streams()
        .first()
        .map_or(0, |&key| algorithm.broadcast_state(key).len());

    let mut accuracy_series = Vec::new();
    let mut post_shift_accuracy = Vec::new();
    let mut windows = Vec::new();
    let mut expert_distribution = Vec::new();
    let mut participation = Vec::new();

    // --- W0: burn-in rounds under the full scenario runtime.
    let per_round = run_round_block(
        algorithm,
        &mut RoundCtx::new(&store, &mut engine)
            .with_codec(round_codec)
            .with_selector(selector.as_mut())
            .with_fold(&opts.fold)
            .with_ledger(&ledger),
        opts.bootstrap_rounds,
        &mut rng,
        &mut participation,
    );
    accuracy_series.extend_from_slice(&per_round);
    expert_distribution.push(distribution(algorithm, &store));
    let mut pre_shift = per_round.last().copied().unwrap_or_else(|| {
        let members = store.view(engine.live_members(&ids));
        algorithm.eval(&members)
    });

    // --- W1..Wn: shifted windows.
    for w in 1..=opts.windows {
        store.set_window(w);
        // Only enrolled members publish shift statistics for this window.
        let members = store.view(engine.live_members(&ids));
        algorithm.begin_window(w, &members, &mut rng);
        let post_shift = algorithm.eval(&members);
        post_shift_accuracy.push(post_shift);
        let per_round = run_round_block(
            algorithm,
            &mut RoundCtx::new(&store, &mut engine)
                .with_codec(round_codec)
                .with_selector(selector.as_mut())
                .with_fold(&opts.fold)
                .with_ledger(&ledger),
            opts.rounds_per_window,
            &mut rng,
            &mut participation,
        );
        accuracy_series.extend_from_slice(&per_round);
        windows.push(window_metrics(pre_shift, post_shift, &per_round));
        expert_distribution.push(distribution(algorithm, &store));
        pre_shift = per_round.last().copied().unwrap_or(post_shift);
    }

    FedRunResult {
        strategy: algorithm.name().to_string(),
        accuracy_series,
        post_shift_accuracy,
        windows,
        expert_distribution,
        final_models: algorithm.num_models(),
        participation,
        totals: engine.stats(),
        comm: ledger.totals(),
        codec: opts.codec,
        codec_label: match opts.budget {
            Some(_) => "adaptive".to_string(),
            None => opts.codec.to_string(),
        },
        fold: opts.fold,
        param_count,
        residency: store.stats(),
    }
}

/// Runs `rounds` scenario-mediated rounds under `ctx`, recording one
/// participation row per round (byte columns from the context's ledger);
/// returns this block's accuracy trace.
fn run_round_block<A: FederatedAlgorithm + ?Sized>(
    algorithm: &mut A,
    ctx: &mut RoundCtx<'_>,
    rounds: usize,
    rng: &mut StdRng,
    participation: &mut Vec<RoundParticipation>,
) -> Vec<f32> {
    let comm_totals = |ctx: &RoundCtx<'_>| ctx.ledger.map(CommLedger::totals).unwrap_or_default();
    let mut per_round = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let before = ctx.engine.stats();
        let comm_before = comm_totals(ctx);
        let outcome = run_algorithm_round(algorithm, ctx, rng);
        // `outcome.live` is already in population order (the engine filters
        // the id universe in place), which is the member sequence the
        // accuracy goldens were recorded over.
        let live = ctx.population.view(outcome.live.clone());
        let accuracy = algorithm.eval(&live);
        per_round.push(accuracy);
        let comm = comm_totals(ctx);
        participation.push(RoundParticipation {
            round: outcome.round,
            live: live.len(),
            delta: ctx.engine.stats().minus(&before),
            accuracy,
            up_bytes: (comm.up_bytes + comm.aborted_up_bytes)
                - (comm_before.up_bytes + comm_before.aborted_up_bytes),
            down_bytes: comm.down_bytes - comm_before.down_bytes,
            // Chunked join shipments are the first-contact sync in another
            // framing, so they land in the same join column (0 when
            // chunking is off, keeping the monolithic column byte-pinned).
            first_contact_down_bytes: (comm.first_contact_down_bytes + comm.join_chunk_down_bytes)
                - (comm_before.first_contact_down_bytes + comm_before.join_chunk_down_bytes),
            quarantined: outcome.quarantined as u64,
            fold_score: outcome.fold_score,
        });
    }
    per_round
}

/// Parties per model index, padded densely.
fn distribution<A: FederatedAlgorithm + ?Sized>(
    algorithm: &A,
    population: &PopulationStore,
) -> Vec<usize> {
    let mut counts = vec![0usize; algorithm.num_models().max(1)];
    for id in population.party_ids() {
        let idx = algorithm.model_index(id);
        if idx >= counts.len() {
            counts.resize(idx + 1, 0);
        }
        counts[idx] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::ALGORITHM_NAMES;
    use shiftex_core::ShiftExConfig;
    use shiftex_data::{DatasetKind, SimScale};

    fn run_named(
        name: &str,
        scenario: &Scenario,
        fed: &ScenarioSpec,
        opts: &FedRunOptions,
    ) -> FedRunResult {
        let mut alg =
            build_algorithm(name, scenario, &ShiftExConfig::default()).expect("known algorithm");
        run_federation_scenario(alg.as_mut(), scenario, fed, opts)
    }

    /// End-to-end smoke: ShiftEx stays competitive with FedProx on a
    /// miniature CIFAR-10-C scenario *and* actually exercises its expert
    /// machinery. The decisive accuracy/adaptation gaps the paper reports
    /// appear at `Small`/`Paper` scale; smoke scale (8 parties) only checks
    /// non-inferiority end to end.
    #[test]
    fn shiftex_is_competitive_and_spawns_experts_on_cifar() {
        let scenario = Scenario::build(DatasetKind::Cifar10C, SimScale::Smoke, 11);
        let cfg = ShiftExConfig::default();
        let shiftex = &run_scenario("shiftex", &scenario, 1, &cfg)[0];
        let fedprox = &run_scenario("fedprox", &scenario, 1, &cfg)[0];
        let sx_mean: f32 = shiftex.windows.iter().map(|w| w.max_acc_pct).sum::<f32>()
            / shiftex.windows.len() as f32;
        let fp_mean: f32 = fedprox.windows.iter().map(|w| w.max_acc_pct).sum::<f32>()
            / fedprox.windows.len() as f32;
        assert!(
            sx_mean + 5.0 >= fp_mean,
            "ShiftEx mean max-acc {sx_mean:.1} trails FedProx {fp_mean:.1} by more than noise"
        );
        assert!(
            shiftex.final_models >= 2,
            "the fog regime should have spawned at least one expert"
        );
        // The shifted population migrates off expert 0 (Figure 7c shape).
        let last = shiftex.expert_distribution.last().unwrap();
        assert!(last.len() >= 2 && last.iter().skip(1).sum::<usize>() > 0);
    }

    /// The `scenarios --strategy fedavg --parties 40 --samples 12 --windows 1
    /// --rounds 6 --bootstrap 4 --codec adaptive --budget-bytes 98304 --async
    /// --buffer 2 --max-staleness 1 --straggle-mean 1.2 --deadline 1.0 --late
    /// defer --seed 7` totals: the 9 stale discards were metered as uploads,
    /// so their dense cost counts too — 95 frames, not 86 (8.75×).
    #[test]
    fn adaptive_compression_counts_stale_discarded_frames() {
        let mut r = crate::report::tests::sample_result();
        r.codec_label = "adaptive".into();
        r.param_count = 2146;
        (r.totals.delivered, r.totals.stale_dropped) = (86, 9);
        (r.comm.aborted_messages, r.comm.aborted_up_bytes) = (0, 0);
        r.comm.up_bytes = 84_550;
        let dense = CodecSpec::dense().update_len(2146) as u64;
        assert_eq!(dense, 8_606);
        assert_eq!(r.compression_ratio(), (95 * dense) as f64 / 84_550.0);
        assert_eq!(format!("{:.2}", r.compression_ratio()), "9.67");
    }

    #[test]
    fn population_mode_parses_exactly_two_names() {
        for (name, mode) in [
            ("lazy", PopulationMode::Lazy),
            ("LAZY", PopulationMode::Lazy),
            ("resident", PopulationMode::Resident),
            ("Resident", PopulationMode::Resident),
        ] {
            assert_eq!(PopulationMode::parse(name), Some(mode), "{name}");
        }
        for name in ["materialized", "Materialized", "", "eager", "lazy "] {
            assert_eq!(PopulationMode::parse(name), None, "{name:?}");
        }
    }

    #[test]
    fn run_records_all_series() {
        let scenario = Scenario::build(DatasetKind::FashionMnist, SimScale::Smoke, 3);
        let result = &run_scenario("fielding", &scenario, 1, &ShiftExConfig::default())[0];
        let expected_rounds =
            scenario.bootstrap_rounds() + scenario.rounds_per_window * scenario.eval_windows();
        assert_eq!(result.accuracy_series.len(), expected_rounds);
        assert_eq!(result.participation.len(), expected_rounds);
        assert_eq!(result.windows.len(), scenario.eval_windows());
        assert_eq!(
            result.expert_distribution.len(),
            scenario.eval_windows() + 1
        );
        assert_eq!(result.post_shift_accuracy.len(), scenario.eval_windows());
        // Distributions count every party exactly once.
        for dist in &result.expert_distribution {
            assert_eq!(dist.iter().sum::<usize>(), scenario.profile.num_parties);
        }
    }

    #[test]
    fn federation_scenario_runs_every_algorithm_under_all_axes() {
        use shiftex_fl::{AsyncSpec, ChurnSpec, LatePolicy, StragglerSpec};
        let scenario = Scenario::build_with_population(
            DatasetKind::FashionMnist,
            SimScale::Smoke,
            13,
            Some(12),
            Some(16),
        );
        let rounds = 2usize;
        let horizon = 2 + rounds; // bootstrap rounds + one window
        let fed = ScenarioSpec::sync(5)
            .with_churn(ChurnSpec {
                join_fraction: 0.2,
                join_ramp_rounds: 2,
                leave_fraction: 0.2,
                leave_after: 3,
                horizon,
                dropout: 0.15,
            })
            .with_stragglers(StragglerSpec::uniform(0.9, 1.0, LatePolicy::Defer))
            .with_async(AsyncSpec {
                min_buffer: 2,
                staleness_alpha: 0.5,
                max_staleness: 3,
                server_lr: 1.0,
            });
        let opts = FedRunOptions::new(1, 2, rounds)
            .with_codec(CodecSpec::quant8(256))
            .with_selector(FedSelector::Oort);
        for name in ALGORITHM_NAMES {
            let result = run_named(name, &scenario, &fed, &opts);
            assert_eq!(result.accuracy_series.len(), 2 + rounds, "{name}");
            assert_eq!(result.participation.len(), 2 + rounds, "{name}");
            assert!(result.totals.selected > 0, "{name}: {:?}", result.totals);
            assert_eq!(
                result.comm.aborted_messages,
                result.totals.dropped_churn + result.totals.dropped_late,
                "{name} meters every aborted upload"
            );
            assert!(
                result.comm.first_contact_messages > 0,
                "{name}: round-1 cohorts are first contacts"
            );
        }
    }

    #[test]
    fn federation_scenario_is_deterministic() {
        use shiftex_fl::ChurnSpec;
        let scenario =
            Scenario::build_with_population(DatasetKind::Femnist, SimScale::Smoke, 17, None, None);
        let fed = ScenarioSpec::sync(9).with_churn(ChurnSpec::dropout_only(0.2));
        let opts = FedRunOptions::new(1, 2, 2);
        let a = run_named("fedavg", &scenario, &fed, &opts);
        let b = run_named("fedavg", &scenario, &fed, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn quantized_federation_run_cuts_bytes_and_holds_accuracy() {
        use shiftex_fl::ChurnSpec;
        let scenario = Scenario::build_with_population(
            DatasetKind::FashionMnist,
            SimScale::Smoke,
            21,
            Some(16),
            Some(16),
        );
        let fed = ScenarioSpec::sync(6).with_churn(ChurnSpec::dropout_only(0.1));
        let dense = run_named("fedavg", &scenario, &fed, &FedRunOptions::new(1, 3, 3));
        let quant = run_named(
            "fedavg",
            &scenario,
            &fed,
            &FedRunOptions::new(1, 3, 3).with_codec(CodecSpec::quant8(256)),
        );
        let dense_up = dense.comm.up_bytes + dense.comm.aborted_up_bytes;
        let quant_up = quant.comm.up_bytes + quant.comm.aborted_up_bytes;
        let ratio = dense_up as f64 / quant_up as f64;
        assert!(ratio >= 3.5, "metered upload ratio {ratio:.2}");
        assert!(quant.compression_ratio() >= 3.5);
        // Per-round byte columns reconcile with the ledger totals.
        let row_up: u64 = quant.participation.iter().map(|r| r.up_bytes).sum();
        let row_down: u64 = quant.participation.iter().map(|r| r.down_bytes).sum();
        let row_fc: u64 = quant
            .participation
            .iter()
            .map(|r| r.first_contact_down_bytes)
            .sum();
        assert_eq!(row_up, quant_up);
        assert_eq!(row_down, quant.comm.down_bytes);
        assert_eq!(row_fc, quant.comm.first_contact_down_bytes);
        assert!(row_fc > 0, "round-1 cohort must be first contacts");
        let da = dense.accuracy_series.last().copied().unwrap();
        let qa = quant.accuracy_series.last().copied().unwrap();
        assert!(
            (da - qa).abs() <= 0.05,
            "quantised run drifted too far from dense: {da} vs {qa}"
        );
    }

    #[test]
    fn oort_selector_runs_every_consuming_algorithm() {
        use shiftex_fl::ChurnSpec;
        let scenario =
            Scenario::build_with_population(DatasetKind::Femnist, SimScale::Smoke, 23, None, None);
        let fed = ScenarioSpec::sync(11).with_churn(ChurnSpec::dropout_only(0.3));
        let opts = FedRunOptions::new(1, 2, 2).with_selector(FedSelector::Oort);
        for name in ["fedavg", "fedprox", "feddrift"] {
            let result = run_named(name, &scenario, &fed, &opts);
            assert!(result.totals.selected > 0, "{name}");
            // Deterministic under the same options.
            let again = run_named(name, &scenario, &fed, &opts);
            assert_eq!(result, again, "{name}");
        }
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let scenario = Scenario::build(DatasetKind::Femnist, SimScale::Smoke, 5);
        let cfg = ShiftExConfig::default();
        let a = run_scenario("flips", &scenario, 2, &cfg);
        let b = run_scenario("flips", &scenario, 2, &cfg);
        assert_eq!(a, b);
        assert_ne!(
            a[0], a[1],
            "different per-run seeds must give different runs"
        );
    }
}
