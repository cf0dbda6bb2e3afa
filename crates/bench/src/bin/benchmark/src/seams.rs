//! Every call the benchmark makes into the workspace crates, in one file:
//! the workload definitions, the stable entry points
//! (`run_federation_scenario`, `run_netfed_rounds`, the shipped
//! `party-worker` executable), the clock/trace decorators wrapped around
//! them, the output checks that need the runtime's own result types, and
//! the per-layer probes. The rest of the benchmark sees plain numbers, so a
//! library refactor has exactly one file to follow.
//!
//! Only entry points the roadmap keeps are used: `PopulationMode::{Resident,
//! Lazy}`, `run_federation_scenario` and `run_netfed_rounds` — never
//! `run_round`, `FederatedJob`, the `run_algorithm_round*` wrappers or
//! `PopulationMode::Materialized`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use shiftex_cluster::choose_k;
use shiftex_core::assignment::AssignmentProblem;
use shiftex_core::ShiftExConfig;
use shiftex_data::{DatasetKind, SimScale};
use shiftex_detect::{mmd2_biased, RbfKernel, ThresholdCalibrator};
use shiftex_experiments::{
    build_algorithm, netfed_stream_seed, run_federation_scenario, run_netfed_rounds, FedRunOptions,
    FedRunResult, FedSelector, LazyPopulation, NetFedConfig, NetFedRun, PopulationMode,
    ResidentPopulation, Scenario,
};
use shiftex_fl::{
    aggregate_robust, evaluate_on_view, AsyncSpec, AttackKind, AttackSpec, BudgetSpec, ChurnSpec,
    CodecController, CodecSpec, CohortExchange, CohortTransport, CommLedger, CommTotals, DelayDist,
    FederatedAlgorithm, FoldPolicy, JoinConfig, LatePolicy, LocalStepFn, LocalTransport,
    ModelUpdate, ParticipantSelector, Party, PartyId, PopulationView, RoundParticipation,
    ScenarioEngine, ScenarioSpec, StragglerSpec, UpdateVerdict, UploadOutcome, WeightedUpdate,
};
use shiftex_net::frame::{read_msg, write_msg};
use shiftex_net::{
    Coordinator, MsgKind, NetStats, BROADCAST_CTX_LEN, FRAME_HEADER_LEN, JOIN_CHUNK_CTX_LEN,
    UPLOAD_CTX_LEN,
};
use shiftex_nn::{ArchSpec, Sequential, TrainConfig};
use shiftex_tensor::Matrix;

use crate::stats::median;
use crate::trace::{Span, Tracer};

/// Named per-layer values (probe timings, exact counters) keyed by the
/// metric names of `spec::PER_LAYER`.
pub type Values = BTreeMap<&'static str, f64>;

// ---------------------------------------------------------------------------
// Workload definitions.

/// Seed of the in-process workloads' class prototypes and shift timetable.
const TIMETABLE_SEED: u64 = 7;

/// Scenario axes of an in-process workload beyond the clean synchronous
/// protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Axes {
    /// The paper's protocol: no churn, no stragglers, synchronous rounds.
    Clean,
    /// Churn + exponential stragglers + staleness-aware async rounds.
    Churny,
    /// 20 % always-on sign-flip adversaries.
    Byzantine,
}

/// One in-process workload: a whole `run_federation_scenario` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioWorkload {
    /// Workload name as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    strategy: &'static str,
    dataset: DatasetKind,
    scale: SimScale,
    parties: Option<usize>,
    samples: Option<usize>,
    cohort_frac: Option<f32>,
    population: PopulationMode,
    bootstrap: usize,
    windows: usize,
    rounds: usize,
    codec: CodecSpec,
    budget_bytes: Option<u64>,
    join_chunk_bytes: Option<usize>,
    krum: bool,
    axes: Axes,
}

/// The `netfed_tcp` workload: an in-process coordinator driving real
/// `party-worker` processes over loopback TCP.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFedWorkload {
    /// Workload name as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    dataset: &'static str,
    scale: &'static str,
    strategy: &'static str,
    /// Worker processes (one per core of the sizing box).
    pub workers: usize,
    /// Federation rounds per session.
    pub rounds: usize,
}

/// Either kind of workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A whole in-process scenario run.
    Scenario(ScenarioWorkload),
    /// A networked session.
    NetFed(NetFedWorkload),
}

/// Looks a workload up by its `BENCHMARK.json` name. Round budgets are
/// sized so one repetition costs 2–4 s on the 2-core sizing box and a
/// `run_seconds` run fits several.
pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "paper_shift" => Workload::Scenario(ScenarioWorkload {
            name: "paper_shift",
            strategy: "shiftex",
            dataset: DatasetKind::Cifar10C,
            scale: SimScale::Paper,
            parties: None,
            samples: None,
            cohort_frac: None,
            population: PopulationMode::Resident,
            bootstrap: 6,
            windows: 1,
            rounds: 22,
            codec: CodecSpec::dense(),
            budget_bytes: None,
            join_chunk_bytes: None,
            krum: false,
            axes: Axes::Clean,
        }),
        "scale_lazy_churn" => Workload::Scenario(ScenarioWorkload {
            name: "scale_lazy_churn",
            strategy: "shiftex",
            dataset: DatasetKind::FashionMnist,
            scale: SimScale::Smoke,
            parties: Some(800),
            samples: Some(8),
            cohort_frac: None,
            population: PopulationMode::Lazy,
            bootstrap: 10,
            windows: 1,
            rounds: 8,
            codec: CodecSpec::dense(),
            budget_bytes: Some(98_304),
            join_chunk_bytes: Some(1024),
            krum: false,
            axes: Axes::Churny,
        }),
        "wide_cohort_byzantine" => Workload::Scenario(ScenarioWorkload {
            name: "wide_cohort_byzantine",
            strategy: "fedavg",
            dataset: DatasetKind::FashionMnist,
            scale: SimScale::Smoke,
            parties: Some(200),
            samples: Some(8),
            cohort_frac: Some(1.0),
            population: PopulationMode::Resident,
            bootstrap: 6,
            windows: 2,
            rounds: 5,
            codec: CodecSpec::quant8(256),
            budget_bytes: None,
            join_chunk_bytes: None,
            krum: true,
            axes: Axes::Byzantine,
        }),
        "netfed_tcp" => Workload::NetFed(NetFedWorkload {
            name: "netfed_tcp",
            dataset: "cifar10c",
            scale: "small",
            strategy: "fedavg",
            workers: 2,
            rounds: 150,
        }),
        _ => return None,
    })
}

impl ScenarioWorkload {
    /// The same configuration at 8 parties, 2 bootstrap rounds and one
    /// 2-round window — every axis still live, well under a second.
    #[cfg(test)]
    pub fn miniature(&self) -> Self {
        Self {
            parties: Some(8),
            samples: Some(self.samples.unwrap_or(16).min(16)),
            scale: SimScale::Smoke,
            bootstrap: 2,
            windows: 1,
            rounds: 2,
            ..self.clone()
        }
    }

    /// Federation rounds one run attempts.
    pub fn planned_rounds(&self) -> usize {
        self.bootstrap + self.windows * self.rounds
    }

    /// The dataset side of the workload: class prototypes and the shift
    /// timetable are part of its definition (a fixed seed), so that every
    /// `--seed` measures the same amount of structural work — the same
    /// regimes arriving at the same parties in the same windows. The
    /// `--seed` draws everything else: see [`Self::federation`].
    fn scenario(&self) -> Scenario {
        let scenario = Scenario::build_with_population(
            self.dataset,
            self.scale,
            TIMETABLE_SEED,
            self.parties,
            self.samples,
        );
        match self.cohort_frac {
            Some(frac) => scenario.with_cohort_frac(frac),
            None => scenario,
        }
    }

    /// The federation axes, seeded the way the `scenarios` bin seeds them.
    /// The runner derives every party's data stream, the model
    /// initialisation and the cohort draws from this spec's seed, and the
    /// engine its churn, straggler, attacker and codec-dither draws.
    fn federation(&self, seed: u64) -> ScenarioSpec {
        let fed = ScenarioSpec::sync(seed ^ 0x5ce7_a510);
        match self.axes {
            Axes::Clean => fed,
            Axes::Churny => fed
                .with_churn(ChurnSpec {
                    join_fraction: 0.2,
                    join_ramp_rounds: (self.planned_rounds() / 4).max(1),
                    leave_fraction: 0.0,
                    leave_after: self.planned_rounds() / 2 + 1,
                    horizon: self.planned_rounds(),
                    dropout: 0.1,
                })
                .with_stragglers(StragglerSpec {
                    dist: DelayDist::Exponential { mean: 0.8 },
                    slow_fraction: 0.0,
                    slow_factor: 4.0,
                    deadline: 1.0,
                    late: LatePolicy::Defer,
                })
                .with_async(AsyncSpec {
                    min_buffer: 4,
                    staleness_alpha: 0.5,
                    max_staleness: 3,
                    server_lr: 1.0,
                }),
            Axes::Byzantine => fed.with_attack(AttackSpec::new(AttackKind::SignFlip, 0.2)),
        }
    }

    /// Krum tolerates the configured 20 % attacker share of the population.
    fn fold(&self, scenario: &Scenario) -> FoldPolicy {
        if self.krum {
            FoldPolicy::Krum {
                f: (scenario.profile.num_parties / 5).max(1),
            }
        } else {
            FoldPolicy::Mean
        }
    }

    fn options(&self, scenario: &Scenario) -> FedRunOptions {
        let mut opts = FedRunOptions::new(self.windows, self.bootstrap, self.rounds)
            .with_codec(self.codec)
            .with_fold(self.fold(scenario))
            .with_population(self.population);
        if let Some(bytes) = self.budget_bytes {
            opts = opts.with_budget(BudgetSpec::per_round(bytes));
        }
        if let Some(bytes) = self.join_chunk_bytes {
            opts = opts.with_join_chunking(JoinConfig::quantized(bytes));
        }
        opts
    }
}

// ---------------------------------------------------------------------------
// Clock and trace decorator around a `FederatedAlgorithm`.

/// The instants an untraced run is read from: `init` returning (the first
/// round begins), every `eval` returning (a round or a window boundary
/// ends), and whether `begin_window` ran in between.
#[derive(Debug, Default)]
struct Marks {
    init_exit: Option<Instant>,
    /// `(eval returned at, a begin_window ran since the previous eval)`.
    evals: Vec<(Instant, bool)>,
    boundary_pending: bool,
}

#[derive(Debug)]
struct TraceState {
    tracer: Tracer,
    /// The open round/boundary interval, closed by the next `eval` return.
    gap: Option<usize>,
    rounds_done: u32,
}

/// `FederatedAlgorithm` wrapper that forwards every call. Untraced it is the
/// issue's `RoundClock` (one `Instant` per `init`/`eval` return, one flag
/// per `begin_window`); traced it is the `TimedAlgorithm` too (one span per
/// call, grouped under round / window-boundary interval spans).
struct Clocked {
    inner: Box<dyn FederatedAlgorithm>,
    marks: RefCell<Marks>,
    trace: Option<RefCell<TraceState>>,
}

impl Clocked {
    fn new(inner: Box<dyn FederatedAlgorithm>, tracer: Option<Tracer>) -> Self {
        Self {
            inner,
            marks: RefCell::new(Marks::default()),
            trace: tracer.map(|tracer| {
                RefCell::new(TraceState {
                    tracer,
                    gap: None,
                    rounds_done: 0,
                })
            }),
        }
    }

    /// Opens a span for a forwarded call when tracing. Calls before `init`
    /// returns belong to round 0, later ones to the round in progress.
    fn enter(&self, name: &'static str) -> Option<usize> {
        self.trace.as_ref().map(|state| {
            let mut s = state.borrow_mut();
            let round = if s.gap.is_some() {
                s.rounds_done + 1
            } else {
                0
            };
            s.tracer.enter(name, round)
        })
    }

    fn exit(&self, span: Option<usize>) {
        if let (Some(state), Some(id)) = (&self.trace, span) {
            state.borrow_mut().tracer.exit(id, None);
        }
    }

    /// Closes the open interval span (named by what it turned out to be) and
    /// opens the next one.
    fn turn_gap(&self, closed_as: &'static str) {
        if let Some(state) = &self.trace {
            let mut s = state.borrow_mut();
            if let Some(gap) = s.gap.take() {
                s.tracer.exit(gap, Some(closed_as));
                if closed_as == "fl.algo.round" {
                    s.rounds_done += 1;
                }
            }
            let round = s.rounds_done + 1;
            s.gap = Some(s.tracer.enter("fl.algo.tail", round));
        }
    }
}

impl FederatedAlgorithm for Clocked {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn arch(&self) -> &ArchSpec {
        self.inner.arch()
    }

    fn init(&mut self, parties: &PopulationView<'_>, rng: &mut StdRng) {
        let span = self.enter("fl.algo.init");
        self.inner.init(parties, rng);
        self.exit(span);
        self.marks.borrow_mut().init_exit = Some(Instant::now());
        self.turn_gap("fl.algo.tail");
    }

    fn begin_window(&mut self, window: usize, members: &PopulationView<'_>, rng: &mut StdRng) {
        self.marks.borrow_mut().boundary_pending = true;
        let span = self.enter("fl.algo.begin_window");
        self.inner.begin_window(window, members, rng);
        self.exit(span);
    }

    fn streams(&self) -> Vec<usize> {
        self.inner.streams()
    }

    fn broadcast_state(&self, key: usize) -> Vec<f32> {
        let span = self.enter("fl.algo.broadcast_state");
        let state = self.inner.broadcast_state(key);
        self.exit(span);
        state
    }

    fn train_config(&self, key: usize) -> TrainConfig {
        self.inner.train_config(key)
    }

    fn cohort(
        &mut self,
        key: usize,
        live: &PopulationView<'_>,
        selector: &mut dyn ParticipantSelector,
        rng: &mut StdRng,
    ) -> Vec<PartyId> {
        let span = self.enter("fl.selection.cohort");
        let cohort = self.inner.cohort(key, live, selector, rng);
        self.exit(span);
        cohort
    }

    fn local_step(&self, key: usize, party: &Party, decoded: &[f32], seed: u64) -> ModelUpdate {
        let span = self.enter("nn.local_step");
        let update = self.inner.local_step(key, party, decoded, seed);
        self.exit(span);
        update
    }

    fn fold(
        &mut self,
        key: usize,
        ready: &[WeightedUpdate],
        server_lr: f32,
        policy: &FoldPolicy,
    ) -> Vec<UpdateVerdict> {
        let span = self.enter("fl.robust.fold");
        let verdicts = self.inner.fold(key, ready, server_lr, policy);
        self.exit(span);
        verdicts
    }

    fn end_round(&mut self, live: &PopulationView<'_>, rng: &mut StdRng) {
        let span = self.enter("fl.algo.end_round");
        self.inner.end_round(live, rng);
        self.exit(span);
    }

    fn eval(&self, parties: &PopulationView<'_>) -> f32 {
        let span = self.enter("nn.eval");
        let accuracy = self.inner.eval(parties);
        self.exit(span);
        let boundary = {
            let mut marks = self.marks.borrow_mut();
            let boundary = std::mem::take(&mut marks.boundary_pending);
            marks.evals.push((Instant::now(), boundary));
            boundary
        };
        self.turn_gap(if boundary {
            "fl.algo.window_boundary"
        } else {
            "fl.algo.round"
        });
        accuracy
    }

    fn model_index(&self, party: PartyId) -> usize {
        self.inner.model_index(party)
    }

    fn num_models(&self) -> usize {
        self.inner.num_models()
    }
}

// ---------------------------------------------------------------------------
// In-process workloads: one run, its clock readings, its checks.

/// What one repetition of an in-process workload produced, as plain
/// numbers.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Repetition start → `init` returned: scenario build, population
    /// build, algorithm build and `init`.
    pub setup_s: f64,
    /// `init` returned → `run_federation_scenario` returned.
    pub run_s: f64,
    /// Per-round latency (train + fold + eval), window boundaries excluded.
    pub round_ms: Vec<f64>,
    /// Window advance + `begin_window` + post-shift eval, per boundary.
    pub boundary_ms: Vec<f64>,
    /// Rounds whose recorded accuracy is not a finite number.
    pub failed_rounds: usize,
    /// FNV-1a over the accuracy series bits and the communication totals.
    pub fingerprint: u64,
    /// Metered bytes (up + aborted up + down + first-contact + join chunks)
    /// per round.
    pub wire_bytes_per_round: f64,
    /// Exact counters of the run, keyed by per-layer metric name.
    pub counters: Values,
    /// Output checks that failed, as messages (empty = all passed).
    pub failures: Vec<String>,
    /// The recorded spans (empty for untraced runs).
    pub spans: Vec<Span>,
}

/// FNV-1a, the fingerprint the shipped coordinator prints for parameters.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn comm_words(c: &CommTotals) -> [u64; 13] {
    [
        c.up_bytes,
        c.down_bytes,
        c.messages,
        c.aborted_up_bytes,
        c.aborted_messages,
        c.first_contact_down_bytes,
        c.first_contact_messages,
        c.quarantined_up_bytes,
        c.quarantined_updates,
        c.join_chunk_down_bytes,
        c.join_chunk_messages,
        c.join_lost_down_bytes,
        c.join_lost_messages,
    ]
}

fn fingerprint(accuracy_series: &[f32], comm: &CommTotals) -> u64 {
    let accuracy = accuracy_series
        .iter()
        .flat_map(|a| a.to_bits().to_le_bytes());
    let comm = comm_words(comm).into_iter().flat_map(u64::to_le_bytes);
    fnv1a(accuracy.chain(comm))
}

fn comm_counters(comm: &CommTotals, out: &mut Values) {
    out.insert("fl.comm.up_bytes", comm.up_bytes as f64);
    out.insert("fl.comm.down_bytes", comm.down_bytes as f64);
    out.insert(
        "fl.comm.first_contact_down_bytes",
        comm.first_contact_down_bytes as f64,
    );
    out.insert(
        "fl.comm.join_chunk_down_bytes",
        comm.join_chunk_down_bytes as f64,
    );
    out.insert("fl.comm.aborted_up_bytes", comm.aborted_up_bytes as f64);
    out.insert(
        "fl.comm.quarantined_up_bytes",
        comm.quarantined_up_bytes as f64,
    );
    out.insert(
        "fl.comm.join_lost_down_bytes",
        comm.join_lost_down_bytes as f64,
    );
    out.insert("fl.comm.messages", comm.messages as f64);
}

/// Every byte the ledger metered as shipped: uploads (landed or aborted),
/// broadcasts, first-contact frames and join chunks.
fn metered_bytes(c: &CommTotals) -> u64 {
    c.up_bytes
        + c.aborted_up_bytes
        + c.down_bytes
        + c.first_contact_down_bytes
        + c.join_chunk_down_bytes
}

/// Useful ÷ attempted, 1 when nothing was attempted (nothing was wasted).
fn ratio(useful: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        useful as f64 / attempted as f64
    }
}

/// Output checks (b)–(d) of the issue, on the runtime's own result type.
fn check_result(w: &ScenarioWorkload, scenario: &Scenario, r: &FedRunResult) -> Vec<String> {
    let mut failures = Vec::new();
    let sum = |column: fn(&RoundParticipation) -> u64| -> u64 {
        r.participation.iter().map(column).sum()
    };
    let rows = [
        (
            "up",
            sum(|p| p.up_bytes),
            r.comm.up_bytes + r.comm.aborted_up_bytes,
        ),
        ("down", sum(|p| p.down_bytes), r.comm.down_bytes),
        (
            "first-contact",
            sum(|p| p.first_contact_down_bytes),
            r.comm.first_contact_down_bytes + r.comm.join_chunk_down_bytes,
        ),
    ];
    for (column, per_round, ledger) in rows {
        if per_round != ledger {
            failures.push(format!(
                "{}: per-round {column} bytes sum to {per_round}, ledger says {ledger}",
                w.name
            ));
        }
    }
    if r.accuracy_series.len() != w.planned_rounds() {
        failures.push(format!(
            "{}: {} rounds evaluated, {} planned",
            w.name,
            r.accuracy_series.len(),
            w.planned_rounds()
        ));
    }
    if w.population == PopulationMode::Lazy {
        let cohort = scenario.participants_per_round();
        if r.residency.pinned != 0 || r.residency.peak_cohort > cohort {
            failures.push(format!(
                "{}: lazy store left its envelope (pinned {}, peak cohort {} > {cohort})",
                w.name, r.residency.pinned, r.residency.peak_cohort
            ));
        }
    }
    if w.krum && r.comm.quarantined_updates == 0 {
        failures.push(format!(
            "{}: Krum quarantined nothing under 20 % sign-flip",
            w.name
        ));
    }
    failures
}

/// Runs one repetition of `w` from `seed`, traced or not.
pub fn run_scenario_workload(w: &ScenarioWorkload, seed: u64, traced: bool) -> ScenarioRun {
    let started = Instant::now();
    let mut tracer = traced.then(Tracer::new);
    let root = tracer.as_mut().map(|t| t.enter("experiments.run", 0));
    let scenario = w.scenario();
    let fed = w.federation(seed);
    let opts = w.options(&scenario);
    let algorithm = build_algorithm(w.strategy, &scenario, &ShiftExConfig::default())
        .expect("workload strategies are registered algorithms");
    let mut clocked = Clocked::new(algorithm, tracer);
    let result = run_federation_scenario(&mut clocked, &scenario, &fed, &opts);
    let ended = Instant::now();

    let marks = clocked.marks.into_inner();
    let spans = match clocked.trace {
        None => Vec::new(),
        Some(state) => {
            let mut state = state.into_inner();
            if let Some(gap) = state.gap.take() {
                state.tracer.exit(gap, None);
            }
            state
                .tracer
                .exit(root.expect("traced runs open a root span"), None);
            state.tracer.finish()
        }
    };

    let init_exit = marks.init_exit.expect("the driver calls init exactly once");
    let (mut round_ms, mut boundary_ms) = (Vec::new(), Vec::new());
    let mut previous = init_exit;
    for &(at, boundary) in &marks.evals {
        let ms = at.duration_since(previous).as_secs_f64() * 1e3;
        if boundary {
            boundary_ms.push(ms);
        } else {
            round_ms.push(ms);
        }
        previous = at;
    }

    let windows = result.windows.len().max(1) as f64;
    let acc_max_pct = result
        .windows
        .iter()
        .map(|m| f64::from(m.max_acc_pct))
        .sum::<f64>()
        / windows;
    let recovery_rounds = result
        .windows
        .iter()
        .map(|m| m.recovery_rounds.unwrap_or(w.rounds + 1) as f64)
        .sum::<f64>()
        / windows;
    let comm = &result.comm;

    let mut counters = Values::new();
    comm_counters(comm, &mut counters);
    let t = &result.totals;
    counters.insert("fl.scenario.selected", t.selected as f64);
    counters.insert("fl.scenario.delivered", t.delivered as f64);
    counters.insert("fl.scenario.dropped_churn", t.dropped_churn as f64);
    counters.insert("fl.scenario.dropped_late", t.dropped_late as f64);
    counters.insert("fl.scenario.deferred", t.deferred as f64);
    counters.insert("fl.scenario.stale_dropped", t.stale_dropped as f64);
    counters.insert("fl.scenario.aggregations", t.aggregations as f64);
    counters.insert(
        "fl.scenario.delivered_ratio",
        ratio(t.delivered, t.selected),
    );
    counters.insert(
        "fl.join.lost_ratio",
        1.0 - ratio(
            comm.join_chunk_down_bytes,
            comm.join_chunk_down_bytes + comm.join_lost_down_bytes,
        ),
    );
    counters.insert(
        "fl.robust.updates_folded",
        (t.delivered - comm.quarantined_updates.min(t.delivered)) as f64,
    );
    counters.insert(
        "fl.robust.updates_quarantined",
        comm.quarantined_updates as f64,
    );
    counters.insert(
        "fl.population.materializations",
        result.residency.materializations as f64,
    );
    counters.insert(
        "fl.population.peak_cohort",
        result.residency.peak_cohort as f64,
    );
    counters.insert("experiments.acc_max_pct", acc_max_pct);
    counters.insert("experiments.recovery_rounds", recovery_rounds);

    ScenarioRun {
        setup_s: init_exit.duration_since(started).as_secs_f64(),
        run_s: ended.duration_since(init_exit).as_secs_f64(),
        round_ms,
        boundary_ms,
        failed_rounds: result
            .accuracy_series
            .iter()
            .filter(|a| !a.is_finite())
            .count(),
        fingerprint: fingerprint(&result.accuracy_series, comm),
        wire_bytes_per_round: metered_bytes(comm) as f64
            / result.accuracy_series.len().max(1) as f64,
        counters,
        failures: check_result(w, &scenario, &result),
        spans,
    }
}

// ---------------------------------------------------------------------------
// Networked workload: in-process coordinator, real worker processes.

/// `CohortTransport` wrapper that forwards every call and reads the clock
/// around it: the first `exchange` entering (the first round begins), every
/// `round_complete` returning (a round ends), the time inside `exchange`
/// and inside the `local_step` callback (in-process transports only — a
/// networked coordinator never invokes it).
struct ClockedTransport<'a> {
    inner: &'a mut dyn CohortTransport,
    first_exchange: Option<Instant>,
    round_ends: Vec<Instant>,
    exchange_s: f64,
    local_step_s: f64,
    local_steps: usize,
    tracer: Option<Tracer>,
    /// The open round span, closed by `round_complete`.
    round_span: Option<usize>,
}

impl<'a> ClockedTransport<'a> {
    fn new(inner: &'a mut dyn CohortTransport, tracer: Option<Tracer>) -> Self {
        Self {
            inner,
            first_exchange: None,
            round_ends: Vec::new(),
            exchange_s: 0.0,
            local_step_s: 0.0,
            local_steps: 0,
            tracer,
            round_span: None,
        }
    }

    fn round_ms(&self) -> Vec<f64> {
        let mut previous = self.first_exchange;
        let mut out = Vec::with_capacity(self.round_ends.len());
        for &at in &self.round_ends {
            if let Some(p) = previous {
                out.push(at.duration_since(p).as_secs_f64() * 1e3);
            }
            previous = Some(at);
        }
        out
    }
}

impl CohortTransport for ClockedTransport<'_> {
    fn exchange(
        &mut self,
        exchange: &CohortExchange<'_>,
        live: &PopulationView<'_>,
        engine: &mut ScenarioEngine,
        ledger: Option<&CommLedger>,
        local_step: &mut LocalStepFn<'_>,
    ) -> Vec<UploadOutcome> {
        let entered = Instant::now();
        self.first_exchange.get_or_insert(entered);
        let round = self.round_ends.len() as u32 + 1;
        let Self {
            inner,
            tracer,
            round_span,
            local_step_s,
            local_steps,
            ..
        } = self;
        let span = tracer.as_mut().map(|t| {
            if round_span.is_none() {
                *round_span = Some(t.enter("fl.algo.round", round));
            }
            t.enter("net.exchange", round)
        });
        let mut timed_step = |party: &Party, decoded: &[f32], seed: u64| {
            let step = tracer.as_mut().map(|t| t.enter("nn.local_step", round));
            let at = Instant::now();
            let update = local_step(party, decoded, seed);
            *local_step_s += at.elapsed().as_secs_f64();
            *local_steps += 1;
            if let (Some(t), Some(id)) = (tracer.as_mut(), step) {
                t.exit(id, None);
            }
            update
        };
        let outcomes = inner.exchange(exchange, live, engine, ledger, &mut timed_step);
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.exit(id, None);
        }
        self.exchange_s += entered.elapsed().as_secs_f64();
        outcomes
    }

    fn round_complete(&mut self, engine: &mut ScenarioEngine) {
        self.inner.round_complete(engine);
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), self.round_span.take()) {
            t.exit(id, None);
        }
        self.round_ends.push(Instant::now());
    }
}

/// What one networked session (or its in-process reference) produced.
#[derive(Debug, Clone)]
pub struct NetRun {
    /// Session start (worker spawn) → the first exchange begins: process
    /// start-up, registration handshake, population and `init`.
    pub setup_s: f64,
    /// First exchange → last `round_complete`.
    pub run_s: f64,
    /// Per-round latency as the coordinator sees it.
    pub round_ms: Vec<f64>,
    /// Total seconds inside `exchange`.
    pub exchange_s: f64,
    /// Total seconds inside the `local_step` callback (reference run only).
    pub local_step_s: f64,
    /// `local_step` calls (reference run only).
    pub local_steps: usize,
    /// Uploads the session lost (deadline miss or dead connection).
    pub lost_uploads: usize,
    /// FNV-1a over every stream's final parameters and the ledger totals.
    pub fingerprint: u64,
    /// Socket bytes (out + in) per round; ledger bytes for the reference.
    pub wire_bytes_per_round: f64,
    /// Exact counters of the session, keyed by per-layer metric name.
    pub counters: Values,
    /// Output checks that failed, as messages.
    pub failures: Vec<String>,
    /// The exact child command lines, for the report's provenance.
    pub commands: Vec<String>,
    /// The recorded spans (empty for untraced runs).
    pub spans: Vec<Span>,
}

impl NetFedWorkload {
    #[cfg(test)]
    pub fn miniature(&self) -> Self {
        Self {
            scale: "smoke",
            rounds: 3,
            ..self.clone()
        }
    }

    fn scenario(&self, seed: u64) -> Scenario {
        Scenario::build(
            DatasetKind::parse(self.dataset).expect("workload dataset is registered"),
            SimScale::parse(self.scale).expect("workload scale is registered"),
            seed,
        )
    }

    fn config(&self) -> NetFedConfig {
        NetFedConfig {
            strategy: self.strategy.to_string(),
            codec: CodecSpec::dense(),
            selector: FedSelector::Uniform,
            rounds: self.rounds,
            join_chunk_bytes: None,
        }
    }

    /// The flags every process of the session must share, as the
    /// `party-worker` CLI spells them.
    fn shared_flags(&self, seed: u64) -> Vec<String> {
        [
            ("--dataset", self.dataset.to_string()),
            ("--scale", self.scale.to_string()),
            ("--seed", seed.to_string()),
            ("--strategy", self.strategy.to_string()),
            ("--codec", "dense".to_string()),
            ("--selector", "uniform".to_string()),
            ("--rounds", self.rounds.to_string()),
        ]
        .into_iter()
        .flat_map(|(flag, value)| [flag.to_string(), value])
        .collect()
    }
}

fn net_fingerprint(run: &NetFedRun) -> u64 {
    let params = run
        .params
        .values()
        .flatten()
        .flat_map(|x| x.to_bits().to_le_bytes());
    let comm = comm_words(&run.comm).into_iter().flat_map(u64::to_le_bytes);
    fnv1a(params.chain(comm))
}

/// Accuracy of the session's final model over the whole population — the
/// one quality reading a session without evaluation rounds can give.
fn net_accuracy_pct(scenario: &Scenario, run: &NetFedRun) -> f64 {
    let store =
        LazyPopulation::new(scenario.clone(), netfed_stream_seed(scenario.seed)).into_store();
    let view = store.view(store.party_ids());
    let params = run
        .params
        .values()
        .next()
        .expect("a session trains at least one stream");
    f64::from(evaluate_on_view(&scenario.spec, params, &view)) * 100.0
}

fn net_run(
    w: &NetFedWorkload,
    scenario: &Scenario,
    run: &NetFedRun,
    started: Instant,
    clock: ClockedTransport<'_>,
) -> NetRun {
    let first = clock
        .first_exchange
        .expect("a session runs at least one round");
    let last = *clock
        .round_ends
        .last()
        .expect("a session runs at least one round");
    let mut counters = Values::new();
    comm_counters(&run.comm, &mut counters);
    counters.insert("experiments.acc_max_pct", net_accuracy_pct(scenario, run));
    NetRun {
        setup_s: first.duration_since(started).as_secs_f64(),
        run_s: last.duration_since(first).as_secs_f64(),
        round_ms: clock.round_ms(),
        exchange_s: clock.exchange_s,
        local_step_s: clock.local_step_s,
        local_steps: clock.local_steps,
        lost_uploads: run.lost.len(),
        fingerprint: net_fingerprint(run),
        wire_bytes_per_round: metered_bytes(&run.comm) as f64 / w.rounds as f64,
        counters,
        failures: Vec::new(),
        commands: Vec::new(),
        spans: clock.tracer.map(Tracer::finish).unwrap_or_default(),
    }
}

/// The in-process reference of a session: the same `run_netfed_rounds` on
/// the same flags over `LocalTransport`. A healthy networked session must
/// reproduce its fingerprint bit for bit.
pub fn run_netfed_reference(w: &NetFedWorkload, seed: u64, traced: bool) -> NetRun {
    let started = Instant::now();
    let scenario = w.scenario(seed);
    let mut local = LocalTransport;
    let mut clock = ClockedTransport::new(&mut local, traced.then(Tracer::new));
    let run = run_netfed_rounds(&scenario, &w.config(), &mut clock);
    net_run(w, &scenario, &run, started, clock)
}

/// Wire-honesty reconciliation, as `crates/experiments/tests/netfed.rs`
/// pins it: socket bytes == ledger bytes + messages × (frame header +
/// per-kind context) + control frames, nothing unaccounted either way.
fn check_wire(run: &NetFedRun, stats: &NetStats, wire_out: u64, wire_in: u64) -> Vec<String> {
    let c = &run.comm;
    let overhead = |ctx: usize| (FRAME_HEADER_LEN + ctx) as u64;
    let equalities = [
        (
            "broadcast socket bytes vs ledger downlink + frame overhead",
            stats.broadcast_bytes,
            c.down_bytes
                + c.first_contact_down_bytes
                + stats.broadcast_msgs * overhead(BROADCAST_CTX_LEN),
        ),
        (
            "join-chunk socket bytes vs ledger chunk bytes + frame overhead",
            stats.join_chunk_bytes,
            c.join_chunk_down_bytes + stats.join_chunk_msgs * overhead(JOIN_CHUNK_CTX_LEN),
        ),
        (
            "upload socket bytes vs ledger uplink + frame overhead",
            stats.upload_bytes,
            c.up_bytes + stats.upload_msgs * overhead(UPLOAD_CTX_LEN),
        ),
        (
            "ledger messages vs frames on the wire",
            c.messages,
            stats.broadcast_msgs + stats.join_chunk_msgs + stats.upload_msgs,
        ),
        (
            "bytes written vs broadcast + join-chunk + control frames",
            wire_out,
            stats.broadcast_bytes + stats.join_chunk_bytes + stats.control_out_bytes,
        ),
        (
            "bytes read vs upload + stale-upload + control frames",
            wire_in,
            stats.upload_bytes + stats.stale_upload_bytes + stats.control_in_bytes,
        ),
        ("lost uploads", stats.lost_uploads, 0),
        ("deadline misses", stats.deadline_misses, 0),
        ("dead connections", stats.dead_conns, 0),
    ];
    equalities
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("netfed_tcp: {what}: {got} != {want}"))
        .collect()
}

/// Kills and reaps the worker processes if the session unwinds before it
/// could wait for them, so a failed run never leaves children behind.
struct Workers(Vec<Child>);

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs one networked session: binds a loopback listener, spawns
/// `w.workers` shipped `party-worker` processes from `worker_exe`, drives
/// the rounds from an in-process `Coordinator`, then shuts the workers down
/// and waits for them.
pub fn run_netfed_session(
    w: &NetFedWorkload,
    seed: u64,
    worker_exe: &Path,
    traced: bool,
) -> NetRun {
    let started = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
    let addr = listener.local_addr().expect("listener address");
    let mut commands = Vec::new();
    let mut workers = Workers(Vec::new());
    for index in 0..w.workers {
        let mut command = Command::new(worker_exe);
        command
            .args(["--connect", &addr.to_string()])
            .args(["--workers", &w.workers.to_string()])
            .args(["--worker-index", &index.to_string()])
            .args(w.shared_flags(seed))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        commands.push(format!("{command:?}"));
        workers
            .0
            .push(command.spawn().expect("spawn the party-worker executable"));
    }

    let scenario = w.scenario(seed);
    let cfg = w.config();
    let mut coordinator =
        Coordinator::accept(&listener, w.workers, cfg.codec, Duration::from_secs(30))
            .expect("every worker registers");
    let mut clock = ClockedTransport::new(&mut coordinator, traced.then(Tracer::new));
    let run = run_netfed_rounds(&scenario, &cfg, &mut clock);
    let mut out = net_run(w, &scenario, &run, started, clock);

    let stats = coordinator.stats();
    let (wire_out, wire_in) = (coordinator.wire_written(), coordinator.wire_read());
    coordinator.shutdown();
    for (index, mut child) in std::mem::take(&mut workers.0).into_iter().enumerate() {
        let status = child.wait().expect("wait for a party-worker");
        if !status.success() {
            out.failures
                .push(format!("netfed_tcp: worker {index} exited with {status}"));
        }
    }

    out.failures
        .extend(check_wire(&run, &stats, wire_out, wire_in));
    out.lost_uploads += stats.lost_uploads as usize;
    out.wire_bytes_per_round = (wire_out + wire_in) as f64 / w.rounds as f64;
    out.commands = commands;
    let frames = stats.broadcast_msgs + stats.join_chunk_msgs + stats.upload_msgs;
    let ledger = run.comm.up_bytes
        + run.comm.down_bytes
        + run.comm.first_contact_down_bytes
        + run.comm.join_chunk_down_bytes;
    let c = &mut out.counters;
    c.insert("net.broadcast_bytes", stats.broadcast_bytes as f64);
    c.insert("net.upload_bytes", stats.upload_bytes as f64);
    c.insert(
        "net.control_bytes",
        (stats.control_out_bytes + stats.control_in_bytes) as f64,
    );
    c.insert(
        "net.frame_overhead_bytes",
        (stats.broadcast_bytes + stats.join_chunk_bytes + stats.upload_bytes - ledger) as f64,
    );
    c.insert("net.frames", frames as f64);
    c.insert("net.lost_uploads", stats.lost_uploads as f64);
    c.insert("net.deadline_misses", stats.deadline_misses as f64);
    out
}

// ---------------------------------------------------------------------------
// Probes: a layer's public function timed directly, on inputs of the
// workload's own shape, to price the work hidden inside `eval` and the
// driver's self time.

/// Median microseconds per call of `op`: five samples of as many calls as
/// fit ~10 ms (one at least), after one warm-up call.
fn time_us<R>(mut op: impl FnMut() -> R) -> f64 {
    let warm = Instant::now();
    black_box(op());
    let once = warm.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.010 / once) as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let at = Instant::now();
            for _ in 0..iters {
                black_box(op());
            }
            at.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    median(&samples)
}

fn randn(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::randn(rows, cols, 0.0, 1.0, rng)
}

/// Probes whose inputs are the model and one party's data: `tensor`, `nn`,
/// `fl.codec`, `fl.robust`, `net` framing.
fn probe_model(
    scenario: &Scenario,
    party: &Party,
    codec: &CodecSpec,
    fold: &FoldPolicy,
    cohort: usize,
    out: &mut Values,
) {
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x70_72_6f_62);
    let spec = &scenario.spec;
    let model = Sequential::build(spec, &mut rng);
    let globals = model.params_flat();
    let train = TrainConfig::default();

    // The classifier head's dense product at one mini-batch.
    let a = randn(train.batch_size, spec.embed_dim(), &mut rng);
    let b = randn(spec.embed_dim(), spec.classes, &mut rng);
    out.insert("tensor.matmul_us", time_us(|| a.matmul(&b)));
    out.insert(
        "nn.forward_us",
        time_us(|| model.forward(party.test_features())),
    );
    let one_epoch = TrainConfig { epochs: 1, ..train };
    out.insert(
        "nn.train_epoch_us",
        time_us(|| {
            let mut local = model.clone();
            let mut rng = StdRng::seed_from_u64(1);
            local.train(
                party.train_features(),
                party.train_labels(),
                &one_epoch,
                &mut rng,
            )
        }),
    );

    // One party's update and one broadcast through the workload's codec.
    let trained: Vec<f32> = globals.iter().map(|g| g + 0.01).collect();
    let update = ModelUpdate {
        party: party.id(),
        params: trained.clone(),
        num_samples: party.train_labels().len(),
        train_loss: 0.5,
    };
    let frame = update.encode(codec, &globals);
    out.insert("fl.codec.update_frame_bytes", frame.len() as f64);
    out.insert(
        "fl.codec.encode_update_us",
        time_us(|| update.encode(codec, &globals)),
    );
    out.insert(
        "fl.codec.decode_update_us",
        time_us(|| ModelUpdate::decode(&frame, &globals)),
    );
    let broadcast = codec.encode_global(&trained, &globals);
    out.insert(
        "fl.codec.encode_global_us",
        time_us(|| codec.encode_global(&trained, &globals)),
    );
    out.insert(
        "fl.codec.decode_global_us",
        time_us(|| CodecSpec::decode_global(&broadcast, &globals)),
    );

    // One fold of a full cohort of distinct updates.
    let ready: Vec<WeightedUpdate> = (0..cohort)
        .map(|i| WeightedUpdate {
            update: ModelUpdate {
                party: PartyId(i),
                params: globals.iter().map(|g| g + 0.001 * i as f32).collect(),
                num_samples: update.num_samples.max(1),
                train_loss: 0.5,
            },
            staleness: 0,
            weight: 1.0,
        })
        .collect();
    out.insert(
        "fl.robust.aggregate_us",
        time_us(|| aggregate_robust(&globals, &ready, 1.0, fold)),
    );

    // One broadcast-sized frame written to and read back from a buffer.
    out.insert(
        "net.frame_roundtrip_us",
        time_us(|| {
            let mut wire = Vec::with_capacity(broadcast.len() + FRAME_HEADER_LEN);
            write_msg(&mut wire, MsgKind::Broadcast, &broadcast).expect("a Vec sink never fails");
            read_msg(&mut wire.as_slice()).expect("the frame just written parses")
        }),
    );
}

/// Probes of the in-process workloads: everything `probe_model` prices plus
/// the population, data and window-boundary layers at the workload's
/// population size and final window.
pub fn probe_scenario_layers(w: &ScenarioWorkload, seed: u64) -> Values {
    let mut out = Values::new();
    let scenario = w.scenario();
    let fed = w.federation(seed);
    let stream_seed = fed.seed ^ scenario.seed.rotate_left(17);
    let mut store = match w.population {
        PopulationMode::Lazy => LazyPopulation::new(scenario.clone(), stream_seed).into_store(),
        _ => ResidentPopulation::new(scenario.clone(), stream_seed).into_store(),
    };
    store.set_window(w.windows);
    let ids = store.party_ids();
    let party = store.party(ids[0]).expect("the population is not empty");

    // The adaptive controller's steady-state choice stands in for its ladder.
    let cohort = scenario.participants_per_round();
    let params = Sequential::build(&scenario.spec, &mut StdRng::seed_from_u64(0)).num_params();
    let codec = match w.budget_bytes {
        Some(bytes) => CodecController::new(fed.seed, BudgetSpec::per_round(bytes)).spec_for(
            1,
            0,
            cohort,
            params,
            &CommTotals::default(),
            0.0,
        ),
        None => w.codec,
    };
    probe_model(
        &scenario,
        &party,
        &codec,
        &w.fold(&scenario),
        cohort,
        &mut out,
    );

    out.insert(
        "fl.population.materialize_us",
        time_us(|| store.party(ids[ids.len() / 2])),
    );
    out.insert("fl.population.party_ids_us", time_us(|| store.party_ids()));
    let mut engine = ScenarioEngine::new(fed, &ids);
    engine.begin_round();
    out.insert(
        "fl.scenario.live_members_us",
        time_us(|| engine.live_members(&ids)),
    );
    let regime = scenario.schedule.regime(w.windows, 0);
    out.insert(
        "data.generate_us",
        time_us(|| {
            let mut rng = StdRng::seed_from_u64(2);
            scenario.generator.generate_with_regime(
                scenario.profile.samples_per_party,
                regime,
                &mut rng,
            )
        }),
    );

    // The window boundary's kernels at ShiftEx's own shapes: one party's
    // profile against the latent memory, the bootstrap calibration over a
    // stable pool, clustering of the shifted half, and the assignment of
    // every party to one of the expert pool's facilities.
    let cfg = ShiftExConfig::default();
    let mut rng = StdRng::seed_from_u64(3);
    let dim = scenario.spec.embed_dim();
    let (p, q) = (
        randn(cfg.profile_rows, dim, &mut rng),
        randn(cfg.profile_rows, dim, &mut rng),
    );
    let kernel = RbfKernel::median_heuristic(&p, &q);
    out.insert("detect.mmd2_us", time_us(|| mmd2_biased(&p, &q, &kernel)));
    let pool = randn(4 * cfg.profile_rows, dim, &mut rng);
    out.insert(
        "detect.calibrate_us",
        time_us(|| {
            let mut rng = StdRng::seed_from_u64(4);
            ThresholdCalibrator::default().calibrate_cov(&pool, &mut rng)
        }),
    );
    let shifted = (ids.len() / 2).clamp(cfg.max_clusters_per_window + 1, 1000);
    let points: Vec<Vec<f32>> = (0..shifted)
        .map(|i| Matrix::randn(1, dim, (i % 3) as f32 * 2.0, 1.0, &mut rng).into_vec())
        .collect();
    out.insert(
        "cluster.choose_k_us",
        time_us(|| {
            let mut rng = StdRng::seed_from_u64(5);
            choose_k(&points, cfg.max_clusters_per_window, &mut rng)
        }),
    );
    let problem = AssignmentProblem {
        cost: (0..ids.len())
            .map(|i| vec![0.1 * (i % 7) as f32, 0.2, 0.35])
            .collect(),
        is_new: vec![false, false, true],
        party_hists: vec![vec![0.1; scenario.profile.classes]; ids.len()],
        lambda: 0.5,
        mu: 0.5,
        u_max: ids.len(),
    };
    out.insert("core.assign_greedy_us", time_us(|| problem.solve_greedy()));
    out
}

/// Probes of the networked workload: the model-shaped ones, on one of its
/// parties.
pub fn probe_netfed_layers(w: &NetFedWorkload, seed: u64) -> Values {
    let mut out = Values::new();
    let scenario = w.scenario(seed);
    let store =
        LazyPopulation::new(scenario.clone(), netfed_stream_seed(scenario.seed)).into_store();
    let party = store
        .party(store.party_ids()[0])
        .expect("the population is not empty");
    let cohort = scenario.participants_per_round();
    probe_model(
        &scenario,
        &party,
        &CodecSpec::dense(),
        &FoldPolicy::Mean,
        cohort,
        &mut out,
    );
    out
}
