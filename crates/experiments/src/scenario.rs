//! Scenario construction: dataset profile + generator + shift schedule +
//! model architecture + round budget, matching the paper's protocol (§6).

use rand::rngs::StdRng;
use rand::SeedableRng;
use shiftex_data::{
    profile, Dataset, DatasetKind, DatasetProfile, PrototypeGenerator, ScheduleBuilder,
    ShiftSchedule, SimScale, WindowingMode,
};
use shiftex_fl::{
    AsyncSpec, AttackKind, AttackSchedule, AttackSpec, BudgetSpec, ChurnSpec, CodecSpec, DelayDist,
    FoldPolicy, LatePolicy, Party, PartyId, ScenarioSpec, StragglerSpec,
};
use shiftex_nn::{ArchSpec, InputShape};

use crate::cli::Args;

/// A fully-specified experiment scenario.
///
/// Cloning is cheap relative to party data (profile, generator prototypes
/// and schedule tables only) and is how a
/// [`LazyPopulation`](crate::population::LazyPopulation) captures the
/// recipe for building parties on demand.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Dataset profile (parties, windows, windowing mode, shapes).
    pub profile: DatasetProfile,
    /// Synthetic data generator shared by every party.
    pub generator: PrototypeGenerator,
    /// Which regime each party sees in each window.
    pub schedule: ShiftSchedule,
    /// Model architecture (the paper's per-dataset pairing).
    pub spec: ArchSpec,
    /// Communication rounds per window.
    pub rounds_per_window: usize,
    /// Base seed for reproducibility.
    pub seed: u64,
    /// Cohort size as a fraction of the population
    /// (`--cohort-frac`): `participants_per_round = ceil(f · parties)`.
    /// `None` keeps the legacy profile-derived cohort.
    pub cohort_frac: Option<f32>,
}

impl Scenario {
    /// Builds the scenario for `kind` at `scale` with deterministic seeding.
    pub fn build(kind: DatasetKind, scale: SimScale, seed: u64) -> Scenario {
        Self::build_with_population(kind, scale, seed, None, None)
    }

    /// Like [`Scenario::build`] but with the party count and/or per-party
    /// sample count overridden — the entry point for federation-scale runs
    /// (e.g. 100+ parties) beyond the paper's per-dataset profiles.
    pub fn build_with_population(
        kind: DatasetKind,
        scale: SimScale,
        seed: u64,
        num_parties: Option<usize>,
        samples_per_party: Option<usize>,
    ) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut profile = profile(kind, scale);
        if let Some(n) = num_parties {
            assert!(n > 0, "scenario needs at least one party");
            profile.num_parties = n;
        }
        if let Some(s) = samples_per_party {
            assert!(s > 0, "parties need at least one sample");
            profile.samples_per_party = s;
            profile.test_samples_per_party = (s / 2).max(4);
        }
        let generator = PrototypeGenerator::new(profile.shape, profile.classes, &mut rng);
        let schedule = ScheduleBuilder::from_profile(&profile, &mut rng).build(&mut rng);
        let spec = arch_for(kind, &profile);
        let rounds_per_window = match (kind, scale) {
            (_, SimScale::Smoke) => 6,
            (_, SimScale::Small) => 12,
            // Paper: >51-round recovery ceiling everywhere except
            // Tiny-ImageNet-C, which reports a 40-round ceiling.
            (DatasetKind::TinyImagenetC, SimScale::Paper) => 40,
            (_, SimScale::Paper) => 51,
        };
        Scenario {
            profile,
            generator,
            schedule,
            spec,
            rounds_per_window,
            seed,
            cohort_frac: None,
        }
    }

    /// Overrides the cohort size as a fraction of the population.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < frac ≤ 1`.
    pub fn with_cohort_frac(mut self, frac: f32) -> Scenario {
        assert!(
            frac > 0.0 && frac <= 1.0,
            "--cohort-frac must be in (0, 1], got {frac}"
        );
        self.cohort_frac = Some(frac);
        self
    }

    /// Cohort size per round: `ceil(cohort_frac · parties)` when a fraction
    /// is configured, otherwise scaled to the population with the legacy
    /// profile clamp.
    pub fn participants_per_round(&self) -> usize {
        match self.cohort_frac {
            Some(f) => {
                let n = self.profile.num_parties;
                // Shave a relative epsilon just above f32 rounding error so
                // fractions that overshoot their decimal (0.3 →
                // 0.30000001) don't ceil one party too far.
                let target = (f as f64 * n as f64) * (1.0 - 1e-6);
                (target.ceil() as usize).clamp(1, n)
            }
            None => (self.profile.num_parties / 2).clamp(4, 10),
        }
    }

    /// Round budget for the W0 burn-in: long enough that every technique
    /// reaches its plateau before the first shift arrives.
    pub fn bootstrap_rounds(&self) -> usize {
        self.rounds_per_window * 3
    }

    /// Party `i`'s fresh training rows for `window`, drawn off `rng` (its
    /// own `(id, window)` stream). A window's stream has one order: these
    /// rows, then [`draw_test`](Self::draw_test)'s test rows, and nothing
    /// after them.
    ///
    /// So a reader that skips the test rows leaves every earlier draw as it
    /// was, and a reader that wants only the test rows must first draw
    /// these, or resume from a stream state saved just after them.
    /// [`build_party`](Self::build_party),
    /// [`advance_party`](Self::advance_party) and the population providers
    /// all draw through these two halves, so they cannot disagree on that
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `window` is out of schedule range.
    pub fn draw_fresh(&self, i: usize, window: usize, rng: &mut StdRng) -> Dataset {
        let n = match (window, self.profile.windowing) {
            (0, _) | (_, WindowingMode::Tumbling) => self.profile.samples_per_party,
            (_, WindowingMode::Sliding) => self.profile.samples_per_party / 2,
        };
        self.generator
            .generate_with_regime(n, self.schedule.regime(window, i), rng)
    }

    /// Party `i`'s test rows for `window`: the draws that follow
    /// [`draw_fresh`](Self::draw_fresh)'s on the same stream.
    ///
    /// # Panics
    ///
    /// Panics if `window` is out of schedule range.
    pub fn draw_test(&self, i: usize, window: usize, rng: &mut StdRng) -> Dataset {
        let n = self.profile.test_samples_per_party;
        self.generator
            .generate_with_regime(n, self.schedule.regime(window, i), rng)
    }

    /// Builds party `i`'s window-0 (bootstrap) state, drawing from `rng` —
    /// the population providers call it against party `i`'s own stream.
    pub fn build_party(&self, i: usize, rng: &mut StdRng) -> Party {
        let train = self.draw_fresh(i, 0, rng);
        let test = self.draw_test(i, 0, rng);
        Party::new(PartyId(i), train, test)
    }

    /// Advances a single party to `window`, keyed by its [`PartyId`] in the
    /// shift schedule — what a population provider replays, one party's
    /// window chain at a time, without touching the rest of the population.
    ///
    /// Tumbling windows draw entirely fresh data; sliding windows carry half
    /// of the previous window's training samples forward (the overlap that
    /// "captures gradual change", §6).
    ///
    /// # Panics
    ///
    /// Panics if `window` is out of schedule range.
    pub fn advance_party(&self, party: &mut Party, window: usize, rng: &mut StdRng) {
        let fresh = self.draw_fresh(party.id().0, window, rng);
        let test = self.draw_test(party.id().0, window, rng);
        let train = match self.profile.windowing {
            WindowingMode::Tumbling => fresh,
            WindowingMode::Sliding => {
                // Keep the most recent half of the old window.
                let old = party.train();
                let keep = old.len().min(self.profile.samples_per_party - fresh.len());
                let idx: Vec<usize> = (old.len() - keep..old.len()).collect();
                let carried = old.subset(&idx);
                Dataset::concat(&[&carried, &fresh])
            }
        };
        party.advance_window(train, test);
    }

    /// Number of evaluation windows (W1..Wn).
    pub fn eval_windows(&self) -> usize {
        self.profile.eval_windows
    }
}

/// Builds a federation [`ScenarioSpec`] (churn × stragglers × round mode)
/// from experiment CLI flags. All axes default off, so a bare invocation
/// reproduces the paper's synchronous full-participation protocol.
///
/// Recognised flags:
///
/// * churn — `--dropout P`, `--join-frac F --join-ramp R`,
///   `--leave-frac F --leave-after R`;
/// * stragglers — `--straggle-mean M` (exponential delays),
///   `--slow-frac F --slow-factor X`, `--deadline D`,
///   `--late drop|defer`;
/// * asynchrony — `--async`, `--buffer N`, `--staleness-alpha A`,
///   `--max-staleness S`, `--server-lr E`;
/// * adversaries — `--attack sign-flip|scaled-noise|label-flip`,
///   `--attack-frac F` (default 0.2), `--attack-factor X` (scaled-noise
///   inflation, default 10), `--attack-from R` (sleeper schedule) or
///   `--attack-prob P` (intermittent schedule; mutually exclusive).
///
/// `horizon` is the total simulated round budget (used to place leave
/// events).
pub fn federation_spec_from_args(args: &Args, seed: u64, horizon: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::sync(seed);

    let dropout: f32 = args.value_or("dropout", 0.0);
    let join_frac: f32 = args.value_or("join-frac", 0.0);
    let leave_frac: f32 = args.value_or("leave-frac", 0.0);
    if dropout > 0.0 || join_frac > 0.0 || leave_frac > 0.0 {
        spec = spec.with_churn(ChurnSpec {
            join_fraction: join_frac,
            join_ramp_rounds: args.value_or("join-ramp", horizon / 4 + 1),
            leave_fraction: leave_frac,
            leave_after: args.value_or("leave-after", horizon / 2 + 1),
            horizon,
            dropout,
        });
    }

    let straggle_mean: f32 = args.value_or("straggle-mean", 0.0);
    if straggle_mean > 0.0 {
        let late = match args.value("late").unwrap_or("defer") {
            "drop" => LatePolicy::Drop,
            "defer" => LatePolicy::Defer,
            other => panic!("invalid value for --late: {other:?} (drop|defer)"),
        };
        spec = spec.with_stragglers(StragglerSpec {
            dist: DelayDist::Exponential {
                mean: straggle_mean,
            },
            slow_fraction: args.value_or("slow-frac", 0.0),
            slow_factor: args.value_or("slow-factor", 4.0),
            deadline: args.value_or("deadline", 1.0),
            late,
        });
    } else {
        // A sub-flag without its enabling flag would be silently ignored —
        // and the run attributed to a scenario that never executed.
        for key in ["deadline", "late", "slow-frac", "slow-factor"] {
            assert!(
                args.value(key).is_none(),
                "--{key} has no effect without --straggle-mean > 0"
            );
        }
    }

    if args.switch("async") {
        spec = spec.with_async(AsyncSpec {
            min_buffer: args.value_or("buffer", 1),
            staleness_alpha: args.value_or("staleness-alpha", 0.5),
            max_staleness: args.value_or("max-staleness", 4),
            server_lr: args.value_or("server-lr", 1.0),
        });
    } else {
        for key in ["buffer", "staleness-alpha", "max-staleness", "server-lr"] {
            assert!(
                args.value(key).is_none(),
                "--{key} has no effect without --async"
            );
        }
    }

    if let Some(name) = args.value("attack") {
        let kind = match name {
            "sign-flip" => AttackKind::SignFlip,
            "scaled-noise" => AttackKind::ScaledNoise {
                factor: args.value_or("attack-factor", 10.0),
            },
            "label-flip" => AttackKind::LabelFlip,
            other => {
                panic!("unknown --attack {other:?} (sign-flip|scaled-noise|label-flip)")
            }
        };
        if !matches!(kind, AttackKind::ScaledNoise { .. }) {
            assert!(
                args.value("attack-factor").is_none(),
                "--attack-factor has no effect without --attack scaled-noise"
            );
        }
        let from = args.value("attack-from");
        let prob = args.value("attack-prob");
        assert!(
            from.is_none() || prob.is_none(),
            "--attack-from and --attack-prob are mutually exclusive schedules"
        );
        let schedule = if from.is_some() {
            AttackSchedule::Sleeper {
                from_round: args.value_or("attack-from", 1),
            }
        } else if prob.is_some() {
            AttackSchedule::Intermittent {
                prob: args.value_or("attack-prob", 1.0),
            }
        } else {
            AttackSchedule::Always
        };
        spec = spec.with_attack(
            AttackSpec::new(kind, args.value_or("attack-frac", 0.2)).with_schedule(schedule),
        );
    } else {
        for key in ["attack-frac", "attack-factor", "attack-from", "attack-prob"] {
            assert!(
                args.value(key).is_none(),
                "--{key} has no effect without --attack"
            );
        }
    }
    spec
}

/// Builds a robust-aggregation [`FoldPolicy`] from experiment CLI flags.
///
/// Recognised flags:
///
/// * `--fold mean|trimmed|median|krum` — server fold rule (default
///   `mean`, the bit-identical weighted average);
/// * `--trim-beta B` — per-side trim fraction for `trimmed` (default 0.2);
/// * `--krum-f F` — tolerated Byzantine count for `krum` (default 2).
///
/// Parameter sub-flags without the fold that uses them are rejected, so a
/// run is never silently attributed to a policy that ignored its knobs.
pub fn fold_policy_from_args(args: &Args) -> FoldPolicy {
    let name = args.value("fold").unwrap_or("mean");
    let beta: f32 = args.value_or("trim-beta", 0.2);
    let f: usize = args.value_or("krum-f", 2);
    let policy = FoldPolicy::parse(name, beta, f)
        .unwrap_or_else(|| panic!("unknown --fold {name:?} (mean|trimmed|median|krum)"));
    if !matches!(policy, FoldPolicy::TrimmedMean { .. }) {
        assert!(
            args.value("trim-beta").is_none(),
            "--trim-beta has no effect without --fold trimmed"
        );
    }
    if !matches!(policy, FoldPolicy::Krum { .. }) {
        assert!(
            args.value("krum-f").is_none(),
            "--krum-f has no effect without --fold krum"
        );
    }
    policy
}

/// Builds a wire [`CodecSpec`] from experiment CLI flags.
///
/// Recognised flags:
///
/// * `--codec NAME` — `dense` (default), `quant8`, `delta` (dense
///   residuals), `delta-quant8`, `topk` / `delta-topk` (both
///   residual-coded);
/// * `--quant-block N` — coordinates per int8 quantisation block
///   (default 256);
/// * `--topk-density D` — kept fraction for sparsified uploads
///   (default 0.05).
///
/// Parameter sub-flags without a codec that uses them are rejected, so a
/// run is never silently attributed to a codec that ignored its knobs.
pub fn codec_spec_from_args(args: &Args) -> CodecSpec {
    let name = args.value("codec").unwrap_or("dense");
    let block: usize = args.value_or("quant-block", 256);
    let density: f32 = args.value_or("topk-density", 0.05);
    let spec = CodecSpec::parse(name, block, density).unwrap_or_else(|| {
        panic!("unknown --codec {name:?} (dense|quant8|delta|delta-quant8|topk|delta-topk)")
    });
    if !matches!(spec.kind, shiftex_fl::CodecKind::Quant8 { .. }) {
        assert!(
            args.value("quant-block").is_none(),
            "--quant-block has no effect without --codec quant8/delta-quant8"
        );
    }
    if !matches!(spec.kind, shiftex_fl::CodecKind::TopK { .. }) {
        assert!(
            args.value("topk-density").is_none(),
            "--topk-density has no effect without --codec topk/delta-topk"
        );
    }
    spec
}

/// Builds the adaptive codec controller's [`BudgetSpec`] from experiment
/// CLI flags, or `None` when the run is on a static codec.
///
/// Recognised flags (all require `--codec adaptive`):
///
/// * `--budget-bytes N` — cap on estimated bytes per round per stream;
/// * `--budget-party-bytes N` — cap on estimated bytes per party per round.
///
/// `--codec adaptive` with neither cap runs the controller on an unlimited
/// budget (it degrades to its densest rung). Budget flags without
/// `--codec adaptive` are rejected, so a run is never silently attributed
/// to a controller that never ran.
pub fn budget_spec_from_args(args: &Args) -> Option<BudgetSpec> {
    let adaptive = args.value("codec") == Some("adaptive");
    if !adaptive {
        for key in ["budget-bytes", "budget-party-bytes"] {
            assert!(
                args.value(key).is_none(),
                "--{key} has no effect without --codec adaptive"
            );
        }
        return None;
    }
    let round_bytes = args
        .value("budget-bytes")
        .map(|_| args.value_or("budget-bytes", 0u64));
    let party_bytes = args
        .value("budget-party-bytes")
        .map(|_| args.value_or("budget-party-bytes", 0u64));
    Some(BudgetSpec {
        round_bytes,
        party_bytes,
    })
}

/// The paper's architecture pairing (§6 "Models"), in Lite form.
fn arch_for(kind: DatasetKind, profile: &DatasetProfile) -> ArchSpec {
    let input = InputShape {
        c: profile.shape.c,
        h: profile.shape.h,
        w: profile.shape.w,
    };
    match kind {
        DatasetKind::Fmow => ArchSpec::densenet121_lite(input, profile.classes, 24),
        DatasetKind::TinyImagenetC => ArchSpec::resnet50_lite(input, profile.classes, 24),
        DatasetKind::Cifar10C => ArchSpec::resnet18_lite(input, profile.classes, 24),
        DatasetKind::Femnist | DatasetKind::FashionMnist => {
            ArchSpec::lenet5_lite(input, profile.classes, 24)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::ResidentPopulation;

    #[test]
    fn build_produces_consistent_scenario() {
        let s = Scenario::build(DatasetKind::Cifar10C, SimScale::Smoke, 1);
        assert_eq!(s.profile.kind, DatasetKind::Cifar10C);
        assert_eq!(s.schedule.num_parties(), s.profile.num_parties);
        assert_eq!(s.schedule.num_windows(), s.profile.eval_windows + 1);
        assert_eq!(s.spec.input.dim(), s.profile.shape.dim());
    }

    #[test]
    fn window0_parties_have_window_data() {
        let s = Scenario::build(DatasetKind::Femnist, SimScale::Smoke, 2);
        let store = ResidentPopulation::new(s.clone(), 3).into_store();
        assert_eq!(store.len(), s.profile.num_parties);
        assert!(store.party_ids().into_iter().all(|id| {
            store.with_party(id, |p| p.train().len()) == Some(s.profile.samples_per_party)
        }));
    }

    #[test]
    fn advance_respects_windowing_mode() {
        // Sliding: half the samples are carried over.
        let s = Scenario::build(DatasetKind::FashionMnist, SimScale::Smoke, 4);
        assert_eq!(s.profile.windowing, WindowingMode::Sliding);
        let mut rng = StdRng::seed_from_u64(5);
        let mut party = s.build_party(0, &mut rng);
        let before = party.train().clone();
        s.advance_party(&mut party, 1, &mut rng);
        let after = party.train();
        assert_eq!(after.len(), s.profile.samples_per_party);
        // First half of the new window equals the last half of the old one.
        let carried = before.subset(&(before.len() / 2..before.len()).collect::<Vec<_>>());
        assert_eq!(after.features().row(0), carried.features().row(0));

        // Tumbling: all fresh.
        let s = Scenario::build(DatasetKind::Fmow, SimScale::Smoke, 6);
        assert_eq!(s.profile.windowing, WindowingMode::Tumbling);
        let mut party = s.build_party(0, &mut rng);
        let before = party.train().clone();
        s.advance_party(&mut party, 1, &mut rng);
        assert_ne!(party.train().features(), before.features());
    }

    #[test]
    fn all_five_scenarios_build() {
        for kind in DatasetKind::all() {
            let s = Scenario::build(kind, SimScale::Smoke, 7);
            assert!(s.eval_windows() >= 4);
            assert!(s.rounds_per_window >= 4);
        }
    }

    #[test]
    fn population_override_scales_to_100_parties() {
        let s = Scenario::build_with_population(
            DatasetKind::FashionMnist,
            SimScale::Smoke,
            3,
            Some(100),
            Some(12),
        );
        assert_eq!(s.profile.num_parties, 100);
        assert_eq!(s.schedule.num_parties(), 100);
        let store = ResidentPopulation::new(s, 4).into_store();
        assert_eq!(store.len(), 100);
        assert!(store
            .party_ids()
            .into_iter()
            .all(|id| store.with_party(id, |p| p.train().len()) == Some(12)));
    }

    #[test]
    fn federation_spec_parses_all_axes() {
        let args = Args::parse(
            "--dropout 0.2 --join-frac 0.1 --leave-frac 0.1 --straggle-mean 0.8 \
             --deadline 1.5 --late drop --async --buffer 8 --staleness-alpha 0.7 \
             --max-staleness 3 --server-lr 0.9"
                .split_whitespace()
                .map(String::from),
        );
        let spec = federation_spec_from_args(&args, 7, 40);
        let churn = spec.churn.expect("churn configured");
        assert_eq!(churn.dropout, 0.2);
        assert_eq!(churn.horizon, 40);
        let strag = spec.stragglers.expect("stragglers configured");
        assert_eq!(strag.late, LatePolicy::Drop);
        assert_eq!(strag.deadline, 1.5);
        match spec.mode {
            shiftex_fl::RoundMode::Async(a) => {
                assert_eq!(a.min_buffer, 8);
                assert_eq!(a.max_staleness, 3);
                assert_eq!(a.server_lr, 0.9);
            }
            other => panic!("expected async mode, got {other:?}"),
        }
        // Bare flags reproduce the paper protocol.
        let bare = federation_spec_from_args(&Args::default(), 7, 40);
        assert_eq!(bare, ScenarioSpec::sync(7));
    }

    #[test]
    #[should_panic(expected = "--deadline has no effect without --straggle-mean")]
    fn straggler_subflag_without_enabler_is_rejected() {
        let args = Args::parse(
            "--deadline 0.5 --late drop"
                .split_whitespace()
                .map(String::from),
        );
        let _ = federation_spec_from_args(&args, 1, 10);
    }

    #[test]
    #[should_panic(expected = "--buffer has no effect without --async")]
    fn async_subflag_without_enabler_is_rejected() {
        let args = Args::parse("--buffer 8".split_whitespace().map(String::from));
        let _ = federation_spec_from_args(&args, 1, 10);
    }

    #[test]
    fn attack_axis_parses_all_kinds_and_schedules() {
        let args = Args::parse(
            "--attack scaled-noise --attack-frac 0.3 --attack-factor 5 --attack-from 9"
                .split_whitespace()
                .map(String::from),
        );
        let spec = federation_spec_from_args(&args, 7, 40);
        let attack = spec.attack.expect("attack configured");
        assert_eq!(attack.kind, AttackKind::ScaledNoise { factor: 5.0 });
        assert_eq!(attack.fraction, 0.3);
        assert_eq!(attack.schedule, AttackSchedule::Sleeper { from_round: 9 });

        let args = Args::parse(
            "--attack sign-flip --attack-prob 0.5"
                .split_whitespace()
                .map(String::from),
        );
        let attack = federation_spec_from_args(&args, 7, 40).attack.unwrap();
        assert_eq!(attack.kind, AttackKind::SignFlip);
        assert_eq!(attack.fraction, 0.2, "fraction defaults to 20 %");
        assert_eq!(attack.schedule, AttackSchedule::Intermittent { prob: 0.5 });

        let args = Args::parse("--attack label-flip".split_whitespace().map(String::from));
        let attack = federation_spec_from_args(&args, 7, 40).attack.unwrap();
        assert_eq!(attack.kind, AttackKind::LabelFlip);
        assert_eq!(attack.schedule, AttackSchedule::Always);
    }

    #[test]
    #[should_panic(expected = "--attack-frac has no effect without --attack")]
    fn attack_subflag_without_enabler_is_rejected() {
        let args = Args::parse("--attack-frac 0.2".split_whitespace().map(String::from));
        let _ = federation_spec_from_args(&args, 1, 10);
    }

    #[test]
    #[should_panic(expected = "--attack-factor has no effect without --attack scaled-noise")]
    fn attack_factor_requires_scaled_noise() {
        let args = Args::parse(
            "--attack sign-flip --attack-factor 3"
                .split_whitespace()
                .map(String::from),
        );
        let _ = federation_spec_from_args(&args, 1, 10);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn attack_schedules_are_mutually_exclusive() {
        let args = Args::parse(
            "--attack sign-flip --attack-from 3 --attack-prob 0.5"
                .split_whitespace()
                .map(String::from),
        );
        let _ = federation_spec_from_args(&args, 1, 10);
    }

    #[test]
    fn fold_policy_parses_all_rules() {
        assert_eq!(fold_policy_from_args(&Args::default()), FoldPolicy::Mean);
        let args = Args::parse(
            "--fold trimmed --trim-beta 0.3"
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(
            fold_policy_from_args(&args),
            FoldPolicy::TrimmedMean { beta: 0.3 }
        );
        let args = Args::parse("--fold median".split_whitespace().map(String::from));
        assert_eq!(fold_policy_from_args(&args), FoldPolicy::CoordinateMedian);
        let args = Args::parse(
            "--fold krum --krum-f 3"
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(fold_policy_from_args(&args), FoldPolicy::Krum { f: 3 });
    }

    #[test]
    #[should_panic(expected = "--krum-f has no effect without --fold krum")]
    fn fold_subflag_without_enabler_is_rejected() {
        let args = Args::parse("--krum-f 2".split_whitespace().map(String::from));
        let _ = fold_policy_from_args(&args);
    }

    #[test]
    #[should_panic(expected = "unknown --fold")]
    fn unknown_fold_name_is_rejected() {
        let args = Args::parse("--fold average".split_whitespace().map(String::from));
        let _ = fold_policy_from_args(&args);
    }

    #[test]
    fn codec_spec_parses_all_knobs() {
        let args = Args::parse(
            "--codec delta-quant8 --quant-block 128"
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(
            codec_spec_from_args(&args),
            CodecSpec::quant8(128).with_delta()
        );
        let args = Args::parse(
            "--codec topk --topk-density 0.1"
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(
            codec_spec_from_args(&args),
            CodecSpec::topk(0.1).with_delta()
        );
        // Bare invocation stays on the dense default.
        assert_eq!(codec_spec_from_args(&Args::default()), CodecSpec::dense());
    }

    #[test]
    #[should_panic(expected = "--quant-block has no effect")]
    fn codec_subflag_without_enabler_is_rejected() {
        let args = Args::parse("--quant-block 64".split_whitespace().map(String::from));
        let _ = codec_spec_from_args(&args);
    }

    #[test]
    #[should_panic(expected = "unknown --codec")]
    fn unknown_codec_name_is_rejected() {
        let args = Args::parse("--codec gzip".split_whitespace().map(String::from));
        let _ = codec_spec_from_args(&args);
    }

    #[test]
    fn cohort_frac_scales_the_cohort_with_the_population() {
        let s = Scenario::build_with_population(
            DatasetKind::FashionMnist,
            SimScale::Smoke,
            3,
            Some(100),
            Some(12),
        );
        assert_eq!(s.participants_per_round(), 10, "legacy clamp");
        assert_eq!(s.clone().with_cohort_frac(0.3).participants_per_round(), 30);
        // Ceiling, not truncation: 0.25 · 9 = 2.25 → 3.
        let nine = Scenario::build_with_population(
            DatasetKind::Femnist,
            SimScale::Smoke,
            3,
            Some(9),
            None,
        );
        assert_eq!(nine.with_cohort_frac(0.25).participants_per_round(), 3);
        // Full participation is representable.
        assert_eq!(s.with_cohort_frac(1.0).participants_per_round(), 100);
    }

    #[test]
    #[should_panic(expected = "--cohort-frac must be in (0, 1]")]
    fn cohort_frac_out_of_range_is_rejected() {
        let s = Scenario::build(DatasetKind::Femnist, SimScale::Smoke, 3);
        let _ = s.with_cohort_frac(1.5);
    }

    #[test]
    fn budget_spec_parses_caps_under_adaptive() {
        assert_eq!(budget_spec_from_args(&Args::default()), None);
        let args = Args::parse(
            "--codec adaptive --budget-bytes 98304"
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(
            budget_spec_from_args(&args),
            Some(BudgetSpec::per_round(98304))
        );
        let args = Args::parse(
            "--codec adaptive --budget-party-bytes 4096"
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(
            budget_spec_from_args(&args),
            Some(BudgetSpec::per_party(4096))
        );
        // Adaptive with no caps: controller on an unlimited budget.
        let args = Args::parse("--codec adaptive".split_whitespace().map(String::from));
        assert_eq!(budget_spec_from_args(&args), Some(BudgetSpec::unlimited()));
    }

    #[test]
    #[should_panic(expected = "--budget-bytes has no effect without --codec adaptive")]
    fn budget_subflag_without_adaptive_is_rejected() {
        let args = Args::parse("--budget-bytes 1000".split_whitespace().map(String::from));
        let _ = budget_spec_from_args(&args);
    }

    #[test]
    fn same_seed_same_scenario() {
        let a = Scenario::build(DatasetKind::Fmow, SimScale::Smoke, 9);
        let b = Scenario::build(DatasetKind::Fmow, SimScale::Smoke, 9);
        let pa = a.build_party(0, &mut StdRng::seed_from_u64(1));
        let pb = b.build_party(0, &mut StdRng::seed_from_u64(1));
        assert_eq!(pa.train().features(), pb.train().features());
    }
}
