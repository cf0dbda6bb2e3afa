//! Bit-level fingerprints of whole runs and of the robust folds.
//!
//! Each row of [`TABLE`] is an FNV-1a hash over everything a run exposes:
//! the accuracy series' `to_bits`, every [`CommTotals`] field, every
//! [`RoundParticipation`] row, and each final model's parameter bits (read
//! back from the algorithm through `streams` + `broadcast_state`). A
//! refactor that is meant to change no number passes this table untouched.
//! A change that moves a number deterministically fails it, and
//! `--nocapture` prints the rows as computed.
//!
//! Rows:
//! * all six algorithms under a 20 % sign-flip attack × {Krum, trimmed
//!   mean, median}, on the FashionMNIST smoke fixture;
//! * a wide cohort (FedAvg, 40 parties × 8 samples, every party every
//!   round, quant8, Krum `f = 8`): 40 updates span one full and one partial
//!   panel of the Krum distance kernel;
//! * FedProx, Fielding, FLIPS and FedDrift on `algorithm_conformance`'s
//!   dense synchronous golden fixture (FedAvg and ShiftEx are pinned
//!   there);
//! * all six algorithms under churn with dropout and quant8 uploads;
//! * all six algorithms under `scale_lazy_churn`'s axes at smoke size:
//!   a lazy population, churn, stragglers, async folds, the adaptive codec
//!   and chunked joins;
//! * FedDrift on a fixture where it splits into several models;
//! * [`aggregate_robust`] under all four policies on a fixed 200 × 2146
//!   fold (the benchmark's `wide_cohort_byzantine` shape), hashing the
//!   folded parameters, every verdict score and every quarantine flag.
//!
//! The table holds per commit, not per CPU: no kernel fuses a multiply into
//! an add, so a `target-cpu=native` build and a `-C target-cpu=x86-64`
//! build compute every row alike, and CI runs this file under both.

use shiftex::core::ShiftExConfig;
use shiftex::data::{DatasetKind, SimScale};
use shiftex::experiments::{
    build_algorithm, run_federation_scenario, FedRunOptions, FedRunResult, PopulationMode,
    Scenario, ALGORITHM_NAMES,
};
use shiftex::fl::{
    aggregate_robust, AsyncSpec, AttackKind, AttackSpec, BudgetSpec, ChurnSpec, CodecSpec,
    CommTotals, DelayDist, FoldPolicy, JoinConfig, LatePolicy, ModelUpdate, ParticipationStats,
    PartyId, RoundParticipation, ScenarioSpec, StragglerSpec, WeightedUpdate,
};

/// Pinned fingerprints, one per row (see the module docs). FedDrift's
/// attacked, `churn` and `lazy_churn` rows equal FedAvg's: on those
/// fixtures no party's loss regresses past FedDrift's 0.35 tolerance, so it
/// never splits and runs FedAvg's rounds exactly. `split/feddrift` is the
/// row where it does.
#[rustfmt::skip]
const TABLE: [(&str, u64); 40] = [
    ("fedavg/krum",            0x88ab_39a9_6435_1983),
    ("fedprox/krum",           0x7f7f_ac0d_7502_0034),
    ("fielding/krum",          0x5699_c0c7_1beb_8f7f),
    ("flips/krum",             0xc2a4_d00b_6a90_8dde),
    ("feddrift/krum",          0x88ab_39a9_6435_1983),
    ("shiftex/krum",           0x6130_7635_2e09_41eb),
    ("fedavg/trimmed",         0xb48b_7bdd_de54_ed8b),
    ("fedprox/trimmed",        0x0acb_c691_337d_09f4),
    ("fielding/trimmed",       0xa7ac_f86f_6f42_23ec),
    ("flips/trimmed",          0x29ef_b085_7618_6d59),
    ("feddrift/trimmed",       0xb48b_7bdd_de54_ed8b),
    ("shiftex/trimmed",        0x8803_100e_eca4_510e),
    ("fedavg/median",          0x927f_4ea7_024a_54c5),
    ("fedprox/median",         0xb8fe_0bb3_f327_94a2),
    ("fielding/median",        0x0436_6c9a_f955_2b15),
    ("flips/median",           0x313d_18e2_4a3e_0b53),
    ("feddrift/median",        0x927f_4ea7_024a_54c5),
    ("shiftex/median",         0x2b57_64e0_808f_6035),
    ("wide40/fedavg/krum",     0xa006_e2a1_bd7e_60d6),
    ("fold200x2146/mean",      0xd6fd_2b19_f45f_fb3f),
    ("fold200x2146/trimmed",   0x22d6_5e67_944d_274a),
    ("fold200x2146/median",    0x99c1_252e_9835_41a9),
    ("fold200x2146/krum",      0xb482_37e3_98a0_80d0),
    ("dense/fedprox",          0xa4cf_2e43_7cdb_950b),
    ("dense/fielding",         0x6118_8e48_cfe6_7713),
    ("dense/flips",            0x2d23_e79b_b072_e057),
    ("dense/feddrift",         0xc1db_b7db_5915_4235),
    ("churn/fedavg",           0x9d36_410f_9dde_5c50),
    ("churn/fedprox",          0xf970_7496_1c5a_4329),
    ("churn/fielding",         0x0ac8_0e2e_d97e_0727),
    ("churn/flips",            0xdf88_8d69_6306_331e),
    ("churn/feddrift",         0x9d36_410f_9dde_5c50),
    ("churn/shiftex",          0xc0a7_8e3d_287e_ee2a),
    ("lazy_churn/fedavg",      0xe927_abc5_9e60_94bc),
    ("lazy_churn/fedprox",     0x08fd_7700_4caa_3b88),
    ("lazy_churn/fielding",    0xb82e_07f4_0ca4_0b1e),
    ("lazy_churn/flips",       0x8403_95b4_5107_6078),
    ("lazy_churn/feddrift",    0xe927_abc5_9e60_94bc),
    ("lazy_churn/shiftex",     0x8785_3b9e_0e53_99e8),
    ("split/feddrift",         0x1dbb_8236_ce20_35c3),
];

/// FNV-1a, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn f32s(&mut self, v: &[f32]) {
        v.iter().for_each(|&x| self.f32(x));
    }
}

/// Runs `name` and hashes what the run exposes; returns the hash and the
/// run. The destructuring is exhaustive on purpose: a new counter does not
/// compile until it is hashed here (and the table re-pinned).
fn run_fingerprint(
    name: &str,
    scenario: &Scenario,
    fed: &ScenarioSpec,
    opts: &FedRunOptions,
) -> (u64, FedRunResult) {
    let mut algorithm =
        build_algorithm(name, scenario, &ShiftExConfig::default()).expect("known algorithm");
    let result = run_federation_scenario(algorithm.as_mut(), scenario, fed, opts);
    let mut h = Fnv::new();
    h.f32s(&result.accuracy_series);
    let CommTotals {
        up_bytes,
        down_bytes,
        messages,
        aborted_up_bytes,
        aborted_messages,
        first_contact_down_bytes,
        first_contact_messages,
        quarantined_up_bytes,
        quarantined_updates,
        join_chunk_down_bytes,
        join_chunk_messages,
        join_lost_down_bytes,
        join_lost_messages,
    } = result.comm;
    for v in [
        up_bytes,
        down_bytes,
        messages,
        aborted_up_bytes,
        aborted_messages,
        first_contact_down_bytes,
        first_contact_messages,
        quarantined_up_bytes,
        quarantined_updates,
        join_chunk_down_bytes,
        join_chunk_messages,
        join_lost_down_bytes,
        join_lost_messages,
    ] {
        h.u64(v);
    }
    for row in &result.participation {
        let RoundParticipation {
            round,
            live,
            delta,
            accuracy,
            up_bytes,
            down_bytes,
            first_contact_down_bytes,
            quarantined,
            fold_score,
        } = *row;
        let ParticipationStats {
            selected,
            delivered,
            dropped_churn,
            dropped_late,
            deferred,
            stale_dropped,
            aggregations,
        } = delta;
        for v in [
            round as u64,
            live as u64,
            selected,
            delivered,
            dropped_churn,
            dropped_late,
            deferred,
            stale_dropped,
            aggregations,
            up_bytes,
            down_bytes,
            first_contact_down_bytes,
            quarantined,
        ] {
            h.u64(v);
        }
        h.f32(accuracy);
        h.f32(fold_score);
    }
    for key in algorithm.streams() {
        h.u64(key as u64);
        h.f32s(&algorithm.broadcast_state(key));
    }
    (h.0, result)
}

/// Compares computed rows with [`TABLE`]. On a mismatch the whole set is
/// printed in the table's own layout, so a deliberate re-pin is a paste.
fn assert_pinned(computed: &[(String, u64)]) {
    let pinned = |label: &str| TABLE.iter().find(|(l, _)| *l == label).map(|&(_, fp)| fp);
    let wrong: Vec<&str> = computed
        .iter()
        .filter(|(label, fp)| pinned(label) != Some(*fp))
        .map(|(label, _)| label.as_str())
        .collect();
    if !wrong.is_empty() {
        for (label, fp) in computed {
            let hex = format!("{fp:016x}");
            let quoted = format!("{label:?},");
            println!(
                "    ({quoted:<26}0x{}_{}_{}_{}),",
                &hex[..4],
                &hex[4..8],
                &hex[8..12],
                &hex[12..]
            );
        }
        panic!("fingerprints moved: {wrong:?}");
    }
}

/// The smoke fixture of every algorithm row: FashionMNIST smoke, seed 41,
/// 2 bootstrap rounds + 1 window × 2 rounds, 20 % always-on sign-flip.
fn attacked_rows(fold_label: &str, fold: FoldPolicy) {
    let scenario =
        Scenario::build_with_population(DatasetKind::FashionMnist, SimScale::Smoke, 41, None, None);
    let fed = ScenarioSpec::sync(11).with_attack(AttackSpec::new(AttackKind::SignFlip, 0.2));
    let opts = FedRunOptions::new(1, 2, 2).with_fold(fold);
    let computed: Vec<(String, u64)> = ALGORITHM_NAMES
        .iter()
        .map(|name| {
            let (fp, _) = run_fingerprint(name, &scenario, &fed, &opts);
            (format!("{name}/{fold_label}"), fp)
        })
        .collect();
    assert_pinned(&computed);
}

#[test]
fn every_algorithm_under_krum_is_bit_pinned() {
    attacked_rows("krum", FoldPolicy::Krum { f: 1 });
}

#[test]
fn every_algorithm_under_trimmed_mean_is_bit_pinned() {
    attacked_rows("trimmed", FoldPolicy::TrimmedMean { beta: 0.2 });
}

#[test]
fn every_algorithm_under_median_is_bit_pinned() {
    attacked_rows("median", FoldPolicy::CoordinateMedian);
}

#[test]
fn wide_cohort_krum_is_bit_pinned() {
    let scenario = Scenario::build_with_population(
        DatasetKind::FashionMnist,
        SimScale::Smoke,
        7,
        Some(40),
        Some(8),
    )
    .with_cohort_frac(1.0);
    let fed = ScenarioSpec::sync(13).with_attack(AttackSpec::new(AttackKind::SignFlip, 0.2));
    let opts = FedRunOptions::new(1, 2, 2)
        .with_codec(CodecSpec::quant8(256))
        .with_fold(FoldPolicy::Krum { f: 8 });
    let (fp, _) = run_fingerprint("fedavg", &scenario, &fed, &opts);
    assert_pinned(&[("wide40/fedavg/krum".to_string(), fp)]);
}

/// Runs each of `names` on one fixture and pins the rows `{prefix}/{name}`.
/// Returns the runs, in `names` order.
fn pinned_rows(
    prefix: &str,
    names: &[&str],
    scenario: &Scenario,
    fed: &ScenarioSpec,
    opts: &FedRunOptions,
) -> Vec<FedRunResult> {
    let (computed, runs): (Vec<(String, u64)>, Vec<FedRunResult>) = names
        .iter()
        .map(|name| {
            let (fp, run) = run_fingerprint(name, scenario, fed, opts);
            ((format!("{prefix}/{name}"), fp), run)
        })
        .unzip();
    assert_pinned(&computed);
    runs
}

#[test]
fn dense_sync_golden_fixture_is_bit_pinned_for_four_more_algorithms() {
    // `algorithm_conformance`'s golden fixture: FashionMNIST smoke, seed
    // 17, sync federation seed 9, 2 bootstrap rounds + 1 window × 2
    // rounds, dense codec, uniform selection.
    let scenario =
        Scenario::build_with_population(DatasetKind::FashionMnist, SimScale::Smoke, 17, None, None);
    pinned_rows(
        "dense",
        &["fedprox", "fielding", "flips", "feddrift"],
        &scenario,
        &ScenarioSpec::sync(9),
        &FedRunOptions::new(1, 2, 2),
    );
}

#[test]
fn every_algorithm_under_churn_dropout_and_quant8_is_bit_pinned() {
    // `algorithm_conformance`'s churned determinism fixture.
    let scenario =
        Scenario::build_with_population(DatasetKind::Femnist, SimScale::Smoke, 31, None, None);
    let fed = ScenarioSpec::sync(7).with_churn(ChurnSpec {
        join_fraction: 0.25,
        join_ramp_rounds: 2,
        leave_fraction: 0.25,
        leave_after: 2,
        horizon: 4,
        dropout: 0.2,
    });
    let opts = FedRunOptions::new(1, 2, 2).with_codec(CodecSpec::quant8(256));
    for run in pinned_rows("churn", &ALGORITHM_NAMES, &scenario, &fed, &opts) {
        assert!(
            run.totals.dropped_churn > 0,
            "{}: dropout fired",
            run.strategy
        );
    }
}

#[test]
fn every_algorithm_under_lazy_churn_axes_is_bit_pinned() {
    // The `scale_lazy_churn` benchmark workload's axes at smoke size: 24
    // lazy parties of 8 rows, a churn ramp with dropout, exponential
    // stragglers deferred past the deadline, async folds over stale
    // updates, a byte budget the adaptive codec must meet, and joins
    // synced in 1 KiB quantized chunks.
    let scenario = Scenario::build_with_population(
        DatasetKind::FashionMnist,
        SimScale::Smoke,
        43,
        Some(24),
        Some(8),
    );
    let fed = ScenarioSpec::sync(19)
        .with_churn(ChurnSpec {
            join_fraction: 0.2,
            join_ramp_rounds: 2,
            leave_fraction: 0.0,
            leave_after: 5,
            horizon: 8,
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
        });
    let opts = FedRunOptions::new(1, 4, 4)
        .with_population(PopulationMode::Lazy)
        .with_budget(BudgetSpec::per_round(98_304))
        .with_join_chunking(JoinConfig::quantized(1024));
    for run in pinned_rows("lazy_churn", &ALGORITHM_NAMES, &scenario, &fed, &opts) {
        let name = &run.strategy;
        assert!(run.totals.deferred > 0, "{name}: stragglers were deferred");
        assert!(run.compression_ratio() > 1.0, "{name}: the budget binds");
        assert!(
            run.comm.join_chunk_messages > 0,
            "{name}: joins were chunked"
        );
    }
}

#[test]
fn feddrift_split_is_bit_pinned() {
    // FashionMNIST smoke, seed 5, 4 bootstrap rounds + 2 windows × 2
    // rounds: drifted parties' losses regress past the 0.35 tolerance, so
    // FedDrift's clustering path spawns models.
    let scenario =
        Scenario::build_with_population(DatasetKind::FashionMnist, SimScale::Smoke, 5, None, None);
    let runs = pinned_rows(
        "split",
        &["feddrift"],
        &scenario,
        &ScenarioSpec::sync(105),
        &FedRunOptions::new(2, 4, 2),
    );
    assert!(
        runs[0].final_models > 1,
        "FedDrift must split on this fixture"
    );
}

/// `n` values in `[-scale, scale)` from integer arithmetic only, so the
/// fixture depends on neither libm nor the vendored RNG.
fn lcg_values(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((x >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * scale
        })
        .collect()
}

#[test]
fn robust_folds_of_a_200_update_cohort_are_bit_pinned() {
    const DIM: usize = 2146;
    let global = lcg_values(DIM, 3, 0.5);
    // 160 honest updates near the globals; 40 reflected through them.
    let ready: Vec<WeightedUpdate> = (0..200)
        .map(|i| {
            let step = lcg_values(DIM, 100 + i as u64, 0.05);
            let sign = if i % 5 == 4 { -4.0 } else { 1.0 };
            let params = global
                .iter()
                .zip(&step)
                .map(|(g, s)| g + sign * s)
                .collect();
            WeightedUpdate {
                update: ModelUpdate {
                    party: PartyId(i),
                    params,
                    num_samples: 8,
                    train_loss: 0.5,
                },
                staleness: 0,
                weight: 8.0 + (i % 3) as f32,
            }
        })
        .collect();
    let computed: Vec<(String, u64)> = [
        ("mean", FoldPolicy::Mean),
        ("trimmed", FoldPolicy::TrimmedMean { beta: 0.2 }),
        ("median", FoldPolicy::CoordinateMedian),
        ("krum", FoldPolicy::Krum { f: 40 }),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let fold = aggregate_robust(&global, &ready, 1.0, &policy);
        let mut h = Fnv::new();
        h.f32s(fold.params.as_deref().expect("the cohort aggregates"));
        for v in &fold.verdicts {
            h.u64(v.party.0 as u64);
            h.u64(u64::from(v.quarantined));
            h.f32(v.score);
        }
        (format!("fold200x2146/{label}"), h.0)
    })
    .collect();
    assert_pinned(&computed);
}
