//! Trait-conformance suite: every [`FederatedAlgorithm`] implementation —
//! ShiftEx and the five baselines — must satisfy the same contracts under
//! the one generic scenario driver:
//!
//! * **determinism** — identical runs under churn are bit-identical;
//! * **empty-cohort legality** — a federation the churn schedule empties
//!   completes without panicking and keeps reporting every round;
//! * **golden pinning** — ShiftEx and FedAvg dense synchronous runs
//!   reproduce accuracy bit patterns and byte totals recorded once, so a
//!   refactor of the driver, the store or the party-side compute cannot
//!   move a run silently. The byte totals date from the dedicated
//!   pre-trait drivers (`run_fed_shiftex` / `run_fed_fedavg`); the accuracy
//!   bits were re-pinned once onto the per-`(id, window)` party streams,
//!   when the shared-RNG population mode was retired;
//! * **error feedback** — top-k at 2 % density recovers accuracy when the
//!   codec's residual accumulator is enabled.

use shiftex::core::ShiftExConfig;
use shiftex::data::{DatasetKind, SimScale};
use shiftex::experiments::{
    build_algorithm, run_federation_scenario, FedRunOptions, FedRunResult, Scenario,
    ALGORITHM_NAMES,
};
use shiftex::fl::{
    AttackKind, AttackSchedule, AttackSpec, ChurnSpec, CodecSpec, FoldPolicy, ScenarioSpec,
};

fn run_named(
    name: &str,
    scenario: &Scenario,
    fed: &ScenarioSpec,
    opts: &FedRunOptions,
) -> FedRunResult {
    let mut algorithm =
        build_algorithm(name, scenario, &ShiftExConfig::default()).expect("known algorithm");
    run_federation_scenario(algorithm.as_mut(), scenario, fed, opts)
}

/// The golden scenario: FashionMNIST smoke, seed 17, sync federation seed
/// 9, 2 bootstrap rounds + 1 window × 2 rounds, dense codec, uniform
/// selection, default (resident, per-party-stream) population.
fn golden_setup() -> (Scenario, ScenarioSpec, FedRunOptions) {
    let scenario =
        Scenario::build_with_population(DatasetKind::FashionMnist, SimScale::Smoke, 17, None, None);
    (scenario, ScenarioSpec::sync(9), FedRunOptions::new(1, 2, 2))
}

/// Accuracy series as IEEE-754 bit patterns (bit-exact comparison).
fn acc_bits(result: &FedRunResult) -> Vec<u32> {
    result.accuracy_series.iter().map(|a| a.to_bits()).collect()
}

#[test]
fn fedavg_dense_sync_is_bit_identical_to_pre_refactor_driver() {
    let (scenario, fed, opts) = golden_setup();
    let result = run_named("fedavg", &scenario, &fed, &opts);
    // Recorded at commit f267bec (PR 13, the parent of the PR that retired
    // `PopulationMode::Materialized`) by running this test with
    // `golden_setup()` under `.with_population(PopulationMode::Resident)`:
    // the per-party streams every run now reads. The counts and byte
    // totals below did not move and still date from run_fed_fedavg.
    assert_eq!(
        acc_bits(&result),
        vec![1040187392, 1040711680, 1037041664, 1041760256],
        "accuracy series must be bit-identical to the recorded run"
    );
    assert_eq!(result.final_models, 1);
    assert_eq!(result.param_count, 2146);
    assert_eq!(result.comm.up_bytes, 137696);
    // The legacy driver metered every downlink on one counter; the unified
    // driver splits out first-contact frames (dense: same frame size), so
    // the *total* downlink must match the captured 137440 bytes.
    assert_eq!(
        result.comm.down_bytes + result.comm.first_contact_down_bytes,
        137440
    );
}

#[test]
fn shiftex_dense_sync_is_bit_identical_to_pre_refactor_driver() {
    let (scenario, fed, opts) = golden_setup();
    let result = run_named("shiftex", &scenario, &fed, &opts);
    // Recorded at commit f267bec (PR 13) under
    // `.with_population(PopulationMode::Resident)`, like the FedAvg golden
    // above. Covers per-expert streams, FLIPS cohorts, a real
    // process_window boundary (an expert spawns), and the RNG draw order.
    // The accuracy series was re-pinned once since, when `ShiftEx::init`
    // stopped drawing a second, discarded profiling pass from the run RNG.
    // The counts and byte totals below did not move and still date from
    // run_fed_shiftex.
    assert_eq!(
        acc_bits(&result),
        vec![1039138816, 1040187392, 1041235968, 1042284544],
        "accuracy series must be bit-identical to the recorded run"
    );
    assert_eq!(
        result.final_models, 2,
        "the shifted window spawns an expert"
    );
    assert_eq!(result.param_count, 2146);
    assert_eq!(result.comm.up_bytes, 206544);
    assert_eq!(
        result.comm.down_bytes + result.comm.first_contact_down_bytes,
        206160
    );
}

#[test]
fn every_algorithm_is_deterministic_under_churn() {
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
    for name in ALGORITHM_NAMES {
        let a = run_named(name, &scenario, &fed, &opts);
        let b = run_named(name, &scenario, &fed, &opts);
        assert_eq!(a, b, "{name}: churned reruns must be bit-identical");
        assert_eq!(a.strategy, b.strategy);
    }
}

#[test]
fn every_algorithm_is_deterministic_under_attack_and_churn() {
    // The hostile axis composed with churn and a robust fold: assignment,
    // activation, and corruption are all hash-derived from the scenario
    // seed, so a full rerun must be bit-identical — including which
    // updates each fold quarantined and the bytes metered as refused.
    let scenario =
        Scenario::build_with_population(DatasetKind::FashionMnist, SimScale::Smoke, 41, None, None);
    let fed = ScenarioSpec::sync(11)
        .with_churn(ChurnSpec {
            join_fraction: 0.25,
            join_ramp_rounds: 2,
            leave_fraction: 0.0,
            leave_after: 4,
            horizon: 4,
            dropout: 0.15,
        })
        .with_attack(
            AttackSpec::new(AttackKind::ScaledNoise { factor: 10.0 }, 0.25)
                .with_schedule(AttackSchedule::Intermittent { prob: 0.7 }),
        );
    for fold in [
        FoldPolicy::Krum { f: 1 },
        FoldPolicy::TrimmedMean { beta: 0.2 },
    ] {
        let opts = FedRunOptions::new(1, 2, 2).with_fold(fold);
        for name in ALGORITHM_NAMES {
            let a = run_named(name, &scenario, &fed, &opts);
            let b = run_named(name, &scenario, &fed, &opts);
            assert_eq!(a, b, "{name}/{fold}: hostile reruns must be bit-identical");
            assert_eq!(
                a.comm.quarantined_updates, b.comm.quarantined_updates,
                "{name}/{fold}: quarantine metering must be deterministic"
            );
        }
    }
}

#[test]
fn mean_fold_with_inactive_attack_axis_matches_the_golden_capture() {
    // An attack spec whose schedule never fires must leave the Mean fold's
    // bit-identical golden path untouched: same accuracy bits as the
    // FedAvg golden above (recorded at commit f267bec under
    // `PopulationMode::Resident`), no quarantines, no refused bytes.
    let (scenario, fed, opts) = golden_setup();
    let fed = fed.with_attack(
        AttackSpec::new(AttackKind::SignFlip, 0.5)
            .with_schedule(AttackSchedule::Sleeper { from_round: 1000 }),
    );
    let result = run_named("fedavg", &scenario, &fed, &opts);
    assert_eq!(
        acc_bits(&result),
        vec![1040187392, 1040711680, 1037041664, 1041760256],
        "a dormant adversary must not perturb the golden run"
    );
    assert_eq!(result.comm.quarantined_updates, 0);
    assert_eq!(result.comm.quarantined_up_bytes, 0);
}

#[test]
fn every_algorithm_survives_a_fully_churned_federation() {
    let scenario =
        Scenario::build_with_population(DatasetKind::FashionMnist, SimScale::Smoke, 37, None, None);
    // Everyone leaves for good at round 1: every selection pool is empty,
    // every window boundary sees zero members.
    let fed = ScenarioSpec::sync(3).with_churn(ChurnSpec {
        join_fraction: 0.0,
        join_ramp_rounds: 1,
        leave_fraction: 1.0,
        leave_after: 1,
        horizon: 2,
        dropout: 0.0,
    });
    let opts = FedRunOptions::new(1, 2, 2);
    for name in ALGORITHM_NAMES {
        let result = run_named(name, &scenario, &fed, &opts);
        assert_eq!(
            result.accuracy_series.len(),
            4,
            "{name}: empty rounds are still rounds"
        );
        assert_eq!(result.totals.selected, 0, "{name}: nobody left to select");
        assert!(
            result.participation.iter().all(|r| r.live == 0),
            "{name}: the pool is empty from round 1"
        );
        assert_eq!(result.comm.up_bytes + result.comm.down_bytes, 0, "{name}");
    }
}

#[test]
fn error_feedback_topk_beats_plain_topk_at_low_density() {
    // ROADMAP item: error feedback closes top-k's accuracy gap below 5 %
    // density. At density 0.02 only 2 % of each residual ships; without
    // feedback the rest is lost every round, with feedback it accumulates
    // and ships eventually. Four parties → full participation every round
    // (ppr clamps to 4), so every party is a veteran accumulating
    // sparsification error from round 2 on — the regime error feedback
    // exists for. Seed-calibrated like the repo's other statistical
    // fixtures: final accuracy on a tiny smoke run is noisy across seeds,
    // but deterministic for a fixed one.
    let scenario = Scenario::build_with_population(
        DatasetKind::FashionMnist,
        SimScale::Smoke,
        17,
        Some(4),
        Some(48),
    );
    let fed = ScenarioSpec::sync(5);
    let budget = FedRunOptions::new(1, 6, 12);
    let plain = run_named(
        "fedavg",
        &scenario,
        &fed,
        &budget.with_codec(CodecSpec::topk(0.02).with_delta()),
    );
    let ef = run_named(
        "fedavg",
        &scenario,
        &fed,
        &budget.with_codec(CodecSpec::topk(0.02).with_delta().with_error_feedback()),
    );
    // Identical bytes on the wire…
    assert_eq!(
        plain.comm.up_bytes, ef.comm.up_bytes,
        "error feedback must not change wire sizes"
    );
    let plain_final = plain.accuracy_series.last().copied().unwrap();
    let ef_final = ef.accuracy_series.last().copied().unwrap();
    // …but strictly better final accuracy with the residual accumulator.
    assert!(
        ef_final > plain_final,
        "error feedback must beat plain top-k at 2% density: {ef_final} vs {plain_final}"
    );
}
