//! Integration tests for the middleware-operations features: aggregator
//! crash/recovery via registry snapshots, and expert-pool compression via
//! distillation — run against a live end-to-end scenario.

use rand::{rngs::StdRng, SeedableRng};
use shiftex::core::{distill_experts, DistillConfig, RegistrySnapshot, ShiftEx, ShiftExConfig};
use shiftex::data::{DatasetKind, SimScale};
use shiftex::experiments::{run_federation_scenario, FedRunOptions, ResidentPopulation, Scenario};
use shiftex::fl::{
    evaluate_on_view, run_algorithm_round, FederatedAlgorithm, RoundCtx, ScenarioEngine,
    ScenarioSpec,
};

/// A ShiftEx aggregator trained through `windows` shifted windows of
/// `scenario` under the clean synchronous protocol.
fn trained(scenario: &Scenario, windows: usize, seed: u64) -> ShiftEx {
    let cfg = ShiftExConfig {
        participants_per_round: scenario.participants_per_round(),
        ..ShiftExConfig::default()
    };
    let mut sx = ShiftEx::new(cfg, scenario.spec.clone(), &mut StdRng::seed_from_u64(seed));
    run_federation_scenario(
        &mut sx,
        scenario,
        &ScenarioSpec::sync(seed),
        &FedRunOptions::new(
            windows,
            scenario.bootstrap_rounds(),
            scenario.rounds_per_window,
        ),
    );
    sx
}

/// Runs a scenario half-way, snapshots, "restarts" the aggregator, restores,
/// and verifies the restored instance serves identically and continues
/// exactly as the uninterrupted one would.
#[test]
fn aggregator_recovers_from_snapshot_mid_scenario() {
    let scenario = Scenario::build(DatasetKind::Cifar10C, SimScale::Smoke, 17);
    // Two shifted windows so the registry holds real structure.
    let mut sx = trained(&scenario, 2, 1);

    // Snapshot → JSON → fresh process → restore.
    let json = sx.snapshot().to_json().expect("snapshot serialises");
    let mut restored = ShiftEx::new(
        sx.config().clone(),
        scenario.spec.clone(),
        &mut StdRng::seed_from_u64(99),
    );
    restored.restore(RegistrySnapshot::from_json(&json).expect("snapshot parses"));

    assert_eq!(restored.num_experts(), sx.num_experts());
    assert_eq!(restored.assignments(), sx.assignments());
    let mut store = ResidentPopulation::new(scenario.clone(), 1).into_store();
    let ids = store.party_ids();
    store.set_window(2);
    let a = sx.eval(&store.view(ids.clone()));
    let b = restored.eval(&store.view(ids.clone()));
    assert_eq!(a.to_bits(), b.to_bits(), "restored serving accuracy");

    // The restored aggregator keeps operating: the next window detects
    // under the carried-over thresholds, kernel and frozen encoder —
    // exactly what the uninterrupted aggregator reports — and trains.
    store.set_window(3);
    let view = store.view(ids.clone());
    sx.begin_window(3, &view, &mut StdRng::seed_from_u64(7));
    restored.begin_window(3, &view, &mut StdRng::seed_from_u64(7));
    let report = restored.last_report().expect("window ran");
    assert!(report.delta_cov > 0.0, "thresholds must survive restore");
    assert_eq!(sx.last_report(), Some(report), "restore changed detection");
    let mut engine = ScenarioEngine::new(ScenarioSpec::sync(1), &ids);
    let out = run_algorithm_round(
        &mut restored,
        &mut RoundCtx::new(&store, &mut engine),
        &mut StdRng::seed_from_u64(8),
    );
    assert!(out.folded > 0, "the restored aggregator must keep training");
}

/// Distils a multi-expert pool into one student on regime-covering reference
/// data and verifies the student retains most of the mixture's accuracy.
#[test]
fn expert_pool_compresses_via_distillation() {
    let scenario = Scenario::build(DatasetKind::Cifar10C, SimScale::Smoke, 23);
    let sx = trained(&scenario, scenario.eval_windows(), 2);
    let mut rng = StdRng::seed_from_u64(2);

    // Regime-covering reference set (clear + every pool regime).
    let mut pool_rng = StdRng::seed_from_u64(3);
    let pool = scenario.profile.regime_pool(&mut pool_rng);
    let parts: Vec<_> = pool
        .iter()
        .map(|r| scenario.generator.generate_with_regime(120, r, &mut rng))
        .collect();
    let refs: Vec<_> = parts.iter().collect();
    let reference = shiftex::data::Dataset::concat(&refs);

    let experts: Vec<_> = sx.registry().iter().collect();
    let report = distill_experts(
        &scenario.spec,
        &experts,
        reference.features(),
        &DistillConfig::default(),
        &mut rng,
    );
    assert!(
        report.teacher_agreement > 0.8,
        "student must track the teacher mixture: {}",
        report.teacher_agreement
    );

    // Mixture and student scored on one draw of the final window's
    // population.
    let mut store = ResidentPopulation::new(scenario.clone(), 2).into_store();
    store.set_window(scenario.eval_windows());
    let view = store.view(store.party_ids());
    let moe_acc = sx.eval(&view);
    let student_acc = evaluate_on_view(&scenario.spec, &report.student_params, &view);
    assert!(
        student_acc > moe_acc - 0.25,
        "student {student_acc} should retain most of the mixture's {moe_acc}"
    );
}
