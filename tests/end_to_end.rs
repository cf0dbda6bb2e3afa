//! Cross-crate integration tests: full scenario runs for every algorithm
//! through the one generic driver, the ShiftEx expert lifecycle, and
//! determinism guarantees.

use rand::{rngs::StdRng, SeedableRng};
use shiftex::core::{ShiftEx, ShiftExConfig};
use shiftex::data::{Corruption, DatasetKind, ImageShape, PrototypeGenerator, Regime, SimScale};
use shiftex::experiments::{
    build_algorithm, run_scenario, ResidentPopulation, Scenario, ALGORITHM_NAMES,
};
use shiftex::fl::{
    run_algorithm_round, FederatedAlgorithm, Party, PartyId, PopulationStore, RoundCtx,
    ScenarioEngine, ScenarioSpec,
};
use shiftex::nn::ArchSpec;

#[test]
fn all_six_algorithms_complete_a_scenario() {
    let scenario = Scenario::build(DatasetKind::FashionMnist, SimScale::Smoke, 21);
    let cfg = ShiftExConfig::default();
    for name in ALGORITHM_NAMES {
        let result = &run_scenario(name, &scenario, 1, &cfg)[0];
        assert_eq!(
            result.windows.len(),
            scenario.eval_windows(),
            "{name}: window count"
        );
        assert!(
            result
                .accuracy_series
                .iter()
                .all(|a| (0.0..=1.0).contains(a)),
            "{name}: accuracies must be probabilities"
        );
        // Every algorithm must actually learn during burn-in. Smoke scale
        // is deliberately tiny (8 parties × 30 non-IID samples over 10
        // classes), so the bar is "clearly above the 10 % chance level".
        let burn_in_best = result.accuracy_series[..scenario.bootstrap_rounds()]
            .iter()
            .cloned()
            .fold(0.0f32, f32::max);
        assert!(
            burn_in_best > 0.15,
            "{name}: best burn-in accuracy {burn_in_best}"
        );
    }
}

#[test]
fn every_dataset_scenario_runs_shiftex() {
    for kind in DatasetKind::all() {
        let scenario = Scenario::build(kind, SimScale::Smoke, 5);
        let result = &run_scenario("shiftex", &scenario, 1, &ShiftExConfig::default())[0];
        assert_eq!(
            result.expert_distribution.len(),
            scenario.eval_windows() + 1
        );
        for dist in &result.expert_distribution {
            assert_eq!(
                dist.iter().sum::<usize>(),
                scenario.profile.num_parties,
                "{kind}: every party assigned exactly once"
            );
        }
    }
}

#[test]
fn expert_lifecycle_create_reuse_and_bounded_pool() {
    let mut rng = StdRng::seed_from_u64(3);
    let gen = PrototypeGenerator::new(ImageShape::new(3, 8, 8), 6, &mut rng);
    let spec = ArchSpec::resnet18_lite(shiftex::nn::InputShape { c: 3, h: 8, w: 8 }, 6, 16);
    let parties: Vec<Party> = (0..10)
        .map(|i| {
            Party::new(
                PartyId(i),
                gen.generate_uniform(40, &mut rng),
                gen.generate_uniform(20, &mut rng),
            )
        })
        .collect();
    let mut store = PopulationStore::from_parties(parties);
    let ids = store.party_ids();
    let mut engine = ScenarioEngine::new(ScenarioSpec::sync(3), &ids);
    let cfg = ShiftExConfig {
        participants_per_round: 8,
        ..ShiftExConfig::default()
    };
    let mut shiftex = ShiftEx::new(cfg, spec, &mut rng);
    shiftex.init(&store.view(ids.clone()), &mut rng);
    let mut rounds = |shiftex: &mut ShiftEx, store: &PopulationStore, n, rng: &mut StdRng| {
        for _ in 0..n {
            run_algorithm_round(shiftex, &mut RoundCtx::new(store, &mut engine), rng);
        }
    };
    rounds(&mut shiftex, &store, 8, &mut rng);

    let fog = Regime::corrupted(Corruption::Fog, 5);
    let mut created_total = 0;
    let mut reused_total = 0;
    for window in 0..6 {
        // Alternate fog and clear for the first half of the federation.
        let regime = if window % 2 == 0 {
            fog.clone()
        } else {
            Regime::clear()
        };
        for &id in &ids {
            let r = if id.0 < 5 {
                regime.clone()
            } else {
                Regime::clear()
            };
            let train = gen.generate_with_regime(40, &r, &mut rng);
            let test = gen.generate_with_regime(20, &r, &mut rng);
            store.with_party_mut(id, |p| p.advance_window(train, test));
        }
        shiftex.begin_window(window + 1, &store.view(ids.clone()), &mut rng);
        let report = shiftex.last_report().expect("window ran");
        created_total += report.created.len();
        reused_total += report.reused.len();
        rounds(&mut shiftex, &store, 4, &mut rng);
    }
    assert!(
        created_total >= 1,
        "the fog regime must have spawned an expert"
    );
    assert!(
        reused_total >= 2,
        "alternating regimes must trigger latent-memory reuse (got {reused_total})"
    );
    assert!(
        shiftex.num_experts() <= 4,
        "recurring regimes must not proliferate experts: {}",
        shiftex.num_experts()
    );
}

#[test]
fn algorithms_are_interchangeable_as_trait_objects() {
    let scenario = Scenario::build(DatasetKind::Cifar10C, SimScale::Smoke, 8);
    let mut rng = StdRng::seed_from_u64(9);
    let mut algorithms: Vec<Box<dyn FederatedAlgorithm>> = ALGORITHM_NAMES
        .into_iter()
        .map(|name| {
            build_algorithm(name, &scenario, &ShiftExConfig::default()).expect("known name")
        })
        .collect();
    let store = ResidentPopulation::new(scenario.clone(), 9).into_store();
    let ids = store.party_ids();
    for alg in algorithms.iter_mut() {
        alg.init(&store.view(store.party_ids()), &mut rng);
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(1), &ids);
        let out = run_algorithm_round(
            alg.as_mut(),
            &mut RoundCtx::new(&store, &mut engine),
            &mut rng,
        );
        assert!(out.folded > 0, "{}: a sync round must fold", alg.name());
        let acc = alg.eval(&store.view(store.party_ids()));
        assert!((0.0..=1.0).contains(&acc), "{}: accuracy {acc}", alg.name());
        assert!(alg.num_models() >= 1);
        assert_eq!(alg.streams().len(), alg.num_models());
    }
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let scenario = Scenario::build(DatasetKind::Femnist, SimScale::Smoke, 13);
    let cfg = ShiftExConfig::default();
    let a = run_scenario("shiftex", &scenario, 1, &cfg);
    let b = run_scenario("shiftex", &scenario, 1, &cfg);
    assert_eq!(a, b, "runs must be bit-identical under one seed");
}
