//! Population-store conformance: the lazy store must be a pure memory
//! optimisation, never a semantic one.
//!
//! * **Six-way bit-identity at 200 parties** — every
//!   [`FederatedAlgorithm`](shiftex::fl::FederatedAlgorithm) run over the
//!   lazy store ([`PopulationMode::Lazy`]) is bit-identical to the same run
//!   over the fully-resident reference arm ([`PopulationMode::Resident`])
//!   drawing from the same per-party data streams.
//! * **Re-instantiation determinism** — materialize → evict → materialize
//!   yields bit-identical party data for arbitrary `(id, window)`
//!   (property-tested).
//! * **Memory envelope at 10k parties** — a churned 10k-party federation
//!   completes with peak residency bounded by the cohort size and zero
//!   pinned parties: O(cohort), not O(population).

use proptest::prelude::*;
use shiftex::core::ShiftExConfig;
use shiftex::data::{DatasetKind, SimScale};
use shiftex::experiments::{
    build_algorithm, run_federation_scenario, FedRunOptions, FedRunResult, LazyPopulation,
    PopulationMode, Scenario, ALGORITHM_NAMES,
};
use shiftex::fl::{ChurnSpec, PartyId, ScenarioSpec};

fn run_mode(
    name: &str,
    scenario: &Scenario,
    fed: &ScenarioSpec,
    opts: &FedRunOptions,
    mode: PopulationMode,
) -> FedRunResult {
    let mut algorithm =
        build_algorithm(name, scenario, &ShiftExConfig::default()).expect("known algorithm");
    run_federation_scenario(
        algorithm.as_mut(),
        scenario,
        fed,
        &opts.with_population(mode),
    )
}

/// Every algorithm, 200 parties, one shifted window under dropout churn:
/// the lazy arm (parties materialized per cohort, evicted per round) must
/// reproduce the resident arm bit for bit — same accuracy bit patterns,
/// same byte meters, same expert distributions.
#[test]
fn six_way_200_party_lazy_run_is_bit_identical_to_resident() {
    let scenario = Scenario::build_with_population(
        DatasetKind::FashionMnist,
        SimScale::Smoke,
        31,
        Some(200),
        Some(12),
    );
    let fed = ScenarioSpec::sync(7).with_churn(ChurnSpec::dropout_only(0.1));
    let opts = FedRunOptions::new(1, 2, 2);
    for name in ALGORITHM_NAMES {
        let lazy = run_mode(name, &scenario, &fed, &opts, PopulationMode::Lazy);
        let mut resident = run_mode(name, &scenario, &fed, &opts, PopulationMode::Resident);
        assert_eq!(
            lazy.residency.pinned, 0,
            "{name}: lazy runs must not pin parties"
        );
        // Internal-policy algorithms (ShiftEx, Fielding, FLIPS) may cohort
        // per expert/cluster; even so, residency must stay far below the
        // 200-party population.
        assert!(
            lazy.residency.peak_cohort <= 4 * scenario.participants_per_round(),
            "{name}: peak cohort {} is not O(cohort) at 200 parties",
            lazy.residency.peak_cohort
        );
        // Residency counters are the only legitimate difference between the
        // arms (the resident provider materializes everything up front).
        resident.residency = lazy.residency;
        assert_eq!(lazy, resident, "{name}: lazy run diverged from resident");
    }
}

/// The default `FedRunOptions` read the per-party streams: a run that
/// names no population mode is the lazy run, field for field, apart from
/// the residency counters.
#[test]
fn lazy_mode_matches_materialized_mode_structure() {
    let scenario = Scenario::build_with_population(
        DatasetKind::FashionMnist,
        SimScale::Smoke,
        5,
        Some(64),
        Some(12),
    );
    let fed = ScenarioSpec::sync(3);
    let opts = FedRunOptions::new(1, 2, 2);
    let lazy = run_mode("fedavg", &scenario, &fed, &opts, PopulationMode::Lazy);
    let mut algorithm =
        build_algorithm("fedavg", &scenario, &ShiftExConfig::default()).expect("fedavg");
    let mut default = run_federation_scenario(algorithm.as_mut(), &scenario, &fed, &opts);
    assert_eq!(lazy.residency.population, default.residency.population);
    default.residency = lazy.residency;
    assert_eq!(lazy, default, "the default is the per-party stream");
    for dist in &lazy.expert_distribution {
        assert_eq!(dist.iter().sum::<usize>(), 64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Materialize → evict → re-materialize any `(party, window)`:
    /// bit-identical features, labels, test set, and carried `prev_train`.
    #[test]
    fn prop_lazy_reinstantiation_is_bit_identical(
        id in 0usize..200,
        window in 0usize..3,
        stream_seed in 0u64..1024,
    ) {
        let scenario = Scenario::build_with_population(
            DatasetKind::FashionMnist,
            SimScale::Smoke,
            11,
            Some(200),
            Some(10),
        );
        let mut store = LazyPopulation::new(scenario, stream_seed).into_store();
        store.set_window(window);
        let a = store.party(PartyId(id)).expect("known id");
        drop(store.party(PartyId(id))); // interleaved materialize + evict
        let b = store.party(PartyId(id)).expect("known id");
        prop_assert_eq!(a.train_features().as_slice(), b.train_features().as_slice());
        prop_assert_eq!(a.train_labels(), b.train_labels());
        prop_assert_eq!(a.test().features(), b.test().features());
        prop_assert_eq!(a.prev_train().is_some(), window > 0);
        if let (Some(pa), Some(pb)) = (a.prev_train(), b.prev_train()) {
            prop_assert_eq!(pa.features(), pb.features());
        }
        prop_assert_eq!(store.stats().pinned, 0);
    }
}

/// A 10_000-party churned federation round-trips through the lazy store
/// inside the cohort envelope: resident state never exceeds the sampled
/// cohort, and nothing stays pinned between rounds.
#[test]
fn ten_thousand_party_federation_stays_in_cohort_envelope() {
    let scenario = Scenario::build_with_population(
        DatasetKind::FashionMnist,
        SimScale::Smoke,
        19,
        Some(10_000),
        Some(8),
    );
    let fed = ScenarioSpec::sync(13).with_churn(ChurnSpec::dropout_only(0.2));
    let opts = FedRunOptions::new(0, 2, 1).with_population(PopulationMode::Lazy);
    let mut algorithm =
        build_algorithm("fedavg", &scenario, &ShiftExConfig::default()).expect("fedavg");
    let result = run_federation_scenario(algorithm.as_mut(), &scenario, &fed, &opts);
    assert_eq!(result.residency.population, 10_000);
    assert_eq!(result.residency.pinned, 0, "lazy runs must not pin parties");
    assert!(
        result.residency.peak_cohort <= scenario.participants_per_round(),
        "peak cohort {} exceeds the {}-party budget at 10k parties",
        result.residency.peak_cohort,
        scenario.participants_per_round()
    );
    assert_eq!(result.accuracy_series.len(), 2);
    assert!(result.totals.selected > 0);
}
