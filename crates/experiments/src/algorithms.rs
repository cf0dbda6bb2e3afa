//! Name-keyed factory for the six evaluated algorithms.
//!
//! There is deliberately no dispatch enum here: every algorithm is a
//! [`FederatedAlgorithm`] trait object, built from a CLI name with shared
//! hyper-parameters so comparisons differ only in the algorithm itself.
//! Adding a technique means implementing the trait and adding one factory
//! arm — the scenario driver, codecs, selectors and reports compose with it
//! for free.

use shiftex_baselines::{FedAvg, FedDrift, FedDriftConfig};
use shiftex_core::{ShiftEx, ShiftExConfig};
use shiftex_fl::FederatedAlgorithm;
use shiftex_nn::TrainConfig;

use crate::scenario::Scenario;

/// `(CLI name, display name)` of the six evaluated algorithms, in the row
/// order of the comparison tables. Single source of truth: the factory,
/// CLI validation, and the report renderer all derive from this list —
/// extend it together with [`build_algorithm`] when adding an algorithm.
pub const ALGORITHMS: [(&str, &str); 6] = [
    ("fedavg", "FedAvg"),
    ("fedprox", "FedProx"),
    ("fielding", "Fielding"),
    ("flips", "FLIPS"),
    ("feddrift", "FedDrift"),
    ("shiftex", "ShiftEx"),
];

/// CLI names of the six algorithms, in [`ALGORITHMS`] (= table row) order.
pub const ALGORITHM_NAMES: [&str; 6] = [
    ALGORITHMS[0].0,
    ALGORITHMS[1].0,
    ALGORITHMS[2].0,
    ALGORITHMS[3].0,
    ALGORITHMS[4].0,
    ALGORITHMS[5].0,
];

/// Instantiates the named algorithm for `scenario` with shared
/// hyper-parameters. Model state is *not* drawn here — every algorithm
/// builds its parameters from the run's RNG stream in
/// [`FederatedAlgorithm::init`], so construction order cannot perturb
/// results.
///
/// Returns `None` for unknown names (see [`ALGORITHM_NAMES`]).
pub fn build_algorithm(
    name: &str,
    scenario: &Scenario,
    shiftex_cfg: &ShiftExConfig,
) -> Option<Box<dyn FederatedAlgorithm>> {
    let train = TrainConfig::default();
    let ppr = scenario.participants_per_round();
    let spec = scenario.spec.clone();
    Some(match name.to_ascii_lowercase().as_str() {
        "fedavg" => Box::new(FedAvg::new(spec, train, ppr)),
        "fedprox" => Box::new(FedAvg::fedprox(spec, train, ppr, 0.01)),
        "fielding" => Box::new(FedAvg::fielding(spec, train, ppr)),
        "flips" => Box::new(FedAvg::flips(spec, train, ppr)),
        "feddrift" => Box::new(FedDrift::new(spec, train, ppr, FedDriftConfig::default())),
        "shiftex" => {
            let cfg = ShiftExConfig {
                participants_per_round: ppr,
                ..shiftex_cfg.clone()
            };
            // The throwaway seed is overwritten by init()'s rebuild from
            // the run's RNG stream.
            let mut throwaway = throwaway_rng();
            Box::new(ShiftEx::new(cfg, spec, &mut throwaway))
        }
        _ => return None,
    })
}

/// Fixed-seed RNG for constructors that structurally require one but whose
/// draws are discarded at `init` time.
fn throwaway_rng() -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shiftex_data::{DatasetKind, SimScale};

    #[test]
    fn factory_builds_all_six() {
        let scenario = Scenario::build(DatasetKind::Cifar10C, SimScale::Smoke, 0);
        for (name, display) in ALGORITHMS {
            let alg = build_algorithm(name, &scenario, &ShiftExConfig::default())
                .unwrap_or_else(|| panic!("{name} must build"));
            assert_eq!(alg.name(), display);
        }
    }

    #[test]
    fn unknown_names_are_rejected_and_case_is_ignored() {
        let scenario = Scenario::build(DatasetKind::Femnist, SimScale::Smoke, 1);
        assert!(build_algorithm("bogus", &scenario, &ShiftExConfig::default()).is_none());
        let alg = build_algorithm("ShiftEx", &scenario, &ShiftExConfig::default()).expect("builds");
        assert_eq!(alg.name(), "ShiftEx");
    }
}
