//! Experiment harness regenerating every table and figure of the ShiftEx
//! paper's evaluation (§6–7).
//!
//! * [`scenario`] — builds the five dataset scenarios (FMoW,
//!   Tiny-ImageNet-C, CIFAR-10-C, FEMNIST, Fashion-MNIST) at smoke/small/
//!   paper scale, with the paper's windowing modes and 50 % partial
//!   population shift; plus population overrides (100+ party federations)
//!   and federation axes ([`shiftex_fl::ScenarioSpec`]: churn, stragglers,
//!   staleness-aware async rounds) parsed from CLI flags.
//! * [`algorithms`] — name-keyed factory over the six
//!   [`shiftex_fl::FederatedAlgorithm`] implementations (no dispatch enum).
//! * [`runner`] — the one generic scenario driver: any algorithm through
//!   all windows under churn/straggler/async axes and codec-metered
//!   communication, recording per-round accuracy, participation and
//!   expert distributions.
//! * [`metrics`] — Accuracy Drop / Recovery Time / Max Accuracy per window,
//!   aggregated over repeated runs.
//! * [`report`] — text tables, figure series and CSV dumps.
//! * [`tables`] — the shared `main` of the `table1` / `table2` binaries.
//!
//! Binaries under `src/bin/` map one-to-one onto the paper's artifacts; see
//! `DESIGN.md` §4 for the index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod cli;
pub mod metrics;
pub mod netfed;
pub mod population;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod tables;

pub use algorithms::{build_algorithm, ALGORITHMS, ALGORITHM_NAMES};
pub use metrics::{aggregate_windows, WindowMetrics, WindowMetricsAgg};
pub use netfed::{
    netfed_config_from_args, netfed_fed_seed, netfed_stream_seed, run_netfed_rounds, run_worker,
    worker_partition, NetFedConfig, NetFedRun,
};
pub use population::{party_stream_seed, LazyPopulation, ResidentPopulation};
pub use runner::{
    run_federation_scenario, run_scenario, FedRunOptions, FedRunResult, FedSelector, PopulationMode,
};
pub use scenario::{
    budget_spec_from_args, codec_spec_from_args, federation_spec_from_args, fold_policy_from_args,
    Scenario,
};
pub use tables::run_tables;
