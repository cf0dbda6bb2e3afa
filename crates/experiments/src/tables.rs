//! The shared body of the `table1` / `table2` binaries: every algorithm
//! through every requested dataset scenario under the paper's clean
//! synchronous protocol, printed as the paper's table (plus the figure
//! series behind `--series` / `--max` / `--experts`, and CSVs with `--csv`).
//!
//! This is a binary's `main` kept in the library so the two bins share it;
//! it owns stdout/stderr and panics on unusable flags, like the bins do.

use std::collections::BTreeMap;

use shiftex_core::ShiftExConfig;
use shiftex_data::{DatasetKind, SimScale};

use crate::cli::Args;
use crate::{aggregate_windows, report, run_scenario, Scenario, ALGORITHM_NAMES};

/// Runs and prints the tables for `datasets`, reading `--scale`, `--runs`,
/// `--seed`, `--series`, `--max`, `--experts` and `--csv` from `args`.
///
/// # Panics
///
/// Panics on an unknown `--scale` or an unwritable `--csv` directory.
pub fn run_tables(args: &Args, datasets: &[DatasetKind]) {
    let scale = SimScale::parse(args.value("scale").unwrap_or("small")).expect("unknown scale");
    let runs: usize = args.value_or("runs", 1);
    let seed: u64 = args.value_or("seed", 42);
    let cfg = ShiftExConfig::default();

    for &kind in datasets {
        let scenario = Scenario::build(kind, scale, seed);
        eprintln!(
            "# {kind}: {} parties, {} eval windows, {} rounds/window, {} run(s)",
            scenario.profile.num_parties,
            scenario.eval_windows(),
            scenario.rounds_per_window,
            runs
        );
        let mut per_strategy = BTreeMap::new();
        let mut first_runs = BTreeMap::new();
        let mut shiftex_run = None;
        for name in ALGORITHM_NAMES {
            let results = run_scenario(name, &scenario, runs, &cfg);
            let display = results[0].strategy.clone();
            let windows: Vec<_> = results.iter().map(|r| r.windows.clone()).collect();
            per_strategy.insert(
                display.clone(),
                aggregate_windows(&windows, scenario.rounds_per_window),
            );
            if name == "shiftex" {
                shiftex_run = Some(results[0].clone());
            }
            first_runs.insert(display, results.into_iter().next().expect("1+ runs"));
        }

        println!("{}", report::render_table(&kind.to_string(), &per_strategy));
        if args.switch("series") {
            println!("{}", report::render_series(&kind.to_string(), &first_runs));
        }
        if args.switch("max") {
            println!(
                "{}",
                report::render_max_per_window(&kind.to_string(), &per_strategy)
            );
        }
        if args.switch("experts") {
            let sx = shiftex_run.as_ref().expect("shiftex ran");
            println!(
                "{}",
                report::render_expert_distribution(&kind.to_string(), sx)
            );
        }
        if let Some(dir) = args.value("csv") {
            let dir = std::path::Path::new(dir);
            std::fs::create_dir_all(dir).expect("create csv dir");
            let stem = kind.to_string().to_lowercase().replace('-', "");
            report::write_table_csv(&dir.join(format!("{stem}_table.csv")), &per_strategy)
                .expect("write table csv");
            report::write_series_csv(&dir.join(format!("{stem}_series.csv")), &first_runs)
                .expect("write series csv");
            eprintln!("# CSVs written to {}", dir.display());
        }
    }
}
