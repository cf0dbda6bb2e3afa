//! The paper's comparative claim, pinned: after the first shift, ShiftEx's
//! Max Accuracy beats every baseline's on FEMNIST and Fashion-MNIST.
//!
//! This is the run behind `table2 --scale small --runs 5 --seed 7` (24
//! parties, 12 rounds a window, five seeds per algorithm). It prints the
//! whole table, so W1, Drop and Recovery Time are reported but not
//! asserted: at W1 ShiftEx ties with or loses to FedDrift.
//!
//! Recovery Time counts rounds to 95 % of a run's *own* pre-shift
//! accuracy, so it cannot rank algorithms against each other. A second
//! table prints a common-target time beside it: the rounds each algorithm
//! needs, in each window, to reach FedAvg's mean Max in that window. It is
//! read off the accuracy traces the runs already record, and is not
//! asserted.
//!
//! ```text
//! cargo test --release --test paper_claim -- --ignored --nocapture
//! ```

use std::collections::BTreeMap;

use shiftex::core::ShiftExConfig;
use shiftex::data::{DatasetKind, SimScale};
use shiftex::experiments::{
    aggregate_windows, report, rounds_to_reach, run_scenario, FedRunResult, Scenario,
    WindowMetrics, WindowMetricsAgg, ALGORITHMS, ALGORITHM_NAMES,
};

const RUNS: usize = 5;
const SEED: u64 = 7;
/// Points by which ShiftEx's mean Max must beat the best baseline's.
const MIN_MARGIN: f32 = 3.0;

#[test]
#[ignore = "six algorithms x five seeds on two datasets; run in release"]
fn shiftex_max_beats_every_baseline_by_three_points_at_w2_to_w5() {
    let cfg = ShiftExConfig::default();
    let mut failures = Vec::new();
    for kind in [DatasetKind::Femnist, DatasetKind::FashionMnist] {
        let scenario = Scenario::build(kind, SimScale::Small, SEED);
        let mut per_strategy = BTreeMap::new();
        let mut runs = BTreeMap::new();
        for name in ALGORITHM_NAMES {
            let results = run_scenario(name, &scenario, RUNS, &cfg);
            let windows: Vec<_> = results.iter().map(|r| r.windows.clone()).collect();
            per_strategy.insert(
                results[0].strategy.clone(),
                aggregate_windows(&windows, scenario.rounds_per_window),
            );
            runs.insert(results[0].strategy.clone(), results);
        }
        println!("{}", report::render_table(&kind.to_string(), &per_strategy));
        println!(
            "{}",
            common_target_table(&kind.to_string(), &scenario, &per_strategy, &runs)
        );

        let shiftex = &per_strategy["ShiftEx"];
        assert_eq!(shiftex.len(), 5, "{kind}: five eval windows");
        for (w, agg) in shiftex.iter().enumerate().skip(1) {
            let (best, best_max) = per_strategy
                .iter()
                .filter(|(name, _)| name.as_str() != "ShiftEx")
                .map(|(name, aggs)| (name, aggs[w].max_acc.mean))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("five baselines");
            let margin = agg.max_acc.mean - best_max;
            println!(
                "{kind} W{}: ShiftEx {:.2} vs {best} {best_max:.2}, margin {margin:+.2}",
                w + 1,
                agg.max_acc.mean
            );
            if margin < MIN_MARGIN {
                failures.push(format!("{kind} W{}: margin {margin:+.2}", w + 1));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "ShiftEx's Max beats the best baseline by < {MIN_MARGIN} points: {failures:?}"
    );
}

/// Renders, per algorithm and window, the rounds to reach FedAvg's mean Max
/// in that window (the median over runs, `>R` when most runs never do),
/// with the paper's own Time in brackets.
fn common_target_table(
    dataset: &str,
    scenario: &Scenario,
    per_strategy: &BTreeMap<String, Vec<WindowMetricsAgg>>,
    runs: &BTreeMap<String, Vec<FedRunResult>>,
) -> String {
    let rounds = scenario.rounds_per_window;
    let targets: Vec<f32> = per_strategy["FedAvg"]
        .iter()
        .map(|agg| agg.max_acc.mean / 100.0)
        .collect();
    let mut out = format!(
        "{dataset}: rounds to FedAvg's mean Max per window (paper's Time in brackets)\n{:<10}",
        "Tech."
    );
    for (w, target) in targets.iter().enumerate() {
        out.push_str(&format!(
            "| {:>13} ",
            format!("W{} @{:.1}", w + 1, target * 100.0)
        ));
    }
    out.push('\n');
    for (_, name) in ALGORITHMS {
        // The common target takes Recovery Time's place; Drop and Max stay.
        let timed: Vec<Vec<WindowMetrics>> = runs[name]
            .iter()
            .map(|run| {
                let trace = &run.accuracy_series[scenario.bootstrap_rounds()..];
                run.windows
                    .iter()
                    .zip(trace.chunks(rounds))
                    .enumerate()
                    .map(|(w, (metrics, per_round))| WindowMetrics {
                        recovery_rounds: rounds_to_reach(
                            targets[w],
                            run.post_shift_accuracy[w],
                            per_round,
                        ),
                        ..*metrics
                    })
                    .collect()
            })
            .collect();
        out.push_str(&format!("{name:<10}"));
        for (common, paper) in aggregate_windows(&timed, rounds)
            .iter()
            .zip(&per_strategy[name])
        {
            out.push_str(&format!(
                "| {:>5} ({:>5}) ",
                common.recovery_display(),
                paper.recovery_display()
            ));
        }
        out.push('\n');
    }
    out
}
