//! The paper's three evaluation metrics (§6 "Metrics Captured"):
//! Accuracy Drop, Recovery Time and Max Accuracy, per window, aggregated
//! over repeated runs with mean ± std.

use serde::{Deserialize, Serialize};
use shiftex_tensor::stats::Summary;

/// Metrics of one window for one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowMetrics {
    /// Immediate post-shift decline: pre-shift accuracy minus the first
    /// accuracy measured after the shift (percentage points).
    pub drop_pct: f32,
    /// Rounds needed to regain 95 % of pre-shift accuracy; `None` when the
    /// window's round budget was exhausted without recovery (reported as
    /// "> R" in the tables).
    pub recovery_rounds: Option<usize>,
    /// Highest accuracy reached within the window (percent).
    pub max_acc_pct: f32,
}

/// Computes one window's metrics from its accuracy trace.
///
/// * `pre_shift_acc` — accuracy at the end of the previous window, in `[0,1]`
/// * `post_shift` — accuracy immediately after the shift (before training)
/// * `per_round` — accuracy after each training round of this window
pub fn window_metrics(pre_shift_acc: f32, post_shift: f32, per_round: &[f32]) -> WindowMetrics {
    let drop_pct = (pre_shift_acc - post_shift) * 100.0;
    let target = 0.95 * pre_shift_acc;
    let recovery_rounds = if post_shift >= target {
        Some(0)
    } else {
        per_round.iter().position(|&a| a >= target).map(|i| i + 1)
    };
    let max_acc_pct = per_round
        .iter()
        .copied()
        .chain(std::iter::once(post_shift))
        .fold(f32::NEG_INFINITY, f32::max)
        * 100.0;
    WindowMetrics {
        drop_pct,
        recovery_rounds,
        max_acc_pct,
    }
}

/// Aggregate of one window's metrics over several runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowMetricsAgg {
    /// Drop (percentage points): mean ± std over runs.
    pub drop: Summary,
    /// Max accuracy (percent): mean ± std over runs.
    pub max_acc: Summary,
    /// Median recovery rounds among runs that recovered: with an even
    /// count, the mean of the two middle runs (so it may end in `.5`).
    pub recovery_rounds: Option<f32>,
    /// Number of runs that failed to recover within budget.
    pub unrecovered_runs: usize,
    /// Number of runs aggregated.
    pub runs: usize,
    /// Round budget (for "> R" rendering).
    pub round_budget: usize,
}

/// Aggregates per-run window metrics (all runs must report the same number
/// of windows).
///
/// # Panics
///
/// Panics if `runs` is empty or window counts differ.
pub fn aggregate_windows(
    runs: &[Vec<WindowMetrics>],
    round_budget: usize,
) -> Vec<WindowMetricsAgg> {
    assert!(!runs.is_empty(), "no runs to aggregate");
    let windows = runs[0].len();
    assert!(
        runs.iter().all(|r| r.len() == windows),
        "window count mismatch across runs"
    );
    (0..windows)
        .map(|w| {
            let drops: Vec<f32> = runs.iter().map(|r| r[w].drop_pct).collect();
            let maxes: Vec<f32> = runs.iter().map(|r| r[w].max_acc_pct).collect();
            let mut recoveries: Vec<usize> =
                runs.iter().filter_map(|r| r[w].recovery_rounds).collect();
            recoveries.sort_unstable();
            let unrecovered = runs.len() - recoveries.len();
            let mid = recoveries.len() / 2;
            let recovery = match recoveries.len() {
                0 => None,
                n if n % 2 == 1 => Some(recoveries[mid] as f32),
                _ => Some((recoveries[mid - 1] + recoveries[mid]) as f32 / 2.0),
            };
            WindowMetricsAgg {
                drop: Summary::of(&drops),
                max_acc: Summary::of(&maxes),
                recovery_rounds: recovery,
                unrecovered_runs: unrecovered,
                runs: runs.len(),
                round_budget,
            }
        })
        .collect()
}

impl WindowMetricsAgg {
    /// Renders recovery as the paper does: a round count (with a decimal
    /// only when the median falls between two runs), or `>R` when most
    /// runs failed to recover within the budget.
    pub fn recovery_display(&self) -> String {
        match self.recovery_rounds {
            Some(r) if self.unrecovered_runs * 2 <= self.runs => {
                if r.fract() == 0.0 {
                    format!("{r:.0}")
                } else {
                    format!("{r:.1}")
                }
            }
            _ => format!(">{}", self.round_budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_and_max_computed_in_percent() {
        let m = window_metrics(0.8, 0.5, &[0.6, 0.7, 0.82]);
        assert!((m.drop_pct - 30.0).abs() < 1e-4);
        assert!((m.max_acc_pct - 82.0).abs() < 1e-4);
    }

    #[test]
    fn recovery_at_95_percent_of_preshift() {
        // Pre-shift 0.8 → target 0.76; first round ≥ target is round 3.
        let m = window_metrics(0.8, 0.5, &[0.6, 0.7, 0.77, 0.8]);
        assert_eq!(m.recovery_rounds, Some(3));
    }

    #[test]
    fn no_drop_means_zero_recovery() {
        let m = window_metrics(0.8, 0.79, &[0.8]);
        assert_eq!(m.recovery_rounds, Some(0));
    }

    #[test]
    fn never_recovering_is_none() {
        let m = window_metrics(0.9, 0.4, &[0.5, 0.6]);
        assert_eq!(m.recovery_rounds, None);
    }

    #[test]
    fn aggregate_reports_mean_and_unrecovered() {
        let runs = vec![
            vec![window_metrics(0.8, 0.5, &[0.8])],
            vec![window_metrics(0.8, 0.6, &[0.65])],
        ];
        let agg = aggregate_windows(&runs, 10);
        assert_eq!(agg.len(), 1);
        assert!((agg[0].drop.mean - 25.0).abs() < 1e-3);
        assert_eq!(agg[0].unrecovered_runs, 1);
        assert_eq!(agg[0].recovery_rounds, Some(1.0));
    }

    #[test]
    fn recovery_display_uses_budget_sentinel() {
        let runs = vec![vec![window_metrics(0.9, 0.4, &[0.5])]];
        let agg = aggregate_windows(&runs, 51);
        assert_eq!(agg[0].recovery_display(), ">51");
        // One of three runs recovered: most did not.
        let runs = vec![
            vec![window_metrics(0.8, 0.5, &[0.77])],
            vec![window_metrics(0.8, 0.5, &[0.7])],
            vec![window_metrics(0.8, 0.5, &[0.7])],
        ];
        assert_eq!(aggregate_windows(&runs, 1)[0].recovery_display(), ">1");
    }

    #[test]
    fn recovery_display_prints_the_median_when_most_runs_recovered() {
        // Pre-shift 0.8 → target 0.76. Three runs recover at rounds 2, 3
        // and 4; two never do. 2 of 5 unrecovered is a minority.
        let runs = vec![
            vec![window_metrics(0.8, 0.5, &[0.6, 0.77])],
            vec![window_metrics(0.8, 0.5, &[0.6, 0.7, 0.77])],
            vec![window_metrics(0.8, 0.5, &[0.6, 0.7, 0.7, 0.77])],
            vec![window_metrics(0.8, 0.5, &[0.6, 0.7, 0.7, 0.7])],
            vec![window_metrics(0.8, 0.5, &[0.6, 0.7, 0.7, 0.7])],
        ];
        let agg = aggregate_windows(&runs, 4);
        assert_eq!(agg[0].unrecovered_runs, 2);
        assert_eq!(agg[0].recovery_display(), "3");
    }

    #[test]
    fn even_recovered_counts_take_the_mean_of_the_middle_two() {
        // Pre-shift 0.8 → target 0.76. Runs recover at rounds 2, 3, 5 and
        // 6, one never does: the median is 4, not the upper middle 5.
        let trace = |round: usize| {
            let mut accs = vec![0.6; round];
            accs[round - 1] = 0.77;
            accs
        };
        let mut runs: Vec<Vec<WindowMetrics>> = [2, 3, 5, 6]
            .into_iter()
            .map(|r| vec![window_metrics(0.8, 0.5, &trace(r))])
            .collect();
        runs.push(vec![window_metrics(0.8, 0.5, &[0.6; 6])]);
        let agg = aggregate_windows(&runs, 6);
        assert_eq!(agg[0].recovery_rounds, Some(4.0));
        assert_eq!(agg[0].recovery_display(), "4");
        // Rounds 2 and 3: the median falls between them.
        let agg = aggregate_windows(&runs[..2], 6);
        assert_eq!(agg[0].recovery_display(), "2.5");
    }
}
