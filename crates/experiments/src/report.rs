//! Rendering: the paper's table layout, figure series as aligned text, and
//! CSV dumps for re-plotting.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::metrics::WindowMetricsAgg;
use crate::runner::FedRunResult;

use crate::algorithms::ALGORITHMS;

/// Display names of the algorithms in table row order, derived from the
/// shared registry so the renderer cannot drift from the factory.
fn row_order() -> impl Iterator<Item = &'static str> {
    ALGORITHMS.iter().map(|&(_, display)| display)
}

/// Renders one dataset's block of Table 1/2: rows = techniques, columns =
/// `Drop | Time | Max` per window.
pub fn render_table(
    dataset: &str,
    per_strategy: &BTreeMap<String, Vec<WindowMetricsAgg>>,
) -> String {
    let windows = per_strategy.values().next().map_or(0, Vec::len);
    let mut out = String::new();
    out.push_str(&format!("{dataset}\n"));
    out.push_str(&format!("{:<10}", "Tech."));
    for w in 1..=windows {
        out.push_str(&format!(
            "| {:>13} {:>5} {:>13} ",
            format!("W{w} Drop"),
            "Time",
            "Max"
        ));
    }
    out.push('\n');
    out.push_str(&"-".repeat(10 + windows * 37));
    out.push('\n');
    for name in row_order() {
        let Some(aggs) = per_strategy.get(name) else {
            continue;
        };
        out.push_str(&format!("{name:<10}"));
        for agg in aggs {
            out.push_str(&format!(
                "| {:>6.2}±{:<5.2} {:>5} {:>6.2}±{:<5.2} ",
                agg.drop.mean,
                agg.drop.std,
                agg.recovery_display(),
                agg.max_acc.mean,
                agg.max_acc.std,
            ));
        }
        out.push('\n');
    }
    out
}

/// Renders convergence curves (Figures 3–4) as aligned columns:
/// round index then one accuracy column per technique.
pub fn render_series(dataset: &str, results: &BTreeMap<String, FedRunResult>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Convergence — {dataset} (accuracy % per round)\n"
    ));
    out.push_str(&format!("{:>6}", "round"));
    for name in results.keys() {
        out.push_str(&format!(" {name:>10}"));
    }
    out.push('\n');
    let rounds = results
        .values()
        .map(|r| r.accuracy_series.len())
        .max()
        .unwrap_or(0);
    for round in 0..rounds {
        out.push_str(&format!("{round:>6}"));
        for r in results.values() {
            match r.accuracy_series.get(round) {
                Some(a) => out.push_str(&format!(" {:>10.2}", a * 100.0)),
                None => out.push_str(&format!(" {:>10}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders max-accuracy-per-window (Figures 5–6).
pub fn render_max_per_window(
    dataset: &str,
    per_strategy: &BTreeMap<String, Vec<WindowMetricsAgg>>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Max accuracy per window — {dataset}\n"));
    out.push_str(&format!("{:>8}", "window"));
    for name in per_strategy.keys() {
        out.push_str(&format!(" {name:>10}"));
    }
    out.push('\n');
    let windows = per_strategy.values().next().map_or(0, Vec::len);
    for w in 0..windows {
        out.push_str(&format!("{:>8}", w + 1));
        for aggs in per_strategy.values() {
            out.push_str(&format!(" {:>10.2}", aggs[w].max_acc.mean));
        }
        out.push('\n');
    }
    out
}

/// Renders the expert-distribution stacks (Figures 7–8) for one strategy.
pub fn render_expert_distribution(dataset: &str, result: &FedRunResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Expert distribution — {dataset} ({}; parties per expert per window)\n",
        result.strategy
    ));
    let max_models = result
        .expert_distribution
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    out.push_str(&format!("{:>8}", "window"));
    for m in 0..max_models {
        out.push_str(&format!(" {:>9}", format!("expert{m}")));
    }
    out.push('\n');
    for (w, dist) in result.expert_distribution.iter().enumerate() {
        out.push_str(&format!("{w:>8}"));
        for m in 0..max_models {
            out.push_str(&format!(" {:>9}", dist.get(m).copied().unwrap_or(0)));
        }
        out.push('\n');
    }
    out
}

/// Renders the per-round participation/liveness table of a federation
/// scenario run: live pool, selected, delivered, and the dropped / stale /
/// deferred columns the churn and straggler axes introduce.
pub fn render_participation(title: &str, result: &FedRunResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Participation — {title} ({})\n",
        result.strategy
    ));
    out.push_str(&format!(
        "{:>6} {:>5} {:>9} {:>10} {:>9} {:>7} {:>9} {:>7} {:>5} {:>7} {:>8} {:>10} {:>10} {:>10}\n",
        "round",
        "live",
        "selected",
        "delivered",
        "drop-out",
        "late",
        "deferred",
        "stale",
        "quar",
        "score",
        "acc%",
        "up_B",
        "down_B",
        "join_B"
    ));
    for row in &result.participation {
        out.push_str(&format!(
            "{:>6} {:>5} {:>9} {:>10} {:>9} {:>7} {:>9} {:>7} {:>5} {:>7.3} {:>8.2} {:>10} {:>10} {:>10}\n",
            row.round,
            row.live,
            row.delta.selected,
            row.delta.delivered,
            row.delta.dropped_churn,
            row.delta.dropped_late,
            row.delta.deferred,
            row.delta.stale_dropped,
            row.quarantined,
            row.fold_score,
            row.accuracy * 100.0,
            row.up_bytes,
            row.down_bytes,
            row.first_contact_down_bytes,
        ));
    }
    let t = &result.totals;
    out.push_str(&format!(
        "totals: selected {} | delivered {} | dropped(churn) {} | dropped(late) {} | \
         deferred {} | stale-dropped {} | aggregations {}\n",
        t.selected,
        t.delivered,
        t.dropped_churn,
        t.dropped_late,
        t.deferred,
        t.stale_dropped,
        t.aggregations,
    ));
    out.push_str(&format!(
        "comm: up {} B | down {} B | first-contact {} B over {} joins | messages {} | \
         aborted uploads {} ({} B wasted) | quarantined {} ({} B refused)\n",
        result.comm.up_bytes,
        result.comm.down_bytes,
        result.comm.first_contact_down_bytes,
        result.comm.first_contact_messages,
        result.comm.messages,
        result.comm.aborted_messages,
        result.comm.aborted_up_bytes,
        result.comm.quarantined_updates,
        result.comm.quarantined_up_bytes,
    ));
    out.push_str(&format!(
        "join sync: {} B over {} chunks | lost to churn {} B over {} frames\n",
        result.comm.join_chunk_down_bytes,
        result.comm.join_chunk_messages,
        result.comm.join_lost_down_bytes,
        result.comm.join_lost_messages,
    ));
    out.push_str(&format!(
        "codec: {} | {} params/update | upload compression {:.2}x vs dense | fold: {}\n",
        result.codec_label,
        result.param_count,
        result.compression_ratio(),
        result.fold,
    ));
    out
}

/// Renders the bytes-vs-accuracy table of a codec sweep: one row per codec,
/// with total encoded traffic, the upload compression ratio versus dense,
/// and the final live-member accuracy.
pub fn render_codec_sweep(title: &str, results: &[FedRunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Codec sweep — {title}\n"));
    out.push_str(&format!(
        "{:<28} {:>12} {:>12} {:>10} {:>8} {:>9}\n",
        "codec", "up_bytes", "down_bytes", "join_bytes", "ratio", "final_acc"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>10} {:>7.2}x {:>8.2}%\n",
            r.codec_label,
            r.comm.up_bytes + r.comm.aborted_up_bytes,
            r.comm.down_bytes,
            r.comm.first_contact_down_bytes + r.comm.join_chunk_down_bytes,
            r.compression_ratio(),
            r.accuracy_series.last().copied().unwrap_or(0.0) * 100.0,
        ));
    }
    out
}

/// Writes the codec sweep as CSV.
///
/// # Errors
///
/// Returns any I/O error from file creation or writing.
pub fn write_codec_sweep_csv(path: &Path, results: &[FedRunResult]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "codec,up_bytes,aborted_up_bytes,down_bytes,first_contact_down_bytes,join_chunk_down_bytes,join_lost_down_bytes,compression_ratio,final_accuracy_pct"
    )?;
    for r in results {
        writeln!(
            f,
            "{},{},{},{},{},{},{},{:.4},{:.4}",
            r.codec_label,
            r.comm.up_bytes,
            r.comm.aborted_up_bytes,
            r.comm.down_bytes,
            r.comm.first_contact_down_bytes,
            r.comm.join_chunk_down_bytes,
            r.comm.join_lost_down_bytes,
            r.compression_ratio(),
            r.accuracy_series.last().copied().unwrap_or(0.0) * 100.0
        )?;
    }
    Ok(())
}

/// Writes the bytes-per-accuracy frontier as CSV: one row per codec arm
/// with the total wire bytes (uploads, aborted uploads, broadcasts, and
/// both monolithic and chunked first-contact sync — churn-lost chunk bytes
/// are already counted when shipped), the join share split out, and the
/// cost of each accuracy point.
///
/// # Errors
///
/// Returns any I/O error from file creation or writing.
pub fn write_codec_frontier_csv(path: &Path, results: &[FedRunResult]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "codec,total_bytes,down_bytes,join_bytes,final_accuracy_pct,bytes_per_acc_point"
    )?;
    for r in results {
        let join = r.comm.first_contact_down_bytes + r.comm.join_chunk_down_bytes;
        let total = r.comm.up_bytes + r.comm.aborted_up_bytes + r.comm.down_bytes + join;
        let acc = r.accuracy_series.last().copied().unwrap_or(0.0) * 100.0;
        let per_point = if acc > 0.0 {
            total as f64 / f64::from(acc)
        } else {
            f64::from(u32::MAX)
        };
        writeln!(
            f,
            "{},{},{},{},{:.4},{:.1}",
            r.codec_label, total, r.comm.down_bytes, join, acc, per_point
        )?;
    }
    Ok(())
}

/// Renders the robustness sweep: one row per (attack, fold) cell with the
/// final live-member accuracy and what the fold refused — the measured
/// "hostile federations" table.
pub fn render_robust_sweep(title: &str, rows: &[(String, FedRunResult)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Robustness sweep — {title}\n"));
    out.push_str(&format!(
        "{:<14} {:<18} {:<20} {:>9} {:>12} {:>12} {:>9}\n",
        "attack", "fold", "strategy", "final_acc", "quarantined", "quar_bytes", "max_score"
    ));
    for (attack, r) in rows {
        let score = r
            .participation
            .iter()
            .map(|p| p.fold_score)
            .fold(0.0f32, f32::max);
        out.push_str(&format!(
            "{:<14} {:<18} {:<20} {:>8.2}% {:>12} {:>12} {:>9.3}\n",
            attack,
            r.fold.to_string(),
            r.strategy,
            r.accuracy_series.last().copied().unwrap_or(0.0) * 100.0,
            r.comm.quarantined_updates,
            r.comm.quarantined_up_bytes,
            score,
        ));
    }
    out
}

/// Writes the robustness sweep as CSV.
///
/// # Errors
///
/// Returns any I/O error from file creation or writing.
pub fn write_robust_sweep_csv(path: &Path, rows: &[(String, FedRunResult)]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "attack,fold,strategy,final_accuracy_pct,quarantined_updates,quarantined_up_bytes,max_fold_score"
    )?;
    for (attack, r) in rows {
        let score = r
            .participation
            .iter()
            .map(|p| p.fold_score)
            .fold(0.0f32, f32::max);
        writeln!(
            f,
            "{},{},{},{:.4},{},{},{:.4}",
            attack,
            r.fold,
            r.strategy,
            r.accuracy_series.last().copied().unwrap_or(0.0) * 100.0,
            r.comm.quarantined_updates,
            r.comm.quarantined_up_bytes,
            score
        )?;
    }
    Ok(())
}

/// Writes a CSV of the per-round participation records.
///
/// # Errors
///
/// Returns any I/O error from file creation or writing.
pub fn write_participation_csv(path: &Path, result: &FedRunResult) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "round,live,selected,delivered,dropped_churn,dropped_late,deferred,stale_dropped,accuracy_pct,up_bytes,down_bytes,first_contact_down_bytes,quarantined,fold_score"
    )?;
    for row in &result.participation {
        writeln!(
            f,
            "{},{},{},{},{},{},{},{},{:.4},{},{},{},{},{:.4}",
            row.round,
            row.live,
            row.delta.selected,
            row.delta.delivered,
            row.delta.dropped_churn,
            row.delta.dropped_late,
            row.delta.deferred,
            row.delta.stale_dropped,
            row.accuracy * 100.0,
            row.up_bytes,
            row.down_bytes,
            row.first_contact_down_bytes,
            row.quarantined,
            row.fold_score
        )?;
    }
    Ok(())
}

/// Writes a CSV of the convergence series.
///
/// # Errors
///
/// Returns any I/O error from file creation or writing.
pub fn write_series_csv(
    path: &Path,
    results: &BTreeMap<String, FedRunResult>,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    write!(f, "round")?;
    for name in results.keys() {
        write!(f, ",{name}")?;
    }
    writeln!(f)?;
    let rounds = results
        .values()
        .map(|r| r.accuracy_series.len())
        .max()
        .unwrap_or(0);
    for round in 0..rounds {
        write!(f, "{round}")?;
        for r in results.values() {
            match r.accuracy_series.get(round) {
                Some(a) => write!(f, ",{:.4}", a * 100.0)?,
                None => write!(f, ",")?,
            }
        }
        writeln!(f)?;
    }
    Ok(())
}

/// Writes a CSV of the per-window aggregates (drop/time/max).
///
/// # Errors
///
/// Returns any I/O error from file creation or writing.
pub fn write_table_csv(
    path: &Path,
    per_strategy: &BTreeMap<String, Vec<WindowMetricsAgg>>,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "strategy,window,drop_mean,drop_std,recovery,max_mean,max_std"
    )?;
    for (name, aggs) in per_strategy {
        for (w, agg) in aggs.iter().enumerate() {
            writeln!(
                f,
                "{},{},{:.3},{:.3},{},{:.3},{:.3}",
                name,
                w + 1,
                agg.drop.mean,
                agg.drop.std,
                agg.recovery_display(),
                agg.max_acc.mean,
                agg.max_acc.std
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics::{aggregate_windows, window_metrics};

    fn agg() -> Vec<WindowMetricsAgg> {
        aggregate_windows(&[vec![window_metrics(0.8, 0.5, &[0.7, 0.8])]], 12)
    }

    #[test]
    fn table_contains_all_strategies_present() {
        let mut per = BTreeMap::new();
        per.insert("ShiftEx".to_string(), agg());
        per.insert("FedProx".to_string(), agg());
        let s = render_table("CIFAR-10-C", &per);
        assert!(s.contains("ShiftEx"));
        assert!(s.contains("FedProx"));
        assert!(s.contains("W1 Drop"));
    }

    pub(crate) fn sample_result() -> FedRunResult {
        use shiftex_fl::{ParticipationStats, RoundParticipation};
        FedRunResult {
            strategy: "FedAvg".into(),
            accuracy_series: vec![0.4, 0.5],
            post_shift_accuracy: vec![0.4],
            windows: vec![],
            expert_distribution: vec![vec![8], vec![5, 3]],
            final_models: 2,
            participation: vec![RoundParticipation {
                round: 1,
                live: 9,
                delta: ParticipationStats {
                    selected: 8,
                    delivered: 5,
                    dropped_churn: 2,
                    dropped_late: 1,
                    deferred: 0,
                    stale_dropped: 0,
                    aggregations: 1,
                },
                accuracy: 0.5,
                up_bytes: 640,
                down_bytes: 320,
                first_contact_down_bytes: 48,
                quarantined: 2,
                fold_score: 0.75,
            }],
            totals: ParticipationStats {
                selected: 8,
                delivered: 5,
                dropped_churn: 2,
                dropped_late: 1,
                deferred: 0,
                stale_dropped: 0,
                aggregations: 1,
            },
            comm: shiftex_fl::CommTotals {
                up_bytes: 100,
                down_bytes: 200,
                messages: 10,
                aborted_up_bytes: 60,
                aborted_messages: 3,
                first_contact_down_bytes: 48,
                first_contact_messages: 1,
                quarantined_up_bytes: 80,
                quarantined_updates: 2,
                join_chunk_down_bytes: 12,
                join_chunk_messages: 3,
                join_lost_down_bytes: 4,
                join_lost_messages: 1,
            },
            codec: shiftex_fl::CodecSpec::quant8(256),
            codec_label: "quant8(block=256)".into(),
            fold: shiftex_fl::FoldPolicy::Krum { f: 2 },
            param_count: 1000,
            residency: shiftex_fl::PopulationStats {
                population: 9,
                pinned: 0,
                peak_cohort: 8,
                materializations: 40,
                window: 1,
            },
        }
    }

    #[test]
    fn expert_distribution_renders_all_windows() {
        let result = sample_result();
        let s = render_expert_distribution("FMoW", &result);
        assert!(s.contains("expert0"));
        assert!(s.contains("expert1"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn participation_report_renders_all_columns() {
        let result = sample_result();
        let s = render_participation("smoke", &result);
        assert!(s.contains("drop-out"));
        assert!(s.contains("up_B"));
        assert!(s.contains("join_B"));
        assert!(s.contains("aborted uploads 3"));
        assert!(s.contains("first-contact 48 B over 1 joins"));
        assert!(s.contains("quarantined 2 (80 B refused)"));
        assert!(s.contains("join sync: 12 B over 3 chunks"));
        assert!(s.contains("lost to churn 4 B over 1 frames"));
        assert!(s.contains("fold: krum(f=2)"));
        assert!(s.contains("codec: quant8(block=256)"));
        let dir = std::env::temp_dir().join("shiftex_participation_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("participation.csv");
        write_participation_csv(&p, &result).unwrap();
        let content = std::fs::read_to_string(&p).unwrap();
        assert!(content.starts_with("round,live,selected"));
        assert!(content.contains("1,9,8,5,2,1,0,0,50.0000,640,320,48,2,0.7500"));

        // The sweep table and CSV carry the bytes-vs-accuracy tradeoff.
        let sweep = render_codec_sweep("smoke", std::slice::from_ref(&result));
        assert!(sweep.contains("codec"));
        assert!(sweep.contains("quant8(block=256)"));
        let sp = dir.join("codec_sweep.csv");
        write_codec_sweep_csv(&sp, std::slice::from_ref(&result)).unwrap();
        let sweep_csv = std::fs::read_to_string(&sp).unwrap();
        assert!(sweep_csv.starts_with("codec,up_bytes"));
        assert!(sweep_csv.contains("quant8(block=256),100,60,200,48,12,4"));

        // The frontier CSV folds every wire byte into a per-accuracy cost.
        let fp = dir.join("codec_frontier.csv");
        write_codec_frontier_csv(&fp, std::slice::from_ref(&result)).unwrap();
        let frontier_csv = std::fs::read_to_string(&fp).unwrap();
        assert!(frontier_csv.starts_with("codec,total_bytes"));
        assert!(frontier_csv.contains("quant8(block=256),420,200,60,50.0000,8.4"));

        // The robustness sweep reports what each fold refused.
        let rows = vec![("sign-flip(20%)".to_string(), sample_result())];
        let robust = render_robust_sweep("smoke", &rows);
        assert!(robust.contains("sign-flip(20%)"));
        assert!(robust.contains("krum(f=2)"));
        let rp = dir.join("robust_sweep.csv");
        write_robust_sweep_csv(&rp, &rows).unwrap();
        let robust_csv = std::fs::read_to_string(&rp).unwrap();
        assert!(robust_csv.starts_with("attack,fold,strategy"));
        assert!(robust_csv.contains("sign-flip(20%),krum(f=2),FedAvg,50.0000,2,80,0.7500"));
    }

    #[test]
    fn csv_writers_produce_files() {
        let dir = std::env::temp_dir().join("shiftex_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut per = BTreeMap::new();
        per.insert("ShiftEx".to_string(), agg());
        let table_path = dir.join("table.csv");
        write_table_csv(&table_path, &per).unwrap();
        let content = std::fs::read_to_string(&table_path).unwrap();
        assert!(content.starts_with("strategy,window"));
        assert!(content.contains("ShiftEx,1"));
    }
}
