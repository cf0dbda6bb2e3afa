//! Whole-benchmark reports: `--all` runs every workload both ways in fresh
//! child processes and writes one JSON file with the run's provenance;
//! `--compare` holds two such files against the end-to-end bounds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use serde::{Deserialize, Serialize};

use crate::measure::RunResult;
use crate::spec;

/// What a run knows beyond the contract's result object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Details {
    /// Timing samples behind the percentile metrics.
    round_samples: usize,
    /// Whole-run repetitions measured.
    repetitions: usize,
    /// Messages of the failed output checks.
    failures: Vec<String>,
    /// Exact command lines of the child processes the run spawned.
    commands: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Measured {
    value: f64,
    unit: String,
}

/// The contract's result object, parsed back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Measured>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pass {
    result: ResultLine,
    details: Details,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WorkloadReport {
    end_to_end: Pass,
    per_layer: Pass,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Provenance {
    nproc: usize,
    rustc: String,
    git_commit: String,
    seed: u64,
    run_seconds: f64,
}

/// One `--all` report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Report {
    /// A report measures; it claims nothing.
    claim: Option<String>,
    provenance: Provenance,
    workloads: BTreeMap<String, WorkloadReport>,
}

/// The `#details` line a single run prints before its result object.
pub fn details_line(result: &RunResult) -> String {
    let details = Details {
        round_samples: result.round_samples,
        repetitions: result.repetitions,
        failures: result.failures.clone(),
        commands: result.commands.clone(),
    };
    serde_json::to_string(&details).expect("plain data serialises")
}

/// First line of `program args`' output, or `"unknown"`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one pass of one workload in a fresh child process of this program,
/// so peak memory and allocator state are per workload.
fn child_pass(name: &str, seed: u64, seconds: f64, trace: u8) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &trace.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("the {name} run printed nothing ({})", output.status))?;
    let details = lines
        .find_map(|line| line.strip_prefix("#details "))
        .ok_or_else(|| format!("the {name} run printed no #details line"))?;
    Ok(Pass {
        result: serde_json::from_str(result).map_err(|e| format!("{name} result: {e}"))?,
        details: serde_json::from_str(details).map_err(|e| format!("{name} details: {e}"))?,
    })
}

/// `--all`: every workload, end-to-end then traced, into one report file.
pub fn run_all(seed: u64, seconds: f64, out: &Path) -> Result<ExitCode, String> {
    let mut workloads = BTreeMap::new();
    let mut healthy = true;
    for (name, _) in spec::WORKLOADS {
        let end_to_end = child_pass(name, seed, seconds, 0)?;
        let per_layer = child_pass(name, seed, seconds, 1)?;
        for pass in [&end_to_end, &per_layer] {
            healthy &= pass.result.correct && pass.result.failed == 0;
        }
        workloads.insert(
            name.to_string(),
            WorkloadReport {
                end_to_end,
                per_layer,
            },
        );
    }
    let report = Report {
        claim: None,
        provenance: Provenance {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: tool_line("rustc", &["-V"]),
            git_commit: tool_line("git", &["-C", crate::REPO_ROOT, "rev-parse", "HEAD"]),
            seed,
            run_seconds: seconds,
        },
        workloads,
    };
    let text = serde_json::to_string(&report).expect("plain data serialises");
    std::fs::write(out, text + "\n").map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("# report written to {}", out.display());
    Ok(if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// Metrics that are pure functions of the seed and the code: on one seed
/// they must not differ at all.
const EXACT_REPEAT: &[&str] = &["wire_bytes_per_round"];

/// Compares report `b` against report `a`; returns the printed table and
/// whether every metric stayed within its bound.
fn compare_reports(a: &Report, b: &Report) -> (String, bool) {
    let same_seed = a.provenance.seed == b.provenance.seed;
    let mut table = format!(
        "{:<24} {:<22} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut within = true;
    for (name, _) in spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (a.workloads.get(*name), b.workloads.get(*name)) else {
            table.push_str(&format!("{name:<24} missing from one report\n"));
            within = false;
            continue;
        };
        for m in spec::END_TO_END {
            let metrics = (
                wa.end_to_end.result.metrics.get(m.name),
                wb.end_to_end.result.metrics.get(m.name),
            );
            let (Some(va), Some(vb)) = metrics else {
                table.push_str(&format!(
                    "{name:<24} {:<22} missing from one report\n",
                    m.name
                ));
                within = false;
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let worse = worsening(m.better, va.value, vb.value);
            let mut flag = "";
            if worse > bound {
                flag = "  EXCEEDS BOUND";
                within = false;
            } else if same_seed && EXACT_REPEAT.contains(&m.name) && va.value != vb.value {
                flag = "  DIFFERS (exact-repeat metric)";
                within = false;
            }
            table.push_str(&format!(
                "{name:<24} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{flag}\n",
                m.name,
                va.value,
                vb.value,
                worse * 100.0,
                bound * 100.0
            ));
        }
    }
    (table, within)
}

/// `--compare <a.json> <b.json>`.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let at = args
        .iter()
        .position(|a| a == "--compare")
        .expect("dispatched on --compare");
    let (Some(a), Some(b)) = (args.get(at + 1), args.get(at + 2)) else {
        return Err("--compare takes two report files".to_string());
    };
    let (table, within) = compare_reports(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(values: &[(&str, f64)]) -> Pass {
        Pass {
            result: ResultLine {
                correct: true,
                attempted: 28,
                failed: 0,
                metrics: values
                    .iter()
                    .map(|(name, value)| {
                        let unit = spec::metric(name).expect("in spec").unit.to_string();
                        (
                            name.to_string(),
                            Measured {
                                value: *value,
                                unit,
                            },
                        )
                    })
                    .collect(),
            },
            details: Details {
                round_samples: 224,
                repetitions: 8,
                failures: Vec::new(),
                commands: vec!["party-worker --connect 127.0.0.1:1".to_string()],
            },
        }
    }

    fn report(seed: u64, rounds_per_s: f64, wire: f64) -> Report {
        let end_to_end: Vec<(&str, f64)> = spec::END_TO_END
            .iter()
            .map(|m| match m.name {
                "rounds_per_s" => (m.name, rounds_per_s),
                "wire_bytes_per_round" => (m.name, wire),
                _ => (m.name, 10.0),
            })
            .collect();
        Report {
            claim: None,
            provenance: Provenance {
                nproc: 2,
                rustc: "rustc 1.95.0".to_string(),
                git_commit: "unknown".to_string(),
                seed,
                run_seconds: 20.0,
            },
            workloads: spec::WORKLOADS
                .iter()
                .map(|(name, _)| {
                    let w = WorkloadReport {
                        end_to_end: pass(&end_to_end),
                        per_layer: pass(&[("nn.eval_s", 1.5)]),
                    };
                    (name.to_string(), w)
                })
                .collect(),
        }
    }

    #[test]
    fn report_round_trips_through_json_with_a_null_claim() {
        let original = report(7, 11.0, 855_200.0);
        let text = serde_json::to_string(&original).expect("serialises");
        assert!(text.contains("\"claim\":null"), "{text}");
        let back: Report = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, original);
    }

    #[test]
    fn a_run_compared_with_itself_is_within_every_bound() {
        let a = report(7, 11.0, 855_200.0);
        let (table, within) = compare_reports(&a, &a);
        assert!(within, "{table}");
        assert_eq!(table.lines().count(), 1 + 4 * spec::END_TO_END.len());
    }

    #[test]
    fn a_regression_beyond_the_bound_fails_and_one_within_it_passes() {
        let a = report(7, 10.0, 855_200.0);
        // rounds_per_s is higher-is-better: losing half its bound passes,
        // losing one and a half times its bound does not.
        let bound = spec::metric("rounds_per_s")
            .and_then(|m| m.bound)
            .expect("bounded");
        assert!(compare_reports(&a, &report(7, 10.0 * (1.0 - 0.5 * bound), 855_200.0)).1);
        let (table, within) =
            compare_reports(&a, &report(7, 10.0 * (1.0 - 1.5 * bound), 855_200.0));
        assert!(!within);
        assert!(table.contains("EXCEEDS BOUND"), "{table}");
        // Getting faster is never a regression.
        assert!(compare_reports(&a, &report(7, 20.0, 855_200.0)).1);
    }

    #[test]
    fn exact_repeat_metrics_may_not_move_on_one_seed() {
        let a = report(7, 10.0, 855_200.0);
        let (table, within) = compare_reports(&a, &report(7, 10.0, 855_201.0));
        assert!(!within);
        assert!(table.contains("DIFFERS"), "{table}");
        // Another seed is another input: only the bound applies.
        assert!(compare_reports(&a, &report(8, 10.0, 855_201.0)).1);
    }
}
