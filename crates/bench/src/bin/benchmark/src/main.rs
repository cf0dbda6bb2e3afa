//! The repository's end-to-end benchmark. See `README.md` beside
//! `Cargo.toml` for the metric glossary and the workloads.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! benchmark --all [--seed <n>] [--seconds <s>] --out <report.json>
//! benchmark --compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload — what `BENCHMARK.json`'s
//! `command` invokes. Its last line on standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! second form runs every workload both ways, each in a fresh child process
//! of this program, and writes one report with the run's provenance. The
//! third compares two reports against the bounds and exits non-zero when
//! one is exceeded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod measure;
mod report;
mod seams;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use measure::RunResult;

/// The repository root this program was built in: four directories above
/// the package.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../..");

/// `--key value` pairs and bare `--switch`es, in order.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("invalid value for {key}: {text:?}")),
        }
    }

    fn switch(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

/// Builds the shipped `party-worker` executable beside this one, outside
/// every timed region, and returns its path. A no-op when it is fresh.
fn build_party_worker() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let profile_dir = exe.parent().ok_or("executable has no directory")?;
    let target_dir = profile_dir
        .parent()
        .ok_or("executable is not in a target dir")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    // Run from the repository root so its .cargo/config.toml (native CPU
    // flags) applies to the workers as it does to every shipped binary.
    let status = Command::new(cargo)
        .current_dir(REPO_ROOT)
        .args(["build", "--release", "--quiet", "-p", "shiftex-experiments"])
        .args(["--bin", "party-worker", "--target-dir"])
        .arg(target_dir)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building party-worker failed: {status}"));
    }
    let worker = target_dir.join("release").join("party-worker");
    if worker.is_file() {
        Ok(worker)
    } else {
        Err(format!("{} was not built", worker.display()))
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The contract's result object.
fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(m, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}

/// One run of one workload: the form `BENCHMARK.json`'s command takes.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let workload = seams::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload {name:?} (one of {known:?})")
    })?;
    let seed: u64 = args.parsed("--seed", 7)?;
    let seconds: f64 = args.parsed("--seconds", spec::RUN_SECONDS as f64)?;
    let traced = match args.parsed("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let trace_out = args.value("--trace-out").map(Path::new);
    let worker = build_party_worker()?;

    let mut result = measure::run(&workload, seed, seconds, traced, &worker, trace_out);
    if result.metrics.iter().any(|(_, v)| !v.is_finite()) {
        result
            .failures
            .push(format!("{name}: a metric is not a finite number"));
        result.correct = false;
    }
    eprintln!(
        "# {name} seed {seed}: {} repetitions, {} round samples, {} of {} rounds failed",
        result.repetitions, result.round_samples, result.failed, result.attempted
    );
    for (m, value) in &result.metrics {
        let bound = m
            .bound
            .map_or_else(String::new, |b| format!("  (bound {:.0} %)", b * 100.0));
        eprintln!(
            "{:<36} {value:>16.4} {:<6} {} is better{bound}",
            m.name, m.unit, m.better
        );
    }
    for failure in &result.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("#details {}", report::details_line(&result));
    println!("{}", result_line(&result));
    Ok(if result.correct && result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = if args.switch("--compare") {
        report::compare(&args.0)
    } else if args.switch("--all") {
        args.parsed("--seed", 7u64).and_then(|seed| {
            let seconds = args.parsed("--seconds", spec::RUN_SECONDS as f64)?;
            let out = args
                .value("--out")
                .ok_or("--all needs --out <report.json>")?;
            report::run_all(seed, seconds, Path::new(out))
        })
    } else {
        run_one(&args)
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 28,
            failed: 0,
            metrics: vec![
                (spec::metric("setup_s").expect("in spec"), 0.8127),
                (spec::metric("rounds_per_s").expect("in spec"), f64::NAN),
            ],
            round_samples: 28,
            repetitions: 1,
            failures: Vec::new(),
            commands: Vec::new(),
        };
        assert_eq!(
            result_line(&result),
            "{\"correct\": true, \"attempted\": 28, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"rounds_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn args_read_values_switches_and_defaults() {
        let args = Args(
            "--workload netfed_tcp --seed 9 --trace 1"
                .split(' ')
                .map(String::from)
                .collect(),
        );
        assert_eq!(args.value("--workload"), Some("netfed_tcp"));
        assert_eq!(args.parsed("--seed", 7u64), Ok(9));
        assert_eq!(args.parsed("--seconds", 20.0f64), Ok(20.0));
        assert!(args.switch("--trace") && !args.switch("--all"));
        assert!(args.parsed::<u64>("--workload", 0).is_err());
    }
}
