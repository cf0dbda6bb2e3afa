//! One benchmark run: repeat a workload for `--seconds`, check its outputs,
//! and reduce the repetitions to the metrics of `spec`.
//!
//! Every workload is a closed loop with one client: a federation round
//! starts only when the previous one has folded and been evaluated. A
//! repetition is one whole run from scenario build to the last round, so
//! set-up is timed several times per run and the wall metrics are read off
//! all repetitions' rounds. Every repetition runs the same seed, so the seed-deterministic outputs
//! must repeat exactly — which is itself an output check.

use std::path::Path;
use std::time::Instant;

use crate::seams::{self, NetFedWorkload, NetRun, ScenarioRun, ScenarioWorkload, Values, Workload};
use crate::spec::{self, MetricSpec};
use crate::stats::{highest_admissible_tail, median, percentile};
use crate::trace::{self_ns, total_by_name, Span};

/// The result line of one run, before it is rendered as JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Federation rounds attempted across all repetitions.
    pub attempted: u64,
    /// Rounds that failed (non-finite accuracy, lost upload, panicked run).
    pub failed: u64,
    /// `(metric, value)` in `spec` order.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// Timing samples behind the percentile metrics.
    pub round_samples: usize,
    /// Whole-run repetitions measured.
    pub repetitions: usize,
    /// Messages of the failed checks.
    pub failures: Vec<String>,
    /// Child-process command lines the run spawned (`netfed_tcp`).
    pub commands: Vec<String>,
}

/// `VmHWM` of this process in MiB: the peak resident set of the workload,
/// which runs alone in its process.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Calls `rep(i)` for i = 0, 1, … until `seconds` have passed, at least
/// once.
fn repeat<T>(seconds: f64, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed().as_secs_f64() < seconds {
        out.push(rep(out.len()));
    }
    out
}

/// `(untraced, traced)` repetitions until `seconds` have passed, at least
/// one pair, alternating which of the two runs first so that drift over the
/// run hits both sides alike.
fn alternating_pairs<T>(seconds: f64, mut rep: impl FnMut(bool) -> T) -> Vec<(T, T)> {
    repeat(seconds, |i| {
        if i % 2 == 0 {
            (rep(false), rep(true))
        } else {
            let traced = rep(true);
            (rep(false), traced)
        }
    })
}

/// Renders `values` in the order and with the metadata of `table`; a metric
/// without a value does not apply to the workload and reads 0.
///
/// # Panics
///
/// Panics when `values` holds a name `table` does not: a typo must not
/// silently report 0.
fn in_spec_order(table: &'static [MetricSpec], values: &Values) -> Vec<(&'static MetricSpec, f64)> {
    for name in values.keys() {
        assert!(
            table.iter().any(|m| m.name == *name),
            "metric {name} is not in the spec table"
        );
    }
    table
        .iter()
        .map(|m| (m, values.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

/// The end-to-end metrics every workload shares, from its clock readings.
struct Clock<'a> {
    setup_s: Vec<f64>,
    /// `(rounds completed, first round → end of run in seconds)` per
    /// repetition.
    runs: Vec<(usize, f64)>,
    round_ms: Vec<f64>,
    wire_bytes_per_round: f64,
    failures: &'a mut Vec<String>,
}

impl Clock<'_> {
    fn end_to_end(self, workload: &str) -> Values {
        for (i, (setup, (rounds, run_s))) in self.setup_s.iter().zip(&self.runs).enumerate() {
            let rate = *rounds as f64 / run_s;
            eprintln!("# {workload} repetition {i}: setup {setup:.4} s, {rate:.3} rounds/s");
        }
        if highest_admissible_tail(self.round_ms.len()).is_none() {
            eprintln!(
                "# {workload}: only {} round samples, p90 has fewer than ten beyond it",
                self.round_ms.len()
            );
        }
        let mut values = Values::new();
        values.insert("setup_s", median(&self.setup_s));
        // Work completed per second over the whole run: a mean, so a slow
        // phase of the machine moves it in proportion to its length.
        let (rounds, run_s) = self
            .runs
            .iter()
            .fold((0, 0.0), |(n, s), (rounds, run_s)| (n + rounds, s + run_s));
        values.insert("rounds_per_s", rounds as f64 / run_s);
        values.insert("round_ms_p50", median(&self.round_ms));
        values.insert("round_ms_p90", percentile(&self.round_ms, 90.0));
        values.insert("wire_bytes_per_round", self.wire_bytes_per_round);
        values.insert("peak_rss_mb", peak_rss_mb());
        for (name, value) in &values {
            if !(value.is_finite() && *value > 0.0) {
                self.failures.push(format!(
                    "{workload}: {name} = {value} is not a positive number"
                ));
            }
        }
        values
    }
}

/// Seconds and calls of every span called `name`, as the median over the
/// traced repetitions.
fn span_median(traces: &[&[Span]], name: &str) -> (f64, f64) {
    let totals: Vec<(f64, usize)> = traces.iter().map(|t| total_by_name(t, name)).collect();
    let secs: Vec<f64> = totals.iter().map(|t| t.0).collect();
    let calls: Vec<f64> = totals.iter().map(|t| t.1 as f64).collect();
    (median(&secs), median(&calls))
}

/// Self time of the root and the round / boundary / tail interval spans:
/// everything the driver does between the decorated calls (cohort
/// materialization, codec, engine fates, metering, id scans).
fn driver_self_s(trace: &[Span]) -> f64 {
    const DRIVER: [&str; 4] = [
        "experiments.run",
        "fl.algo.round",
        "fl.algo.window_boundary",
        "fl.algo.tail",
    ];
    let own = self_ns(trace);
    let driver = trace.iter().filter(|s| DRIVER.contains(&s.name));
    driver.map(|s| own[s.id] as f64 / 1e9).sum()
}

fn check_determinism(workload: &str, fingerprints: &[u64], failures: &mut Vec<String>) {
    if fingerprints.iter().any(|f| *f != fingerprints[0]) {
        failures.push(format!(
            "{workload}: repetitions on one seed disagree: fingerprints {fingerprints:x?}"
        ));
    }
}

fn scenario_end_to_end(w: &ScenarioWorkload, seed: u64, seconds: f64) -> RunResult {
    let reps: Vec<ScenarioRun> = repeat(seconds, |_| seams::run_scenario_workload(w, seed, false));
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    let fingerprints: Vec<u64> = reps.iter().map(|r| r.fingerprint).collect();
    check_determinism(w.name, &fingerprints, &mut failures);
    let round_ms: Vec<f64> = reps.iter().flat_map(|r| r.round_ms.clone()).collect();
    let round_samples = round_ms.len();
    let values = Clock {
        setup_s: reps.iter().map(|r| r.setup_s).collect(),
        runs: reps.iter().map(|r| (r.round_ms.len(), r.run_s)).collect(),
        round_ms,
        wire_bytes_per_round: reps[0].wire_bytes_per_round,
        failures: &mut failures,
    }
    .end_to_end(w.name);
    RunResult {
        correct: failures.is_empty(),
        attempted: (reps.len() * w.planned_rounds()) as u64,
        failed: reps.iter().map(|r| r.failed_rounds as u64).sum(),
        metrics: in_spec_order(spec::END_TO_END, &values),
        round_samples,
        repetitions: reps.len(),
        failures,
        commands: Vec::new(),
    }
}

fn write_trace(dir: Option<&Path>, workload: &str, spans: &[Span]) {
    let Some(dir) = dir else { return };
    let path = dir.join(format!("{workload}.trace.jsonl"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            crate::trace::write_jsonl(spans, &mut out)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => eprintln!("# trace written to {}", path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", path.display()),
    }
}

/// Median over the pairs of how much longer the traced repetition took, %.
fn overhead_pct(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let ratios: Vec<f64> = pairs
        .map(|(untraced_s, traced_s)| (traced_s / untraced_s - 1.0) * 100.0)
        .collect();
    median(&ratios)
}

/// Codec probe unit costs × the run's exact counts: every upload is encoded
/// and decoded once, every stream-round's broadcast likewise.
fn codec_est_s(values: &Values, uploads: f64, broadcasts: f64) -> f64 {
    let us = |name: &str| values.get(name).copied().unwrap_or(0.0);
    (uploads * (us("fl.codec.encode_update_us") + us("fl.codec.decode_update_us"))
        + broadcasts * (us("fl.codec.encode_global_us") + us("fl.codec.decode_global_us")))
        / 1e6
}

fn scenario_per_layer(
    w: &ScenarioWorkload,
    seed: u64,
    seconds: f64,
    trace_out: Option<&Path>,
) -> RunResult {
    let pairs: Vec<(ScenarioRun, ScenarioRun)> = alternating_pairs(seconds, |traced| {
        seams::run_scenario_workload(w, seed, traced)
    });
    let mut failures = Vec::new();
    for (plain, traced) in &pairs {
        failures.extend(plain.failures.iter().cloned());
        if plain.fingerprint != traced.fingerprint {
            failures.push(format!(
                "{}: the traced run computed something else ({:x} vs {:x})",
                w.name, traced.fingerprint, plain.fingerprint
            ));
        }
    }
    let traces: Vec<&[Span]> = pairs.iter().map(|(_, t)| t.spans.as_slice()).collect();
    write_trace(trace_out, w.name, traces[0]);

    let mut values = seams::probe_scenario_layers(w, seed);
    values.extend(pairs[0].1.counters.iter().map(|(k, v)| (*k, *v)));
    for (span, secs_metric, calls_metric) in [
        ("nn.local_step", "nn.local_step_s", "nn.local_step_calls"),
        ("nn.eval", "nn.eval_s", "nn.eval_calls"),
        (
            "fl.selection.cohort",
            "fl.selection.cohort_s",
            "fl.selection.cohort_calls",
        ),
        ("fl.robust.fold", "fl.robust.fold_s", "fl.robust.fold_calls"),
        (
            "fl.algo.begin_window",
            "fl.algo.begin_window_s",
            "fl.algo.begin_window_calls",
        ),
    ] {
        let (secs, calls) = span_median(&traces, span);
        values.insert(secs_metric, secs);
        values.insert(calls_metric, calls);
    }
    let broadcasts = span_median(&traces, "fl.algo.broadcast_state");
    values.insert("fl.algo.init_s", span_median(&traces, "fl.algo.init").0);
    values.insert("fl.algo.broadcast_state_s", broadcasts.0);
    values.insert(
        "fl.algo.end_round_s",
        span_median(&traces, "fl.algo.end_round").0,
    );
    let driver: Vec<f64> = traces.iter().map(|t| driver_self_s(t)).collect();
    values.insert("fl.algo.driver_self_s", median(&driver));
    values.insert(
        "experiments.run_s",
        span_median(&traces, "experiments.run").0,
    );
    let wall = |r: &ScenarioRun| r.setup_s + r.run_s;
    values.insert(
        "experiments.trace_overhead_pct",
        overhead_pct(pairs.iter().map(|(p, t)| (wall(p), wall(t)))),
    );
    let boundaries: Vec<f64> = pairs
        .iter()
        .flat_map(|(p, _)| p.boundary_ms.clone())
        .collect();
    values.insert(
        "experiments.window_boundary_ms",
        boundaries.iter().sum::<f64>() / boundaries.len().max(1) as f64,
    );

    // Probe unit cost × the exact count the run reported.
    let v = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let materialize_est =
        v("fl.population.materialize_us") * v("fl.population.materializations") / 1e6;
    let codec_est = codec_est_s(&values, v("fl.scenario.selected"), broadcasts.1);
    values.insert("fl.population.materialize_est_s", materialize_est);
    values.insert("fl.codec.est_s", codec_est);

    RunResult {
        correct: failures.is_empty(),
        attempted: (pairs.len() * 2 * w.planned_rounds()) as u64,
        failed: pairs
            .iter()
            .map(|(p, t)| (p.failed_rounds + t.failed_rounds) as u64)
            .sum(),
        metrics: in_spec_order(spec::PER_LAYER, &values),
        round_samples: pairs.iter().map(|(p, _)| p.round_ms.len()).sum(),
        repetitions: pairs.len() * 2,
        failures,
        commands: Vec::new(),
    }
}

/// Checks every session against the in-process reference: bit-identical
/// parameters and ledger, no lost upload.
fn check_sessions(reference: &NetRun, sessions: &[&NetRun], failures: &mut Vec<String>) {
    for session in sessions {
        failures.extend(session.failures.iter().cloned());
        if session.fingerprint != reference.fingerprint {
            failures.push(format!(
                "netfed_tcp: the session over TCP computed something else than LocalTransport ({:x} vs {:x})",
                session.fingerprint, reference.fingerprint
            ));
        }
    }
}

fn netfed_end_to_end(w: &NetFedWorkload, seed: u64, seconds: f64, worker_exe: &Path) -> RunResult {
    let sessions: Vec<NetRun> = repeat(seconds, |_| {
        seams::run_netfed_session(w, seed, worker_exe, false)
    });
    let reference = seams::run_netfed_reference(w, seed, false);
    let mut failures = Vec::new();
    check_sessions(
        &reference,
        &sessions.iter().collect::<Vec<_>>(),
        &mut failures,
    );
    let round_ms: Vec<f64> = sessions.iter().flat_map(|s| s.round_ms.clone()).collect();
    let round_samples = round_ms.len();
    let values = Clock {
        setup_s: sessions.iter().map(|s| s.setup_s).collect(),
        runs: sessions
            .iter()
            .map(|s| (s.round_ms.len(), s.run_s))
            .collect(),
        round_ms,
        wire_bytes_per_round: sessions[0].wire_bytes_per_round,
        failures: &mut failures,
    }
    .end_to_end(w.name);
    RunResult {
        correct: failures.is_empty(),
        attempted: (sessions.len() * w.rounds) as u64,
        failed: sessions.iter().map(|s| s.lost_uploads as u64).sum(),
        metrics: in_spec_order(spec::END_TO_END, &values),
        round_samples,
        repetitions: sessions.len(),
        failures,
        commands: sessions[0].commands.clone(),
    }
}

fn netfed_per_layer(
    w: &NetFedWorkload,
    seed: u64,
    seconds: f64,
    worker_exe: &Path,
    trace_out: Option<&Path>,
) -> RunResult {
    let pairs: Vec<(NetRun, NetRun)> = alternating_pairs(seconds, |traced| {
        seams::run_netfed_session(w, seed, worker_exe, traced)
    });
    let reference = seams::run_netfed_reference(w, seed, true);
    let mut failures = Vec::new();
    let all: Vec<&NetRun> = pairs.iter().flat_map(|(p, t)| [p, t]).collect();
    check_sessions(&reference, &all, &mut failures);
    write_trace(trace_out, w.name, &pairs[0].1.spans);

    let mut values = seams::probe_netfed_layers(w, seed);
    values.extend(pairs[0].1.counters.iter().map(|(k, v)| (*k, *v)));
    let net_ms: Vec<f64> = pairs.iter().flat_map(|(p, _)| p.round_ms.clone()).collect();
    let traced_exchange: Vec<f64> = pairs.iter().map(|(_, t)| t.exchange_s).collect();
    values.insert("net.exchange_s", median(&traced_exchange));
    values.insert("net.round_ms_p50", median(&net_ms));
    values.insert("net.round_ms_p90", percentile(&net_ms, 90.0));
    values.insert(
        "net.wire_minus_local_ms",
        median(&net_ms) - median(&reference.round_ms),
    );
    // The workers train out of process; the reference run does the same
    // local steps in process, where they can be timed.
    values.insert("nn.local_step_s", reference.local_step_s);
    values.insert("nn.local_step_calls", reference.local_steps as f64);
    let run_s: Vec<f64> = pairs.iter().map(|(_, t)| t.run_s).collect();
    values.insert("experiments.run_s", median(&run_s));
    values.insert(
        "experiments.trace_overhead_pct",
        overhead_pct(pairs.iter().map(|(p, t)| (p.run_s, t.run_s))),
    );
    let codec_est = codec_est_s(&values, reference.local_steps as f64, w.rounds as f64);
    values.insert("fl.codec.est_s", codec_est);

    RunResult {
        correct: failures.is_empty(),
        attempted: (all.len() * w.rounds) as u64,
        failed: all.iter().map(|s| s.lost_uploads as u64).sum(),
        metrics: in_spec_order(spec::PER_LAYER, &values),
        round_samples: net_ms.len(),
        repetitions: all.len(),
        failures,
        commands: pairs[0].0.commands.clone(),
    }
}

/// Runs `workload` for `seconds` from `seed` and returns its end-to-end
/// metrics (`traced == false`) or its per-layer metrics (`traced == true`).
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    worker_exe: &Path,
    trace_out: Option<&Path>,
) -> RunResult {
    match (workload, traced) {
        (Workload::Scenario(w), false) => scenario_end_to_end(w, seed, seconds),
        (Workload::Scenario(w), true) => scenario_per_layer(w, seed, seconds, trace_out),
        (Workload::NetFed(w), false) => netfed_end_to_end(w, seed, seconds, worker_exe),
        (Workload::NetFed(w), true) => netfed_per_layer(w, seed, seconds, worker_exe, trace_out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miniature(name: &str) -> ScenarioWorkload {
        match seams::workload(name) {
            Some(Workload::Scenario(w)) => w.miniature(),
            other => panic!("{name} is not an in-process workload: {other:?}"),
        }
    }

    /// Check (a) on a miniature of each in-process workload: the traced run
    /// is the same program, and both reduce to every metric of the spec.
    #[test]
    fn miniatures_run_traced_and_untraced_to_the_same_fingerprint() {
        for name in ["paper_shift", "scale_lazy_churn", "wide_cohort_byzantine"] {
            let w = miniature(name);
            let end_to_end = scenario_end_to_end(&w, 7, 0.0);
            assert!(end_to_end.correct, "{name}: {:?}", end_to_end.failures);
            assert_eq!(end_to_end.attempted, 4, "{name}");
            assert_eq!(end_to_end.failed, 0, "{name}");
            assert_eq!(end_to_end.metrics.len(), spec::END_TO_END.len());
            assert!(end_to_end.metrics.iter().all(|(_, v)| *v > 0.0), "{name}");

            let layers = scenario_per_layer(&w, 7, 0.0, None);
            assert!(layers.correct, "{name}: {:?}", layers.failures);
            assert_eq!(layers.metrics.len(), spec::PER_LAYER.len());
            let value = |metric: &str| {
                layers
                    .metrics
                    .iter()
                    .find(|(m, _)| m.name == metric)
                    .map(|(_, v)| *v)
                    .expect("in spec")
            };
            assert_eq!(
                value("nn.eval_calls"),
                5.0,
                "{name}: 4 rounds + 1 post-shift"
            );
            assert_eq!(value("fl.algo.begin_window_calls"), 1.0, "{name}");
            assert!(value("nn.local_step_calls") > 0.0, "{name}");
            assert!(
                value("experiments.run_s") > value("fl.algo.driver_self_s"),
                "{name}"
            );
            assert!(value("fl.codec.update_frame_bytes") > 0.0, "{name}");
        }
    }

    #[test]
    fn seeds_change_the_inputs_and_repeat_exactly() {
        let w = miniature("scale_lazy_churn");
        let a = seams::run_scenario_workload(&w, 1, false);
        let b = seams::run_scenario_workload(&w, 2, false);
        let again = seams::run_scenario_workload(&w, 1, false);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fingerprint, again.fingerprint);
        assert_eq!(a.wire_bytes_per_round, again.wire_bytes_per_round);
    }

    /// The networked workload's in-process half: the reference run reads
    /// the same clock marks a session does.
    #[test]
    fn netfed_reference_times_every_round_and_local_step() {
        let Some(Workload::NetFed(w)) = seams::workload("netfed_tcp") else {
            panic!("netfed_tcp is the networked workload");
        };
        let w = w.miniature();
        let reference = seams::run_netfed_reference(&w, 7, true);
        assert_eq!(reference.round_ms.len(), 3);
        assert!(reference.local_steps > 0 && reference.local_step_s > 0.0);
        assert_eq!(total_by_name(&reference.spans, "net.exchange").1, 3);
        assert_eq!(
            total_by_name(&reference.spans, "nn.local_step").1,
            reference.local_steps
        );
        assert_eq!(
            reference.fingerprint,
            seams::run_netfed_reference(&w, 7, false).fingerprint
        );
    }

    #[test]
    fn unknown_metric_names_are_refused() {
        let mut values = Values::new();
        values.insert("nn.eval_s", 1.0);
        assert_eq!(
            in_spec_order(spec::PER_LAYER, &values).len(),
            spec::PER_LAYER.len()
        );
        values.insert("nn.evla_s", 1.0);
        let refused = std::panic::catch_unwind(|| in_spec_order(spec::PER_LAYER, &values));
        assert!(refused.is_err());
    }
}
