//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is this table written out; a test keeps the two equal.

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Metric name, `layer.metric` for per-layer ones.
    pub name: &'static str,
    /// Unit as printed beside every value.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change is rejected; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "paper_shift",
        "the paper's CIFAR-10-C protocol, 200 resident parties, clean sync: nn dominates, detect/cluster/core own the window boundaries",
    ),
    (
        "scale_lazy_churn",
        "800 lazy parties under churn, stragglers, async folds, adaptive codec and chunked joins: population and data dominate, nn is small",
    ),
    (
        "wide_cohort_byzantine",
        "200-update quant8 cohorts, 20% sign-flip, Krum: the server-side per-update path (codec, fates, metering, robust fold) has its largest share",
    ),
    (
        "netfed_tcp",
        "in-process coordinator and 2 party-worker processes on loopback TCP: the only workload that crosses net; its delta to LocalTransport is the wire",
    ),
];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("rounds_per_s", "1/s", "higher", 0.25),
    e2e("round_ms_p50", "ms", "lower", 0.25),
    e2e("round_ms_p90", "ms", "lower", 0.25),
    e2e("wire_bytes_per_round", "B", "lower", 0.05),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
];

/// Single-layer readings of the traced pass. A workload a metric does not
/// apply to reports 0 for it.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("nn.local_step_s", "s", "lower"),
    layer("nn.local_step_calls", "count", "lower"),
    layer("nn.eval_s", "s", "lower"),
    layer("nn.eval_calls", "count", "lower"),
    layer("nn.train_epoch_us", "us", "lower"),
    layer("nn.forward_us", "us", "lower"),
    layer("tensor.matmul_us", "us", "lower"),
    layer("data.generate_us", "us", "lower"),
    layer("fl.population.materialize_us", "us", "lower"),
    layer("fl.population.materializations", "count", "lower"),
    layer("fl.population.materialize_est_s", "s", "lower"),
    layer("fl.population.peak_cohort", "count", "lower"),
    layer("fl.population.party_ids_us", "us", "lower"),
    layer("fl.scenario.live_members_us", "us", "lower"),
    layer("fl.algo.init_s", "s", "lower"),
    layer("fl.algo.begin_window_s", "s", "lower"),
    layer("fl.algo.begin_window_calls", "count", "lower"),
    layer("fl.algo.broadcast_state_s", "s", "lower"),
    layer("fl.algo.end_round_s", "s", "lower"),
    layer("fl.algo.driver_self_s", "s", "lower"),
    layer("detect.mmd2_us", "us", "lower"),
    layer("detect.calibrate_us", "us", "lower"),
    layer("cluster.choose_k_us", "us", "lower"),
    layer("core.assign_greedy_us", "us", "lower"),
    layer("fl.selection.cohort_s", "s", "lower"),
    layer("fl.selection.cohort_calls", "count", "lower"),
    layer("fl.robust.fold_s", "s", "lower"),
    layer("fl.robust.fold_calls", "count", "lower"),
    layer("fl.robust.aggregate_us", "us", "lower"),
    layer("fl.robust.updates_folded", "count", "higher"),
    layer("fl.robust.updates_quarantined", "count", "lower"),
    layer("fl.codec.encode_update_us", "us", "lower"),
    layer("fl.codec.decode_update_us", "us", "lower"),
    layer("fl.codec.encode_global_us", "us", "lower"),
    layer("fl.codec.decode_global_us", "us", "lower"),
    layer("fl.codec.update_frame_bytes", "B", "lower"),
    layer("fl.codec.est_s", "s", "lower"),
    layer("fl.comm.up_bytes", "B", "lower"),
    layer("fl.comm.down_bytes", "B", "lower"),
    layer("fl.comm.first_contact_down_bytes", "B", "lower"),
    layer("fl.comm.join_chunk_down_bytes", "B", "lower"),
    layer("fl.comm.aborted_up_bytes", "B", "lower"),
    layer("fl.comm.quarantined_up_bytes", "B", "lower"),
    layer("fl.comm.join_lost_down_bytes", "B", "lower"),
    layer("fl.comm.messages", "count", "lower"),
    layer("fl.scenario.selected", "count", "higher"),
    layer("fl.scenario.delivered", "count", "higher"),
    layer("fl.scenario.dropped_churn", "count", "lower"),
    layer("fl.scenario.dropped_late", "count", "lower"),
    layer("fl.scenario.deferred", "count", "lower"),
    layer("fl.scenario.stale_dropped", "count", "lower"),
    layer("fl.scenario.aggregations", "count", "higher"),
    layer("fl.scenario.delivered_ratio", "ratio", "higher"),
    layer("fl.join.lost_ratio", "ratio", "lower"),
    layer("net.exchange_s", "s", "lower"),
    layer("net.round_ms_p50", "ms", "lower"),
    layer("net.round_ms_p90", "ms", "lower"),
    layer("net.wire_minus_local_ms", "ms", "lower"),
    layer("net.frame_roundtrip_us", "us", "lower"),
    layer("net.broadcast_bytes", "B", "lower"),
    layer("net.upload_bytes", "B", "lower"),
    layer("net.control_bytes", "B", "lower"),
    layer("net.frame_overhead_bytes", "B", "lower"),
    layer("net.frames", "count", "lower"),
    layer("net.lost_uploads", "count", "lower"),
    layer("net.deadline_misses", "count", "lower"),
    layer("experiments.window_boundary_ms", "ms", "lower"),
    layer("experiments.acc_max_pct", "%", "higher"),
    layer("experiments.recovery_rounds", "rounds", "lower"),
    layer("experiments.run_s", "s", "lower"),
    layer("experiments.trace_overhead_pct", "%", "lower"),
];

/// Looks an end-to-end or per-layer metric up by name.
#[cfg(test)]
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, Deserialize)]
    struct FileWorkload {
        name: String,
        why: String,
    }

    #[derive(Debug, Deserialize)]
    struct FileMetric {
        name: String,
        unit: String,
        better: String,
        bound: Option<f64>,
    }

    #[derive(Debug, Deserialize)]
    struct BenchmarkFile {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<FileWorkload>,
        end_to_end: Vec<FileMetric>,
        per_layer: Vec<FileMetric>,
    }

    fn same(file: &[FileMetric], table: &[MetricSpec]) {
        let file: Vec<_> = file
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str(), m.bound))
            .collect();
        let table: Vec<_> = table
            .iter()
            .map(|m| (m.name, m.unit, m.better, m.bound))
            .collect();
        assert_eq!(file, table);
    }

    /// `BENCHMARK.json` is serialised from these tables by hand; parsing it
    /// back must give the tables again, so the driver and the program can
    /// never disagree about a name, a unit or a bound.
    #[test]
    fn benchmark_json_round_trips_to_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let file: BenchmarkFile = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(file.run_seconds, RUN_SECONDS);
        assert_eq!(file.paths, ["crates/bench/src/bin/benchmark"]);
        assert!(file
            .command
            .iter()
            .any(|arg| arg == "crates/bench/src/bin/benchmark/Cargo.toml"));
        let workloads: Vec<_> = file
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        same(&file.end_to_end, END_TO_END);
        same(&file.per_layer, PER_LAYER);
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "names are used once");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.better == "higher" || m.better == "lower", "{m:?}");
            assert!(m.unit.len() <= 16, "{m:?}");
        }
        let setup = metric("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(largest <= 0.25);
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
