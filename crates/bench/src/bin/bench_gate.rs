//! Bench regression gate: compares a fresh `bench_runner` report against the
//! latest committed `BENCH_<n>.json` trajectory point and fails (exit 1) on
//! regressions beyond a tolerance factor.
//!
//! ```text
//! bench_gate --current <fresh.json> [--baseline <BENCH_n.json>] \
//!            [--tolerance 1.5] [--groups mmd,tensor] [--min-ns 20000]
//! ```
//!
//! * `--current` — report to check (typically a `--quick` CI run);
//! * `--baseline` — trajectory point to compare against (default: the
//!   highest-numbered `BENCH_<n>.json` in the working directory);
//! * `--tolerance` — fail when `current > tolerance × baseline` for any
//!   gated label (default 1.5);
//! * `--groups` — comma-separated label-prefix filter selecting which
//!   benchmark groups are gated (default `mmd,tensor_kernels,nn_kernels`:
//!   the pure compute kernels whose medians are stable enough to gate even
//!   from a 2-sample quick run);
//! * `--min-ns` — ignore baselines faster than this (sub-20 µs medians
//!   jitter too much on shared CI runners to gate reliably).
//!
//! The gate compares **range lows** (fastest observed sample), not medians:
//! a `--quick` run takes only 2 samples and its first iteration carries the
//! cold-cache warm-up, so the median is biased high by ~2× on short
//! benchmarks. Warm-up and scheduling noise only ever *add* time, while a
//! genuine kernel regression raises the floor too — the minimum is the
//! robust regression estimator here.
//!
//! Committed baselines may have been recorded on different hardware than
//! the CI runner, so by default each label's ratio is judged relative to
//! the **median ratio** across all gated labels (clamped at ≥ 1, so a
//! faster machine never loosens the gate): a uniformly slower runner moves
//! every ratio together and stays green, while a regression in one kernel
//! sticks out against its peers. The trade-off — a slowdown hitting *every*
//! gated kernel at once normalises itself away — is loudly warned about
//! whenever the median exceeds the tolerance, and `--no-normalize` restores
//! absolute comparison for same-machine runs.
//!
//! Labels present in only one report are reported but never fail the gate,
//! so adding a benchmark does not break CI until its baseline lands in the
//! next `BENCH_<n>.json`.

use shiftex_bench::{latest_bench_path, BenchReport};

fn load(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read bench report {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse bench report {path}: {e}"))
}

fn main() {
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut tolerance: f64 = 1.5;
    let mut groups: Vec<String> = vec!["mmd".into(), "tensor_kernels".into(), "nn_kernels".into()];
    let mut min_ns: u64 = 20_000;
    let mut normalize = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-normalize" => normalize = false,
            "--baseline" => baseline = Some(args.next().expect("--baseline requires a path")),
            "--current" => current = Some(args.next().expect("--current requires a path")),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .expect("--tolerance requires a value")
                    .parse()
                    .expect("--tolerance must be a number");
            }
            "--groups" => {
                groups = args
                    .next()
                    .expect("--groups requires a value")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--min-ns" => {
                min_ns = args
                    .next()
                    .expect("--min-ns requires a value")
                    .parse()
                    .expect("--min-ns must be an integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_gate --current <report.json> [--baseline <BENCH_n.json>] \
                     [--tolerance 1.5] [--groups mmd,tensor_kernels,nn_kernels] [--min-ns 20000]"
                );
                std::process::exit(2);
            }
        }
    }

    let current_path = current.expect("--current is required");
    let baseline_path = baseline.unwrap_or_else(|| {
        latest_bench_path(std::path::Path::new("."))
            .expect("no committed BENCH_<n>.json found and no --baseline given")
            .display()
            .to_string()
    });
    let base = load(&baseline_path);
    let cur = load(&current_path);
    println!("bench gate: {current_path} vs baseline {baseline_path}");
    println!("tolerance {tolerance}x on groups {groups:?} (min baseline {min_ns} ns)");

    let gated = |label: &str| groups.iter().any(|g| label.starts_with(g.as_str()));
    let base_lo = |label: &str| {
        base.lines()
            .find(|(_, l)| l.label == label)
            .map(|(_, l)| l.lo_ns)
    };
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for (_, line) in cur.lines().filter(|(_, l)| gated(&l.label)) {
        let Some(base_ns) = base_lo(&line.label) else {
            println!(
                "  new       {} ({} ns, no baseline)",
                line.label, line.lo_ns
            );
            continue;
        };
        if base_ns < min_ns {
            println!(
                "  skipped   {} (baseline {} ns below min)",
                line.label, base_ns
            );
            continue;
        }
        ratios.push((line.label.clone(), line.lo_ns as f64 / base_ns as f64));
    }
    for (_, line) in base.lines().filter(|(_, l)| gated(&l.label)) {
        if cur.median_ns(&line.label).is_none() {
            println!("  missing   {} (in baseline, not in current)", line.label);
        }
    }
    assert!(
        !ratios.is_empty(),
        "bench gate compared nothing — group filter or label scheme changed?"
    );

    // Hardware normalisation: judge each ratio against the cohort median
    // (clamped at >= 1 so faster machines never loosen the gate).
    let norm = if normalize {
        let mut sorted: Vec<f64> = ratios.iter().map(|(_, r)| *r).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        let median = sorted[sorted.len() / 2];
        if median > tolerance {
            println!(
                "WARNING: median ratio {median:.2}x exceeds the tolerance — either this \
                 machine is much slower than the baseline's, or every gated kernel \
                 regressed at once (which normalisation would mask; rerun with \
                 --no-normalize on the baseline machine to distinguish)"
            );
        }
        median.max(1.0)
    } else {
        1.0
    };
    if norm > 1.0 {
        println!("normalising ratios by cohort median {norm:.2}x");
    }

    let checked = ratios.len();
    let mut regressions = Vec::new();
    for (label, ratio) in ratios {
        let relative = ratio / norm;
        let verdict = if relative > tolerance {
            "REGRESSED"
        } else {
            "ok"
        };
        println!("  {verdict:<9} {label} {ratio:.2}x (vs cohort {relative:.2}x)");
        if relative > tolerance {
            regressions.push((label, relative));
        }
    }
    if regressions.is_empty() {
        println!("bench gate passed: {checked} labels within {tolerance}x");
    } else {
        eprintln!("bench gate FAILED: {} regression(s)", regressions.len());
        for (label, ratio) in &regressions {
            eprintln!("  {label}: {ratio:.2}x");
        }
        std::process::exit(1);
    }
}
