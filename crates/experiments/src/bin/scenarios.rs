//! Federation-scenario explorer: runs **any of the six algorithms**
//! (ShiftEx, FedAvg, FedProx, FedDrift, Fielding, FLIPS) through a dataset
//! scenario under party churn, stragglers, and staleness-aware asynchronous
//! rounds — the deployment regimes beyond the paper's fixed synchronous
//! protocol — with every exchange encoded and metered under a pluggable
//! wire codec, all through the one generic
//! [`run_federation_scenario`] driver.
//!
//! ```text
//! cargo run --release -p shiftex-experiments --bin scenarios -- \
//!     [--dataset fashionmnist] [--scale smoke|small|paper] [--seed N] \
//!     [--strategy shiftex|fedavg|fedprox|feddrift|fielding|flips] \
//!     [--selector uniform|oort] \
//!     [--parties N] [--samples N] [--population lazy|resident] \
//!     [--windows N] [--rounds N] [--bootstrap N] \
//!     [--codec dense|quant8|delta|delta-quant8|topk|delta-topk|ef-topk|adaptive] \
//!     [--quant-block N] [--topk-density D] [--sweep-codecs] \
//!     [--budget-bytes N] [--budget-party-bytes N] [--join-chunk-bytes N] \
//!     [--cohort-frac F] \
//!     [--dropout P] [--join-frac F --join-ramp R] \
//!     [--leave-frac F --leave-after R] \
//!     [--straggle-mean M] [--slow-frac F --slow-factor X] \
//!     [--deadline D] [--late drop|defer] \
//!     [--async] [--buffer N] [--staleness-alpha A] [--max-staleness S] \
//!     [--server-lr E] \
//!     [--attack sign-flip|scaled-noise|label-flip] [--attack-frac F] \
//!     [--attack-factor X] [--attack-from R | --attack-prob P] \
//!     [--fold mean|trimmed|median|krum] [--trim-beta B] [--krum-f F] \
//!     [--sweep-attacks] [--csv DIR]
//! ```
//!
//! A 100-party churny async run on int8-quantised uploads:
//!
//! ```text
//! cargo run --release -p shiftex-experiments --bin scenarios -- \
//!     --strategy feddrift --parties 100 --samples 16 --windows 1 \
//!     --rounds 6 --bootstrap 6 --codec quant8 --dropout 0.15 \
//!     --straggle-mean 0.8 --late defer --deadline 1.0 \
//!     --async --buffer 16 --max-staleness 4
//! ```
//!
//! `--selector` feeds algorithms that consume the driver's pluggable
//! policy (FedAvg, FedProx, FedDrift); ShiftEx, Fielding and FLIPS select
//! internally (per-expert / label-cluster cohorts) and ignore it.
//! `--sweep-codecs` reruns the identical scenario under every static codec
//! plus the adaptive byte-budget controller and prints the bytes-vs-accuracy
//! table (plus `codec_sweep.csv` and `codec_frontier.csv` with `--csv`).
//! `--codec adaptive` replaces the static codec with a per-round
//! [`shiftex_fl::CodecController`] steering against `--budget-bytes` /
//! `--budget-party-bytes` caps, and switches first-contact joins to
//! chunked, resumable quantized sync (`--join-chunk-bytes`, default 1024).
//! `--cohort-frac 0.3` overrides the cohort size to `ceil(0.3 · parties)`.
//! `--sweep-attacks` reruns it under {none, 20 % sign-flip, 20 %
//! scaled-noise} × {mean, trimmed, median, krum} and prints the
//! attack-vs-fold recovery table (plus `robust_sweep.csv` with `--csv`).
//! `--population` picks how the parties are held, never what data they
//! see — both modes read the same per-party seeded streams and print the
//! same tables: `resident` (every party built up front; the default below
//! 1024 parties) or `lazy` (parties rebuilt per cohort, O(cohort)
//! residency; the default from 1024 parties up, e.g. `--parties 10000`).

use shiftex_core::ShiftExConfig;
use shiftex_data::{DatasetKind, SimScale};
use shiftex_experiments::cli::Args;
use shiftex_experiments::{
    budget_spec_from_args, build_algorithm, codec_spec_from_args, federation_spec_from_args,
    fold_policy_from_args, report, run_federation_scenario, FedRunOptions, FedSelector,
    PopulationMode, Scenario, ALGORITHM_NAMES,
};
use shiftex_fl::{AttackKind, AttackSpec, BudgetSpec, CodecSpec, FoldPolicy, JoinConfig};

fn main() {
    let args = Args::from_env();
    let kind = DatasetKind::parse(args.value("dataset").unwrap_or("fashionmnist"))
        .expect("unknown dataset");
    let scale = SimScale::parse(args.value("scale").unwrap_or("smoke")).expect("unknown scale");
    let seed: u64 = args.value_or("seed", 42);
    let strategy = args.value("strategy").unwrap_or("shiftex").to_string();
    let selector =
        FedSelector::parse(args.value("selector").unwrap_or("uniform")).expect("unknown selector");

    let parties: Option<usize> = args.value("parties").map(|v| v.parse().expect("--parties"));
    let samples: Option<usize> = args.value("samples").map(|v| v.parse().expect("--samples"));
    let scenario = Scenario::build_with_population(kind, scale, seed, parties, samples);
    let scenario = match args.value("cohort-frac") {
        Some(_) => scenario.with_cohort_frac(args.value_or("cohort-frac", 0.0f32)),
        None => scenario,
    };
    let shiftex_cfg = ShiftExConfig::default();
    assert!(
        ALGORITHM_NAMES.contains(&strategy.to_ascii_lowercase().as_str()),
        "unknown --strategy {strategy:?} (one of {ALGORITHM_NAMES:?})"
    );

    let windows: usize = args.value_or("windows", scenario.eval_windows().min(2));
    let rounds: usize = args.value_or("rounds", scenario.rounds_per_window);
    let bootstrap: usize = args.value_or("bootstrap", rounds);
    let horizon = bootstrap + windows * rounds;
    let fed = federation_spec_from_args(&args, seed ^ 0x5ce7a510, horizon);
    let sweeping_codecs = args.switch("sweep-codecs");
    // `--codec adaptive` swaps the static spec for the byte-budget
    // controller; the sweep supplies per-arm codecs (including an adaptive
    // arm) and reads the budget flags itself, so it skips both parsers.
    let budget = if sweeping_codecs {
        None
    } else {
        budget_spec_from_args(&args)
    };
    let codec = if budget.is_some() || sweeping_codecs {
        CodecSpec::dense()
    } else {
        codec_spec_from_args(&args)
    };
    // Chunked, resumable first-contact sync: implied by adaptive mode,
    // or opted into for static codecs via an explicit chunk size.
    let join = match (budget.is_some(), args.value("join-chunk-bytes")) {
        (_, Some(_)) => Some(JoinConfig::quantized(
            args.value_or("join-chunk-bytes", 1024),
        )),
        (true, None) => Some(JoinConfig::quantized(1024)),
        (false, None) => None,
    };
    let fold = fold_policy_from_args(&args);
    // Same data either way: large federations default to O(cohort)
    // residency, small ones to paying the build once.
    let population = match args.value("population") {
        Some(name) => PopulationMode::parse(name)
            .unwrap_or_else(|| panic!("unknown --population {name:?} (lazy|resident)")),
        None if scenario.profile.num_parties >= 1024 => PopulationMode::Lazy,
        None => PopulationMode::Resident,
    };
    let mut opts = FedRunOptions::new(windows, bootstrap, rounds)
        .with_codec(codec)
        .with_selector(selector)
        .with_fold(fold)
        .with_population(population);
    if let Some(budget) = budget {
        opts = opts.with_budget(budget);
    }
    if let Some(join) = join {
        opts = opts.with_join_chunking(join);
    }

    let codec_label = match budget {
        Some(_) => "adaptive".to_string(),
        None => codec.to_string(),
    };
    eprintln!(
        "# {kind} @ {scale:?}: {} parties ({population:?} store), {windows} window(s) × {rounds} \
         rounds (+{bootstrap} bootstrap), strategy {strategy}, selector {selector:?}, \
         codec {codec_label}, fold {fold}",
        scenario.profile.num_parties
    );
    eprintln!("# federation axes: {fed:?}");

    let csv_dir = args.value("csv").map(|d| {
        let dir = std::path::PathBuf::from(d);
        std::fs::create_dir_all(&dir).expect("create csv dir");
        dir
    });

    if sweeping_codecs {
        // The sweep reruns the same scenario + axes under every static codec
        // plus one adaptive arm; the quantised/sparse knobs come from the
        // same flags as a single run, and the adaptive arm steers against
        // `--budget-bytes` (default 98304 B/round) with chunked joins.
        let block: usize = args.value_or("quant-block", 256);
        let density: f32 = args.value_or("topk-density", 0.05);
        let sweep = [
            CodecSpec::dense(),
            CodecSpec::dense().with_delta(),
            CodecSpec::quant8(block),
            CodecSpec::quant8(block).with_delta(),
            CodecSpec::topk(density).with_delta(),
            CodecSpec::topk(density).with_delta().with_error_feedback(),
        ];
        let mut results: Vec<_> = sweep
            .iter()
            .map(|&codec| {
                eprintln!("# sweeping codec {codec}");
                let mut algorithm =
                    build_algorithm(&strategy, &scenario, &shiftex_cfg).expect("validated above");
                run_federation_scenario(
                    algorithm.as_mut(),
                    &scenario,
                    &fed,
                    &FedRunOptions::new(windows, bootstrap, rounds)
                        .with_codec(codec)
                        .with_selector(selector)
                        .with_population(population),
                )
            })
            .collect();
        let adaptive_budget = BudgetSpec::per_round(args.value_or("budget-bytes", 98_304));
        eprintln!(
            "# sweeping codec adaptive (budget {} B/round)",
            adaptive_budget.round_bytes.unwrap_or(0)
        );
        let mut algorithm =
            build_algorithm(&strategy, &scenario, &shiftex_cfg).expect("validated above");
        results.push(run_federation_scenario(
            algorithm.as_mut(),
            &scenario,
            &fed,
            &FedRunOptions::new(windows, bootstrap, rounds)
                .with_budget(adaptive_budget)
                .with_join_chunking(JoinConfig::quantized(
                    args.value_or("join-chunk-bytes", 1024),
                ))
                .with_selector(selector)
                .with_population(population),
        ));
        let title = format!("{kind} {scale:?}");
        println!("{}", report::render_codec_sweep(&title, &results));
        if let Some(dir) = &csv_dir {
            let path = dir.join("codec_sweep.csv");
            report::write_codec_sweep_csv(&path, &results).expect("write codec sweep csv");
            eprintln!("# CSV written to {}", path.display());
            let path = dir.join("codec_frontier.csv");
            report::write_codec_frontier_csv(&path, &results).expect("write codec frontier csv");
            eprintln!("# CSV written to {}", path.display());
        }
        return;
    }

    if args.switch("sweep-attacks") {
        // Identical scenario + axes, rerun under every attack × fold cell:
        // the honest baseline, then 20 % always-on sign-flip and scaled-noise
        // adversaries, each folded by all four aggregation rules.
        let attacks: [(&str, Option<AttackSpec>); 3] = [
            ("none", None),
            (
                "sign-flip(20%)",
                Some(AttackSpec::new(AttackKind::SignFlip, 0.2)),
            ),
            (
                "scaled-noise(20%)",
                Some(AttackSpec::new(
                    AttackKind::ScaledNoise { factor: 10.0 },
                    0.2,
                )),
            ),
        ];
        let folds = [
            FoldPolicy::Mean,
            FoldPolicy::TrimmedMean { beta: 0.2 },
            FoldPolicy::CoordinateMedian,
            FoldPolicy::Krum { f: 2 },
        ];
        let mut rows = Vec::new();
        for (label, attack) in &attacks {
            let fed = match attack {
                Some(a) => fed.clone().with_attack(*a),
                None => fed.clone(),
            };
            for &fold in &folds {
                eprintln!("# sweeping attack {label} under fold {fold}");
                let mut algorithm =
                    build_algorithm(&strategy, &scenario, &shiftex_cfg).expect("validated above");
                let result = run_federation_scenario(
                    algorithm.as_mut(),
                    &scenario,
                    &fed,
                    &FedRunOptions::new(windows, bootstrap, rounds)
                        .with_codec(codec)
                        .with_selector(selector)
                        .with_fold(fold)
                        .with_population(population),
                );
                rows.push((label.to_string(), result));
            }
        }
        let title = format!("{kind} {scale:?} × {strategy}");
        println!("{}", report::render_robust_sweep(&title, &rows));
        if let Some(dir) = &csv_dir {
            let path = dir.join("robust_sweep.csv");
            report::write_robust_sweep_csv(&path, &rows).expect("write robust sweep csv");
            eprintln!("# CSV written to {}", path.display());
        }
        return;
    }

    let mut algorithm =
        build_algorithm(&strategy, &scenario, &shiftex_cfg).expect("validated above");
    let result = run_federation_scenario(algorithm.as_mut(), &scenario, &fed, &opts);

    let title = format!("{kind} {:?}", scale);
    println!("{}", report::render_participation(&title, &result));
    println!(
        "final accuracy {:.2}% over {} live-round evaluations; {} model(s)",
        result.accuracy_series.last().copied().unwrap_or(0.0) * 100.0,
        result.accuracy_series.len(),
        result.final_models
    );
    let res = result.residency;
    println!(
        "population store: {} parties, peak cohort {}, {} materializations",
        res.population, res.peak_cohort, res.materializations
    );

    if let Some(dir) = &csv_dir {
        let path = dir.join("participation.csv");
        report::write_participation_csv(&path, &result).expect("write participation csv");
        eprintln!("# CSV written to {}", path.display());
    }
}
