//! Ablation benches for the design choices DESIGN.md §5 calls out:
//! latent memory, consolidation, FLIPS selection and threshold calibration,
//! plus exact-vs-greedy facility location.
//!
//! ```text
//! cargo run --release -p shiftex-experiments --bin ablations -- \
//!     [--dataset cifar10c] [--scale smoke|small] [--seed N]
//! ```

use shiftex_core::ShiftExConfig;
use shiftex_data::{DatasetKind, SimScale};
use shiftex_experiments::cli::Args;
use shiftex_experiments::{build_algorithm, run_federation_scenario, FedRunOptions, Scenario};
use shiftex_fl::ScenarioSpec;

fn main() {
    let args = Args::from_env();
    let kind = DatasetKind::parse(args.value("dataset").unwrap_or("cifar10c")).expect("dataset");
    let scale = SimScale::parse(args.value("scale").unwrap_or("small")).expect("scale");
    let seed: u64 = args.value_or("seed", 42);
    let scenario = Scenario::build(kind, scale, seed);
    eprintln!(
        "# ablations on {kind} ({} parties, {} windows x {} rounds)",
        scenario.profile.num_parties,
        scenario.eval_windows(),
        scenario.rounds_per_window
    );

    let variants: Vec<(&str, ShiftExConfig)> = vec![
        ("full ShiftEx", ShiftExConfig::default()),
        (
            "no latent memory",
            ShiftExConfig {
                disable_memory: true,
                ..ShiftExConfig::default()
            },
        ),
        (
            "no consolidation",
            ShiftExConfig {
                disable_consolidation: true,
                ..ShiftExConfig::default()
            },
        ),
        (
            "uniform selection (no FLIPS)",
            ShiftExConfig {
                uniform_selection: true,
                ..ShiftExConfig::default()
            },
        ),
        (
            "fixed loose thresholds",
            ShiftExConfig {
                delta_cov: Some(0.5),
                delta_label: Some(0.5),
                ..ShiftExConfig::default()
            },
        ),
        (
            "fixed tight thresholds",
            ShiftExConfig {
                delta_cov: Some(0.005),
                delta_label: Some(0.01),
                ..ShiftExConfig::default()
            },
        ),
    ];

    println!(
        "{:<30} {:>9} {:>9} {:>9} {:>8}",
        "variant", "mean-max%", "mean-drop", "recovered", "experts"
    );
    for (name, cfg) in variants {
        let mut algorithm = build_algorithm("shiftex", &scenario, &cfg).expect("shiftex builds");
        let result = run_federation_scenario(
            algorithm.as_mut(),
            &scenario,
            &ScenarioSpec::sync(scenario.seed ^ 0x9e37),
            &FedRunOptions::new(
                scenario.eval_windows(),
                scenario.bootstrap_rounds(),
                scenario.rounds_per_window,
            ),
        );
        let mean_max: f32 =
            result.windows.iter().map(|w| w.max_acc_pct).sum::<f32>() / result.windows.len() as f32;
        let mean_drop: f32 =
            result.windows.iter().map(|w| w.drop_pct).sum::<f32>() / result.windows.len() as f32;
        let recovered = result
            .windows
            .iter()
            .filter(|w| w.recovery_rounds.is_some())
            .count();
        println!(
            "{name:<30} {mean_max:>9.2} {mean_drop:>9.2} {:>6}/{:<2} {:>8}",
            recovered,
            result.windows.len(),
            result.final_models
        );
    }

    // Expert compression via distillation (§9 future work): squash the
    // final expert pool into one student on an unlabeled reference set.
    {
        use rand::{rngs::StdRng, SeedableRng};
        use shiftex_core::{distill_experts, DistillConfig, ShiftEx};
        use shiftex_experiments::ResidentPopulation;
        use shiftex_fl::{evaluate_on_view, FederatedAlgorithm};
        let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x9e37);
        let sx_cfg = shiftex_core::ShiftExConfig {
            participants_per_round: scenario.participants_per_round(),
            ..Default::default()
        };
        let mut sx = ShiftEx::new(sx_cfg, scenario.spec.clone(), &mut rng);
        run_federation_scenario(
            &mut sx,
            &scenario,
            &ScenarioSpec::sync(scenario.seed ^ 0x9e37),
            &FedRunOptions::new(
                scenario.eval_windows(),
                scenario.bootstrap_rounds(),
                scenario.rounds_per_window,
            ),
        );
        // Mixture and student are scored on one held-out draw of the
        // final window's population.
        let mut store =
            ResidentPopulation::new(scenario.clone(), scenario.seed ^ 0x5c0e).into_store();
        store.set_window(scenario.eval_windows());
        let view = store.view(store.party_ids());
        let before = sx.eval(&view);
        let experts: Vec<_> = sx.registry().iter().collect();

        // The reference set must *cover the regimes* the experts serve: a
        // clear-only reference cannot transfer fog expertise (that failure
        // mode is exactly why ShiftEx keeps experts separate). Draw it from
        // the scenario's full regime pool.
        let mut pool_rng = StdRng::seed_from_u64(scenario.seed ^ 0x5eed);
        let pool = scenario.profile.regime_pool(&mut pool_rng);
        let per_regime = 400 / pool.len().max(1);
        let parts: Vec<_> = pool
            .iter()
            .map(|r| {
                scenario
                    .generator
                    .generate_with_regime(per_regime, r, &mut rng)
            })
            .collect();
        let part_refs: Vec<_> = parts.iter().collect();
        let reference = shiftex_data::Dataset::concat(&part_refs);

        let report = distill_experts(
            &scenario.spec,
            &experts,
            reference.features(),
            &DistillConfig::default(),
            &mut rng,
        );
        let student_acc = evaluate_on_view(&scenario.spec, &report.student_params, &view);
        println!(
            "\nExpert distillation ({} experts -> 1 student, {} regime-covering reference inputs):",
            experts.len(),
            reference.len()
        );
        println!(
            "  mixture-of-experts accuracy {:.2}% | student accuracy {:.2}% | \
             teacher agreement {:.1}%",
            before * 100.0,
            student_acc * 100.0,
            report.teacher_agreement * 100.0
        );
        println!(
            "  (a clear-only reference yields a ~58% student — regime coverage\n   \
             of the distillation set is the binding constraint)"
        );
    }

    // Exact vs greedy facility location on a small instance.
    println!("\nFacility-location solver comparison (6 parties, 3 facilities):");
    let problem = shiftex_core::assignment::AssignmentProblem {
        cost: vec![
            vec![0.1, 1.0, 0.5],
            vec![0.2, 0.9, 0.5],
            vec![1.1, 0.1, 0.5],
            vec![0.9, 0.2, 0.5],
            vec![0.6, 0.6, 0.2],
            vec![0.7, 0.5, 0.1],
        ],
        is_new: vec![false, false, true],
        party_hists: vec![vec![0.5, 0.5]; 6],
        lambda: 0.4,
        mu: 0.5,
        u_max: 6,
    };
    let exact = problem.solve_exact();
    let greedy = problem.solve_greedy();
    println!(
        "  exact : objective {:.4}, assignment {:?}",
        exact.objective, exact.party_to_facility
    );
    println!(
        "  greedy: objective {:.4}, assignment {:?} ({:.1}% of optimum)",
        greedy.objective,
        greedy.party_to_facility,
        100.0 * exact.objective / greedy.objective.max(1e-9)
    );
}
