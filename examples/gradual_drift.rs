//! Gradual drift (§2.1 of the paper): "a sequence of small shifts that
//! accumulate and degrade model performance over time … requiring sustained
//! monitoring". Per-window thresholding misses each small step; the CUSUM
//! [`DriftMonitor`](shiftex::detect::DriftMonitor) accumulates the
//! sub-threshold MMD scores and raises the alarm.
//!
//! The alarm is only printed: nothing in the federation reads it, so no
//! party is re-routed when it fires, and ShiftEx's own per-window detection
//! is unchanged. The monitored score is also the mean MMD over the parties
//! this example *knows* are drifting, which a real server cannot know.
//!
//! ```text
//! cargo run --release --example gradual_drift
//! ```

use rand::{rngs::StdRng, SeedableRng};
use shiftex::core::{ShiftEx, ShiftExConfig};
use shiftex::data::{Corruption, ImageShape, PrototypeGenerator, Regime, RegimeId};
use shiftex::detect::DriftMonitor;
use shiftex::fl::{
    run_algorithm_round, FederatedAlgorithm, Party, PartyId, PopulationStore, RoundCtx,
    ScenarioEngine, ScenarioSpec,
};
use shiftex::nn::ArchSpec;

fn main() {
    let mut rng = StdRng::seed_from_u64(31);
    let gen = PrototypeGenerator::new(ImageShape::new(3, 8, 8), 8, &mut rng);
    let spec = ArchSpec::resnet18_lite(shiftex::nn::InputShape { c: 3, h: 8, w: 8 }, 8, 24);

    let n = 10;
    let drifting: Vec<usize> = (0..n / 2).collect(); // first half drifts
    let parties: Vec<Party> = (0..n)
        .map(|i| {
            Party::new(
                PartyId(i),
                gen.generate_uniform(40, &mut rng),
                gen.generate_uniform(20, &mut rng),
            )
        })
        .collect();

    let cfg = ShiftExConfig {
        participants_per_round: 6,
        ..ShiftExConfig::default()
    };
    let mut store = PopulationStore::from_parties(parties);
    let ids = store.party_ids();
    let mut engine = ScenarioEngine::new(ScenarioSpec::sync(31), &ids);
    let mut shiftex = ShiftEx::new(cfg, spec, &mut rng);
    shiftex.init(&store.view(ids.clone()), &mut rng);
    let mut rounds = |shiftex: &mut ShiftEx, store: &PopulationStore, n, rng: &mut StdRng| {
        for _ in 0..n {
            run_algorithm_round(shiftex, &mut RoundCtx::new(store, &mut engine), rng);
        }
    };
    rounds(&mut shiftex, &store, 12, &mut rng);
    println!(
        "W0 clear: accuracy {:.1}%\n",
        shiftex.eval(&store.view(ids.clone())) * 100.0
    );

    // Fog rolls in *gradually*: severity ramps 1 → 5 over five windows.
    // The drift monitor watches the drifting parties' mean MMD per window.
    let mut monitor: Option<DriftMonitor> = None;
    for (window, severity) in (1u8..=5).enumerate() {
        let regime =
            Regime::corrupted(Corruption::Fog, severity).with_id(RegimeId(severity as u32));
        for &id in &ids {
            let r = if drifting.contains(&id.0) {
                regime.clone()
            } else {
                Regime::clear()
            };
            let train = gen.generate_with_regime(40, &r, &mut rng);
            let test = gen.generate_with_regime(20, &r, &mut rng);
            store.with_party_mut(id, |p| p.advance_window(train, test));
        }
        shiftex.begin_window(window + 1, &store.view(ids.clone()), &mut rng);
        let report = shiftex.last_report().expect("window ran").clone();
        // Initialise the CUSUM reference at the calibrated noise level.
        let mon = monitor.get_or_insert_with(|| {
            DriftMonitor::new(report.delta_cov * 0.3, report.delta_cov * 2.0)
        });
        let mean_mmd: f32 = {
            let scores: Vec<f32> = report
                .scores
                .iter()
                .filter(|(id, _, _)| drifting.contains(&id.0))
                .map(|&(_, mmd, _)| mmd)
                .collect();
            scores.iter().sum::<f32>() / scores.len().max(1) as f32
        };
        let alarm = mon.observe(mean_mmd.max(0.0));
        rounds(&mut shiftex, &store, 6, &mut rng);
        println!(
            "W{} fog severity {severity}: mean MMD {:.4} (δ_cov {:.4}) | window detector: {:>2} \
             parties | CUSUM pressure {:.3}{} | acc {:.1}% | {} experts",
            window + 1,
            mean_mmd,
            report.delta_cov,
            report.cov_shifted.len(),
            mon.pressure(),
            if alarm { "  << DRIFT ALARM" } else { "" },
            shiftex.eval(&store.view(ids.clone())) * 100.0,
            shiftex.num_experts()
        );
    }

    println!(
        "\nEarly windows sit below the per-window threshold — only the CUSUM\n\
         accumulator sees the slow build-up; once severity grows, the window\n\
         detector fires too and the drifting cohort gets its own expert."
    );
}
