//! Label shift in a healthcare federation (the paper's §2.2 example):
//! disease prevalence varies by season, changing each clinic's label
//! distribution while the imaging itself stays stable. ShiftEx detects the
//! change via JSD on label histograms and rebalances training with FLIPS.
//!
//! ```text
//! cargo run --release --example label_shift_hospitals
//! ```

use rand::{rngs::StdRng, SeedableRng};
use shiftex::core::{ShiftEx, ShiftExConfig};
use shiftex::data::{ImageShape, PrototypeGenerator, Regime};
use shiftex::fl::{
    run_algorithm_round, FederatedAlgorithm, Party, PartyId, PopulationStore, RoundCtx,
    ScenarioEngine, ScenarioSpec,
};
use shiftex::nn::ArchSpec;
use shiftex::tensor::rngx;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let classes = 6; // six condition categories
    let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), classes, &mut rng);
    let spec = ArchSpec::lenet5_lite(shiftex::nn::InputShape { c: 1, h: 8, w: 8 }, classes, 24);

    let n = 10;
    let parties: Vec<Party> = (0..n)
        .map(|i| {
            Party::new(
                PartyId(i),
                gen.generate_uniform(48, &mut rng),
                gen.generate_uniform(24, &mut rng),
            )
        })
        .collect();

    let cfg = ShiftExConfig {
        participants_per_round: 6,
        ..ShiftExConfig::default()
    };
    let mut store = PopulationStore::from_parties(parties);
    let ids = store.party_ids();
    let mut engine = ScenarioEngine::new(ScenarioSpec::sync(99), &ids);
    let mut shiftex = ShiftEx::new(cfg, spec, &mut rng);
    shiftex.init(&store.view(ids.clone()), &mut rng);
    let mut rounds = |shiftex: &mut ShiftEx, store: &PopulationStore, n, rng: &mut StdRng| {
        for _ in 0..n {
            run_algorithm_round(shiftex, &mut RoundCtx::new(store, &mut engine), rng);
        }
    };
    rounds(&mut shiftex, &store, 12, &mut rng);
    println!(
        "W0 (balanced case mix): accuracy {:.1}%",
        shiftex.eval(&store.view(ids.clone())) * 100.0
    );

    // Flu season: half the clinics see a heavy skew towards classes 0–1,
    // with covariates (the imaging) unchanged.
    for season in 1..=3 {
        for &id in &ids {
            let regime = if id.0 < n / 2 {
                let skew = rngx::dirichlet(&mut rng, 0.25, classes);
                Regime::clear().with_label_dist(skew)
            } else {
                Regime::clear()
            };
            let train = gen.generate_with_regime(48, &regime, &mut rng);
            let test = gen.generate_with_regime(24, &regime, &mut rng);
            store.with_party_mut(id, |p| p.advance_window(train, test));
        }
        shiftex.begin_window(season, &store.view(ids.clone()), &mut rng);
        let report = shiftex.last_report().expect("window ran").clone();
        rounds(&mut shiftex, &store, 6, &mut rng);
        println!(
            "season {season}: {} label-shifted clinics (δ_label = {:.3}), \
             {} covariate-shifted, accuracy {:.1}%",
            report.label_shifted.len(),
            report.delta_label,
            report.cov_shifted.len(),
            shiftex.eval(&store.view(ids.clone())) * 100.0
        );
    }

    println!(
        "\nLabel shift is detected from histograms alone — no expert split is\n\
         needed (the input distribution is unchanged), but FLIPS keeps each\n\
         training cohort class-balanced so minority conditions stay covered."
    );
}
