//! Satellite land-use monitoring (the paper's FMoW motivation): a federation
//! of ground stations classifies land use from satellite imagery while
//! seasonal weather regimes sweep across regions — and *recur*, letting
//! ShiftEx's latent memory reuse experts instead of retraining.
//!
//! ```text
//! cargo run --release --example satellite_monitoring
//! ```

use rand::{rngs::StdRng, SeedableRng};
use shiftex::core::{ShiftEx, ShiftExConfig};
use shiftex::data::{Corruption, ImageShape, PrototypeGenerator, Regime, RegimeId};
use shiftex::fl::{
    run_algorithm_round, FederatedAlgorithm, Party, PartyId, PopulationStore, RoundCtx,
    ScenarioEngine, ScenarioSpec,
};
use shiftex::nn::ArchSpec;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let gen = PrototypeGenerator::new(ImageShape::new(3, 8, 8), 10, &mut rng);
    let spec = ArchSpec::densenet121_lite(shiftex::nn::InputShape { c: 3, h: 8, w: 8 }, 10, 24);

    let n = 10;
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
    let mut engine = ScenarioEngine::new(ScenarioSpec::sync(2024), &ids);
    let mut shiftex = ShiftEx::new(cfg, spec, &mut rng);
    shiftex.init(&store.view(ids.clone()), &mut rng);
    let mut rounds = |shiftex: &mut ShiftEx, store: &PopulationStore, n, rng: &mut StdRng| {
        for _ in 0..n {
            run_algorithm_round(shiftex, &mut RoundCtx::new(store, &mut engine), rng);
        }
    };
    rounds(&mut shiftex, &store, 12, &mut rng);
    println!(
        "W0 (clear summer imagery): accuracy {:.1}%",
        shiftex.eval(&store.view(ids.clone())) * 100.0
    );

    // Seasons: winter frost arrives, clears, then *returns* next year.
    let frost = Regime::corrupted(Corruption::Frost, 5).with_id(RegimeId(1));
    let seasons: [(&str, Option<&Regime>, &[usize]); 4] = [
        (
            "W1 winter: frost over northern stations",
            Some(&frost),
            &[0, 1, 2, 3, 4],
        ),
        ("W2 spring: skies clear again", None, &[0, 1, 2, 3, 4]),
        (
            "W3 next winter: frost returns",
            Some(&frost),
            &[0, 1, 2, 3, 4],
        ),
        ("W4 stable winter", Some(&frost), &[0, 1, 2, 3, 4]),
    ];

    for (window, (label, regime, affected)) in seasons.into_iter().enumerate() {
        for &id in &ids {
            let r = if affected.contains(&id.0) {
                regime.cloned().unwrap_or_else(Regime::clear)
            } else {
                Regime::clear()
            };
            let train = gen.generate_with_regime(40, &r, &mut rng);
            let test = gen.generate_with_regime(20, &r, &mut rng);
            store.with_party_mut(id, |p| p.advance_window(train, test));
        }
        shiftex.begin_window(window + 1, &store.view(ids.clone()), &mut rng);
        let report = shiftex.last_report().expect("window ran").clone();
        rounds(&mut shiftex, &store, 6, &mut rng);
        println!(
            "{label}\n  detected {:>2} shifted | created {:?} | reused {:?} | accuracy {:.1}% | {} experts",
            report.cov_shifted.len(),
            report.created,
            report.reused,
            shiftex.eval(&store.view(ids.clone())) * 100.0,
            shiftex.num_experts()
        );
    }

    println!(
        "\nThe frost expert created in W1 is *reused* when frost recurs in W3 —\n\
         the latent-memory mechanism that gives ShiftEx its 22–95% faster\n\
         adaptation on recurring regimes."
    );
}
