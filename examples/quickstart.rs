//! Quickstart: bootstrap a federation, inject a covariate shift, watch
//! ShiftEx detect it, spawn an expert and recover.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::{rngs::StdRng, SeedableRng};
use shiftex::core::{ShiftEx, ShiftExConfig};
use shiftex::data::{Corruption, ImageShape, PrototypeGenerator, Regime};
use shiftex::fl::{
    run_algorithm_round, FederatedAlgorithm, Party, PartyId, PopulationStore, RoundCtx,
    ScenarioEngine, ScenarioSpec,
};
use shiftex::nn::ArchSpec;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let gen = PrototypeGenerator::new(ImageShape::new(3, 8, 8), 10, &mut rng);

    // 1. A 12-party federation on the clean distribution, held in a
    //    population store and driven under the clean synchronous protocol.
    let parties: Vec<Party> = (0..12)
        .map(|i| {
            Party::new(
                PartyId(i),
                gen.generate_uniform(40, &mut rng),
                gen.generate_uniform(20, &mut rng),
            )
        })
        .collect();
    let mut store = PopulationStore::from_parties(parties);
    let ids = store.party_ids();
    let mut engine = ScenarioEngine::new(ScenarioSpec::sync(7), &ids);

    // 2. Bootstrap: FLIPS-balanced federated training of the first expert.
    let spec = ArchSpec::resnet18_lite(shiftex::nn::InputShape { c: 3, h: 8, w: 8 }, 10, 24);
    let cfg = ShiftExConfig {
        participants_per_round: 8,
        ..ShiftExConfig::default()
    };
    let mut shiftex = ShiftEx::new(cfg, spec, &mut rng);
    shiftex.init(&store.view(ids.clone()), &mut rng);
    for _ in 0..12 {
        run_algorithm_round(
            &mut shiftex,
            &mut RoundCtx::new(&store, &mut engine),
            &mut rng,
        );
    }
    println!(
        "after bootstrap: accuracy {:.1}%",
        shiftex.eval(&store.view(ids.clone())) * 100.0
    );

    // 3. A new stream window arrives: fog rolls in for half the federation.
    let fog = Regime::corrupted(Corruption::Fog, 5);
    for &id in &ids {
        let (train, test) = if id.0 < 6 {
            (
                gen.generate_with_regime(40, &fog, &mut rng),
                gen.generate_with_regime(20, &fog, &mut rng),
            )
        } else {
            (
                gen.generate_uniform(40, &mut rng),
                gen.generate_uniform(20, &mut rng),
            )
        };
        store.with_party_mut(id, |p| p.advance_window(train, test));
    }

    // 4. ShiftEx detects the shift and reorganises the expert pool.
    shiftex.begin_window(1, &store.view(ids.clone()), &mut rng);
    let report = shiftex.last_report().expect("window ran");
    println!(
        "window 1: {} covariate-shifted parties detected (δ_cov = {:.4}), \
         {} expert(s) created, {} reused",
        report.cov_shifted.len(),
        report.delta_cov,
        report.created.len(),
        report.reused.len()
    );
    println!(
        "post-shift accuracy: {:.1}%",
        shiftex.eval(&store.view(ids.clone())) * 100.0
    );

    // 5. A few federated rounds recover the federation.
    for round in 1..=6 {
        run_algorithm_round(
            &mut shiftex,
            &mut RoundCtx::new(&store, &mut engine),
            &mut rng,
        );
        println!(
            "round {round}: accuracy {:.1}% ({} experts)",
            shiftex.eval(&store.view(ids.clone())) * 100.0,
            shiftex.num_experts()
        );
    }
    for expert in shiftex.registry().iter() {
        println!("  {} serves {} parties", expert.id, expert.cohort_size);
    }
}
