//! Privacy-boundary integration tests: what crosses the party → aggregator
//! boundary is bounded aggregate statistics, and communication is metered.

use rand::{rngs::StdRng, SeedableRng};
use shiftex::baselines::FedAvg;
use shiftex::core::{compute_shift_stats, ShiftEx, ShiftExConfig};
use shiftex::data::{ImageShape, PrototypeGenerator};
use shiftex::fl::{
    run_algorithm_round, CodecSpec, CommTotals, FederatedAlgorithm, Party, PartyId,
    PopulationStore, RoundCtx, ScenarioEngine, ScenarioSpec,
};
use shiftex::nn::{ArchSpec, InferScratch, Sequential, TrainConfig};

fn party(samples: usize, rng: &mut StdRng) -> (Party, PrototypeGenerator) {
    let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 4, rng);
    let p = Party::new(
        PartyId(0),
        gen.generate_uniform(samples, rng),
        gen.generate_uniform(samples / 2, rng),
    );
    (p, gen)
}

#[test]
fn shift_stats_are_bounded_aggregates_not_raw_data() {
    let mut rng = StdRng::seed_from_u64(0);
    let (party, _gen) = party(500, &mut rng);
    let spec = ArchSpec::mlp("t", 64, &[16], 4);
    let model = Sequential::build(&spec, &mut rng);

    let profile_rows = 32;
    let stats = compute_shift_stats(
        &party,
        &model,
        &mut InferScratch::default(),
        profile_rows,
        None,
        &mut rng,
    )
    .expect("party has data");

    // The profile is capped regardless of how much raw data the party holds…
    assert_eq!(stats.profile.len(), profile_rows);
    // …lives in embedding space, not input space…
    assert_eq!(stats.profile.dim(), model.embed_dim());
    assert_ne!(stats.profile.dim(), party.train().shape().dim());
    // …and the histogram is normalised (no raw counts leak).
    assert!((stats.label_hist.iter().sum::<f32>() - 1.0).abs() < 1e-4);
}

/// One clean FedAvg round of 4 parties on `input`×`input` images under
/// `codec`; returns the metered totals and the model's parameter count.
fn metered_round(input: usize, hidden: usize, codec: &CodecSpec) -> (CommTotals, usize) {
    let mut rng = StdRng::seed_from_u64(1);
    let gen = PrototypeGenerator::new(ImageShape::new(1, input, input), 3, &mut rng);
    let parties: Vec<Party> = (0..4)
        .map(|i| {
            Party::new(
                PartyId(i),
                gen.generate_uniform(24, &mut rng),
                gen.generate_uniform(12, &mut rng),
            )
        })
        .collect();
    let store = PopulationStore::from_parties(parties);
    let ids = store.party_ids();
    let spec = ArchSpec::mlp("t", input * input, &[hidden], 3);
    let mut fedavg = FedAvg::new(spec, TrainConfig::default(), 4);
    fedavg.init(&store.view(ids.clone()), &mut rng);
    let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids);
    let mut ctx = RoundCtx::new(&store, &mut engine).with_codec(codec);
    run_algorithm_round(&mut fedavg, &mut ctx, &mut rng);
    (engine.comm(), fedavg.params().len())
}

#[test]
fn communication_is_metered_per_exchange() {
    let codec = CodecSpec::dense();
    let (totals, n) = metered_round(4, 8, &codec);
    // One download + one upload per participant, at the codec's exact frame
    // sizes (dense: 6-byte header broadcasts, 22-byte-header updates, 4
    // bytes per parameter — not a nominal guess). A first round's
    // downloads are all first-contact full-state frames.
    assert_eq!(totals.messages, 8);
    assert_eq!(totals.up_bytes, codec.update_len(n) as u64 * 4);
    assert_eq!(totals.down_bytes, 0);
    assert_eq!(
        totals.first_contact_down_bytes,
        codec.first_contact_spec().broadcast_len(n) as u64 * 4
    );
}

#[test]
fn quantized_uploads_shrink_the_metered_bill() {
    // Realistic enough that per-update frame overhead stops dominating:
    // ~2.2k parameters already sits at the asymptotic ~3.9x int8 ratio.
    let up = [CodecSpec::dense(), CodecSpec::quant8(256).with_delta()]
        .map(|codec| metered_round(8, 32, &codec).0.up_bytes);
    let ratio = up[0] as f64 / up[1] as f64;
    assert!(
        ratio >= 3.5,
        "quant8 must cut metered upload bytes >= 3.5x, got {ratio:.2}x ({} -> {})",
        up[0],
        up[1]
    );
}

#[test]
fn aggregator_state_contains_no_raw_samples() {
    let mut rng = StdRng::seed_from_u64(2);
    let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 4, &mut rng);
    let parties: Vec<Party> = (0..6)
        .map(|i| {
            Party::new(
                PartyId(i),
                gen.generate_uniform(30, &mut rng),
                gen.generate_uniform(15, &mut rng),
            )
        })
        .collect();
    let spec = ArchSpec::mlp("t", 64, &[16], 4);
    let mut store = PopulationStore::from_parties(parties);
    let ids = store.party_ids();
    let mut engine = ScenarioEngine::new(ScenarioSpec::sync(2), &ids);
    let mut shiftex = ShiftEx::new(ShiftExConfig::default(), spec, &mut rng);
    shiftex.init(&store.view(ids.clone()), &mut rng);
    for _ in 0..2 {
        run_algorithm_round(
            &mut shiftex,
            &mut RoundCtx::new(&store, &mut engine),
            &mut rng,
        );
    }
    for &id in &ids {
        let (train, test) = (
            gen.generate_uniform(30, &mut rng),
            gen.generate_uniform(15, &mut rng),
        );
        store.with_party_mut(id, |p| p.advance_window(train, test));
    }
    shiftex.begin_window(1, &store.view(ids.clone()), &mut rng);

    // Past the boundary the aggregator holds no per-party profile: its
    // embedding samples are the experts' latent memories, bounded and in
    // embedding space…
    let max_rows = 2 * shiftex.config().profile_rows;
    for expert in shiftex.registry().iter() {
        let sample = expert.memory.sample();
        assert_eq!(sample.cols(), 16, "memories must be embeddings, not inputs");
        assert!(sample.rows() <= max_rows);
    }
    // …and the window report carries one pair of scalar scores per party.
    let report = shiftex.last_report().expect("window ran");
    let reported: Vec<PartyId> = report.scores.iter().map(|&(id, _, _)| id).collect();
    assert_eq!(reported, ids);
}
