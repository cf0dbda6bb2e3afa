//! Churny federation: the same FedAvg federation run under the paper's clean
//! synchronous protocol and under a deployment-grade scenario — parties
//! joining late, leaving for good, dropping out mid-round, straggling past
//! the deadline — with staleness-aware buffered aggregation absorbing the
//! chaos. Both runs go through the one round driver; only the
//! [`ScenarioSpec`] differs.
//!
//! ```text
//! cargo run --release --example churny_federation
//! ```

use rand::{rngs::StdRng, SeedableRng};
use shiftex::baselines::FedAvg;
use shiftex::data::{ImageShape, PrototypeGenerator};
use shiftex::fl::{
    run_algorithm_round, AsyncSpec, ChurnSpec, CommTotals, FederatedAlgorithm, LatePolicy,
    ParticipationStats, Party, PartyId, PopulationStore, RoundCtx, ScenarioEngine, ScenarioSpec,
    StragglerSpec,
};
use shiftex::nn::{ArchSpec, TrainConfig};

const ROUNDS: usize = 12;

/// What one federation run reports.
struct Run {
    /// Accuracy on the members still enrolled after the last round.
    accuracy: f32,
    /// Per round: live members and that round's participation deltas.
    rounds: Vec<(usize, ParticipationStats)>,
    totals: ParticipationStats,
    comm: CommTotals,
}

/// Trains FedAvg (cohorts of 10 out of 20 parties) for [`ROUNDS`] rounds
/// under `scenario`. Population, initial model and training seeds are the
/// same for every scenario.
fn federate(scenario: ScenarioSpec) -> Run {
    let mut rng = StdRng::seed_from_u64(11);
    let gen = PrototypeGenerator::new(ImageShape::new(1, 6, 6), 4, &mut rng);
    let parties: Vec<Party> = (0..20)
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
    let spec = ArchSpec::mlp("churny", 36, &[16], 4);
    let mut fedavg = FedAvg::new(spec, TrainConfig::default(), 10);
    fedavg.init(&store.view(ids.clone()), &mut rng);

    let mut engine = ScenarioEngine::new(scenario, &ids);
    let mut ctx = RoundCtx::new(&store, &mut engine);
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut live = ids;
    for _ in 0..ROUNDS {
        let before = ctx.engine.stats();
        live = run_algorithm_round(&mut fedavg, &mut ctx, &mut rng).live;
        rounds.push((live.len(), ctx.engine.stats().minus(&before)));
    }
    Run {
        accuracy: fedavg.eval(&store.view(live)),
        rounds,
        totals: engine.stats(),
        comm: engine.comm(),
    }
}

fn main() {
    // 1. The paper's protocol: synchronous, everyone always available.
    let clean = federate(ScenarioSpec::sync(1));
    println!(
        "clean sync     : accuracy {:.1}%, {} updates delivered, {} lost",
        clean.accuracy * 100.0,
        clean.totals.delivered,
        clean.comm.aborted_messages
    );

    // 2. Same federation under churn + stragglers + async buffered
    //    aggregation.
    let churny = federate(
        ScenarioSpec::sync(1)
            .with_churn(ChurnSpec {
                join_fraction: 0.25,  // a quarter of the fleet arrives late…
                join_ramp_rounds: 4,  // …during the first four rounds
                leave_fraction: 0.15, // some leave for good
                leave_after: 6,
                horizon: ROUNDS,
                dropout: 0.15, // and anyone can crash mid-round
            })
            .with_stragglers(StragglerSpec::uniform(0.8, 1.0, LatePolicy::Defer))
            .with_async(AsyncSpec {
                min_buffer: 4,
                staleness_alpha: 0.5,
                max_staleness: 3,
                server_lr: 1.0,
            }),
    );
    let t = churny.totals;
    println!(
        "churny async   : accuracy {:.1}%, {} delivered / {} dropped mid-round / {} deferred / {} stale",
        churny.accuracy * 100.0,
        t.delivered,
        t.dropped_churn,
        t.deferred,
        t.stale_dropped
    );
    println!(
        "comm ledger    : {} ok messages, {} aborted uploads ({} B wasted)",
        churny.comm.messages, churny.comm.aborted_messages, churny.comm.aborted_up_bytes
    );
    for (round, (live, delta)) in churny.rounds.iter().enumerate().take(4) {
        println!(
            "  round {:>2}: live {:>2}, selected {}, delivered {}, lost {}",
            round + 1,
            live,
            delta.selected,
            delta.delivered,
            delta.dropped_churn + delta.dropped_late
        );
    }
    println!("  …");
}
