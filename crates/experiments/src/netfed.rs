//! Shared plumbing for the networked-federation binaries and tests:
//! seed derivation, party partitioning, the coordinator-side round loop,
//! and the worker-side training session.
//!
//! The coordinator and every party-worker are separate processes that
//! never exchange configuration beyond the wire handshake, so everything
//! both sides must agree on — federation seed, per-party stream seeds,
//! which worker hosts which parties — is derived here from the CLI-shared
//! `(dataset, scale, seed, parties, samples)` tuple. The round loop is
//! generic over [`CohortTransport`], which is what the loopback parity
//! test exploits: the same loop, run once with the in-process
//! [`LocalTransport`](shiftex_fl::LocalTransport) and once with a networked
//! [`Coordinator`](shiftex_net::Coordinator), must produce bit-identical
//! parameters and [`CommTotals`].

use std::collections::BTreeMap;
use std::io::{Read, Write};

use rand::rngs::StdRng;
use rand::SeedableRng;
use shiftex_baselines::OortSelector;
use shiftex_core::ShiftExConfig;
use shiftex_fl::{
    run_algorithm_round, CodecSpec, CohortTransport, CommLedger, CommTotals, JoinConfig,
    ParticipantSelector, Party, PartyId, RoundCtx, ScenarioSpec, UniformSelector,
};
use shiftex_net::{serve, NetError, WorkerConfig, WorkerSummary};

use shiftex_data::{DatasetKind, SimScale};

use crate::algorithms::build_algorithm;
use crate::cli::Args;
use crate::population::LazyPopulation;
use crate::runner::FedSelector;
use crate::scenario::{codec_spec_from_args, Scenario};

/// Federation-spec seed of a netfed session, derived from the scenario
/// seed so both processes compute it from the shared `--seed`.
pub fn netfed_fed_seed(scenario_seed: u64) -> u64 {
    scenario_seed ^ 0x6e7f_ed05
}

/// Per-party stream seed of a netfed session — the same formula the
/// in-process runner uses, so worker-side party materialization is
/// bit-identical to the coordinator's reference run.
pub fn netfed_stream_seed(scenario_seed: u64) -> u64 {
    netfed_fed_seed(scenario_seed) ^ scenario_seed.rotate_left(17)
}

/// The contiguous party range worker `index` of `workers` hosts:
/// `[index·P/workers, (index+1)·P/workers)`. Every party is hosted by
/// exactly one worker.
///
/// # Panics
///
/// Panics when `index >= workers` or `workers` is zero.
pub fn worker_partition(num_parties: usize, workers: usize, index: usize) -> Vec<PartyId> {
    assert!(workers > 0, "need at least one worker");
    assert!(index < workers, "worker index {index} out of {workers}");
    let start = index * num_parties / workers;
    let end = (index + 1) * num_parties / workers;
    (start..end).map(PartyId).collect()
}

/// Configuration both netfed processes derive from their shared flags.
#[derive(Debug, Clone)]
pub struct NetFedConfig {
    /// Algorithm name (one of
    /// [`ALGORITHM_NAMES`](crate::algorithms::ALGORITHM_NAMES)).
    pub strategy: String,
    /// Session wire codec (static, non-delta — asserted by the
    /// coordinator transport).
    pub codec: CodecSpec,
    /// Cohort selection policy.
    pub selector: FedSelector,
    /// Federation rounds to run (all on window 0).
    pub rounds: usize,
    /// Chunk size for chunked, resumable first-contact sync; `None`
    /// keeps monolithic first-contact frames.
    pub join_chunk_bytes: Option<usize>,
}

/// What one netfed session produced, for reports and parity assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFedRun {
    /// Final broadcast state per stream key.
    pub params: BTreeMap<usize, Vec<f32>>,
    /// The session's communication ledger totals.
    pub comm: CommTotals,
    /// Parties whose uploads were lost, across all rounds in order.
    pub lost: Vec<PartyId>,
    /// Cooldown marks held by the OORT selector at session end
    /// (`None` under uniform selection).
    pub cooldown_marks: Option<usize>,
}

/// Parses the flags both netfed binaries share into the `(scenario,
/// session config)` pair. The coordinator and every worker MUST be
/// launched with the same values for these flags — everything derived
/// here (seeds, party streams, codec framing) has to agree across
/// processes.
///
/// Recognised flags: `--dataset`, `--scale`, `--seed`, `--parties`,
/// `--samples`, `--strategy`, `--codec` (+`--quant-block` /
/// `--topk-density`), `--selector`, `--rounds`, `--join-chunk-bytes`.
///
/// # Panics
///
/// Panics with a readable message on an unknown dataset, scale, strategy,
/// codec or selector, or a delta/error-feedback codec (unsupported on the
/// wire).
pub fn netfed_config_from_args(args: &Args) -> (Scenario, NetFedConfig) {
    let kind = DatasetKind::parse(args.value("dataset").unwrap_or("fashionmnist"))
        .expect("unknown dataset");
    let scale = SimScale::parse(args.value("scale").unwrap_or("smoke")).expect("unknown scale");
    let seed: u64 = args.value_or("seed", 42);
    let parties: Option<usize> = args.value("parties").map(|v| v.parse().expect("--parties"));
    let samples: Option<usize> = args.value("samples").map(|v| v.parse().expect("--samples"));
    let scenario = Scenario::build_with_population(kind, scale, seed, parties, samples);

    let strategy = args.value("strategy").unwrap_or("shiftex").to_string();
    let codec = codec_spec_from_args(args);
    assert!(
        !codec.delta && !codec.error_feedback,
        "netfed carries static codec frames only (no delta / error feedback)"
    );
    let selector =
        FedSelector::parse(args.value("selector").unwrap_or("uniform")).expect("unknown selector");
    let cfg = NetFedConfig {
        strategy,
        codec,
        selector,
        rounds: args.value_or("rounds", 3),
        join_chunk_bytes: args
            .value("join-chunk-bytes")
            .map(|v| v.parse().expect("--join-chunk-bytes")),
    };
    (scenario, cfg)
}

/// Runs `cfg.rounds` federation rounds of a netfed session over
/// `transport` and returns the final state. The session always runs the
/// scenario's window 0 under a clean synchronous spec: real churn and
/// real stragglers come from the transport's sockets, not from simulated
/// axes.
///
/// # Panics
///
/// Panics when `cfg.strategy` is unknown.
pub fn run_netfed_rounds(
    scenario: &Scenario,
    cfg: &NetFedConfig,
    transport: &mut dyn CohortTransport,
) -> NetFedRun {
    let fed = ScenarioSpec::sync(netfed_fed_seed(scenario.seed));
    let stream_seed = netfed_stream_seed(scenario.seed);
    let store = LazyPopulation::new(scenario.clone(), stream_seed).into_store();
    let ids = store.party_ids();
    let mut engine = shiftex_fl::ScenarioEngine::new(fed, &ids);
    if let Some(chunk_bytes) = cfg.join_chunk_bytes {
        engine.enable_join_chunking(JoinConfig::quantized(chunk_bytes));
    }
    let ledger = CommLedger::new();
    let mut rng = StdRng::seed_from_u64(stream_seed);
    let mut algorithm = build_algorithm(&cfg.strategy, scenario, &ShiftExConfig::default())
        .unwrap_or_else(|| panic!("unknown strategy {:?}", cfg.strategy));
    algorithm.init(&store.view(ids.clone()), &mut rng);

    let mut uniform = UniformSelector;
    let mut oort = OortSelector::default();
    let selector: &mut dyn ParticipantSelector = match cfg.selector {
        FedSelector::Uniform => &mut uniform,
        FedSelector::Oort => &mut oort,
    };
    let mut ctx = RoundCtx::new(&store, &mut engine)
        .with_codec(&cfg.codec)
        .with_selector(selector)
        .with_ledger(&ledger)
        .with_transport(transport);
    let mut lost = Vec::new();
    for _ in 0..cfg.rounds {
        lost.extend(run_algorithm_round(algorithm.as_mut(), &mut ctx, &mut rng).lost);
    }
    let params = algorithm
        .streams()
        .into_iter()
        .map(|key| (key, algorithm.broadcast_state(key)))
        .collect();
    NetFedRun {
        params,
        comm: ledger.totals(),
        lost,
        cooldown_marks: match cfg.selector {
            FedSelector::Uniform => None,
            FedSelector::Oort => Some(oort.cooldown_marks()),
        },
    }
}

/// Runs one party-worker session over `stream`: builds the same algorithm
/// the coordinator derives from the shared flags, hosts `parties`, and
/// trains each broadcast through the algorithm's own `local_step` —
/// bit-identical to the in-process driver's training leg.
///
/// Each hosted party is built from its seeded stream (the lazy store the
/// coordinator's reference run reads) the first time a broadcast names it,
/// and kept for the rest of the session: worker memory is O(hosted
/// parties), and training data never crosses the wire. The returned
/// summary's `parties_built` counts those builds.
///
/// `stall_after_uploads` / `leave_after_round` are passed through to
/// [`WorkerConfig`] for the churn smoke tests.
///
/// # Errors
///
/// Returns a [`NetError`] on socket failure or protocol violation.
///
/// # Panics
///
/// Panics when `cfg.strategy` is unknown.
pub fn run_worker<S: Read + Write>(
    stream: &mut S,
    scenario: &Scenario,
    cfg: &NetFedConfig,
    parties: Vec<PartyId>,
    stall_after_uploads: Option<u64>,
    leave_after_round: Option<usize>,
) -> Result<WorkerSummary, NetError> {
    let store =
        LazyPopulation::new(scenario.clone(), netfed_stream_seed(scenario.seed)).into_store();
    // `local_step` reads only `arch` and `train_config`, which every
    // algorithm fixes at construction, so the worker never calls `init`.
    let algorithm = build_algorithm(&cfg.strategy, scenario, &ShiftExConfig::default())
        .unwrap_or_else(|| panic!("unknown strategy {:?}", cfg.strategy));
    // A session only ever trains window 0: no window boundary travels on
    // the wire yet. Once one does, hosted parties must advance in place,
    // the way `ResidentPopulation::advance_window` does.
    let mut hosted: BTreeMap<PartyId, Party> = BTreeMap::new();
    let worker_cfg = WorkerConfig {
        parties,
        codec: cfg.codec,
        stall_after_uploads,
        leave_after_round,
    };
    let mut summary = serve(stream, &worker_cfg, &mut |key, id, state, seed| {
        // `serve` admits only broadcasts for hosted parties, all of which
        // are in the store.
        let party = hosted
            .entry(id)
            .or_insert_with(|| store.party(id).expect("hosted party is in the population"));
        algorithm.local_step(key, party, state, seed)
    })?;
    summary.parties_built = store.stats().materializations;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_every_party_exactly_once() {
        for (parties, workers) in [(8, 4), (10, 3), (7, 7), (100, 6), (5, 8)] {
            let mut seen = Vec::new();
            for w in 0..workers {
                seen.extend(worker_partition(parties, workers, w));
            }
            let expected: Vec<PartyId> = (0..parties).map(PartyId).collect();
            assert_eq!(seen, expected, "{parties} parties over {workers} workers");
        }
    }

    #[test]
    fn seeds_are_shared_pure_functions_of_the_cli_seed() {
        assert_eq!(netfed_fed_seed(17), netfed_fed_seed(17));
        assert_ne!(netfed_fed_seed(17), netfed_fed_seed(18));
        assert_eq!(
            netfed_stream_seed(17),
            netfed_fed_seed(17) ^ 17u64.rotate_left(17)
        );
    }
}
