//! The unified algorithm API: every federated algorithm — ShiftEx and all
//! baselines — implements [`FederatedAlgorithm`], and one generic driver
//! ([`run_algorithm_round`], configured by a [`RoundCtx`]) threads the
//! scenario engine (churn, stragglers, staleness-aware async aggregation),
//! the wire codec, the participant selector, the fold policy, the
//! communication ledger, and the cohort transport through each of them
//! identically.
//!
//! The paper's claim is comparative, so the runtime must be too: an
//! algorithm that only runs on a bespoke driver cannot be measured under
//! the same churn schedule, deadline pressure, and quantised uplinks as its
//! competitors. The trait factors a round into the five things algorithms
//! actually differ in:
//!
//! 1. **state** — how many models are maintained ([`streams`] — one per
//!    global model / expert) and what each broadcasts
//!    ([`broadcast_state`]);
//! 2. **cohorting** — which live parties train each stream this round
//!    ([`cohort`]); single-model algorithms delegate to the pluggable
//!    [`ParticipantSelector`] (uniform / OORT), mixture and cluster
//!    algorithms bring their own policy;
//! 3. **local work** — the party-side step ([`local_step`], defaulting to
//!    SGD via [`local_update`] under the algorithm's
//!    [`train_config`]);
//! 4. **folding** — how decoded, staleness-weighted updates enter the
//!    model ([`fold`]);
//! 5. **window reaction** — what happens at a shift boundary
//!    ([`begin_window`]: detection, re-clustering, expert management).
//!
//! Everything else — selection gating by churn, mid-round dropout fates,
//! deadline scoring, buffering, staleness discounts, codec encode/decode,
//! first-contact full-state frames, error feedback, byte metering — is
//! shared runtime and therefore *identical across algorithms by
//! construction*: the driver sequences it, and the [`ScenarioEngine`]
//! decides every upload's fate and writes every ledger entry.
//!
//! [`streams`]: FederatedAlgorithm::streams
//! [`broadcast_state`]: FederatedAlgorithm::broadcast_state
//! [`cohort`]: FederatedAlgorithm::cohort
//! [`local_step`]: FederatedAlgorithm::local_step
//! [`train_config`]: FederatedAlgorithm::train_config
//! [`fold`]: FederatedAlgorithm::fold
//! [`begin_window`]: FederatedAlgorithm::begin_window

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shiftex_nn::{train_local_params, ArchSpec, TrainConfig};

use crate::codec::CodecSpec;
use crate::comm::CommLedger;
use crate::control::CodecController;
use crate::party::{Party, PartyId};
use crate::population::{PopulationStore, PopulationView};
use crate::robust::{FoldPolicy, UpdateVerdict};
use crate::scenario::{RoundMode, ScenarioEngine, WeightedUpdate};
use crate::selection::{ParticipantSelector, UniformSelector};
use crate::transport::{CohortExchange, CohortTransport, LocalTransport};
use crate::update::ModelUpdate;

/// One federated algorithm's lifecycle under the scenario runtime.
///
/// Implementations must be deterministic given the driver's RNG: every
/// stochastic choice draws from the `rng` handed in, in a call order that
/// does not depend on anything but the inputs. The driver guarantees the
/// same in return, which is what makes whole scenario runs rerun-identical.
pub trait FederatedAlgorithm {
    /// Algorithm name as it appears in tables and reports.
    fn name(&self) -> &str;

    /// The model architecture every stream trains.
    fn arch(&self) -> &ArchSpec;

    /// One-time W0 setup: build the initial model state from this run's RNG
    /// stream and enrol the population behind `parties`. Called exactly
    /// once, before any round. Algorithms must stream parties through the
    /// view (one resident at a time) rather than collecting them.
    fn init(&mut self, parties: &PopulationView<'_>, rng: &mut StdRng);

    /// Window-boundary hook: the enrolled members' data has just advanced
    /// to `window` (≥ 1). Shift detection, re-clustering, expert management
    /// — whatever the algorithm does between windows.
    fn begin_window(&mut self, window: usize, members: &PopulationView<'_>, rng: &mut StdRng);

    /// Keys of the update streams (one per concurrently trained model) in
    /// training order. Single-model algorithms return `vec![0]`; mixture
    /// algorithms one stable key per expert. Keys index the engine's
    /// staleness buffers and broadcast references, so they must not be
    /// reused across distinct models within a run.
    fn streams(&self) -> Vec<usize>;

    /// Current global parameters of stream `key` (what a round broadcasts).
    fn broadcast_state(&self, key: usize) -> Vec<f32>;

    /// Local-training hyper-parameters for stream `key`.
    fn train_config(&self, key: usize) -> TrainConfig;

    /// This round's cohort for stream `key`, drawn from the live (enrolled,
    /// pre-dropout) view. The returned order is the training and
    /// aggregation order. Algorithms without their own policy should
    /// delegate to `selector`; those with one (FLIPS clusters, per-expert
    /// selection) may ignore it.
    fn cohort(
        &mut self,
        key: usize,
        live: &PopulationView<'_>,
        selector: &mut dyn ParticipantSelector,
        rng: &mut StdRng,
    ) -> Vec<PartyId>;

    /// One party's local step from the decoded broadcast, under an
    /// independent RNG stream derived from `seed`.
    fn local_step(&self, key: usize, party: &Party, decoded: &[f32], seed: u64) -> ModelUpdate {
        local_update(self.arch(), decoded, party, &self.train_config(key), seed)
    }

    /// Folds the decoded, staleness-weighted updates the engine released
    /// into stream `key` under `policy` — algorithms delegate the value
    /// combination to [`aggregate_robust`](crate::robust::aggregate_robust)
    /// so every (algorithm × fold) cell shares one robust-statistics
    /// implementation, and return its per-update verdicts so the engine can
    /// meter quarantines and the driver can feed the selector. An empty
    /// `ready` set must leave the stream's parameters untouched (churn can
    /// empty any round) and return no verdicts.
    fn fold(
        &mut self,
        key: usize,
        ready: &[WeightedUpdate],
        server_lr: f32,
        policy: &FoldPolicy,
    ) -> Vec<UpdateVerdict>;

    /// Post-round hook after every stream folded (e.g. personalised local
    /// steps for fine-tuned parties). Default: nothing.
    fn end_round(&mut self, _live: &PopulationView<'_>, _rng: &mut StdRng) {}

    /// Sample-weighted population accuracy over `parties`, each evaluated
    /// under the model this algorithm currently assigns to it.
    fn eval(&self, parties: &PopulationView<'_>) -> f32;

    /// Dense model index currently assigned to `party` (for the
    /// expert-distribution figures); single-model algorithms return 0.
    fn model_index(&self, party: PartyId) -> usize;

    /// Number of distinct models currently maintained.
    fn num_models(&self) -> usize;
}

/// One party's local training step from the (decoded) global parameters,
/// under an independent RNG stream derived from `seed` — the default
/// [`FederatedAlgorithm::local_step`]. Parties with no training data return
/// a zero-sample echo of the globals.
pub fn local_update(
    spec: &ArchSpec,
    global_params: &[f32],
    party: &Party,
    train: &TrainConfig,
    seed: u64,
) -> ModelUpdate {
    let mut rng = StdRng::seed_from_u64(seed);
    if party.train().is_empty() {
        return ModelUpdate {
            party: party.id(),
            params: global_params.to_vec(),
            num_samples: 0,
            train_loss: 0.0,
        };
    }
    let fit = train_local_params(
        spec,
        global_params,
        party.train_features(),
        party.train_labels(),
        train,
        &mut rng,
    );
    ModelUpdate {
        party: party.id(),
        params: fit.params,
        num_samples: fit.num_samples,
        train_loss: fit.final_loss,
    }
}

/// What one scenario-mediated round did, across all of an algorithm's
/// streams.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoRoundOutcome {
    /// 1-based round index (the engine's clock after this round began).
    pub round: usize,
    /// Enrolled members this round (after join/leave churn).
    pub live: Vec<PartyId>,
    /// Updates folded into an aggregation, summed over streams (excludes
    /// quarantined updates).
    pub folded: usize,
    /// Parties whose uploads were aborted this round (lost by the
    /// transport, mid-round dropout or late-drop), across streams.
    pub lost: Vec<PartyId>,
    /// Updates a robust fold quarantined, summed over streams.
    pub quarantined: usize,
    /// Largest fold distance score this round ([`UpdateVerdict::score`];
    /// 0 under `Mean`).
    pub fold_score: f32,
}

/// The codec policy a round runs under: one static spec for every stream,
/// or an adaptive [`CodecController`] consulted per stream against the
/// observed byte ledger and the stream's error-feedback magnitude.
#[derive(Debug, Clone, Copy)]
pub enum RoundCodec<'a> {
    /// The same spec on every stream; its byte accounting is pinned by the
    /// conformance goldens.
    Static(&'a CodecSpec),
    /// Per-`(round, stream)` choice within a byte budget. The controller
    /// is pure, so adaptive rounds stay rerun-identical.
    Adaptive(&'a CodecController),
}

impl<'a> From<&'a CodecSpec> for RoundCodec<'a> {
    fn from(spec: &'a CodecSpec) -> Self {
        RoundCodec::Static(spec)
    }
}

impl<'a> From<&'a CodecController> for RoundCodec<'a> {
    fn from(controller: &'a CodecController) -> Self {
        RoundCodec::Adaptive(controller)
    }
}

/// Everything a round runs against besides the algorithm and the seed: the
/// population, the scenario engine, and the wire / selection / fold /
/// metering / transport policies. [`RoundCtx::new`] is the paper's clean
/// protocol — lossless dense frames, uniform selection, mean fold, no
/// ledger, in-process transport — and each `with_*` swaps one policy in.
pub struct RoundCtx<'a> {
    /// The party population rounds draw cohorts from.
    pub population: &'a PopulationStore,
    /// Round clock, churn/straggler/attack fates, staleness buffers.
    pub engine: &'a mut ScenarioEngine,
    /// Wire codec policy for every broadcast and upload.
    pub codec: RoundCodec<'a>,
    /// Cohort selector for algorithms that delegate selection (`None` =
    /// [`UniformSelector`]).
    pub selector: Option<&'a mut dyn ParticipantSelector>,
    /// Fold every stream's released updates pass through.
    pub fold: &'a FoldPolicy,
    /// Byte meter for every exchange, if any.
    pub ledger: Option<&'a CommLedger>,
    /// Where the broadcast → local-step → upload leg runs (`None` =
    /// [`LocalTransport`]).
    pub transport: Option<&'a mut dyn CohortTransport>,
}

impl<'a> RoundCtx<'a> {
    /// The default round context over `population` and `engine`.
    pub fn new(population: &'a PopulationStore, engine: &'a mut ScenarioEngine) -> Self {
        const DENSE: CodecSpec = CodecSpec::dense();
        Self {
            population,
            engine,
            codec: RoundCodec::Static(&DENSE),
            selector: None,
            fold: &FoldPolicy::Mean,
            ledger: None,
            transport: None,
        }
    }

    /// Runs under `codec`: a static [`CodecSpec`] or an adaptive
    /// [`CodecController`].
    pub fn with_codec(mut self, codec: impl Into<RoundCodec<'a>>) -> Self {
        self.codec = codec.into();
        self
    }

    /// Hands cohort selection to `selector`.
    pub fn with_selector(mut self, selector: &'a mut dyn ParticipantSelector) -> Self {
        self.selector = Some(selector);
        self
    }

    /// Folds under `fold`.
    pub fn with_fold(mut self, fold: &'a FoldPolicy) -> Self {
        self.fold = fold;
        self
    }

    /// Meters every exchange on `ledger`.
    pub fn with_ledger(mut self, ledger: &'a CommLedger) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Delegates each stream's exchange to `transport`.
    pub fn with_transport(mut self, transport: &'a mut dyn CohortTransport) -> Self {
        self.transport = Some(transport);
        self
    }
}

/// Runs one scenario-mediated round of `algorithm`: advances the engine's
/// round clock, gates the pool by churn, and — per stream — selects a
/// cohort, resolves the stream's codec, and hands the broadcast →
/// local-step → upload leg to the [`CohortTransport`] ([`LocalTransport`]
/// trains in process: first-contact recipients get metered full-state
/// frames, label-poisoning attackers train on flipped labels, uploads ship
/// through the codec with error feedback when configured and wire-level
/// attackers corrupt theirs in transit; a networked transport ships the
/// same frames to worker processes). The engine then decides every
/// upload's fate ([`ScenarioEngine::collect`]: real losses, dropout,
/// stragglers, staleness) and meters it, the selector hears utility,
/// liveness and rejection signals, and whatever matured folds under the
/// context's policy, with quarantined uploads handed back to the engine to
/// meter and refund.
///
/// This is the *only* round driver: ShiftEx and every baseline pay for the
/// same scenario axes and the same bytes, so head-to-head numbers compare
/// algorithms rather than runtimes.
pub fn run_algorithm_round<A: FederatedAlgorithm + ?Sized>(
    algorithm: &mut A,
    ctx: &mut RoundCtx<'_>,
    rng: &mut StdRng,
) -> AlgoRoundOutcome {
    let (population, codec, policy, ledger) = (ctx.population, ctx.codec, ctx.fold, ctx.ledger);
    let engine = &mut *ctx.engine;
    let selector: &mut dyn ParticipantSelector = match &mut ctx.selector {
        Some(selector) => &mut **selector,
        None => &mut UniformSelector,
    };
    let transport: &mut dyn CohortTransport = match &mut ctx.transport {
        Some(transport) => &mut **transport,
        None => &mut LocalTransport,
    };
    let round = engine.begin_round();
    selector.begin_round();
    let all_ids = population.party_ids();
    let live_ids = engine.live_members(&all_ids);
    let live = population.view(live_ids.clone());
    let server_lr = match engine.spec().mode {
        RoundMode::Sync => 1.0,
        RoundMode::Async(a) => a.server_lr,
    };

    let mut lost = Vec::new();
    let (mut folded, mut quarantined, mut fold_score) = (0usize, 0usize, 0.0f32);
    for key in algorithm.streams() {
        let cohort_ids = algorithm.cohort(key, &live, selector, rng);
        let globals = algorithm.broadcast_state(key);
        // Resolve the stream's codec: static specs pass through untouched;
        // an adaptive controller decides from (round, stream, cohort size,
        // model size, observed ledger, EF magnitude) — all deterministic.
        let adaptive_spec;
        let codec: &CodecSpec = match codec {
            RoundCodec::Static(spec) => spec,
            RoundCodec::Adaptive(controller) => {
                let totals = ledger.map(|l| l.totals()).unwrap_or_default();
                adaptive_spec = controller.spec_for(
                    round,
                    key,
                    cohort_ids.len(),
                    globals.len(),
                    &totals,
                    engine.ef_magnitude(key),
                );
                &adaptive_spec
            }
        };
        // One pre-drawn seed per member keeps results independent of
        // training order (and identical to the parallel fan-out and to a
        // networked coordinator, which draws these exact seeds here before
        // any socket I/O).
        let seeds: Vec<u64> = cohort_ids.iter().map(|_| rng.random::<u64>()).collect();
        let uploads = transport.exchange(
            &CohortExchange {
                key,
                globals: &globals,
                codec,
                cohort: &cohort_ids,
                seeds: &seeds,
            },
            &live,
            engine,
            ledger,
            &mut |party, decoded, seed| algorithm.local_step(key, party, decoded, seed),
        );
        let delivery = engine.collect(key, uploads, codec, ledger);
        for &party in &delivery.lost {
            selector.on_unavailable(party);
        }
        lost.extend_from_slice(&delivery.lost);
        let verdicts = algorithm.fold(key, &delivery.ready, server_lr, policy);
        let refused: BTreeSet<PartyId> = verdicts
            .iter()
            .filter(|v| v.quarantined)
            .map(|v| v.party)
            .collect();
        for w in &delivery.ready {
            if refused.contains(&w.update.party) {
                // Alive but refused: `on_rejected`, not `on_unavailable`,
                // so an availability cooldown does not punish the party.
                selector.on_rejected(w.update.party);
                engine.quarantine(key, codec, &w.update, ledger);
            } else {
                selector.observe(w.update.party, w.update.train_loss);
            }
        }
        for v in &verdicts {
            if v.quarantined {
                quarantined += 1;
            } else {
                folded += 1;
            }
            fold_score = fold_score.max(v.score);
        }
    }
    algorithm.end_round(&live, rng);
    // Close the round on the transport (a networked coordinator tells its
    // workers; the local transport is a no-op).
    transport.round_complete(engine);

    AlgoRoundOutcome {
        round,
        live: live_ids,
        folded,
        lost,
        quarantined,
        fold_score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        ChurnSchedule, ChurnSpec, DelayDist, LatePolicy, ScenarioSpec, StragglerSpec,
    };
    use crate::transport::{LocalStepFn, UploadOutcome};
    use crate::PartyInfo;
    use shiftex_data::{ImageShape, PrototypeGenerator};
    use shiftex_nn::Sequential;
    use std::collections::BTreeMap;

    /// Minimal single-model reference implementation for driver tests.
    struct PlainFedAvg {
        spec: ArchSpec,
        params: Vec<f32>,
        ppr: usize,
    }

    impl FederatedAlgorithm for PlainFedAvg {
        fn name(&self) -> &str {
            "plain"
        }
        fn arch(&self) -> &ArchSpec {
            &self.spec
        }
        fn init(&mut self, _parties: &PopulationView<'_>, rng: &mut StdRng) {
            self.params = Sequential::build(&self.spec, rng).params_flat();
        }
        fn begin_window(&mut self, _w: usize, _m: &PopulationView<'_>, _rng: &mut StdRng) {}
        fn streams(&self) -> Vec<usize> {
            vec![0]
        }
        fn broadcast_state(&self, _key: usize) -> Vec<f32> {
            self.params.clone()
        }
        fn train_config(&self, _key: usize) -> TrainConfig {
            TrainConfig::default()
        }
        fn cohort(
            &mut self,
            _key: usize,
            live: &PopulationView<'_>,
            selector: &mut dyn ParticipantSelector,
            rng: &mut StdRng,
        ) -> Vec<PartyId> {
            if live.is_empty() {
                return Vec::new();
            }
            let infos = live.infos();
            let chosen: BTreeSet<PartyId> =
                selector.select(&infos, self.ppr, rng).into_iter().collect();
            live.ids()
                .iter()
                .copied()
                .filter(|id| chosen.contains(id))
                .collect()
        }
        fn fold(
            &mut self,
            _key: usize,
            ready: &[WeightedUpdate],
            server_lr: f32,
            policy: &FoldPolicy,
        ) -> Vec<UpdateVerdict> {
            let fold = crate::robust::aggregate_robust(&self.params, ready, server_lr, policy);
            if let Some(p) = fold.params {
                self.params = p;
            }
            fold.verdicts
        }
        fn eval(&self, parties: &PopulationView<'_>) -> f32 {
            crate::evaluate_on_view(&self.spec, &self.params, parties)
        }
        fn model_index(&self, _party: PartyId) -> usize {
            0
        }
        fn num_models(&self) -> usize {
            1
        }
    }

    /// `n` parties behind a store, a `PlainFedAvg` over all of them
    /// initialised from the returned RNG, and the party ids.
    fn setup(n: usize, seed: u64) -> (PlainFedAvg, PopulationStore, Vec<PartyId>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
        let parties: Vec<Party> = (0..n)
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
        let mut alg = PlainFedAvg {
            spec: ArchSpec::mlp("algo", 16, &[10], 3),
            params: Vec::new(),
            ppr: n,
        };
        alg.init(&store.view(ids.clone()), &mut rng);
        (alg, store, ids, rng)
    }

    /// One clean synchronous round under `codec`; returns the new globals.
    fn round_under(codec: CodecSpec, seed: u64) -> Vec<f32> {
        let (mut alg, store, ids, mut rng) = setup(4, seed);
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids);
        let mut ctx = RoundCtx::new(&store, &mut engine).with_codec(&codec);
        let out = run_algorithm_round(&mut alg, &mut ctx, &mut rng);
        assert_eq!(out.folded, 4, "{codec}");
        alg.params
    }

    #[test]
    fn dense_round_is_bit_identical_to_an_uncoded_round() {
        // The reference has no wire stage at all: select, pre-draw one seed
        // per member, train from the raw globals, sample-weighted average.
        let (alg, store, ids, mut rng) = setup(4, 30);
        let view = store.view(ids.clone());
        let chosen = UniformSelector.select(&view.infos(), 4, &mut rng);
        assert_eq!(chosen.len(), 4, "everyone trains, in id order");
        let seeds: Vec<u64> = ids.iter().map(|_| rng.random::<u64>()).collect();
        let ready: Vec<WeightedUpdate> = view
            .parties(&ids)
            .iter()
            .zip(&seeds)
            .map(|(party, &seed)| {
                let update =
                    local_update(&alg.spec, &alg.params, party, &TrainConfig::default(), seed);
                WeightedUpdate {
                    weight: update.num_samples as f32,
                    staleness: 0,
                    update,
                }
            })
            .collect();
        let reference = crate::aggregate_weighted(&alg.params, &ready, 1.0).unwrap();
        assert_eq!(round_under(CodecSpec::dense(), 30), reference);

        // Delta+dense pays a real roundtrip ((p − r) + r rounds in f32), so
        // it is near-lossless, not bit-identical.
        let delta = round_under(CodecSpec::dense().with_delta(), 30);
        for (&a, &b) in reference.iter().zip(delta.iter()) {
            assert!(
                (a - b).abs() <= a.abs().max(1.0) * 1e-6,
                "delta+dense drifted: {a} vs {b}"
            );
        }
    }

    #[test]
    fn quantized_round_stays_numerically_pinned_to_dense() {
        let dense = round_under(CodecSpec::dense(), 32);
        let rel_to = |coded: &[f32]| {
            let num: f32 = dense
                .iter()
                .zip(coded.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            let den: f32 = dense.iter().map(|a| a * a).sum();
            (num / den.max(f32::MIN_POSITIVE)).sqrt()
        };
        for codec in [CodecSpec::quant8(256), CodecSpec::quant8(256).with_delta()] {
            let rel = rel_to(&round_under(codec, 32));
            assert!(
                rel <= 1e-2,
                "{codec}: aggregated params drift {rel:.2e} from the dense reference"
            );
        }
        // Top-k is aggressive by design (only a quarter of the residual
        // ships), so it is not held to the int8 pinning bound — but it must
        // still move the globals toward the dense result, not away.
        let (init, ..) = setup(4, 32);
        assert!(
            rel_to(&round_under(CodecSpec::topk(0.25).with_delta(), 32)) < rel_to(&init.params),
            "sparsified round must land closer to the dense result than the start"
        );
    }

    #[test]
    fn ledger_meters_exact_encoded_sizes_per_codec() {
        for codec in [
            CodecSpec::dense(),
            CodecSpec::quant8(128),
            CodecSpec::topk(0.1).with_delta(),
            CodecSpec::quant8(256).with_delta(),
        ] {
            let (mut alg, store, ids, mut rng) = setup(3, 34);
            let n = alg.params.len();
            let ledger = CommLedger::new();
            let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids);
            let mut ctx = RoundCtx::new(&store, &mut engine)
                .with_codec(&codec)
                .with_ledger(&ledger);
            // Round 1's recipients hold no reference: their self-contained
            // full-state frames land on the distinct first-contact counters.
            run_algorithm_round(&mut alg, &mut ctx, &mut rng);
            let t1 = ledger.totals();
            let first = codec.first_contact_spec().broadcast_len(n) as u64;
            assert_eq!(t1.down_bytes, 0, "{codec}: round 1 is all first contact");
            assert_eq!(t1.first_contact_down_bytes, 3 * first, "{codec}");
            assert_eq!(t1.first_contact_messages, 3, "{codec}");
            assert_eq!(t1.up_bytes, 3 * codec.update_len(n) as u64, "{codec}");
            assert!(ctx.engine.last_broadcast(0).is_some(), "{codec}");
            // Round 2 is regular: the downlink (delta-coded when configured)
            // references round 1's stored broadcast and still decodes.
            let out = run_algorithm_round(&mut alg, &mut ctx, &mut rng);
            assert_eq!(out.folded, 3, "{codec}");
            let t2 = ledger.totals();
            let regular = codec.broadcast_spec(true).broadcast_len(n) as u64;
            assert_eq!(t2.down_bytes, 3 * regular, "{codec}");
            assert_eq!(t2.first_contact_down_bytes, 3 * first, "{codec}");
            assert_eq!(t2.up_bytes, 6 * codec.update_len(n) as u64, "{codec}");
            assert_eq!(t2.messages, 12, "{codec}: 6 downloads + 6 uploads");
        }
    }

    #[test]
    fn driver_survives_a_fully_churned_round() {
        let (mut alg, store, ids, mut rng) = setup(4, 7);
        let before = alg.params.clone();
        let spec = ScenarioSpec::sync(1).with_churn(ChurnSpec::dropout_only(1.0));
        let mut engine = ScenarioEngine::new(spec, &ids);
        let ledger = CommLedger::new();
        let mut ctx = RoundCtx::new(&store, &mut engine).with_ledger(&ledger);
        let out = run_algorithm_round(&mut alg, &mut ctx, &mut rng);
        assert_eq!(out.folded, 0);
        assert_eq!(out.lost.len(), 4);
        assert_eq!(alg.params, before, "no survivors → globals unchanged");
        assert_eq!(ledger.totals().aborted_messages, 4);
    }

    #[test]
    fn churned_rounds_give_every_selected_update_exactly_one_fate() {
        let (mut alg, store, ids, mut rng) = setup(8, 8);
        let spec = ScenarioSpec::sync(3).with_churn(ChurnSpec {
            join_fraction: 0.25,
            join_ramp_rounds: 3,
            leave_fraction: 0.25,
            leave_after: 2,
            horizon: 6,
            dropout: 0.3,
        });
        let mut engine = ScenarioEngine::new(spec, &ids);
        let ledger = CommLedger::new();
        let mut ctx = RoundCtx::new(&store, &mut engine).with_ledger(&ledger);
        for round in 1..=6 {
            assert_eq!(
                run_algorithm_round(&mut alg, &mut ctx, &mut rng).round,
                round
            );
        }
        let totals = engine.stats();
        assert_eq!(
            totals.selected,
            totals.delivered + totals.dropped_churn + totals.dropped_late + totals.deferred,
            "every selected update has exactly one first-round fate: {totals:?}"
        );
        assert!(
            totals.dropped_churn > 0,
            "30% dropout over 6 rounds: {totals:?}"
        );
        assert_eq!(
            ledger.totals().aborted_messages,
            totals.dropped_churn + totals.dropped_late,
            "aborted uploads are on the ledger"
        );
    }

    /// [`LocalTransport`] that then loses two cohort members for real: a
    /// stalled upload, and a party on a dead worker, pinned as this round's
    /// dropout the way a networked coordinator pins it.
    struct LossyTransport {
        stalled: PartyId,
        dead: PartyId,
    }

    impl CohortTransport for LossyTransport {
        fn exchange(
            &mut self,
            x: &CohortExchange<'_>,
            live: &PopulationView<'_>,
            engine: &mut ScenarioEngine,
            ledger: Option<&CommLedger>,
            local_step: &mut LocalStepFn<'_>,
        ) -> Vec<UploadOutcome> {
            let mut outcomes = LocalTransport.exchange(x, live, engine, ledger, local_step);
            let round = engine.round();
            engine.churn_mut().pin_dropout(self.dead, round);
            for (outcome, &p) in outcomes.iter_mut().zip(x.cohort) {
                if p == self.stalled || p == self.dead {
                    *outcome = UploadOutcome::Lost(p);
                }
            }
            outcomes
        }
    }

    /// Uniform selection that counts each party's `on_unavailable` calls.
    #[derive(Default)]
    struct UnavailableLog(BTreeMap<PartyId, usize>);

    impl ParticipantSelector for UnavailableLog {
        fn select(&mut self, pool: &[PartyInfo], m: usize, rng: &mut StdRng) -> Vec<PartyId> {
            UniformSelector.select(pool, m, rng)
        }
        fn on_unavailable(&mut self, party: PartyId) {
            *self.0.entry(party).or_default() += 1;
        }
    }

    #[test]
    fn transport_losses_are_counted_like_simulated_ones() {
        let (mut alg, store, ids, mut rng) = setup(4, 11);
        let n = alg.params.len();
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids);
        let ledger = CommLedger::new();
        let (stalled, dead) = (PartyId(1), PartyId(2));
        let mut transport = LossyTransport { stalled, dead };
        let mut log = UnavailableLog::default();
        let out = run_algorithm_round(
            &mut alg,
            &mut RoundCtx::new(&store, &mut engine)
                .with_ledger(&ledger)
                .with_selector(&mut log)
                .with_transport(&mut transport),
            &mut rng,
        );
        let stats = engine.stats();
        assert_eq!(stats.selected, 4, "every cohort member was selected");
        assert_eq!(stats.delivered, 2);
        // Only the pinned party drops out; the stall is a late drop.
        assert!(engine.churn().drops_out(dead, out.round));
        assert!(!engine.churn().drops_out(stalled, out.round));
        assert_eq!((stats.dropped_churn, stats.dropped_late), (1, 1));
        let totals = ledger.totals();
        assert_eq!(totals.aborted_messages, 2);
        assert_eq!(
            totals.aborted_up_bytes,
            2 * CodecSpec::dense().update_len(n) as u64
        );
        assert_eq!(out.lost, vec![stalled, dead], "each loss reported once");
        assert_eq!(log.0, [(stalled, 1), (dead, 1)].into_iter().collect());
        assert_eq!(out.folded, 2);
    }

    /// A schedule under which every party in `ids` leaves before `round`.
    fn everyone_leaves_before(round: usize, ids: &[PartyId]) -> ChurnSchedule {
        ids.iter().fold(ChurnSchedule::always_on(0.0, 0), |c, &id| {
            c.with_leave(id, round)
        })
    }

    #[test]
    fn deferred_updates_mature_even_when_pool_empties() {
        let (mut alg, store, ids, mut rng) = setup(3, 14);
        let init = alg.params.clone();
        // Every update is 1 round late; every party leaves after round 1.
        let spec = ScenarioSpec::sync(2).with_stragglers(StragglerSpec {
            dist: DelayDist::Constant(1.5),
            slow_fraction: 0.0,
            slow_factor: 1.0,
            deadline: 1.0,
            late: LatePolicy::Defer,
        });
        let mut engine = ScenarioEngine::new(spec, &ids);
        *engine.churn_mut() = everyone_leaves_before(2, &ids);
        let mut ctx = RoundCtx::new(&store, &mut engine);
        let r1 = run_algorithm_round(&mut alg, &mut ctx, &mut rng);
        assert_eq!((r1.folded, ctx.engine.stats().deferred), (0, 3));
        assert_eq!(alg.params, init);
        // Round 2 has nobody live, but the deferred updates still mature
        // and aggregate.
        let r2 = run_algorithm_round(&mut alg, &mut ctx, &mut rng);
        assert!(r2.live.is_empty());
        assert_eq!(r2.folded, 3);
        assert_ne!(alg.params, init, "matured updates must be folded in");
    }

    #[test]
    fn rounds_with_everyone_left_keep_initial_params() {
        let (mut alg, store, ids, mut rng) = setup(3, 10);
        let init = alg.params.clone();
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids);
        *engine.churn_mut() = everyone_leaves_before(1, &ids);
        let mut ctx = RoundCtx::new(&store, &mut engine);
        for _ in 0..3 {
            assert!(run_algorithm_round(&mut alg, &mut ctx, &mut rng)
                .live
                .is_empty());
        }
        assert_eq!(alg.params, init);
        assert_eq!(engine.stats().selected, 0);
    }

    #[test]
    fn empty_party_contributes_nothing() {
        let (alg, store, ids, _) = setup(2, 8);
        let mut party = store
            .view(ids.clone())
            .parties(&ids[..1])
            .remove(0)
            .into_owned();
        let (classes, shape) = (party.train().num_classes(), party.train().shape());
        party.advance_window(
            shiftex_data::Dataset::empty(classes, shape),
            shiftex_data::Dataset::empty(classes, shape),
        );
        let update = local_update(&alg.spec, &alg.params, &party, &TrainConfig::default(), 9);
        assert_eq!(update.num_samples, 0);
        assert_eq!(
            update.params, alg.params,
            "a zero-sample echo of the globals"
        );
    }
}
