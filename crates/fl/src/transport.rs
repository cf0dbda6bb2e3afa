//! The cohort transport seam: where a round's broadcast → local-step →
//! upload exchange actually happens.
//!
//! Materializing the cohort, handing every member the decoded broadcast,
//! calling its local step and shipping the result is exactly the part of a
//! round that stops being simulation once parties are real processes on
//! real sockets, so [`run_algorithm_round`](crate::run_algorithm_round)
//! delegates it to the [`CohortTransport`] in its
//! [`RoundCtx`](crate::RoundCtx):
//!
//! * [`LocalTransport`] trains the cohort in this process and ships
//!   uploads through the simulated wire
//!   ([`ScenarioEngine::transport_upload`]) — the default for every
//!   in-process scenario run and the reference the conformance goldens
//!   pin;
//! * a networked implementation (`shiftex_net`) ships the same encoded
//!   codec frames over TCP to worker processes and reports parties whose
//!   sockets stalled past the round deadline or disconnected as
//!   [`UploadOutcome::Lost`]. The driver hands every outcome to
//!   [`ScenarioEngine::collect`], which counts and meters each loss as an
//!   aborted upload exactly as it does its simulated dropouts and late
//!   drops, and the selector hears
//!   [`ParticipantSelector::on_unavailable`](crate::ParticipantSelector::on_unavailable)
//!   once per lost party — real stragglers and real churn entering the
//!   same accounting as the engine's simulated axes.
//!
//! A remote transport reproduces the *default*
//! [`FederatedAlgorithm::local_step`](crate::FederatedAlgorithm::local_step)
//! (seeded [`local_update`](crate::local_update) under the algorithm's
//! train config) on the worker side. No algorithm in this workspace
//! overrides `local_step`; one that did could not train its cohort
//! remotely and must keep using [`LocalTransport`].

use crate::codec::CodecSpec;
use crate::comm::CommLedger;
use crate::party::{Party, PartyId};
use crate::population::PopulationView;
use crate::scenario::ScenarioEngine;
use crate::update::ModelUpdate;

/// What came back (or didn't) for one cohort member's upload.
#[derive(Debug, Clone, PartialEq)]
pub enum UploadOutcome {
    /// The update completed its wire roundtrip: this is the decoded update
    /// exactly as the aggregator sees it (post-codec, post-simulated-attack
    /// for [`LocalTransport`]; decoded from the real socket frame for a
    /// networked transport).
    Delivered(ModelUpdate),
    /// The party trained (or was asked to) but its upload never arrived:
    /// a real mid-round disconnect or a socket stalled past the round
    /// deadline. [`ScenarioEngine::collect`] meters the loss as an aborted
    /// upload at the exact frame size and reports the party lost.
    Lost(PartyId),
}

/// Everything the driver resolved about one stream's exchange before
/// handing it to the transport: the stream key, the raw globals to encode,
/// the codec the round runs under (post-adaptive-controller), the cohort in
/// training/aggregation order, and one pre-drawn training seed per member.
///
/// Seeds are drawn by the driver from its own RNG *before* the exchange,
/// in cohort order — a networked coordinator therefore draws exactly the
/// same seeds as the in-process driver, which is what makes the sync
/// loopback path bit-identical.
#[derive(Debug)]
pub struct CohortExchange<'a> {
    /// Update-stream key.
    pub key: usize,
    /// Raw (pre-encode) global parameters of the stream.
    pub globals: &'a [f32],
    /// The codec this stream's round runs under.
    pub codec: &'a CodecSpec,
    /// Cohort in training and aggregation order.
    pub cohort: &'a [PartyId],
    /// One pre-drawn local-training seed per cohort member, same order.
    pub seeds: &'a [u64],
}

/// One party's local step: `(party, decoded_broadcast, seed) → update`.
/// The driver passes a closure delegating to
/// [`FederatedAlgorithm::local_step`](crate::FederatedAlgorithm::local_step).
pub type LocalStepFn<'a> = dyn FnMut(&Party, &[f32], u64) -> ModelUpdate + 'a;

/// The seam between the round driver and wherever cohort training runs.
///
/// An implementation owns the full broadcast → train → upload leg of one
/// stream's round: it must call [`ScenarioEngine::broadcast`] exactly once
/// (the engine is the metering and first-contact authority for both the
/// local and the networked path) and return one [`UploadOutcome`] per
/// cohort member **in cohort order** — aggregation order is part of the
/// bit-reproducibility contract.
pub trait CohortTransport {
    /// Executes one stream's exchange for this round.
    fn exchange(
        &mut self,
        exchange: &CohortExchange<'_>,
        live: &PopulationView<'_>,
        engine: &mut ScenarioEngine,
        ledger: Option<&CommLedger>,
        local_step: &mut LocalStepFn<'_>,
    ) -> Vec<UploadOutcome>;

    /// Called by the driver once per round, after every stream's exchange
    /// has been folded. A networked transport closes the round on the wire
    /// (workers learn their stragglers' uploads were dropped); the local
    /// transport has nothing to do.
    fn round_complete(&mut self, engine: &mut ScenarioEngine) {
        let _ = engine;
    }
}

/// The in-process transport: cohort members are lent by the population
/// view, trained in this process, and their uploads shipped
/// through the engine's simulated wire
/// ([`ScenarioEngine::transport_upload`] — codec roundtrip, error
/// feedback, wire-level attack corruption).
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalTransport;

impl CohortTransport for LocalTransport {
    fn exchange(
        &mut self,
        x: &CohortExchange<'_>,
        live: &PopulationView<'_>,
        engine: &mut ScenarioEngine,
        ledger: Option<&CommLedger>,
        local_step: &mut LocalStepFn<'_>,
    ) -> Vec<UploadOutcome> {
        // The round's working set: only the sampled cohort is lent —
        // borrowed from a resident provider, built by a lazy one — and
        // dropping it at the end of this exchange is the eviction that
        // keeps residency O(cohort) regardless of population size.
        let cohort = live.parties(x.cohort);
        let bcast = engine.broadcast(x.key, x.globals, x.codec, x.cohort, ledger);
        let updates: Vec<ModelUpdate> = cohort
            .iter()
            .zip(x.seeds.iter())
            .map(|(party, &seed)| {
                // Each party trains from the frame it actually received:
                // veterans the regular (possibly delta-coded) decode,
                // first contacts their self-contained full-state decode.
                // Label-flip adversaries train honestly — on poisoned data.
                if engine.poisons_labels(party.id()) {
                    let poisoned = party.label_flipped();
                    local_step(&poisoned, bcast.state_for(party.id()), seed)
                } else {
                    local_step(party, bcast.state_for(party.id()), seed)
                }
            })
            .collect();
        drop(cohort);
        updates
            .into_iter()
            .map(|u| {
                UploadOutcome::Delivered(engine.transport_upload(x.key, u, x.codec, &bcast.decoded))
            })
            .collect()
    }
}
