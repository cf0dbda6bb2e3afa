//! Scenario-diverse federation: party churn, stragglers, and
//! staleness-aware asynchronous aggregation.
//!
//! The paper evaluates ShiftEx on a fixed synchronous protocol; real
//! deployments see parties joining and leaving, heterogeneous hardware that
//! misses round deadlines, and updates that arrive out of phase with the
//! round clock. This module composes those axes behind one [`ScenarioSpec`]:
//!
//! * **Churn** ([`ChurnSpec`] / [`ChurnSchedule`]) — join/leave schedules
//!   plus a seeded per-round Bernoulli dropout. Membership (join/leave)
//!   gates *selection*; transient dropout strikes *after* selection, so a
//!   dropped party has already trained and its upload is aborted mid-round
//!   (and metered as such on the [`CommLedger`]).
//! * **Stragglers** ([`StragglerSpec`]) — per-party delay distributions
//!   scored against a round deadline. Late updates are either dropped (an
//!   aborted upload) or deferred into the staleness buffer per
//!   [`LatePolicy`].
//! * **Asynchrony** ([`AsyncSpec`] via [`RoundMode::Async`]) — FedBuff-style
//!   buffered aggregation: updates accumulate until `min_buffer` of them
//!   have arrived, each weighted by `samples · (1 + staleness)^-α`, with
//!   updates staler than `max_staleness` discarded at flush time and the
//!   buffer average mixed into the global model at rate `server_lr`.
//!
//! All stochastic draws (dropout, join/leave placement, delays) are hash
//! -derived from the scenario seed rather than an RNG stream, so schedules
//! are reproducible across reruns regardless of call order, thread count or
//! how many other draws the simulation makes.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::codec::CodecSpec;
use crate::comm::{CommLedger, CommTotals};
use crate::join::{JoinConfig, JoinSync};
use crate::party::PartyId;
use crate::transport::UploadOutcome;
use crate::update::ModelUpdate;

// ---------------------------------------------------------------------------
// Seeded hash draws.

/// SplitMix64 finaliser: one well-mixed 64-bit output per distinct input.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic draw keyed by `(seed, salt, a, b)`.
fn draw(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    splitmix(splitmix(splitmix(seed ^ salt).wrapping_add(a)).wrapping_add(b))
}

/// Uniform `[0, 1)` draw keyed by `(seed, salt, a, b)`. Shared with the
/// adaptive codec controller so every seeded decision in the runtime uses
/// the same hash-draw discipline.
pub(crate) fn draw_unit(seed: u64, salt: u64, a: u64, b: u64) -> f32 {
    // 24 high-quality bits are plenty for an f32 in [0, 1).
    (draw(seed, salt, a, b) >> 40) as f32 / (1u64 << 24) as f32
}

const SALT_DROPOUT: u64 = 0xd0;
const SALT_JOIN_IF: u64 = 0x10;
const SALT_JOIN_AT: u64 = 0x11;
const SALT_LEAVE_IF: u64 = 0x1e;
const SALT_LEAVE_AT: u64 = 0x1f;
const SALT_DELAY: u64 = 0xde;
const SALT_SLOW: u64 = 0x51;
const SALT_ATTACKER: u64 = 0xa7;
const SALT_ATTACK_ON: u64 = 0xa0;
const SALT_ATTACK_NOISE: u64 = 0xa5;

// ---------------------------------------------------------------------------
// Churn.

/// Parametric churn process: staggered joins, scheduled leaves, and
/// transient per-round dropout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Fraction of parties that come online late.
    pub join_fraction: f32,
    /// Late joiners are placed uniformly over rounds `1..=join_ramp_rounds`.
    pub join_ramp_rounds: usize,
    /// Fraction of parties that permanently leave the federation.
    pub leave_fraction: f32,
    /// Leavers are placed uniformly over rounds `leave_after..horizon`.
    pub leave_after: usize,
    /// Exclusive upper bound for leave placement (simulation length).
    pub horizon: usize,
    /// Per-party per-round Bernoulli probability of dropping mid-round.
    pub dropout: f32,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        Self {
            join_fraction: 0.0,
            join_ramp_rounds: 1,
            leave_fraction: 0.0,
            leave_after: 1,
            horizon: usize::MAX,
            dropout: 0.0,
        }
    }
}

impl ChurnSpec {
    /// A spec with only transient dropout (no joins or leaves).
    pub fn dropout_only(p: f32) -> Self {
        Self {
            dropout: p,
            ..Self::default()
        }
    }
}

/// Materialised membership schedule: per-party join/leave rounds plus the
/// seeded transient dropout draw.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSchedule {
    joins: BTreeMap<PartyId, usize>,
    leaves: BTreeMap<PartyId, usize>,
    dropout: f32,
    seed: u64,
    /// Mid-round dropouts pinned by an external observer — a networked
    /// coordinator records a worker's *real* mid-round death here so the
    /// engine's loss accounting (aborted uploads, join-sync chunk losses)
    /// resolves real churn exactly as it resolves simulated churn.
    pinned_dropouts: BTreeSet<(PartyId, usize)>,
}

impl ChurnSchedule {
    /// Everyone always a member; optional transient dropout.
    pub fn always_on(dropout: f32, seed: u64) -> Self {
        Self {
            joins: BTreeMap::new(),
            leaves: BTreeMap::new(),
            dropout,
            seed,
            pinned_dropouts: BTreeSet::new(),
        }
    }

    /// Realises a [`ChurnSpec`] over a concrete population. Placement is
    /// hash-derived from `seed`, so the same spec + seed + population gives
    /// the same schedule on every rerun.
    pub fn from_spec(spec: &ChurnSpec, parties: &[PartyId], seed: u64) -> Self {
        let mut joins = BTreeMap::new();
        let mut leaves = BTreeMap::new();
        for &p in parties {
            let pid = p.0 as u64;
            if spec.join_fraction > 0.0
                && draw_unit(seed, SALT_JOIN_IF, pid, 0) < spec.join_fraction
            {
                let ramp = spec.join_ramp_rounds.max(1) as u64;
                let at = 1 + (draw(seed, SALT_JOIN_AT, pid, 0) % ramp) as usize;
                joins.insert(p, at);
            }
            if spec.leave_fraction > 0.0
                && draw_unit(seed, SALT_LEAVE_IF, pid, 0) < spec.leave_fraction
            {
                let span = spec.horizon.saturating_sub(spec.leave_after).max(1) as u64;
                let at = spec.leave_after + (draw(seed, SALT_LEAVE_AT, pid, 0) % span) as usize;
                leaves.insert(p, at);
            }
        }
        Self {
            joins,
            leaves,
            dropout: spec.dropout,
            seed,
            pinned_dropouts: BTreeSet::new(),
        }
    }

    /// Pins an explicit join round for `party` (overrides the spec draw).
    pub fn with_join(mut self, party: PartyId, round: usize) -> Self {
        self.joins.insert(party, round);
        self
    }

    /// Pins an explicit leave round for `party` (overrides the spec draw).
    pub fn with_leave(mut self, party: PartyId, round: usize) -> Self {
        self.leaves.insert(party, round);
        self
    }

    /// Pins a leave round in place (no rebuild): a networked coordinator
    /// observed `party`'s worker disconnect, so the party is no longer
    /// enrolled from `round` on. Real churn entering the same membership
    /// gate as the spec-drawn schedule.
    pub fn pin_leave(&mut self, party: PartyId, round: usize) {
        self.leaves.insert(party, round);
    }

    /// Pins a mid-round dropout in place: `party`'s upload (and any join
    /// frames in flight to it) at `round` was really lost — its socket
    /// died or stalled past the round deadline. [`Self::drops_out`]
    /// reports pinned losses exactly like seeded Bernoulli ones, so the
    /// engine's abort metering and join-loss refunds apply unchanged.
    pub fn pin_dropout(&mut self, party: PartyId, round: usize) {
        self.pinned_dropouts.insert((party, round));
    }

    /// Is `party` enrolled at `round` (joined and not yet left)?
    pub fn is_member(&self, party: PartyId, round: usize) -> bool {
        let joined = self.joins.get(&party).is_none_or(|&j| round >= j);
        let left = self.leaves.get(&party).is_some_and(|&l| round >= l);
        joined && !left
    }

    /// Does `party` drop out mid-round at `round` — either by the seeded
    /// Bernoulli draw or because real churn was pinned
    /// ([`Self::pin_dropout`])?
    pub fn drops_out(&self, party: PartyId, round: usize) -> bool {
        self.pinned_dropouts.contains(&(party, round))
            || (self.dropout > 0.0
                && draw_unit(self.seed, SALT_DROPOUT, party.0 as u64, round as u64) < self.dropout)
    }

    /// A member that does not drop out this round.
    pub fn is_live(&self, party: PartyId, round: usize) -> bool {
        self.is_member(party, round) && !self.drops_out(party, round)
    }

    /// Filters `pool` down to enrolled members at `round`.
    pub fn members(&self, pool: &[PartyId], round: usize) -> Vec<PartyId> {
        pool.iter()
            .copied()
            .filter(|&p| self.is_member(p, round))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Stragglers.

/// Per-party simulated update delay, in round-lengths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DelayDist {
    /// Every update takes exactly this long.
    Constant(f32),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
    /// Exponential with the given mean (heavy straggler tail).
    Exponential {
        /// Mean delay.
        mean: f32,
    },
}

impl DelayDist {
    /// Inverse-CDF sample from a uniform `[0, 1)` draw.
    fn sample(&self, u: f32) -> f32 {
        match *self {
            DelayDist::Constant(d) => d,
            DelayDist::Uniform { lo, hi } => lo + (hi - lo).max(0.0) * u,
            DelayDist::Exponential { mean } => -mean * (1.0 - u).max(f32::MIN_POSITIVE).ln(),
        }
    }
}

/// What happens to an update that misses the round deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatePolicy {
    /// The upload is aborted and the work wasted.
    Drop,
    /// The update arrives in a later round and is staleness-discounted.
    Defer,
}

/// Straggler model: delay distribution, systematic slow parties, and a
/// round deadline with a late policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerSpec {
    /// Base delay distribution shared by all parties.
    pub dist: DelayDist,
    /// Fraction of parties that are systematically slow.
    pub slow_fraction: f32,
    /// Delay multiplier applied to slow parties.
    pub slow_factor: f32,
    /// Round deadline, in the same units as [`StragglerSpec::dist`].
    pub deadline: f32,
    /// Fate of updates that miss the deadline.
    pub late: LatePolicy,
}

impl StragglerSpec {
    /// Uniform delays on `[0, 2·mean)` with a deadline and late policy.
    pub fn uniform(mean: f32, deadline: f32, late: LatePolicy) -> Self {
        Self {
            dist: DelayDist::Uniform {
                lo: 0.0,
                hi: 2.0 * mean,
            },
            slow_fraction: 0.0,
            slow_factor: 1.0,
            deadline,
            late,
        }
    }

    /// Simulated delay for `party`'s update born at `round`.
    pub fn delay(&self, seed: u64, round: usize, party: PartyId) -> f32 {
        let u = draw_unit(seed, SALT_DELAY, party.0 as u64, round as u64);
        let slow = self.slow_fraction > 0.0
            && draw_unit(seed, SALT_SLOW, party.0 as u64, 0) < self.slow_fraction;
        self.dist.sample(u) * if slow { self.slow_factor.max(1.0) } else { 1.0 }
    }

    /// How many rounds after its birth round the update arrives
    /// (0 = on time, i.e. within the deadline).
    pub fn arrival_offset(&self, seed: u64, round: usize, party: PartyId) -> usize {
        let delay = self.delay(seed, round, party);
        if self.deadline <= 0.0 {
            return 0;
        }
        ((delay / self.deadline).ceil() as usize).saturating_sub(1)
    }
}

// ---------------------------------------------------------------------------
// Asynchrony.

/// Staleness-aware buffered (FedBuff-style) aggregation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncSpec {
    /// Minimum buffered updates before an aggregation fires.
    pub min_buffer: usize,
    /// Staleness discount exponent α: weight ∝ `samples · (1+s)^-α`.
    pub staleness_alpha: f32,
    /// Updates staler than this many rounds are discarded at flush time.
    pub max_staleness: usize,
    /// Server mixing rate η: `params ← (1-η)·global + η·buffer_average`.
    pub server_lr: f32,
}

impl Default for AsyncSpec {
    fn default() -> Self {
        Self {
            min_buffer: 1,
            staleness_alpha: 0.5,
            max_staleness: 4,
            server_lr: 1.0,
        }
    }
}

/// Synchronous (classic FedAvg round clock) or asynchronous (buffered)
/// aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RoundMode {
    /// Aggregate whatever arrived by each round's deadline.
    Sync,
    /// Buffered staleness-aware aggregation.
    Async(AsyncSpec),
}

// ---------------------------------------------------------------------------
// Byzantine / faulty parties.

/// What a hostile party does to its contribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackKind {
    /// Reflect the trained parameters through the broadcast reference:
    /// `p ← 2·ref − p`, i.e. the exact negation of the party's real
    /// gradient step — the classic model-poisoning primitive.
    SignFlip,
    /// Gradient inflation: scale the party's step away from the reference
    /// by `factor` and add seeded noise of the same magnitude, so the
    /// update is both oversized and misdirected.
    ScaledNoise {
        /// Step-inflation multiplier (honest = 1).
        factor: f32,
    },
    /// Data poisoning: the party trains honestly but on flipped labels
    /// (`l ← C−1−l`), producing a plausible-looking but harmful update.
    /// Applied at local-training time by the round driver; the wire layer
    /// passes the update through untouched.
    LabelFlip,
}

/// When an attacker actually attacks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackSchedule {
    /// Every round the attacker participates.
    Always,
    /// Seeded per-round Bernoulli: attack with probability `prob`, behave
    /// honestly otherwise — evades naive per-round anomaly thresholds.
    Intermittent {
        /// Per-round attack probability.
        prob: f32,
    },
    /// Sleeper agent: honest until `from_round`, hostile from then on —
    /// builds up selector reputation before striking.
    Sleeper {
        /// First hostile round (1-based, inclusive).
        from_round: usize,
    },
}

/// The adversary axis of a scenario: a seeded fraction of the population is
/// assigned an attacker role, activated per round by a schedule. Assignment
/// and activation are hash-derived from the scenario seed exactly like
/// churn and straggler fates, so hostile runs are rerun-deterministic and
/// compose with every other axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackSpec {
    /// What attackers do.
    pub kind: AttackKind,
    /// Fraction of the population assigned the attacker role.
    pub fraction: f32,
    /// When assigned attackers are actually hostile.
    pub schedule: AttackSchedule,
}

impl AttackSpec {
    /// An always-on attack over `fraction` of the population.
    pub fn new(kind: AttackKind, fraction: f32) -> Self {
        Self {
            kind,
            fraction,
            schedule: AttackSchedule::Always,
        }
    }

    /// Swaps in an activation schedule.
    pub fn with_schedule(mut self, schedule: AttackSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Is `party` assigned the attacker role under `seed`?
    pub fn is_attacker(&self, seed: u64, party: PartyId) -> bool {
        self.fraction > 0.0 && draw_unit(seed, SALT_ATTACKER, party.0 as u64, 0) < self.fraction
    }

    /// Is `party` actively hostile at `round`?
    pub fn active(&self, seed: u64, party: PartyId, round: usize) -> bool {
        self.is_attacker(seed, party)
            && match self.schedule {
                AttackSchedule::Always => true,
                AttackSchedule::Intermittent { prob } => {
                    draw_unit(seed, SALT_ATTACK_ON, party.0 as u64, round as u64) < prob
                }
                AttackSchedule::Sleeper { from_round } => round >= from_round,
            }
    }

    /// Applies the wire-level corruption (sign-flip, scaled-noise) to an
    /// update trained against `reference`. [`AttackKind::LabelFlip`] is a
    /// training-time attack and leaves the upload untouched here.
    fn corrupt(&self, seed: u64, round: usize, reference: &[f32], update: &mut ModelUpdate) {
        let refc = |i: usize| reference.get(i).copied().unwrap_or(0.0);
        match self.kind {
            AttackKind::SignFlip => {
                for (i, p) in update.params.iter_mut().enumerate() {
                    *p = 2.0 * refc(i) - *p;
                }
            }
            AttackKind::ScaledNoise { factor } => {
                let n = update.params.len().max(1);
                let rms = (update
                    .params
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        let d = p - refc(i);
                        d * d
                    })
                    .sum::<f32>()
                    / n as f32)
                    .sqrt();
                let pid = update.party.0 as u64;
                for (i, p) in update.params.iter_mut().enumerate() {
                    let key = ((round as u64) << 32) | i as u64;
                    let noise = 2.0 * draw_unit(seed, SALT_ATTACK_NOISE, pid, key) - 1.0;
                    *p = refc(i) + factor * (*p - refc(i)) + factor * rms * noise;
                }
            }
            AttackKind::LabelFlip => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The composed scenario.

/// A federation scenario: churn × stragglers × round mode × attacks, all
/// seeded — the four orthogonal axes compose over any algorithm.
///
/// ```
/// use shiftex_fl::{
///     AttackKind, AttackSpec, ChurnSpec, LatePolicy, ScenarioSpec, StragglerSpec,
/// };
///
/// let spec = ScenarioSpec::sync(7)
///     .with_churn(ChurnSpec::dropout_only(0.2))
///     .with_stragglers(StragglerSpec::uniform(0.8, 1.0, LatePolicy::Defer))
///     .with_attack(AttackSpec::new(AttackKind::SignFlip, 0.1));
/// // Sync rounds fold deferred updates at harmonic staleness discount...
/// assert_eq!(spec.staleness_weight(0), 1.0);
/// assert_eq!(spec.staleness_weight(3), 0.25);
/// // ...and every per-party fate is a pure function of the seed.
/// let rerun = ScenarioSpec::sync(7).with_churn(ChurnSpec::dropout_only(0.2));
/// assert_eq!(spec.churn, rerun.churn);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Churn process, if any.
    pub churn: Option<ChurnSpec>,
    /// Straggler model, if any.
    pub stragglers: Option<StragglerSpec>,
    /// Aggregation discipline.
    pub mode: RoundMode,
    /// Byzantine adversary, if any (absent in serialized specs from before
    /// the adversary axis — the shim decodes a missing key as `None`).
    pub attack: Option<AttackSpec>,
    /// Seed for every hash-derived draw in this scenario.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The paper's baseline: synchronous, no churn, no stragglers.
    pub fn sync(seed: u64) -> Self {
        Self {
            churn: None,
            stragglers: None,
            mode: RoundMode::Sync,
            attack: None,
            seed,
        }
    }

    /// Adds a churn process.
    pub fn with_churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Adds a straggler model.
    pub fn with_stragglers(mut self, stragglers: StragglerSpec) -> Self {
        self.stragglers = Some(stragglers);
        self
    }

    /// Switches to asynchronous buffered aggregation.
    pub fn with_async(mut self, spec: AsyncSpec) -> Self {
        self.mode = RoundMode::Async(spec);
        self
    }

    /// Adds a Byzantine adversary.
    pub fn with_attack(mut self, attack: AttackSpec) -> Self {
        self.attack = Some(attack);
        self
    }

    /// Staleness discount weight for an update `staleness` rounds old.
    ///
    /// Sync scenarios use α = 1 for deferred updates; async scenarios use
    /// their configured exponent.
    pub fn staleness_weight(&self, staleness: usize) -> f32 {
        let alpha = match self.mode {
            RoundMode::Sync => 1.0,
            RoundMode::Async(a) => a.staleness_alpha,
        };
        (1.0 + staleness as f32).powf(-alpha)
    }

    /// Maximum tolerated staleness before an arrived update is discarded.
    pub fn max_staleness(&self) -> usize {
        match self.mode {
            RoundMode::Sync => usize::MAX,
            RoundMode::Async(a) => a.max_staleness,
        }
    }
}

// ---------------------------------------------------------------------------
// Participation accounting.

/// Aggregate participation/liveness counters for one scenario run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParticipationStats {
    /// Cohort slots filled (parties that started local training).
    pub selected: u64,
    /// Updates folded into an aggregation.
    pub delivered: u64,
    /// Updates aborted because the party dropped out mid-round.
    pub dropped_churn: u64,
    /// Updates aborted for missing the deadline under [`LatePolicy::Drop`].
    pub dropped_late: u64,
    /// Updates deferred past their birth round under [`LatePolicy::Defer`].
    pub deferred: u64,
    /// Arrived updates discarded for exceeding the staleness bound.
    pub stale_dropped: u64,
    /// Aggregations performed (buffer flushes that folded ≥ 1 update).
    pub aggregations: u64,
}

impl ParticipationStats {
    /// Component-wise difference (`self` − `earlier`): per-round deltas from
    /// two cumulative snapshots.
    pub fn minus(&self, earlier: &ParticipationStats) -> ParticipationStats {
        ParticipationStats {
            selected: self.selected - earlier.selected,
            delivered: self.delivered - earlier.delivered,
            dropped_churn: self.dropped_churn - earlier.dropped_churn,
            dropped_late: self.dropped_late - earlier.dropped_late,
            deferred: self.deferred - earlier.deferred,
            stale_dropped: self.stale_dropped - earlier.stale_dropped,
            aggregations: self.aggregations - earlier.aggregations,
        }
    }
}

/// Per-round participation record of a scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundParticipation {
    /// 1-based round index.
    pub round: usize,
    /// Enrolled members this round (after join/leave churn).
    pub live: usize,
    /// This round's counter deltas (selected/delivered/dropped/…).
    pub delta: ParticipationStats,
    /// Population accuracy on the live members after the round.
    pub accuracy: f32,
    /// Encoded upstream bytes this round, including aborted uploads (the
    /// traffic was paid either way).
    pub up_bytes: u64,
    /// Encoded downstream (broadcast) bytes this round, to recipients that
    /// already held the stream's broadcast reference.
    pub down_bytes: u64,
    /// Encoded bytes of first-contact full-state downlinks this round (new
    /// joiners, round-1 cohorts) — distinct so join costs are visible.
    pub first_contact_down_bytes: u64,
    /// Updates a robust fold quarantined this round.
    pub quarantined: u64,
    /// Largest fold distance score this round (0 under the mean fold).
    pub fold_score: f32,
}

/// An update ready for aggregation, with its staleness discount applied.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedUpdate {
    /// The party's update.
    pub update: ModelUpdate,
    /// Rounds elapsed since the update was trained.
    pub staleness: usize,
    /// Aggregation weight (`samples · staleness discount`).
    pub weight: f32,
}

/// Fate of one round's fresh updates on one stream, plus whatever matured
/// from the buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundDelivery {
    /// Updates to aggregate now, staleness-weighted.
    pub ready: Vec<WeightedUpdate>,
    /// Parties whose uploads were aborted this round (the transport lost
    /// them, mid-round dropout, or late-drop), each once, in cohort order
    /// — feedback for availability-aware selectors.
    pub lost: Vec<PartyId>,
}

/// What one [`ScenarioEngine::broadcast`] call delivered.
///
/// Veterans of the stream decode the regular (possibly delta-coded) frame;
/// first-contact recipients decode the self-contained full-state frame
/// they were metered for. [`state_for`](Self::state_for) hands each party
/// the state it actually received, and the two specs say which frames were
/// metered, so a networked transport ships exactly those.
#[derive(Debug, Clone)]
pub struct BroadcastDelivery {
    /// Spec of the regular frame metered for every veteran recipient.
    pub spec: CodecSpec,
    /// Spec of the monolithic first-contact frame metered for every
    /// [`fresh`](Self::fresh) recipient; `None` on the chunked join path,
    /// where fresh recipients are shipped their in-flight
    /// [`JoinSync`] chunks instead.
    pub fresh_spec: Option<CodecSpec>,
    /// Decoded regular frame — also the stream's next delta reference.
    pub decoded: Vec<f32>,
    /// Decoded self-contained first-contact frame, when any recipient saw
    /// the stream for the first time *and* it differs from the regular
    /// frame (`None` otherwise).
    pub first_contact: Option<Vec<f32>>,
    /// Recipients that received the first-contact frame this round.
    pub fresh: BTreeSet<PartyId>,
    /// Per-party decodes on the chunked join path
    /// ([`ScenarioEngine::enable_join_chunking`]): a resuming party trains
    /// from the snapshot taken when *its* sync began, which can differ per
    /// party. Empty when join chunking is off.
    pub join_states: BTreeMap<PartyId, Vec<f32>>,
}

impl BroadcastDelivery {
    /// The decoded global state `party` trains from this round.
    pub fn state_for(&self, party: PartyId) -> &[f32] {
        if let Some(state) = self.join_states.get(&party) {
            return state;
        }
        match &self.first_contact {
            Some(fc) if self.fresh.contains(&party) => fc,
            _ => &self.decoded,
        }
    }
}

// ---------------------------------------------------------------------------
// Engine.

#[derive(Debug, Clone)]
struct PendingUpdate {
    update: ModelUpdate,
    born: usize,
    arrives: usize,
}

/// Stateful executor of a [`ScenarioSpec`]: owns the round clock, the churn
/// schedule, and one staleness buffer per update stream (stream 0 for a
/// single global model; one stream per expert for mixture strategies).
#[derive(Debug)]
pub struct ScenarioEngine {
    spec: ScenarioSpec,
    churn: ChurnSchedule,
    buffers: BTreeMap<usize, Vec<PendingUpdate>>,
    /// Last decoded broadcast per stream: the reference both endpoints hold
    /// for delta-coded downlinks.
    last_broadcast: BTreeMap<usize, Vec<f32>>,
    /// Parties that have received at least one broadcast per stream. A
    /// recipient outside this set is a first contact: it gets a
    /// self-contained full-state frame, metered distinctly.
    contacted: BTreeMap<usize, std::collections::BTreeSet<PartyId>>,
    /// Per-(stream, party) error-feedback accumulators for codecs with
    /// [`CodecSpec::error_feedback`] set.
    ef_residuals: BTreeMap<(usize, PartyId), Vec<f32>>,
    /// Chunked-join configuration; `None` keeps the monolithic
    /// first-contact frame (the byte-pinned legacy path).
    join: Option<JoinConfig>,
    /// In-progress chunked first-contact syncs per `(stream, party)`.
    /// Entries are dropped once the sync completes and survives its round.
    join_syncs: BTreeMap<(usize, PartyId), JoinSync>,
    /// Join deliveries awaiting their round's churn verdict, per stream:
    /// `(monolithic frame bytes billed, round shipped)` — bytes are 0 on
    /// the chunked path, where the `JoinSync` itself tracks the in-flight
    /// chunks. Resolved — acked or refunded as lost — when the stream's
    /// `collect` runs.
    pending_joins: BTreeMap<usize, BTreeMap<PartyId, (u64, usize)>>,
    round: usize,
    stats: ParticipationStats,
    /// Every byte this engine's rounds put on the wire.
    ledger: CommLedger,
}

impl ScenarioEngine {
    /// Builds the engine, realising the churn schedule over `parties`.
    pub fn new(spec: ScenarioSpec, parties: &[PartyId]) -> Self {
        let churn = match &spec.churn {
            Some(c) => ChurnSchedule::from_spec(c, parties, spec.seed),
            None => ChurnSchedule::always_on(0.0, spec.seed),
        };
        Self {
            spec,
            churn,
            buffers: BTreeMap::new(),
            last_broadcast: BTreeMap::new(),
            contacted: BTreeMap::new(),
            ef_residuals: BTreeMap::new(),
            join: None,
            join_syncs: BTreeMap::new(),
            pending_joins: BTreeMap::new(),
            round: 0,
            stats: ParticipationStats::default(),
            ledger: CommLedger::new(),
        }
    }

    /// Switches first-contact sync onto the chunked, resumable
    /// [`JoinSync`] path: joiners receive the full-state frame encoded
    /// under `config.codec` in bounded-size chunks, metered on the
    /// ledger's `join_chunk_*` counters; a sync interrupted by mid-round
    /// churn resumes at the next contact, re-shipping only the lost
    /// chunks. Off by default — the monolithic path stays byte-identical.
    pub fn enable_join_chunking(&mut self, config: JoinConfig) {
        self.join = Some(config);
    }

    /// The in-progress chunked join sync for `(key, party)`, if any. A
    /// networked coordinator reads the in-flight chunk payloads from here
    /// right after [`ScenarioEngine::broadcast`] put them in flight — the
    /// bytes it must actually write to the party's socket.
    pub fn join_sync(&self, key: usize, party: PartyId) -> Option<&JoinSync> {
        self.join_syncs.get(&(key, party))
    }

    /// Mean absolute error-feedback residual accumulated on stream `key`
    /// across all parties — the adaptive codec controller's signal for how
    /// much mass lossy uploads are still withholding. 0 when no EF codec
    /// has run on the stream.
    pub fn ef_magnitude(&self, key: usize) -> f32 {
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for ((k, _), acc) in &self.ef_residuals {
            if *k == key {
                sum += acc.iter().map(|v| v.abs() as f64).sum::<f64>();
                n += acc.len();
            }
        }
        if n == 0 {
            0.0
        } else {
            (sum / n as f64) as f32
        }
    }

    /// The scenario being executed.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The realised churn schedule.
    pub fn churn(&self) -> &ChurnSchedule {
        &self.churn
    }

    /// Mutable access to the churn schedule (pin explicit join/leave rounds
    /// on top of the spec-derived draws).
    pub fn churn_mut(&mut self) -> &mut ChurnSchedule {
        &mut self.churn
    }

    /// Current round (0 before the first [`ScenarioEngine::begin_round`]).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Cumulative participation counters.
    pub fn stats(&self) -> ParticipationStats {
        self.stats
    }

    /// Cumulative communication counters: every broadcast, upload and
    /// join frame this engine has metered.
    pub fn comm(&self) -> CommTotals {
        self.ledger.totals()
    }

    /// Updates currently waiting in stream `key`'s buffer.
    pub fn buffered(&self, key: usize) -> usize {
        self.buffers.get(&key).map_or(0, Vec::len)
    }

    /// Advances the round clock; returns the new round index (1-based).
    pub fn begin_round(&mut self) -> usize {
        self.round += 1;
        self.round
    }

    /// Enrolled members of `pool` this round (join/leave only; transient
    /// dropout strikes later, mid-round).
    pub fn live_members(&self, pool: &[PartyId]) -> Vec<PartyId> {
        self.churn.members(pool, self.round)
    }

    /// Broadcasts the global model on stream `key` to `recipients`: encodes
    /// it under `codec` against the stream's previous broadcast (the delta
    /// reference both endpoints hold), meters one encoded frame per
    /// recipient, and returns the **decoded** states the parties train
    /// from ([`BroadcastDelivery::state_for`]). With no recipients nothing
    /// is sent — the globals pass through unencoded and the stored
    /// reference stays put.
    ///
    /// Recipients seeing the stream for the first time (round-1 cohorts,
    /// new joiners) hold no reference, so they receive a self-contained
    /// full-state frame ([`CodecSpec::first_contact_spec`]) instead — both
    /// metered on the ledger's distinct `first_contact_*` counters *and*
    /// decoded separately, so what a joiner trains from matches the frame
    /// it was billed for.
    pub fn broadcast(
        &mut self,
        key: usize,
        global: &[f32],
        codec: &CodecSpec,
        recipients: &[PartyId],
    ) -> BroadcastDelivery {
        let reference = self.last_broadcast.get(&key).map_or(&[][..], Vec::as_slice);
        // First broadcast on a stream has no delta reference: sparsified
        // downlinks fall back to a dense full-state frame (see
        // [`CodecSpec::broadcast_spec`]).
        let bspec = codec.broadcast_spec(!reference.is_empty());
        if recipients.is_empty() {
            return BroadcastDelivery {
                spec: bspec,
                fresh_spec: None,
                decoded: global.to_vec(),
                first_contact: None,
                fresh: BTreeSet::new(),
                join_states: BTreeMap::new(),
            };
        }
        let decoded = bspec.transport(global.to_vec(), reference);
        let frame = bspec.broadcast_len(global.len());
        let contacted = self.contacted.entry(key).or_default();
        let fresh: BTreeSet<PartyId> = recipients
            .iter()
            .copied()
            .filter(|p| !contacted.contains(p))
            .collect();
        let mut join_states = BTreeMap::new();
        if let Some(join) = self.join {
            // Chunked path: each fresh recipient has (or starts) a
            // per-party sync; every chunk it is still owed ships now,
            // metered exactly. The party trains from its own snapshot
            // decode; it is only marked contacted once the sync completes
            // *and* survives the round (see `collect`).
            for &p in &fresh {
                let sync = self
                    .join_syncs
                    .entry((key, p))
                    .or_insert_with(|| JoinSync::begin(global, &join));
                let (bytes, chunks) = sync.ship_missing();
                self.ledger.record_join_chunks(bytes, chunks);
                if let Some(state) = sync.decoded() {
                    join_states.insert(p, state);
                }
                self.pending_joins
                    .entry(key)
                    .or_default()
                    .insert(p, (0, self.round));
            }
            for p in recipients {
                if !fresh.contains(p) {
                    self.ledger.record_download(frame);
                }
            }
            self.last_broadcast.insert(key, decoded.clone());
            return BroadcastDelivery {
                spec: bspec,
                fresh_spec: None,
                decoded,
                first_contact: None,
                fresh,
                join_states,
            };
        }
        let fc_spec = codec.first_contact_spec();
        // When the specs coincide neither stage is delta-coded, so both
        // frames decode identically — no separate first-contact state.
        let first_contact = if fresh.is_empty() || fc_spec == bspec {
            None
        } else {
            Some(fc_spec.transport(global.to_vec(), &[]))
        };
        let first_frame = fc_spec.broadcast_len(global.len());
        for p in recipients {
            if fresh.contains(p) {
                self.ledger.record_first_contact_download(first_frame);
            } else {
                self.ledger.record_download(frame);
            }
        }
        // A fresh recipient's monolithic frame is provisional until the
        // round's churn verdict: if the party crashes mid-round the frame
        // is lost with it, the spend is overlaid as lost, and the party is
        // un-marked so the sync restarts honestly on its next contact.
        for &p in &fresh {
            self.pending_joins
                .entry(key)
                .or_default()
                .insert(p, (first_frame as u64, self.round));
        }
        contacted.extend(recipients.iter().copied());
        self.last_broadcast.insert(key, decoded.clone());
        BroadcastDelivery {
            spec: bspec,
            fresh_spec: Some(fc_spec),
            decoded,
            first_contact,
            fresh,
            join_states,
        }
    }

    /// The last decoded broadcast sent on stream `key`, if any.
    pub fn last_broadcast(&self, key: usize) -> Option<&[f32]> {
        self.last_broadcast.get(&key).map(Vec::as_slice)
    }

    /// Is `party` assigned the attacker role by this scenario's adversary?
    pub fn is_attacker(&self, party: PartyId) -> bool {
        self.spec
            .attack
            .as_ref()
            .is_some_and(|a| a.is_attacker(self.spec.seed, party))
    }

    /// Is `party` actively hostile this round (role assigned *and* the
    /// activation schedule fires)?
    pub fn attack_active(&self, party: PartyId) -> bool {
        self.spec
            .attack
            .as_ref()
            .is_some_and(|a| a.active(self.spec.seed, party, self.round))
    }

    /// Does `party` poison its training labels this round? Label-flip is a
    /// training-time attack, so the round driver consults this *before*
    /// local training rather than at upload time.
    pub fn poisons_labels(&self, party: PartyId) -> bool {
        matches!(
            self.spec.attack.map(|a| a.kind),
            Some(AttackKind::LabelFlip)
        ) && self.attack_active(party)
    }

    /// Ships one upload across the wire and back under `codec`, applying
    /// party-side error feedback when the spec asks for it: the engine owns
    /// one residual accumulator per `(stream, party)`, so coordinates a
    /// lossy upload drops are carried into the party's next upload instead
    /// of being lost. Without [`CodecSpec::error_feedback`] this is exactly
    /// [`ModelUpdate::transport`].
    ///
    /// This is also where wire-level attacks strike: an actively hostile
    /// party corrupts its update *before* encoding, so sign-flipped and
    /// inflated payloads ride the same codec (and are metered at the same
    /// exact encoded bytes) as honest ones.
    pub fn transport_upload(
        &mut self,
        key: usize,
        mut update: ModelUpdate,
        codec: &CodecSpec,
        reference: &[f32],
    ) -> ModelUpdate {
        if let Some(attack) = &self.spec.attack {
            if attack.active(self.spec.seed, update.party, self.round) {
                attack.corrupt(self.spec.seed, self.round, reference, &mut update);
            }
        }
        if !codec.error_feedback {
            return update.transport(codec, reference);
        }
        let acc = self.ef_residuals.entry((key, update.party)).or_default();
        update.transport_with_feedback(codec, reference, acc)
    }

    /// Decides the fate of every cohort member's upload on stream `key`
    /// this round — the one place a fate is decided — then flushes
    /// whatever the round mode says is ready to aggregate.
    ///
    /// `outcomes` are the transport's, one per cohort member in cohort
    /// order. A [`UploadOutcome::Lost`] upload (a real disconnect or a
    /// socket stalled past the deadline) is aborted at the stream's
    /// full-frame upload size; it counts as churn when the party drops out
    /// this round (a networked transport pins the parties of a dead worker)
    /// and as a late drop otherwise. No parameters came back, so nothing is
    /// refunded. Delivered uploads then face the simulated dropout and
    /// straggler fates.
    ///
    /// Every upload is metered at its exact `codec` wire size: aborted
    /// uploads immediately, successful arrivals when they are flushed.
    pub fn collect(
        &mut self,
        key: usize,
        outcomes: Vec<UploadOutcome>,
        codec: &CodecSpec,
    ) -> RoundDelivery {
        let mut delivery = RoundDelivery::default();
        let round = self.round;
        let seed = self.spec.seed;
        self.resolve_pending_joins(key);
        self.stats.selected += outcomes.len() as u64;
        // Owned for the duration of the round so lost uploads can refund
        // the error-feedback accumulators without aliasing `self`.
        let mut buffer = self.buffers.remove(&key).unwrap_or_default();

        for outcome in outcomes {
            let update = match outcome {
                UploadOutcome::Delivered(update) => update,
                UploadOutcome::Lost(party) => {
                    let n = self.last_broadcast.get(&key).map_or(0, Vec::len);
                    self.ledger.record_aborted_upload(codec.update_len(n));
                    if self.churn.drops_out(party, round) {
                        self.stats.dropped_churn += 1;
                    } else {
                        self.stats.dropped_late += 1;
                    }
                    delivery.lost.push(party);
                    continue;
                }
            };
            let party = update.party;
            // Transient churn: the party crashed mid-round; its upload is
            // aborted (and the wasted bytes metered).
            if self.churn.drops_out(party, round) {
                self.ledger.record_aborted_upload(update.encoded_len(codec));
                self.stats.dropped_churn += 1;
                self.refund_feedback(key, codec, &update);
                delivery.lost.push(party);
                continue;
            }
            let offset = self
                .spec
                .stragglers
                .as_ref()
                .map_or(0, |s| s.arrival_offset(seed, round, party));
            if offset == 0 {
                buffer.push(PendingUpdate {
                    update,
                    born: round,
                    arrives: round,
                });
                continue;
            }
            match self.spec.stragglers.as_ref().map(|s| s.late) {
                Some(LatePolicy::Drop) => {
                    self.ledger.record_aborted_upload(update.encoded_len(codec));
                    self.stats.dropped_late += 1;
                    self.refund_feedback(key, codec, &update);
                    delivery.lost.push(party);
                }
                _ => {
                    self.stats.deferred += 1;
                    buffer.push(PendingUpdate {
                        update,
                        born: round,
                        arrives: round + offset,
                    });
                }
            }
        }

        // Flush: matured updates leave the buffer when the round mode allows.
        let matured = buffer.iter().filter(|p| p.arrives <= round).count();
        let flush = match self.spec.mode {
            RoundMode::Sync => matured > 0,
            RoundMode::Async(a) => matured >= a.min_buffer.max(1),
        };
        if flush {
            let mut kept = Vec::with_capacity(buffer.len() - matured);
            for pending in buffer.drain(..) {
                if pending.arrives > round {
                    kept.push(pending);
                    continue;
                }
                let staleness = round - pending.born;
                if staleness > self.spec.max_staleness() {
                    // Arrived, but too old to be useful: the upload happened
                    // (meter it) yet the work is discarded.
                    self.ledger.record_upload(pending.update.encoded_len(codec));
                    self.stats.stale_dropped += 1;
                    self.refund_feedback(key, codec, &pending.update);
                    continue;
                }
                self.ledger.record_upload(pending.update.encoded_len(codec));
                let weight =
                    pending.update.num_samples as f32 * self.spec.staleness_weight(staleness);
                delivery.ready.push(WeightedUpdate {
                    update: pending.update,
                    staleness,
                    weight,
                });
            }
            buffer = kept;
        }
        self.buffers.insert(key, buffer);

        self.stats.delivered += delivery.ready.len() as u64;
        if !delivery.ready.is_empty() {
            self.stats.aggregations += 1;
        }
        delivery
    }

    /// Resolves stream `key`'s join deliveries against their round's churn
    /// verdict — the downlink mirror of the lost-upload refund rules. A
    /// joiner that crashed mid-round never banked the frame it was billed
    /// for: on the monolithic path the spend is overlaid as lost
    /// (`join_lost_*`) and the party un-marked from `contacted`, so its
    /// next contact re-ships honestly instead of pretending it holds a
    /// reference; on the chunked path only the in-flight chunks are lost
    /// and the sync resumes where it left off. Survivors bank their
    /// chunks, and a completed chunked sync promotes the party to
    /// contacted.
    fn resolve_pending_joins(&mut self, key: usize) {
        let Some(pending) = self.pending_joins.remove(&key) else {
            return;
        };
        for (party, (bytes, born)) in pending {
            let dropped = self.churn.drops_out(party, born);
            if self.join.is_some() {
                let Some(sync) = self.join_syncs.get_mut(&(key, party)) else {
                    continue;
                };
                if dropped {
                    let (lost, chunks) = sync.lose_in_flight();
                    self.ledger.record_join_loss(lost, chunks);
                } else {
                    sync.ack_in_flight();
                    if sync.is_complete() {
                        self.contacted.entry(key).or_default().insert(party);
                        self.join_syncs.remove(&(key, party));
                    }
                }
            } else if dropped {
                self.ledger.record_join_loss(bytes as usize, 1);
                self.contacted.entry(key).or_default().remove(&party);
            }
        }
    }

    /// A lossy upload left the party but never reached an aggregation
    /// (mid-round dropout, late-drop, or a stale discard): put the *change*
    /// it carried — its decoded params minus the stream's broadcast
    /// reference, which is what actually crossed the wire under delta
    /// coding — back into the party's error-feedback accumulator, which at
    /// this point holds only the encode residual. Refunding the full
    /// decoded vector instead would inflate the next compensated upload by
    /// an entire model copy. For updates discarded as stale rounds after
    /// they were encoded, the *current* reference stands in for the one at
    /// encode time (both are delta-scale apart). No-op without
    /// [`CodecSpec::error_feedback`] or before any broadcast.
    fn refund_feedback(&mut self, key: usize, codec: &CodecSpec, update: &ModelUpdate) {
        if !codec.error_feedback {
            return;
        }
        let Some(reference) = self.last_broadcast.get(&key) else {
            return;
        };
        let acc = self.ef_residuals.entry((key, update.party)).or_default();
        acc.resize(update.params.len(), 0.0);
        for (i, (e, &shipped)) in acc.iter_mut().zip(update.params.iter()).enumerate() {
            *e += shipped - reference.get(i).copied().unwrap_or(0.0);
        }
    }

    /// A delivered update was quarantined by a robust fold: its bytes were
    /// paid and metered, so the refusal is overlaid on the ledger, but the
    /// change it carried never entered the globals — refund it into the
    /// party's error-feedback accumulator so lossy-codec parties re-ship
    /// the rejected mass rather than silently losing it (same refund as a
    /// lost upload; see the private `refund_feedback`'s rationale).
    pub(crate) fn quarantine(&mut self, key: usize, codec: &CodecSpec, update: &ModelUpdate) {
        self.ledger
            .record_quarantined_upload(update.encoded_len(codec));
        self.refund_feedback(key, codec, update);
    }
}

/// Staleness-weighted federated averaging with a server mixing rate.
///
/// Returns `None` when nothing can be aggregated (no updates, or all with
/// zero weight) — the caller keeps the current global parameters.
pub fn aggregate_weighted(
    global: &[f32],
    ready: &[WeightedUpdate],
    server_lr: f32,
) -> Option<Vec<f32>> {
    fold_weighted(global, ready.iter(), server_lr)
}

/// [`aggregate_weighted`] over any sequence of borrowed updates, so a robust
/// fold averages the updates it selected without copying them. Zero-weight
/// and zero-sample updates are inert ([`is_valid`]); the rest are summed in
/// sequence order.
pub(crate) fn fold_weighted<'a, I>(global: &[f32], ready: I, server_lr: f32) -> Option<Vec<f32>>
where
    I: Iterator<Item = &'a WeightedUpdate> + Clone,
{
    let valid = ready.filter(|w| is_valid(w));
    let total: f32 = valid.clone().map(|w| w.weight).sum();
    if total <= 0.0 {
        return None;
    }
    let mut avg = vec![0.0f32; global.len()];
    for w in valid {
        let scale = w.weight / total;
        for (acc, &p) in avg.iter_mut().zip(w.update.params.iter()) {
            *acc += scale * p;
        }
    }
    Some(blend(global, avg, server_lr))
}

/// Does this update carry aggregation weight? Zero-weight and zero-sample
/// updates are inert in every fold.
pub(crate) fn is_valid(w: &WeightedUpdate) -> bool {
    w.weight > 0.0 && w.update.num_samples > 0
}

/// Server-rate blend: `params ← (1-η)·global + η·avg` with η clamped to
/// `[0, 1]`.
pub(crate) fn blend(global: &[f32], mut avg: Vec<f32>, server_lr: f32) -> Vec<f32> {
    let eta = server_lr.clamp(0.0, 1.0);
    if eta < 1.0 {
        for (acc, &g) in avg.iter_mut().zip(global.iter()) {
            *acc = (1.0 - eta) * g + eta * *acc;
        }
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(party: usize, n: usize) -> ModelUpdate {
        ModelUpdate {
            party: PartyId(party),
            params: vec![party as f32; 4],
            num_samples: n,
            train_loss: 0.5,
        }
    }

    /// `updates` as a transport reports them: every one delivered.
    fn delivered(updates: Vec<ModelUpdate>) -> Vec<UploadOutcome> {
        updates.into_iter().map(UploadOutcome::Delivered).collect()
    }

    fn ids(n: usize) -> Vec<PartyId> {
        (0..n).map(PartyId).collect()
    }

    #[test]
    fn always_on_schedule_has_everyone_live() {
        let sched = ChurnSchedule::always_on(0.0, 1);
        for r in 0..20 {
            assert!(sched.is_live(PartyId(3), r));
        }
    }

    #[test]
    fn join_and_leave_rounds_gate_membership() {
        let sched = ChurnSchedule::always_on(0.0, 2)
            .with_join(PartyId(0), 3)
            .with_leave(PartyId(1), 5);
        assert!(!sched.is_member(PartyId(0), 2));
        assert!(sched.is_member(PartyId(0), 3));
        assert!(sched.is_member(PartyId(1), 4));
        assert!(!sched.is_member(PartyId(1), 5));
        assert_eq!(sched.members(&ids(3), 2), vec![PartyId(1), PartyId(2)]);
    }

    #[test]
    fn seeded_dropout_is_deterministic_across_reruns() {
        let spec = ChurnSpec {
            join_fraction: 0.3,
            join_ramp_rounds: 5,
            leave_fraction: 0.2,
            leave_after: 10,
            horizon: 30,
            dropout: 0.25,
        };
        let a = ChurnSchedule::from_spec(&spec, &ids(64), 7);
        let b = ChurnSchedule::from_spec(&spec, &ids(64), 7);
        assert_eq!(a, b);
        for r in 0..30 {
            for p in 0..64 {
                assert_eq!(a.is_live(PartyId(p), r), b.is_live(PartyId(p), r));
            }
        }
        // A different seed reshuffles the schedule.
        let c = ChurnSchedule::from_spec(&spec, &ids(64), 8);
        let agree = (0..30)
            .flat_map(|r| (0..64).map(move |p| (r, p)))
            .filter(|&(r, p)| a.is_live(PartyId(p), r) == c.is_live(PartyId(p), r))
            .count();
        assert!(agree < 30 * 64, "different seeds must differ somewhere");
    }

    #[test]
    fn dropout_rate_is_roughly_calibrated() {
        let sched = ChurnSchedule::always_on(0.3, 11);
        let total = 200 * 50;
        let dropped = (0..200usize)
            .flat_map(|p| (0..50usize).map(move |r| (p, r)))
            .filter(|&(p, r)| sched.drops_out(PartyId(p), r))
            .count();
        let rate = dropped as f32 / total as f32;
        assert!((rate - 0.3).abs() < 0.03, "observed dropout rate {rate}");
    }

    #[test]
    fn delay_distributions_respect_parameters() {
        let d = DelayDist::Constant(2.0);
        assert_eq!(d.sample(0.9), 2.0);
        let d = DelayDist::Uniform { lo: 1.0, hi: 3.0 };
        for i in 0..10 {
            let v = d.sample(i as f32 / 10.0);
            assert!((1.0..3.0).contains(&v));
        }
        let d = DelayDist::Exponential { mean: 2.0 };
        let mean: f32 = (0..1000)
            .map(|i| d.sample((i as f32 + 0.5) / 1000.0))
            .sum::<f32>()
            / 1000.0;
        assert!((mean - 2.0).abs() < 0.2, "exponential mean {mean}");
    }

    #[test]
    fn arrival_offset_buckets_by_deadline() {
        let s = StragglerSpec {
            dist: DelayDist::Constant(0.5),
            slow_fraction: 0.0,
            slow_factor: 1.0,
            deadline: 1.0,
            late: LatePolicy::Defer,
        };
        assert_eq!(s.arrival_offset(0, 1, PartyId(0)), 0);
        let s = StragglerSpec {
            dist: DelayDist::Constant(1.5),
            ..s
        };
        assert_eq!(s.arrival_offset(0, 1, PartyId(0)), 1);
        let s = StragglerSpec {
            dist: DelayDist::Constant(3.5),
            ..s
        };
        assert_eq!(s.arrival_offset(0, 1, PartyId(0)), 3);
    }

    #[test]
    fn lost_ef_upload_is_refunded_into_the_next_one() {
        let codec = CodecSpec::topk(0.5).with_delta().with_error_feedback();
        let spec = ScenarioSpec::sync(2).with_churn(ChurnSpec::dropout_only(1.0));
        let mut engine = ScenarioEngine::new(spec, &ids(1));
        engine.begin_round();
        // Establish the stream reference (all-zero globals) the refund is
        // computed against.
        let reference = engine.broadcast(0, &[0.0; 4], &codec, &ids(1)).decoded;
        let fresh = ModelUpdate {
            party: PartyId(0),
            params: vec![1.0, -2.0, 3.0, -4.0],
            num_samples: 10,
            train_loss: 0.5,
        };
        let shipped = engine.transport_upload(0, fresh, &codec, &reference);
        assert_eq!(shipped.params, vec![0.0, 0.0, 3.0, -4.0]);
        let d = engine.collect(0, delivered(vec![shipped]), &codec);
        assert_eq!(d.lost, vec![PartyId(0)]);
        // The aborted upload's shipped mass went back into the accumulator
        // (which already held the sparsification error), so a party with
        // zero fresh gradient re-ships the largest *lost* coordinates
        // rather than just the residual.
        engine.begin_round();
        let redo = engine.transport_upload(
            0,
            ModelUpdate {
                party: PartyId(0),
                params: vec![0.0; 4],
                num_samples: 10,
                train_loss: 0.5,
            },
            &codec,
            &reference,
        );
        assert_eq!(redo.params, vec![0.0, 0.0, 3.0, -4.0]);
    }

    #[test]
    fn first_contact_trains_from_the_frame_it_was_billed_for() {
        // Established stream + sparse delta downlink: the veteran decodes
        // the lossy delta frame, while a joiner decodes the exact dense
        // full-state frame it was metered for.
        let codec = CodecSpec::topk(0.25).with_delta();
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(2), &ids(2));
        engine.begin_round();
        let g1 = vec![1.0, 2.0, 3.0, 4.0];
        let first = engine.broadcast(0, &g1, &codec, &[PartyId(0)]);
        assert!(first.fresh.contains(&PartyId(0)));
        // Round 1 frames are self-contained either way — one shared state.
        assert!(first.first_contact.is_none());
        engine.begin_round();
        let g2 = vec![2.0, 2.5, 3.0, 8.0];
        let b = engine.broadcast(0, &g2, &codec, &ids(2));
        assert_eq!(b.fresh, [PartyId(1)].into_iter().collect());
        assert_eq!(b.state_for(PartyId(1)), &g2[..], "joiner: exact globals");
        assert_eq!(b.state_for(PartyId(0)), &b.decoded[..]);
        assert_ne!(b.state_for(PartyId(0)), &g2[..], "veteran: lossy delta");
        // The delivery names the two frames it metered.
        assert_eq!(b.spec, codec.broadcast_spec(true));
        assert_eq!(b.fresh_spec, Some(CodecSpec::dense()));
        assert_eq!(first.spec, CodecSpec::dense(), "no reference yet");
    }

    #[test]
    fn sync_engine_without_axes_delivers_everything() {
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids(4));
        engine.begin_round();
        let delivery = engine.collect(
            0,
            delivered((0..4).map(|p| update(p, 10)).collect()),
            &CodecSpec::dense(),
        );
        assert_eq!(delivery.ready.len(), 4);
        assert!(delivery.lost.is_empty());
        assert!(delivery.ready.iter().all(|w| w.staleness == 0));
        let stats = engine.stats();
        assert_eq!(stats.selected, 4);
        assert_eq!(stats.delivered, 4);
        assert_eq!(stats.aggregations, 1);
    }

    #[test]
    fn deferred_updates_mature_with_staleness_discount() {
        let spec = ScenarioSpec::sync(3).with_stragglers(StragglerSpec {
            dist: DelayDist::Constant(1.5),
            slow_fraction: 0.0,
            slow_factor: 1.0,
            deadline: 1.0,
            late: LatePolicy::Defer,
        });
        let mut engine = ScenarioEngine::new(spec, &ids(2));
        engine.begin_round();
        let d1 = engine.collect(
            0,
            delivered(vec![update(0, 10), update(1, 10)]),
            &CodecSpec::dense(),
        );
        assert!(d1.ready.is_empty(), "everything straggles past round 1");
        assert_eq!(engine.stats().deferred, 2);
        assert_eq!(engine.buffered(0), 2);
        engine.begin_round();
        let d2 = engine.collect(0, Vec::new(), &CodecSpec::dense());
        assert_eq!(d2.ready.len(), 2);
        for w in &d2.ready {
            assert_eq!(w.staleness, 1);
            // Sync defer discount: α = 1 → weight = samples / 2.
            assert!((w.weight - 5.0).abs() < 1e-6);
        }
    }

    #[test]
    fn late_drop_policy_aborts_and_meters() {
        let spec = ScenarioSpec::sync(4).with_stragglers(StragglerSpec {
            dist: DelayDist::Constant(2.5),
            slow_fraction: 0.0,
            slow_factor: 1.0,
            deadline: 1.0,
            late: LatePolicy::Drop,
        });
        let mut engine = ScenarioEngine::new(spec, &ids(2));
        engine.begin_round();
        let d = engine.collect(
            0,
            delivered(vec![update(0, 10), update(1, 10)]),
            &CodecSpec::dense(),
        );
        assert!(d.ready.is_empty());
        assert_eq!(d.lost.len(), 2);
        assert_eq!(engine.stats().dropped_late, 2);
        let totals = engine.comm();
        assert_eq!(totals.aborted_messages, 2);
        assert!(totals.aborted_up_bytes > 0);
        assert_eq!(totals.up_bytes, 0, "aborted uploads never complete");
    }

    #[test]
    fn async_buffer_waits_for_min_updates() {
        let spec = ScenarioSpec::sync(5).with_async(AsyncSpec {
            min_buffer: 3,
            staleness_alpha: 0.5,
            max_staleness: 10,
            server_lr: 1.0,
        });
        let mut engine = ScenarioEngine::new(spec, &ids(4));
        engine.begin_round();
        let d = engine.collect(
            0,
            delivered(vec![update(0, 10), update(1, 10)]),
            &CodecSpec::dense(),
        );
        assert!(d.ready.is_empty(), "below min_buffer: hold");
        assert_eq!(engine.buffered(0), 2);
        engine.begin_round();
        let d = engine.collect(0, delivered(vec![update(2, 10)]), &CodecSpec::dense());
        assert_eq!(d.ready.len(), 3, "buffer reached threshold");
        let stale: Vec<usize> = d.ready.iter().map(|w| w.staleness).collect();
        assert!(stale.contains(&1) && stale.contains(&0));
    }

    #[test]
    fn all_stale_flush_discards_everything() {
        let spec = ScenarioSpec::sync(6).with_async(AsyncSpec {
            min_buffer: 2,
            staleness_alpha: 0.5,
            max_staleness: 1,
            server_lr: 1.0,
        });
        let mut engine = ScenarioEngine::new(spec, &ids(4));
        engine.begin_round();
        let d = engine.collect(0, delivered(vec![update(0, 10)]), &CodecSpec::dense());
        assert!(d.ready.is_empty());
        // Let the buffered update age far past max_staleness.
        for _ in 0..4 {
            engine.begin_round();
        }
        let d = engine.collect(0, delivered(vec![update(1, 10)]), &CodecSpec::dense());
        assert!(
            d.ready.len() == 1 && d.ready[0].update.party == PartyId(1),
            "only the fresh update survives: {d:?}"
        );
        assert_eq!(engine.stats().stale_dropped, 1);
        assert_eq!(engine.buffered(0), 0, "stale entries are gone");
    }

    #[test]
    fn streams_are_isolated() {
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(7), &ids(4));
        engine.begin_round();
        let d0 = engine.collect(0, delivered(vec![update(0, 10)]), &CodecSpec::dense());
        let d1 = engine.collect(1, delivered(vec![update(1, 10)]), &CodecSpec::dense());
        assert_eq!(d0.ready.len(), 1);
        assert_eq!(d1.ready.len(), 1);
        assert_eq!(d0.ready[0].update.party, PartyId(0));
        assert_eq!(d1.ready[0].update.party, PartyId(1));
    }

    #[test]
    fn aggregate_weighted_matches_weighted_mean() {
        let ready = vec![
            WeightedUpdate {
                update: ModelUpdate {
                    party: PartyId(0),
                    params: vec![1.0, 1.0],
                    num_samples: 10,
                    train_loss: 0.1,
                },
                staleness: 0,
                weight: 30.0,
            },
            WeightedUpdate {
                update: ModelUpdate {
                    party: PartyId(1),
                    params: vec![4.0, 0.0],
                    num_samples: 10,
                    train_loss: 0.1,
                },
                staleness: 0,
                weight: 10.0,
            },
        ];
        let out = aggregate_weighted(&[0.0, 0.0], &ready, 1.0).expect("aggregates");
        assert!((out[0] - 1.75).abs() < 1e-6);
        assert!((out[1] - 0.75).abs() < 1e-6);
        // Half server learning rate pulls halfway from the global.
        let half = aggregate_weighted(&[0.0, 0.0], &ready, 0.5).expect("aggregates");
        assert!((half[0] - 0.875).abs() < 1e-6);
        // Nothing to aggregate → None.
        assert!(aggregate_weighted(&[0.0], &[], 1.0).is_none());
    }

    #[test]
    fn attacker_assignment_is_deterministic_and_calibrated() {
        let spec = AttackSpec::new(AttackKind::SignFlip, 0.2);
        let hostile = (0..1000usize)
            .filter(|&p| spec.is_attacker(42, PartyId(p)))
            .count();
        let rate = hostile as f32 / 1000.0;
        assert!((rate - 0.2).abs() < 0.04, "observed attacker rate {rate}");
        // Same seed → identical role assignment on rerun.
        for p in 0..1000usize {
            assert_eq!(
                spec.is_attacker(42, PartyId(p)),
                spec.is_attacker(42, PartyId(p))
            );
        }
        // A different seed reshuffles who is hostile.
        let moved = (0..1000usize)
            .filter(|&p| spec.is_attacker(42, PartyId(p)) != spec.is_attacker(43, PartyId(p)))
            .count();
        assert!(moved > 0, "different seeds must assign different attackers");
        // Zero fraction disarms everyone.
        let off = AttackSpec::new(AttackKind::SignFlip, 0.0);
        assert!((0..1000usize).all(|p| !off.is_attacker(42, PartyId(p))));
    }

    #[test]
    fn attack_schedules_gate_activation() {
        let attacker = PartyId(
            (0..100usize)
                .find(|&p| AttackSpec::new(AttackKind::SignFlip, 0.5).is_attacker(9, PartyId(p)))
                .expect("half the population is hostile"),
        );
        let always = AttackSpec::new(AttackKind::SignFlip, 0.5);
        assert!((1..20).all(|r| always.active(9, attacker, r)));
        let sleeper = AttackSpec::new(AttackKind::SignFlip, 0.5)
            .with_schedule(AttackSchedule::Sleeper { from_round: 5 });
        assert!((1..5).all(|r| !sleeper.active(9, attacker, r)));
        assert!((5..20).all(|r| sleeper.active(9, attacker, r)));
        let sometimes = AttackSpec::new(AttackKind::SignFlip, 0.5)
            .with_schedule(AttackSchedule::Intermittent { prob: 0.5 });
        let on = (1..400)
            .filter(|&r| sometimes.active(9, attacker, r))
            .count();
        assert!(
            on > 100 && on < 300,
            "intermittent schedule fired {on}/399 rounds"
        );
        // Schedules never activate parties outside the attacker role.
        let honest = PartyId(
            (0..100usize)
                .find(|&p| !always.is_attacker(9, PartyId(p)))
                .expect("half the population is honest"),
        );
        assert!((1..20).all(|r| !always.active(9, honest, r)));
    }

    #[test]
    fn sign_flip_reflects_the_upload_through_the_reference() {
        let spec = ScenarioSpec::sync(3).with_attack(AttackSpec::new(AttackKind::SignFlip, 1.0));
        let mut engine = ScenarioEngine::new(spec, &ids(1));
        engine.begin_round();
        assert!(engine.is_attacker(PartyId(0)));
        assert!(engine.attack_active(PartyId(0)));
        assert!(
            !engine.poisons_labels(PartyId(0)),
            "sign-flip is wire-level"
        );
        let reference = vec![1.0, -1.0, 0.5, 0.0];
        let honest = ModelUpdate {
            party: PartyId(0),
            params: vec![2.0, -2.0, 1.0, 4.0],
            num_samples: 10,
            train_loss: 0.5,
        };
        let shipped = engine.transport_upload(0, honest, &CodecSpec::dense(), &reference);
        // p ← 2·ref − p: the gradient step is exactly negated.
        assert_eq!(shipped.params, vec![0.0, 0.0, 0.0, -4.0]);
    }

    #[test]
    fn scaled_noise_inflates_the_step_away_from_the_reference() {
        let spec = ScenarioSpec::sync(3).with_attack(AttackSpec::new(
            AttackKind::ScaledNoise { factor: 10.0 },
            1.0,
        ));
        let mut engine = ScenarioEngine::new(spec, &ids(1));
        engine.begin_round();
        let reference = vec![0.0; 8];
        let honest = ModelUpdate {
            party: PartyId(0),
            params: vec![0.1; 8],
            num_samples: 10,
            train_loss: 0.5,
        };
        let honest_norm: f32 = honest.params.iter().map(|p| p * p).sum::<f32>().sqrt();
        let shipped = engine.transport_upload(0, honest, &CodecSpec::dense(), &reference);
        let norm: f32 = shipped.params.iter().map(|p| p * p).sum::<f32>().sqrt();
        assert!(
            norm > 5.0 * honest_norm,
            "inflated step {norm} vs honest {honest_norm}"
        );
    }

    #[test]
    fn label_flip_leaves_the_wire_untouched_but_flags_training() {
        let spec = ScenarioSpec::sync(3).with_attack(AttackSpec::new(AttackKind::LabelFlip, 1.0));
        let mut engine = ScenarioEngine::new(spec, &ids(1));
        engine.begin_round();
        assert!(engine.poisons_labels(PartyId(0)));
        let honest = ModelUpdate {
            party: PartyId(0),
            params: vec![2.0, -2.0],
            num_samples: 10,
            train_loss: 0.5,
        };
        let shipped = engine.transport_upload(0, honest.clone(), &CodecSpec::dense(), &[0.0; 2]);
        assert_eq!(shipped.params, honest.params);
    }

    #[test]
    fn attacks_compose_with_churn_and_stay_rerun_deterministic() {
        let spec = ScenarioSpec::sync(11)
            .with_churn(ChurnSpec::dropout_only(0.3))
            .with_attack(
                AttackSpec::new(AttackKind::ScaledNoise { factor: 5.0 }, 0.4)
                    .with_schedule(AttackSchedule::Intermittent { prob: 0.7 }),
            );
        let run = |spec: ScenarioSpec| {
            let mut engine = ScenarioEngine::new(spec, &ids(16));
            let mut trace = Vec::new();
            for _ in 0..5 {
                engine.begin_round();
                let live = engine.live_members(&ids(16));
                let uploads: Vec<ModelUpdate> = live
                    .iter()
                    .map(|&p| {
                        engine.transport_upload(0, update(p.0, 10), &CodecSpec::dense(), &[0.0; 4])
                    })
                    .collect();
                let d = engine.collect(0, delivered(uploads), &CodecSpec::dense());
                for w in &d.ready {
                    trace.push((w.update.party, w.update.params.clone()));
                }
            }
            trace
        };
        let a = run(spec.clone());
        let b = run(spec);
        assert_eq!(a, b, "hostile runs must be rerun-deterministic");
        assert!(!a.is_empty());
    }

    /// Seed 6 under 50 % dropout makes party 0 crash mid-round in round 1
    /// and survive round 2 — the drop-then-resume shape the join refund
    /// tests need (seeded draws, so this is stable across reruns).
    fn drop_then_survive_engine(spec: ScenarioSpec) -> ScenarioEngine {
        let engine = ScenarioEngine::new(spec, &ids(1));
        assert!(engine.churn().drops_out(PartyId(0), 1));
        assert!(!engine.churn().drops_out(PartyId(0), 2));
        engine
    }

    #[test]
    fn churned_first_contact_refunds_and_rebills_on_rejoin() {
        // Monolithic path: the fresh party crashes mid-round, so the
        // first-contact frame it was billed for never landed. The spend is
        // overlaid as lost (never subtracted) and the party un-marked, so
        // its next contact re-bills a full first contact instead of
        // pretending it holds a reference.
        let codec = CodecSpec::dense();
        let spec = ScenarioSpec::sync(6).with_churn(ChurnSpec::dropout_only(0.5));
        let mut engine = drop_then_survive_engine(spec);
        let g = vec![1.0, 2.0, 3.0, 4.0];
        let fc_frame = codec.first_contact_spec().broadcast_len(g.len()) as u64;

        engine.begin_round();
        let b1 = engine.broadcast(0, &g, &codec, &ids(1));
        assert!(b1.fresh.contains(&PartyId(0)));
        engine.collect(0, Vec::new(), &codec);
        let t = engine.comm();
        assert_eq!(
            t.first_contact_down_bytes, fc_frame,
            "billed, not clawed back"
        );
        assert_eq!(t.join_lost_down_bytes, fc_frame, "overlaid as lost");
        assert_eq!(t.join_lost_messages, 1);

        engine.begin_round();
        let b2 = engine.broadcast(0, &g, &codec, &ids(1));
        assert!(b2.fresh.contains(&PartyId(0)), "rejoiner is fresh again");
        engine.collect(0, Vec::new(), &codec);
        let t = engine.comm();
        assert_eq!(t.first_contact_down_bytes, 2 * fc_frame, "honest re-bill");
        assert_eq!(t.join_lost_down_bytes, fc_frame, "survivor loses nothing");

        engine.begin_round();
        let b3 = engine.broadcast(0, &g, &codec, &ids(1));
        assert!(b3.fresh.is_empty(), "now a veteran");
    }

    #[test]
    fn chunked_join_resumes_after_churn_without_restarting() {
        // Chunked path, same drop-then-survive schedule: the lost flight is
        // overlaid and re-shipped, the sync completes on the second
        // contact, and the party trains from the snapshot its sync began
        // with — not the round-2 globals.
        let codec = CodecSpec::dense();
        let spec = ScenarioSpec::sync(6).with_churn(ChurnSpec::dropout_only(0.5));
        let mut engine = drop_then_survive_engine(spec);
        engine.enable_join_chunking(JoinConfig::dense(8));
        let g1 = vec![1.0, 2.0, 3.0, 4.0];
        let frame = CodecSpec::dense().broadcast_len(g1.len());
        let chunks = frame.div_ceil(8);
        let wire = (frame + chunks * crate::join::JOIN_CHUNK_HEADER_LEN) as u64;

        engine.begin_round();
        let b1 = engine.broadcast(0, &g1, &codec, &ids(1));
        assert_eq!(b1.state_for(PartyId(0)), &g1[..]);
        engine.collect(0, Vec::new(), &codec);
        let t = engine.comm();
        assert_eq!(t.join_chunk_down_bytes, wire);
        assert_eq!(t.join_chunk_messages, chunks as u64);
        assert_eq!(t.join_lost_down_bytes, wire, "whole flight churned away");
        assert_eq!(t.join_lost_messages, chunks as u64);
        assert_eq!(join_progress(&engine, PartyId(0)), Some((0, chunks)));

        engine.begin_round();
        let g2 = vec![9.0, 9.0, 9.0, 9.0];
        let b2 = engine.broadcast(0, &g2, &codec, &ids(1));
        assert!(b2.fresh.contains(&PartyId(0)), "sync still open: fresh");
        assert_eq!(
            b2.state_for(PartyId(0)),
            &g1[..],
            "resumer trains from its sync's snapshot, not round-2 globals"
        );
        engine.collect(0, Vec::new(), &codec);
        let t = engine.comm();
        assert_eq!(t.join_chunk_down_bytes, 2 * wire, "full re-ship, metered");
        assert_eq!(t.join_lost_down_bytes, wire, "no further loss");
        assert_eq!(join_progress(&engine, PartyId(0)), None, "sync complete");

        engine.begin_round();
        let before = engine.comm();
        let b3 = engine.broadcast(0, &g2, &codec, &ids(1));
        assert!(b3.fresh.is_empty(), "promoted to veteran");
        let t = engine.comm();
        assert_eq!(
            t.down_bytes - before.down_bytes,
            codec.broadcast_spec(true).broadcast_len(4) as u64,
            "veterans ride the regular downlink"
        );
    }

    /// `(delivered, total)` chunks of `party`'s open sync on stream 0.
    fn join_progress(engine: &ScenarioEngine, party: PartyId) -> Option<(usize, usize)> {
        engine
            .join_sync(0, party)
            .map(|s| (s.delivered_chunks(), s.num_chunks()))
    }

    #[test]
    fn chunked_path_meters_joiners_and_veterans_separately() {
        // No churn: one veteran on the regular downlink, one joiner on the
        // chunk counters, and the monolithic first-contact counter stays
        // untouched the whole time.
        let codec = CodecSpec::quant8(256).with_delta();
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(3), &ids(2));
        engine.enable_join_chunking(JoinConfig::quantized(16));
        let g = vec![0.5, -0.5, 0.25, -0.25];

        engine.begin_round();
        engine.broadcast(0, &g, &codec, &[PartyId(0)]);
        engine.collect(0, Vec::new(), &codec);
        assert_eq!(join_progress(&engine, PartyId(0)), None);

        engine.begin_round();
        let b = engine.broadcast(0, &g, &codec, &ids(2));
        assert_eq!(b.fresh, [PartyId(1)].into_iter().collect());
        assert!(b.join_states.contains_key(&PartyId(1)));
        assert_eq!(b.spec, codec.broadcast_spec(true));
        assert_eq!(b.fresh_spec, None, "joiners ship chunks");
        engine.collect(0, Vec::new(), &codec);

        let frame = CodecSpec::quant8(256).broadcast_len(g.len());
        let chunks = frame.div_ceil(16);
        let t = engine.comm();
        assert_eq!(t.first_contact_down_bytes, 0, "monolithic path never ran");
        assert_eq!(t.first_contact_messages, 0);
        assert_eq!(
            t.join_chunk_down_bytes,
            2 * (frame + chunks * crate::join::JOIN_CHUNK_HEADER_LEN) as u64,
            "both joiners shipped one full chunked frame each"
        );
        assert_eq!(
            t.down_bytes,
            codec.broadcast_spec(true).broadcast_len(g.len()) as u64,
            "exactly one veteran downlink (round 2, party 0)"
        );
        assert_eq!(t.join_lost_down_bytes, 0);
    }
}
