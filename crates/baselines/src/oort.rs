//! OORT (Lai et al., OSDI 2021): utility-guided participant selection.
//!
//! Each party carries a *statistical utility* derived from its recent
//! training loss; selection exploits high-utility parties while reserving an
//! exploration fraction for unexplored ones. As the paper notes, OORT
//! "assumes static utility and ignores temporal shifts", which is exactly
//! the failure mode the evaluation exposes: its utility estimates mask
//! distribution changes instead of reacting to them.
//!
//! Under the unified [`FederatedAlgorithm`](shiftex_fl::FederatedAlgorithm)
//! API, OORT is a *selection policy*, not a separate training loop:
//! [`OortSelector`] plugs into the generic scenario driver
//! (`--selector oort`) and composes with any single-model algorithm —
//! OORT-the-paper-baseline is FedAvg + this selector. It is extended with
//! **availability awareness**: the
//! [`on_unavailable`](ParticipantSelector::on_unavailable) liveness hook
//! (mid-round dropout, deadline-missing stragglers) applies a
//! multiplicative utility penalty and a selection cooldown, the OORT-paper
//! treatment of flaky clients.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use shiftex_fl::{ParticipantSelector, PartyId, PartyInfo};
use shiftex_tensor::rngx;

/// Tunables of the availability-aware [`OortSelector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OortSelectorConfig {
    /// Fraction of each cohort reserved for never-selected parties.
    pub exploration_fraction: f32,
    /// Exponential decay applied to every utility each selection round.
    pub utility_decay: f32,
    /// Multiplicative utility penalty when a selected party's update never
    /// arrives (mid-round dropout, dropped straggler).
    pub unavailable_penalty: f32,
    /// Rounds an unavailable party sits out before being eligible again.
    pub cooldown_rounds: usize,
}

impl Default for OortSelectorConfig {
    fn default() -> Self {
        Self {
            exploration_fraction: 0.3,
            utility_decay: 0.98,
            unavailable_penalty: 0.5,
            cooldown_rounds: 2,
        }
    }
}

/// Availability-aware OORT selection for scenario runs.
///
/// Exploits high-utility explored parties and explores unexplored ones, and
/// consumes the scenario engine's liveness feedback: a party whose upload
/// was aborted gets its utility multiplied by `unavailable_penalty` and is
/// skipped for `cooldown_rounds` selection rounds (unless the cooldown
/// would empty the pool). Flaky parties therefore stop soaking up cohort
/// slots that churny rounds would waste.
#[derive(Debug, Default)]
pub struct OortSelector {
    cfg: OortSelectorConfig,
    /// Statistical utility per party: `samples · |loss|` at last selection.
    utilities: BTreeMap<PartyId, f32>,
    /// First selection round at which a cooled-down party is eligible again.
    cooldown_until: BTreeMap<PartyId, usize>,
    /// Sample counts seen at selection time (utility refresh on observe).
    last_samples: BTreeMap<PartyId, usize>,
    round: usize,
}

impl OortSelector {
    /// Creates a selector with the given tunables.
    pub fn new(cfg: OortSelectorConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// Current utility estimate for `party` (`None` if never observed).
    pub fn utility(&self, party: PartyId) -> Option<f32> {
        self.utilities.get(&party).copied()
    }

    /// Is `party` cooling down at the current selection round?
    pub fn in_cooldown(&self, party: PartyId) -> bool {
        self.cooldown_until
            .get(&party)
            .is_some_and(|&until| self.round < until)
    }

    /// Number of parties currently holding a cooldown mark (diagnostics).
    pub fn cooldown_marks(&self) -> usize {
        self.cooldown_until.len()
    }
}

impl ParticipantSelector for OortSelector {
    fn begin_round(&mut self) {
        // Per federation round, not per `select` call: multi-model
        // algorithms ask for one cohort per stream, and decaying k× per
        // round would also expire cooldowns k× too fast.
        self.round += 1;
        for u in self.utilities.values_mut() {
            *u *= self.cfg.utility_decay;
        }
    }

    fn select(&mut self, pool: &[PartyInfo], m: usize, rng: &mut StdRng) -> Vec<PartyId> {
        // Cooldown gates eligibility — but never to the point of an empty
        // cohort when parties exist.
        let eligible: Vec<&PartyInfo> = {
            let open: Vec<&PartyInfo> = pool.iter().filter(|p| !self.in_cooldown(p.id)).collect();
            if open.is_empty() {
                pool.iter().collect()
            } else {
                open
            }
        };
        let m = m.min(eligible.len());
        let explore_n = ((m as f32) * self.cfg.exploration_fraction).round() as usize;

        let mut explored: Vec<(PartyId, f32)> = eligible
            .iter()
            .filter_map(|p| self.utilities.get(&p.id).map(|&u| (p.id, u)))
            .collect();
        explored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut unexplored: Vec<PartyId> = eligible
            .iter()
            .filter(|p| !self.utilities.contains_key(&p.id))
            .map(|p| p.id)
            .collect();
        rngx::shuffle(rng, &mut unexplored);

        let mut chosen: Vec<PartyId> = Vec::with_capacity(m);
        chosen.extend(unexplored.iter().take(explore_n).copied());
        for (id, _) in &explored {
            if chosen.len() >= m {
                break;
            }
            chosen.push(*id);
        }
        for id in unexplored.into_iter().skip(explore_n) {
            if chosen.len() >= m {
                break;
            }
            chosen.push(id);
        }
        for p in eligible {
            self.last_samples.insert(p.id, p.num_samples);
        }
        chosen
    }

    fn observe(&mut self, party: PartyId, train_loss: f32) {
        let samples = self.last_samples.get(&party).copied().unwrap_or(1).max(1);
        let util = samples as f32 * train_loss.abs().max(1e-6);
        self.utilities.insert(party, util);
    }

    fn on_unavailable(&mut self, party: PartyId) {
        let u = self.utilities.entry(party).or_insert(1e-6);
        *u *= self.cfg.unavailable_penalty;
        self.cooldown_until
            .insert(party, self.round + self.cfg.cooldown_rounds + 1);
    }

    fn name(&self) -> &str {
        "oort"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use shiftex_data::{ImageShape, PrototypeGenerator};
    use shiftex_fl::Party;

    fn parties(n: usize, rng: &mut StdRng) -> Vec<Party> {
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, rng);
        (0..n)
            .map(|i| {
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(32, rng),
                    gen.generate_uniform(16, rng),
                )
            })
            .collect()
    }

    fn pool(n: usize) -> Vec<PartyInfo> {
        (0..n)
            .map(|i| PartyInfo {
                id: PartyId(i),
                num_samples: 10,
                label_hist: vec![0.5, 0.5],
                last_loss: None,
            })
            .collect()
    }

    #[test]
    fn selector_exploits_observed_utilities() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut sel = OortSelector::new(OortSelectorConfig {
            exploration_fraction: 0.0,
            ..OortSelectorConfig::default()
        });
        let p = pool(6);
        // Seed utilities: party 3 high, party 4 medium, others unexplored.
        sel.begin_round();
        sel.select(&p, 6, &mut rng);
        sel.observe(PartyId(3), 5.0);
        sel.observe(PartyId(4), 2.0);
        sel.observe(PartyId(0), 0.1);
        sel.begin_round();
        let chosen = sel.select(&p, 2, &mut rng);
        assert_eq!(chosen, vec![PartyId(3), PartyId(4)]);
    }

    #[test]
    fn unavailable_party_is_penalized_and_cooled_down() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sel = OortSelector::new(OortSelectorConfig {
            exploration_fraction: 0.0,
            utility_decay: 1.0,
            unavailable_penalty: 0.25,
            cooldown_rounds: 2,
        });
        let p = pool(4);
        sel.begin_round();
        sel.select(&p, 4, &mut rng);
        for i in 0..4 {
            sel.observe(PartyId(i), 1.0);
        }
        let before = sel.utility(PartyId(2)).unwrap();
        sel.on_unavailable(PartyId(2));
        let after = sel.utility(PartyId(2)).unwrap();
        assert!((after - before * 0.25).abs() < 1e-6, "{before} -> {after}");
        // Cooled down for the next 2 federation rounds…
        for _ in 0..2 {
            sel.begin_round();
            let chosen = sel.select(&p, 4, &mut rng);
            assert!(sel.in_cooldown(PartyId(2)));
            assert!(!chosen.contains(&PartyId(2)), "{chosen:?}");
        }
        // …then eligible again (with a scarred utility).
        sel.begin_round();
        let chosen = sel.select(&p, 4, &mut rng);
        assert!(!sel.in_cooldown(PartyId(2)));
        assert!(chosen.contains(&PartyId(2)), "{chosen:?}");
    }

    #[test]
    fn fold_rejection_does_not_trigger_the_availability_cooldown() {
        // A quarantined party was alive and delivered on time — only its
        // *update* was refused. The availability machinery (penalty +
        // cooldown) must not fire; that signal is reserved for liveness.
        let mut rng = StdRng::seed_from_u64(9);
        let mut sel = OortSelector::new(OortSelectorConfig {
            exploration_fraction: 0.0,
            utility_decay: 1.0,
            ..OortSelectorConfig::default()
        });
        let p = pool(4);
        sel.begin_round();
        sel.select(&p, 4, &mut rng);
        for i in 0..4 {
            sel.observe(PartyId(i), 1.0);
        }
        let before = sel.utility(PartyId(2)).unwrap();
        sel.on_rejected(PartyId(2));
        assert_eq!(sel.utility(PartyId(2)), Some(before));
        assert_eq!(sel.cooldown_marks(), 0);
        sel.begin_round();
        assert!(!sel.in_cooldown(PartyId(2)));
        let chosen = sel.select(&p, 4, &mut rng);
        assert!(chosen.contains(&PartyId(2)), "{chosen:?}");
    }

    #[test]
    fn per_stream_selects_share_one_round_of_bookkeeping() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sel = OortSelector::new(OortSelectorConfig {
            exploration_fraction: 0.0,
            utility_decay: 0.5,
            ..OortSelectorConfig::default()
        });
        let p = pool(4);
        sel.begin_round();
        sel.select(&p, 4, &mut rng);
        sel.observe(PartyId(0), 1.0);
        let seeded = sel.utility(PartyId(0)).unwrap();
        // One federation round with three per-stream cohort requests must
        // decay utilities exactly once, not three times.
        sel.begin_round();
        for _ in 0..3 {
            sel.select(&p, 2, &mut rng);
        }
        let decayed = sel.utility(PartyId(0)).unwrap();
        assert!(
            (decayed - seeded * 0.5).abs() < 1e-6,
            "{seeded} -> {decayed}"
        );
    }

    #[test]
    fn cooldown_never_empties_a_nonempty_pool() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sel = OortSelector::new(OortSelectorConfig::default());
        let p = pool(3);
        sel.begin_round();
        sel.select(&p, 3, &mut rng);
        for i in 0..3 {
            sel.on_unavailable(PartyId(i));
        }
        sel.begin_round();
        let chosen = sel.select(&p, 2, &mut rng);
        assert_eq!(chosen.len(), 2, "cooldown must not starve the round");
    }

    #[test]
    fn selector_feeds_from_the_generic_driver_liveness_hook() {
        use crate::FedAvg;
        use shiftex_fl::{
            run_algorithm_round, ChurnSpec, FederatedAlgorithm, PopulationStore, RoundCtx,
            ScenarioEngine, ScenarioSpec,
        };
        use shiftex_nn::{ArchSpec, TrainConfig};
        let mut rng = StdRng::seed_from_u64(3);
        let parties = parties(8, &mut rng);
        let ids: Vec<PartyId> = parties.iter().map(Party::id).collect();
        let spec = ArchSpec::mlp("t", 16, &[8], 3);
        let mut alg = FedAvg::new(spec, TrainConfig::default(), 6);
        let store = PopulationStore::from_parties(parties);
        alg.init(&store.view(store.party_ids()), &mut rng);
        let scenario = ScenarioSpec::sync(4).with_churn(ChurnSpec::dropout_only(0.4));
        let mut engine = ScenarioEngine::new(scenario, &ids);
        let mut sel = OortSelector::new(OortSelectorConfig::default());
        let mut ctx = RoundCtx::new(&store, &mut engine).with_selector(&mut sel);
        let lost: usize = (0..6)
            .map(|_| run_algorithm_round(&mut alg, &mut ctx, &mut rng).lost.len())
            .sum();
        assert!(lost > 0, "40% dropout must abort something");
        assert!(
            sel.cooldown_marks() > 0,
            "liveness feedback must have reached the selector"
        );
    }
}
