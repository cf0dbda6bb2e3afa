//! Adaptive byte-budget codec control.
//!
//! A [`CodecController`] picks one [`CodecSpec`] per `(round, stream)`
//! from a fixed ladder (densest → sparsest), against a scenario-level
//! [`BudgetSpec`] (bytes per round and/or per party). Codec wire sizes are
//! value-independent, so each rung's cost is known exactly *before*
//! anything is encoded; the controller therefore never has to re-encode to
//! decide.
//!
//! The decision rule, in order:
//!
//! 1. If the densest rung fits every cap, take it — an ample budget always
//!    degrades to the densest codec (test-pinned).
//! 2. Otherwise find the densest rung that fits. When the stream's
//!    error-feedback residual magnitude is high (compression has been
//!    dropping mass the parties still owe), spend the whole affordable
//!    budget on that rung; when it is low, step one rung sparser and bank
//!    the bytes.
//! 3. If no rung fits, take the sparsest — caps are honoured whenever any
//!    rung can honour them.
//!
//! Every input is deterministic (scenario seed, round clock, the observed
//! [`CommTotals`] ledger, EF magnitudes) and the high/low threshold is
//! dithered by a seeded hash draw over `(round, stream, bytes spent)` —
//! the same SplitMix64 discipline as churn and attack scheduling — so
//! reruns are bit-identical and `shiftex-lint`'s determinism rules hold.

use serde::{Deserialize, Serialize};

use crate::codec::CodecSpec;
use crate::comm::CommTotals;
use crate::scenario::draw_unit;

/// Salt for the controller's threshold-dither hash draws.
const SALT_CODEC: u64 = 0xc0dec;

/// Mean-|EF-residual| level separating "owes mass, spend dense" from
/// "residual quiet, bank bytes" (dithered ±50 % per decision).
const EF_THRESHOLD: f32 = 0.01;

/// Scenario-level byte budget for the adaptive codec controller.
///
/// `None` caps are unlimited; with both set, both must hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetSpec {
    /// Cap on estimated total bytes per `(round, stream)`:
    /// `cohort × (uplink + downlink)` frame bytes.
    pub round_bytes: Option<u64>,
    /// Cap on estimated bytes per party per round (its uplink + downlink).
    pub party_bytes: Option<u64>,
}

impl BudgetSpec {
    /// No caps: the controller always picks the densest rung.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps estimated bytes per round at `bytes`.
    pub fn per_round(bytes: u64) -> Self {
        Self {
            round_bytes: Some(bytes),
            party_bytes: None,
        }
    }

    /// Caps estimated bytes per party per round at `bytes`.
    pub fn per_party(bytes: u64) -> Self {
        Self {
            round_bytes: None,
            party_bytes: Some(bytes),
        }
    }

    /// Do the estimated costs fit every configured cap?
    pub fn fits(&self, round_cost: u64, party_cost: u64) -> bool {
        self.round_bytes.is_none_or(|cap| round_cost <= cap)
            && self.party_bytes.is_none_or(|cap| party_cost <= cap)
    }
}

/// Per-round, per-stream adaptive codec choice under a [`BudgetSpec`].
///
/// The controller is pure: [`CodecController::spec_for`] is a function of
/// its construction parameters and the observed round state, holding no
/// mutable state of its own — which is what makes adaptive runs resumable
/// and rerun-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodecController {
    seed: u64,
    budget: BudgetSpec,
    /// Candidate specs, densest first: per-coordinate wire cost is
    /// non-increasing along the ladder.
    ladder: Vec<CodecSpec>,
}

impl CodecController {
    /// Builds a controller on the ladder delta-dense → delta-quant8(256) →
    /// EF-delta-top-k(5 %) → EF-delta-top-k(1 %).
    pub fn new(seed: u64, budget: BudgetSpec) -> Self {
        Self {
            seed,
            budget,
            ladder: vec![
                CodecSpec::dense().with_delta(),
                CodecSpec::quant8(256).with_delta(),
                CodecSpec::topk(0.05).with_delta().with_error_feedback(),
                CodecSpec::topk(0.01).with_delta().with_error_feedback(),
            ],
        }
    }

    /// The candidate specs, densest first.
    pub fn ladder(&self) -> &[CodecSpec] {
        &self.ladder
    }

    /// The configured budget.
    pub fn budget(&self) -> &BudgetSpec {
        &self.budget
    }

    /// Estimated `(round, party)` byte cost of `spec` for a cohort of
    /// `cohort` parties on an `n_params`-parameter stream: one downlink
    /// frame plus one uplink frame per member. Exact by construction —
    /// codec sizes are value-independent.
    pub fn estimated_cost(spec: &CodecSpec, cohort: usize, n_params: usize) -> (u64, u64) {
        let party = (spec.broadcast_len(n_params) + spec.update_len(n_params)) as u64;
        (party * cohort as u64, party)
    }

    /// Picks the spec for stream `stream` in round `round`, given the
    /// cohort size, the model size, the observed ledger snapshot, and the
    /// stream's mean-|EF-residual| magnitude. Deterministic in its inputs.
    pub fn spec_for(
        &self,
        round: usize,
        stream: usize,
        cohort: usize,
        n_params: usize,
        totals: &CommTotals,
        ef_magnitude: f32,
    ) -> CodecSpec {
        let costs: Vec<(u64, u64)> = self
            .ladder
            .iter()
            .map(|spec| Self::estimated_cost(spec, cohort, n_params))
            .collect();
        if self.budget.fits(costs[0].0, costs[0].1) {
            // Ample budget: densest rung, unconditionally.
            return self.ladder[0];
        }
        let Some(densest_fit) = (0..self.ladder.len()).find(|&i| {
            let (r, p) = costs[i];
            self.budget.fits(r, p)
        }) else {
            // Nothing fits: the sparsest rung is the best we can do.
            return self.ladder[self.ladder.len() - 1];
        };
        // Threshold dither keyed on (round, stream, bytes spent so far):
        // the decision is hash-derived from the scenario seed and the
        // observed ledger, never from ambient state.
        let spent = totals.up_bytes
            + totals.down_bytes
            + totals.first_contact_down_bytes
            + totals.join_chunk_down_bytes;
        let dither = draw_unit(
            self.seed,
            SALT_CODEC,
            (round as u64) << 16 | stream as u64,
            spent,
        );
        let tau = EF_THRESHOLD * (0.5 + dither);
        if ef_magnitude > tau {
            // The residual says compression has been withholding mass the
            // parties still owe: spend the densest affordable rung.
            self.ladder[densest_fit]
        } else {
            // Residual quiet: step one rung sparser and bank the bytes.
            self.ladder[(densest_fit + 1).min(self.ladder.len() - 1)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(budget: BudgetSpec) -> CodecController {
        CodecController::new(7, budget)
    }

    #[test]
    fn ample_budget_degrades_to_densest() {
        let c = ctl(BudgetSpec::unlimited());
        let t = CommTotals::default();
        for round in 1..6 {
            for ef in [0.0f32, 1.0] {
                assert_eq!(
                    c.spec_for(round, 0, 10, 1000, &t, ef),
                    CodecSpec::dense().with_delta()
                );
            }
        }
    }

    #[test]
    fn binding_budget_never_exceeds_caps() {
        // Cap at roughly the quant8 level for 10×1000 params.
        let quant = CodecSpec::quant8(256).with_delta();
        let (round_cost, _) = CodecController::estimated_cost(&quant, 10, 1000);
        let budget = BudgetSpec::per_round(round_cost);
        let c = ctl(budget);
        let t = CommTotals::default();
        for round in 1..8 {
            for ef in [0.0f32, 0.5] {
                let spec = c.spec_for(round, 0, 10, 1000, &t, ef);
                let (r, p) = CodecController::estimated_cost(&spec, 10, 1000);
                assert!(budget.fits(r, p), "round {round} ef {ef}: {spec} busts cap");
            }
        }
    }

    #[test]
    fn ef_magnitude_picks_between_affordable_rungs() {
        let quant = CodecSpec::quant8(256).with_delta();
        let (round_cost, _) = CodecController::estimated_cost(&quant, 10, 1000);
        let c = ctl(BudgetSpec::per_round(round_cost));
        let t = CommTotals::default();
        // Loud residual: densest affordable rung (quant8).
        assert_eq!(c.spec_for(1, 0, 10, 1000, &t, 10.0), quant);
        // Quiet residual: one rung sparser.
        assert_eq!(
            c.spec_for(1, 0, 10, 1000, &t, 0.0),
            CodecSpec::topk(0.05).with_delta().with_error_feedback()
        );
    }

    #[test]
    fn impossible_budget_falls_to_sparsest() {
        let c = ctl(BudgetSpec::per_party(1));
        let t = CommTotals::default();
        assert_eq!(
            c.spec_for(1, 0, 10, 1000, &t, 0.3),
            CodecSpec::topk(0.01).with_delta().with_error_feedback()
        );
    }

    #[test]
    fn decisions_are_rerun_identical() {
        let mk = || ctl(BudgetSpec::per_round(50_000));
        let t = CommTotals {
            up_bytes: 12_345,
            down_bytes: 6_789,
            ..Default::default()
        };
        for round in 1..10 {
            for stream in 0..3 {
                assert_eq!(
                    mk().spec_for(round, stream, 10, 2000, &t, 0.01),
                    mk().spec_for(round, stream, 10, 2000, &t, 0.01)
                );
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whenever any rung fits the caps, the chosen spec fits the caps —
        /// across arbitrary budgets, cohort sizes, models, and signals.
        #[test]
        fn prop_controller_never_exceeds_a_satisfiable_budget(
            seed in 0u64..1000,
            round_cap in proptest::option::of(1_000u64..2_000_000),
            party_cap in proptest::option::of(100u64..200_000),
            round in 1usize..50,
            stream in 0usize..4,
            cohort in 1usize..50,
            n_params in 1usize..5000,
            ef in 0.0f32..1.0,
            spent in 0u64..10_000_000,
        ) {
            let budget = BudgetSpec { round_bytes: round_cap, party_bytes: party_cap };
            let c = CodecController::new(seed, budget);
            let t = CommTotals { up_bytes: spent, ..Default::default() };
            let spec = c.spec_for(round, stream, cohort, n_params, &t, ef);
            let any_fits = c.ladder().iter().any(|s| {
                let (r, p) = CodecController::estimated_cost(s, cohort, n_params);
                budget.fits(r, p)
            });
            let (r, p) = CodecController::estimated_cost(&spec, cohort, n_params);
            prop_assert!(
                !any_fits || budget.fits(r, p),
                "{spec} busts a satisfiable budget {budget:?}"
            );
        }

        /// No caps → the densest rung, regardless of every other input.
        #[test]
        fn prop_unlimited_budget_always_picks_densest(
            seed in 0u64..1000,
            round in 1usize..50,
            cohort in 1usize..100,
            n_params in 1usize..5000,
            ef in 0.0f32..1.0,
        ) {
            let c = CodecController::new(seed, BudgetSpec::unlimited());
            let t = CommTotals::default();
            let spec = c.spec_for(round, 0, cohort, n_params, &t, ef);
            prop_assert_eq!(spec, c.ladder()[0]);
        }
    }

    #[test]
    fn ladder_costs_are_monotone_for_real_models() {
        let c = ctl(BudgetSpec::unlimited());
        let n = 2146;
        let costs: Vec<u64> = c
            .ladder()
            .iter()
            .map(|s| CodecController::estimated_cost(s, 10, n).0)
            .collect();
        for pair in costs.windows(2) {
            assert!(pair[0] > pair[1], "ladder must be densest-first: {costs:?}");
        }
    }
}
