//! Facility-location expert assignment — Eq. 2 of the paper.
//!
//! The aggregator casts party→expert assignment as a facility-location
//! problem that jointly minimises covariate mismatch (MMD terms), expert
//! creation cost (λ per opened new expert) and label imbalance (μ · JSD of
//! each cohort's aggregate label histogram against the global mix).
//!
//! The joint problem is NP-hard; ShiftEx deploys the modular
//! cluster/match/create pipeline in [`crate::aggregator`]. This module
//! provides the *abstract* problem plus two solvers used by tests and the
//! ablation benches: an exact branch-and-bound for small instances and a
//! marginal-cost greedy that scales linearly.

use shiftex_detect::jsd;
use shiftex_tensor::vector;

/// An instance of the Eq. 2 assignment problem.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentProblem {
    /// `cost[c][k]` = MMD²(P_c(X), P_k(X)) between party `c` and facility
    /// (expert) `k`. Columns cover existing experts first, then candidates.
    pub cost: Vec<Vec<f32>>,
    /// `is_new[k]`: whether facility `k` is a *candidate* new expert whose
    /// opening incurs λ.
    pub is_new: Vec<bool>,
    /// Per-party normalised label histograms.
    pub party_hists: Vec<Vec<f32>>,
    /// Flat cost λ per opened new expert.
    pub lambda: f32,
    /// Label-imbalance weight μ.
    pub mu: f32,
    /// Capacity `U_max`: maximum parties per expert.
    pub u_max: usize,
}

/// A feasible solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `party_to_facility[c]` = facility index for party `c`.
    pub party_to_facility: Vec<usize>,
    /// Objective value under [`AssignmentProblem::objective`].
    pub objective: f32,
}

impl AssignmentProblem {
    /// Number of parties.
    pub fn num_parties(&self) -> usize {
        self.cost.len()
    }

    /// Number of facilities (existing + candidate).
    pub fn num_facilities(&self) -> usize {
        self.is_new.len()
    }

    /// Validates shape invariants.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions or zero capacity.
    pub fn validate(&self) {
        let f = self.num_facilities();
        assert!(f > 0, "need at least one facility");
        assert!(self.u_max > 0, "capacity must be positive");
        assert_eq!(
            self.party_hists.len(),
            self.cost.len(),
            "histogram count mismatch"
        );
        assert!(
            self.cost.iter().all(|row| row.len() == f),
            "cost row length mismatch"
        );
        assert!(
            self.num_parties() <= f * self.u_max,
            "infeasible: {} parties exceed total capacity {}",
            self.num_parties(),
            f * self.u_max
        );
    }

    /// Evaluates the exact Eq. 2 objective of a complete assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length mismatches or violates capacity.
    pub fn objective(&self, party_to_facility: &[usize]) -> f32 {
        assert_eq!(
            party_to_facility.len(),
            self.num_parties(),
            "assignment length mismatch"
        );
        let f = self.num_facilities();
        let mut usage = vec![0usize; f];
        let mut mmd_total = 0.0f32;
        for (c, &k) in party_to_facility.iter().enumerate() {
            assert!(k < f, "facility index out of range");
            usage[k] += 1;
            mmd_total += self.cost[c][k];
        }
        assert!(
            usage.iter().all(|&u| u <= self.u_max),
            "capacity violated: usage {usage:?} > {}",
            self.u_max
        );
        let open_new = usage
            .iter()
            .zip(self.is_new.iter())
            .filter(|(&u, &n)| n && u > 0)
            .count();

        // Global mean histogram ȳ and per-cohort aggregate histograms.
        let classes = self.party_hists.first().map_or(0, Vec::len);
        let global = mean_hist(&self.party_hists.iter().collect::<Vec<_>>(), classes);
        let mut imbalance = 0.0f32;
        for k in 0..f {
            let members: Vec<&Vec<f32>> = party_to_facility
                .iter()
                .enumerate()
                .filter(|(_, &kk)| kk == k)
                .map(|(c, _)| &self.party_hists[c])
                .collect();
            if members.is_empty() {
                continue;
            }
            let cohort = mean_hist(&members, classes);
            imbalance += jsd(&cohort, &global);
        }
        mmd_total + self.lambda * open_new as f32 + self.mu * imbalance
    }

    /// Exact solver: exhaustive depth-first search with a running-cost bound.
    /// Exponential (`f^c`); intended for instances with ≤ ~8 parties.
    ///
    /// # Panics
    ///
    /// Panics if the instance is invalid (see [`AssignmentProblem::validate`]).
    pub fn solve_exact(&self) -> Assignment {
        self.validate();
        let c = self.num_parties();
        let f = self.num_facilities();
        let mut best = Assignment {
            party_to_facility: vec![0; c],
            objective: f32::INFINITY,
        };
        let mut current = vec![0usize; c];
        let mut usage = vec![0usize; f];

        // DFS over assignments; bound with the MMD partial sum (all other
        // terms are non-negative).
        fn dfs(
            problem: &AssignmentProblem,
            depth: usize,
            partial_mmd: f32,
            current: &mut Vec<usize>,
            usage: &mut Vec<usize>,
            best: &mut Assignment,
        ) {
            if partial_mmd >= best.objective {
                return;
            }
            if depth == problem.num_parties() {
                let obj = problem.objective(current);
                if obj < best.objective {
                    *best = Assignment {
                        party_to_facility: current.clone(),
                        objective: obj,
                    };
                }
                return;
            }
            for k in 0..problem.num_facilities() {
                if usage[k] >= problem.u_max {
                    continue;
                }
                usage[k] += 1;
                current[depth] = k;
                dfs(
                    problem,
                    depth + 1,
                    partial_mmd + problem.cost[depth][k],
                    current,
                    usage,
                    best,
                );
                usage[k] -= 1;
            }
        }
        dfs(self, 0, 0.0, &mut current, &mut usage, &mut best);
        assert!(best.objective.is_finite(), "no feasible assignment found");
        best
    }

    /// Greedy solver: parties in index order pick the facility with the
    /// lowest *marginal* cost (MMD + λ if this opens a new facility +
    /// μ·Δimbalance), respecting capacity. Linear in `parties × facilities`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is invalid.
    pub fn solve_greedy(&self) -> Assignment {
        self.validate();
        let f = self.num_facilities();
        let classes = self.party_hists.first().map_or(0, Vec::len);
        let global = mean_hist(&self.party_hists.iter().collect::<Vec<_>>(), classes);

        let mut usage = vec![0usize; f];
        let mut cohort_sums: Vec<Vec<f32>> = vec![vec![0.0; classes]; f];
        let mut assignment = Vec::with_capacity(self.num_parties());
        for c in 0..self.num_parties() {
            let mut best_k = usize::MAX;
            let mut best_marginal = f32::INFINITY;
            for k in 0..f {
                if usage[k] >= self.u_max {
                    continue;
                }
                let mut marginal = self.cost[c][k];
                if self.is_new[k] && usage[k] == 0 {
                    marginal += self.lambda;
                }
                if classes > 0 {
                    // Imbalance delta for cohort k if c joins it.
                    let before = if usage[k] == 0 {
                        0.0
                    } else {
                        let h: Vec<f32> = cohort_sums[k]
                            .iter()
                            .map(|&s| s / usage[k] as f32)
                            .collect();
                        jsd(&h, &global)
                    };
                    let mut after_sum = cohort_sums[k].clone();
                    vector::axpy(&mut after_sum, 1.0, &self.party_hists[c]);
                    let after: Vec<f32> = after_sum
                        .iter()
                        .map(|&s| s / (usage[k] + 1) as f32)
                        .collect();
                    marginal += self.mu * (jsd(&after, &global) - before);
                }
                if marginal < best_marginal {
                    best_marginal = marginal;
                    best_k = k;
                }
            }
            assert!(best_k != usize::MAX, "greedy found no feasible facility");
            usage[best_k] += 1;
            if classes > 0 {
                let hist = self.party_hists[c].clone();
                vector::axpy(&mut cohort_sums[best_k], 1.0, &hist);
            }
            assignment.push(best_k);
        }
        let objective = self.objective(&assignment);
        Assignment {
            party_to_facility: assignment,
            objective,
        }
    }
}

/// Mean of several histograms (uniform over parties, matching ȳ_t).
fn mean_hist(hists: &[&Vec<f32>], classes: usize) -> Vec<f32> {
    if hists.is_empty() || classes == 0 {
        return vec![0.0; classes];
    }
    let mut out = vec![0.0f32; classes];
    for h in hists {
        vector::axpy(&mut out, 1.0, h);
    }
    vector::scale(&mut out, 1.0 / hists.len() as f32);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Two regimes, two existing experts matched to them, one candidate.
    fn instance(lambda: f32, mu: f32) -> AssignmentProblem {
        AssignmentProblem {
            // Parties 0,1 near facility 0; parties 2,3 near facility 1.
            cost: vec![
                vec![0.1, 2.0, 1.0],
                vec![0.2, 2.1, 1.0],
                vec![2.0, 0.1, 1.0],
                vec![2.2, 0.2, 1.0],
            ],
            is_new: vec![false, false, true],
            party_hists: vec![
                vec![0.9, 0.1],
                vec![0.1, 0.9],
                vec![0.9, 0.1],
                vec![0.1, 0.9],
            ],
            lambda,
            mu,
            u_max: 4,
        }
    }

    #[test]
    fn exact_assigns_parties_to_nearest_experts() {
        let p = instance(1.0, 0.0);
        let sol = p.solve_exact();
        assert_eq!(sol.party_to_facility, vec![0, 0, 1, 1]);
    }

    #[test]
    fn high_lambda_prevents_new_facilities() {
        let mut p = instance(100.0, 0.0);
        // Make the candidate slightly better on pure MMD for everyone.
        for row in p.cost.iter_mut() {
            row[2] = 0.05;
        }
        let sol = p.solve_exact();
        assert!(
            sol.party_to_facility.iter().all(|&k| k != 2),
            "λ=100 must keep the candidate closed: {:?}",
            sol.party_to_facility
        );
    }

    #[test]
    fn low_lambda_opens_better_facility() {
        let mut p = instance(0.01, 0.0);
        for row in p.cost.iter_mut() {
            row[2] = 0.0;
        }
        let sol = p.solve_exact();
        assert!(sol.party_to_facility.iter().all(|&k| k == 2));
    }

    #[test]
    fn capacity_forces_spread() {
        let mut p = instance(0.0, 0.0);
        p.u_max = 2;
        // Everyone prefers facility 0.
        for row in p.cost.iter_mut() {
            row[0] = 0.0;
            row[1] = 0.5;
            row[2] = 1.0;
        }
        let sol = p.solve_exact();
        let to_zero = sol.party_to_facility.iter().filter(|&&k| k == 0).count();
        assert_eq!(to_zero, 2, "capacity 2 must cap facility 0");
    }

    #[test]
    fn mu_term_prefers_balanced_cohorts() {
        // Covariate costs are symmetric between facilities 0 and 1, so with
        // μ > 0 the optimum pairs complementary label histograms.
        let p = AssignmentProblem {
            cost: vec![vec![0.5, 0.5]; 4],
            is_new: vec![false, false],
            party_hists: vec![
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![0.0, 1.0],
            ],
            lambda: 0.0,
            mu: 5.0,
            u_max: 2,
        };
        let sol = p.solve_exact();
        // Each facility must get one class-0-heavy and one class-1-heavy
        // party (cohort histogram = global mix = [0.5, 0.5]).
        for k in 0..2 {
            let members: Vec<usize> = sol
                .party_to_facility
                .iter()
                .enumerate()
                .filter(|(_, &kk)| kk == k)
                .map(|(c, _)| c)
                .collect();
            let skews: Vec<bool> = members.iter().map(|&c| p.party_hists[c][0] > 0.5).collect();
            assert_eq!(
                skews.iter().filter(|&&s| s).count(),
                1,
                "unbalanced cohort {members:?}"
            );
        }
        assert!(sol.objective < 2.0 + 1e-3);
    }

    #[test]
    fn greedy_is_feasible_and_close_to_exact() {
        for (lambda, mu) in [(0.5f32, 0.0f32), (0.1, 1.0), (2.0, 0.5)] {
            let p = instance(lambda, mu);
            let exact = p.solve_exact();
            let greedy = p.solve_greedy();
            assert_eq!(greedy.party_to_facility.len(), 4);
            assert!(
                greedy.objective >= exact.objective - 1e-5,
                "greedy cannot beat exact"
            );
            assert!(
                greedy.objective <= exact.objective * 2.0 + 1.0,
                "greedy objective {} too far from exact {}",
                greedy.objective,
                exact.objective
            );
        }
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn validates_total_capacity() {
        let mut p = instance(1.0, 0.0);
        p.u_max = 1;
        p.cost.push(vec![0.0, 0.0, 0.0]);
        p.party_hists.push(vec![0.5, 0.5]);
        p.validate();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Greedy always produces a feasible assignment whose recomputed
        /// objective matches what it reports.
        #[test]
        fn prop_greedy_feasible(
            costs in proptest::collection::vec(
                proptest::collection::vec(0.0f32..3.0, 3), 2..7),
            lambda in 0.0f32..2.0,
            mu in 0.0f32..2.0,
        ) {
            let n = costs.len();
            let p = AssignmentProblem {
                cost: costs,
                is_new: vec![false, true, true],
                party_hists: vec![vec![0.5, 0.5]; n],
                lambda,
                mu,
                u_max: n, // always feasible
            };
            let sol = p.solve_greedy();
            prop_assert_eq!(sol.party_to_facility.len(), n);
            let recomputed = p.objective(&sol.party_to_facility);
            prop_assert!((recomputed - sol.objective).abs() < 1e-4);
        }
    }
}
