//! Participant selection interface.
//!
//! Different strategies plug different policies in here: uniform sampling
//! (FedAvg/FedProx), label-cluster-balanced FLIPS, utility-guided OORT.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use shiftex_cluster::choose_k_rows;
use shiftex_tensor::rngx;

use crate::party::{PartyId, PartyInfo};

/// A participant-selection policy.
///
/// Implementations may keep state across rounds (exploration/exploitation
/// balances, cluster assignments); `select` is handed the published metadata
/// of the *eligible* parties for this round and must return a subset of
/// their ids.
pub trait ParticipantSelector {
    /// Round boundary: called exactly once per federation round, before any
    /// `select` call of that round. Multi-model algorithms call `select`
    /// once *per model stream*, so time-based bookkeeping (utility decay,
    /// cooldown expiry) belongs here, not in `select`. Default: ignored.
    fn begin_round(&mut self) {}

    /// Picks `m` parties (or all, when fewer are eligible). May be called
    /// several times per round (once per model stream needing a cohort).
    fn select(&mut self, pool: &[PartyInfo], m: usize, rng: &mut StdRng) -> Vec<PartyId>;

    /// Feedback hook: called after a round with each participant's training
    /// loss, for utility-driven selectors. Default: ignored.
    fn observe(&mut self, _party: PartyId, _train_loss: f32) {}

    /// Liveness feedback: `party` was selected but its update never made it
    /// into an aggregation (mid-round dropout, or a straggler past the
    /// deadline). Availability-aware selectors can down-weight flaky
    /// parties. Default: ignored.
    fn on_unavailable(&mut self, _party: PartyId) {}

    /// Rejection feedback: `party` delivered its update on time but a
    /// robust fold quarantined it. The party was *alive* and paid the
    /// bytes, so availability cooldowns must not fire here — this hook is
    /// the seam for a future reputation signal, kept deliberately separate
    /// from [`on_unavailable`](Self::on_unavailable). Default: ignored.
    fn on_rejected(&mut self, _party: PartyId) {}

    /// Human-readable policy name.
    fn name(&self) -> &str {
        "selector"
    }
}

/// Uniform random selection without replacement.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSelector;

impl ParticipantSelector for UniformSelector {
    fn select(&mut self, pool: &[PartyInfo], m: usize, rng: &mut StdRng) -> Vec<PartyId> {
        let m = m.min(pool.len());
        rngx::sample_without_replacement(rng, pool.len(), m)
            .into_iter()
            .map(|i| pool[i].id)
            .collect()
    }

    fn name(&self) -> &str {
        "uniform"
    }
}

/// Label-distribution clustering result.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelClusters {
    /// Party ids per cluster.
    pub clusters: Vec<Vec<PartyId>>,
    /// Centroid label histogram per cluster.
    pub centroids: Vec<Vec<f32>>,
}

/// Clusters parties by label histogram with k chosen by Davies–Bouldin +
/// elbow (the same machinery ShiftEx uses for covariate clusters).
///
/// # Panics
///
/// Panics if `infos` is empty.
pub fn cluster_by_labels(infos: &[PartyInfo], k_max: usize, rng: &mut StdRng) -> LabelClusters {
    assert!(!infos.is_empty(), "cannot cluster an empty party set");
    let points: Vec<&[f32]> = infos.iter().map(|i| i.label_hist.as_slice()).collect();
    let selection = choose_k_rows(&points, k_max.max(1), rng);
    let mut clusters = vec![Vec::new(); selection.result.centroids.len()];
    for (i, &c) in selection.result.assignment.iter().enumerate() {
        clusters[c].push(infos[i].id);
    }
    LabelClusters {
        clusters,
        centroids: selection.result.centroids,
    }
}

/// FLIPS — Federated Learning with Intelligent Participant Selection
/// (Bhope et al., Middleware 2023), the selector ShiftEx uses for
/// label-balanced expert updates (§4.1, §5.2.3–5.2.4 of the ShiftEx paper).
///
/// Clusters parties by their published label histograms and, per round,
/// fills the cohort by cycling over clusters round-robin so no label regime
/// dominates training. In ShiftEx's facility-location view this realises
/// the μ (label-imbalance) term of Eq. 2 without manual tuning.
///
/// # Example
///
/// ```
/// use shiftex_fl::{FlipsSelector, ParticipantSelector, PartyId, PartyInfo};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // Two label regimes: class-0-heavy and class-1-heavy parties.
/// let infos: Vec<PartyInfo> = (0..8)
///     .map(|i| PartyInfo {
///         id: PartyId(i),
///         num_samples: 10,
///         label_hist: if i < 4 { vec![0.9, 0.1] } else { vec![0.1, 0.9] },
///         last_loss: None,
///     })
///     .collect();
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut flips = FlipsSelector::fit(&infos, 4, &mut rng);
/// let cohort = flips.select(&infos, 4, &mut rng);
/// assert_eq!(cohort.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FlipsSelector {
    clusters: LabelClusters,
    cursor: usize,
}

impl FlipsSelector {
    /// Fits FLIPS clusters to the given party metadata.
    ///
    /// # Panics
    ///
    /// Panics if `infos` is empty.
    pub fn fit(infos: &[PartyInfo], k_max: usize, rng: &mut StdRng) -> Self {
        Self {
            clusters: cluster_by_labels(infos, k_max, rng),
            cursor: 0,
        }
    }

    /// The fitted label clusters.
    pub fn clusters(&self) -> &LabelClusters {
        &self.clusters
    }

    /// Re-fits the clusters (parties' label distributions changed windows).
    pub fn refit(&mut self, infos: &[PartyInfo], k_max: usize, rng: &mut StdRng) {
        self.clusters = cluster_by_labels(infos, k_max, rng);
    }
}

impl ParticipantSelector for FlipsSelector {
    fn select(&mut self, pool: &[PartyInfo], m: usize, rng: &mut StdRng) -> Vec<PartyId> {
        let eligible: BTreeSet<PartyId> = pool.iter().map(|p| p.id).collect();
        let m = m.min(pool.len());
        // Shuffle each cluster's eligible members, then deal round-robin.
        let mut decks: Vec<Vec<PartyId>> = self
            .clusters
            .clusters
            .iter()
            .map(|c| {
                let mut deck: Vec<PartyId> = c
                    .iter()
                    .copied()
                    .filter(|id| eligible.contains(id))
                    .collect();
                rngx::shuffle(rng, &mut deck);
                deck
            })
            .filter(|d| !d.is_empty())
            .collect();
        let mut chosen = Vec::with_capacity(m);
        while chosen.len() < m && !decks.is_empty() {
            let idx = self.cursor % decks.len();
            if let Some(id) = decks[idx].pop() {
                chosen.push(id);
            }
            if decks[idx].is_empty() {
                decks.remove(idx);
            } else {
                self.cursor = self.cursor.wrapping_add(1);
            }
        }
        // Top up from the raw pool if clusters didn't cover everyone
        // (parties unseen at fit time).
        if chosen.len() < m {
            let have: BTreeSet<PartyId> = chosen.iter().copied().collect();
            for p in pool {
                if chosen.len() >= m {
                    break;
                }
                if !have.contains(&p.id) {
                    chosen.push(p.id);
                }
            }
        }
        chosen
    }

    fn name(&self) -> &str {
        "flips"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
    fn selects_requested_count_without_duplicates() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut sel = UniformSelector;
        let picked = sel.select(&pool(20), 8, &mut rng);
        assert_eq!(picked.len(), 8);
        let mut ids: Vec<usize> = picked.iter().map(|p| p.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn caps_at_pool_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sel = UniformSelector;
        assert_eq!(sel.select(&pool(3), 10, &mut rng).len(), 3);
    }

    #[test]
    fn covers_all_parties_over_many_rounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sel = UniformSelector;
        let p = pool(10);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            for id in sel.select(&p, 3, &mut rng) {
                seen.insert(id);
            }
        }
        assert_eq!(seen.len(), 10, "uniform selection should cover the pool");
    }

    fn skewed_pool(n_per_regime: usize) -> Vec<PartyInfo> {
        let mut infos = Vec::new();
        for i in 0..n_per_regime {
            infos.push(PartyInfo {
                id: PartyId(i),
                num_samples: 10,
                label_hist: vec![0.85, 0.05, 0.05, 0.05],
                last_loss: None,
            });
        }
        for i in 0..n_per_regime {
            infos.push(PartyInfo {
                id: PartyId(n_per_regime + i),
                num_samples: 10,
                label_hist: vec![0.05, 0.05, 0.05, 0.85],
                last_loss: None,
            });
        }
        infos
    }

    #[test]
    fn clustering_separates_label_regimes() {
        let infos = skewed_pool(6);
        let mut rng = StdRng::seed_from_u64(0);
        let lc = cluster_by_labels(&infos, 4, &mut rng);
        assert_eq!(lc.clusters.len(), 2, "expected two label regimes");
        for cluster in &lc.clusters {
            let low: Vec<bool> = cluster.iter().map(|id| id.0 < 6).collect();
            assert!(
                low.iter().all(|&b| b == low[0]),
                "mixed cluster: {cluster:?}"
            );
        }
    }

    #[test]
    fn selection_is_balanced_across_clusters() {
        let infos = skewed_pool(10);
        let mut rng = StdRng::seed_from_u64(1);
        let mut flips = FlipsSelector::fit(&infos, 4, &mut rng);
        let cohort = flips.select(&infos, 10, &mut rng);
        let regime_a = cohort.iter().filter(|id| id.0 < 10).count();
        let regime_b = cohort.len() - regime_a;
        assert!(
            (regime_a as i64 - regime_b as i64).abs() <= 2,
            "imbalanced cohort: {regime_a} vs {regime_b}"
        );
    }

    #[test]
    fn selection_respects_eligible_subset() {
        let infos = skewed_pool(5);
        let mut rng = StdRng::seed_from_u64(2);
        let mut flips = FlipsSelector::fit(&infos, 4, &mut rng);
        // Only regime-A parties eligible this round.
        let eligible: Vec<PartyInfo> = infos[..5].to_vec();
        let cohort = flips.select(&eligible, 3, &mut rng);
        assert_eq!(cohort.len(), 3);
        assert!(cohort.iter().all(|id| id.0 < 5));
    }

    #[test]
    fn handles_unseen_parties_via_topup() {
        let infos = skewed_pool(4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut flips = FlipsSelector::fit(&infos[..4], 3, &mut rng);
        // Pool contains parties FLIPS never clustered.
        let cohort = flips.select(&infos, 8, &mut rng);
        assert_eq!(cohort.len(), 8);
    }

    #[test]
    fn uniform_histograms_form_single_cluster() {
        let infos: Vec<PartyInfo> = (0..8)
            .map(|i| PartyInfo {
                id: PartyId(i),
                num_samples: 10,
                label_hist: vec![0.25; 4],
                last_loss: None,
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(4);
        let lc = cluster_by_labels(&infos, 4, &mut rng);
        assert_eq!(lc.clusters.len(), 1);
    }

    #[test]
    fn selection_without_duplicates() {
        let infos = skewed_pool(8);
        let mut rng = StdRng::seed_from_u64(5);
        let mut flips = FlipsSelector::fit(&infos, 4, &mut rng);
        let cohort = flips.select(&infos, 12, &mut rng);
        let mut ids: Vec<usize> = cohort.iter().map(|p| p.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }
}
