//! Expert consolidation (§5.2.5): merge experts whose parameters have
//! drifted together, keeping the pool compact.

use shiftex_detect::{EmbeddingProfile, RbfKernel};
use shiftex_nn::{cosine_params, weighted_merge};

use crate::registry::{ExpertId, ExpertRegistry};

/// Record of one merge, for window reports and the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeEvent {
    /// Expert that absorbed the other.
    pub kept: ExpertId,
    /// Expert removed from the registry.
    pub removed: ExpertId,
}

/// Repeatedly merges the most similar expert pair while
/// `cos(θ_i, θ_j) > tau` **and** the experts' latent memories agree
/// (`MMD(M_i, M_j) ≤ regime_epsilon`).
///
/// The paper's consolidation targets "redundant or duplicate models that
/// specialize in nearly identical covariate regimes". Parameter cosine alone
/// cannot establish that: any two fine-tunings of a shared initialisation
/// have cosine ≈ 0.99. The latent-memory gate supplies the "identical
/// regime" half of the condition (pass `f32::INFINITY` to disable it and
/// recover the raw cosine rule).
///
/// Experts created at or after `min_age_window` are exempt: a new expert is
/// a clone of θ0 that has not yet specialised, and Algorithm 2 trains new
/// experts (line 23) *before* the consolidation loop (line 34) — merging an
/// untrained clone back would undo its creation.
///
/// The surviving expert takes the cohort-size-weighted parameter average and
/// the merged latent memory; the id of the larger-cohort expert is kept so
/// most parties keep their assignment. Returns the merge log; the caller
/// must remap assignments of removed experts (see
/// [`crate::aggregator::ShiftEx`]).
///
/// Consolidation never increases the registry size — each iteration removes
/// exactly one expert — so it terminates after at most `len − 1` merges.
pub fn consolidate_experts(
    registry: &mut ExpertRegistry,
    tau: f32,
    min_age_window: usize,
    regime_epsilon: f32,
    kernel: Option<&RbfKernel>,
) -> Vec<MergeEvent> {
    let mut events = Vec::new();
    loop {
        // Find the most similar *eligible* pair above the threshold.
        let experts: Vec<(ExpertId, usize)> = registry
            .iter()
            .filter(|e| e.created_window < min_age_window)
            .map(|e| (e.id, e.cohort_size))
            .collect();
        let mut best: Option<(ExpertId, ExpertId, f32)> = None;
        for i in 0..experts.len() {
            for j in (i + 1)..experts.len() {
                let a = registry.live(experts[i].0);
                let b = registry.live(experts[j].0);
                let cos = cosine_params(&a.params, &b.params);
                if cos <= tau || best.is_some_and(|(_, _, c)| cos <= c) {
                    continue;
                }
                if regime_epsilon.is_finite() {
                    let probe = EmbeddingProfile::from_sample(b.memory.sample().clone());
                    let regime_gap = match kernel {
                        Some(k) => a.memory.mmd_to_with(&probe, k),
                        None => a.memory.mmd_to(&probe),
                    };
                    if regime_gap > regime_epsilon {
                        continue;
                    }
                }
                best = Some((a.id, b.id, cos));
            }
        }
        let Some((ia, ib, _)) = best else { break };

        // Keep the larger cohort's id.
        let (keep_id, drop_id) = {
            let a = registry.live(ia);
            let b = registry.live(ib);
            if a.cohort_size >= b.cohort_size {
                (ia, ib)
            } else {
                (ib, ia)
            }
        };
        let dropped = registry
            .remove(drop_id)
            // lint:allow(panic): drop_id came out of `best` just above — the pair invariant
            .expect("expert selected for merge exists");
        let kept = registry.live_mut(keep_id);
        let (wa, wb) = (
            kept.cohort_size.max(1) as f32,
            dropped.cohort_size.max(1) as f32,
        );
        kept.params = weighted_merge(&kept.params, &dropped.params, wa, wb);
        kept.memory = kept.memory.merge(&dropped.memory, wa, wb);
        kept.cohort_size += dropped.cohort_size;
        events.push(MergeEvent {
            kept: keep_id,
            removed: drop_id,
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shiftex_detect::EmbeddingProfile;
    use shiftex_tensor::Matrix;

    fn profile(mean: f32, seed: u64) -> EmbeddingProfile {
        let mut rng = StdRng::seed_from_u64(seed);
        EmbeddingProfile::from_embeddings(&Matrix::randn(16, 3, mean, 0.5, &mut rng), 16, &mut rng)
    }

    fn registry_with(params: Vec<(Vec<f32>, usize)>) -> ExpertRegistry {
        let mut reg = ExpertRegistry::new();
        for (i, (p, cohort)) in params.into_iter().enumerate() {
            let id = reg.create(p, &profile(i as f32, i as u64), 0);
            reg.get_mut(id).unwrap().cohort_size = cohort;
        }
        reg
    }

    #[test]
    fn identical_experts_merge() {
        let p = vec![1.0, 2.0, 3.0];
        let mut reg = registry_with(vec![(p.clone(), 5), (p.clone(), 3)]);
        let events = consolidate_experts(&mut reg, 0.99, 1, f32::INFINITY, None);
        assert_eq!(events.len(), 1);
        assert_eq!(reg.len(), 1);
        // Larger cohort's id survives.
        assert_eq!(events[0].kept, ExpertId(0));
        assert_eq!(reg.iter().next().unwrap().cohort_size, 8);
    }

    #[test]
    fn dissimilar_experts_are_kept() {
        let mut reg = registry_with(vec![(vec![1.0, 0.0, 0.0], 2), (vec![0.0, 1.0, 0.0], 2)]);
        let events = consolidate_experts(&mut reg, 0.9, 1, f32::INFINITY, None);
        assert!(events.is_empty());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn merge_is_cohort_weighted() {
        let mut reg = registry_with(vec![(vec![0.0, 0.0], 3), (vec![0.4, 0.4], 1)]);
        // cos([0,0], x) is 0 by convention, so use near-parallel params.
        let mut reg2 = registry_with(vec![(vec![1.0, 1.0], 3), (vec![1.4, 1.4], 1)]);
        consolidate_experts(&mut reg, 0.99, 1, f32::INFINITY, None); // no merge: zero-norm guard
        let events = consolidate_experts(&mut reg2, 0.99, 1, f32::INFINITY, None);
        assert_eq!(events.len(), 1);
        let merged = reg2.iter().next().unwrap();
        // Weighted mean: (3*1.0 + 1*1.4) / 4 = 1.1.
        assert!(
            (merged.params[0] - 1.1).abs() < 1e-5,
            "got {}",
            merged.params[0]
        );
    }

    #[test]
    fn chain_of_similar_experts_collapses() {
        let mut reg = registry_with(vec![
            (vec![1.0, 1.0], 1),
            (vec![1.01, 1.0], 1),
            (vec![1.0, 1.01], 1),
        ]);
        let events = consolidate_experts(&mut reg, 0.999, 1, f32::INFINITY, None);
        assert_eq!(events.len(), 2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn regime_gate_blocks_cross_regime_merges() {
        // Two experts with near-identical parameters but far-apart latent
        // memories (different covariate regimes) must not merge.
        let mut reg = ExpertRegistry::new();
        let a = reg.create(vec![1.0, 1.0], &profile(8.0, 21), 0);
        let b = reg.create(vec![1.001, 1.0], &profile(-8.0, 22), 0);
        reg.get_mut(a).unwrap().cohort_size = 2;
        reg.get_mut(b).unwrap().cohort_size = 2;
        let events = consolidate_experts(&mut reg, 0.99, 1, 0.05, None);
        assert!(events.is_empty(), "cross-regime merge should be blocked");
        assert_eq!(reg.len(), 2);

        // Same parameters with *matching* memories do merge.
        let mut reg2 = ExpertRegistry::new();
        let a2 = reg2.create(vec![1.0, 1.0], &profile(8.0, 23), 0);
        let b2 = reg2.create(vec![1.001, 1.0], &profile(8.0, 24), 0);
        reg2.get_mut(a2).unwrap().cohort_size = 2;
        reg2.get_mut(b2).unwrap().cohort_size = 2;
        let events = consolidate_experts(&mut reg2, 0.99, 1, 0.5, None);
        assert_eq!(events.len(), 1, "same-regime duplicates should merge");
    }

    #[test]
    fn registry_never_grows() {
        let mut reg = registry_with(vec![
            (vec![1.0, 0.0], 1),
            (vec![0.9, 0.1], 1),
            (vec![-1.0, 0.5], 1),
        ]);
        let before = reg.len();
        consolidate_experts(&mut reg, 0.95, 1, f32::INFINITY, None);
        assert!(reg.len() <= before);
    }
}
