//! Parameter-space operations used by expert consolidation: a weighted
//! two-model merge, cosine similarity and L2 distance between flattened
//! parameter vectors. (The federated mean is `shiftex_fl::aggregate_weighted`.)

use shiftex_tensor::vector;

/// Weighted two-model merge used by expert consolidation
/// (`CONSOLIDATEEXPERTS` in Algorithm 2): `wa·a + wb·b`, weights normalised.
///
/// # Panics
///
/// Panics if lengths differ or both weights are zero.
pub fn weighted_merge(a: &[f32], b: &[f32], wa: f32, wb: f32) -> Vec<f32> {
    vector::weighted_mean(&[a, b], &[wa, wb])
}

/// Cosine similarity between two flattened parameter vectors — the
/// `MODELSIMILARITY` test of Algorithm 2 (`cos(θi, θj) > τ ⇒ merge`).
pub fn cosine_params(a: &[f32], b: &[f32]) -> f32 {
    vector::cosine_similarity(a, b)
}

/// Euclidean distance between two flattened parameter vectors.
pub fn param_l2_distance(a: &[f32], b: &[f32]) -> f32 {
    vector::l2_dist(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_convex_combination() {
        let m = weighted_merge(&[0.0], &[10.0], 1.0, 1.0);
        assert!((m[0] - 5.0).abs() < 1e-6);
        let m = weighted_merge(&[0.0], &[10.0], 3.0, 1.0);
        assert!((m[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_same_params_is_one() {
        let p = vec![1.0, -2.0, 0.5];
        assert!((cosine_params(&p, &p) - 1.0).abs() < 1e-6);
    }
}
