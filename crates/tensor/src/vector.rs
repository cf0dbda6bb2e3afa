//! Free-function helpers over `&[f32]` slices.
//!
//! These are used pervasively for embedding vectors, label histograms and
//! flattened model parameters, where allocating a full [`crate::Matrix`]
//! would be overkill.

/// Unroll width of the [`dot`] / [`dot2`] / [`sq_dist`] / [`axpy`] kernels.
///
/// Thirty-two independent `f32` accumulators (four AVX2 registers' worth)
/// break the sequential floating-point dependency chain — strict
/// left-to-right `f32` addition cannot be reordered — with enough
/// instruction-level parallelism to cover the add latency. The
/// explicit-SIMD path in `crate::simd` uses the same layout.
pub const LANES: usize = 32;

// The reductions run on pinned AVX2 intrinsics when the build target
// guarantees them (see `crate::simd` for why autovectorizing the safe lane
// twins is not reliable enough for the Gram-matrix hot path), and on those
// twins everywhere else. Both multiply, then add — never fused — so every
// target computes the same bits.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
use self::{dot2_lanes as dot2_kernel, dot_lanes as dot_kernel, sq_dist_lanes as sq_dist_kernel};
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
use crate::simd::{dot as dot_kernel, dot2 as dot2_kernel, sq_dist as sq_dist_kernel};

/// One [`LANES`]-wide step `acc[l] += x[l] * b[l]` of the safe twins, kept
/// as its own always-inlined function so the vectorizer treats the lane
/// axis as the vector axis.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
#[inline(always)]
fn accumulate_lanes(acc: &mut [f32; LANES], x: &[f32], b: &[f32]) {
    for l in 0..LANES {
        acc[l] += x[l] * b[l];
    }
}

/// Pairwise tree reduction of the lane accumulators, matching the
/// `crate::simd` reduction order exactly.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
#[inline(always)]
fn reduce_lanes(acc: &[f32; LANES]) -> f32 {
    let mut s = [0.0f32; 8];
    for (l, v) in s.iter_mut().enumerate() {
        *v = (acc[l] + acc[l + 8]) + (acc[l + 16] + acc[l + 24]);
    }
    let q = [s[0] + s[4], s[1] + s[5], s[2] + s[6], s[3] + s[7]];
    (q[0] + q[2]) + (q[1] + q[3])
}

/// The safe twin of `crate::simd::dot`: same accumulators, tail and
/// reduction tree, same bits.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
pub(crate) fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        accumulate_lanes(&mut acc, xa, xb);
    }
    let mut tail = 0.0f32;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce_lanes(&acc) + tail
}

/// The safe twin of `crate::simd::dot2`.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
pub(crate) fn dot2_lanes(a0: &[f32], a1: &[f32], b: &[f32]) -> [f32; 2] {
    let mut acc0 = [0.0f32; LANES];
    let mut acc1 = [0.0f32; LANES];
    let mut cb = b.chunks_exact(LANES);
    let mut c0 = a0.chunks_exact(LANES);
    let mut c1 = a1.chunks_exact(LANES);
    for ((xb, x0), x1) in (&mut cb).zip(&mut c0).zip(&mut c1) {
        accumulate_lanes(&mut acc0, x0, xb);
        accumulate_lanes(&mut acc1, x1, xb);
    }
    let mut t0 = 0.0f32;
    let mut t1 = 0.0f32;
    for (&x, &y) in c0.remainder().iter().zip(cb.remainder()) {
        t0 += x * y;
    }
    for (&x, &y) in c1.remainder().iter().zip(cb.remainder()) {
        t1 += x * y;
    }
    [reduce_lanes(&acc0) + t0, reduce_lanes(&acc1) + t1]
}

/// The safe twin of `crate::simd::sq_dist`.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
pub(crate) fn sq_dist_lanes(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    reduce_lanes(&acc) + tail
}

/// Dot product of two equal-length slices.
///
/// Accumulates over [`LANES`] independent partial sums (SIMD-friendly), so
/// the summation order differs from a strict left-to-right reduction;
/// results may differ from a naive loop by normal `f32` rounding. Every
/// target computes the same bits: AVX2 targets run pinned intrinsics
/// (`crate::simd`), the rest a safe lane-unrolled loop with the same
/// accumulator layout, and both multiply, then add.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    dot_kernel(a, b)
}

/// Two dot products sharing one streamed right-hand vector.
///
/// The Gram-matrix kernel ([`crate::Matrix::matmul_t`]) is load-bound: a
/// single [`dot`] issues two loads per multiply-add. Pairing two left-hand
/// rows against one `b` stream amortises the `b` loads and runs two
/// independent [`LANES`]-wide accumulator chains, which is what keeps the
/// multiply and add units fed (wider row tiles spill accumulators out of
/// registers and regress). Each result is bit-identical to `dot(a_i, b)` —
/// same lane layout and reduction order — so kernels mix `dot` and `dot2`
/// freely across rows.
///
/// # Panics
///
/// Panics if the three slices have different lengths.
#[inline]
pub fn dot2(a0: &[f32], a1: &[f32], b: &[f32]) -> [f32; 2] {
    assert_eq!(a0.len(), b.len(), "dot2 length mismatch");
    assert_eq!(a1.len(), b.len(), "dot2 length mismatch");
    dot2_kernel(a0, a1, b)
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// Uses the same [`LANES`]-wide accumulator layout (and SIMD dispatch) as
/// [`dot`]; identical inputs still produce exactly `0.0` (every term is
/// `0.0` before summing).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sq_dist length mismatch");
    sq_dist_kernel(a, b)
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn l2_dist(a: &[f32], b: &[f32]) -> f32 {
    sq_dist(a, b).sqrt()
}

/// Cosine similarity in `[-1, 1]`.
///
/// Returns `0.0` when either vector has (near-)zero norm, which is the
/// conservative choice for the expert-consolidation test `cos(θi, θj) > τ`:
/// degenerate experts are never considered similar.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na < 1e-12 || nb < 1e-12 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f32>() / a.len() as f32
    }
}

/// Population variance (0 for slices with < 2 elements).
pub fn variance(a: &[f32]) -> f32 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / a.len() as f32
}

/// Population standard deviation.
pub fn std_dev(a: &[f32]) -> f32 {
    variance(a).sqrt()
}

/// Index of the maximum element (first on ties). Returns 0 for empty input.
pub fn argmax(a: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in a.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Numerically-stable softmax, returning a fresh probability vector.
pub fn softmax(a: &[f32]) -> Vec<f32> {
    if a.is_empty() {
        return Vec::new();
    }
    let max = a.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = a.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// `a += alpha * b`, elementwise in place.
///
/// Unrolled [`LANES`] wide; each lane is independent so, unlike [`dot`],
/// results are bit-identical to the naive loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(a: &mut [f32], alpha: f32, b: &[f32]) {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    let mut ca = a.chunks_exact_mut(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            xa[l] += alpha * xb[l];
        }
    }
    for (x, &y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
        *x += alpha * y;
    }
}

/// Scales every element in place.
pub fn scale(a: &mut [f32], s: f32) {
    for v in a.iter_mut() {
        *v *= s;
    }
}

/// Normalises a non-negative vector to sum to one.
///
/// If the sum is (near-)zero the uniform distribution is returned instead,
/// which keeps downstream divergence computations well-defined.
pub fn normalize_distribution(a: &[f32]) -> Vec<f32> {
    let sum: f32 = a.iter().sum();
    if sum <= 1e-12 {
        if a.is_empty() {
            return Vec::new();
        }
        return vec![1.0 / a.len() as f32; a.len()];
    }
    a.iter().map(|&v| v / sum).collect()
}

/// Weighted mean of several equal-length vectors; weights need not sum to 1.
///
/// # Panics
///
/// Panics if `vectors` is empty, lengths differ, or all weights are zero.
pub fn weighted_mean(vectors: &[&[f32]], weights: &[f32]) -> Vec<f32> {
    assert!(!vectors.is_empty(), "weighted_mean of empty set");
    assert_eq!(vectors.len(), weights.len(), "weights length mismatch");
    let total: f32 = weights.iter().sum();
    assert!(total > 0.0, "weighted_mean with zero total weight");
    let dim = vectors[0].len();
    let mut out = vec![0.0; dim];
    for (vec, &w) in vectors.iter().zip(weights.iter()) {
        assert_eq!(vec.len(), dim, "weighted_mean dimension mismatch");
        axpy(&mut out, w / total, vec);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_parallel_is_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_gives_uniform() {
        assert_eq!(normalize_distribution(&[0.0, 0.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn weighted_mean_recovers_average() {
        let a = [1.0, 1.0];
        let b = [3.0, 3.0];
        let m = weighted_mean(&[&a, &b], &[1.0, 1.0]);
        assert_eq!(m, vec![2.0, 2.0]);
    }

    #[test]
    fn weighted_mean_respects_weights() {
        let a = [0.0];
        let b = [10.0];
        let m = weighted_mean(&[&a, &b], &[3.0, 1.0]);
        assert!((m[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn argmax_ties_go_to_the_first() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
    }

    proptest! {
        #[test]
        fn prop_cosine_bounded(a in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
            let b: Vec<f32> = a.iter().map(|v| v * 2.0 + 1.0).collect();
            let c = cosine_similarity(&a, &b);
            prop_assert!((-1.0..=1.0).contains(&c));
        }

        #[test]
        fn prop_softmax_is_distribution(a in proptest::collection::vec(-50.0f32..50.0, 1..16)) {
            let p = softmax(&a);
            prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        #[test]
        fn prop_sq_dist_nonnegative_and_symmetric(
            a in proptest::collection::vec(-10.0f32..10.0, 8),
            b in proptest::collection::vec(-10.0f32..10.0, 8),
        ) {
            let d1 = sq_dist(&a, &b);
            let d2 = sq_dist(&b, &a);
            prop_assert!(d1 >= 0.0);
            prop_assert!((d1 - d2).abs() < 1e-4);
        }

        /// Lane-unrolled `dot` matches a strict sequential reduction within
        /// relative tolerance, across lengths that exercise every remainder
        /// branch of the LANES-wide kernel.
        #[test]
        fn prop_dot_matches_sequential(
            a in proptest::collection::vec(-10.0f32..10.0, 1..70),
        ) {
            let b: Vec<f32> = a.iter().rev().map(|v| v * 0.5 + 1.0).collect();
            let naive: f32 = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
            let fast = dot(&a, &b);
            let scale = naive.abs().max(fast.abs()).max(1.0);
            prop_assert!((fast - naive).abs() <= 1e-4 * scale,
                         "fast {fast} vs naive {naive}");
        }

        /// Lane-unrolled `sq_dist` matches the sequential reduction, and is
        /// exactly zero on identical inputs.
        #[test]
        fn prop_sq_dist_matches_sequential(
            a in proptest::collection::vec(-10.0f32..10.0, 1..70),
        ) {
            let b: Vec<f32> = a.iter().map(|v| v + 0.25).collect();
            let naive: f32 = a.iter().zip(b.iter())
                .map(|(&x, &y)| (x - y) * (x - y)).sum();
            let fast = sq_dist(&a, &b);
            let scale = naive.abs().max(fast.abs()).max(1.0);
            prop_assert!((fast - naive).abs() <= 1e-4 * scale);
            prop_assert_eq!(sq_dist(&a, &a), 0.0);
        }

        /// Lane-unrolled `axpy` is bit-identical to the naive update.
        #[test]
        fn prop_axpy_matches_sequential(
            a in proptest::collection::vec(-10.0f32..10.0, 1..70),
            alpha in -4.0f32..4.0,
        ) {
            let b: Vec<f32> = a.iter().map(|v| v * 1.5 - 2.0).collect();
            let mut fast = a.clone();
            axpy(&mut fast, alpha, &b);
            let naive: Vec<f32> = a.iter().zip(b.iter())
                .map(|(&x, &y)| x + alpha * y).collect();
            prop_assert_eq!(fast, naive);
        }
    }
}
