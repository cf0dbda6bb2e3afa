//! Seedable sampling distributions implemented from scratch.
//!
//! The workspace deliberately depends only on the `rand` core crate; the
//! distributions needed by the experimental protocol — normal noise for
//! synthetic images, gamma/Dirichlet for label-skew partitioning — are
//! implemented here (Box–Muller and Marsaglia–Tsang respectively).

use rand::Rng;

/// Draws one sample from `N(mean, std²)` via the Box–Muller transform.
///
/// # Panics
///
/// Panics if `std` is negative.
pub fn normal(rng: &mut impl Rng, mean: f32, std: f32) -> f32 {
    assert!(std >= 0.0, "standard deviation must be non-negative");
    if std == 0.0 {
        return mean;
    }
    // Box–Muller: avoid u1 == 0 to keep ln finite.
    let u1: f32 = rng.random_range(f32::EPSILON..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
    mean + std * z
}

/// Draws one sample from `Gamma(shape, 1)` using Marsaglia–Tsang squeeze
/// (with the standard `shape < 1` boost).
///
/// # Panics
///
/// Panics if `shape <= 0`.
pub fn gamma(rng: &mut impl Rng, shape: f32) -> f32 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
        let u: f32 = rng.random_range(f32::EPSILON..1.0);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal(rng, 0.0, 1.0);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f32 = rng.random_range(f32::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Draws one sample from the symmetric `Dirichlet(alpha, ..., alpha)` over
/// `k` categories. Smaller `alpha` means more skew — the standard non-IID
/// federated-learning partitioning knob.
///
/// # Panics
///
/// Panics if `k == 0` or `alpha <= 0`.
pub fn dirichlet(rng: &mut impl Rng, alpha: f32, k: usize) -> Vec<f32> {
    dirichlet_with(rng, &vec![alpha; k])
}

/// Draws one sample from `Dirichlet(alphas)`.
///
/// # Panics
///
/// Panics if `alphas` is empty or any entry is non-positive.
pub fn dirichlet_with(rng: &mut impl Rng, alphas: &[f32]) -> Vec<f32> {
    assert!(!alphas.is_empty(), "dirichlet needs at least one category");
    let gammas: Vec<f32> = alphas.iter().map(|&a| gamma(rng, a)).collect();
    let sum: f32 = gammas.iter().sum();
    if sum <= 1e-20 {
        // Numerically degenerate draw (can happen for very small alpha);
        // fall back to a one-hot on a random category, which is the limit
        // behaviour of Dirichlet as alpha -> 0.
        let mut out = vec![0.0; alphas.len()];
        out[rng.random_range(0..alphas.len())] = 1.0;
        return out;
    }
    gammas.into_iter().map(|g| g / sum).collect()
}

/// Samples one index from a (not necessarily normalised) weight vector.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn categorical(rng: &mut impl Rng, weights: &[f32]) -> usize {
    assert!(!weights.is_empty(), "categorical needs at least one weight");
    let total: f32 = weights.iter().sum();
    assert!(total > 0.0, "categorical weights must have positive sum");
    let mut t = rng.random_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if t < w {
            return i;
        }
        t -= w;
    }
    weights.len() - 1
}

/// Fisher–Yates shuffle of a slice (uniform over permutations).
pub fn shuffle<T>(rng: &mut impl Rng, slice: &mut [T]) {
    for i in (1..slice.len()).rev() {
        let j = rng.random_range(0..=i);
        slice.swap(i, j);
    }
}

/// Samples `m` distinct indices uniformly from `0..n` (partial Fisher–Yates).
///
/// # Panics
///
/// Panics if `m > n`.
pub fn sample_without_replacement(rng: &mut impl Rng, n: usize, m: usize) -> Vec<usize> {
    assert!(m <= n, "cannot sample {m} from {n} without replacement");
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..m {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(m);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f32> = (0..20_000).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        assert!((vector::mean(&xs) - 2.0).abs() < 0.1);
        assert!((vector::std_dev(&xs) - 3.0).abs() < 0.1);
    }

    #[test]
    fn normal_zero_std_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(normal(&mut rng, 5.0, 0.0), 5.0);
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        for &shape in &[0.5f32, 1.0, 2.5, 8.0] {
            let xs: Vec<f32> = (0..20_000).map(|_| gamma(&mut rng, shape)).collect();
            let m = vector::mean(&xs);
            assert!(
                (m - shape).abs() < 0.15 * shape.max(1.0),
                "gamma({shape}) sample mean {m}"
            );
        }
    }

    #[test]
    fn dirichlet_sums_to_one_and_is_skewed_for_small_alpha() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = dirichlet(&mut rng, 0.1, 10);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        let max = p.iter().cloned().fold(0.0, f32::max);
        assert!(max > 0.3, "alpha=0.1 draws should be skewed, got max {max}");
        let q = dirichlet(&mut rng, 100.0, 10);
        let max_q = q.iter().cloned().fold(0.0, f32::max);
        assert!(
            max_q < 0.2,
            "alpha=100 draws should be near-uniform, got max {max_q}"
        );
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[categorical(&mut rng, &[1.0, 2.0, 7.0])] += 1;
        }
        let f2 = counts[2] as f32 / 30_000.0;
        assert!((f2 - 0.7).abs() < 0.02, "weight-7 category frequency {f2}");
    }

    #[test]
    fn sampling_without_replacement_is_distinct() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = sample_without_replacement(&mut rng, 100, 30);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut v: Vec<usize> = (0..50).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "gamma shape must be positive")]
    fn gamma_rejects_nonpositive_shape() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = gamma(&mut rng, 0.0);
    }
}
