//! Cluster-count selection: Davies–Bouldin index with the elbow method,
//! the rule the paper uses in place of hand-tuning the expert-creation cost
//! λ ("we rely on clustering quality metrics, applying the Davies–Bouldin
//! Index with the elbow method", §5.2.2).

use rand::Rng;

use crate::kmeans::{KMeans, KMeansResult, Points};
use crate::validity::davies_bouldin;

/// Outcome of a k sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct KSelection {
    /// Chosen number of clusters.
    pub k: usize,
    /// The fit at the chosen k.
    pub result: KMeansResult,
    /// Davies–Bouldin index per candidate k (index 0 ↔ k = 1).
    pub db_scores: Vec<f32>,
    /// Inertia per candidate k (for the elbow criterion).
    pub inertias: Vec<f32>,
}

/// Davies–Bouldin value below which a multi-cluster split is considered
/// genuinely separated. A 2-way split of a single Gaussian blob scores
/// ≈ 1.2; well-separated regimes score ≪ 1.
pub const DB_ACCEPT: f32 = 0.8;

/// Elbow criterion: a multi-cluster solution must collapse inertia to at
/// most this fraction of the k = 1 inertia. Splitting one homogeneous blob
/// removes only ~30 % of inertia per added cluster and fails this test,
/// while genuinely multi-regime data collapses by orders of magnitude.
pub const ELBOW_FRAC: f32 = 0.1;

/// Sweeps `k = 1..=k_max`, scoring each fit with the Davies–Bouldin index,
/// and picks the best k.
///
/// A multi-cluster solution is accepted only when its DB index clears
/// [`DB_ACCEPT`] *and* the elbow criterion [`ELBOW_FRAC`] holds; among
/// near-tied DB scores the smallest k wins (parsimony). This is the rule
/// that stands in for hand-tuning the expert-creation cost λ in Eq. 2
/// (§5.2.2 of the paper).
///
/// # Panics
///
/// Panics if `points` is empty or `k_max == 0`.
pub fn choose_k(points: &[Vec<f32>], k_max: usize, rng: &mut impl Rng) -> KSelection {
    choose_k_rows(points, k_max, rng)
}

/// [`choose_k`] over rows of any type that lends an `[f32]`, such as
/// slices borrowed out of other records: a caller whose points already
/// live elsewhere fits them in place instead of copying each into a `Vec`.
/// The same draws and the same bits as [`choose_k`] over copies of the
/// rows.
///
/// # Panics
///
/// Panics if `points` is empty or `k_max == 0`.
pub fn choose_k_rows<P: AsRef<[f32]>>(
    points: &[P],
    k_max: usize,
    rng: &mut impl Rng,
) -> KSelection {
    assert!(!points.is_empty(), "choose_k on empty point set");
    assert!(k_max > 0, "k_max must be positive");
    // Cap k so clusters average ≥ 2 points: singleton-heavy solutions have
    // zero scatter, which makes both DB (0) and inertia (0) degenerately
    // "perfect" without describing any real regime structure.
    let k_max = k_max.min(points.len() / 2).max(1);

    // Laid out once for the kernels, shared by every k and every restart.
    let layout = Points::new(points);
    let mut fits: Vec<KMeansResult> = Vec::with_capacity(k_max);
    let mut db_scores = Vec::with_capacity(k_max);
    let mut inertias = Vec::with_capacity(k_max);
    for k in 1..=k_max {
        let fit = KMeans::new(k).fit_points(&layout, rng);
        db_scores.push(davies_bouldin(points, &fit.assignment, &fit.centroids));
        inertias.push(fit.inertia);
        fits.push(fit);
    }

    // Multi-cluster candidates must pass both quality gates.
    let admissible = |cand: usize| {
        db_scores[cand] <= DB_ACCEPT && inertias[cand] <= ELBOW_FRAC * inertias[0].max(1e-12)
    };
    let mut best = 0usize; // index into fits (k = index + 1); 0 means k = 1
    let min_db = (1..fits.len())
        .filter(|&c| admissible(c))
        .map(|c| db_scores[c])
        .fold(f32::INFINITY, f32::min);
    if min_db.is_finite() {
        // Smallest admissible k whose DB is within 10 % of the minimum.
        if let Some(cand) =
            (1..fits.len()).find(|&c| admissible(c) && db_scores[c] <= min_db * 1.1 + 1e-6)
        {
            best = cand;
        }
    }
    KSelection {
        k: best + 1,
        result: fits.swap_remove(best),
        db_scores,
        inertias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shiftex_tensor::rngx;

    fn blobs(centers: &[f32], n_per: usize, std: f32, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for &c in centers {
            for _ in 0..n_per {
                out.push(vec![
                    c + rngx::normal(&mut rng, 0.0, std),
                    c + rngx::normal(&mut rng, 0.0, std),
                ]);
            }
        }
        out
    }

    #[test]
    fn finds_three_separated_blobs() {
        let points = blobs(&[0.0, 10.0, 20.0], 15, 0.3, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = choose_k(&points, 6, &mut rng);
        assert_eq!(sel.k, 3, "db scores {:?}", sel.db_scores);
    }

    #[test]
    fn single_blob_stays_one_cluster() {
        let points = blobs(&[0.0], 30, 0.5, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let sel = choose_k(&points, 5, &mut rng);
        assert_eq!(sel.k, 1, "inertias {:?}", sel.inertias);
    }

    #[test]
    fn two_blobs_give_two() {
        let points = blobs(&[0.0, 8.0], 20, 0.4, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let sel = choose_k(&points, 5, &mut rng);
        assert_eq!(sel.k, 2);
    }

    #[test]
    fn k_max_respected() {
        let points = blobs(&[0.0, 5.0, 10.0, 15.0], 10, 0.2, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let sel = choose_k(&points, 2, &mut rng);
        assert!(sel.k <= 2);
    }

    #[test]
    fn selection_reports_sweep_metadata() {
        let points = blobs(&[0.0, 9.0], 10, 0.3, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let sel = choose_k(&points, 4, &mut rng);
        assert_eq!(sel.db_scores.len(), 4);
        assert_eq!(sel.inertias.len(), 4);
        // Inertia at chosen k should be far below k=1.
        assert!(sel.inertias[sel.k - 1] < sel.inertias[0]);
    }
}
