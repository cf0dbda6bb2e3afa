//! Lloyd's k-means with k-means++ initialisation.

use rand::Rng;
use serde::{Deserialize, Serialize};
use shiftex_tensor::{rngx, vector};

/// K-means configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence tolerance on total centroid movement.
    pub tol: f32,
    /// Independent k-means++ restarts; the lowest-inertia fit wins. Single
    /// restarts leave validity indices (Davies–Bouldin) hostage to seeding
    /// luck, which destabilises the k-selection sweep in
    /// [`crate::choose_k`].
    pub n_init: usize,
}

/// Result of a k-means fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Final centroids (`k` vectors; empty clusters are dropped, so the
    /// actual count may be smaller than requested).
    pub centroids: Vec<Vec<f32>>,
    /// Cluster index per input point.
    pub assignment: Vec<usize>,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f32,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Point indices grouped per cluster.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.centroids.len()];
        for (i, &c) in self.assignment.iter().enumerate() {
            groups[c].push(i);
        }
        groups
    }
}

impl KMeans {
    /// Creates a k-means configuration with defaults (`max_iter` 50,
    /// `tol` 1e-4, `n_init` 4).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            max_iter: 50,
            tol: 1e-4,
            n_init: 4,
        }
    }

    /// Fits k-means to `points` (each a feature vector of equal length),
    /// running [`KMeans::n_init`] k-means++ restarts and keeping the
    /// lowest-inertia fit. When `points.len() <= k` each point becomes its
    /// own cluster. Empty clusters are removed from the result.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, dimensions differ, or `n_init == 0`.
    pub fn fit(&self, points: &[Vec<f32>], rng: &mut impl Rng) -> KMeansResult {
        assert!(self.n_init > 0, "n_init must be positive");
        self.fit_points(&Points::new(points), rng)
    }

    /// [`KMeans::fit`] over a layout built once by the caller, so a sweep
    /// over k shares it across every k and every restart.
    pub(crate) fn fit_points(&self, points: &Points<'_>, rng: &mut impl Rng) -> KMeansResult {
        assert!(self.n_init > 0, "n_init must be positive");
        let mut best: Option<KMeansResult> = None;
        for _ in 0..self.n_init {
            let fit = self.fit_once(points, rng);
            if best.as_ref().is_none_or(|b| fit.inertia < b.inertia) {
                best = Some(fit);
            }
        }
        best.expect("n_init > 0 guarantees at least one fit")
    }

    /// One k-means++ seeded Lloyd run.
    fn fit_once(&self, points: &Points<'_>, rng: &mut impl Rng) -> KMeansResult {
        let rows = points.rows;
        let dim = points.dim;
        let k = self.k.min(rows.len());

        let mut assignment = vec![0usize; rows.len()];
        let mut dists = vec![0.0f32; rows.len()];
        let mut centroids = plus_plus_init(points, k, &mut dists, rng);
        // The update step's rows, allocated once per fit: each iteration
        // zeroes them, sums into them, and divides a cluster's row in place
        // into its new centroid, which then swaps with the old one.
        let mut sums = vec![vec![0.0f32; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        let mut iterations = 0;
        for iter in 0..self.max_iter {
            iterations = iter + 1;
            // Assign.
            points.nearest(&centroids, &mut assignment, &mut dists);
            // Update.
            sums.iter_mut().for_each(|sum| sum.fill(0.0));
            counts.fill(0);
            for (p, &a) in rows.iter().zip(assignment.iter()) {
                vector::axpy(&mut sums[a], 1.0, p);
                counts[a] += 1;
            }
            let mut movement = 0.0;
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter_mut().zip(&counts)) {
                if count == 0 {
                    continue; // keep old centroid; may be dropped below
                }
                sum.iter_mut().for_each(|s| *s /= count as f32);
                movement += vector::l2_dist(c, sum);
                std::mem::swap(c, sum);
            }
            if movement < self.tol {
                break;
            }
        }

        // Final assignment, then drop empty clusters and re-index.
        points.nearest(&centroids, &mut assignment, &mut dists);
        let mut used: Vec<usize> = assignment.clone();
        used.sort_unstable();
        used.dedup();
        let remap: std::collections::BTreeMap<usize, usize> = used
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let centroids: Vec<Vec<f32>> = used.iter().map(|&i| centroids[i].clone()).collect();
        for a in assignment.iter_mut() {
            *a = remap[a];
        }
        let inertia = rows
            .iter()
            .zip(assignment.iter())
            .map(|(p, &a)| vector::sq_dist(p, &centroids[a]))
            .sum();
        KMeansResult {
            centroids,
            assignment,
            inertia,
            iterations,
        }
    }
}

/// Lanes of a [`Points`] block: one point per lane, eight points at once.
const BLOCK: usize = 8;

/// A point set laid out for its distance kernels.
///
/// Below [`vector::LANES`] dims, [`vector::sq_dist`] never fills one of its
/// lane accumulators: its result is `0.0` plus a sum of squared differences
/// that starts at `0.0` and adds the dims in ascending order. So the points
/// are transposed once into blocks of [`BLOCK`] points, dims outermost,
/// and one pass over a block computes that same sum for eight points side
/// by side, one point per lane — the same bits as `sq_dist` per pair, with
/// no multiply fused into an add. At [`vector::LANES`] dims or more (and at
/// zero), every pair goes through `sq_dist`.
#[derive(Debug)]
pub(crate) struct Points<'a> {
    rows: &'a [Vec<f32>],
    dim: usize,
    /// Block `b` holds points `b·BLOCK ..`: dim `d` of its lanes at
    /// `[b·dim + d]`, a short last block padded with zeros. `None` when
    /// pairs go through `sq_dist`.
    blocks: Option<Vec<[f32; BLOCK]>>,
}

impl<'a> Points<'a> {
    /// Lays `rows` out for the kernels.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or dimensions differ.
    pub(crate) fn new(rows: &'a [Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "kmeans on empty point set");
        let dim = rows[0].len();
        assert!(
            rows.iter().all(|p| p.len() == dim),
            "point dimension mismatch"
        );
        let blocks = (dim > 0 && dim < vector::LANES).then(|| {
            let mut blocks = vec![[0.0f32; BLOCK]; rows.len().div_ceil(BLOCK) * dim];
            for (i, p) in rows.iter().enumerate() {
                let block = &mut blocks[(i / BLOCK) * dim..][..dim];
                for (lanes, &v) in block.iter_mut().zip(p) {
                    lanes[i % BLOCK] = v;
                }
            }
            blocks
        });
        Self { rows, dim, blocks }
    }

    /// The same points, every pair through `sq_dist`: the reference the
    /// block kernels are tested against.
    #[cfg(test)]
    fn by_rows(rows: &'a [Vec<f32>]) -> Self {
        Self {
            blocks: None,
            ..Self::new(rows)
        }
    }

    /// `out[i] = sq_dist(point i, c)`.
    fn sq_dists_to(&self, c: &[f32], out: &mut [f32]) {
        let Some(blocks) = &self.blocks else {
            for (o, p) in out.iter_mut().zip(self.rows) {
                *o = vector::sq_dist(p, c);
            }
            return;
        };
        assert_eq!(c.len(), self.dim, "sq_dist length mismatch");
        for (block, out) in blocks.chunks_exact(self.dim).zip(out.chunks_mut(BLOCK)) {
            let d = block_sq_dists(block, c);
            out.copy_from_slice(&d[..out.len()]);
        }
    }

    /// `(assignment[i], dists[i]) = nearest(point i, centroids)`: the first
    /// centroid, in order, at the smallest squared distance.
    fn nearest(&self, centroids: &[Vec<f32>], assignment: &mut [usize], dists: &mut [f32]) {
        let Some(blocks) = &self.blocks else {
            for ((a, d), p) in assignment.iter_mut().zip(dists.iter_mut()).zip(self.rows) {
                (*a, *d) = nearest(p, centroids);
            }
            return;
        };
        for c in centroids {
            assert_eq!(c.len(), self.dim, "sq_dist length mismatch");
        }
        let lanes = blocks
            .chunks_exact(self.dim)
            .zip(assignment.chunks_mut(BLOCK).zip(dists.chunks_mut(BLOCK)));
        for (block, (assignment, dists)) in lanes {
            let mut best = [f32::INFINITY; BLOCK];
            let mut arg = [0usize; BLOCK];
            for (i, c) in centroids.iter().enumerate() {
                let d = block_sq_dists(block, c);
                for l in 0..BLOCK {
                    if d[l] < best[l] {
                        best[l] = d[l];
                        arg[l] = i;
                    }
                }
            }
            assignment.copy_from_slice(&arg[..assignment.len()]);
            dists.copy_from_slice(&best[..dists.len()]);
        }
    }
}

/// Squared distances from the [`BLOCK`] points of `block` to `c`, one per
/// lane: each lane adds its dims' squared differences in ascending order
/// from `0.0`.
#[inline(always)]
fn block_sq_dists(block: &[[f32; BLOCK]], c: &[f32]) -> [f32; BLOCK] {
    let mut acc = [0.0f32; BLOCK];
    for (lanes, &cd) in block.iter().zip(c) {
        for (a, &x) in acc.iter_mut().zip(lanes) {
            let diff = x - cd;
            *a += diff * diff;
        }
    }
    acc
}

/// k-means++ seeding: first centre uniform, subsequent centres with
/// probability proportional to squared distance to the nearest chosen one.
///
/// Keeps a running nearest-centroid distance per point and folds in only the
/// newest centre each round — O(n·k·d) total instead of the O(n·k²·d) of
/// recomputing all distances per round, with identical sampling weights
/// (`min` over the same values, accumulated incrementally). `fresh` (one
/// entry per point) takes the newest centre's distances.
fn plus_plus_init(
    points: &Points<'_>,
    k: usize,
    fresh: &mut [f32],
    rng: &mut impl Rng,
) -> Vec<Vec<f32>> {
    let rows = points.rows;
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(rows[rng.random_range(0..rows.len())].clone());
    let mut d2 = vec![0.0f32; rows.len()];
    points.sq_dists_to(&centroids[0], &mut d2);
    while centroids.len() < k {
        let total: f32 = d2.iter().sum();
        let next = if total <= 1e-12 {
            // All points coincide with chosen centroids; pick uniformly.
            rows[rng.random_range(0..rows.len())].clone()
        } else {
            rows[rngx::categorical(rng, &d2)].clone()
        };
        points.sq_dists_to(&next, fresh);
        for (best, &d) in d2.iter_mut().zip(fresh.iter()) {
            *best = best.min(d);
        }
        centroids.push(next);
    }
    centroids
}

/// Returns `(index, squared distance)` of the closest centroid.
fn nearest(p: &[f32], centroids: &[Vec<f32>]) -> (usize, f32) {
    let mut best = (0usize, f32::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = vector::sq_dist(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_blobs(n_per: usize, sep: f32, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points = Vec::new();
        for i in 0..2 * n_per {
            let center = if i < n_per { 0.0 } else { sep };
            points.push(vec![
                center + rngx::normal(&mut rng, 0.0, 0.3),
                center + rngx::normal(&mut rng, 0.0, 0.3),
            ]);
        }
        points
    }

    /// `to_bits`, with every NaN as one class (IEEE 754 leaves a NaN's
    /// payload open).
    fn bits(v: f32) -> u32 {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// `n` points of `dim` normals; with `specials`, one entry in eight is
    /// ±0.0, a subnormal, ±∞ or a huge value whose square overflows.
    fn scattered(n: usize, dim: usize, specials: bool, rng: &mut StdRng) -> Vec<Vec<f32>> {
        let pool = [
            0.0,
            -0.0,
            1e-40,
            -3e-39,
            f32::INFINITY,
            f32::NEG_INFINITY,
            3e38,
        ];
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| match rng.random_range(0..8 * pool.len()) {
                        k if specials && k < pool.len() => pool[k],
                        _ => rngx::normal(rng, 0.0, 1.0),
                    })
                    .collect()
            })
            .collect()
    }

    /// Below `LANES` dims the block kernels give `sq_dist`'s bits per pair,
    /// and the nearest centroid (first on ties) that `nearest` gives, at
    /// point counts around the block edge.
    #[test]
    fn block_kernels_match_sq_dist_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(17);
        for dim in 1..vector::LANES {
            for n in [1, 7, 8, 9, 37] {
                for specials in [false, true] {
                    let rows = scattered(n, dim, specials, &mut rng);
                    let points = Points::new(&rows);
                    assert!(points.blocks.is_some(), "dim {dim} takes the block kernels");
                    // Duplicate centroids exercise the tie rule.
                    let mut centroids = scattered(3, dim, specials, &mut rng);
                    centroids.push(centroids[1].clone());
                    centroids.push(rows[n / 2].clone());
                    let at = format!("dim {dim}, n {n}, specials {specials}");
                    let mut out = vec![0.0; n];
                    points.sq_dists_to(&centroids[0], &mut out);
                    let want: Vec<u32> = rows
                        .iter()
                        .map(|p| bits(vector::sq_dist(p, &centroids[0])))
                        .collect();
                    assert_eq!(out.into_iter().map(bits).collect::<Vec<_>>(), want, "{at}");
                    let (mut assignment, mut dists) = (vec![9; n], vec![0.0; n]);
                    points.nearest(&centroids, &mut assignment, &mut dists);
                    for (i, p) in rows.iter().enumerate() {
                        let (a, d) = nearest(p, &centroids);
                        assert_eq!(
                            (assignment[i], bits(dists[i])),
                            (a, bits(d)),
                            "{at}, point {i}"
                        );
                    }
                }
            }
        }
        let wide = scattered(9, vector::LANES, false, &mut rng);
        assert!(
            Points::new(&wide).blocks.is_none(),
            "LANES dims go pair by pair"
        );
    }

    /// Fits over the block layout equal fits pair by pair through
    /// `sq_dist`: assignment, centroid bits, inertia bits, iteration count,
    /// and the RNG's next draw. Dims 10 (FLIPS's label histograms) and 24
    /// (ShiftEx's embeddings) take the blocks, 40 goes pair by pair on both
    /// sides.
    #[test]
    fn block_fits_match_pairwise_fits_bit_for_bit() {
        for seed in 0..40u64 {
            let mut data_rng = StdRng::seed_from_u64(seed);
            for dim in [2, 10, 24, 40] {
                let n = 21 + (seed as usize % 8);
                let rows: Vec<Vec<f32>> = (0..n)
                    .map(|i| {
                        let centre = (i % 3) as f32 * 2.0;
                        (0..dim)
                            .map(|_| centre + rngx::normal(&mut data_rng, 0.0, 0.7))
                            .collect()
                    })
                    .collect();
                for k in 1..=4 {
                    let fit = |points: &Points<'_>| {
                        let mut rng = StdRng::seed_from_u64(seed * 31 + k as u64);
                        let fit = KMeans::new(k).fit_points(points, &mut rng);
                        (fit, rng.random::<u64>())
                    };
                    let (blocked, next) = fit(&Points::new(&rows));
                    let (pairwise, want_next) = fit(&Points::by_rows(&rows));
                    let at = format!("seed {seed}, dim {dim}, k {k}");
                    assert_eq!(blocked.assignment, pairwise.assignment, "{at}");
                    assert_eq!(blocked.iterations, pairwise.iterations, "{at}");
                    assert_eq!(bits(blocked.inertia), bits(pairwise.inertia), "{at}");
                    let centroid_bits = |fit: &KMeansResult| -> Vec<Vec<u32>> {
                        fit.centroids
                            .iter()
                            .map(|c| c.iter().copied().map(bits).collect())
                            .collect()
                    };
                    assert_eq!(centroid_bits(&blocked), centroid_bits(&pairwise), "{at}");
                    assert_eq!(next, want_next, "{at}: RNG draws");
                }
            }
        }
    }

    #[test]
    fn separates_two_blobs() {
        let points = two_blobs(20, 8.0, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let result = KMeans::new(2).fit(&points, &mut rng);
        assert_eq!(result.centroids.len(), 2);
        // All members of each blob share a cluster.
        let first = result.assignment[0];
        assert!(result.assignment[..20].iter().all(|&a| a == first));
        assert!(result.assignment[20..].iter().all(|&a| a != first));
    }

    #[test]
    fn k_larger_than_points_degrades_gracefully() {
        let points = vec![vec![0.0], vec![5.0]];
        let mut rng = StdRng::seed_from_u64(2);
        let result = KMeans::new(10).fit(&points, &mut rng);
        assert!(result.centroids.len() <= 2);
        assert_eq!(result.assignment.len(), 2);
    }

    #[test]
    fn identical_points_collapse_to_one_cluster_worth_of_inertia() {
        let points = vec![vec![1.0, 1.0]; 12];
        let mut rng = StdRng::seed_from_u64(3);
        let result = KMeans::new(3).fit(&points, &mut rng);
        assert!(result.inertia < 1e-9);
    }

    #[test]
    fn groups_partition_points() {
        let points = two_blobs(10, 6.0, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let result = KMeans::new(2).fit(&points, &mut rng);
        let groups = result.groups();
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, points.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every point is assigned to its nearest final centroid.
        #[test]
        fn prop_assignment_is_nearest_centroid(seed in 0u64..500, k in 1usize..5) {
            let points = two_blobs(8, 5.0, seed);
            let mut rng = StdRng::seed_from_u64(seed + 1);
            let result = KMeans::new(k).fit(&points, &mut rng);
            for (p, &a) in points.iter().zip(result.assignment.iter()) {
                let (nearest_idx, _) = super::nearest(p, &result.centroids);
                let d_assigned = shiftex_tensor::vector::sq_dist(p, &result.centroids[a]);
                let d_nearest = shiftex_tensor::vector::sq_dist(p, &result.centroids[nearest_idx]);
                prop_assert!(d_assigned <= d_nearest + 1e-5);
            }
        }

        /// Inertia never increases when k grows (given same data/seed family).
        #[test]
        fn prop_inertia_nonincreasing_in_k(seed in 0u64..200) {
            let points = two_blobs(12, 4.0, seed);
            let fit = |k: usize| {
                let mut best = f32::INFINITY;
                // Best of 3 restarts to smooth out seeding noise.
                for s in 0..3u64 {
                    let mut rng = StdRng::seed_from_u64(seed * 10 + s);
                    best = best.min(KMeans::new(k).fit(&points, &mut rng).inertia);
                }
                best
            };
            prop_assert!(fit(3) <= fit(1) + 1e-3);
        }
    }
}
