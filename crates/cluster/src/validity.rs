//! Cluster validity: the Davies–Bouldin index the paper uses to pick the
//! number of covariate clusters.

use shiftex_tensor::vector;

/// Davies–Bouldin index: mean over clusters of the worst
/// `(σ_i + σ_j) / d(c_i, c_j)` ratio. **Lower is better.**
///
/// Returns `0.0` for fewer than two clusters (a single regime is perfectly
/// "separated" by convention, matching how ShiftEx treats an unsplit cohort).
///
/// # Panics
///
/// Panics if `assignment.len() != points.len()` or an assignment index is
/// out of range.
pub fn davies_bouldin(points: &[Vec<f32>], assignment: &[usize], centroids: &[Vec<f32>]) -> f32 {
    assert_eq!(points.len(), assignment.len(), "assignment length mismatch");
    let k = centroids.len();
    if k < 2 {
        return 0.0;
    }
    // Mean intra-cluster distance to centroid (σ_i).
    let mut scatter = vec![0.0f32; k];
    let mut counts = vec![0usize; k];
    for (p, &a) in points.iter().zip(assignment.iter()) {
        assert!(a < k, "assignment index {a} out of range");
        scatter[a] += vector::l2_dist(p, &centroids[a]);
        counts[a] += 1;
    }
    for (s, &c) in scatter.iter_mut().zip(counts.iter()) {
        if c > 0 {
            *s /= c as f32;
        }
    }
    let mut total = 0.0;
    for i in 0..k {
        let mut worst = 0.0f32;
        for j in 0..k {
            if i == j {
                continue;
            }
            let sep = vector::l2_dist(&centroids[i], &centroids[j]).max(1e-12);
            worst = worst.max((scatter[i] + scatter[j]) / sep);
        }
        total += worst;
    }
    total / k as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(sep: f32) -> (Vec<Vec<f32>>, Vec<usize>, Vec<Vec<f32>>) {
        let mut points = Vec::new();
        let mut assignment = Vec::new();
        for i in 0..10 {
            points.push(vec![0.0 + (i as f32) * 0.01]);
            assignment.push(0);
        }
        for i in 0..10 {
            points.push(vec![sep + (i as f32) * 0.01]);
            assignment.push(1);
        }
        let centroids = vec![vec![0.045], vec![sep + 0.045]];
        (points, assignment, centroids)
    }

    #[test]
    fn db_index_lower_for_better_separation() {
        let (p1, a1, c1) = blobs(10.0);
        let (p2, a2, c2) = blobs(0.5);
        let good = davies_bouldin(&p1, &a1, &c1);
        let bad = davies_bouldin(&p2, &a2, &c2);
        assert!(
            good < bad,
            "well-separated DB {good} should be < overlapping DB {bad}"
        );
    }

    #[test]
    fn db_index_zero_for_single_cluster() {
        let points = vec![vec![0.0], vec![1.0]];
        assert_eq!(davies_bouldin(&points, &[0, 0], &[vec![0.5]]), 0.0);
    }
}
