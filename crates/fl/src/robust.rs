//! Robust aggregation folds: value-level combinators between "decoded,
//! staleness-weighted updates" and "new global parameters".
//!
//! The scenario engine can now mark a fraction of the population hostile
//! ([`AttackSpec`](crate::scenario::AttackSpec)): sign-flipped, inflated,
//! or label-poisoned updates arrive at the aggregator looking exactly like
//! honest ones. Plain weighted averaging ([`aggregate_weighted`]) has a
//! breakdown point of zero — one unbounded update moves the mean
//! arbitrarily — so every algorithm's `fold` now routes through
//! [`aggregate_robust`] under a [`FoldPolicy`]:
//!
//! * [`FoldPolicy::Mean`] — today's behaviour, **bit-identical** to
//!   [`aggregate_weighted`] (the conformance goldens pin this);
//! * [`FoldPolicy::TrimmedMean`] — coordinate-wise β-trimmed weighted mean:
//!   the ⌊β·n⌋ lowest and highest values of every coordinate are discarded
//!   before averaging, bounding the influence of any ⌊β·n⌋ outliers;
//! * [`FoldPolicy::CoordinateMedian`] — coordinate-wise weighted median,
//!   the classic ½-breakdown-point estimator;
//! * [`FoldPolicy::Krum`] — multi-Krum selection: each update is scored by
//!   the summed squared distances to its nearest neighbours, the `f`
//!   highest-scored updates are quarantined, and the survivors are averaged
//!   with their staleness weights intact. The O(n²·d) distance matrix
//!   behind the scores runs on the tensor crate's register tile
//!   ([`shiftex_tensor::sq_dist_acc`]) over per-panel scratch, bit-identical
//!   to one scalar `ss += d * d` chain per pair.
//!
//! Every fold also returns one [`UpdateVerdict`] per input — whether the
//! update was quarantined (rejected outright, its bytes metered on the
//! ledger's quarantine counters and its error-feedback residual refunded)
//! and a per-fold distance score for the detection surface.

use shiftex_tensor::{sq_dist_acc, MR, NR};

use crate::party::PartyId;
use crate::scenario::{aggregate_weighted, blend, fold_weighted, is_valid, WeightedUpdate};

/// How an algorithm folds staleness-weighted updates into its globals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum FoldPolicy {
    /// Staleness-weighted federated averaging — bit-identical to
    /// [`aggregate_weighted`], zero breakdown point.
    #[default]
    Mean,
    /// Coordinate-wise β-trimmed weighted mean: per coordinate, the
    /// ⌊β·n⌋ lowest and ⌊β·n⌋ highest values are discarded before the
    /// weighted average. Updates trimmed on a majority of coordinates are
    /// quarantined.
    TrimmedMean {
        /// Trim fraction per tail, clamped to `[0, 0.5)` by construction
        /// (`k` is capped so at least one value survives per coordinate).
        beta: f32,
    },
    /// Coordinate-wise weighted median. Nothing is quarantined — every
    /// update votes — but the per-update distance to the median vector is
    /// reported as its score.
    CoordinateMedian,
    /// Multi-Krum: assume at most `f` Byzantine updates per fold; the `f`
    /// highest Krum-scored updates are quarantined and the rest averaged.
    Krum {
        /// Tolerated Byzantine updates per fold.
        f: usize,
    },
}

impl std::fmt::Display for FoldPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FoldPolicy::Mean => write!(f, "mean"),
            FoldPolicy::TrimmedMean { beta } => write!(f, "trimmed(beta={beta:.2})"),
            FoldPolicy::CoordinateMedian => write!(f, "median"),
            FoldPolicy::Krum { f: ff } => write!(f, "krum(f={ff})"),
        }
    }
}

impl FoldPolicy {
    /// Parses a CLI name: `mean`, `trimmed`, `median`, `krum` (the trimmed
    /// β and Krum `f` knobs come from the caller's flags).
    pub fn parse(name: &str, trim_beta: f32, krum_f: usize) -> Option<FoldPolicy> {
        match name.to_ascii_lowercase().as_str() {
            "mean" => Some(FoldPolicy::Mean),
            "trimmed" | "trimmed-mean" => Some(FoldPolicy::TrimmedMean { beta: trim_beta }),
            "median" | "coordinate-median" => Some(FoldPolicy::CoordinateMedian),
            "krum" => Some(FoldPolicy::Krum { f: krum_f }),
            _ => None,
        }
    }
}

/// The fold's judgement of one input update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateVerdict {
    /// Whose update.
    pub party: PartyId,
    /// Rejected outright by the fold: it contributed nothing to the new
    /// globals (Krum non-selection, or majority-trimmed under trimmed mean).
    pub quarantined: bool,
    /// Per-fold distance score — 0 under [`FoldPolicy::Mean`]; fraction of
    /// trimmed coordinates under trimmed mean; RMS distance to the median
    /// vector under coordinate median; the per-coordinate-normalised Krum
    /// score under Krum. Higher = more anomalous.
    pub score: f32,
}

/// Result of one robust fold: the new parameters (when anything could be
/// aggregated) plus one verdict per input update.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustFold {
    /// New global parameters; `None` when nothing could be aggregated (the
    /// caller keeps its current globals).
    pub params: Option<Vec<f32>>,
    /// One verdict per element of the input `ready` slice, in order.
    pub verdicts: Vec<UpdateVerdict>,
}

impl RobustFold {
    /// Verdicts of quarantined updates.
    pub fn quarantined(&self) -> impl Iterator<Item = &UpdateVerdict> {
        self.verdicts.iter().filter(|v| v.quarantined)
    }
}

/// Folds `ready` into `global` under `policy`.
///
/// [`FoldPolicy::Mean`] delegates verbatim to [`aggregate_weighted`] so the
/// default path stays bit-identical to the pre-robustness runtime. The
/// robust folds reuse the same validity predicate and the same η blend, so
/// switching policies changes *only* the location estimator.
///
/// An update holding a non-finite parameter is quarantined under every
/// policy (score 0: it has no distance to anything) and the rest are
/// folded as if it had never arrived. A cohort with no such update takes
/// the policy's path untouched.
pub fn aggregate_robust(
    global: &[f32],
    ready: &[WeightedUpdate],
    server_lr: f32,
    policy: &FoldPolicy,
) -> RobustFold {
    // A branch-free `&` fold vectorizes; a short-circuiting `all` costs
    // about 5× more per parameter on the all-finite path every round takes.
    let finite = |w: &WeightedUpdate| {
        w.update
            .params
            .iter()
            .fold(true, |ok, x| ok & x.is_finite())
    };
    if ready.iter().all(finite) {
        return fold_under(global, ready, server_lr, policy);
    }
    let kept: Vec<WeightedUpdate> = ready.iter().filter(|w| finite(w)).cloned().collect();
    let fold = fold_under(global, &kept, server_lr, policy);
    let mut kept_verdicts = fold.verdicts.into_iter();
    let verdicts = ready
        .iter()
        .filter_map(|w| {
            if finite(w) {
                kept_verdicts.next()
            } else {
                Some(UpdateVerdict {
                    party: w.update.party,
                    quarantined: true,
                    score: 0.0,
                })
            }
        })
        .collect();
    RobustFold {
        params: fold.params,
        verdicts,
    }
}

/// [`aggregate_robust`]'s dispatch over updates already known finite.
fn fold_under(
    global: &[f32],
    ready: &[WeightedUpdate],
    server_lr: f32,
    policy: &FoldPolicy,
) -> RobustFold {
    match *policy {
        FoldPolicy::Mean => RobustFold {
            params: aggregate_weighted(global, ready, server_lr),
            verdicts: inert_verdicts(ready),
        },
        FoldPolicy::TrimmedMean { beta } => trimmed_mean(global, ready, server_lr, beta),
        FoldPolicy::CoordinateMedian => coordinate_median(global, ready, server_lr),
        FoldPolicy::Krum { f } => krum(global, ready, server_lr, f),
    }
}

fn inert_verdicts(ready: &[WeightedUpdate]) -> Vec<UpdateVerdict> {
    ready
        .iter()
        .map(|w| UpdateVerdict {
            party: w.update.party,
            quarantined: false,
            score: 0.0,
        })
        .collect()
}

/// Coordinate-wise β-trimmed weighted mean. `k = ⌊β·n⌋` values are trimmed
/// from each tail of every coordinate (capped so at least one survives);
/// the remainder is weighted-averaged. An update trimmed on more than half
/// its coordinates is quarantined.
fn trimmed_mean(global: &[f32], ready: &[WeightedUpdate], server_lr: f32, beta: f32) -> RobustFold {
    let valid: Vec<usize> = (0..ready.len()).filter(|&i| is_valid(&ready[i])).collect();
    let n = valid.len();
    if n == 0 {
        return RobustFold {
            params: None,
            verdicts: inert_verdicts(ready),
        };
    }
    let k = ((beta.max(0.0) * n as f32).floor() as usize).min((n - 1) / 2);
    if k == 0 {
        // Nothing to trim: exactly the weighted mean.
        return RobustFold {
            params: aggregate_weighted(global, ready, server_lr),
            verdicts: inert_verdicts(ready),
        };
    }
    let dim = global.len();
    let mut avg = vec![0.0f32; dim];
    let mut trimmed_counts = vec![0usize; ready.len()];
    // (value, weight, ready-index) scratch, reused per coordinate.
    let mut col: Vec<(f32, f32, usize)> = Vec::with_capacity(n);
    for (c, acc) in avg.iter_mut().enumerate() {
        col.clear();
        for &i in &valid {
            let w = &ready[i];
            let v = w.update.params.get(c).copied().unwrap_or(0.0);
            col.push((v, w.weight, i));
        }
        col.sort_by(|a, b| a.0.total_cmp(&b.0));
        let kept = &col[k..n - k];
        let total: f32 = kept.iter().map(|&(_, w, _)| w).sum();
        if total > 0.0 {
            *acc = kept.iter().map(|&(v, w, _)| v * w).sum::<f32>() / total;
        }
        for &(_, _, i) in col[..k].iter().chain(col[n - k..].iter()) {
            trimmed_counts[i] += 1;
        }
    }
    let verdicts = ready
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let score = if is_valid(w) && dim > 0 {
                trimmed_counts[i] as f32 / dim as f32
            } else {
                0.0
            };
            UpdateVerdict {
                party: w.update.party,
                quarantined: score > 0.5,
                score,
            }
        })
        .collect();
    RobustFold {
        params: Some(blend(global, avg, server_lr)),
        verdicts,
    }
}

/// Coordinate-wise weighted median: per coordinate, the smallest value at
/// which the cumulative weight reaches half the total. Scores are each
/// update's RMS distance to the median vector; nothing is quarantined.
fn coordinate_median(global: &[f32], ready: &[WeightedUpdate], server_lr: f32) -> RobustFold {
    let valid: Vec<usize> = (0..ready.len()).filter(|&i| is_valid(&ready[i])).collect();
    let n = valid.len();
    if n == 0 {
        return RobustFold {
            params: None,
            verdicts: inert_verdicts(ready),
        };
    }
    let dim = global.len();
    let mut med = vec![0.0f32; dim];
    let mut col: Vec<(f32, f32)> = Vec::with_capacity(n);
    for (c, out) in med.iter_mut().enumerate() {
        col.clear();
        let mut total = 0.0f32;
        for &i in &valid {
            let w = &ready[i];
            let v = w.update.params.get(c).copied().unwrap_or(0.0);
            col.push((v, w.weight));
            total += w.weight;
        }
        col.sort_by(|a, b| a.0.total_cmp(&b.0));
        let half = total * 0.5;
        let mut cum = 0.0f32;
        let mut chosen = col[n - 1].0;
        for &(v, w) in col.iter() {
            cum += w;
            if cum >= half {
                chosen = v;
                break;
            }
        }
        *out = chosen;
    }
    let verdicts = ready
        .iter()
        .map(|w| {
            let score = if is_valid(w) && dim > 0 {
                let ss: f32 = med
                    .iter()
                    .enumerate()
                    .map(|(c, &m)| {
                        let d = w.update.params.get(c).copied().unwrap_or(0.0) - m;
                        d * d
                    })
                    .sum();
                (ss / dim as f32).sqrt()
            } else {
                0.0
            };
            UpdateVerdict {
                party: w.update.party,
                quarantined: false,
                score,
            }
        })
        .collect();
    RobustFold {
        params: Some(blend(global, med, server_lr)),
        verdicts,
    }
}

/// Multi-Krum over the valid updates: score each by the sum of its
/// `n - f - 2` smallest squared distances to the others (clamped to ≥ 1
/// neighbour), select the `n - f` lowest-scored (clamped to ≥ 1), and
/// average the selection with staleness weights intact. Non-selected
/// updates are quarantined.
fn krum(global: &[f32], ready: &[WeightedUpdate], server_lr: f32, f: usize) -> RobustFold {
    let valid: Vec<usize> = (0..ready.len()).filter(|&i| is_valid(&ready[i])).collect();
    let n = valid.len();
    if n == 0 {
        return RobustFold {
            params: None,
            verdicts: inert_verdicts(ready),
        };
    }
    let dim = global.len().max(1);
    let rows: Vec<&[f32]> = valid
        .iter()
        .map(|&i| ready[i].update.params.as_slice())
        .collect();
    let dist = pairwise_sq_dists(&rows);
    let neighbours = n.saturating_sub(f + 2).max(1).min(n.saturating_sub(1));
    let mut scores = vec![0.0f32; n];
    if n > 1 {
        let mut row: Vec<f32> = Vec::with_capacity(n - 1);
        for (a, score) in scores.iter_mut().enumerate() {
            row.clear();
            for b in 0..n {
                if b != a {
                    row.push(dist[a * n + b]);
                }
            }
            row.sort_by(f32::total_cmp);
            *score = row[..neighbours].iter().sum::<f32>() / dim as f32;
        }
    }
    // Select the n - f lowest-scored updates (ties broken by input order).
    let select = n.saturating_sub(f).max(1);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    let mut selected = vec![false; ready.len()];
    for &a in &order[..select] {
        selected[valid[a]] = true;
    }
    let score_of: Vec<f32> = {
        let mut per_ready = vec![0.0f32; ready.len()];
        for (a, &i) in valid.iter().enumerate() {
            per_ready[i] = scores[a];
        }
        per_ready
    };
    let verdicts = ready
        .iter()
        .enumerate()
        .map(|(i, w)| UpdateVerdict {
            party: w.update.party,
            quarantined: is_valid(w) && !selected[i],
            score: score_of[i],
        })
        .collect();
    let chosen = ready
        .iter()
        .zip(&selected)
        .filter_map(|(w, &s)| s.then_some(w));
    RobustFold {
        params: fold_weighted(global, chosen, server_lr),
        verdicts,
    }
}

/// The symmetric `n × n` matrix of squared Euclidean distances between
/// `rows` (zero diagonal), the Krum score input, on the tensor crate's
/// register tile ([`sq_dist_acc`]).
///
/// Rows are taken [`NR`] at a time as a *panel*, transposed so that each
/// row is a column, and every band of [`MR`] rows up to the panel's last
/// row is measured against the panel in one tile. Only pairs above the
/// diagonal (`a < b`) are kept; the lower triangle is their mirror. The
/// scratch is one panel, one band and one tile — `(MR + NR)·d` floats,
/// never `n·d` — reused across the whole matrix.
///
/// Every pair adds its terms in ascending coordinate order, each term
/// `d = x_a - x_b` (`a < b`), `ss += d * d` — the scalar chain exactly (a
/// NaN distance stays NaN; its sign bit is not pinned). Rows
/// shorter than the longest are zero-padded, which is exact: a padding term
/// is `(0 - 0)² = +0.0`, and adding `+0.0` to a `+0.0`-seeded sum of
/// squares changes no bit of it.
fn pairwise_sq_dists(rows: &[&[f32]]) -> Vec<f32> {
    let n = rows.len();
    let dim = rows.iter().map(|row| row.len()).max().unwrap_or(0);
    let mut dist = vec![0.0f32; n * n];
    if dim == 0 {
        return dist;
    }
    let (mut panel, mut band) = (vec![0.0f32; dim * NR], vec![0.0f32; MR * dim]);
    let mut tile = [0.0f32; MR * NR];
    for j0 in (0..n).step_by(NR) {
        let cols = &rows[j0..n.min(j0 + NR)];
        let nc = cols.len();
        let panel = &mut panel[..dim * nc];
        panel.fill(0.0);
        for (j, row) in cols.iter().enumerate() {
            for (k, &x) in row.iter().enumerate() {
                panel[k * nc + j] = x;
            }
        }
        for i0 in (0..j0 + nc).step_by(MR) {
            let mr = MR.min(j0 + nc - i0);
            let band = &mut band[..mr * dim];
            for (dst, row) in band.chunks_exact_mut(dim).zip(&rows[i0..]) {
                dst[..row.len()].copy_from_slice(row);
                dst[row.len()..].fill(0.0);
            }
            let tile = &mut tile[..mr * nc];
            tile.fill(0.0);
            sq_dist_acc(band, panel, tile, dim, nc);
            for (a, out) in (i0..).zip(tile.chunks_exact(nc)) {
                for (b, &ss) in (j0..).zip(out) {
                    if a < b {
                        dist[a * n + b] = ss;
                        dist[b * n + a] = ss;
                    }
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::ModelUpdate;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn wu(party: usize, params: Vec<f32>, weight: f32) -> WeightedUpdate {
        WeightedUpdate {
            update: ModelUpdate {
                party: PartyId(party),
                params,
                num_samples: 10,
                train_loss: 0.5,
            },
            staleness: 0,
            weight,
        }
    }

    fn honest(n: usize) -> Vec<WeightedUpdate> {
        (0..n)
            .map(|i| wu(i, vec![1.0 + 0.01 * i as f32, -1.0, 0.5], 10.0))
            .collect()
    }

    #[test]
    fn mean_policy_is_bit_identical_to_aggregate_weighted() {
        let ready = honest(5);
        let global = vec![0.25, 0.5, -0.75];
        for lr in [1.0, 0.5] {
            let plain = aggregate_weighted(&global, &ready, lr);
            let robust = aggregate_robust(&global, &ready, lr, &FoldPolicy::Mean);
            assert_eq!(plain, robust.params);
            assert!(robust.verdicts.iter().all(|v| !v.quarantined));
        }
    }

    #[test]
    fn trimmed_mean_discards_one_outlier_per_tail() {
        let mut ready = honest(4);
        ready.push(wu(4, vec![1000.0, -1000.0, 1000.0], 10.0));
        let fold = aggregate_robust(
            &[0.0; 3],
            &ready,
            1.0,
            &FoldPolicy::TrimmedMean { beta: 0.2 },
        );
        let params = fold.params.expect("aggregates");
        assert!(
            params[0] < 2.0,
            "outlier must not drag the mean: {params:?}"
        );
        // The attacker is extreme on every coordinate → quarantined.
        let v = &fold.verdicts[4];
        assert!(v.quarantined && v.score > 0.5, "{v:?}");
        assert!(!fold.verdicts[1].quarantined);
    }

    #[test]
    fn trimmed_mean_with_tiny_cohorts_degrades_to_mean() {
        let ready = honest(2);
        let trimmed = aggregate_robust(
            &[0.0; 3],
            &ready,
            1.0,
            &FoldPolicy::TrimmedMean { beta: 0.4 },
        );
        let mean = aggregate_weighted(&[0.0; 3], &ready, 1.0);
        assert_eq!(trimmed.params, mean, "k = 0 at n = 2");
    }

    #[test]
    fn coordinate_median_resists_a_minority_of_liars() {
        let mut ready = honest(4);
        ready.push(wu(4, vec![1e6, 1e6, 1e6], 10.0));
        let fold = aggregate_robust(&[0.0; 3], &ready, 1.0, &FoldPolicy::CoordinateMedian);
        let params = fold.params.expect("aggregates");
        assert!(params[0] < 2.0 && params[1] < 0.0);
        // Detection surface: the liar's distance score dwarfs the honest.
        assert!(fold.verdicts[4].score > 100.0 * fold.verdicts[0].score);
        assert!(fold.verdicts.iter().all(|v| !v.quarantined));
    }

    #[test]
    fn krum_quarantines_the_far_updates() {
        let mut ready = honest(5);
        ready.push(wu(5, vec![-50.0, 50.0, -50.0], 10.0));
        ready.push(wu(6, vec![60.0, -60.0, 60.0], 10.0));
        let fold = aggregate_robust(&[0.0; 3], &ready, 1.0, &FoldPolicy::Krum { f: 2 });
        let quarantined: Vec<usize> = fold.quarantined().map(|v| v.party.0).collect();
        assert_eq!(quarantined, vec![5, 6]);
        let params = fold.params.expect("aggregates");
        assert!((params[0] - 1.02).abs() < 0.1, "{params:?}");
    }

    /// The scalar chain the laned kernel must reproduce bit for bit: one
    /// `ss += d * d` loop per pair, missing coordinates read as zero.
    fn scalar_sq_dist(pa: &[f32], pb: &[f32]) -> f32 {
        let mut ss = 0.0f32;
        for c in 0..pa.len().max(pb.len()) {
            let d = pa.get(c).copied().unwrap_or(0.0) - pb.get(c).copied().unwrap_or(0.0);
            ss += d * d;
        }
        ss
    }

    #[test]
    fn laned_pairwise_distances_are_bit_identical_to_the_scalar_chain() {
        // Row counts on both sides of every band (4) and panel (24) edge,
        // up to the benchmark's 200-update cohort at its d = 2146; a few
        // rows are shorter or longer than the rest. Some entries are -0.0,
        // and from n = 23 on rows 3, 11, 12 and 13 carry NaN, +∞, -∞, +∞.
        for n in [0usize, 1, 2, 7, 8, 9, 10, 17, 23, 24, 25, 26, 49, 200] {
            let dim = if n == 200 { 2146 } else { 67 };
            let rows: Vec<Vec<f32>> = (0..n)
                .map(|i| {
                    let len = match i % 5 {
                        3 => dim - 6,
                        4 => dim + 3,
                        _ => dim,
                    };
                    let mut row: Vec<f32> = (0..len)
                        .map(|c| match (i * 7 + c) % 13 {
                            0 => -0.0,
                            _ => ((i * 131 + c * 31) % 97) as f32 * 0.173 - 8.0 + i as f32 * 1e-3,
                        })
                        .collect();
                    match i {
                        3 => row[5] = f32::NAN,
                        11 | 13 => row[0] = f32::INFINITY,
                        12 => row[0] = f32::NEG_INFINITY,
                        _ => {}
                    }
                    row
                })
                .collect();
            let views: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            let dist = pairwise_sq_dists(&views);
            // A NaN distance must be NaN on both sides; which NaN (its sign
            // and payload) IEEE 754 leaves open, so NaNs compare as a class.
            let bits = |x: f32| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            };
            for a in 0..n {
                for b in 0..n {
                    let expect = if a == b {
                        0.0
                    } else {
                        scalar_sq_dist(&rows[a.min(b)], &rows[a.max(b)])
                    };
                    assert_eq!(bits(dist[a * n + b]), bits(expect), "n={n} pair ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn krum_single_update_is_selected() {
        let ready = honest(1);
        let fold = aggregate_robust(&[0.0; 3], &ready, 1.0, &FoldPolicy::Krum { f: 2 });
        assert!(fold.params.is_some());
        assert!(!fold.verdicts[0].quarantined);
    }

    #[test]
    fn all_folds_handle_empty_and_inert_inputs() {
        let policies = [
            FoldPolicy::Mean,
            FoldPolicy::TrimmedMean { beta: 0.2 },
            FoldPolicy::CoordinateMedian,
            FoldPolicy::Krum { f: 1 },
        ];
        let inert = vec![wu(0, vec![1.0, 1.0, 1.0], 0.0)];
        for p in &policies {
            assert!(aggregate_robust(&[0.0; 3], &[], 1.0, p).params.is_none());
            let fold = aggregate_robust(&[0.0; 3], &inert, 1.0, p);
            assert!(fold.params.is_none(), "{p}: zero-weight input is inert");
            assert!(!fold.verdicts[0].quarantined);
        }
    }

    #[test]
    fn robust_folds_respect_server_lr() {
        let ready = honest(3);
        let global = vec![10.0, 10.0, 10.0];
        for p in [
            FoldPolicy::TrimmedMean { beta: 0.34 },
            FoldPolicy::CoordinateMedian,
            FoldPolicy::Krum { f: 1 },
        ] {
            let full = aggregate_robust(&global, &ready, 1.0, &p)
                .params
                .expect("aggregates");
            let half = aggregate_robust(&global, &ready, 0.5, &p)
                .params
                .expect("aggregates");
            for c in 0..3 {
                let blended = 0.5 * global[c] + 0.5 * full[c];
                assert!((half[c] - blended).abs() < 1e-5, "{p}: coordinate {c}");
            }
        }
    }

    /// Deterministic Fisher–Yates driven by a multiplicative hash, so the
    /// permutation-invariance property needs no extra RNG plumbing.
    fn shuffled(ready: &[WeightedUpdate], seed: u64) -> Vec<WeightedUpdate> {
        let mut v = ready.to_vec();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for i in (1..v.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    /// An honest cohort clustered around `center`. Per-party offsets are
    /// geometrically spaced so no two parties coincide and no two pairwise
    /// distances tie — exact ties are legitimately broken in input order,
    /// which would make the quarantine *set* order-dependent.
    fn clustered(center: &[f32], n: usize, jitter: f32) -> Vec<WeightedUpdate> {
        (0..n)
            .map(|i| {
                let offset = jitter * 1.37f32.powi(i as i32) / 1.37f32.powi(n as i32);
                let params = center.iter().map(|&x| x + offset).collect();
                wu(i, params, 10.0)
            })
            .collect()
    }

    const ALL_POLICIES: [FoldPolicy; 4] = [
        FoldPolicy::Mean,
        FoldPolicy::TrimmedMean { beta: 0.2 },
        FoldPolicy::CoordinateMedian,
        FoldPolicy::Krum { f: 2 },
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_every_fold_is_permutation_invariant(
            center in proptest::collection::vec(-5.0f32..5.0, 1..6),
            n in 4usize..10,
            perm_seed in 0u64..1_000_000,
        ) {
            let ready = clustered(&center, n, 0.5);
            let global = vec![0.0; center.len()];
            for policy in &ALL_POLICIES {
                let a = aggregate_robust(&global, &ready, 1.0, policy);
                let b = aggregate_robust(&global, &shuffled(&ready, perm_seed), 1.0, policy);
                // The quarantined *set* must not depend on arrival order.
                let qa: BTreeSet<PartyId> = a.quarantined().map(|v| v.party).collect();
                let qb: BTreeSet<PartyId> = b.quarantined().map(|v| v.party).collect();
                prop_assert_eq!(qa, qb, "{}: quarantine set must be order-free", policy);
                let (pa, pb) = (a.params.expect("aggregates"), b.params.expect("aggregates"));
                for (x, y) in pa.iter().zip(pb.iter()) {
                    prop_assert!(
                        (x - y).abs() <= 1e-3 * (1.0 + x.abs()),
                        "{policy}: {x} vs {y} after permutation"
                    );
                }
            }
        }

        #[test]
        fn prop_trimmed_and_median_survive_a_bounded_attacker(
            center in proptest::collection::vec(-1.0f32..1.0, 1..6),
            n_honest in 4usize..10,
            magnitude in 100.0f32..10_000.0,
        ) {
            // One attacker among ≥ 4 honest parties stays within each rule's
            // breakdown point (β·n ≥ 1 for trimmed; < 50 % for the median),
            // so the fold must land inside the honest coordinate envelope.
            let mut ready = clustered(&center, n_honest, 0.2);
            let dim = center.len();
            ready.push(wu(n_honest, vec![magnitude; dim], 10.0));
            for policy in [
                FoldPolicy::TrimmedMean { beta: 0.2 },
                FoldPolicy::CoordinateMedian,
            ] {
                let fold = aggregate_robust(&vec![0.0; dim], &ready, 1.0, &policy);
                let params = fold.params.expect("aggregates");
                for (c, &folded) in params.iter().enumerate() {
                    let honest: Vec<f32> =
                        (0..n_honest).map(|i| ready[i].update.params[c]).collect();
                    let lo = honest.iter().copied().fold(f32::INFINITY, f32::min);
                    let hi = honest.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    prop_assert!(
                        folded >= lo - 1e-4 && folded <= hi + 1e-4,
                        "{policy}: coordinate {c} = {folded} escaped honest [{lo}, {hi}]"
                    );
                }
            }
        }

        #[test]
        fn prop_krum_never_folds_a_far_attacker(
            center in proptest::collection::vec(-2.0f32..2.0, 2..6),
            n_honest in 4usize..9,
            f in 1usize..3,
        ) {
            // f far-away sign-flip-style outliers vs a tight honest cluster:
            // multi-Krum must quarantine every attacker and keep ≥ 1 honest.
            let mut ready = clustered(&center, n_honest, 0.1);
            let dim = center.len();
            for a in 0..f {
                let far: Vec<f32> = center.iter().map(|&x| -x - 50.0 * (a + 1) as f32).collect();
                ready.push(wu(n_honest + a, far, 10.0));
            }
            let fold = aggregate_robust(&vec![0.0; dim], &ready, 1.0, &FoldPolicy::Krum { f });
            let quarantined: BTreeSet<usize> = fold.quarantined().map(|v| v.party.0).collect();
            for a in 0..f {
                prop_assert!(
                    quarantined.contains(&(n_honest + a)),
                    "attacker {a} escaped the krum quarantine: {quarantined:?}"
                );
            }
            prop_assert!(fold.params.is_some(), "honest survivors must aggregate");
        }
    }

    #[test]
    fn non_finite_update_is_quarantined_and_the_rest_fold_as_without_it() {
        let honest = honest(5);
        let mut ready = honest.clone();
        ready.insert(2, wu(9, vec![f32::NAN, -1.0, 0.5], 10.0));
        let global = [0.25, 0.5, -0.75];
        for policy in [
            FoldPolicy::Mean,
            FoldPolicy::TrimmedMean { beta: 0.2 },
            FoldPolicy::CoordinateMedian,
            FoldPolicy::Krum { f: 1 },
        ] {
            let want = aggregate_robust(&global, &honest, 0.5, &policy);
            let got = aggregate_robust(&global, &ready, 0.5, &policy);
            let bits = |p: &Option<Vec<f32>>| {
                p.as_ref()
                    .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            };
            assert!(want.params.is_some(), "{policy}");
            assert_eq!(bits(&got.params), bits(&want.params), "{policy}");
            assert_eq!(got.verdicts.len(), ready.len(), "{policy}");
            assert!(
                got.verdicts[2].quarantined,
                "{policy}: the NaN upload folds"
            );
            assert_eq!(got.verdicts[2].party, PartyId(9));
            let mut rest = got.verdicts.clone();
            rest.remove(2);
            assert_eq!(rest, want.verdicts, "{policy}");
        }
    }

    #[test]
    fn policy_display_and_parse_round_trip() {
        assert_eq!(FoldPolicy::parse("mean", 0.2, 2), Some(FoldPolicy::Mean));
        assert_eq!(
            FoldPolicy::parse("trimmed", 0.25, 2),
            Some(FoldPolicy::TrimmedMean { beta: 0.25 })
        );
        assert_eq!(
            FoldPolicy::parse("median", 0.2, 2),
            Some(FoldPolicy::CoordinateMedian)
        );
        assert_eq!(
            FoldPolicy::parse("krum", 0.2, 3),
            Some(FoldPolicy::Krum { f: 3 })
        );
        assert_eq!(FoldPolicy::parse("bogus", 0.2, 2), None);
        assert_eq!(FoldPolicy::Mean.to_string(), "mean");
        assert_eq!(FoldPolicy::Krum { f: 2 }.to_string(), "krum(f=2)");
    }
}
