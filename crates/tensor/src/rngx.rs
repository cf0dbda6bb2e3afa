//! Seedable sampling distributions implemented from scratch.
//!
//! The workspace deliberately depends only on the `rand` core crate; the
//! distributions needed by the experimental protocol — normal noise for
//! synthetic images, gamma/Dirichlet for label-skew partitioning — are
//! implemented here (Box–Muller and Marsaglia–Tsang respectively).
//!
//! The Box–Muller sampler does not call the host libm: its `ln` and `cos`
//! are ports of glibc's `logf` and `cosf` (glibc 2.28 and later), evaluated
//! in `f64` with separate multiplies and adds and rounded once to `f32`.
//! They return glibc's bits on every input the sampler can draw, so a
//! stream is the same on every host and build, and [`fill_normal`] can draw
//! a block of normals in one branch-free loop. [`gamma`] still calls the
//! host's `ln` and `powf`.

use rand::Rng;

/// Normals [`fill_normal`] transforms per block: its uniforms live in two
/// stack arrays of this length.
const BLOCK: usize = 64;

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
    let (u1, u2) = uniform_pair(rng);
    mean + std * box_muller(u1, u2)
}

/// Fills `out` with samples from `N(mean, std²)`: bit for bit what
/// `out.len()` successive [`normal`] calls return, leaving `rng` in the same
/// state. Like [`normal`], `std == 0` fills `mean` and draws nothing.
///
/// # Panics
///
/// Panics if `std` is negative.
pub fn fill_normal(rng: &mut impl Rng, mean: f32, std: f32, out: &mut [f32]) {
    assert!(std >= 0.0, "standard deviation must be non-negative");
    if std == 0.0 {
        out.fill(mean);
        return;
    }
    let mut u1 = [0.0f32; BLOCK];
    let mut u2 = [0.0f32; BLOCK];
    for chunk in out.chunks_mut(BLOCK) {
        for (a, b) in u1.iter_mut().zip(u2.iter_mut()).take(chunk.len()) {
            (*a, *b) = uniform_pair(rng);
        }
        for ((o, &a), &b) in chunk.iter_mut().zip(&u1).zip(&u2) {
            *o = mean + std * box_muller(a, b);
        }
    }
}

/// The two uniforms one Box–Muller normal consumes, in draw order;
/// `u1 >= f32::EPSILON` keeps `ln(u1)` finite.
fn uniform_pair(rng: &mut impl Rng) -> (f32, f32) {
    let u1: f32 = rng.random_range(f32::EPSILON..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (u1, u2)
}

/// `sqrt(-2 ln u1) · cos(2π u2)`, one standard normal.
fn box_muller(u1: f32, u2: f32) -> f32 {
    (-2.0 * ln(u1)).sqrt() * cos(2.0 * std::f32::consts::PI * u2)
}

/// `(1/c, ln c)` for the 16 subintervals of `logf`'s reduced argument
/// (glibc `e_logf_data.c`), as `f64` bit patterns.
const LOGF_TABLE: [[u64; 2]; 16] = [
    [0x3ff6_61ec_79f8_f3be, 0xbfd5_7bf7_808c_aade],
    [0x3ff5_71ed_4aaf_883d, 0xbfd2_bef0_a7c0_6ddb],
    [0x3ff4_9539_f0f0_10b0, 0xbfd0_1eae_7f51_3a67],
    [0x3ff3_c995_b0b8_0385, 0xbfcb_31d8_a682_24e9],
    [0x3ff3_0d19_0c88_64a5, 0xbfc6_574f_0ac0_7758],
    [0x3ff2_5e22_7b0b_8ea0, 0xbfc1_aa2b_c79c_8100],
    [0x3ff1_bb4a_4a1a_343f, 0xbfba_4e76_ce8c_0e5e],
    [0x3ff1_2358_f08a_e5ba, 0xbfb1_973c_5a61_1ccc],
    [0x3ff0_953f_4199_00a7, 0xbfa2_52f4_38e1_0c1e],
    [0x3ff0_0000_0000_0000, 0x0000_0000_0000_0000],
    [0x3fee_608c_fd9a_47ac, 0x3faa_a5aa_5df2_5984],
    [0x3fec_a4b3_1f02_6aa0, 0x3fbc_5e53_aa36_2eb4],
    [0x3feb_2036_576a_fce6, 0x3fc5_26e5_7720_db08],
    [0x3fe9_c2d1_63a1_aa2d, 0x3fcb_c286_0d22_4770],
    [0x3fe8_86e6_0378_41ed, 0x3fd1_058b_c8a0_7ee1],
    [0x3fe7_67dc_f553_4862, 0x3fd4_0430_57b6_ee09],
];

/// `ln 2`, then `logf`'s cubic coefficients `A[0..3]` for `log1p(r)`.
const LOGF_LN2: u64 = 0x3fe6_2e42_fefa_39ef;
const LOGF_POLY: [u64; 3] = [
    0xbfd0_0ea3_48b8_8334,
    0x3fd5_575b_0be0_0b6a,
    0xbfdf_fffe_f20a_4123,
];

/// glibc's `logf` (`sysdeps/ieee754/flt-32/e_logf.c`) for a positive normal
/// finite `x`, the only inputs Box–Muller's `u1` takes. Tables are decoded
/// here, not in a `const`: `f64::from_bits` is `const` only from Rust 1.83.
fn ln(x: f32) -> f32 {
    const OFF: u32 = 0x3f33_0000;
    // x = 2^k z with z in [OFF, 2 OFF); the table entry's c is near z.
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(OFF);
    let i = ((tmp >> 19) % 16) as usize;
    let k = f64::from((tmp as i32) >> 23);
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    let [invc, logc] = LOGF_TABLE[i].map(f64::from_bits);
    let [a0, a1, a2] = LOGF_POLY.map(f64::from_bits);
    // ln x = log1p(z/c - 1) + ln c + k ln 2.
    let r = z * invc - 1.0;
    let y0 = logc + k * f64::from_bits(LOGF_LN2);
    let r2 = r * r;
    let y = a1 * r + a2;
    let y = a0 * r2 + y;
    let y = y * r2 + (y0 + r);
    y as f32
}

/// `2/π · 2^24` and `π/2`: `cosf`'s quadrant reduction as glibc builds it
/// without round-to-int intrinsics, which is how x86-64 glibc ships it.
const SINCOSF_HPI_INV: u64 = 0x4164_5f30_6dc9_c883;
const SINCOSF_HPI: u64 = 0x3ff9_21fb_5444_2d18;
/// The sign of the sine in quadrants 0..3.
const SINCOSF_SIGN: [f64; 4] = [1.0, -1.0, -1.0, 1.0];
/// Cosine coefficients `c0..c4` of the two `__sincosf_table` entries; the
/// second, used in quadrants 2 and 3, negates them.
const SINCOSF_COS: [[u64; 5]; 2] = [
    [
        0x3ff0_0000_0000_0000,
        0xbfdf_ffff_fd0c_621c,
        0x3fa5_5553_e106_8f19,
        0xbf56_c087_e89a_359d,
        0x3ef9_9343_027b_f8c3,
    ],
    [
        0xbff0_0000_0000_0000,
        0x3fdf_ffff_fd0c_621c,
        0xbfa5_5553_e106_8f19,
        0x3f56_c087_e89a_359d,
        0xbef9_9343_027b_f8c3,
    ],
];
/// Sine coefficients `s1..s3`, the same in both table entries.
const SINCOSF_SIN: [u64; 3] = [
    0xbfc5_5554_5995_a603,
    0x3f81_1076_0523_0bc4,
    0xbf29_94eb_3774_cf24,
];

/// glibc's `cosf` (`sysdeps/ieee754/flt-32/s_cosf.c` and `s_sincosf.h`) for
/// `0 <= y < 120`, which covers Box–Muller's `2π u2 < 2π`. glibc evaluates
/// `|y| < π/4` without the reduction; there the reduction yields quadrant 0
/// and the unchanged argument, so the same cosine polynomial runs.
fn cos(y: f32) -> f32 {
    let x = f64::from(y);
    // n = round(x · 2/π) from the 2^24-prescaled product, then
    // x − n·π/2 in [−π/4, π/4].
    let n = (((x * f64::from_bits(SINCOSF_HPI_INV)) as i32) + 0x80_0000) >> 24;
    let x = x - f64::from(n) * f64::from_bits(SINCOSF_HPI);
    let x2 = x * x;
    let v = if n & 1 == 0 {
        // cos(x + nπ/2) = ±cos x: the table entry carries the sign.
        let [c0, c1, c2, c3, c4] = SINCOSF_COS[((n >> 1) & 1) as usize].map(f64::from_bits);
        let x4 = x2 * x2;
        let c = c0 + x2 * c1 + x4 * c2;
        c + x4 * x2 * (c3 + x2 * c4)
    } else {
        // ∓sin x: the sign goes onto the argument.
        let [s1, s2, s3] = SINCOSF_SIN.map(f64::from_bits);
        let x = x * SINCOSF_SIGN[(n & 3) as usize];
        let x3 = x * x2;
        let s = x + x3 * s1;
        s + x3 * x2 * (s2 + x2 * s3)
    };
    v as f32
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
    use rand::{RngCore, SeedableRng};

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f32> = (0..20_000).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        assert!((vector::mean(&xs) - 2.0).abs() < 0.1);
        assert!((vector::std_dev(&xs) - 3.0).abs() < 0.1);
    }

    /// Every `u1` and `2π u2` the rand shim's `random_range` can hand the
    /// kernel (2^24 values each), against the host libm. On glibc (2.28 and
    /// later) the ports return its bits exactly.
    #[cfg(target_env = "gnu")]
    #[test]
    fn kernel_reproduces_glibc_on_its_whole_domain() {
        let (mut mismatches, mut first) = (0usize, Vec::new());
        for k in 0..1u32 << 24 {
            let unit = k as f32 * (1.0 / (1u64 << 24) as f32);
            let u1 = f32::EPSILON + (1.0 - f32::EPSILON) * unit;
            let t = 2.0 * std::f32::consts::PI * unit;
            for (name, ours, glibc) in [("ln", ln(u1), u1.ln()), ("cos", cos(t), t.cos())] {
                if ours.to_bits() != glibc.to_bits() {
                    mismatches += 1;
                    if first.len() < 8 {
                        first.push((name, k, ours, glibc));
                    }
                }
            }
        }
        assert_eq!(mismatches, 0, "first (fn, k, port, glibc): {first:?}");
    }

    #[test]
    fn fill_normal_equals_successive_normal_calls() {
        for len in [0, 1, 63, 64, 65, 1_000] {
            for std in [0.0f32, 0.25, 1.0] {
                for mean in [0.0f32, -1.5] {
                    let seed = (len * 31) as u64 + std.to_bits() as u64 + mean.to_bits() as u64;
                    let mut batched = StdRng::seed_from_u64(seed);
                    let mut single = batched.clone();
                    let mut out = vec![f32::NAN; len];
                    fill_normal(&mut batched, mean, std, &mut out);
                    let one_by_one: Vec<f32> =
                        (0..len).map(|_| normal(&mut single, mean, std)).collect();
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&out),
                        bits(&one_by_one),
                        "len {len} std {std} mean {mean}"
                    );
                    assert_eq!(
                        batched.next_u64(),
                        single.next_u64(),
                        "len {len} std {std} mean {mean}"
                    );
                }
            }
        }
    }

    #[test]
    fn fill_normal_with_zero_std_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut untouched = rng.clone();
        let mut out = [0.0f32; 70];
        fill_normal(&mut rng, 2.5, 0.0, &mut out);
        assert!(out.iter().all(|&v| v == 2.5));
        assert_eq!(rng.next_u64(), untouched.next_u64());
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
