//! The one dense-product kernel: a strided register tile
//! `C[MR × NR] += Σ_k addend(A[i,k], B[k,j])`.
//!
//! [`crate::Matrix::matmul_into`], [`crate::Matrix::t_matmul_into`],
//! [`gemm_acc`], [`sq_dist_acc`] and the short-depth case of
//! [`crate::Matrix::matmul_t_into`] all run on [`gemm`], which walks the
//! output in tiles of [`MR`] rows by up to [`NR`] columns (three 8-lane
//! vectors). A tile loads its slice of `C` once, keeps the accumulators in
//! registers across the **whole** shared dimension, and stores once — the
//! output is touched twice per tile instead of twice per addend. The left
//! operand is addressed by two strides ([`Lhs`]), so `A·B` and `Aᵀ·B` are
//! the same loop and neither materialises a transpose.
//!
//! # Arithmetic contract
//!
//! Every output element receives its addends in strictly ascending order of
//! the shared index on top of what `C` already holds, lanes never mix, and
//! the tile's `ADD` parameter makes each addend one of two kinds:
//!
//! * [`MUL_ADD`]: one rounded multiply then one rounded add — a scalar
//!   `acc = seed; for k { acc += a[k] * b[k] }` loop, bit for bit;
//! * [`SQ_DIFF`]: `d = a[k] - b[k]`, then `acc += d * d` — one rounded
//!   subtract, one rounded multiply and one rounded add: a scalar
//!   squared-distance loop, bit for bit.
//!
//! Neither fuses a multiply into an add, on any target, so every build
//! computes the same bits.
//!
//! "Bit for bit" holds for every result that is not NaN. A NaN result is
//! NaN on every path, but IEEE 754 leaves its sign and payload open and the
//! compiler may commute an addition, so which NaN is not part of the
//! contract.
//!
//! The tile multiplies through zero coefficients where a sparse-aware
//! scalar loop would skip them. Adding `0·b = ±0.0` leaves a finite sum
//! unchanged bit for bit unless the sum is `-0.0`, which a sum seeded `+0.0`
//! never is (`x + y` is `-0.0` only when both are). The one visible
//! difference is a **non-finite `b` under a zero coefficient**: the tile
//! yields `0·∞ = NaN` where a skipping loop would not — pinned by
//! `zero_coefficient_times_infinity_is_nan`. (Zero coefficients are a
//! product matter; a [`SQ_DIFF`] tile has none to skip.)
//!
//! # Instruction selection
//!
//! On AVX2 targets the tile is `core::arch` intrinsics
//! (`crate::simd::gemm_tile`); everywhere else it is [`tile_lanes`], the
//! same tile on `[f32; 8]` lanes in safe code — the `dot` / `dot2` /
//! `sq_dist` arrangement. Both are monomorphised per tile shape and addend
//! kind so the accumulators are compile-time-sized, and they agree bit for
//! bit.

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
use crate::simd::gemm_tile as tile;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
use tile_lanes as tile;

/// Output rows of one register tile.
pub const MR: usize = 4;
/// Lanes of one tile vector.
pub(crate) const VL: usize = 8;
/// Most output columns of one register tile: three 8-lane vectors.
pub const NR: usize = 3 * VL;

/// What one step of the tile adds to an accumulator: the const parameter
/// `ADD` of [`gemm`], [`tile_lanes`] and `crate::simd::gemm_tile`, one of
/// the two kinds of the module-level arithmetic contract.
pub(crate) type Addend = u8;
/// `acc + x * y`: one rounded multiply, then one rounded add.
pub(crate) const MUL_ADD: Addend = 0;
/// `acc + (x - y) * (x - y)`: one rounded subtract, one rounded multiply,
/// one rounded add.
pub(crate) const SQ_DIFF: Addend = 1;

/// The left operand of [`gemm`]: element `(i, k)` — output row `i`, shared
/// index `k` — lives at `data[i * row_stride + k * k_stride]`.
#[derive(Clone, Copy)]
pub(crate) struct Lhs<'a> {
    pub data: &'a [f32],
    pub row_stride: usize,
    pub k_stride: usize,
}

impl<'a> Lhs<'a> {
    /// A row-major matrix of `kd` columns, as itself: `A` in `A·B`.
    pub fn rows(data: &'a [f32], kd: usize) -> Self {
        Self {
            data,
            row_stride: kd,
            k_stride: 1,
        }
    }

    /// A row-major matrix of `cols` columns, read down its columns: `Aᵀ` in
    /// `Aᵀ·B`, never materialised.
    pub fn transposed(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            row_stride: 1,
            k_stride: cols,
        }
    }

    /// The operand from output row `first` on.
    fn rows_from(self, first: usize) -> Self {
        Self {
            data: &self.data[first * self.row_stride..],
            ..self
        }
    }
}

/// `c[i, j] += Σ_k addend(a[i, k], b[k, j])` for `b` (`kd` rows of `n`
/// columns at row stride `ldb`) and `c` (whole rows of width `n`), tile by
/// tile on the caller's thread: each band of [`MR`] rows keeps its slice of
/// `a` cache-resident while it sweeps `b` once. `ADD` picks the addend; see
/// the module docs for the arithmetic contract.
pub(crate) fn gemm<const ADD: Addend>(
    a: Lhs<'_>,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    kd: usize,
    n: usize,
) {
    if c.is_empty() || kd == 0 {
        return; // an empty sum adds nothing
    }
    let m = c.len() / n;
    for i0 in (0..m).step_by(MR) {
        for j0 in (0..n).step_by(NR) {
            let nc = NR.min(n - j0);
            let shape = (MR.min(m - i0), nc, kd);
            let c_tile = &mut c[i0 * n + j0..];
            tile::<ADD>(a.rows_from(i0), &b[j0..], ldb, c_tile, n, shape);
        }
    }
}

/// Accumulating slice-level GEMM: `out += a · b` for row-major `a`
/// (`m × kd`), `b` (`kd × n`) and `out` (`m × n`), on the register-tile
/// kernel behind [`crate::Matrix::matmul`].
///
/// Every output element receives its addends in ascending order of the
/// shared index, one rounded multiply and one rounded add each (no FMA, no
/// reassociation), on top of whatever `out` already holds — so a caller
/// that seeds `out` (with a bias, say) and lowers its loops onto this
/// kernel reproduces a scalar `acc = seed; acc += a·b` loop bit for bit. A
/// loop that *skips* zero coefficients is reproduced too, for finite
/// operands on a seed that is not `-0.0` (the module-level contract of
/// `crates/tensor/src/gemm.rs`; `0·∞` is NaN here).
///
/// # Panics
///
/// Panics if a slice length disagrees with `kd`, `n` and the row count
/// implied by `out`.
pub fn gemm_acc(a: &[f32], b: &[f32], out: &mut [f32], kd: usize, n: usize) {
    tile_acc::<MUL_ADD>(a, b, out, kd, n);
}

/// [`gemm_acc`] over the first `n` columns of a wider `b`: row `k` of the
/// right operand is `b[k · ldb..][..n]`. Same kernel, same addend order,
/// same bits; a caller whose right operand is a column block of a larger
/// row-major matrix multiplies it where it lies instead of copying it out.
///
/// # Panics
///
/// Panics if `ldb < n` or a slice length disagrees with `kd`, `n`, `ldb`
/// and the row count implied by `out`.
pub fn gemm_acc_strided(a: &[f32], b: &[f32], ldb: usize, out: &mut [f32], kd: usize, n: usize) {
    if out.is_empty() {
        return;
    }
    assert!(ldb >= n, "rhs stride {ldb} narrower than its {n} columns");
    assert_eq!(out.len() % n, 0, "tile product output is not whole rows");
    assert_eq!(
        a.len(),
        out.len() / n * kd,
        "tile product lhs length mismatch"
    );
    assert!(
        kd == 0 || b.len() >= (kd - 1) * ldb + n,
        "tile product rhs too short"
    );
    gemm::<MUL_ADD>(Lhs::rows(a, kd), b, ldb, out, kd, n);
}

/// Accumulating squared distances on the same register tile:
/// `out[i, j] += Σ_k (a[i, k] - b[k, j])²` for row-major `a` (`m × kd`),
/// `b` (`kd × n`, so column `j` is one vector laid out down the rows) and
/// `out` (`m × n`).
///
/// Each addend is one rounded subtract, one rounded multiply and one
/// rounded add, in ascending `k`, on top of whatever `out` holds — a scalar
/// `acc = seed; d = x - y; acc += d * d` loop, bit for bit.
///
/// # Panics
///
/// Panics if a slice length disagrees with `kd`, `n` and the row count
/// implied by `out`.
pub fn sq_dist_acc(a: &[f32], b: &[f32], out: &mut [f32], kd: usize, n: usize) {
    tile_acc::<SQ_DIFF>(a, b, out, kd, n);
}

/// The shape checks and call shared by [`gemm_acc`] and [`sq_dist_acc`].
fn tile_acc<const ADD: Addend>(a: &[f32], b: &[f32], out: &mut [f32], kd: usize, n: usize) {
    if out.is_empty() {
        return;
    }
    assert_eq!(out.len() % n, 0, "tile product output is not whole rows");
    assert_eq!(
        a.len(),
        out.len() / n * kd,
        "tile product lhs length mismatch"
    );
    assert_eq!(b.len(), kd * n, "tile product rhs length mismatch");
    gemm::<ADD>(Lhs::rows(a, kd), b, n, out, kd, n);
}

/// One register tile on safe `[f32; VL]` lanes: rows `0..mr` and columns
/// `0..nc` of `c` (row stride `ldc`) receive `addend(a[i, k], b[k, j])`
/// over `k` in `0..kd`, `b` read at row stride `ldb`. The twin of
/// `crate::simd::gemm_tile` — same tile, same order, same bits, for every
/// [`Addend`] — for targets without AVX2.
///
/// It works through the tile one vector at a time: `MR × VL` accumulators
/// are what a sixteen-register SSE2 or NEON file holds, and finishing one
/// vector's `k` loop before starting the next reorders nothing within an
/// element.
///
/// # Panics
///
/// Panics if the tile has more than [`MR`] rows or a slice is too short.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
pub(crate) fn tile_lanes<const ADD: Addend>(
    a: Lhs<'_>,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    (mr, nc, kd): (usize, usize, usize),
) {
    for j0 in (0..nc).step_by(VL) {
        let live = VL.min(nc - j0);
        let (b, c) = (b.get(j0..).unwrap_or(&[]), &mut c[j0..]);
        match (mr, live == VL) {
            (4, true) => tile_vector::<4, ADD, true>(a, b, ldb, c, ldc, (live, kd)),
            (3, true) => tile_vector::<3, ADD, true>(a, b, ldb, c, ldc, (live, kd)),
            (2, true) => tile_vector::<2, ADD, true>(a, b, ldb, c, ldc, (live, kd)),
            (1, true) => tile_vector::<1, ADD, true>(a, b, ldb, c, ldc, (live, kd)),
            (4, false) => tile_vector::<4, ADD, false>(a, b, ldb, c, ldc, (live, kd)),
            (3, false) => tile_vector::<3, ADD, false>(a, b, ldb, c, ldc, (live, kd)),
            (2, false) => tile_vector::<2, ADD, false>(a, b, ldb, c, ldc, (live, kd)),
            (1, false) => tile_vector::<1, ADD, false>(a, b, ldb, c, ldc, (live, kd)),
            _ => unreachable!("tile of {mr} rows"),
        }
    }
}

/// The first `live` lanes of one vector of [`tile_lanes`], for a
/// compile-time row count. `WHOLE` (`live == VL`) reads plain 8-lane
/// vectors; a ragged vector is zero-padded on load, computed like any other,
/// and only its live lanes are stored.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
fn tile_vector<const ROWS: usize, const ADD: Addend, const WHOLE: bool>(
    a: Lhs<'_>,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    (live, kd): (usize, usize),
) {
    use std::array::from_fn;

    let load = |src: &[f32]| -> [f32; VL] {
        if WHOLE {
            <[f32; VL]>::try_from(&src[..VL]).expect("a slice of VL lanes")
        } else {
            from_fn(|l| if l < live { src[l] } else { 0.0 })
        }
    };
    let mut acc: [[f32; VL]; ROWS] = from_fn(|i| load(&c[i * ldc..]));
    for k in 0..kd {
        let y = load(&b[k * ldb..]);
        // Every bounds check of this step first, so the arithmetic below
        // is one straight-line block the vectorizer can pack by lane.
        let x: [f32; ROWS] = from_fn(|i| a.data[i * a.row_stride + k * a.k_stride]);
        for (lanes, &x) in acc.iter_mut().zip(&x) {
            for (s, &y) in lanes.iter_mut().zip(&y) {
                *s = match ADD {
                    MUL_ADD => *s + x * y,
                    SQ_DIFF => {
                        let d = x - y;
                        *s + d * d
                    }
                    _ => unreachable!("addend kind {ADD}"),
                };
            }
        }
    }
    for (i, lanes) in acc.iter().enumerate() {
        c[i * ldc..][..live].copy_from_slice(&lanes[..live]);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// ReLU-sparse operand: at least half exact zeros, some of them `-0.0`.
    pub(crate) fn relu_sparse(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.random_range(0..8u32) {
                0..=3 => 0.0,
                4 => -0.0,
                _ => crate::rngx::normal(rng, 0.0, 1.0),
            })
            .collect()
    }

    /// Operand carrying every special value the squared-difference addend
    /// can meet — NaN, ±∞, ±0.0 — among normals, one entry in eight.
    fn hostile(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.random_range(0..40u32) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                _ => crate::rngx::normal(rng, 0.0, 1.0),
            })
            .collect()
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `to_bits` with every NaN read as [`f32::NAN`]. IEEE 754 leaves the
    /// sign and payload of a NaN result open and LLVM commutes additions
    /// freely, so two paths agree on *whether* a result is NaN, not on
    /// which NaN it is.
    pub(crate) fn nan_blind(x: f32) -> u32 {
        if x.is_nan() {
            f32::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// `out += a · b`, one explicit scalar loop per element.
    fn gemm_acc_oracle(a: &[f32], b: &[f32], out: &mut [f32], kd: usize, n: usize) {
        for (i, row) in out.chunks_exact_mut(n).enumerate() {
            for (j, o) in row.iter_mut().enumerate() {
                let mut acc = *o;
                for k in 0..kd {
                    acc += a[i * kd + k] * b[k * n + j];
                }
                *o = acc;
            }
        }
    }

    /// Shapes straddling every tile edge: all four row remainders, column
    /// counts around one, three and six vectors, depths from empty to
    /// several hundred.
    #[test]
    fn gemm_acc_is_bit_identical_to_the_scalar_loop_on_any_seed() {
        let mut rng = StdRng::seed_from_u64(40);
        for m in [1, 2, 3, 4, 5, 11] {
            for n in [7, 8, 9, 23, 24, 25, 47, 48, 49] {
                for kd in [0, 1, 31, 32, 33, 300] {
                    let a = relu_sparse(m * kd, &mut rng);
                    let b = relu_sparse(kd * n, &mut rng);
                    // A bias-like seed, and the -0.0 seed a skipping loop
                    // would treat differently.
                    for seed in [0.37f32, -0.0] {
                        let mut fast = vec![seed; m * n];
                        let mut slow = fast.clone();
                        gemm_acc(&a, &b, &mut fast, kd, n);
                        gemm_acc_oracle(&a, &b, &mut slow, kd, n);
                        assert_eq!(bits(&fast), bits(&slow), "{m}x{kd}x{n} on seed {seed}");
                    }
                }
            }
        }
    }

    /// The one permitted difference from a zero-skipping loop.
    #[test]
    fn zero_coefficient_times_infinity_is_nan() {
        let (a, b) = ([0.0f32, 1.0], [f32::INFINITY, 2.0]);
        let mut out = [0.0f32];
        gemm_acc(&a, &b, &mut out, 2, 1);
        assert!(out[0].is_nan(), "0·∞ + 1·2 = {}", out[0]);
        // The skipping loop the tile replaced:
        let skipped: f32 = a
            .iter()
            .zip(&b)
            .filter(|(&x, _)| x != 0.0)
            .fold(0.0, |acc, (&x, &y)| acc + x * y);
        assert_eq!(skipped, 2.0);
    }

    /// The lane twin against explicit scalar chains, on every tile shape and
    /// every addend — this is what proves the portable path where the
    /// intrinsics are compiled in (and the whole path where they are not).
    /// The squared-difference tile also runs on non-finite operands.
    #[test]
    fn lane_tile_matches_scalar_chains_on_every_shape() {
        let mut rng = StdRng::seed_from_u64(41);
        for mr in 1..=MR {
            for nc in 1..=NR {
                for kd in [1, 2, 31, 40] {
                    let (ldb, ldc) = (nc + 2, nc + 1);
                    let a = relu_sparse(mr * kd, &mut rng);
                    let b = relu_sparse(kd * ldb, &mut rng);
                    let c0 = relu_sparse(mr * ldc, &mut rng);
                    let (ha, hb) = (hostile(mr * kd, &mut rng), hostile(kd * ldb, &mut rng));
                    let lhs = Lhs::rows(&a, kd);
                    let (mut plain, mut sq) = (c0.clone(), c0.clone());
                    tile_lanes::<MUL_ADD>(lhs, &b, ldb, &mut plain, ldc, (mr, nc, kd));
                    let hostile_lhs = Lhs::rows(&ha, kd);
                    tile_lanes::<SQ_DIFF>(hostile_lhs, &hb, ldb, &mut sq, ldc, (mr, nc, kd));
                    for i in 0..mr {
                        for j in 0..ldc {
                            let seed = c0[i * ldc + j];
                            let (mut p, mut q) = (seed, seed);
                            if j < nc {
                                for k in 0..kd {
                                    p += a[i * kd + k] * b[k * ldb + j];
                                    let d = ha[i * kd + k] - hb[k * ldb + j];
                                    q += d * d;
                                }
                            }
                            let at = format!("{mr}x{nc}x{kd} at ({i},{j})");
                            assert_eq!(plain[i * ldc + j].to_bits(), p.to_bits(), "{at}");
                            assert_eq!(nan_blind(sq[i * ldc + j]), nan_blind(q), "sq {at}");
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `gemm_acc` on random shapes, onto a random ReLU-sparse `out`;
        /// and `gemm_acc_strided` with the same `b` as the first `n`
        /// columns of a matrix `slack` columns wider.
        #[test]
        fn prop_gemm_acc_matches_scalar_loop(m in 1usize..14, n in 1usize..60, kd in 0usize..70,
                                             slack in 0usize..20, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = relu_sparse(m * kd, &mut rng);
            let b = relu_sparse(kd * n, &mut rng);
            let mut fast = relu_sparse(m * n, &mut rng);
            let mut slow = fast.clone();
            let mut strided = fast.clone();
            gemm_acc(&a, &b, &mut fast, kd, n);
            gemm_acc_oracle(&a, &b, &mut slow, kd, n);
            prop_assert_eq!(bits(&fast), bits(&slow));

            let ldb = n + slack;
            let mut wide = relu_sparse(kd * ldb, &mut rng);
            for (row, src) in wide.chunks_exact_mut(ldb).zip(b.chunks_exact(n)) {
                row[..n].copy_from_slice(src);
            }
            gemm_acc_strided(&a, &wide, ldb, &mut strided, kd, n);
            prop_assert_eq!(bits(&strided), bits(&slow));
        }
    }

    /// Intrinsics ≡ safe twin: only where the intrinsics are compiled in.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    mod intrinsics {
        use super::*;
        use crate::simd;

        type Tile = fn(Lhs<'_>, &[f32], usize, &mut [f32], usize, (usize, usize, usize));
        type Operand = fn(usize, &mut StdRng) -> Vec<f32>;

        /// Runs one seeded tile through `tile` on either operand layout, its
        /// `a` and `b` drawn by `operand`, returning the whole of `c` (slack
        /// rows and columns included, so a stray store shows) as
        /// [`nan_blind`] bits.
        fn run_tile(
            tile: Tile,
            operand: Operand,
            transposed: bool,
            shape: (usize, usize, usize),
            seed: u64,
        ) -> Vec<u32> {
            let (mr, nc, kd) = shape;
            let mut rng = StdRng::seed_from_u64(seed);
            let (ldb, ldc) = (nc + 3, nc + 5);
            let a = operand(mr * kd, &mut rng);
            let b = operand(kd.max(1) * ldb, &mut rng);
            let mut c = relu_sparse((mr + 1) * ldc, &mut rng);
            let a = if transposed {
                Lhs::transposed(&a, mr)
            } else {
                Lhs::rows(&a, kd)
            };
            tile(a, &b, ldb, &mut c, ldc, shape);
            c.into_iter().map(nan_blind).collect()
        }

        /// The squared-difference tile, intrinsics ≡ safe twin `to_bits`
        /// ([`nan_blind`]), on every `mr` × `nc` edge, both operand layouts
        /// and depths around one vector, with NaN, ±∞ and ±0.0 among the
        /// operands.
        #[test]
        fn sq_diff_intrinsics_tile_matches_lane_twin_on_every_edge() {
            let mut seed = 0;
            for mr in 1..=MR {
                for nc in 1..=NR {
                    for kd in [0, 1, 7, 8, 9, 33] {
                        for t in [false, true] {
                            seed += 1;
                            let shape = (mr, nc, kd);
                            assert_eq!(
                                run_tile(simd::gemm_tile::<SQ_DIFF>, hostile, t, shape, seed),
                                run_tile(tile_lanes::<SQ_DIFF>, hostile, t, shape, seed),
                                "{mr}x{nc}x{kd}, transposed {t}"
                            );
                        }
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Intrinsics ≡ safe twin, bit for bit, on both operand layouts,
            /// both addends and every tile shape.
            #[test]
            fn prop_intrinsics_tile_matches_lane_twin(mr in 1usize..=MR, nc in 1usize..=NR,
                                                      kd in 0usize..70, transposed in 0u8..2,
                                                      seed in 0u64..1000) {
                let (shape, t) = ((mr, nc, kd), transposed == 1);
                prop_assert_eq!(
                    run_tile(simd::gemm_tile::<MUL_ADD>, relu_sparse, t, shape, seed),
                    run_tile(tile_lanes::<MUL_ADD>, relu_sparse, t, shape, seed)
                );
                prop_assert_eq!(
                    run_tile(simd::gemm_tile::<SQ_DIFF>, hostile, t, shape, seed),
                    run_tile(tile_lanes::<SQ_DIFF>, hostile, t, shape, seed)
                );
            }
        }
    }
}
