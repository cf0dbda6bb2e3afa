//! The one dense-product kernel: a strided register tile `C[MR × NR] += A·B`.
//!
//! [`crate::Matrix::matmul_into`], [`crate::Matrix::t_matmul_into`],
//! [`gemm_acc`] and the short-depth case of
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
//! each addend is either
//!
//! * one rounded multiply then one rounded add (`FMA = false`) — a scalar
//!   `acc = seed; for k { acc += a[k] * b[k] }` loop, bit for bit; or
//! * one fused multiply-add, with a final `+ 0.0` once the chain is done
//!   (`FMA = true`) — exactly what [`crate::vector::dot`] computes for
//!   slices shorter than [`crate::vector::LANES`]: its tail chain, added to
//!   an all-zero lane reduction.
//!
//! The tile multiplies through zero coefficients where a sparse-aware
//! scalar loop would skip them. Adding `0·b = ±0.0` leaves a finite sum
//! unchanged bit for bit unless the sum is `-0.0`, which a sum seeded `+0.0`
//! never is (`x + y` is `-0.0` only when both are). The one visible
//! difference is a **non-finite `b` under a zero coefficient**: the tile
//! yields `0·∞ = NaN` where a skipping loop would not — pinned by
//! `zero_coefficient_times_infinity_is_nan`.
//!
//! # Instruction selection
//!
//! On AVX2+FMA targets the tile is `core::arch` intrinsics
//! (`crate::simd::gemm_tile`); everywhere else it is [`tile_lanes`], the
//! same tile on `[f32; 8]` lanes in safe code — the `dot` / `dot2` /
//! `sq_dist` arrangement. Both are monomorphised per tile shape so the
//! accumulators are compile-time-sized, and they agree bit for bit.

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
use crate::simd::gemm_tile as tile;
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
)))]
use tile_lanes as tile;

/// Output rows of one register tile.
pub(crate) const MR: usize = 4;
/// Lanes of one tile vector.
pub(crate) const VL: usize = 8;
/// Most output columns of one register tile: three [`VL`]-lane vectors.
pub(crate) const NR: usize = 3 * VL;

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

/// `c += a · b` for row-major `b` (`kd × n`) and `c` (whole rows of width
/// `n`), tile by tile on the caller's thread: each band of [`MR`] rows keeps
/// its slice of `a` cache-resident while it sweeps `b` once. See the module
/// docs for the arithmetic contract.
pub(crate) fn gemm<const FMA: bool>(a: Lhs<'_>, b: &[f32], c: &mut [f32], kd: usize, n: usize) {
    if c.is_empty() || kd == 0 {
        return; // an empty sum adds nothing
    }
    let m = c.len() / n;
    for i0 in (0..m).step_by(MR) {
        for j0 in (0..n).step_by(NR) {
            let nc = NR.min(n - j0);
            let shape = (MR.min(m - i0), nc, kd);
            let c_tile = &mut c[i0 * n + j0..];
            tile::<FMA>(a.rows_from(i0), &b[j0..], n, c_tile, n, shape);
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
    if out.is_empty() {
        return;
    }
    assert_eq!(out.len() % n, 0, "gemm_acc output is not whole rows");
    assert_eq!(a.len(), out.len() / n * kd, "gemm_acc lhs length mismatch");
    assert_eq!(b.len(), kd * n, "gemm_acc rhs length mismatch");
    gemm::<false>(Lhs::rows(a, kd), b, out, kd, n);
}

/// One register tile on safe `[f32; VL]` lanes: rows `0..mr` and columns
/// `0..nc` of `c` (row stride `ldc`) receive `a · b` over `k` in `0..kd`,
/// `b` read at row stride `ldb`. The twin of `crate::simd::gemm_tile` —
/// same tile, same order, same bits — for targets without AVX2+FMA.
///
/// It works through the tile one vector at a time: `MR × VL` accumulators
/// are what a sixteen-register SSE2 or NEON file holds, and finishing one
/// vector's `k` loop before starting the next reorders nothing within an
/// element.
///
/// # Panics
///
/// Panics if the tile has more than [`MR`] rows or a slice is too short.
#[cfg(any(
    test,
    not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))
))]
pub(crate) fn tile_lanes<const FMA: bool>(
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
            (4, true) => tile_vector::<4, FMA, true>(a, b, ldb, c, ldc, (live, kd)),
            (3, true) => tile_vector::<3, FMA, true>(a, b, ldb, c, ldc, (live, kd)),
            (2, true) => tile_vector::<2, FMA, true>(a, b, ldb, c, ldc, (live, kd)),
            (1, true) => tile_vector::<1, FMA, true>(a, b, ldb, c, ldc, (live, kd)),
            (4, false) => tile_vector::<4, FMA, false>(a, b, ldb, c, ldc, (live, kd)),
            (3, false) => tile_vector::<3, FMA, false>(a, b, ldb, c, ldc, (live, kd)),
            (2, false) => tile_vector::<2, FMA, false>(a, b, ldb, c, ldc, (live, kd)),
            (1, false) => tile_vector::<1, FMA, false>(a, b, ldb, c, ldc, (live, kd)),
            _ => unreachable!("tile of {mr} rows"),
        }
    }
}

/// The first `live` lanes of one vector of [`tile_lanes`], for a
/// compile-time row count. `WHOLE` (`live == VL`) reads plain 8-lane
/// vectors; a ragged vector is zero-padded on load, computed like any other,
/// and only its live lanes are stored.
#[cfg(any(
    test,
    not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))
))]
fn tile_vector<const ROWS: usize, const FMA: bool, const WHOLE: bool>(
    a: Lhs<'_>,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    (live, kd): (usize, usize),
) {
    use crate::vector::madd;
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
                *s = if FMA { madd(x, y, *s) } else { *s + x * y };
            }
        }
    }
    for (i, lanes) in acc.iter().enumerate() {
        for (o, &s) in c[i * ldc..][..live].iter_mut().zip(lanes) {
            *o = if FMA { s + 0.0 } else { s };
        }
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

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
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

    /// The lane twin against explicit scalar chains, on every tile shape —
    /// this is what proves the portable path where the intrinsics are
    /// compiled in (and the whole path where they are not).
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
                    let lhs = Lhs::rows(&a, kd);
                    let (mut plain, mut fused) = (c0.clone(), c0.clone());
                    tile_lanes::<false>(lhs, &b, ldb, &mut plain, ldc, (mr, nc, kd));
                    tile_lanes::<true>(lhs, &b, ldb, &mut fused, ldc, (mr, nc, kd));
                    for i in 0..mr {
                        for j in 0..ldc {
                            let (mut p, mut f) = (c0[i * ldc + j], c0[i * ldc + j]);
                            if j < nc {
                                for k in 0..kd {
                                    p += a[i * kd + k] * b[k * ldb + j];
                                    f = crate::vector::madd(a[i * kd + k], b[k * ldb + j], f);
                                }
                                f += 0.0;
                            }
                            let at = format!("{mr}x{nc}x{kd} at ({i},{j})");
                            assert_eq!(plain[i * ldc + j].to_bits(), p.to_bits(), "{at}");
                            assert_eq!(fused[i * ldc + j].to_bits(), f.to_bits(), "fma {at}");
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `gemm_acc` on random shapes, onto a random ReLU-sparse `out`.
        #[test]
        fn prop_gemm_acc_matches_scalar_loop(m in 1usize..14, n in 1usize..60, kd in 0usize..70,
                                             seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = relu_sparse(m * kd, &mut rng);
            let b = relu_sparse(kd * n, &mut rng);
            let mut fast = relu_sparse(m * n, &mut rng);
            let mut slow = fast.clone();
            gemm_acc(&a, &b, &mut fast, kd, n);
            gemm_acc_oracle(&a, &b, &mut slow, kd, n);
            prop_assert_eq!(bits(&fast), bits(&slow));
        }
    }

    /// Intrinsics ≡ safe twin: only where the intrinsics are compiled in.
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    mod intrinsics {
        use super::*;

        type Tile = fn(Lhs<'_>, &[f32], usize, &mut [f32], usize, (usize, usize, usize));

        /// Runs one seeded tile of `c += a·b` through `tile` on either operand
        /// layout, returning the whole of `c` (slack rows and columns included,
        /// so a stray store shows).
        fn run_tile(
            tile: Tile,
            transposed: bool,
            shape: (usize, usize, usize),
            seed: u64,
        ) -> Vec<u32> {
            let (mr, nc, kd) = shape;
            let mut rng = StdRng::seed_from_u64(seed);
            let (ldb, ldc) = (nc + 3, nc + 5);
            let a = relu_sparse(mr * kd, &mut rng);
            let b = relu_sparse(kd.max(1) * ldb, &mut rng);
            let mut c = relu_sparse((mr + 1) * ldc, &mut rng);
            let a = if transposed {
                Lhs::transposed(&a, mr)
            } else {
                Lhs::rows(&a, kd)
            };
            tile(a, &b, ldb, &mut c, ldc, shape);
            bits(&c)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Intrinsics ≡ safe twin, bit for bit, on both operand layouts,
            /// both arithmetic modes and every tile shape.
            #[test]
            fn prop_intrinsics_tile_matches_lane_twin(mr in 1usize..=MR, nc in 1usize..=NR,
                                                      kd in 0usize..70, transposed in 0u8..2,
                                                      seed in 0u64..1000) {
                let (shape, t) = ((mr, nc, kd), transposed == 1);
                prop_assert_eq!(
                    run_tile(crate::simd::gemm_tile::<false>, t, shape, seed),
                    run_tile(tile_lanes::<false>, t, shape, seed)
                );
                prop_assert_eq!(
                    run_tile(crate::simd::gemm_tile::<true>, t, shape, seed),
                    run_tile(tile_lanes::<true>, t, shape, seed)
                );
            }
        }
    }
}
