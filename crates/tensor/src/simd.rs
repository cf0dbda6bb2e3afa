//! Explicit AVX2 kernels behind the [`crate::vector`] dispatch and the
//! `crate::gemm` register tile.
//!
//! The safe lane-unrolled kernels in [`crate::vector`] are written so the
//! autovectorizer *can* turn them into SIMD — but whether it actually does
//! depends on fragile SLP-vectorizer heuristics: the same source compiles
//! to clean 8-wide chains in one crate context and to a shuffle-heavy
//! 4-wide form in another (observed with rustc 1.95: presence of a second
//! caller of the kernel closure flips the chosen vector axis and costs
//! 2–4× on the Gram-matrix hot path). The reductions and the dense-product
//! tile here are the places in the workspace where that variance is
//! unacceptable, so this module pins the instruction selection with
//! `core::arch` intrinsics.
//!
//! This is the only module in the crate allowed to use `unsafe`; it is
//! compiled (and reachable) only when the build target enables `avx2` —
//! which the repo's `target-cpu=native` build flag does on any modern
//! x86-64 host. Every other configuration uses the safe fallbacks.
//!
//! Nothing here fuses a multiply into an add: every step is one rounded
//! multiply then one rounded add, as in the safe fallbacks. The
//! accumulator layout (four 8-lane registers per operand row, i.e.
//! [`LANES`] = 32 partial sums), the reduction tree and the scalar tails
//! mirror those fallbacks exactly, so [`dot`], [`dot2`] and [`sq_dist`]
//! agree with their safe twins bit for bit. [`gemm_tile`] is one tile with
//! two addends — multiply-then-add, and the squared difference behind
//! Krum's distance matrix — and agrees with its safe twin bit for bit
//! under each. Tests run every kernel against its twin.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_loadu_ps,
    _mm256_loadu_si256, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_mul_ps, _mm256_set1_ps,
    _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32,
    _mm_movehl_ps, _mm_shuffle_ps,
};

use crate::gemm::{Addend, Lhs, MR, MUL_ADD, NR, SQ_DIFF, VL};
use crate::vector::LANES;

/// 8-lane accumulators per operand row of [`dot`], [`dot2`] and
/// [`sq_dist`]: [`LANES`] partial sums in all.
const ACCS: usize = LANES / VL;

/// Dot product over the main [`LANES`]-multiple prefix plus a scalar tail.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = b.len();
    let main = n - n % LANES;
    // SAFETY: avx2 is statically enabled (this module only compiles under
    // `cfg(target_feature = "avx2")`, see the module docs), so the
    // intrinsics cannot fault. Every unaligned load reads 8 floats at offset
    // `i + v * VL` for `v < ACCS` with `i + LANES <= main`, and
    // `main <= a.len() == b.len()` (lengths asserted equal above), so all
    // accesses stay inside the two live slices.
    unsafe {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = [_mm256_setzero_ps(); ACCS];
        let mut i = 0;
        while i < main {
            for (v, s) in acc.iter_mut().enumerate() {
                let at = i + v * VL;
                let (x, y) = (_mm256_loadu_ps(pa.add(at)), _mm256_loadu_ps(pb.add(at)));
                *s = _mm256_add_ps(*s, _mm256_mul_ps(x, y));
            }
            i += LANES;
        }
        let mut tail = 0.0f32;
        for k in main..n {
            tail += a[k] * b[k];
        }
        reduce4(acc) + tail
    }
}

/// Two dot products sharing one streamed `b`; see [`crate::vector::dot2`].
#[inline]
pub fn dot2(a0: &[f32], a1: &[f32], b: &[f32]) -> [f32; 2] {
    debug_assert_eq!(a0.len(), b.len());
    debug_assert_eq!(a1.len(), b.len());
    let n = b.len();
    let main = n - n % LANES;
    // SAFETY: avx2 is statically enabled (module-level cfg), so the
    // intrinsics cannot fault. Each load reads 8 floats at `i + v * VL` for
    // `v < ACCS` with `i + LANES <= main`, and `main` is bounded by the
    // asserted-equal lengths of all three slices, so every access is in
    // bounds.
    unsafe {
        let rows = [a0.as_ptr(), a1.as_ptr()];
        let mut acc = [[_mm256_setzero_ps(); ACCS]; 2];
        let mut i = 0;
        while i < main {
            for v in 0..ACCS {
                let y = _mm256_loadu_ps(b.as_ptr().add(i + v * VL));
                for (row, p) in acc.iter_mut().zip(rows) {
                    let x = _mm256_loadu_ps(p.add(i + v * VL));
                    row[v] = _mm256_add_ps(row[v], _mm256_mul_ps(x, y));
                }
            }
            i += LANES;
        }
        let mut t0 = 0.0f32;
        let mut t1 = 0.0f32;
        for k in main..n {
            t0 += a0[k] * b[k];
            t1 += a1[k] * b[k];
        }
        [reduce4(acc[0]) + t0, reduce4(acc[1]) + t1]
    }
}

/// Squared Euclidean distance; exactly `0.0` for identical inputs
/// (every difference is `0.0` before accumulation).
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = b.len();
    let main = n - n % LANES;
    // SAFETY: avx2 is statically enabled (module-level cfg), so the
    // intrinsics cannot fault. Each load reads 8 floats at `i + v * VL` for
    // `v < ACCS` with `i + LANES <= main <= a.len() == b.len()` (lengths
    // asserted equal above), so every access stays inside the two live
    // slices.
    unsafe {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = [_mm256_setzero_ps(); ACCS];
        let mut i = 0;
        while i < main {
            for (v, s) in acc.iter_mut().enumerate() {
                let at = i + v * VL;
                let (x, y) = (_mm256_loadu_ps(pa.add(at)), _mm256_loadu_ps(pb.add(at)));
                let d = _mm256_sub_ps(x, y);
                *s = _mm256_add_ps(*s, _mm256_mul_ps(d, d));
            }
            i += LANES;
        }
        let mut tail = 0.0f32;
        for k in main..n {
            let d = a[k] - b[k];
            tail += d * d;
        }
        reduce4(acc) + tail
    }
}

/// Lane masks of a ragged last tile vector: the [`VL`] entries starting at
/// `VL - live` select the first `live` lanes.
static TAIL_MASK: [i32; 2 * VL] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// One register tile of the dense-product kernel: rows `0..mr` and columns
/// `0..nc` of `c` (row stride `ldc`) receive `addend(a[i, k], b[k, j])`
/// over `k` in `0..kd` ascending, `b` read at row stride `ldb`. `ADD`
/// picks the addend: [`MUL_ADD`], one rounded multiply then one rounded
/// add; [`SQ_DIFF`], one rounded subtract, multiply and add. See
/// `crate::gemm` for the contract and [`crate::gemm::tile_lanes`] for the
/// safe twin.
///
/// # Panics
///
/// Panics if the tile shape exceeds [`MR`] × [`NR`] or a slice is too short
/// for the shape and strides.
#[inline]
pub fn gemm_tile<const ADD: Addend>(
    a: Lhs<'_>,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    (mr, nc, kd): (usize, usize, usize),
) {
    assert!(
        (1..=MR).contains(&mr) && (1..=NR).contains(&nc),
        "tile shape {mr}x{nc}"
    );
    // `i * stride + extra`, `None` on overflow: the unsafe tile must never
    // be handed an offset that only passed its check by wrapping.
    let offset = |i: usize, stride: usize, extra: usize| i.checked_mul(stride)?.checked_add(extra);
    assert!(
        offset(mr - 1, ldc, nc).is_some_and(|end| end <= c.len()),
        "tile output out of bounds"
    );
    if kd > 0 {
        assert!(
            offset(kd - 1, ldb, nc).is_some_and(|end| end <= b.len()),
            "tile rhs out of bounds"
        );
        let last = offset(mr - 1, a.row_stride, 0).and_then(|row| offset(kd - 1, a.k_stride, row));
        assert!(
            last.is_some_and(|last| last < a.data.len()),
            "tile lhs out of bounds"
        );
    }
    let (pa, pb, pc) = (a.data.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let strides = (a.row_stride, a.k_stride, ldb, ldc);
    // SAFETY: avx2 is statically enabled (module-level cfg). The match
    // instantiates `ROWS = mr` and `VECS = ceil(nc / VL)`, so `nc` lies in
    // `(VECS - 1) * VL + 1 ..= VECS * VL`. The asserts above bound, without
    // wrapping, the largest offset the tile forms into each slice — last row,
    // last `k`, column `nc - 1` — and every other offset is no larger, which
    // is what `gemm_tile_impl` requires of `a`, `b` and `c`; `c` is borrowed
    // mutably, so nothing aliases the stores.
    unsafe {
        match (mr, nc.div_ceil(VL)) {
            (4, 3) => gemm_tile_impl::<4, 3, ADD>(pa, pb, pc, strides, nc, kd),
            (4, 2) => gemm_tile_impl::<4, 2, ADD>(pa, pb, pc, strides, nc, kd),
            (4, 1) => gemm_tile_impl::<4, 1, ADD>(pa, pb, pc, strides, nc, kd),
            (3, 3) => gemm_tile_impl::<3, 3, ADD>(pa, pb, pc, strides, nc, kd),
            (3, 2) => gemm_tile_impl::<3, 2, ADD>(pa, pb, pc, strides, nc, kd),
            (3, 1) => gemm_tile_impl::<3, 1, ADD>(pa, pb, pc, strides, nc, kd),
            (2, 3) => gemm_tile_impl::<2, 3, ADD>(pa, pb, pc, strides, nc, kd),
            (2, 2) => gemm_tile_impl::<2, 2, ADD>(pa, pb, pc, strides, nc, kd),
            (2, 1) => gemm_tile_impl::<2, 1, ADD>(pa, pb, pc, strides, nc, kd),
            (1, 3) => gemm_tile_impl::<1, 3, ADD>(pa, pb, pc, strides, nc, kd),
            (1, 2) => gemm_tile_impl::<1, 2, ADD>(pa, pb, pc, strides, nc, kd),
            (1, 1) => gemm_tile_impl::<1, 1, ADD>(pa, pb, pc, strides, nc, kd),
            _ => unreachable!("asserted above"),
        }
    }
}

/// [`gemm_tile`] for a compile-time tile of `ROWS` rows by `VECS` vectors
/// whose last vector holds `nc - (VECS - 1) · VL` live lanes; `strides` is
/// `(a row, a k, ldb, ldc)`. The `ROWS × VECS` accumulators stay in
/// registers from the load of `c` to its store.
///
/// # Safety
///
/// Requires avx2, `(VECS - 1) * VL < nc <= VECS * VL`, and — for every
/// `i < ROWS`, `k < kd`, `j < nc` — `a + i * strides.0 + k * strides.1`,
/// `b + k * strides.2 + j` readable and `c + i * strides.3 + j` readable and
/// writable, with `c` not aliased.
#[inline]
// SAFETY: see the `# Safety` section above; the only caller is `gemm_tile`.
unsafe fn gemm_tile_impl<const ROWS: usize, const VECS: usize, const ADD: Addend>(
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    (a_row, a_k, ldb, ldc): (usize, usize, usize, usize),
    nc: usize,
    kd: usize,
) {
    let live = nc - (VECS - 1) * VL;
    // SAFETY: avx2 per the caller's contract. Every vector but the last
    // covers columns `v * VL .. (v + 1) * VL <= nc` and is accessed whole;
    // the last covers `(VECS - 1) * VL .. nc` — whole when `live == VL`,
    // otherwise through `mask`, whose first `live` lanes are set (`8 - live`
    // is in `0..VL`, so the 8-entry mask load stays inside the 16-entry
    // table), and masked-out lanes are neither read nor written. All touched
    // columns are therefore `< nc`, at rows `i < ROWS` of `c`, `k < kd` of
    // `b` and `(i, k)` of `a` — in bounds by the caller's contract.
    unsafe {
        let mask = _mm256_loadu_si256(TAIL_MASK.as_ptr().add(VL - live) as *const __m256i);
        let load = |p: *const f32, v: usize| {
            if v + 1 < VECS || live == VL {
                _mm256_loadu_ps(p.add(v * VL))
            } else {
                _mm256_maskload_ps(p.add(v * VL), mask)
            }
        };
        let mut acc = [[_mm256_setzero_ps(); VECS]; ROWS];
        for (i, row) in acc.iter_mut().enumerate() {
            for (v, lanes) in row.iter_mut().enumerate() {
                *lanes = load(c.add(i * ldc), v);
            }
        }
        for k in 0..kd {
            let mut bv = [_mm256_setzero_ps(); VECS];
            for (v, lanes) in bv.iter_mut().enumerate() {
                *lanes = load(b.add(k * ldb), v);
            }
            for (i, row) in acc.iter_mut().enumerate() {
                let x = _mm256_set1_ps(*a.add(i * a_row + k * a_k));
                for (s, &y) in row.iter_mut().zip(&bv) {
                    *s = match ADD {
                        MUL_ADD => _mm256_add_ps(*s, _mm256_mul_ps(x, y)),
                        SQ_DIFF => {
                            let d = _mm256_sub_ps(x, y);
                            _mm256_add_ps(*s, _mm256_mul_ps(d, d))
                        }
                        _ => unreachable!("addend kind {ADD}"),
                    };
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (v, &s) in row.iter().enumerate() {
                let dst = c.add(i * ldc + v * VL);
                if v + 1 < VECS || live == VL {
                    _mm256_storeu_ps(dst, s);
                } else {
                    _mm256_maskstore_ps(dst, mask, s);
                }
            }
        }
    }
}

/// Horizontal sum of four 8-lane accumulators `[a, b, c, d]` with a
/// balanced tree: `(a+b) + (c+d)` lanewise, then `8 → 4 → 2 → 1`.
#[inline]
// SAFETY: callers must (and do — this fn is module-private) run under the
// avx2 target feature; with that established the body is pure register
// arithmetic with no memory access, so there is no pointer obligation.
unsafe fn reduce4([a, b, c, d]: [__m256; ACCS]) -> f32 {
    // SAFETY: avx2 is statically enabled (module-level cfg); pure register
    // arithmetic, no memory access.
    unsafe {
        let s = _mm256_add_ps(_mm256_add_ps(a, b), _mm256_add_ps(c, d));
        let q = _mm_add_ps(_mm256_castps256_ps128(s), _mm256_extractf128_ps(s, 1));
        let h = _mm_add_ps(q, _mm_movehl_ps(q, q));
        _mm_cvtss_f32(_mm_add_ss(h, _mm_shuffle_ps(h, h, 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::{dot, dot2, sq_dist};
    use crate::gemm::tests::nan_blind;
    use crate::vector::{dot2_lanes, dot_lanes, sq_dist_lanes};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Normals times `scale`, with one entry in eight drawn from the first
    /// `specials` of: ±0.0, a positive and a negative subnormal, ±∞.
    fn operand(len: usize, scale: f32, specials: usize, rng: &mut StdRng) -> Vec<f32> {
        let pool = [0.0, -0.0, 1e-40, -3e-39, f32::INFINITY, f32::NEG_INFINITY];
        (0..len)
            .map(|_| match rng.random_range(0..8 * specials) {
                k if k < specials => pool[k],
                _ => scale * crate::rngx::normal(rng, 0.0, 1.0),
            })
            .collect()
    }

    /// Each reduction's intrinsics ≡ its safe lane twin, `to_bits` (NaN as
    /// a class), at lengths around every lane and tail edge: finite operands
    /// with ±0.0 and subnormal entries, the same with ±∞, and operands small
    /// enough that every product is subnormal. `dot2` also equals `dot` per
    /// row.
    #[test]
    fn reductions_match_their_lane_twins_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(29);
        for len in [0, 1, 7, 31, 32, 33, 63, 64, 65, 2048] {
            for (scale, specials) in [(1.0, 4), (1.0, 6), (1e-20, 4)] {
                for rep in 0..4 {
                    let mut draw = || operand(len, scale, specials, &mut rng);
                    let (a0, a1, b) = (draw(), draw(), draw());
                    let at = format!("len {len}, scale {scale}, specials {specials}, rep {rep}");
                    let one = nan_blind(dot(&a0, &b));
                    assert_eq!(one, nan_blind(dot_lanes(&a0, &b)), "dot {at}");
                    let pair = dot2(&a0, &a1, &b).map(nan_blind);
                    assert_eq!(pair, dot2_lanes(&a0, &a1, &b).map(nan_blind), "dot2 {at}");
                    assert_eq!(pair[0], one, "dot2 row 0 is dot, {at}");
                    let sq = nan_blind(sq_dist(&a0, &b));
                    assert_eq!(sq, nan_blind(sq_dist_lanes(&a0, &b)), "sq_dist {at}");
                }
            }
        }
    }

    #[test]
    fn simd_sq_dist_identical_is_zero() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        assert_eq!(super::sq_dist(&a, &a), 0.0);
    }
}
