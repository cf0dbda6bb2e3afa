//! Explicit AVX2+FMA kernels behind the [`crate::vector`] dispatch and the
//! `crate::gemm` register tile.
//!
//! The safe lane-unrolled kernels in [`crate::vector`] are written so the
//! autovectorizer *can* turn them into SIMD — but whether it actually does
//! depends on fragile SLP-vectorizer heuristics: the same source compiles
//! to clean 8-wide FMA chains in one crate context and to a shuffle-heavy
//! 4-wide form in another (observed with rustc 1.95: presence of a second
//! caller of the kernel closure flips the chosen vector axis and costs
//! 2–4× on the Gram-matrix hot path). The reductions and the dense-product
//! tile here are the places in the workspace where that variance is
//! unacceptable, so this module pins the instruction selection with
//! `core::arch` intrinsics.
//!
//! This is the only module in the crate allowed to use `unsafe`; it is
//! compiled (and reachable) only when the build target enables both `avx2`
//! and `fma` — which the repo's `target-cpu=native` build flag does on any
//! modern x86-64 host. Every other configuration uses the safe fallbacks.
//!
//! The accumulator layout (four 8-lane registers per operand row, i.e.
//! [`LANES`] = 32 partial sums) and the reduction tree mirror the safe
//! fallback exactly, so both paths agree up to the usual FMA-vs-mul-add
//! rounding differences of the tails they share. [`gemm_tile`] is one tile
//! with three addends — multiply-then-add, fused multiply-add, and the
//! squared difference behind Krum's distance matrix — and agrees with its
//! safe twin bit for bit under each (a test runs one against the other).

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_fmadd_ps,
    _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_mul_ps,
    _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm_add_ps, _mm_add_ss,
    _mm_cvtss_f32, _mm_movehl_ps, _mm_shuffle_ps,
};

use crate::gemm::{Addend, Lhs, FUSED, MR, MUL_ADD, NR, SQ_DIFF, VL};
use crate::vector::LANES;

/// Dot product over the main [`LANES`]-multiple prefix plus a scalar tail.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = b.len();
    let main = n - n % LANES;
    // SAFETY: avx2+fma are statically enabled (this module only compiles
    // under `cfg(all(target_feature = "avx2", target_feature = "fma"))`, see
    // the module docs), so the intrinsics cannot fault. Every unaligned load
    // reads 8 floats at offset `i + {0,8,16,24}` with `i + 32 <= main`, and
    // `main <= a.len() == b.len()` (lengths asserted equal above), so all
    // accesses stay inside the two live slices.
    unsafe {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
                acc3,
            );
            i += LANES;
        }
        let mut tail = 0.0f32;
        for k in main..n {
            tail = a[k].mul_add(b[k], tail);
        }
        reduce4(acc0, acc1, acc2, acc3) + tail
    }
}

/// Two dot products sharing one streamed `b`; see [`crate::vector::dot2`].
#[inline]
pub fn dot2(a0: &[f32], a1: &[f32], b: &[f32]) -> [f32; 2] {
    debug_assert_eq!(a0.len(), b.len());
    debug_assert_eq!(a1.len(), b.len());
    let n = b.len();
    let main = n - n % LANES;
    // SAFETY: avx2+fma are statically enabled (module-level cfg), so the
    // intrinsics cannot fault. Each load reads 8 floats at `i + {0,8,16,24}`
    // with `i + 32 <= main`, and `main` is bounded by the asserted-equal
    // lengths of all three slices, so every access is in bounds.
    unsafe {
        let (p0, p1, pb) = (a0.as_ptr(), a1.as_ptr(), b.as_ptr());
        let mut acc00 = _mm256_setzero_ps();
        let mut acc01 = _mm256_setzero_ps();
        let mut acc02 = _mm256_setzero_ps();
        let mut acc03 = _mm256_setzero_ps();
        let mut acc10 = _mm256_setzero_ps();
        let mut acc11 = _mm256_setzero_ps();
        let mut acc12 = _mm256_setzero_ps();
        let mut acc13 = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            let b0 = _mm256_loadu_ps(pb.add(i));
            let b1 = _mm256_loadu_ps(pb.add(i + 8));
            let b2 = _mm256_loadu_ps(pb.add(i + 16));
            let b3 = _mm256_loadu_ps(pb.add(i + 24));
            acc00 = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(i)), b0, acc00);
            acc01 = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(i + 8)), b1, acc01);
            acc02 = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(i + 16)), b2, acc02);
            acc03 = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(i + 24)), b3, acc03);
            acc10 = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(i)), b0, acc10);
            acc11 = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(i + 8)), b1, acc11);
            acc12 = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(i + 16)), b2, acc12);
            acc13 = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(i + 24)), b3, acc13);
            i += LANES;
        }
        let mut t0 = 0.0f32;
        let mut t1 = 0.0f32;
        for k in main..n {
            t0 = a0[k].mul_add(b[k], t0);
            t1 = a1[k].mul_add(b[k], t1);
        }
        [
            reduce4(acc00, acc01, acc02, acc03) + t0,
            reduce4(acc10, acc11, acc12, acc13) + t1,
        ]
    }
}

/// Squared Euclidean distance; exactly `0.0` for identical inputs
/// (every difference is `0.0` before accumulation).
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = b.len();
    let main = n - n % LANES;
    // SAFETY: avx2+fma are statically enabled (module-level cfg), so the
    // intrinsics cannot fault. Each load reads 8 floats at `i + {0,8,16,24}`
    // with `i + 32 <= main <= a.len() == b.len()` (lengths asserted equal
    // above), so every access stays inside the two live slices.
    unsafe {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
            );
            let d2 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
            );
            let d3 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            acc2 = _mm256_fmadd_ps(d2, d2, acc2);
            acc3 = _mm256_fmadd_ps(d3, d3, acc3);
            i += LANES;
        }
        let mut tail = 0.0f32;
        for k in main..n {
            let d = a[k] - b[k];
            tail = d.mul_add(d, tail);
        }
        reduce4(acc0, acc1, acc2, acc3) + tail
    }
}

/// Lane masks of a ragged last tile vector: the [`VL`] entries starting at
/// `VL - live` select the first `live` lanes.
static TAIL_MASK: [i32; 2 * VL] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// One register tile of the dense-product kernel: rows `0..mr` and columns
/// `0..nc` of `c` (row stride `ldc`) receive `addend(a[i, k], b[k, j])`
/// over `k` in `0..kd` ascending, `b` read at row stride `ldb`. `ADD`
/// picks the addend: [`MUL_ADD`], one rounded multiply then one rounded
/// add; [`FUSED`], one fused multiply-add per step and a final `+ 0.0`;
/// [`SQ_DIFF`], one rounded subtract, multiply and add, never fused. See
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
    // SAFETY: avx2+fma are statically enabled (module-level cfg). The match
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
/// Requires avx2+fma, `(VECS - 1) * VL < nc <= VECS * VL`, and — for every
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
    // SAFETY: avx2+fma per the caller's contract. Every vector but the last
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
                        FUSED => _mm256_fmadd_ps(x, y, *s),
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
                let s = if ADD == FUSED {
                    _mm256_add_ps(s, _mm256_setzero_ps())
                } else {
                    s
                };
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

/// Horizontal sum of four 8-lane accumulators with a balanced tree:
/// `(a+b) + (c+d)` lanewise, then `8 → 4 → 2 → 1`.
#[inline]
// SAFETY: callers must (and do — this fn is module-private) run under the
// avx2 target feature; with that established the body is pure register
// arithmetic with no memory access, so there is no pointer obligation.
unsafe fn reduce4(a: __m256, b: __m256, c: __m256, d: __m256) -> f32 {
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
    #[test]
    fn simd_dot_matches_scalar() {
        let a: Vec<f32> = (0..77).map(|i| i as f32 * 0.25 - 9.0).collect();
        let b: Vec<f32> = (0..77).map(|i| 3.0 - i as f32 * 0.125).collect();
        let scalar: f64 = a.iter().zip(&b).map(|(&x, &y)| (x as f64) * y as f64).sum();
        let fast = super::dot(&a, &b) as f64;
        assert!((fast - scalar).abs() < 1e-2 * scalar.abs().max(1.0));
        let pair = super::dot2(&a, &a, &b);
        assert_eq!(pair[0], pair[1]);
        assert_eq!(pair[0], super::dot(&a, &b));
    }

    #[test]
    fn simd_sq_dist_identical_is_zero() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        assert_eq!(super::sq_dist(&a, &a), 0.0);
    }
}
