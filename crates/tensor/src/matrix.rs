//! Row-major `f32` matrix with the operations a small NN stack needs.
//!
//! The dense products ([`Matrix::matmul`], [`Matrix::t_matmul`], and
//! [`Matrix::matmul_t`] below [`vector::LANES`] shared columns) all run on
//! the one register-tile kernel of `crate::gemm`; longer `matmul_t` rows run
//! on [`vector::dot2`] row pairs. Every product runs on the caller's thread.
//! Every element accumulates over the shared dimension in the ascending
//! order of the textbook loops, one rounded multiply and one rounded add per
//! addend, so `matmul`/`t_matmul` are bit-identical to the references in
//! [`naive`]; `matmul_t` is bit-identical to one lane-unrolled
//! [`vector::dot`] per element, which may differ from the strict loop by
//! normal `f32` rounding.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::gemm::{gemm, Lhs, MUL_ADD};
use crate::vector;

/// Square tile side of the blocked [`Matrix::transpose`].
const TB: usize = 32;

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the workhorse of the workspace: mini-batches are stored as
/// `(batch, features)` matrices, dense-layer weights as `(in, out)` matrices.
/// All operations panic on shape mismatch (they are internal programming
/// errors, not recoverable conditions) — the panic message names the shapes.
///
/// # Example
///
/// ```
/// use shiftex_tensor::Matrix;
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from an owned backing vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "backing vector length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows: expected {c}, got {}", row.len());
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Samples every element i.i.d. from `N(mean, std²)` using the Box–Muller
    /// transform (see [`crate::rngx::normal`]).
    pub fn randn(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut impl Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| crate::rngx::normal(rng, mean, std))
    }

    /// Xavier/Glorot-uniform initialisation for a dense-layer weight of shape
    /// `(fan_in, fan_out)`: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    pub fn xavier(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Self::from_fn(fan_in, fan_out, |_, _| rng.random_range(-a..a))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes to `rows × cols` and zero-fills, keeping the allocation:
    /// the `*_into` kernels start from this so a buffer reused across
    /// batches is never reallocated once it has seen its largest shape.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over one column's values, walking the backing buffer with a
    /// stride of `cols` (one bounds check per column, not per element).
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols` (unless the matrix has zero rows).
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(self.rows == 0 || c < self.cols, "column {c} out of bounds");
        self.data
            .get(c..)
            .unwrap_or(&[])
            .iter()
            .step_by(self.cols.max(1))
            .copied()
    }

    /// Copies one column into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        self.col_iter(c).collect()
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Matrix product `self · rhs`.
    ///
    /// Runs on the register-tile kernel (`crate::gemm`). Per-element
    /// accumulation over the shared dimension stays ascending, so results
    /// are bit-identical to [`naive::matmul`] for finite operands.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] written into `out`, which is reshaped to
    /// `(self.rows, rhs.cols)` and keeps its allocation — the form a
    /// training loop calls once per batch.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: ({}x{}) x ({}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (kd, n) = (self.cols, rhs.cols);
        out.reset(self.rows, n);
        gemm::<MUL_ADD>(Lhs::rows(&self.data, kd), &rhs.data, &mut out.data, kd, n);
    }

    /// `selfᵀ · rhs` without materialising the transpose: the same kernel
    /// as [`Matrix::matmul`], reading `self` down its columns. Bit-identical
    /// to [`naive::t_matmul`] for finite operands.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.t_matmul_into(rhs, &mut out.data);
        out
    }

    /// [`Matrix::t_matmul`] written over `out`, a row-major
    /// `self.cols × rhs.cols` buffer — a dense layer's weight gradient lands
    /// directly in its slice of the flat gradient vector.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows` or `out` has the wrong length.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut [f32]) {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: ({}x{})^T x ({}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.len(),
            self.cols * rhs.cols,
            "t_matmul output length mismatch"
        );
        out.fill(0.0);
        let a = Lhs::transposed(&self.data, self.cols);
        gemm::<MUL_ADD>(a, &rhs.data, out, self.rows, rhs.cols);
    }

    /// `self · rhsᵀ` without materialising the transpose.
    ///
    /// Every output element is one lane-unrolled [`crate::vector::dot`] of
    /// two contiguous rows — the ideal memory layout for a Gram matrix.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_t_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_t`] written into `out`, which is reshaped to
    /// `(self.rows, rhs.rows)` and keeps its allocation.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_t_into_packed(rhs, out, &mut Vec::new());
    }

    /// [`Matrix::matmul_t_into`] with caller-kept scratch. Below
    /// [`vector::LANES`] shared columns a `dot` is one scalar multiply-add
    /// chain from `+0.0` plus an all-zero lane reduction, which changes
    /// nothing (a sum seeded `+0.0` is never `-0.0`). So the product runs on
    /// the register-tile kernel instead, over `rhsᵀ` packed into `pack`:
    /// same chain per element, same bits. `pack` keeps its allocation (a
    /// training step that lends the same `pack` every batch allocates
    /// nothing). Longer rows never touch `pack`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_t_into_packed(&self, rhs: &Matrix, out: &mut Matrix, pack: &mut Vec<f32>) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: ({}x{}) x ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (kd, p) = (self.cols, rhs.rows);
        out.reset(self.rows, p);
        let (a, b) = (&self.data, &rhs.data);
        if kd < vector::LANES {
            pack.clear();
            pack.resize(kd * p, 0.0);
            for (j, row) in b.chunks_exact(kd.max(1)).enumerate() {
                for (k, &v) in row.iter().enumerate() {
                    pack[k * p + j] = v;
                }
            }
            return gemm::<MUL_ADD>(Lhs::rows(a, kd), pack, &mut out.data, kd, p);
        }
        // Row pairs share each streamed rhs row via dot2; a trailing odd row
        // falls back to a single dot (bit-identical result).
        let m = self.rows;
        let mut i = 0;
        while i + 2 <= m {
            let a0 = &a[i * kd..(i + 1) * kd];
            let a1 = &a[(i + 1) * kd..(i + 2) * kd];
            let (r0, r1) = out.data[i * p..(i + 2) * p].split_at_mut(p);
            for (j, b_row) in b.chunks_exact(kd).enumerate() {
                [r0[j], r1[j]] = vector::dot2(a0, a1, b_row);
            }
            i += 2;
        }
        if i < m {
            let a_row = &a[i * kd..(i + 1) * kd];
            for (o, b_row) in out.data[i * p..].iter_mut().zip(b.chunks_exact(kd)) {
                *o = vector::dot(a_row, b_row);
            }
        }
    }

    /// Symmetric Gram product `self · selfᵀ`: computes only the upper
    /// triangle (row pairs via [`crate::vector::dot2`], like
    /// [`Matrix::matmul_t`]) and mirrors it, roughly halving the work of
    /// `matmul_t` on its own transpose. `dot(x, y)` and `dot(y, x)` are
    /// bit-identical, so the mirrored matrix equals `self.matmul_t(self)`
    /// exactly.
    pub fn self_gram(&self) -> Matrix {
        let (n, kd) = (self.rows, self.cols);
        let mut out = Matrix::zeros(n, n);
        let a = &self.data;
        // Pair rows; each row i owns entries j >= i.
        let mut i = 0;
        while i + 2 <= n {
            let a0 = &a[i * kd..(i + 1) * kd];
            let a1 = &a[(i + 1) * kd..(i + 2) * kd];
            let (r0, r1) = out.data[i * n..(i + 2) * n].split_at_mut(n);
            for j in i..n {
                [r0[j], r1[j]] = vector::dot2(a0, a1, &a[j * kd..(j + 1) * kd]);
            }
            i += 2;
        }
        if i < n {
            let a_row = &a[i * kd..(i + 1) * kd];
            for j in i..n {
                out.data[i * n + j] = vector::dot(a_row, &a[j * kd..(j + 1) * kd]);
            }
        }
        // Mirror the strict upper triangle down.
        let dst = &mut out.data;
        for r in 0..n {
            for c in (r + 1)..n {
                dst[c * n + r] = dst[r * n + c];
            }
        }
        out
    }

    /// Returns the transpose as a new matrix, copying `TB`×`TB` tiles
    /// so both the source and destination access patterns stay
    /// cache-resident.
    pub fn transpose(&self) -> Matrix {
        let (r, c) = (self.rows, self.cols);
        let mut out = Matrix::zeros(c, r);
        let dst = &mut out.data;
        for ib in (0..r).step_by(TB) {
            let iend = (ib + TB).min(r);
            for jb in (0..c).step_by(TB) {
                let jend = (jb + TB).min(c);
                for i in ib..iend {
                    let src_row = &self.data[i * c..(i + 1) * c];
                    for j in jb..jend {
                        dst[j * r + i] = src_row[j];
                    }
                }
            }
        }
        out
    }

    /// Pairwise squared Euclidean distances between the rows of `self` and
    /// the rows of `other`: entry `(i, j)` is `‖selfᵢ − otherⱼ‖²`, computed
    /// as `‖x‖² + ‖y‖² − 2·X·Yᵀ` with a single blocked [`Matrix::matmul_t`]
    /// call (or the half-work [`Matrix::self_gram`] when `other` is the
    /// same matrix). Entries are clamped at zero to absorb the cancellation
    /// error the norm expansion allows; a row compared against itself (same
    /// floating-point values) yields exactly `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn pairwise_sq_dists(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "pairwise_sq_dists dimension mismatch: {} vs {}",
            self.cols, other.cols
        );
        let mut g = if std::ptr::eq(self, other) {
            self.self_gram()
        } else {
            self.matmul_t(other)
        };
        let na: Vec<f32> = self.iter_rows().map(|r| vector::dot(r, r)).collect();
        let nb: Vec<f32> = other.iter_rows().map(|r| vector::dot(r, r)).collect();
        for (i, row) in g.data.chunks_exact_mut(g.cols.max(1)).enumerate() {
            let ni = na[i];
            for (v, &nj) in row.iter_mut().zip(nb.iter()) {
                *v = (ni + nj - 2.0 * *v).max(0.0);
            }
        }
        g
    }

    /// Element-wise addition. Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise subtraction. Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise combination with a binary function. Panics on shape mismatch.
    pub fn zip_with(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "elementwise shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Multiplies every element by a scalar, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// `self += alpha * rhs`, in place. Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Adds `bias` (length `cols`) to every row, in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Column-wise sum, returning a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        self.col_sums_into(&mut sums);
        sums
    }

    /// [`Matrix::col_sums`] written over `out` (length `cols`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cols`.
    pub fn col_sums_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "col_sums output length mismatch");
        out.fill(0.0);
        for row in self.iter_rows() {
            for (s, &v) in out.iter_mut().zip(row.iter()) {
                *s += v;
            }
        }
    }

    /// Column-wise mean, returning a vector of length `cols`.
    ///
    /// Returns zeros when the matrix has no rows.
    pub fn col_means(&self) -> Vec<f32> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let inv = 1.0 / self.rows as f32;
        self.col_sums().into_iter().map(|s| s * inv).collect()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element in each row (ties go to the first).
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.iter_rows().map(crate::vector::argmax).collect()
    }

    /// Extracts the sub-matrix made of the given rows (copied).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::default();
        self.select_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::select_rows`] gathered into `out`, which keeps its
    /// allocation — one mini-batch buffer serves a whole training call.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
        }
        out.rows = indices.len();
        out.cols = self.cols;
    }

    /// Stacks matrices vertically. All inputs must share `cols`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ or `mats` is empty.
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "vstack of empty list");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }
}

/// Naive reference implementations of the [`Matrix`] kernels.
///
/// Textbook loops with no tiling, unrolling or threading. They exist so
/// property tests (and benches) can check the optimized kernels against an
/// implementation whose correctness is obvious; production code should
/// always call the `Matrix` methods.
///
/// The products accumulate with an explicit `acc = 0.0; acc += a * b` loop,
/// not `Iterator::sum`: the neutral element of `sum::<f32>()` is `-0.0` on
/// current toolchains and was `+0.0` on older ones, so the sign of an
/// all-zero-product element would depend on the compiler — and disagree
/// with the kernels, whose sums are seeded `+0.0`.
pub mod naive {
    use super::Matrix;

    /// `Σ term(k)` over `k` in `0..kd` ascending, seeded `+0.0`.
    fn chain(kd: usize, term: impl Fn(usize) -> f32) -> f32 {
        let mut acc = 0.0;
        for k in 0..kd {
            acc += term(k);
        }
        acc
    }

    /// Textbook triple-loop `a · b`.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            chain(a.cols(), |k| a.get(i, k) * b.get(k, j))
        })
    }

    /// Textbook `aᵀ · b`.
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() != b.rows()`.
    pub fn t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "t_matmul shape mismatch");
        Matrix::from_fn(a.cols(), b.cols(), |i, j| {
            chain(a.rows(), |r| a.get(r, i) * b.get(r, j))
        })
    }

    /// Textbook `a · bᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.cols()`.
    pub fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "matmul_t shape mismatch");
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            chain(a.cols(), |k| a.get(i, k) * b.get(j, k))
        })
    }

    /// Element-by-element transpose.
    pub fn transpose(a: &Matrix) -> Matrix {
        Matrix::from_fn(a.cols(), a.rows(), |i, j| a.get(j, i))
    }

    /// Per-pair squared-distance matrix via [`crate::vector::sq_dist`].
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn pairwise_sq_dists(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "pairwise_sq_dists dimension mismatch");
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            crate::vector::sq_dist(a.row(i), b.row(j))
        })
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.iter_rows().take(6) {
            write!(f, "  ")?;
            for v in row.iter().take(8) {
                write!(f, "{v:>9.4} ")?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests::{bits, relu_sparse};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::randn(4, 3, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(4, 5, 0.0, 1.0, &mut rng);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Matrix::randn(4, 3, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(5, 3, 0.0, 1.0, &mut rng);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn broadcast_and_colsums() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(m.col_sums(), vec![2.0, 4.0, 6.0]);
        assert_eq!(m.col_means(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let m = Matrix::from_rows(&[&[0.1, 0.9, 0.9], &[2.0, 1.0, 0.0]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn select_rows_copies() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s, Matrix::from_rows(&[&[5.0, 6.0], &[1.0, 2.0]]));
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::ones(1, 2);
        let b = Matrix::zeros(2, 2);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(0), &[1.0, 1.0]);
        assert_eq!(v.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::xavier(64, 32, &mut rng);
        let a = (6.0f32 / 96.0).sqrt();
        assert!(m.as_slice().iter().all(|&v| v.abs() <= a));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::ones(2, 2);
        let b = Matrix::full(2, 2, 3.0);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::full(2, 2, 2.5));
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::zeros(2, 2);
        assert!(!format!("{m}").is_empty());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn col_matches_strided_gather() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0, 6.0]);
        assert_eq!(m.col_iter(1).sum::<f32>(), 12.0);
        assert!(Matrix::zeros(0, 3).col(2).is_empty());
    }

    /// ReLU-sparse `rows × cols` operand (≥ 50 % exact zeros, some `-0.0`).
    fn sparse(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_vec(rows, cols, relu_sparse(rows * cols, rng))
    }

    /// What `matmul_t` promises per element: one [`vector::dot`] — which,
    /// below [`vector::LANES`] shared columns, is spelled out here as the
    /// scalar chain it reduces to: multiply-adds from `0.0`, added to an
    /// all-zero lane reduction.
    fn matmul_t_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            let d = vector::dot(a.row(i), b.row(j));
            if a.cols() < vector::LANES {
                let mut chain = 0.0f32;
                for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                    chain += x * y;
                }
                assert_eq!(
                    d.to_bits(),
                    (0.0 + chain).to_bits(),
                    "dot is its tail chain"
                );
            }
            d
        })
    }

    /// `matmul_into`, `t_matmul_into` and `matmul_t_into` (plain and with
    /// kept scratch) on an `m`-row, `n`-column output over depth `kd`, each
    /// against its explicit-loop oracle, bit for bit. Outputs start dirty
    /// and mis-shaped: the kernels own their reset.
    fn assert_products_bit_identical(m: usize, kd: usize, n: usize, rng: &mut StdRng) {
        let at = format!("{m}x{kd}x{n}");
        let (a, b) = (sparse(m, kd, rng), sparse(kd, n, rng));
        let mut out = Matrix::full(2, 3, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), (m, n));
        let want = naive::matmul(&a, &b);
        assert_eq!(bits(out.as_slice()), bits(want.as_slice()), "matmul {at}");

        let at_ = sparse(kd, m, rng);
        let mut flat = vec![f32::NAN; m * n];
        at_.t_matmul_into(&b, &mut flat);
        let want = naive::t_matmul(&at_, &b);
        assert_eq!(bits(&flat), bits(want.as_slice()), "t_matmul {at}");

        let bt = sparse(n, kd, rng);
        let want = matmul_t_oracle(&a, &bt);
        let mut pack = vec![f32::NAN; 5];
        a.matmul_t_into(&bt, &mut out);
        assert_eq!(bits(out.as_slice()), bits(want.as_slice()), "matmul_t {at}");
        out.reset(1, 1);
        a.matmul_t_into_packed(&bt, &mut out, &mut pack);
        assert_eq!(out.shape(), (m, n));
        assert_eq!(bits(out.as_slice()), bits(want.as_slice()), "packed {at}");
    }

    /// Every tile edge: all four row remainders (odd counts included),
    /// columns around one, two, three and six tile vectors, depths on both
    /// sides of the `matmul_t` regime switch and far past it.
    #[test]
    fn products_are_bit_identical_across_every_tile_edge() {
        let mut rng = StdRng::seed_from_u64(21);
        for m in [1, 2, 3, 4, 5, 7, 8] {
            for n in [1, 7, 8, 9, 23, 24, 25, 47, 48, 49] {
                for kd in [0, 1, 31, 32, 33, 300] {
                    assert_products_bit_identical(m, kd, n, &mut rng);
                }
            }
        }
    }

    /// `self_gram` computes the upper triangle and mirrors it; the result
    /// must equal the full `matmul_t` on the matrix itself, bit for bit, on
    /// ReLU-sparse and dense operands, odd and even row counts, and depths
    /// on both sides of the `matmul_t` regime switch up to d = 2048.
    #[test]
    fn self_gram_is_bit_identical_to_matmul_t_on_itself() {
        let mut rng = StdRng::seed_from_u64(24);
        for rows in [1, 2, 3, 7, 8, 33, 130] {
            for kd in [1, 7, 31, 32, 33, 300, 2048] {
                let dense = Matrix::randn(rows, kd, 0.0, 1.0, &mut rng);
                for (kind, a) in [("sparse", sparse(rows, kd, &mut rng)), ("dense", dense)] {
                    assert_eq!(
                        bits(a.self_gram().as_slice()),
                        bits(a.matmul_t(&a).as_slice()),
                        "{kind} {rows}x{kd}"
                    );
                }
            }
        }
    }

    #[test]
    fn pairwise_sq_dists_of_identical_rows_is_exactly_zero() {
        let mut rng = StdRng::seed_from_u64(22);
        let m = Matrix::randn(6, 33, 0.0, 2.0, &mut rng);
        let d = m.pairwise_sq_dists(&m);
        for i in 0..6 {
            assert_eq!(d.get(i, i), 0.0, "diagonal entry {i} must be exact 0");
        }
    }

    /// Asserts elementwise agreement within relative tolerance `tol`.
    fn assert_close(fast: &Matrix, slow: &Matrix, tol: f32) {
        assert_eq!(fast.shape(), slow.shape());
        for (i, (x, y)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!(
                (x - y).abs() <= tol * scale,
                "element {i}: fast {x} vs naive {y}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The three products on random shapes and ReLU-sparse operands,
        /// bit for bit against their explicit-loop oracles.
        #[test]
        fn prop_products_are_bit_identical_to_explicit_loops(m in 1usize..14, kd in 0usize..70,
                                                             n in 1usize..60, seed in 0u64..1000) {
            assert_products_bit_identical(m, kd, n, &mut StdRng::seed_from_u64(seed));
        }

        /// Tiled transpose matches the naive reference, including
        /// non-multiple-of-TB shapes, and round-trips.
        #[test]
        fn prop_transpose_matches_naive(r in 1usize..70, c in 1usize..70, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = Matrix::randn(r, c, 0.0, 1.0, &mut rng);
            let t = m.transpose();
            prop_assert_eq!(&t, &naive::transpose(&m));
            prop_assert_eq!(&t.transpose(), &m);
        }

        /// Gram-formula pairwise distances match per-pair `sq_dist` loops.
        #[test]
        fn prop_pairwise_sq_dists_matches_naive(m in 1usize..10, p in 1usize..10,
                                                d in 1usize..40, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::randn(m, d, 0.0, 1.0, &mut rng);
            let b = Matrix::randn(p, d, 1.0, 1.0, &mut rng);
            assert_close(&a.pairwise_sq_dists(&b), &naive::pairwise_sq_dists(&a, &b), 1e-4);
        }

        /// `col` equals an explicit per-element gather.
        #[test]
        fn prop_col_matches_get(r in 1usize..12, c in 1usize..12, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = Matrix::randn(r, c, 0.0, 1.0, &mut rng);
            for j in 0..c {
                let expect: Vec<f32> = (0..r).map(|i| m.get(i, j)).collect();
                prop_assert_eq!(m.col(j), expect);
            }
        }
    }
}
