//! Individual network layers with explicit forward/backward passes.
//!
//! Layers operate on mini-batches stored as `(batch, features)` matrices;
//! spatial layers (conv / pool) interpret the feature axis as a flattened
//! `(channels, height, width)` volume whose dimensions are fixed at
//! construction time.

use shiftex_tensor::{vector, Matrix};

use crate::conv::{self, ConvScratch, ConvShape};

/// A single differentiable layer.
///
/// The enum (rather than a trait object) keeps models `Clone` with a fixed
/// parameter order, so [`Sequential::params_flat`](crate::Sequential::params_flat)
/// is one walk over the layers. Folds and the expert registry work on
/// those flat vectors, never on layers.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully-connected layer: `y = x·W + b` with `W: (in, out)`.
    Dense {
        /// Weight matrix of shape `(fan_in, fan_out)`.
        w: Matrix,
        /// Bias vector of length `fan_out`.
        b: Vec<f32>,
    },
    /// Rectified linear activation, elementwise `max(0, x)`.
    Relu,
    /// Hyperbolic tangent activation.
    Tanh,
    /// 2-D convolution with odd kernel, stride 1 and "same" zero padding.
    Conv2d {
        /// Channel counts, kernel side and image size.
        shape: ConvShape,
        /// Filter bank of shape `(out_c, in_c * k * k)`.
        weight: Matrix,
        /// Per-output-channel bias.
        bias: Vec<f32>,
    },
    /// 2×2 max pooling with stride 2 over a `(c, h, w)` volume.
    MaxPool2d {
        /// Channels.
        c: usize,
        /// Input height (must be even).
        h: usize,
        /// Input width (must be even).
        w: usize,
    },
    /// Per-sample standardisation: each row is shifted/scaled to zero mean,
    /// unit variance. Placed at the input of every architecture — the
    /// equivalent of the per-image normalisation in standard vision
    /// pipelines, and what keeps local training stable when covariate
    /// shifts inflate input magnitudes.
    InstanceNorm,
}

/// What a layer keeps between its forward and backward pass, beyond its
/// own input and output — those the caller retains and lends back, so
/// nothing is cloned — plus the convolution's scratch.
///
/// Only [`Layer::forward`] writes the records (pool winners, norm stds);
/// [`Layer::infer`] leaves them as they were and uses the cache for the
/// convolution's scratch alone, so one cache serves a whole inference pass
/// over any stack of layers.
///
/// A cache belongs to one layer for as long as its owner likes: every
/// buffer is resized in place, so after the first mini-batch of a
/// `Sequential::train` call a training step allocates nothing here.
#[derive(Debug, Default)]
pub struct LayerCache {
    /// MaxPool: per output, the flat index (within its row) of the winning
    /// input element.
    winners: Vec<u32>,
    /// InstanceNorm: per-row standard deviation.
    stds: Vec<f32>,
    /// Conv: im2col panel and gradient scratch of one row chunk.
    conv: ConvScratch,
    /// Dense: `Wᵀ` packed for the input-gradient product of a narrow layer.
    pack: Vec<f32>,
}

impl Layer {
    /// Number of trainable parameters in this layer.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Dense { w, b } => w.len() + b.len(),
            Layer::Conv2d { weight, bias, .. } => weight.len() + bias.len(),
            _ => 0,
        }
    }

    /// Output feature width given this layer's configuration.
    pub fn out_dim(&self, in_dim: usize) -> usize {
        match self {
            Layer::Dense { w, .. } => w.cols(),
            Layer::Relu | Layer::Tanh => in_dim,
            Layer::Conv2d { shape, .. } => shape.out_c * shape.pixels(),
            Layer::MaxPool2d { c, h, w } => c * (h / 2) * (w / 2),
            Layer::InstanceNorm => in_dim,
        }
    }

    /// This layer's parameters in flatten order — row-major weights, then
    /// bias; both empty for a layer without parameters.
    pub fn params(&self) -> [&[f32]; 2] {
        match self {
            Layer::Dense { w, b } => [w.as_slice(), b],
            Layer::Conv2d { weight, bias, .. } => [weight.as_slice(), bias],
            _ => [&[], &[]],
        }
    }

    /// Mutable counterpart of [`Layer::params`]: the optimizer updates the
    /// parameters where they live.
    pub fn params_mut(&mut self) -> [&mut [f32]; 2] {
        match self {
            Layer::Dense { w, b } => [w.as_mut_slice(), b],
            Layer::Conv2d { weight, bias, .. } => [weight.as_mut_slice(), bias],
            _ => [&mut [], &mut []],
        }
    }

    /// Runs the training forward pass into `out` (reshaped, allocation
    /// kept), leaving in `cache` what [`Layer::backward`] will need besides
    /// `input` and `out` themselves: the pool winners and the norm stds.
    ///
    /// Inference and training share this one path but for those records:
    /// [`Layer::infer`] computes the same `out`, bit for bit, and writes
    /// none of them.
    pub fn forward(&self, input: &Matrix, out: &mut Matrix, cache: &mut LayerCache) {
        self.run::<true>(input, out, cache);
    }

    /// The inference forward pass: `out` is [`Layer::forward`]'s bit for
    /// bit, but no pool winner or norm std is recorded, so [`Layer::backward`]
    /// cannot follow it. `cache` lends the convolution its scratch.
    pub fn infer(&self, input: &Matrix, out: &mut Matrix, cache: &mut LayerCache) {
        self.run::<false>(input, out, cache);
    }

    /// [`Layer::forward`] (`RECORD`) or [`Layer::infer`].
    fn run<const RECORD: bool>(&self, input: &Matrix, out: &mut Matrix, cache: &mut LayerCache) {
        match self {
            Layer::Dense { w, b } => {
                input.matmul_into(w, out);
                out.add_row_broadcast(b);
            }
            Layer::Relu => map_into(input, out, |v| if v > 0.0 { v } else { 0.0 }),
            Layer::Tanh => map_into(input, out, f32::tanh),
            Layer::Conv2d {
                shape,
                weight,
                bias,
            } => conv::forward(*shape, input, weight.as_slice(), bias, out, &mut cache.conv),
            Layer::MaxPool2d { c, h, w } => {
                pool_forward::<RECORD>(input, *c, *h, *w, out, &mut cache.winners)
            }
            Layer::InstanceNorm => norm_forward::<RECORD>(input, out, &mut cache.stds),
        }
    }

    /// Runs the backward pass given the `input`, `output` and `cache` of
    /// the matching [`Layer::forward`] call.
    ///
    /// The parameter gradient is written over `param_grad` (length
    /// [`Layer::num_params`], flatten order). The gradient w.r.t. the layer
    /// input is written into `grad_in` when one is given; `None` skips that
    /// work — nothing below the first parametric layer consumes it.
    ///
    /// # Panics
    ///
    /// Panics if `param_grad.len() != self.num_params()`.
    pub fn backward(
        &self,
        input: &Matrix,
        output: &Matrix,
        cache: &mut LayerCache,
        grad_out: &Matrix,
        grad_in: Option<&mut Matrix>,
        param_grad: &mut [f32],
    ) {
        assert_eq!(
            param_grad.len(),
            self.num_params(),
            "parameter gradient length mismatch"
        );
        match self {
            Layer::Dense { w, .. } => {
                let (grad_w, grad_b) = param_grad.split_at_mut(w.len());
                input.t_matmul_into(grad_out, grad_w);
                grad_out.col_sums_into(grad_b);
                if let Some(grad_in) = grad_in {
                    grad_out.matmul_t_into_packed(w, grad_in, &mut cache.pack);
                }
            }
            Layer::Relu => {
                if let Some(grad_in) = grad_in {
                    zip_into(
                        grad_out,
                        output,
                        grad_in,
                        |g, o| if o > 0.0 { g } else { 0.0 },
                    );
                }
            }
            Layer::Tanh => {
                if let Some(grad_in) = grad_in {
                    zip_into(grad_out, output, grad_in, |g, o| g * (1.0 - o * o));
                }
            }
            Layer::Conv2d { shape, weight, .. } => {
                conv::backward(
                    *shape,
                    input,
                    grad_out,
                    weight.as_slice(),
                    grad_in,
                    param_grad,
                    &mut cache.conv,
                );
            }
            Layer::MaxPool2d { c, h, w } => {
                let Some(grad_in) = grad_in else { return };
                let out_dim = c * (h / 2) * (w / 2);
                grad_in.reset(grad_out.rows(), input.cols());
                for r in 0..grad_out.rows() {
                    let go = grad_out.row(r);
                    let gi = grad_in.row_mut(r);
                    let winners = &cache.winners[r * out_dim..(r + 1) * out_dim];
                    for (&src, &g) in winners.iter().zip(go.iter()) {
                        gi[src as usize] += g;
                    }
                }
            }
            Layer::InstanceNorm => {
                let Some(grad_in) = grad_in else { return };
                // y = (x - mu) / sigma; dL/dx = (g - mean(g) - y*mean(g*y)) / sigma.
                let n = output.cols() as f32;
                grad_in.reset(grad_out.rows(), grad_out.cols());
                for (r, &sigma) in cache.stds.iter().enumerate() {
                    let g = grad_out.row(r);
                    let y = output.row(r);
                    let mean_g = vector::mean(g);
                    let mean_gy = vector::dot(g, y) / n;
                    let inv_sigma = 1.0 / sigma;
                    let row = grad_in.row_mut(r);
                    for ((o, &gv), &yv) in row.iter_mut().zip(g.iter()).zip(y.iter()) {
                        *o = (gv - mean_g - yv * mean_gy) * inv_sigma;
                    }
                }
            }
        }
    }
}

/// `out = f(input)` elementwise, reusing `out`'s allocation.
fn map_into(input: &Matrix, out: &mut Matrix, f: impl Fn(f32) -> f32) {
    out.reshape_for_overwrite(input.rows(), input.cols());
    for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
        *o = f(v);
    }
}

/// `out = f(a, b)` elementwise, reusing `out`'s allocation.
fn zip_into(a: &Matrix, b: &Matrix, out: &mut Matrix, f: impl Fn(f32, f32) -> f32) {
    assert_eq!(a.shape(), b.shape(), "elementwise shape mismatch");
    out.reset(a.rows(), a.cols());
    let pairs = a.as_slice().iter().zip(b.as_slice());
    for (o, (&x, &y)) in out.as_mut_slice().iter_mut().zip(pairs) {
        *o = f(x, y);
    }
}

/// Rows [`norm_forward`] standardises side by side.
const NORM_BLOCK: usize = 8;

/// Per-row standardisation into `out`; with `RECORD`, `stds` receives the
/// per-row std (eps-floored), and without it `stds` is left alone. Blocks
/// of [`NORM_BLOCK`] rows, then one of half that many if the rest allows
/// (the 4-row test split of an eval pass is one such block), then the rest
/// one by one.
fn norm_forward<const RECORD: bool>(input: &Matrix, out: &mut Matrix, stds: &mut Vec<f32>) {
    const HALF: usize = NORM_BLOCK / 2;
    let rows = input.rows();
    out.reshape_for_overwrite(rows, input.cols());
    if RECORD {
        stds.clear();
    }
    let mut first = 0;
    while rows - first >= NORM_BLOCK {
        norm_rows::<NORM_BLOCK, RECORD>(input, first, out, stds);
        first += NORM_BLOCK;
    }
    if rows - first >= HALF {
        norm_rows::<HALF, RECORD>(input, first, out, stds);
        first += HALF;
    }
    for r in first..rows {
        norm_rows::<1, RECORD>(input, r, out, stds);
    }
}

/// Standardises rows `first..first + B` of `input` into `out` and, with
/// `RECORD`, appends their stds. The `B` rows run as independent chains, but each row's mean
/// and variance sums still go in ascending column order and start from
/// `-0.0`, where `Iterator::<f32>::sum` starts: the per-row loop of
/// [`crate::naive::instance_norm`], bit for bit.
fn norm_rows<const B: usize, const RECORD: bool>(
    input: &Matrix,
    first: usize,
    out: &mut Matrix,
    stds: &mut Vec<f32>,
) {
    let cols = input.cols();
    let n = cols.max(1) as f32;
    let x: [&[f32]; B] = std::array::from_fn(|j| &input.row(first + j)[..cols]);
    let mut mean = [-0.0f32; B];
    for c in 0..cols {
        for (s, row) in mean.iter_mut().zip(&x) {
            *s += row[c];
        }
    }
    let mean = mean.map(|s| s / n);
    let mut var = [-0.0f32; B];
    for c in 0..cols {
        for ((s, row), &m) in var.iter_mut().zip(&x).zip(&mean) {
            *s += (row[c] - m) * (row[c] - m);
        }
    }
    for (j, (row, (&m, &v))) in x.iter().zip(mean.iter().zip(&var)).enumerate() {
        let std = (v / n + 1e-5).sqrt();
        for (o, &xv) in out.row_mut(first + j).iter_mut().zip(*row) {
            *o = (xv - m) / std;
        }
        if RECORD {
            stds.push(std);
        }
    }
}

/// Outputs one lane block of [`pool_lanes`] pools.
const POOL_LANES: usize = 8;

/// Forward 2×2/stride-2 max pooling into `out`; with `RECORD`, `winners`
/// receives the flat input index (within its row) behind every output
/// element, and without it `winners` is left alone.
///
/// Each window is the chain `best = v > best ? v : best` over top-left,
/// top-right, bottom-left, bottom-right from `-∞` — the branching loop of
/// [`crate::naive::max_pool`], bit for bit: the first maximum wins a tie
/// (`-0.0` before `+0.0` included), a NaN never wins, and a window with
/// nothing above `-∞` reports `-∞`. The winner index rides the same
/// comparison, from index 0 of the row, so such a window reports index 0.
///
/// Where the output width divides [`POOL_LANES`], blocks of that many
/// consecutive outputs — whole output rows, `32` consecutive inputs — run
/// as lanes ([`pool_lanes`]); every other output row runs the same chain
/// one window at a time ([`pool_row`]).
fn pool_forward<const RECORD: bool>(
    input: &Matrix,
    c: usize,
    h: usize,
    w: usize,
    out: &mut Matrix,
    winners: &mut Vec<u32>,
) {
    assert!(
        h.is_multiple_of(2) && w.is_multiple_of(2),
        "pooling requires even spatial dims, got {h}x{w}"
    );
    let ow = w / 2;
    let out_dim = c * (h / 2) * ow;
    out.reshape_for_overwrite(input.rows(), out_dim);
    if RECORD {
        assert!(
            u32::try_from(input.cols()).is_ok(),
            "pool winners index rows of at most u32::MAX elements"
        );
        winners.clear();
        winners.resize(out.len(), 0);
    }
    // Output rows the lane blocks cover: whole blocks of whole output rows.
    let lane_rows = match ow {
        1 | 2 | 4 | 8 => c * (h / 2) / (POOL_LANES / ow) * (POOL_LANES / ow),
        _ => 0,
    };
    let lanes_out = lane_rows * ow;
    let windows = input.as_slice().chunks_exact(input.cols().max(1));
    let pooled = out.as_mut_slice().chunks_exact_mut(out_dim.max(1));
    for (b, (x, out_row)) in windows.zip(pooled).enumerate() {
        let win_row = if RECORD {
            &mut winners[b * out_dim..(b + 1) * out_dim]
        } else {
            &mut [][..]
        };
        match ow {
            1 => pool_lanes::<1, RECORD>(x, &mut out_row[..lanes_out], win_row),
            2 => pool_lanes::<2, RECORD>(x, &mut out_row[..lanes_out], win_row),
            4 => pool_lanes::<4, RECORD>(x, &mut out_row[..lanes_out], win_row),
            8 => pool_lanes::<8, RECORD>(x, &mut out_row[..lanes_out], win_row),
            _ => {}
        }
        for row in lane_rows..c * (h / 2) {
            let o = row * ow..(row + 1) * ow;
            let win = if RECORD {
                &mut win_row[o.clone()]
            } else {
                &mut [][..]
            };
            pool_row::<RECORD>(x, row, w, &mut out_row[o], win);
        }
    }
}

/// `max(v, best)` with the operands in that order: `v` if `v > best`,
/// otherwise `best` — so a NaN `v` or a `v` equal to `best` (either zero
/// against the other) keeps `best`. This is x86's `maxps v, best`.
#[inline(always)]
fn max_of(v: f32, best: f32) -> f32 {
    if v > best {
        v
    } else {
        best
    }
}

/// Pools `out.len()` outputs of the row `x` (a multiple of [`POOL_LANES`]
/// outputs from its start) in blocks of [`POOL_LANES`] lanes: lane `j` of
/// a block is output row `j / OW`, column `j % OW` of the block's
/// `POOL_LANES / OW` output rows, whose windows span the block's `32`
/// consecutive inputs. The four window candidates are four lane vectors,
/// and each step of the chain is one lane-wise [`max_of`] — with `RECORD`,
/// the winner index is blended on the same comparison. Every lane runs
/// [`pool_row`]'s chain, in its order, so the two agree bit for bit.
fn pool_lanes<const OW: usize, const RECORD: bool>(x: &[f32], out: &mut [f32], win: &mut [u32]) {
    // Top-left input of lane `j`, from the block's first input.
    let at: [usize; POOL_LANES] = std::array::from_fn(|j| j / OW * 4 * OW + 2 * (j % OW));
    // The four candidates' offsets from their top-left, in chain order.
    let taps = [0, 1, 2 * OW, 2 * OW + 1];
    let blocks = x
        .chunks_exact(4 * POOL_LANES)
        .zip(out.chunks_exact_mut(POOL_LANES));
    for (block, (src, dst)) in blocks.enumerate() {
        let src: &[f32; 4 * POOL_LANES] = src.try_into().expect("a whole lane block");
        let mut best = [f32::NEG_INFINITY; POOL_LANES];
        let mut idx = [0u32; POOL_LANES];
        let first = (block * 4 * POOL_LANES) as u32;
        for tap in taps {
            let v: [f32; POOL_LANES] = std::array::from_fn(|j| src[at[j] + tap]);
            if RECORD {
                for j in 0..POOL_LANES {
                    let wins = v[j] > best[j];
                    idx[j] = if wins {
                        first + (at[j] + tap) as u32
                    } else {
                        idx[j]
                    };
                }
            }
            for (b, &v) in best.iter_mut().zip(&v) {
                *b = max_of(v, *b);
            }
        }
        dst.copy_from_slice(&best);
        if RECORD {
            win[block * POOL_LANES..][..POOL_LANES].copy_from_slice(&idx);
        }
    }
}

/// Pools output row `row` of the row `x` (input width `w`) into `out`
/// (and, with `RECORD`, its winners into `win`), one window at a time.
fn pool_row<const RECORD: bool>(x: &[f32], row: usize, w: usize, out: &mut [f32], win: &mut [u32]) {
    // Output row `row` pools input rows `2·row` and `2·row + 1`
    // (channel-major rows of `w`, so channels need no offset of their own).
    let top_at = 2 * row * w;
    let (top, bottom) = x[top_at..top_at + 2 * w].split_at(w);
    let pairs = top.chunks_exact(2).zip(bottom.chunks_exact(2));
    for (ox, ((t, bt), o)) in pairs.zip(out.iter_mut()).enumerate() {
        let at = (top_at + 2 * ox) as u32;
        let w = w as u32;
        let candidates = [
            (t[0], at),
            (t[1], at + 1),
            (bt[0], at + w),
            (bt[1], at + w + 1),
        ];
        let (mut best, mut best_idx) = (f32::NEG_INFINITY, 0u32);
        for (v, idx) in candidates {
            if RECORD {
                best_idx = if v > best { idx } else { best_idx };
            }
            best = max_of(v, best);
        }
        *o = best;
        if RECORD {
            win[ox] = best_idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dense(fan_in: usize, fan_out: usize, seed: u64) -> Layer {
        let mut rng = StdRng::seed_from_u64(seed);
        Layer::Dense {
            w: Matrix::xavier(fan_in, fan_out, &mut rng),
            b: vec![0.0; fan_out],
        }
    }

    fn forward(layer: &Layer, x: &Matrix) -> (Matrix, LayerCache) {
        let mut out = Matrix::default();
        let mut cache = LayerCache::default();
        layer.forward(x, &mut out, &mut cache);
        (out, cache)
    }

    /// Full backward pass: `(grad_in, param_grad)`.
    fn backward(
        layer: &Layer,
        x: &Matrix,
        out: &Matrix,
        cache: &mut LayerCache,
        grad_out: &Matrix,
    ) -> (Matrix, Vec<f32>) {
        let mut grad_in = Matrix::default();
        let mut param_grad = vec![0.0; layer.num_params()];
        layer.backward(x, out, cache, grad_out, Some(&mut grad_in), &mut param_grad);
        (grad_in, param_grad)
    }

    fn flat_params(layer: &Layer) -> Vec<f32> {
        layer.params().concat()
    }

    fn load_params(layer: &mut Layer, src: &[f32]) {
        let mut offset = 0;
        for dst in layer.params_mut() {
            dst.copy_from_slice(&src[offset..offset + dst.len()]);
            offset += dst.len();
        }
    }

    #[test]
    fn dense_forward_shapes() {
        let layer = dense(4, 3, 0);
        let x = Matrix::ones(5, 4);
        let (y, _) = forward(&layer, &x);
        assert_eq!(y.shape(), (5, 3));
    }

    #[test]
    fn relu_masks_negatives() {
        let layer = Layer::Relu;
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let (y, mut cache) = forward(&layer, &x);
        assert_eq!(y.row(0), &[0.0, 2.0]);
        let g = Matrix::from_rows(&[&[1.0, 1.0]]);
        let (gi, _) = backward(&layer, &x, &y, &mut cache, &g);
        assert_eq!(gi.row(0), &[0.0, 1.0]);
    }

    #[test]
    fn pool_selects_max_and_routes_grad() {
        let layer = Layer::MaxPool2d { c: 1, h: 2, w: 2 };
        let x = Matrix::from_rows(&[&[1.0, 5.0, 2.0, 3.0]]);
        let (y, mut cache) = forward(&layer, &x);
        assert_eq!(y.row(0), &[5.0]);
        let g = Matrix::from_rows(&[&[7.0]]);
        let (gi, _) = backward(&layer, &x, &y, &mut cache, &g);
        assert_eq!(gi.row(0), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn conv_identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and bias 0 must be the identity map.
        let layer = Layer::Conv2d {
            shape: ConvShape {
                in_c: 1,
                out_c: 1,
                k: 1,
                h: 3,
                w: 3,
            },
            weight: Matrix::ones(1, 1),
            bias: vec![0.0],
        };
        let mut rng = StdRng::seed_from_u64(2);
        let x = Matrix::randn(2, 9, 0.0, 1.0, &mut rng);
        let (y, _) = forward(&layer, &x);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// Central-difference gradient check on a small dense layer.
    #[test]
    fn dense_gradient_check() {
        let mut layer = dense(3, 2, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let x = Matrix::randn(4, 3, 0.0, 1.0, &mut rng);
        grad_check(&mut layer, &x, 1e-2);
    }

    /// Central-difference gradient check on a small conv layer.
    #[test]
    fn conv_gradient_check() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = Layer::Conv2d {
            shape: ConvShape {
                in_c: 1,
                out_c: 2,
                k: 3,
                h: 4,
                w: 4,
            },
            weight: Matrix::randn(2, 9, 0.0, 0.5, &mut rng),
            bias: vec![0.1, -0.1],
        };
        let x = Matrix::randn(2, 16, 0.0, 1.0, &mut rng);
        grad_check(&mut layer, &x, 5e-2);
    }

    /// Verifies analytic parameter gradients of `layer` against central
    /// differences of the scalar loss `sum(forward(x))`.
    fn grad_check(layer: &mut Layer, x: &Matrix, tol: f32) {
        let (out, mut cache) = forward(layer, x);
        let grad_out = Matrix::ones(out.rows(), out.cols());
        let (_, analytic) = backward(layer, x, &out, &mut cache, &grad_out);

        let params = flat_params(layer);
        let eps = 1e-2f32;
        for i in 0..params.len() {
            let mut plus = params.clone();
            plus[i] += eps;
            load_params(layer, &plus);
            let f_plus = forward(layer, x).0.sum();
            let mut minus = params.clone();
            minus[i] -= eps;
            load_params(layer, &minus);
            let f_minus = forward(layer, x).0.sum();
            load_params(layer, &params);
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < tol * numeric.abs().max(1.0),
                "param {i}: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn instance_norm_standardises_rows() {
        let layer = Layer::InstanceNorm;
        let x = Matrix::from_rows(&[&[10.0, 12.0, 14.0, 16.0]]);
        let (y, _) = forward(&layer, &x);
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .row(0)
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn instance_norm_is_shift_and_scale_invariant() {
        let layer = Layer::InstanceNorm;
        let x = Matrix::from_rows(&[&[1.0, -2.0, 0.5, 3.0]]);
        let shifted = x.map(|v| v * 7.0 + 100.0);
        let (a, _) = forward(&layer, &x);
        let (b, _) = forward(&layer, &shifted);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-3, "{u} vs {v}");
        }
    }

    /// Central-difference check of the InstanceNorm input gradient.
    #[test]
    fn instance_norm_gradient_check() {
        let layer = Layer::InstanceNorm;
        let mut rng = StdRng::seed_from_u64(11);
        let x = Matrix::randn(2, 5, 1.0, 2.0, &mut rng);
        let (out, mut cache) = forward(&layer, &x);
        // Scalar loss: sum of out^2 / 2, so dL/dout = out.
        let (grad_in, _) = backward(&layer, &x, &out, &mut cache, &out);
        let eps = 1e-2f32;
        let loss = |m: &Matrix| -> f32 {
            let (o, _) = forward(&layer, m);
            o.as_slice().iter().map(|v| v * v / 2.0).sum()
        };
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut plus = x.clone();
                plus.set(r, c, x.get(r, c) + eps);
                let mut minus = x.clone();
                minus.set(r, c, x.get(r, c) - eps);
                let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                let analytic = grad_in.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    /// The blocked InstanceNorm against the per-row loop it replaced, bit
    /// for bit in outputs and stds: row counts around the 8-row block, and
    /// rows that are all `-0.0`, constant, or near `1e±30` in magnitude.
    #[test]
    fn instance_norm_matches_naive_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(13);
        for cols in [1, 7, 64, 192] {
            for rows in 0..=17 {
                let x = Matrix::from_fn(rows, cols, |r, c| match r % 6 {
                    0 => -0.0,
                    1 => 2.5,
                    2 => shiftex_tensor::rngx::normal(&mut rng, 0.0, 1e30),
                    3 => shiftex_tensor::rngx::normal(&mut rng, 0.0, 1e-30),
                    4 if c % 2 == 0 => -0.0,
                    _ => shiftex_tensor::rngx::normal(&mut rng, 3.0, 2.0),
                });
                let (expect, expect_stds) = crate::naive::instance_norm(&x);
                let (got, cache) = forward(&Layer::InstanceNorm, &x);
                let at = format!("{rows}x{cols}");
                assert_eq!(bits(got.as_slice()), bits(expect.as_slice()), "{at}");
                assert_eq!(bits(&cache.stds), bits(&expect_stds), "{at} stds");
            }
        }
    }

    /// The select-based max pool against the branching loop it replaced,
    /// bit for bit in outputs and winners: ties (the first maximum wins,
    /// `+0.0` after `-0.0` included), NaN candidates, and windows of only
    /// `-∞` and NaN (`-∞` at index 0), across batch sizes and shapes.
    #[test]
    fn max_pool_matches_naive_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(14);
        let pool = [f32::NAN, f32::NEG_INFINITY, -0.0, 0.0, 1.5, 1.5, -2.0];
        for (c, h, w) in [(1, 2, 2), (6, 8, 8), (12, 4, 4), (3, 2, 6), (2, 6, 2)] {
            for rows in 0..=5 {
                let x = Matrix::from_fn(rows, c * h * w, |r, _| match r {
                    // All -∞ and NaN: no candidate beats the start.
                    0 => pool[rng.random_range(0..2)],
                    // Specials only: dense ties.
                    1 => pool[rng.random_range(0..pool.len())],
                    _ => match rng.random_range(0..4) {
                        0 => pool[rng.random_range(0..pool.len())],
                        _ => shiftex_tensor::rngx::normal(&mut rng, 0.0, 1.0),
                    },
                });
                let (expect, expect_winners) = crate::naive::max_pool(&x, c, h, w);
                let layer = Layer::MaxPool2d { c, h, w };
                let (got, cache) = forward(&layer, &x);
                let at = format!("{rows} rows of {c}x{h}x{w}");
                assert_eq!(bits(got.as_slice()), bits(expect.as_slice()), "{at}");
                let winners: Vec<usize> = cache.winners.iter().map(|&i| i as usize).collect();
                assert_eq!(winners, expect_winners, "{at} winners");
            }
        }
    }

    /// Values for a pooling input: mostly the specials a window can tie or
    /// stall on, else a normal draw.
    fn pool_value(rng: &mut StdRng, specials: f64) -> f32 {
        const SPECIAL: [f32; 7] = [f32::NAN, f32::NEG_INFINITY, -0.0, 0.0, 1.5, 1.5, -2.0];
        if rng.random_bool(specials) {
            SPECIAL[rng.random_range(0..SPECIAL.len())]
        } else {
            shiftex_tensor::rngx::normal(rng, 0.0, 1.0)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The pool against [`crate::naive::max_pool`], values and winners,
        /// through both passes: the training forward records the naive
        /// winners, and inference writes the same values and no winner.
        /// Widths put the lane blocks to work whole (output width 1, 2, 4
        /// or 8), with a tail of output rows, and not at all (3, 5, 6);
        /// rows are all `-∞` and NaN (index 0 wins), all `±0.0` (the first
        /// zero wins), specials only (dense ties and NaN), or mixed.
        #[test]
        fn prop_max_pool_matches_naive_in_values_and_winners(seed in 0u64..1_000_000) {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut rng = StdRng::seed_from_u64(seed);
            let c = rng.random_range(1..=13);
            let h = 2 * rng.random_range(1..=5);
            let w = 2 * [1, 2, 3, 4, 5, 6, 8][rng.random_range(0..7)];
            let rows = rng.random_range(0..=9);
            let x = Matrix::from_fn(rows, c * h * w, |r, _| match r % 4 {
                0 => [f32::NAN, f32::NEG_INFINITY][rng.random_range(0..2)],
                1 => [0.0, -0.0][rng.random_range(0..2)],
                2 => pool_value(&mut rng, 1.0),
                _ => pool_value(&mut rng, 0.3),
            });
            let (expect, expect_winners) = crate::naive::max_pool(&x, c, h, w);
            let layer = Layer::MaxPool2d { c, h, w };
            let at = format!("{rows} rows of {c}x{h}x{w}");

            let (got, cache) = forward(&layer, &x);
            proptest::prop_assert_eq!(bits(got.as_slice()), bits(expect.as_slice()), "{}", at);
            let winners: Vec<usize> = cache.winners.iter().map(|&i| i as usize).collect();
            proptest::prop_assert_eq!(winners, expect_winners, "{} winners", at);

            let mut inferred = Matrix::default();
            let mut cache = LayerCache::default();
            layer.infer(&x, &mut inferred, &mut cache);
            proptest::prop_assert_eq!(bits(inferred.as_slice()), bits(expect.as_slice()), "{}", at);
            proptest::prop_assert!(cache.winners.is_empty(), "inference records no winner");
        }
    }

    /// Inference leaves the records of an earlier training forward alone:
    /// a norm and a pool cache keep their stds and winners, and a fresh
    /// cache gains none.
    #[test]
    fn inference_writes_no_records() {
        let mut rng = StdRng::seed_from_u64(15);
        let x = Matrix::randn(5, 4 * 4 * 2, 0.0, 1.0, &mut rng);
        for layer in [Layer::InstanceNorm, Layer::MaxPool2d { c: 2, h: 4, w: 4 }] {
            let (trained, mut cache) = forward(&layer, &x);
            let (winners, stds) = (cache.winners.clone(), cache.stds.clone());
            let other = Matrix::randn(3, x.cols(), 1.0, 2.0, &mut rng);
            let mut out = Matrix::default();
            layer.infer(&other, &mut out, &mut cache);
            assert_eq!((&cache.winners, &cache.stds), (&winners, &stds));
            layer.infer(&x, &mut out, &mut cache);
            assert_eq!(out, trained);
            let mut fresh = LayerCache::default();
            layer.infer(&x, &mut out, &mut fresh);
            assert!(fresh.winners.is_empty() && fresh.stds.is_empty());
        }
    }

    /// A skipped input gradient leaves the parameter gradient unchanged.
    #[test]
    fn skipping_grad_in_keeps_param_grad() {
        let layer = dense(3, 2, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let x = Matrix::randn(4, 3, 0.0, 1.0, &mut rng);
        let (out, mut cache) = forward(&layer, &x);
        let g = Matrix::randn(4, 2, 0.0, 1.0, &mut rng);
        let (_, full) = backward(&layer, &x, &out, &mut cache, &g);
        let mut dead = vec![0.0; layer.num_params()];
        layer.backward(&x, &out, &mut cache, &g, None, &mut dead);
        assert_eq!(full, dead);
    }

    #[test]
    fn param_roundtrip() {
        let mut layer = dense(4, 4, 3);
        let before = flat_params(&layer);
        assert_eq!(before.len(), layer.num_params());
        load_params(&mut layer, &before);
        assert_eq!(flat_params(&layer), before);
    }
}
