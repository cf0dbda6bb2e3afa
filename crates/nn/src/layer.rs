//! Individual network layers with explicit forward/backward passes.
//!
//! Layers operate on mini-batches stored as `(batch, features)` matrices;
//! spatial layers (conv / pool) interpret the feature axis as a flattened
//! `(channels, height, width)` volume whose dimensions are fixed at
//! construction time.

use serde::{Deserialize, Serialize};
use shiftex_tensor::{vector, Matrix};

use crate::conv::{self, ConvScratch, ConvShape};

/// A single differentiable layer.
///
/// The enum (rather than a trait object) keeps models `Clone + Serialize`,
/// which federated averaging and the expert registry rely on.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
/// A cache belongs to one layer for as long as its owner likes: every
/// buffer is resized in place, so after the first mini-batch of a
/// `Sequential::train` call a training step allocates nothing here.
#[derive(Debug, Default)]
pub struct LayerCache {
    /// MaxPool: per-output flat index of the winning input element.
    winners: Vec<usize>,
    /// InstanceNorm: per-row standard deviation.
    stds: Vec<f32>,
    /// Conv: im2col panel, accumulator rows and gradient scratch of one
    /// row chunk.
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

    /// Runs the forward pass into `out` (reshaped, allocation kept),
    /// leaving in `cache` what [`Layer::backward`] will need besides
    /// `input` and `out` themselves. Inference and training share this one
    /// path.
    pub fn forward(&self, input: &Matrix, out: &mut Matrix, cache: &mut LayerCache) {
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
                pool_forward(input, *c, *h, *w, out, &mut cache.winners)
            }
            Layer::InstanceNorm => norm_forward(input, out, &mut cache.stds),
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
                        gi[src] += g;
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
    out.reset(input.rows(), input.cols());
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

/// Per-row standardisation into `out`; `stds` receives the per-row std
/// (eps-floored). Blocks of [`NORM_BLOCK`] rows, then the rest one by one.
fn norm_forward(input: &Matrix, out: &mut Matrix, stds: &mut Vec<f32>) {
    let rows = input.rows();
    out.reset(rows, input.cols());
    stds.clear();
    let blocked = rows - rows % NORM_BLOCK;
    for first in (0..blocked).step_by(NORM_BLOCK) {
        norm_rows::<NORM_BLOCK>(input, first, out, stds);
    }
    for r in blocked..rows {
        norm_rows::<1>(input, r, out, stds);
    }
}

/// Standardises rows `first..first + B` of `input` into `out` and appends
/// their stds. The `B` rows run as independent chains, but each row's mean
/// and variance sums still go in ascending column order and start from
/// `-0.0`, where `Iterator::<f32>::sum` starts: the per-row loop of
/// [`crate::naive::instance_norm`], bit for bit.
fn norm_rows<const B: usize>(input: &Matrix, first: usize, out: &mut Matrix, stds: &mut Vec<f32>) {
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
        stds.push(std);
    }
}

/// Forward 2×2/stride-2 max pooling into `out`; `winners` receives the flat
/// input index behind every output element.
fn pool_forward(
    input: &Matrix,
    c: usize,
    h: usize,
    w: usize,
    out: &mut Matrix,
    winners: &mut Vec<usize>,
) {
    assert!(
        h.is_multiple_of(2) && w.is_multiple_of(2),
        "pooling requires even spatial dims, got {h}x{w}"
    );
    let (oh, ow) = (h / 2, w / 2);
    let batch = input.rows();
    let out_dim = c * oh * ow;
    out.reset(batch, out_dim);
    winners.clear();
    winners.resize(batch * out_dim, 0);
    for b in 0..batch {
        let x = input.row(b);
        let out_row = out.row_mut(b);
        for ch in 0..c {
            let cbase = ch * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = cbase + (oy * 2 + dy) * w + ox * 2 + dx;
                            if x[idx] > best {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = ch * oh * ow + oy * ow + ox;
                    out_row[o] = best;
                    winners[b * out_dim + o] = best_idx;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
