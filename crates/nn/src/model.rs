//! Sequential model: a layer stack with training, evaluation, embedding
//! extraction and flattened-parameter access.

use rand::Rng;
use serde::{Deserialize, Serialize};
use shiftex_tensor::Matrix;

use crate::arch::{ArchSpec, InputShape, LayerSpec};
use crate::conv::ConvShape;
use crate::layer::{Layer, LayerCache};
use crate::loss::{softmax_cross_entropy, softmax_cross_entropy_into};
use crate::optim::Sgd;
use crate::trainer::TrainConfig;

/// Evaluation result: mean loss and top-1 accuracy over a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Number of evaluated samples.
    pub n: usize,
}

/// Report of one local `train` call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// Mean loss of the first epoch.
    pub initial_loss: f32,
    /// Mean loss of the last epoch.
    pub final_loss: f32,
    /// Number of optimizer steps taken.
    pub steps: usize,
}

/// A feed-forward layer stack ending in a `Dense(classes)` classifier.
///
/// The activation entering that final classifier is the **embedding** used
/// throughout ShiftEx for covariate-shift detection (`P_c_t(X)` in the
/// paper's Algorithm 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sequential {
    spec: ArchSpec,
    layers: Vec<Layer>,
}

/// Every buffer a training step touches, owned by one
/// [`Sequential::train`] call and reused across its mini-batches: after the
/// first (largest) batch a step allocates nothing.
#[derive(Debug, Default)]
struct Workspace {
    /// Output of each layer; layer `i` reads `acts[i - 1]` (the batch
    /// itself for layer 0) and its backward pass borrows both.
    acts: Vec<Matrix>,
    /// Per-layer forward state and scratch.
    caches: Vec<LayerCache>,
    /// Gradient w.r.t. the output of the layer being differentiated.
    grad: Matrix,
    /// Gradient w.r.t. its input; swapped with `grad` layer by layer.
    grad_next: Matrix,
    /// Parameter gradient in flatten order, each layer writing its slice.
    flat_grad: Vec<f32>,
}

/// Rows of `logits` whose arg-max (first on ties) is the row's label.
fn top1_hits(logits: &Matrix, labels: &[usize]) -> usize {
    logits
        .iter_rows()
        .zip(labels)
        .filter(|(row, &label)| shiftex_tensor::vector::argmax(row) == label)
        .count()
}

impl Sequential {
    /// Builds a freshly-initialised model from an architecture spec.
    ///
    /// Weights are Xavier-uniform, biases zero; all randomness comes from
    /// `rng` so builds are reproducible.
    pub fn build(spec: &ArchSpec, rng: &mut impl Rng) -> Self {
        Self::assemble(spec, |rows, cols, conv| {
            let weight = Matrix::xavier(rows, cols, rng);
            if conv {
                weight.map(|v| v * (2.0 / cols as f32).sqrt())
            } else {
                weight
            }
        })
    }

    /// Builds the model of `spec` that holds `params` (as produced by
    /// [`Sequential::params_flat`]) — no RNG involved, for every place that
    /// needs a model *of* given parameters rather than a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` does not match the architecture.
    pub fn from_params(spec: &ArchSpec, params: &[f32]) -> Self {
        let mut model = Self::assemble(spec, |rows, cols, _| Matrix::zeros(rows, cols));
        model.set_params_flat(params);
        model
    }

    /// Lays out the layer stack of `spec`, asking `weight(rows, cols,
    /// is_conv)` for each weight matrix in flatten order; biases are zero.
    fn assemble(spec: &ArchSpec, mut weight: impl FnMut(usize, usize, bool) -> Matrix) -> Self {
        let mut layers = Vec::with_capacity(spec.hidden.len() + 2);
        // Every architecture standardises its input per sample, matching
        // the per-image normalisation of standard vision pipelines and
        // keeping training stable under covariate shift.
        layers.push(Layer::InstanceNorm);
        let mut shape = spec.input;
        for ls in &spec.hidden {
            match *ls {
                LayerSpec::Dense(out) => {
                    layers.push(Layer::Dense {
                        w: weight(shape.dim(), out, false),
                        b: vec![0.0; out],
                    });
                    shape = InputShape::flat(out);
                }
                LayerSpec::Relu => layers.push(Layer::Relu),
                LayerSpec::Tanh => layers.push(Layer::Tanh),
                LayerSpec::Conv { out_c, k } => {
                    layers.push(Layer::Conv2d {
                        shape: ConvShape {
                            in_c: shape.c,
                            out_c,
                            k,
                            h: shape.h,
                            w: shape.w,
                        },
                        // Filter bank: (rows = out_c, cols = fan_in).
                        weight: weight(out_c.max(1), shape.c * k * k, true),
                        bias: vec![0.0; out_c],
                    });
                    shape = InputShape {
                        c: out_c,
                        h: shape.h,
                        w: shape.w,
                    };
                }
                LayerSpec::MaxPool => {
                    layers.push(Layer::MaxPool2d {
                        c: shape.c,
                        h: shape.h,
                        w: shape.w,
                    });
                    shape = InputShape {
                        c: shape.c,
                        h: shape.h / 2,
                        w: shape.w / 2,
                    };
                }
            }
        }
        // Final classifier.
        layers.push(Layer::Dense {
            w: weight(shape.dim(), spec.classes, false),
            b: vec![0.0; spec.classes],
        });
        Self {
            spec: spec.clone(),
            layers,
        }
    }

    /// The architecture this model was built from.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Width of the embedding (penultimate-layer) activation.
    pub fn embed_dim(&self) -> usize {
        self.spec.embed_dim()
    }

    /// Flattens all parameters into one vector (layer order, weights then
    /// biases within each layer). This is the unit of federated exchange.
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for part in self.layers.iter().flat_map(Layer::params) {
            out.extend_from_slice(part);
        }
        out
    }

    /// Loads parameters previously produced by [`Sequential::params_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` does not match [`Sequential::num_params`].
    pub fn set_params_flat(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.num_params(),
            "parameter vector length mismatch: {} vs {}",
            params.len(),
            self.num_params()
        );
        self.for_each_param_slice(|offset, part| {
            part.copy_from_slice(&params[offset..offset + part.len()]);
        });
    }

    /// Visits every parameter slice where it lives, in flatten order, with
    /// its offset into the flat vector.
    fn for_each_param_slice(&mut self, mut f: impl FnMut(usize, &mut [f32])) {
        let mut offset = 0;
        for part in self.layers.iter_mut().flat_map(Layer::params_mut) {
            f(offset, part);
            offset += part.len();
        }
    }

    /// Runs `layers` over `x` in inference mode. Layer 0 reads `x` where it
    /// is; later activations ping-pong between two buffers.
    fn infer<'a>(x: &Matrix, layers: impl Iterator<Item = &'a Layer>) -> Matrix {
        let mut cache = LayerCache::default();
        let (mut cur, mut next) = (Matrix::default(), Matrix::default());
        let mut input = None;
        for layer in layers {
            layer.forward(input.unwrap_or(x), &mut next, &mut cache);
            std::mem::swap(&mut cur, &mut next);
            input = Some(&cur);
        }
        match input {
            Some(_) => cur,
            None => x.clone(),
        }
    }

    /// Full forward pass, returning the class logits.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        Self::infer(x, self.layers.iter())
    }

    /// Forward pass that stops at the penultimate layer, returning the
    /// embedding matrix `(batch, embed_dim)` — the latent representation
    /// `φ(x)` of the paper's Algorithm 1.
    ///
    /// The input [`Layer::InstanceNorm`] is **skipped** on this path: that
    /// normalisation exists to stabilise training, but it cancels precisely
    /// the input-distribution changes (mean/contrast moves) that MMD-based
    /// covariate-shift detection monitors. Detection therefore sees the raw
    /// input distribution through the learned feature map, while
    /// classification uses the normalised path.
    pub fn embed(&self, x: &Matrix) -> Matrix {
        let body = &self.layers[..self.layers.len() - 1];
        Self::infer(x, body.iter().filter(|l| !matches!(l, Layer::InstanceNorm)))
    }

    /// Evaluates mean loss and top-1 accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`.
    pub fn evaluate(&self, x: &Matrix, labels: &[usize]) -> EvalReport {
        if x.rows() == 0 {
            return EvalReport {
                loss: 0.0,
                accuracy: 0.0,
                n: 0,
            };
        }
        let logits = self.forward(x);
        let (loss, _) = softmax_cross_entropy(&logits, labels);
        EvalReport {
            loss,
            accuracy: top1_hits(&logits, labels) as f32 / labels.len() as f32,
            n: labels.len(),
        }
    }

    /// Number of rows of `x` whose top-1 prediction is its label — the
    /// numerator of [`EvalReport::accuracy`] without the loss (an `exp` per
    /// logit), for scoring loops that read nothing else.
    pub fn count_correct(&self, x: &Matrix, labels: &[usize]) -> usize {
        if x.rows() == 0 {
            return 0;
        }
        top1_hits(&self.forward(x), labels)
    }

    /// One SGD step on a single mini-batch; returns the batch loss.
    ///
    /// When `prox` is provided, a FedProx proximal term
    /// `(mu/2)·‖w − w_global‖²` is added to the objective, i.e.
    /// `mu·(w − w_global)` to the gradient.
    pub fn train_batch(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        opt: &mut Sgd,
        prox: Option<(&[f32], f32)>,
    ) -> f32 {
        let floor = self.first_parametric();
        self.train_step(&mut Workspace::default(), floor, x, labels, opt, prox)
    }

    /// Index of the first layer that has parameters: the backward sweep
    /// stops there, because no parameter sits below it to use the input
    /// gradient it would pass down.
    fn first_parametric(&self) -> usize {
        self.layers
            .iter()
            .position(|l| l.num_params() > 0)
            .expect("every model ends in a dense classifier")
    }

    /// [`Sequential::train_batch`] on the buffers of `ws`. The backward
    /// sweep runs from the last layer down to layer `floor`, which computes
    /// its parameter gradient only.
    fn train_step(
        &mut self,
        ws: &mut Workspace,
        floor: usize,
        x: &Matrix,
        labels: &[usize],
        opt: &mut Sgd,
        prox: Option<(&[f32], f32)>,
    ) -> f32 {
        let Workspace {
            acts,
            caches,
            grad,
            grad_next,
            flat_grad,
        } = ws;
        let depth = self.layers.len();
        acts.resize_with(depth, Matrix::default);
        caches.resize_with(depth, LayerCache::default);
        flat_grad.resize(self.num_params(), 0.0);

        for (i, layer) in self.layers.iter().enumerate() {
            let (before, after) = acts.split_at_mut(i);
            layer.forward(before.last().unwrap_or(x), &mut after[0], &mut caches[i]);
        }
        let loss = softmax_cross_entropy_into(&acts[depth - 1], labels, grad);

        let mut end = flat_grad.len();
        for i in (floor..depth).rev() {
            let layer = &self.layers[i];
            let start = end - layer.num_params();
            let input = if i == 0 { x } else { &acts[i - 1] };
            layer.backward(
                input,
                &acts[i],
                &mut caches[i],
                grad,
                (i > floor).then_some(&mut *grad_next),
                &mut flat_grad[start..end],
            );
            std::mem::swap(grad, grad_next);
            end = start;
        }

        if let Some((global, mu)) = prox {
            assert_eq!(global.len(), flat_grad.len(), "prox anchor length mismatch");
            self.for_each_param_slice(|offset, part| {
                let anchor = &global[offset..offset + part.len()];
                let grads = &mut flat_grad[offset..offset + part.len()];
                for ((g, &w), &wg) in grads.iter_mut().zip(part.iter()).zip(anchor) {
                    *g += mu * (w - wg);
                }
            });
        }
        let scale = opt.begin_step(flat_grad);
        self.for_each_param_slice(|offset, part| {
            let grads = &flat_grad[offset..offset + part.len()];
            opt.apply(offset, part, grads, scale);
        });
        loss
    }

    /// Trains for `cfg.epochs` epochs of shuffled mini-batches.
    ///
    /// Returns first/last epoch mean losses and the number of steps taken.
    pub fn train(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        cfg: &TrainConfig,
        rng: &mut impl Rng,
    ) -> FitReport {
        assert_eq!(x.rows(), labels.len(), "label count must match batch size");
        let n = x.rows();
        if n == 0 {
            return FitReport {
                initial_loss: 0.0,
                final_loss: 0.0,
                steps: 0,
            };
        }
        let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
        let anchor = cfg.prox_mu.map(|mu| (self.params_flat(), mu));
        let floor = self.first_parametric();
        let mut ws = Workspace::default();
        let (mut bx, mut by) = (Matrix::default(), Vec::new());
        let mut order: Vec<usize> = (0..n).collect();
        let mut first = f32::NAN;
        let mut last = 0.0;
        let mut steps = 0;
        for epoch in 0..cfg.epochs {
            shiftex_tensor::rngx::shuffle(rng, &mut order);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                x.select_rows_into(chunk, &mut bx);
                by.clear();
                by.extend(chunk.iter().map(|&i| labels[i]));
                let prox = anchor.as_ref().map(|(p, mu)| (p.as_slice(), *mu));
                epoch_loss += self.train_step(&mut ws, floor, &bx, &by, &mut opt, prox);
                batches += 1;
                steps += 1;
            }
            let mean = epoch_loss / batches.max(1) as f32;
            if epoch == 0 {
                first = mean;
            }
            last = mean;
        }
        FitReport {
            initial_loss: first,
            final_loss: last,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two well-separated *pattern* blobs (class 0 = +,-,+,-; class 1 =
    /// -,+,-,+) — separable even under the input InstanceNorm, which removes
    /// constant offsets.
    fn blobs(n: usize, rng: &mut StdRng) -> (Matrix, Vec<usize>) {
        let mut labels = Vec::with_capacity(n);
        let x = Matrix::from_fn(n, 4, |i, j| {
            let class = i % 2;
            if j == 0 {
                labels.push(class);
            }
            let sign = if (j % 2 == 0) == (class == 0) {
                2.0
            } else {
                -2.0
            };
            sign + shiftex_tensor::rngx::normal(rng, 0.0, 0.5)
        });
        (x, labels)
    }

    #[test]
    fn params_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = ArchSpec::mlp("t", 6, &[8, 4], 3);
        let mut model = Sequential::build(&spec, &mut rng);
        let p = model.params_flat();
        assert_eq!(p.len(), model.num_params());
        model.set_params_flat(&p);
        assert_eq!(model.params_flat(), p);
    }

    #[test]
    fn embed_dim_matches_spec() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = ArchSpec::mlp("t", 6, &[8, 4], 3);
        let model = Sequential::build(&spec, &mut rng);
        let x = Matrix::zeros(2, 6);
        assert_eq!(model.embed(&x).cols(), 4);
        assert_eq!(model.embed_dim(), 4);
    }

    #[test]
    fn training_fits_separable_blobs() {
        let mut rng = StdRng::seed_from_u64(1);
        let (x, y) = blobs(64, &mut rng);
        let spec = ArchSpec::mlp("blobs", 4, &[8], 2);
        let mut model = Sequential::build(&spec, &mut rng);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 0.1,
            ..TrainConfig::default()
        };
        let report = model.train(&x, &y, &cfg, &mut rng);
        assert!(report.final_loss < report.initial_loss);
        let eval = model.evaluate(&x, &y);
        assert!(eval.accuracy > 0.95, "accuracy {}", eval.accuracy);
    }

    #[test]
    fn fedprox_term_pulls_towards_anchor() {
        let mut rng = StdRng::seed_from_u64(2);
        let (x, y) = blobs(32, &mut rng);
        let spec = ArchSpec::mlp("blobs", 4, &[4], 2);
        let base = Sequential::build(&spec, &mut rng);
        let anchor = base.params_flat();

        let run = |mu: Option<f32>, rng: &mut StdRng| {
            let mut m = base.clone();
            let cfg = TrainConfig {
                epochs: 10,
                batch_size: 8,
                lr: 0.1,
                prox_mu: mu,
                ..TrainConfig::default()
            };
            m.train(&x, &y, &cfg, rng);
            crate::average::param_l2_distance(&m.params_flat(), &anchor)
        };
        let free = run(None, &mut rng);
        let proxed = run(Some(10.0), &mut rng);
        assert!(
            proxed < free,
            "prox run should stay closer to anchor: {proxed} vs {free}"
        );
    }

    #[test]
    fn conv_model_trains() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = ArchSpec::lenet5_lite(InputShape { c: 1, h: 8, w: 8 }, 2, 16);
        let mut model = Sequential::build(&spec, &mut rng);
        // Class 0: bright left half. Class 1: bright right half.
        let n = 32;
        let mut labels = Vec::new();
        let x = Matrix::from_fn(n, 64, |i, j| {
            let class = i % 2;
            if j == 0 {
                labels.push(class);
            }
            let col = j % 8;
            let bright = if class == 0 { col < 4 } else { col >= 4 };
            if bright {
                1.0 + shiftex_tensor::rngx::normal(&mut rng, 0.0, 0.1)
            } else {
                shiftex_tensor::rngx::normal(&mut rng, 0.0, 0.1)
            }
        });
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 8,
            lr: 0.05,
            ..TrainConfig::default()
        };
        model.train(&x, &labels, &cfg, &mut rng);
        let eval = model.evaluate(&x, &labels);
        assert!(eval.accuracy > 0.9, "conv accuracy {}", eval.accuracy);
    }

    /// N steps with the backward sweep stopped at the first parametric
    /// layer leave exactly the parameters of N full sweeps (floor 0: the
    /// first layer's input gradient and the InstanceNorm backward are
    /// computed and dropped, as every step did before dead-gradient
    /// elimination) — FedProx term and momentum included.
    #[test]
    fn dead_gradient_elimination_is_bit_identical_to_full_backward() {
        let lenet = ArchSpec::lenet5_lite(InputShape { c: 1, h: 8, w: 8 }, 4, 16);
        let mlp = ArchSpec::mlp("t", 12, &[9, 5], 4);
        for (spec, seed) in [(mlp, 20u64), (lenet, 21)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fast = Sequential::build(&spec, &mut rng);
            let mut full = fast.clone();
            let anchor = fast.params_flat();
            let (mut opt_fast, mut opt_full) =
                (Sgd::new(0.05, 0.9, 1e-4), Sgd::new(0.05, 0.9, 1e-4));
            let (mut ws_fast, mut ws_full) = (Workspace::default(), Workspace::default());
            let floor = fast.first_parametric();
            assert!(floor > 0, "InstanceNorm sits below the first parameters");
            for step in 0..6 {
                // Batch sizes vary so the reused buffers shrink and regrow.
                let rows = [8, 3, 8, 1, 5, 8][step];
                let x = Matrix::randn(rows, spec.input.dim(), 0.5, 1.5, &mut rng);
                let y: Vec<usize> = (0..rows).map(|i| (i + step) % spec.classes).collect();
                let prox = Some((anchor.as_slice(), 0.1));
                let a = fast.train_step(&mut ws_fast, floor, &x, &y, &mut opt_fast, prox);
                let b = full.train_step(&mut ws_full, 0, &x, &y, &mut opt_full, prox);
                assert_eq!(a.to_bits(), b.to_bits(), "loss at step {step}");
            }
            let bits = |m: &Sequential| -> Vec<u32> {
                m.params_flat().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&fast), bits(&full), "{}", spec.label);
            assert_ne!(fast.params_flat(), anchor, "training moved the parameters");
        }
    }

    #[test]
    fn from_params_holds_the_given_parameters_without_an_rng() {
        let spec = ArchSpec::lenet5_lite(InputShape { c: 1, h: 8, w: 8 }, 3, 8);
        let built = Sequential::build(&spec, &mut StdRng::seed_from_u64(5));
        let rebuilt = Sequential::from_params(&spec, &built.params_flat());
        assert_eq!(rebuilt.params_flat(), built.params_flat());
        let x = Matrix::randn(4, 64, 0.0, 1.0, &mut StdRng::seed_from_u64(6));
        assert_eq!(rebuilt.forward(&x), built.forward(&x));
    }

    /// The loss-free count is the count `evaluate` reports, exactly.
    #[test]
    fn count_correct_is_the_numerator_of_evaluate_accuracy() {
        let mut rng = StdRng::seed_from_u64(12);
        let spec = ArchSpec::mlp("t", 4, &[8], 2);
        let model = Sequential::build(&spec, &mut rng);
        let x = Matrix::randn(37, 4, 0.0, 1.0, &mut rng);
        let y: Vec<usize> = (0..37).map(|i| i % 2).collect();
        let report = model.evaluate(&x, &y);
        let hits = model.count_correct(&x, &y);
        assert!(hits > 0 && hits < 37, "labels unrelated to the inputs");
        assert_eq!(
            (hits as f32 / 37.0).to_bits(),
            report.accuracy.to_bits(),
            "{hits} of 37"
        );
        assert_eq!(model.count_correct(&Matrix::zeros(0, 4), &[]), 0);
    }

    #[test]
    fn evaluate_empty_is_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let spec = ArchSpec::mlp("t", 3, &[4], 2);
        let model = Sequential::build(&spec, &mut rng);
        let report = model.evaluate(&Matrix::zeros(0, 3), &[]);
        assert_eq!(report.n, 0);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let spec = ArchSpec::mlp("t", 5, &[7], 3);
        let a = Sequential::build(&spec, &mut StdRng::seed_from_u64(9));
        let b = Sequential::build(&spec, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.params_flat(), b.params_flat());
    }
}
