//! Stochastic gradient descent with momentum and weight decay.

/// SGD optimizer state.
///
/// Operates on flattened parameter vectors (see
/// [`crate::Sequential::params_flat`]); velocity state is allocated lazily on
/// the first step so a fresh `Sgd` can be created per local-training call.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)`; `0` disables momentum.
    pub momentum: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    /// Global-norm gradient clip; gradients with larger L2 norm are scaled
    /// down to this value. Keeps local training stable when covariate
    /// shifts inflate input magnitudes.
    pub clip_norm: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Default gradient clip (global L2 norm).
    pub const DEFAULT_CLIP: f32 = 5.0;

    /// Creates an optimizer with the default gradient clip.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, `momentum ∉ [0,1)` or `weight_decay < 0`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self {
            lr,
            momentum,
            weight_decay,
            clip_norm: Self::DEFAULT_CLIP,
            velocity: Vec::new(),
        }
    }

    /// Applies one update: clip `g` to `clip_norm`, then
    /// `v = m·v + g + wd·w; w -= lr·v`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "gradient length mismatch");
        let scale = self.begin_step(grads);
        self.apply(0, params, grads, scale);
    }

    /// First half of a step over parameters that live in several slices:
    /// sizes the velocity to the whole flat gradient and returns the factor
    /// that clips its global L2 norm to `clip_norm`.
    pub(crate) fn begin_step(&mut self, grads: &[f32]) -> f32 {
        if self.velocity.len() != grads.len() {
            self.velocity = vec![0.0; grads.len()];
        }
        let norm = grads
            .iter()
            .map(|g| (*g as f64) * (*g as f64))
            .sum::<f64>()
            .sqrt() as f32;
        if norm > self.clip_norm && norm > 0.0 {
            self.clip_norm / norm
        } else {
            1.0
        }
    }

    /// Second half: updates in place the parameter slice that sits at
    /// `offset` of the flat vector, given its gradient slice and the
    /// `scale` from [`Sgd::begin_step`].
    pub(crate) fn apply(&mut self, offset: usize, params: &mut [f32], grads: &[f32], scale: f32) {
        let velocity = &mut self.velocity[offset..offset + params.len()];
        for ((w, &g), v) in params.iter_mut().zip(grads.iter()).zip(velocity) {
            let g = g * scale + self.weight_decay * *w;
            *v = self.momentum * *v + g;
            *w -= self.lr * *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_descends_quadratic() {
        // Minimise f(w) = w² with gradient 2w.
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let mut w = [10.0f32];
        for _ in 0..100 {
            let g = [2.0 * w[0]];
            opt.step(&mut w, &g);
        }
        assert!(w[0].abs() < 1e-3, "w = {}", w[0]);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |momentum: f32| {
            let mut opt = Sgd::new(0.01, momentum, 0.0);
            let mut w = [10.0f32];
            for _ in 0..50 {
                let g = [2.0 * w[0]];
                opt.step(&mut w, &g);
            }
            w[0].abs()
        };
        assert!(run(0.9) < run(0.0), "momentum should converge faster here");
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        let mut w = [1.0f32];
        opt.step(&mut w, &[0.0]);
        assert!(w[0] < 1.0);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(0.0, 0.0, 0.0);
    }
}
