//! Prototype-based synthetic image generator.
//!
//! Each class is represented by a smooth random field (a coarse random grid
//! bilinearly upsampled to the target resolution). Samples are the prototype
//! plus optional per-sample style variation and pixel noise. Smoothness makes
//! spatial corruptions (fog, blur, streaks) behave like they do on natural
//! images, while class separation keeps the task learnable by small models.

use rand::Rng;
use shiftex_tensor::{rngx, Matrix};

use crate::dataset::{Dataset, ImageShape};
use crate::shift::Regime;

/// Synthetic data generator with one smooth prototype per class.
#[derive(Debug, Clone)]
pub struct PrototypeGenerator {
    shape: ImageShape,
    num_classes: usize,
    /// Per-class prototype fields, each of length `shape.dim()`.
    prototypes: Vec<Vec<f32>>,
    /// Std-dev of i.i.d. pixel noise added to every sample.
    pub noise_std: f32,
    /// Std-dev of the per-sample global style offset.
    pub style_std: f32,
}

impl PrototypeGenerator {
    /// Scale of class-discriminative signal relative to unit-scale noise
    /// fields; chosen so a small model reaches ~75–90 % on clean data (the
    /// operating point of the paper's Figure 1) rather than saturating.
    pub const CLASS_SCALE: f32 = 0.25;

    /// Creates a generator with freshly sampled class prototypes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0` or the shape is degenerate.
    pub fn new(shape: ImageShape, num_classes: usize, rng: &mut impl Rng) -> Self {
        assert!(num_classes > 0, "need at least one class");
        assert!(shape.dim() > 0, "degenerate image shape");
        let prototypes = (0..num_classes)
            .map(|_| {
                let mut field = smooth_field(shape, rng);
                for v in &mut field {
                    *v *= Self::CLASS_SCALE;
                }
                field
            })
            .collect();
        Self {
            shape,
            num_classes,
            prototypes,
            noise_std: 0.4,
            style_std: 0.25,
        }
    }

    /// Image shape of generated samples.
    pub fn shape(&self) -> ImageShape {
        self.shape
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Read-only access to a class prototype (tests, visualisation).
    pub fn prototype(&self, class: usize) -> &[f32] {
        &self.prototypes[class]
    }

    /// Draws one sample of `class` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or `out` has the wrong length.
    pub fn sample_into(&self, class: usize, out: &mut [f32], rng: &mut impl Rng) {
        assert!(class < self.num_classes, "class {class} out of range");
        assert_eq!(out.len(), self.shape.dim(), "output buffer length mismatch");
        let style = rngx::normal(rng, 0.0, self.style_std);
        rngx::fill_normal(rng, 0.0, self.noise_std, out);
        for (o, &p) in out.iter_mut().zip(self.prototypes[class].iter()) {
            *o += p + style;
        }
    }

    /// Generates `n` samples with classes drawn from `class_weights`
    /// (need not be normalised).
    ///
    /// # Panics
    ///
    /// Panics if `class_weights.len() != num_classes` or all weights are zero.
    pub fn generate(&self, n: usize, class_weights: &[f32], rng: &mut impl Rng) -> Dataset {
        assert_eq!(
            class_weights.len(),
            self.num_classes,
            "weights length mismatch"
        );
        let dim = self.shape.dim();
        let mut features = Matrix::zeros(n, dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = rngx::categorical(rng, class_weights);
            labels.push(class);
            self.sample_into(class, features.row_mut(i), rng);
        }
        Dataset::new(features, labels, self.num_classes, self.shape)
    }

    /// Generates `n` samples with uniform class weights.
    pub fn generate_uniform(&self, n: usize, rng: &mut impl Rng) -> Dataset {
        self.generate(n, &vec![1.0; self.num_classes], rng)
    }

    /// Generates `n` samples under a [`Regime`]: class weights come from the
    /// regime's label distribution (uniform if unset) and the regime's
    /// covariate corruption/transform is applied to every sample.
    pub fn generate_with_regime(&self, n: usize, regime: &Regime, rng: &mut impl Rng) -> Dataset {
        let weights = regime
            .label_weights(self.num_classes)
            .unwrap_or_else(|| vec![1.0; self.num_classes]);
        let mut ds = self.generate(n, &weights, rng);
        regime.apply_covariate(&mut ds, rng);
        ds
    }
}

/// Samples a smooth random field: a coarse `4×4` (per channel) grid of
/// `N(0,1)` values bilinearly upsampled to `(h, w)`.
fn smooth_field(shape: ImageShape, rng: &mut impl Rng) -> Vec<f32> {
    const COARSE: usize = 4;
    let mut field = vec![0.0f32; shape.dim()];
    for c in 0..shape.c {
        let grid: Vec<f32> = (0..COARSE * COARSE)
            .map(|_| rngx::normal(rng, 0.0, 1.0))
            .collect();
        for y in 0..shape.h {
            for x in 0..shape.w {
                let gy = y as f32 / shape.h.max(1) as f32 * (COARSE - 1) as f32;
                let gx = x as f32 / shape.w.max(1) as f32 * (COARSE - 1) as f32;
                let (y0, x0) = (gy.floor() as usize, gx.floor() as usize);
                let (y1, x1) = ((y0 + 1).min(COARSE - 1), (x0 + 1).min(COARSE - 1));
                let (fy, fx) = (gy - y0 as f32, gx - x0 as f32);
                let v = grid[y0 * COARSE + x0] * (1.0 - fy) * (1.0 - fx)
                    + grid[y0 * COARSE + x1] * (1.0 - fy) * fx
                    + grid[y1 * COARSE + x0] * fy * (1.0 - fx)
                    + grid[y1 * COARSE + x1] * fy * fx;
                field[c * shape.h * shape.w + y * shape.w + x] = v;
            }
        }
    }
    field
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shiftex_tensor::vector;

    #[test]
    fn generates_requested_count_and_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = PrototypeGenerator::new(ImageShape::new(3, 8, 8), 5, &mut rng);
        let ds = g.generate_uniform(32, &mut rng);
        assert_eq!(ds.len(), 32);
        assert_eq!(ds.features().cols(), 192);
        assert!(ds.labels().iter().all(|&l| l < 5));
    }

    #[test]
    fn class_weights_bias_labels() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
        let ds = g.generate(300, &[0.0, 1.0, 0.0], &mut rng);
        assert!(ds.labels().iter().all(|&l| l == 1));
    }

    #[test]
    fn samples_cluster_near_their_prototype() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 2, &mut rng);
        let mut buf = vec![0.0; 64];
        g.sample_into(0, &mut buf, &mut rng);
        let d_own = vector::l2_dist(&buf, g.prototype(0));
        let d_other = vector::l2_dist(&buf, g.prototype(1));
        // With smooth prototypes of unit scale and noise 0.25, a sample is
        // (with overwhelming probability) closer to its own prototype.
        assert!(d_own < d_other, "sample should be nearer its own prototype");
    }

    #[test]
    fn prototypes_differ_between_classes() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 2, &mut rng);
        assert!(vector::l2_dist(g.prototype(0), g.prototype(1)) > 0.5);
    }

    #[test]
    fn deterministic_for_equal_seed() {
        let g1 =
            PrototypeGenerator::new(ImageShape::new(1, 4, 4), 2, &mut StdRng::seed_from_u64(9));
        let g2 =
            PrototypeGenerator::new(ImageShape::new(1, 4, 4), 2, &mut StdRng::seed_from_u64(9));
        assert_eq!(g1.prototype(0), g2.prototype(0));
    }
}
