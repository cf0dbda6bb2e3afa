//! Dataset container shared by every crate in the workspace.

use rand::Rng;
use shiftex_tensor::{stats, Matrix};

/// Image volume description: channels × height × width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageShape {
    /// Channel count (1 = grayscale, 3 = RGB-like).
    pub c: usize,
    /// Height in pixels.
    pub h: usize,
    /// Width in pixels.
    pub w: usize,
}

impl ImageShape {
    /// Creates a shape.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Self { c, h, w }
    }

    /// Flat vector dimensionality `c·h·w`.
    pub fn dim(&self) -> usize {
        self.c * self.h * self.w
    }
}

/// A labelled dataset: features as a `(n, c·h·w)` matrix plus integer labels.
///
/// # Example
///
/// ```
/// use shiftex_data::{Dataset, ImageShape};
/// use shiftex_tensor::Matrix;
///
/// let ds = Dataset::new(Matrix::zeros(4, 4), vec![0, 1, 0, 1], 2,
///                       ImageShape::new(1, 2, 2));
/// assert_eq!(ds.len(), 4);
/// assert_eq!(ds.label_histogram(), vec![0.5, 0.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
    shape: ImageShape,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `features.rows() != labels.len()`, a label is out of range,
    /// or `features.cols() != shape.dim()`.
    pub fn new(
        features: Matrix,
        labels: Vec<usize>,
        num_classes: usize,
        shape: ImageShape,
    ) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature/label count mismatch"
        );
        assert_eq!(
            features.cols(),
            shape.dim(),
            "feature width does not match shape"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range for {num_classes} classes"
        );
        Self {
            features,
            labels,
            num_classes,
            shape,
        }
    }

    /// An empty dataset with the given class count and shape.
    pub fn empty(num_classes: usize, shape: ImageShape) -> Self {
        Self::new(
            Matrix::zeros(0, shape.dim()),
            Vec::new(),
            num_classes,
            shape,
        )
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature matrix `(n, c·h·w)`.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Mutable feature matrix (used by in-place corruption application).
    pub fn features_mut(&mut self) -> &mut Matrix {
        &mut self.features
    }

    /// Integer labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Image shape of each sample.
    pub fn shape(&self) -> ImageShape {
        self.shape
    }

    /// Normalised label histogram `ŷ[i] = count_i / n` (uniform when empty).
    pub fn label_histogram(&self) -> Vec<f32> {
        stats::label_histogram(self.labels.iter().copied(), self.num_classes)
    }

    /// Copies the samples at `indices` into a new dataset.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let features = self.features.select_rows(indices);
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset {
            features,
            labels,
            num_classes: self.num_classes,
            shape: self.shape,
        }
    }

    /// A copy with every label rewritten by `f` (features untouched).
    /// Used for label-poisoning adversaries; `f` must map into
    /// `0..num_classes`.
    ///
    /// # Panics
    ///
    /// Panics if `f` produces an out-of-range label.
    pub fn map_labels(&self, f: impl Fn(usize) -> usize) -> Dataset {
        Dataset::new(
            self.features.clone(),
            self.labels.iter().map(|&l| f(l)).collect(),
            self.num_classes,
            self.shape,
        )
    }

    /// Splits into `(train, test)` with `train_frac` of samples (shuffled).
    ///
    /// # Panics
    ///
    /// Panics if `train_frac` is outside `[0, 1]`.
    pub fn split(&self, train_frac: f32, rng: &mut impl Rng) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&train_frac),
            "train_frac must be in [0,1]"
        );
        let mut order: Vec<usize> = (0..self.len()).collect();
        shiftex_tensor::rngx::shuffle(rng, &mut order);
        let cut = (self.len() as f32 * train_frac).round() as usize;
        let (train_idx, test_idx) = order.split_at(cut.min(self.len()));
        (self.subset(train_idx), self.subset(test_idx))
    }

    /// Concatenates datasets (which must agree on class count and shape).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or metadata disagrees.
    pub fn concat(parts: &[&Dataset]) -> Dataset {
        assert!(!parts.is_empty(), "concat of empty list");
        let num_classes = parts[0].num_classes;
        let shape = parts[0].shape;
        assert!(
            parts
                .iter()
                .all(|d| d.num_classes == num_classes && d.shape == shape),
            "concat metadata mismatch"
        );
        let mats: Vec<&Matrix> = parts.iter().map(|d| &d.features).collect();
        let features = Matrix::vstack(&mats);
        let labels = parts
            .iter()
            .flat_map(|d| d.labels.iter().copied())
            .collect();
        Dataset {
            features,
            labels,
            num_classes,
            shape,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 3.0], &[4.0, 5.0], &[6.0, 7.0]]);
        Dataset::new(m, vec![0, 1, 1, 2], 3, ImageShape::new(1, 1, 2))
    }

    #[test]
    fn histogram_counts_labels() {
        let d = tiny();
        assert_eq!(d.label_histogram(), vec![0.25, 0.5, 0.25]);
    }

    #[test]
    fn subset_preserves_pairing() {
        let d = tiny();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.labels(), &[1, 0]);
        assert_eq!(s.features().row(0), &[4.0, 5.0]);
    }

    #[test]
    fn split_partitions_all_samples() {
        use rand::{rngs::StdRng, SeedableRng};
        let d = tiny();
        let (tr, te) = d.split(0.5, &mut StdRng::seed_from_u64(0));
        assert_eq!(tr.len() + te.len(), d.len());
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn concat_appends() {
        let d = tiny();
        let c = Dataset::concat(&[&d, &d]);
        assert_eq!(c.len(), 8);
        assert_eq!(c.labels()[4..], d.labels()[..]);
    }

    #[test]
    fn empty_histogram_is_uniform() {
        let d = Dataset::empty(4, ImageShape::new(1, 1, 1));
        assert_eq!(d.label_histogram(), vec![0.25; 4]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = Dataset::new(Matrix::zeros(1, 2), vec![5], 3, ImageShape::new(1, 1, 2));
    }
}
