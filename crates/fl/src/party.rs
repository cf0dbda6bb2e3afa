//! Parties (clients) of a federated job.

use serde::{Deserialize, Serialize};
use shiftex_data::Dataset;
use shiftex_tensor::Matrix;

/// Stable party identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PartyId(pub usize);

impl std::fmt::Display for PartyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "party#{}", self.0)
    }
}

/// A federated participant: private train/test data for the current window.
///
/// The aggregator never reads `train`/`test` directly — only the statistics
/// a party chooses to publish ([`Party::info`], embedding profiles) and its
/// model updates cross the trust boundary.
#[derive(Debug, Clone)]
pub struct Party {
    id: PartyId,
    train: Dataset,
    test: Dataset,
    prev_train: Option<Dataset>,
}

impl Party {
    /// Creates a party with its initial window data.
    pub fn new(id: PartyId, train: Dataset, test: Dataset) -> Self {
        Self {
            id,
            train,
            test,
            prev_train: None,
        }
    }

    /// Party identifier.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// Current-window training data.
    pub fn train(&self) -> &Dataset {
        &self.train
    }

    /// Current-window test data.
    pub fn test(&self) -> &Dataset {
        &self.test
    }

    /// The party's current-window test data, moved out of the party.
    pub fn into_test(self) -> Dataset {
        self.test
    }

    /// Training feature matrix.
    pub fn train_features(&self) -> &Matrix {
        self.train.features()
    }

    /// Training labels.
    pub fn train_labels(&self) -> &[usize] {
        self.train.labels()
    }

    /// Test feature matrix.
    pub fn test_features(&self) -> &Matrix {
        self.test.features()
    }

    /// Test labels.
    pub fn test_labels(&self) -> &[usize] {
        self.test.labels()
    }

    /// Previous window's training data (`D_{t-1}` in Algorithm 1), retained
    /// locally so the party can compute both windows' embeddings under its
    /// *current* model when testing for shift.
    pub fn prev_train(&self) -> Option<&Dataset> {
        self.prev_train.as_ref()
    }

    /// Replaces the window data (stream advanced to a new window); the old
    /// training set is retained as `prev_train`.
    pub fn advance_window(&mut self, train: Dataset, test: Dataset) {
        self.prev_train = Some(std::mem::replace(&mut self.train, train));
        self.test = test;
    }

    /// A hostile clone of this party whose *training* labels are flipped
    /// (`l ← C−1−l`) — the label-flip data-poisoning attack. Test data is
    /// untouched: evaluation always scores against the truth.
    pub fn label_flipped(&self) -> Party {
        let classes = self.train.num_classes();
        Party {
            id: self.id,
            train: self.train.map_labels(|l| classes - 1 - l),
            test: self.test.clone(),
            prev_train: self.prev_train.clone(),
        }
    }

    /// Publishable metadata: id, sample count, label histogram.
    pub fn info(&self) -> PartyInfo {
        PartyInfo {
            id: self.id,
            num_samples: self.train.len(),
            label_hist: self.train.label_histogram(),
            last_loss: None,
        }
    }
}

/// The metadata a selector may use — everything here is aggregate statistics
/// a party is willing to publish (no raw data).
#[derive(Debug, Clone, PartialEq)]
pub struct PartyInfo {
    /// Party identifier.
    pub id: PartyId,
    /// Training samples available this window.
    pub num_samples: usize,
    /// Normalised label histogram of the window's training data.
    pub label_hist: Vec<f32>,
    /// Most recent local training loss, if the party reported one
    /// (OORT-style utility signals).
    pub last_loss: Option<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use shiftex_data::{ImageShape, PrototypeGenerator};

    fn party(seed: u64) -> Party {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
        Party::new(
            PartyId(7),
            gen.generate_uniform(20, &mut rng),
            gen.generate_uniform(10, &mut rng),
        )
    }

    #[test]
    fn info_reflects_data() {
        let p = party(0);
        let info = p.info();
        assert_eq!(info.id, PartyId(7));
        assert_eq!(info.num_samples, 20);
        assert!((info.label_hist.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn advance_window_swaps_data() {
        let mut p = party(1);
        let mut rng = StdRng::seed_from_u64(2);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
        let new_train = gen.generate_uniform(5, &mut rng);
        let new_test = gen.generate_uniform(3, &mut rng);
        let old_len = p.train().len();
        p.advance_window(new_train, new_test);
        assert_eq!(p.train().len(), 5);
        assert_eq!(p.test().len(), 3);
        assert_eq!(p.prev_train().map(|d| d.len()), Some(old_len));
    }

    #[test]
    fn display_id() {
        assert_eq!(PartyId(3).to_string(), "party#3");
    }
}
