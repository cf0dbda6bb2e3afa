//! From-scratch neural-network library for the ShiftEx reproduction.
//!
//! The paper trains LeNet-5 / ResNet-18 / ResNet-50 / DenseNet-121 and
//! extracts **penultimate-layer embeddings** for covariate-shift detection.
//! This crate provides the same *interface* with compact architectures that
//! train on a CPU in seconds (see `DESIGN.md` §3 for the substitution
//! rationale): dense and convolutional layers, ReLU/Tanh activations, max
//! pooling, softmax cross-entropy, SGD with momentum and weight decay, an
//! optional FedProx proximal term, flattened-parameter access for federated
//! averaging, and embedding extraction from the pre-logit layer.
//!
//! # Example
//!
//! ```
//! use shiftex_nn::{ArchSpec, Sequential, TrainConfig};
//! use shiftex_tensor::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let spec = ArchSpec::mlp("demo", 4, &[8], 3);
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = Sequential::build(&spec, &mut rng);
//! let x = Matrix::randn(16, 4, 0.0, 1.0, &mut rng);
//! let y: Vec<usize> = (0..16).map(|i| i % 3).collect();
//! let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
//! let report = model.train(&x, &y, &cfg, &mut rng);
//! assert!(report.final_loss.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod average;
mod conv;
mod layer;
mod loss;
mod model;
pub mod naive;
mod optim;
mod trainer;

pub use arch::{ArchName, ArchSpec, InputShape, LayerSpec};
pub use average::{cosine_params, param_l2_distance, weighted_merge};
pub use conv::ConvShape;
pub use layer::{Layer, LayerCache};
pub use loss::softmax_cross_entropy;
pub use model::{EvalReport, Sequential};
pub use optim::Sgd;
pub use trainer::{train_local_params, LocalFitReport, TrainConfig};
