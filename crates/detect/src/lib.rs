//! Distribution-shift detectors for streaming federated learning.
//!
//! Implements the two detectors of the paper's Algorithm 1 plus the
//! threshold-calibration procedure of §5:
//!
//! * **Covariate shift** — Maximum Mean Discrepancy ([`mmd2_biased`],
//!   [`mmd2_unbiased`]) with an RBF kernel ([`RbfKernel`]), comparing
//!   penultimate-layer embedding samples between consecutive windows (Eq. 1).
//! * **Label shift** — Jensen–Shannon divergence ([`jsd`]) between
//!   normalised label histograms.
//! * **Thresholds** — `δ_cov` / `δ_label` derived from bootstrapped null
//!   distributions via p-value estimation ([`ThresholdCalibrator`]).
//!
//! # Example
//!
//! ```
//! use shiftex_detect::{RbfKernel, mmd2_biased};
//! use shiftex_tensor::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let p = Matrix::randn(64, 8, 0.0, 1.0, &mut rng);
//! let q = Matrix::randn(64, 8, 3.0, 1.0, &mut rng); // shifted mean
//! let kernel = RbfKernel::median_heuristic(&p, &q);
//! let same = mmd2_biased(&p, &p, &kernel);
//! let diff = mmd2_biased(&p, &q, &kernel);
//! assert!(diff > same);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod divergence;
mod kernel;
mod mmd;
mod summary;

pub use calibrate::{CalibratedThresholds, ThresholdCalibrator};
pub use divergence::{jsd, jsd_max, kl_divergence};
pub use kernel::RbfKernel;
pub use mmd::{mmd2_biased, mmd2_linear, mmd2_unbiased};
pub use summary::EmbeddingProfile;
