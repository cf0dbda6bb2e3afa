//! Comparison baselines for the ShiftEx evaluation (§6 "Comparative
//! Techniques"): FedAvg, FedProx, FLIPS, Fielding and FedDrift, each
//! implementing the same
//! [`FederatedAlgorithm`](shiftex_fl::FederatedAlgorithm) interface as
//! ShiftEx, so the one generic scenario driver sweeps every technique over
//! identical churn/straggler/async/codec regimes. OORT participates as a
//! pluggable *selection policy* ([`OortSelector`], `--selector oort`)
//! composable with any single-model algorithm.
//!
//! | Baseline | Handles | Blind to |
//! |----------|---------|----------|
//! | [`FedAvg`] | the plain federated objective | any shift structure (single global model) |
//! | FedProx ([`FedAvg::fedprox`]) | non-IID drift via proximal regularisation | any shift structure (single global model) |
//! | [`OortSelector`] | system/statistical utility in selection | temporal shifts (utility assumed static) |
//! | FLIPS ([`Fielding::flips`]) | label imbalance via one-time cluster-balanced cohorts | any shift (clusters never refit) |
//! | [`Fielding`] | label-distribution changes via re-clustering | covariate shifts |
//! | [`FedDrift`] | drift via loss-pattern clustering into multiple models | explicit covariate/label shift signals |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fedavg;
mod feddrift;
mod fielding;
mod oort;

pub use fedavg::FedAvg;
pub use feddrift::{FedDrift, FedDriftConfig};
pub use fielding::Fielding;
pub use oort::{OortSelector, OortSelectorConfig};
