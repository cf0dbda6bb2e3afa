//! Comparison baselines for the ShiftEx evaluation (§6 "Comparative
//! Techniques"): FedAvg, FedProx, FLIPS, Fielding and FedDrift, each
//! implementing the same
//! [`FederatedAlgorithm`](shiftex_fl::FederatedAlgorithm) interface as
//! ShiftEx, so the one generic scenario driver sweeps every technique over
//! identical churn/straggler/async/codec regimes. The four single-model
//! techniques are one type, [`FedAvg`], built by four constructors. OORT
//! participates as a pluggable *selection policy* ([`OortSelector`],
//! `--selector oort`) for the selector-cohorted FedAvg and FedProx.
//!
//! | Baseline | Handles | Blind to |
//! |----------|---------|----------|
//! | FedAvg ([`FedAvg::new`]) | the plain federated objective | any shift structure (single global model) |
//! | FedProx ([`FedAvg::fedprox`]) | non-IID drift via proximal regularisation | any shift structure (single global model) |
//! | [`OortSelector`] | system/statistical utility in selection | temporal shifts (utility assumed static) |
//! | FLIPS ([`FedAvg::flips`]) | label imbalance via one-time cluster-balanced cohorts | any shift (clusters never refit) |
//! | Fielding ([`FedAvg::fielding`]) | label-distribution changes via re-clustering | covariate shifts |
//! | [`FedDrift`] | drift via loss-pattern clustering into multiple models | explicit covariate/label shift signals |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fedavg;
mod feddrift;
mod oort;

pub use fedavg::FedAvg;
pub use feddrift::{FedDrift, FedDriftConfig};
pub use oort::{OortSelector, OortSelectorConfig};
