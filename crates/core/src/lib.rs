//! ShiftEx: shift-aware mixture-of-experts middleware for continual
//! federated learning — the primary contribution of *"Shift Happens:
//! Mixture of Experts based Continual Adaptation in Federated Learning"*
//! (MIDDLEWARE 2025).
//!
//! The framework detects covariate shift (MMD over penultimate-layer
//! embeddings) and label shift (JSD over label histograms) between
//! consecutive stream windows, clusters shifted parties by latent profile,
//! reuses existing experts through a latent memory, spawns new experts for
//! unseen regimes, trains each expert's cohort with FLIPS label-balanced
//! selection, and periodically consolidates near-duplicate experts.
//!
//! The top-level type is [`ShiftEx`]; each piece of the pipeline is exposed
//! as its own module so the benchmarks and ablations can exercise them in
//! isolation:
//!
//! * [`party`] — party-side shift statistics (paper Algorithm 1)
//! * [`memory`] — latent memory (EMA embedding signatures) for expert reuse
//! * [`registry`] — the expert pool
//! * [`assignment`] — facility-location expert assignment (Eq. 2): exact
//!   branch-and-bound and the modular greedy approximation
//! * [`consolidate`] — cosine-similarity expert merging
//! * [`aggregator`] — the window-level orchestration (paper Algorithm 2)
//! * [`overhead`] — §5.4 space/time accounting
//! * [`distill`] — expert compression via distillation (§9 future work)
//! * [`snapshot`] — registry serialisation for aggregator recovery
//!
//! # Example
//!
//! ShiftEx is driven through [`shiftex_fl::FederatedAlgorithm`] and the one
//! round driver, like every baseline; a runnable federation (bootstrap,
//! covariate shift, detection) is the facade crate's quickstart (`shiftex`,
//! "Quickstart") and `examples/quickstart.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod assignment;
mod config;
pub mod consolidate;
pub mod distill;
pub mod memory;
pub mod overhead;
pub mod party;
pub mod registry;
pub mod snapshot;

pub use aggregator::{ShiftEx, WindowReport};
pub use config::ShiftExConfig;
pub use distill::{distill_experts, DistillConfig, DistillReport};
pub use memory::LatentMemory;
pub use party::{compute_shift_stats, ShiftStats};
pub use registry::{Expert, ExpertId, ExpertRegistry};
pub use snapshot::{RegistrySnapshot, SnapshotError};
