//! # ShiftEx — shift-aware mixture-of-experts middleware for federated learning
//!
//! A from-scratch Rust reproduction of *"Shift Happens: Mixture of Experts
//! based Continual Adaptation in Federated Learning"* (MIDDLEWARE 2025).
//!
//! Streaming federated learning deployments face covariate and label shift:
//! party data distributions change between stream windows, and a single
//! global model degrades. ShiftEx detects both kinds of shift from privacy-
//! preserving aggregate statistics (MMD over penultimate-layer embeddings,
//! JSD over label histograms), clusters shifted parties by latent profile,
//! reuses specialised experts through a latent memory, spawns new experts
//! for unseen regimes, and consolidates redundant ones.
//!
//! This crate is a facade that re-exports the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `shiftex-core` | the ShiftEx framework (Algorithms 1–2) |
//! | [`fl`] | `shiftex-fl` | federated runtime: parties, rounds, FedAvg/FedProx |
//! | [`baselines`] | `shiftex-baselines` | FedAvg/FedProx/FLIPS/Fielding, FedDrift, OORT |
//! | [`detect`] | `shiftex-detect` | MMD / JSD detectors + threshold calibration |
//! | [`cluster`] | `shiftex-cluster` | k-means + Davies–Bouldin model selection |
//! | [`data`] | `shiftex-data` | synthetic shifted-stream datasets |
//! | [`nn`] | `shiftex-nn` | neural-network substrate with embeddings |
//! | [`tensor`] | `shiftex-tensor` | matrix math + seedable distributions |
//! | [`experiments`] | `shiftex-experiments` | the paper's evaluation harness |
//!
//! # Quickstart
//!
//! Every algorithm — ShiftEx and each baseline — implements
//! [`fl::FederatedAlgorithm`] and trains through the same
//! [`fl::run_algorithm_round`], configured by an [`fl::RoundCtx`] (codec,
//! selector, fold, transport; the defaults are the paper's clean
//! synchronous protocol). The [`fl::ScenarioEngine`] meters every byte;
//! read its totals with [`fl::ScenarioEngine::comm`]. ShiftEx has no other
//! runtime:
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use shiftex::core::{ShiftEx, ShiftExConfig};
//! use shiftex::data::{Corruption, ImageShape, PrototypeGenerator, Regime};
//! use shiftex::fl::{
//!     run_algorithm_round, CodecSpec, FederatedAlgorithm, Party, PartyId,
//!     PopulationStore, RoundCtx, ScenarioEngine, ScenarioSpec,
//! };
//! use shiftex::nn::ArchSpec;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 4, &mut rng);
//!
//! // A small federation on the clean distribution. `from_parties` keeps
//! // everyone resident; a custom `PartyProvider` makes the same rounds lazy.
//! let parties: Vec<Party> = (0..8)
//!     .map(|i| Party::new(PartyId(i),
//!                         gen.generate_uniform(40, &mut rng),
//!                         gen.generate_uniform(20, &mut rng)))
//!     .collect();
//! let mut population = PopulationStore::from_parties(parties);
//! let ids = population.party_ids();
//!
//! // Bootstrap: enrol everyone on expert 0, then three metered rounds.
//! let spec = ArchSpec::mlp("quickstart", 64, &[24, 12], 4);
//! let mut shiftex = ShiftEx::new(ShiftExConfig::default(), spec, &mut rng);
//! shiftex.init(&population.view(ids.clone()), &mut rng);
//! let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids);
//! let codec = CodecSpec::quant8(64);
//! for round in 1..=3 {
//!     let mut ctx = RoundCtx::new(&population, &mut engine).with_codec(&codec);
//!     let outcome = run_algorithm_round(&mut shiftex, &mut ctx, &mut rng);
//!     assert_eq!((outcome.round, outcome.folded), (round, 8));
//! }
//! assert!(engine.comm().up_bytes > 0);
//!
//! // Fog arrives for half the parties; the window boundary detects it.
//! let fog = Regime::corrupted(Corruption::Fog, 5);
//! for &id in &ids {
//!     let (train, test) = if id.0 < 4 {
//!         (gen.generate_with_regime(40, &fog, &mut rng),
//!          gen.generate_with_regime(20, &fog, &mut rng))
//!     } else {
//!         (gen.generate_uniform(40, &mut rng), gen.generate_uniform(20, &mut rng))
//!     };
//!     population.with_party_mut(id, |p| p.advance_window(train, test));
//! }
//! shiftex.begin_window(1, &population.view(ids.clone()), &mut rng);
//! let report = shiftex.last_report().expect("window ran");
//! assert!(report.cov_shifted.len() >= 2, "the fog cohort is detected");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use shiftex_baselines as baselines;
pub use shiftex_cluster as cluster;
pub use shiftex_core as core;
pub use shiftex_data as data;
pub use shiftex_detect as detect;
pub use shiftex_experiments as experiments;
pub use shiftex_fl as fl;
pub use shiftex_nn as nn;
pub use shiftex_tensor as tensor;
