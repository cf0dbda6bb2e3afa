//! Synthetic streaming-vision datasets with controllable covariate and label
//! shift.
//!
//! The paper evaluates on FMoW, Tiny-ImageNet-C, CIFAR-10-C, FEMNIST and
//! Fashion-MNIST. Those corpora are unavailable offline, so this crate
//! generates *prototype-based* image-like data whose shift structure mirrors
//! the paper's protocol (see `DESIGN.md` §3):
//!
//! * each class has a smooth random prototype field; samples are prototype +
//!   structured noise, so models can learn the classes and embeddings carry
//!   class/style information;
//! * **covariate shift** is a parametric corruption ([`Corruption`]) or
//!   geometric transform ([`Transform`]) applied to inputs at one of five
//!   severities — the construction of the `-C` benchmark family;
//! * **label shift** is Dirichlet re-sampling of per-party class proportions
//!   ([`Regime::with_label_dist`]), the standard federated non-IID knob;
//! * the **§6 regime schedule** ([`ScheduleBuilder`] → [`ShiftSchedule`])
//!   decides which [`Regime`] each party experiences in each window,
//!   including the paper's 50 % partial-population shift.
//!
//! # Example
//!
//! ```
//! use shiftex_data::{ImageShape, PrototypeGenerator, Corruption, Regime};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 10, &mut rng);
//! let clear = gen.generate_uniform(64, &mut rng);
//! let regime = Regime::corrupted(Corruption::Fog, 3);
//! let foggy = gen.generate_with_regime(64, &regime, &mut rng);
//! assert_eq!(clear.len(), foggy.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corruption;
mod dataset;
mod registry;
mod schedule;
mod shift;
mod synth;
mod transform;

pub use corruption::Corruption;
pub use dataset::{Dataset, ImageShape};
pub use registry::{profile, DatasetKind, DatasetProfile, SimScale, WindowingMode};
pub use schedule::{ScheduleBuilder, ShiftSchedule};
pub use shift::{Regime, RegimeId};
pub use synth::PrototypeGenerator;
pub use transform::Transform;
