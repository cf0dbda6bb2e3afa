//! Dataset registry: the five evaluation datasets of the paper, as synthetic
//! profiles with matching shift structure, party counts and windowing modes.

use rand::Rng;

use crate::corruption::Corruption;
use crate::dataset::ImageShape;
use crate::shift::{Regime, RegimeId};
use crate::transform::Transform;

/// The five evaluation datasets (§6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Functional Map of the World: satellite land use, natural shifts.
    Fmow,
    /// Tiny-ImageNet-C: grouped corruptions at random severities.
    TinyImagenetC,
    /// CIFAR-10-C: weather corruptions.
    Cifar10C,
    /// FEMNIST: handwritten characters, synthetic transform shifts.
    Femnist,
    /// Fashion-MNIST: clothing images, synthetic transform shifts.
    FashionMnist,
}

impl DatasetKind {
    /// All five datasets in paper order.
    pub fn all() -> [DatasetKind; 5] {
        [
            DatasetKind::Fmow,
            DatasetKind::TinyImagenetC,
            DatasetKind::Cifar10C,
            DatasetKind::Femnist,
            DatasetKind::FashionMnist,
        ]
    }

    /// Parses a dataset name (kebab or lower-case, as used by the CLI).
    pub fn parse(s: &str) -> Option<DatasetKind> {
        match s.to_ascii_lowercase().as_str() {
            "fmow" => Some(DatasetKind::Fmow),
            "tinyimagenetc" | "tiny-imagenet-c" | "tinyimagenet-c" => {
                Some(DatasetKind::TinyImagenetC)
            }
            "cifar10c" | "cifar-10-c" => Some(DatasetKind::Cifar10C),
            "femnist" => Some(DatasetKind::Femnist),
            "fashionmnist" | "fashion-mnist" => Some(DatasetKind::FashionMnist),
            _ => None,
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fmt_impl!();
}

macro_rules! fmt_impl {
    () => {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let s = match self {
                DatasetKind::Fmow => "FMoW",
                DatasetKind::TinyImagenetC => "TinyImagenet-C",
                DatasetKind::Cifar10C => "CIFAR-10-C",
                DatasetKind::Femnist => "FEMNIST",
                DatasetKind::FashionMnist => "FashionMNIST",
            };
            f.write_str(s)
        }
    };
}
use fmt_impl;

/// Simulation scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimScale {
    /// Minutes-long CI scale: few parties, tiny windows.
    Smoke,
    /// Default laptop scale.
    Small,
    /// The paper's protocol: 200 parties (50 for FMoW), long windows.
    Paper,
}

impl SimScale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<SimScale> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(SimScale::Smoke),
            "small" => Some(SimScale::Small),
            "paper" => Some(SimScale::Paper),
            _ => None,
        }
    }
}

/// Windowing mode per the paper's "Windowing Strategy" (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowingMode {
    /// Disjoint fixed-size windows (FMoW, Tiny-ImageNet-C).
    Tumbling,
    /// Overlapping windows (CIFAR-10-C, FEMNIST, Fashion-MNIST).
    Sliding,
}

/// Scenario parameters for one dataset at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Which dataset this profiles.
    pub kind: DatasetKind,
    /// Number of classes in the synthetic stand-in.
    pub classes: usize,
    /// Image shape of the synthetic stand-in.
    pub shape: ImageShape,
    /// Number of federated parties.
    pub num_parties: usize,
    /// Number of *evaluation* windows (W1..Wn; W0 is bootstrap).
    pub eval_windows: usize,
    /// Windowing mode.
    pub windowing: WindowingMode,
    /// Training samples per party per window.
    pub samples_per_party: usize,
    /// Held-out test samples per party per window.
    pub test_samples_per_party: usize,
    /// Dirichlet alpha for label shift (None = no label shift protocol).
    pub label_alpha: Option<f32>,
    /// Dirichlet alpha of each party's *static* non-IID label distribution
    /// ("we simulate 200 parties … to capture fine-grained heterogeneity in
    /// non-IID settings", §6). Applied at W0 and retained across windows.
    pub base_label_alpha: f32,
    /// Fraction of parties that receive a new distribution each window
    /// (the paper uses 50 %).
    pub shift_fraction: f32,
}

/// Returns the scenario profile for `kind` at `scale`.
///
/// Window counts and windowing modes follow the paper exactly; party and
/// sample counts shrink at sub-`Paper` scales (see `DESIGN.md` §3.5).
pub fn profile(kind: DatasetKind, scale: SimScale) -> DatasetProfile {
    let (num_parties, samples, test) = match (kind, scale) {
        (DatasetKind::Fmow, SimScale::Paper) => (50, 200, 60),
        (_, SimScale::Paper) => (200, 200, 60),
        (DatasetKind::Fmow, SimScale::Small) => (16, 40, 30),
        (_, SimScale::Small) => (24, 40, 30),
        (DatasetKind::Fmow, SimScale::Smoke) => (6, 30, 16),
        (_, SimScale::Smoke) => (8, 30, 16),
    };
    let shape = match (kind, scale) {
        (DatasetKind::Fmow, SimScale::Paper) => ImageShape::new(3, 12, 12),
        (DatasetKind::TinyImagenetC, SimScale::Paper) => ImageShape::new(3, 12, 12),
        (DatasetKind::Cifar10C, SimScale::Paper) => ImageShape::new(3, 8, 8),
        (DatasetKind::Fmow | DatasetKind::TinyImagenetC | DatasetKind::Cifar10C, _) => {
            ImageShape::new(3, 8, 8)
        }
        (DatasetKind::Femnist | DatasetKind::FashionMnist, _) => ImageShape::new(1, 8, 8),
    };
    let classes = match kind {
        DatasetKind::Fmow => 10,          // paper selects 10 FMoW labels
        DatasetKind::TinyImagenetC => 10, // stand-in for 200 (see DESIGN.md)
        DatasetKind::Cifar10C => 10,
        DatasetKind::Femnist => 10, // stand-in for 62 classes
        DatasetKind::FashionMnist => 10,
    };
    let (eval_windows, windowing) = match kind {
        DatasetKind::Fmow => (4, WindowingMode::Tumbling),
        DatasetKind::TinyImagenetC => (5, WindowingMode::Tumbling),
        DatasetKind::Cifar10C => (4, WindowingMode::Sliding),
        DatasetKind::Femnist => (5, WindowingMode::Sliding),
        DatasetKind::FashionMnist => (5, WindowingMode::Sliding),
    };
    let label_alpha = match kind {
        DatasetKind::Fmow => Some(1.0), // natural land-use prevalence drift
        DatasetKind::TinyImagenetC | DatasetKind::Cifar10C => None,
        DatasetKind::Femnist | DatasetKind::FashionMnist => Some(0.5),
    };
    DatasetProfile {
        kind,
        classes,
        shape,
        num_parties,
        eval_windows,
        windowing,
        samples_per_party: samples,
        test_samples_per_party: test,
        label_alpha,
        base_label_alpha: 0.6,
        shift_fraction: 0.5,
    }
}

impl DatasetProfile {
    /// Builds the pool of covariate regimes this dataset cycles through.
    ///
    /// Regime 0 is always "clear" (the W0 bootstrap distribution); windows
    /// introduce later regimes per the experiment schedule. Label
    /// distributions are attached by the schedule, not here.
    pub fn regime_pool(&self, rng: &mut impl Rng) -> Vec<Regime> {
        let mut pool = vec![Regime::clear()];
        match self.kind {
            DatasetKind::Fmow => {
                // Natural geographic/temporal variation: seasonal weather and
                // sensor conditions over satellite scenes.
                for (i, (c, s)) in [
                    (Corruption::Fog, 4),
                    (Corruption::Frost, 4),
                    (Corruption::Contrast, 4),
                    (Corruption::Rain, 3),
                    (Corruption::Snow, 3),
                ]
                .into_iter()
                .enumerate()
                {
                    pool.push(Regime::corrupted(c, s).with_id(RegimeId(i as u32 + 1)));
                }
            }
            DatasetKind::TinyImagenetC => {
                // One corruption per group at a random severity, twice over,
                // mirroring "group corruption types and randomly sample
                // severity levels across time windows".
                let mut id = 1u32;
                for round in 0..2 {
                    for group in Corruption::groups() {
                        let c = group[(rng.random_range(0..group.len()) + round) % group.len()];
                        let s = rng.random_range(2..=5) as u8;
                        pool.push(Regime::corrupted(c, s).with_id(RegimeId(id)));
                        id += 1;
                    }
                }
            }
            DatasetKind::Cifar10C => {
                // The paper's expert-distribution figure (7c) shows CIFAR-10-C
                // stabilising into a two-expert configuration: clear plus one
                // recurring weather regime that parties gradually migrate to.
                pool.push(Regime::corrupted(Corruption::Fog, 5).with_id(RegimeId(1)));
            }
            DatasetKind::Femnist => {
                // Rotation/scaling/colour-jitter chains per the paper's
                // synthetic-shift protocol. Pure geometry barely moves the
                // *marginal* statistics of smooth synthetic fields, so each
                // chain carries a regime-level brightness (the deterministic
                // component of ColorJitter) that makes the covariate shift
                // detectable — the role lighting plays in real handwriting
                // captures.
                let chains: Vec<Vec<Transform>> = vec![
                    vec![Transform::Rotation(90.0), Transform::Brightness(1.3)],
                    vec![Transform::Scale(1.8), Transform::Brightness(-1.1)],
                    vec![
                        Transform::FlipHorizontal,
                        Transform::Rotation(45.0),
                        Transform::Brightness(0.9),
                    ],
                    vec![
                        Transform::Rotation(-60.0),
                        Transform::Scale(0.6),
                        Transform::Brightness(-0.8),
                    ],
                    vec![Transform::Translate(3.0, -3.0), Transform::Brightness(1.6)],
                ];
                for (i, chain) in chains.into_iter().enumerate() {
                    pool.push(Regime::transformed(chain).with_id(RegimeId(i as u32 + 1)));
                }
            }
            DatasetKind::FashionMnist => {
                let chains: Vec<Vec<Transform>> = vec![
                    vec![
                        Transform::FlipHorizontal,
                        Transform::Rotation(60.0),
                        Transform::Brightness(1.2),
                    ],
                    vec![Transform::Scale(0.55), Transform::Brightness(-1.0)],
                    vec![Transform::Rotation(120.0), Transform::Brightness(0.8)],
                    vec![
                        Transform::FlipHorizontal,
                        Transform::Scale(1.7),
                        Transform::Brightness(-1.4),
                    ],
                ];
                for (i, chain) in chains.into_iter().enumerate() {
                    pool.push(Regime::transformed(chain).with_id(RegimeId(i as u32 + 1)));
                }
            }
        }
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_scale_matches_protocol() {
        let p = profile(DatasetKind::Fmow, SimScale::Paper);
        assert_eq!(p.num_parties, 50);
        assert_eq!(p.eval_windows, 4);
        assert_eq!(p.windowing, WindowingMode::Tumbling);
        let p = profile(DatasetKind::Cifar10C, SimScale::Paper);
        assert_eq!(p.num_parties, 200);
        assert_eq!(p.windowing, WindowingMode::Sliding);
        let p = profile(DatasetKind::Femnist, SimScale::Paper);
        assert_eq!(p.eval_windows, 5);
    }

    #[test]
    fn shift_fraction_is_half() {
        for kind in DatasetKind::all() {
            assert_eq!(profile(kind, SimScale::Small).shift_fraction, 0.5);
        }
    }

    #[test]
    fn regime_pool_starts_clear_with_unique_ids() {
        let mut rng = StdRng::seed_from_u64(0);
        for kind in DatasetKind::all() {
            let p = profile(kind, SimScale::Small);
            let pool = p.regime_pool(&mut rng);
            assert!(
                !pool[0].has_covariate_shift(),
                "{kind}: regime 0 must be clear"
            );
            assert!(
                pool.len() >= 2,
                "{kind}: pool needs at least one shifted regime"
            );
            let mut ids: Vec<u32> = pool.iter().map(|r| r.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), pool.len(), "{kind}: duplicate regime ids");
        }
    }

    #[test]
    fn parse_roundtrips() {
        assert_eq!(DatasetKind::parse("fmow"), Some(DatasetKind::Fmow));
        assert_eq!(
            DatasetKind::parse("CIFAR-10-C"),
            Some(DatasetKind::Cifar10C)
        );
        assert_eq!(DatasetKind::parse("nope"), None);
        assert_eq!(SimScale::parse("paper"), Some(SimScale::Paper));
    }

    #[test]
    fn smoke_scale_is_smaller_than_paper() {
        for kind in DatasetKind::all() {
            let smoke = profile(kind, SimScale::Smoke);
            let paper = profile(kind, SimScale::Paper);
            assert!(smoke.num_parties < paper.num_parties);
            assert!(smoke.samples_per_party < paper.samples_per_party);
        }
    }
}
