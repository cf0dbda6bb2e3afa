//! Shift schedules: which distribution regime each party experiences in each
//! window.
//!
//! Implements the paper's experimental protocol (§6): window 0 is the clean
//! bootstrap distribution for everyone; in each subsequent window a fraction
//! of parties (50 % in the paper) receives a new covariate regime drawn from
//! the dataset's pool while the rest retain their previous distribution.
//! When the dataset's protocol includes label shift, shifted parties also
//! receive a fresh Dirichlet label distribution.

use rand::Rng;
use shiftex_tensor::rngx;

use crate::registry::DatasetProfile;
use crate::shift::Regime;

/// A fully-materialised schedule: `regimes[window][party]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftSchedule {
    regimes: Vec<Vec<Regime>>,
    num_parties: usize,
}

impl ShiftSchedule {
    /// The regime party `party` experiences in `window` (0 = bootstrap).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn regime(&self, window: usize, party: usize) -> &Regime {
        &self.regimes[window][party]
    }

    /// Number of windows (including the bootstrap window 0).
    pub fn num_windows(&self) -> usize {
        self.regimes.len()
    }

    /// Number of parties.
    pub fn num_parties(&self) -> usize {
        self.num_parties
    }

    /// Parties whose regime *changed* between `window-1` and `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or out of range.
    pub fn shifted_parties(&self, window: usize) -> Vec<usize> {
        assert!(
            window > 0 && window < self.regimes.len(),
            "window out of range"
        );
        (0..self.num_parties)
            .filter(|&p| self.regimes[window][p] != self.regimes[window - 1][p])
            .collect()
    }
}

/// Builder for [`ShiftSchedule`].
#[derive(Debug, Clone)]
pub struct ScheduleBuilder {
    num_parties: usize,
    eval_windows: usize,
    pool: Vec<Regime>,
    shift_fraction: f32,
    label_alpha: Option<f32>,
    base_label_alpha: Option<f32>,
    classes: usize,
}

impl ScheduleBuilder {
    /// Starts a builder from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `num_parties == 0`, `pool` is empty, or
    /// `shift_fraction ∉ [0, 1]`.
    pub fn new(num_parties: usize, eval_windows: usize, pool: Vec<Regime>, classes: usize) -> Self {
        assert!(num_parties > 0, "need at least one party");
        assert!(!pool.is_empty(), "regime pool must be non-empty");
        Self {
            num_parties,
            eval_windows,
            pool,
            shift_fraction: 0.5,
            label_alpha: None,
            base_label_alpha: None,
            classes,
        }
    }

    /// Starts a builder from a dataset profile (pool drawn from the profile).
    pub fn from_profile(profile: &DatasetProfile, rng: &mut impl Rng) -> Self {
        let pool = profile.regime_pool(rng);
        let mut b = Self::new(
            profile.num_parties,
            profile.eval_windows,
            pool,
            profile.classes,
        );
        b.shift_fraction = profile.shift_fraction;
        b.label_alpha = profile.label_alpha;
        b.base_label_alpha = Some(profile.base_label_alpha);
        b
    }

    /// Sets the fraction of parties that shift each window.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn shift_fraction(mut self, frac: f32) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac),
            "shift fraction must be in [0,1]"
        );
        self.shift_fraction = frac;
        self
    }

    /// Enables Dirichlet label shift with the given alpha for shifted parties.
    pub fn label_alpha(mut self, alpha: Option<f32>) -> Self {
        self.label_alpha = alpha;
        self
    }

    /// Gives every party a static non-IID label distribution at W0, drawn
    /// from `Dirichlet(alpha)` and retained across windows (the federated
    /// heterogeneity baseline the paper's 200-party setup models).
    pub fn base_label_alpha(mut self, alpha: Option<f32>) -> Self {
        self.base_label_alpha = alpha;
        self
    }

    /// Materialises the schedule.
    pub fn build(self, rng: &mut impl Rng) -> ShiftSchedule {
        let windows = self.eval_windows + 1; // + bootstrap W0
        let mut regimes: Vec<Vec<Regime>> = Vec::with_capacity(windows);
        // W0: everyone on the clear pool head, with static non-IID label
        // distributions when configured.
        let w0: Vec<Regime> = (0..self.num_parties)
            .map(|_| {
                let mut r = self.pool[0].clone();
                if let Some(alpha) = self.base_label_alpha {
                    r = r.with_label_dist(rngx::dirichlet(rng, alpha, self.classes));
                }
                r
            })
            .collect();
        regimes.push(w0);

        for w in 1..windows {
            let prev = regimes[w - 1].clone();
            let mut row = prev.clone();
            // Which covariate regime does this window introduce?
            let variants = self.pool.len() - 1;
            let idx = if variants == 0 {
                0
            } else {
                1 + (w - 1) % variants
            };
            let incoming = self.pool[idx].clone();

            let num_shift = ((self.num_parties as f32) * self.shift_fraction).round() as usize;
            let shifted = rngx::sample_without_replacement(rng, self.num_parties, num_shift);
            for &p in &shifted {
                let mut regime = incoming.clone();
                if let Some(alpha) = self.label_alpha {
                    // Label-shift protocol: fresh skew for shifted parties.
                    regime = regime.with_label_dist(rngx::dirichlet(rng, alpha, self.classes));
                } else if let Some(dist) = prev[p].label_dist.clone() {
                    // Otherwise parties keep their static non-IID mixture.
                    regime = regime.with_label_dist(dist);
                }
                row[p] = regime;
            }
            regimes.push(row);
        }
        ShiftSchedule {
            regimes,
            num_parties: self.num_parties,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::{profile, Corruption, DatasetKind, RegimeId, SimScale};

    fn pool() -> Vec<Regime> {
        vec![
            Regime::clear(),
            Regime::corrupted(Corruption::Fog, 3).with_id(RegimeId(1)),
            Regime::corrupted(Corruption::Snow, 3).with_id(RegimeId(2)),
        ]
    }

    #[test]
    fn w0_is_all_clear() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = ScheduleBuilder::new(10, 3, pool(), 4).build(&mut rng);
        assert_eq!(s.num_windows(), 4);
        assert!((0..10).all(|p| !s.regime(0, p).has_covariate_shift()));
    }

    #[test]
    fn half_the_parties_shift_each_window() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = ScheduleBuilder::new(20, 2, pool(), 4)
            .shift_fraction(0.5)
            .build(&mut rng);
        let shifted = s.shifted_parties(1);
        assert_eq!(shifted.len(), 10);
    }

    #[test]
    fn zero_fraction_means_no_shift() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = ScheduleBuilder::new(10, 3, pool(), 4)
            .shift_fraction(0.0)
            .build(&mut rng);
        for w in 1..4 {
            assert!(s.shifted_parties(w).is_empty());
        }
    }

    #[test]
    fn label_alpha_attaches_label_dists_to_shifted() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = ScheduleBuilder::new(10, 1, pool(), 4)
            .label_alpha(Some(0.3))
            .build(&mut rng);
        for &p in &s.shifted_parties(1) {
            assert!(s.regime(1, p).label_dist.is_some());
        }
    }

    #[test]
    fn from_profile_matches_protocol() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = profile(DatasetKind::Cifar10C, SimScale::Smoke);
        let s = ScheduleBuilder::from_profile(&p, &mut rng).build(&mut rng);
        assert_eq!(s.num_windows(), p.eval_windows + 1);
        assert_eq!(s.num_parties(), p.num_parties);
        let shifted = s.shifted_parties(1);
        let expect = (p.num_parties as f32 * p.shift_fraction).round() as usize;
        assert_eq!(shifted.len(), expect);
    }
}
