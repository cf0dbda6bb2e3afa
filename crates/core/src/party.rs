//! Party-side shift detection — the paper's **Algorithm 1**.
//!
//! Each window, a party embeds both its current dataset `D_t` and retained
//! previous dataset `D_{t-1}` through its current model's penultimate layer,
//! computes `Δcov = MMD(P_t(X), P_{t-1}(X))` and
//! `Δlabel = JSD(ŷ_t, ŷ_{t-1})`, and transmits only
//! `{P_t(X), ŷ_t, Δcov, Δlabel}` — never raw data.

use rand::Rng;
use serde::{Deserialize, Serialize};
use shiftex_detect::{jsd, EmbeddingProfile, RbfKernel};
use shiftex_fl::{Party, PartyId};
use shiftex_nn::Sequential;

/// The statistics one party transmits to the aggregator each window
/// (Algorithm 1 line 10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShiftStats {
    /// Reporting party.
    pub party: PartyId,
    /// Covariate profile `P_t(X)`: bounded sample of current-window
    /// embeddings.
    pub profile: EmbeddingProfile,
    /// Normalised label histogram `ŷ_t`.
    pub label_hist: Vec<f32>,
    /// `Δcov = MMD²(P_t, P_{t-1})` (0 when no previous window exists).
    pub mmd: f32,
    /// `Δlabel = JSD(ŷ_t, ŷ_{t-1})` (0 when no previous window exists).
    pub jsd: f32,
    /// Training samples this window (FedAvg weight, FLIPS input).
    pub num_samples: usize,
}

/// Runs Algorithm 1 for one party under the shared frozen encoder.
///
/// Both windows' data are embedded with the *same* model, so a change in
/// assigned expert between windows does not masquerade as covariate shift.
/// When `kernel` is provided (calibrated once from stable bootstrap
/// embeddings), it is used for the MMD so scores are comparable to the
/// calibrated threshold; otherwise the per-pair median heuristic applies.
/// A party whose current window has no training data reports nothing.
pub fn compute_shift_stats(
    party: &Party,
    model: &Sequential,
    profile_rows: usize,
    kernel: Option<&RbfKernel>,
    rng: &mut impl Rng,
) -> Option<ShiftStats> {
    if party.train().is_empty() {
        return None;
    }
    let emb_now = model.embed(party.train_features());
    let profile = EmbeddingProfile::from_embeddings(&emb_now, profile_rows, rng);
    let label_hist = party.train().label_histogram();

    let (mmd, jsd_v) = match party.prev_train() {
        Some(prev) if !prev.is_empty() => {
            let emb_prev = model.embed(prev.features());
            let prev_profile = EmbeddingProfile::from_embeddings(&emb_prev, profile_rows, rng);
            let prev_hist = prev.label_histogram();
            let mmd = match kernel {
                Some(k) => profile.mmd_to_with(&prev_profile, k),
                None => profile.mmd_to(&prev_profile),
            };
            (mmd, jsd(&label_hist, &prev_hist))
        }
        _ => (0.0, 0.0),
    };

    Some(ShiftStats {
        party: party.id(),
        profile,
        label_hist,
        mmd,
        jsd: jsd_v,
        num_samples: party.train().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shiftex_data::{Corruption, ImageShape, PrototypeGenerator, Regime};
    use shiftex_nn::ArchSpec;

    fn setup() -> (PrototypeGenerator, Sequential, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 4, &mut rng);
        let spec = ArchSpec::mlp("t", 64, &[16], 4);
        let model = Sequential::build(&spec, &mut rng);
        (gen, model, rng)
    }

    #[test]
    fn first_window_reports_zero_shift() {
        let (gen, model, mut rng) = setup();
        let party = Party::new(
            PartyId(0),
            gen.generate_uniform(40, &mut rng),
            gen.generate_uniform(10, &mut rng),
        );
        let stats =
            compute_shift_stats(&party, &model, 32, None, &mut rng).expect("party has data");
        assert_eq!(stats.mmd, 0.0);
        assert_eq!(stats.jsd, 0.0);
        assert_eq!(stats.num_samples, 40);
    }

    #[test]
    fn stable_data_has_low_scores_and_shifted_data_high() {
        let (gen, model, mut rng) = setup();
        // Stable party: same regime across windows.
        let mut stable = Party::new(
            PartyId(0),
            gen.generate_uniform(60, &mut rng),
            gen.generate_uniform(10, &mut rng),
        );
        stable.advance_window(
            gen.generate_uniform(60, &mut rng),
            gen.generate_uniform(10, &mut rng),
        );
        let s_stable =
            compute_shift_stats(&stable, &model, 48, None, &mut rng).expect("party has data");

        // Shifted party: fog corruption arrives in the second window.
        let mut shifted = Party::new(
            PartyId(1),
            gen.generate_uniform(60, &mut rng),
            gen.generate_uniform(10, &mut rng),
        );
        let foggy = gen.generate_with_regime(60, &Regime::corrupted(Corruption::Fog, 4), &mut rng);
        shifted.advance_window(foggy, gen.generate_uniform(10, &mut rng));
        let s_shifted =
            compute_shift_stats(&shifted, &model, 48, None, &mut rng).expect("party has data");

        assert!(
            s_shifted.mmd > s_stable.mmd * 3.0,
            "shifted mmd {} should dwarf stable mmd {}",
            s_shifted.mmd,
            s_stable.mmd
        );
    }

    #[test]
    fn label_shift_raises_jsd_not_necessarily_mmd() {
        let (gen, model, mut rng) = setup();
        let mut party = Party::new(
            PartyId(2),
            gen.generate(60, &[1.0, 1.0, 1.0, 1.0], &mut rng),
            gen.generate_uniform(10, &mut rng),
        );
        // New window: heavy skew to class 0, same covariates.
        party.advance_window(
            gen.generate(60, &[10.0, 0.3, 0.3, 0.3], &mut rng),
            gen.generate_uniform(10, &mut rng),
        );
        let stats =
            compute_shift_stats(&party, &model, 48, None, &mut rng).expect("party has data");
        assert!(stats.jsd > 0.1, "label shift jsd {}", stats.jsd);
    }

    #[test]
    fn profile_respects_row_cap() {
        let (gen, model, mut rng) = setup();
        let party = Party::new(
            PartyId(3),
            gen.generate_uniform(100, &mut rng),
            gen.generate_uniform(10, &mut rng),
        );
        let stats =
            compute_shift_stats(&party, &model, 16, None, &mut rng).expect("party has data");
        assert_eq!(stats.profile.len(), 16);
        assert_eq!(stats.profile.dim(), model.embed_dim());
    }
}
