//! Shared model-assignment helpers for algorithm implementations — ShiftEx
//! here, FedAvg/FedProx/FLIPS/Fielding/FedDrift in `shiftex-baselines`.
//!
//! The common *interface* every algorithm implements is
//! [`shiftex_fl::FederatedAlgorithm`]: one trait, one generic scenario
//! driver, so the experiment harness sweeps every technique over identical
//! churn/straggler/async/codec regimes. What lives in this module is the
//! evaluation machinery those implementations share: building a model from
//! flat parameters and scoring a population under a per-party parameter
//! assignment.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use shiftex_fl::{Party, PartyId, PartyInfo, PopulationView};
use shiftex_nn::{ArchSpec, Sequential};

/// Builds a model with the given flat parameters (helper shared by all
/// algorithm implementations).
pub fn build_model(spec: &ArchSpec, params: &[f32]) -> Sequential {
    Sequential::from_params(spec, params)
}

/// Sample-weighted population accuracy where `params_of` supplies each
/// party's assigned parameters.
pub fn evaluate_assigned<'a>(
    spec: &ArchSpec,
    parties: &[Party],
    params_of: impl FnMut(PartyId) -> &'a [f32],
) -> f32 {
    evaluate_assigned_members(spec, &SliceAccess::new(parties), params_of)
}

/// Like [`evaluate_assigned`] but over borrowed parties — scenario loops
/// evaluate a liveness-filtered view every round and must not pay a deep
/// clone of the population to do so.
pub fn evaluate_assigned_refs<'a>(
    spec: &ArchSpec,
    parties: &[&Party],
    params_of: impl FnMut(PartyId) -> &'a [f32],
) -> f32 {
    evaluate_assigned_members(spec, &SliceAccess::new(parties), params_of)
}

/// Like [`evaluate_assigned_refs`] but streamed through a
/// [`PopulationView`]: each party is materialized transiently in view
/// order and dropped after scoring, so assigned evaluation is
/// O(1)-resident at any population size. It is the same body as the slice
/// versions, so results are bit-identical.
pub fn evaluate_assigned_view<'a>(
    spec: &ArchSpec,
    parties: &PopulationView<'_>,
    params_of: impl FnMut(PartyId) -> &'a [f32],
) -> f32 {
    evaluate_assigned_members(spec, parties, params_of)
}

/// The one scoring loop behind the three public entry points: members are
/// visited one at a time in [`MemberAccess::member_ids`] order.
fn evaluate_assigned_members<'a, M: MemberAccess>(
    spec: &ArchSpec,
    members: &M,
    mut params_of: impl FnMut(PartyId) -> &'a [f32],
) -> f32 {
    let mut correct = 0.0f64;
    let mut total = 0usize;
    // One built model per distinct parameter slice (by pointer identity).
    let mut cache: Vec<(&[f32], Sequential)> = Vec::new();
    for id in members.member_ids() {
        members.with_member(id, |party| {
            if party.test().is_empty() {
                return;
            }
            let params = params_of(id);
            let slot = match cache
                .iter()
                .position(|(p, _)| std::ptr::eq(p.as_ptr(), params.as_ptr()))
            {
                Some(i) => i,
                None => {
                    cache.push((params, build_model(spec, params)));
                    cache.len() - 1
                }
            };
            let model = &cache[slot].1;
            let report = model.evaluate(party.test_features(), party.test_labels());
            correct += report.accuracy as f64 * report.n as f64;
            total += report.n;
        });
    }
    if total == 0 {
        0.0
    } else {
        (correct / total as f64) as f32
    }
}

/// How ShiftEx reaches enrolled members: by id, one at a time —
/// either a liveness-filtered [`PopulationView`] (parties materialize
/// lazily and are dropped after the closure) or a resident slice (the
/// legacy representation the public slice APIs keep).
pub(crate) trait MemberAccess {
    /// Member ids in iteration order.
    fn member_ids(&self) -> Vec<PartyId>;
    /// Whether `id` is an enrolled member.
    fn contains(&self, id: PartyId) -> bool;
    /// Borrows `id`'s party for the duration of `f`.
    fn with_member<R>(&self, id: PartyId, f: impl FnOnce(&Party) -> R) -> Option<R>;
    /// `id`'s publishable metadata.
    fn member_info(&self, id: PartyId) -> Option<PartyInfo>;
}

impl MemberAccess for PopulationView<'_> {
    fn member_ids(&self) -> Vec<PartyId> {
        self.ids().to_vec()
    }
    fn contains(&self, id: PartyId) -> bool {
        PopulationView::contains(self, id)
    }
    fn with_member<R>(&self, id: PartyId, f: impl FnOnce(&Party) -> R) -> Option<R> {
        self.with_party(id, f)
    }
    fn member_info(&self, id: PartyId) -> Option<PartyInfo> {
        self.info(id)
    }
}

/// Resident-slice access for the legacy `&[Party]` / `&[&Party]` APIs.
pub(crate) struct SliceAccess<'a, P: Borrow<Party>> {
    items: &'a [P],
    index: BTreeMap<PartyId, usize>,
}

impl<'a, P: Borrow<Party>> SliceAccess<'a, P> {
    pub(crate) fn new(items: &'a [P]) -> Self {
        let index = items
            .iter()
            .enumerate()
            .map(|(i, p)| (p.borrow().id(), i))
            .collect();
        Self { items, index }
    }
}

impl<P: Borrow<Party>> MemberAccess for SliceAccess<'_, P> {
    fn member_ids(&self) -> Vec<PartyId> {
        self.items.iter().map(|p| p.borrow().id()).collect()
    }
    fn contains(&self, id: PartyId) -> bool {
        self.index.contains_key(&id)
    }
    fn with_member<R>(&self, id: PartyId, f: impl FnOnce(&Party) -> R) -> Option<R> {
        self.index.get(&id).map(|&i| f(self.items[i].borrow()))
    }
    fn member_info(&self, id: PartyId) -> Option<PartyInfo> {
        self.with_member(id, |p| p.info())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shiftex_data::{ImageShape, PrototypeGenerator};

    #[test]
    fn evaluate_assigned_uses_per_party_models() {
        let mut rng = StdRng::seed_from_u64(0);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 2, &mut rng);
        let parties: Vec<Party> = (0..3)
            .map(|i| {
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(16, &mut rng),
                    gen.generate_uniform(16, &mut rng),
                )
            })
            .collect();
        let spec = ArchSpec::mlp("t", 16, &[6], 2);
        let good = {
            // Train a model on pooled data so it beats random.
            let pooled = shiftex_data::Dataset::concat(&[
                parties[0].train(),
                parties[1].train(),
                parties[2].train(),
            ]);
            let mut m = Sequential::build(&spec, &mut rng);
            let cfg = shiftex_nn::TrainConfig {
                epochs: 25,
                ..Default::default()
            };
            m.train(pooled.features(), pooled.labels(), &cfg, &mut rng);
            m.params_flat()
        };
        let bad = Sequential::build(&spec, &mut StdRng::seed_from_u64(99)).params_flat();

        let acc_good = evaluate_assigned(&spec, &parties, |_| &good);
        let acc_bad = evaluate_assigned(&spec, &parties, |_| &bad);
        assert!(acc_good > acc_bad, "trained {acc_good} vs fresh {acc_bad}");

        // Mixed assignment lands between the two pure assignments.
        let acc_mixed =
            evaluate_assigned(&spec, &parties, |id| if id.0 == 0 { &bad } else { &good });
        assert!(acc_mixed <= acc_good + 1e-6 && acc_mixed >= acc_bad - 1e-6);
    }

    #[test]
    fn build_model_roundtrips_params() {
        let spec = ArchSpec::mlp("t", 4, &[3], 2);
        let mut rng = StdRng::seed_from_u64(1);
        let params = Sequential::build(&spec, &mut rng).params_flat();
        let model = build_model(&spec, &params);
        assert_eq!(model.params_flat(), params);
    }
}
