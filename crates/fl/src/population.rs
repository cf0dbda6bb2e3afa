//! Population store: the runtime's one handle on the parties, materialized
//! O(cohort).
//!
//! Every round of a federation touches a *cohort* of a handful of parties,
//! so the runtime never holds a `&[Party]`. A [`PopulationStore`] fronts a
//! [`PartyProvider`] and hands out a concrete [`Party`] only when a
//! selector samples it into a cohort; the cohort `Vec` is dropped when the
//! round ends. What the store itself keeps resident is O(cohort ∪ pinned),
//! so over a provider that rebuilds parties on demand a 100k-party
//! federation costs the same per round as a 100-party one.
//!
//! Two kinds of provider sit behind the store:
//!
//! * an **owned** provider ([`PopulationStore::from_parties`]) wraps a
//!   `Vec<Party>` the caller built by hand — tests and examples use it;
//!   the store owns the `Vec` and absorbs mutations in place;
//! * **seeded** providers implement [`PartyProvider`] over a recipe and a
//!   seed and rebuild `(party, window)` deterministically; rebuilding the
//!   same pair twice must be bit-identical (the conformance suite enforces
//!   this). Whether such a provider also keeps its parties resident is its
//!   own memory/speed choice — the store cannot tell.
//!
//! # Example
//!
//! ```
//! use shiftex_fl::{Party, PartyId, PopulationStore};
//! use shiftex_data::{ImageShape, PrototypeGenerator};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
//! let parties: Vec<Party> = (0..4)
//!     .map(|i| {
//!         let train = gen.generate_uniform(8, &mut rng);
//!         let test = gen.generate_uniform(4, &mut rng);
//!         Party::new(PartyId(i), train, test)
//!     })
//!     .collect();
//! let store = PopulationStore::from_parties(parties);
//! assert_eq!(store.len(), 4);
//!
//! // A view restricts the store to the round's live members; cohorts are
//! // materialized through it and dropped when the round's loop ends.
//! let view = store.view(vec![PartyId(1), PartyId(3)]);
//! assert_eq!(view.len(), 2);
//! let cohort = view.parties(&[PartyId(3)]);
//! assert_eq!(cohort.len(), 1);
//! assert_eq!(cohort[0].id(), PartyId(3));
//! // PartyId(0) is alive in the store but filtered out of this view.
//! assert!(view.party(PartyId(0)).is_none());
//! assert!(store.with_party(PartyId(0), |p| p.train().len()).is_some());
//! ```

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

use crate::party::{Party, PartyId, PartyInfo};

/// Source of parties for a [`PopulationStore`].
///
/// Implementations rebuild a party's data for a given window on demand.
/// The contract a provider must honour:
///
/// * [`party_ids`](Self::party_ids) is the fixed population, in iteration
///   order, stable for the provider's lifetime (churn is modelled by the
///   scenario engine's liveness schedule, not by the provider);
/// * [`with_party`](Self::with_party) invokes the callback **exactly once**
///   for a known id and **never** for an unknown one;
/// * rebuilding the same `(id, window)` twice yields bit-identical data —
///   the store evicts cohort parties after every round and relies on
///   re-instantiation determinism.
///
/// ```
/// use shiftex_fl::{Party, PartyId, PartyProvider, PopulationStore};
/// use shiftex_data::{ImageShape, PrototypeGenerator};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// /// Rebuilds any party from a per-(id, window) seed — O(1) resident.
/// #[derive(Debug)]
/// struct Seeded {
///     n: usize,
/// }
///
/// impl Seeded {
///     fn build(&self, id: PartyId, window: usize) -> Party {
///         let seed = (id.0 as u64) << 20 | window as u64;
///         let mut rng = StdRng::seed_from_u64(seed);
///         let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
///         let train = gen.generate_uniform(8, &mut rng);
///         let test = gen.generate_uniform(4, &mut rng);
///         Party::new(id, train, test)
///     }
/// }
///
/// impl PartyProvider for Seeded {
///     fn party_ids(&self) -> Vec<PartyId> {
///         (0..self.n).map(PartyId).collect()
///     }
///     fn with_party(&self, id: PartyId, window: usize, f: &mut dyn FnMut(&Party)) {
///         if id.0 < self.n {
///             f(&self.build(id, window));
///         }
///     }
/// }
///
/// let store = PopulationStore::new(Box::new(Seeded { n: 10_000 }));
/// let a = store.party(PartyId(4096)).unwrap();
/// let b = store.party(PartyId(4096)).unwrap();
/// assert_eq!(a.train_labels(), b.train_labels()); // re-instantiation is stable
/// assert_eq!(store.stats().pinned, 0); // nothing stays resident
/// ```
pub trait PartyProvider: std::fmt::Debug {
    /// The full population, in canonical iteration order.
    fn party_ids(&self) -> Vec<PartyId>;

    /// Materializes `id`'s party at `window` and hands it to `f`.
    ///
    /// Must call `f` exactly once when `id` is known and never otherwise.
    fn with_party(&self, id: PartyId, window: usize, f: &mut dyn FnMut(&Party));

    /// Mutates `id`'s party in place, returning `true` if this provider
    /// owns mutable storage for it. Lazy providers return `false` (the
    /// default): the store then materializes, mutates, and pins the party.
    fn with_party_mut(&mut self, _id: PartyId, _f: &mut dyn FnMut(&mut Party)) -> bool {
        false
    }

    /// Notifies the provider that the stream advanced to `window`; lazy
    /// providers typically need no bookkeeping (the window is a rebuild
    /// input), so the default is a no-op.
    fn advance_window(&mut self, _window: usize) {}
}

/// Provider over a caller-built `Vec<Party>`: every party resident,
/// mutated in place, identical at every window.
#[derive(Debug)]
struct OwnedProvider {
    parties: Vec<Party>,
    index: BTreeMap<PartyId, usize>,
}

impl OwnedProvider {
    fn new(parties: Vec<Party>) -> Self {
        let index = parties
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id(), i))
            .collect();
        Self { parties, index }
    }
}

impl PartyProvider for OwnedProvider {
    fn party_ids(&self) -> Vec<PartyId> {
        self.parties.iter().map(|p| p.id()).collect()
    }

    fn with_party(&self, id: PartyId, _window: usize, f: &mut dyn FnMut(&Party)) {
        if let Some(&i) = self.index.get(&id) {
            f(&self.parties[i]);
        }
    }

    fn with_party_mut(&mut self, id: PartyId, f: &mut dyn FnMut(&mut Party)) -> bool {
        match self.index.get(&id) {
            Some(&i) => {
                f(&mut self.parties[i]);
                true
            }
            None => false,
        }
    }
}

/// Residency counters for the memory-envelope tests and the `scenarios`
/// bin's scale report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PopulationStats {
    /// Total parties the provider can produce.
    pub population: usize,
    /// Parties currently pinned resident in the store (mutated copies a
    /// lazy provider could not absorb).
    pub pinned: usize,
    /// Largest cohort materialized through the store at once.
    pub peak_cohort: usize,
    /// Transient party materializations since construction.
    pub materializations: u64,
    /// Current stream window.
    pub window: usize,
}

/// Arena of parties keyed by [`PartyId`], backed by a [`PartyProvider`].
///
/// The store is the runtime's only population handle: the scenario driver
/// asks it for the id universe, builds liveness-filtered [`PopulationView`]s
/// for algorithms, and materializes concrete cohorts just-in-time. See the
/// [module docs](self) for a runnable example.
#[derive(Debug)]
pub struct PopulationStore {
    provider: Box<dyn PartyProvider>,
    order: Vec<PartyId>,
    members: BTreeSet<PartyId>,
    /// Parties holding state the provider cannot reproduce (mutated under a
    /// lazy provider); shadow the provider until dropped by `set_window`.
    pinned: BTreeMap<PartyId, Party>,
    window: usize,
    infos: RefCell<BTreeMap<PartyId, PartyInfo>>,
    materialized: Cell<u64>,
    peak_cohort: Cell<usize>,
}

impl PopulationStore {
    /// Wraps a provider; the population and its order come from
    /// [`PartyProvider::party_ids`].
    pub fn new(provider: Box<dyn PartyProvider>) -> Self {
        let order = provider.party_ids();
        let members = order.iter().copied().collect();
        Self {
            provider,
            order,
            members,
            pinned: BTreeMap::new(),
            window: 0,
            infos: RefCell::new(BTreeMap::new()),
            materialized: Cell::new(0),
            peak_cohort: Cell::new(0),
        }
    }

    /// Wraps a caller-built population: the parties stay resident exactly
    /// as given, whatever the window.
    pub fn from_parties(parties: Vec<Party>) -> Self {
        Self::new(Box::new(OwnedProvider::new(parties)))
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The full population in canonical order.
    pub fn party_ids(&self) -> Vec<PartyId> {
        self.order.clone()
    }

    /// Whether `id` belongs to the population.
    pub fn contains(&self, id: PartyId) -> bool {
        self.members.contains(&id)
    }

    /// Current stream window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Moves the stream to `window`: the provider is notified, cached infos
    /// and pinned copies are dropped (party state is re-derived from
    /// `(id, window)`).
    pub fn set_window(&mut self, window: usize) {
        self.window = window;
        self.provider.advance_window(window);
        self.pinned.clear();
        self.infos.borrow_mut().clear();
    }

    /// Borrows `id`'s party (materializing it if the backing is lazy) and
    /// applies `f`; `None` if `id` is not in the population.
    pub fn with_party<R>(&self, id: PartyId, f: impl FnOnce(&Party) -> R) -> Option<R> {
        if let Some(p) = self.pinned.get(&id) {
            return Some(f(p));
        }
        if !self.contains(id) {
            return None;
        }
        self.materialized.set(self.materialized.get() + 1);
        let mut f = Some(f);
        let mut out = None;
        self.provider.with_party(id, self.window, &mut |p: &Party| {
            if let Some(f) = f.take() {
                out = Some(f(p));
            }
        });
        out
    }

    /// An owned copy of `id`'s party, or `None` if unknown.
    pub fn party(&self, id: PartyId) -> Option<Party> {
        self.with_party(id, |p| p.clone())
    }

    /// Materializes a concrete cohort in the given id order, skipping
    /// unknown ids. The returned `Vec` is the round's working set; dropping
    /// it is the eviction that keeps residency O(cohort).
    pub fn cohort(&self, ids: &[PartyId]) -> Vec<Party> {
        let cohort: Vec<Party> = ids.iter().filter_map(|&id| self.party(id)).collect();
        if cohort.len() > self.peak_cohort.get() {
            self.peak_cohort.set(cohort.len());
        }
        cohort
    }

    /// `id`'s publishable metadata ([`Party::info`]), cached per window so
    /// selectors can score the whole population without materializing it
    /// more than once.
    pub fn info(&self, id: PartyId) -> Option<PartyInfo> {
        if let Some(info) = self.infos.borrow().get(&id) {
            return Some(info.clone());
        }
        let info = self.with_party(id, |p| p.info())?;
        self.infos.borrow_mut().insert(id, info.clone());
        Some(info)
    }

    /// Mutates `id`'s party in place, pinning a materialized copy when the
    /// provider is lazy; `None` if `id` is not in the population.
    pub fn with_party_mut<R>(&mut self, id: PartyId, f: impl FnOnce(&mut Party) -> R) -> Option<R> {
        if !self.contains(id) {
            return None;
        }
        self.infos.borrow_mut().remove(&id);
        if let Some(p) = self.pinned.get_mut(&id) {
            return Some(f(p));
        }
        let mut f = Some(f);
        let mut out = None;
        let absorbed = self.provider.with_party_mut(id, &mut |p: &mut Party| {
            if let Some(f) = f.take() {
                out = Some(f(p));
            }
        });
        if absorbed {
            return out;
        }
        let mut party = self.build(id)?;
        let f = f.take()?;
        let out = f(&mut party);
        self.pinned.insert(id, party);
        Some(out)
    }

    /// Residency counters.
    pub fn stats(&self) -> PopulationStats {
        PopulationStats {
            population: self.order.len(),
            pinned: self.pinned.len(),
            peak_cohort: self.peak_cohort.get(),
            materializations: self.materialized.get(),
            window: self.window,
        }
    }

    /// A liveness-filtered view for one round: `live` in engine order,
    /// silently dropping ids outside the population.
    pub fn view(&self, live: Vec<PartyId>) -> PopulationView<'_> {
        let ids: Vec<PartyId> = live.into_iter().filter(|&id| self.contains(id)).collect();
        let set = ids.iter().copied().collect();
        PopulationView {
            store: self,
            ids,
            set,
        }
    }

    /// Builds a fresh copy straight from the provider (bypassing pins).
    fn build(&self, id: PartyId) -> Option<Party> {
        if !self.contains(id) {
            return None;
        }
        self.materialized.set(self.materialized.get() + 1);
        let mut out = None;
        self.provider.with_party(id, self.window, &mut |p: &Party| {
            if out.is_none() {
                out = Some(p.clone());
            }
        });
        out
    }
}

/// A liveness-filtered, ordered window onto a [`PopulationStore`] — what a
/// [`FederatedAlgorithm`](crate::algo::FederatedAlgorithm) sees of the
/// population during one round. Algorithms stream parties through it one
/// at a time instead of borrowing a `&[&Party]` slice, which is what lets
/// the driver keep only the sampled cohort resident.
#[derive(Debug)]
pub struct PopulationView<'a> {
    store: &'a PopulationStore,
    ids: Vec<PartyId>,
    set: BTreeSet<PartyId>,
}

impl<'a> PopulationView<'a> {
    /// Member ids in view (liveness) order.
    pub fn ids(&self) -> &[PartyId] {
        &self.ids
    }

    /// Number of members in view.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `id` is in view.
    pub fn contains(&self, id: PartyId) -> bool {
        self.set.contains(&id)
    }

    /// The backing store (full population, not just this view).
    pub fn store(&self) -> &'a PopulationStore {
        self.store
    }

    /// Borrows `id`'s party if it is in view.
    pub fn with_party<R>(&self, id: PartyId, f: impl FnOnce(&Party) -> R) -> Option<R> {
        if !self.contains(id) {
            return None;
        }
        self.store.with_party(id, f)
    }

    /// An owned copy of `id`'s party if it is in view.
    pub fn party(&self, id: PartyId) -> Option<Party> {
        if !self.contains(id) {
            return None;
        }
        self.store.party(id)
    }

    /// Materializes the subset of `ids` that is in view, preserving the
    /// given order — the cohort filter the round driver applies between
    /// selection and local training.
    pub fn parties(&self, ids: &[PartyId]) -> Vec<Party> {
        let in_view: Vec<PartyId> = ids
            .iter()
            .copied()
            .filter(|&id| self.contains(id))
            .collect();
        self.store.cohort(&in_view)
    }

    /// `id`'s publishable metadata if it is in view.
    pub fn info(&self, id: PartyId) -> Option<PartyInfo> {
        if !self.contains(id) {
            return None;
        }
        self.store.info(id)
    }

    /// Metadata for every member, in view order — the selector pool.
    pub fn infos(&self) -> Vec<PartyInfo> {
        self.ids
            .iter()
            .filter_map(|&id| self.store.info(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use shiftex_data::{ImageShape, PrototypeGenerator};

    fn make_parties(n: usize) -> Vec<Party> {
        let mut rng = StdRng::seed_from_u64(5);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
        (0..n)
            .map(|i| {
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(12, &mut rng),
                    gen.generate_uniform(6, &mut rng),
                )
            })
            .collect()
    }

    /// A provider that rebuilds parties from per-(id, window) seeds.
    #[derive(Debug)]
    struct SeededProvider {
        n: usize,
    }

    impl SeededProvider {
        fn build(&self, id: PartyId, window: usize) -> Party {
            let mut rng = StdRng::seed_from_u64(((id.0 as u64) << 16) ^ window as u64);
            let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
            Party::new(
                id,
                gen.generate_uniform(12, &mut rng),
                gen.generate_uniform(6, &mut rng),
            )
        }
    }

    impl PartyProvider for SeededProvider {
        fn party_ids(&self) -> Vec<PartyId> {
            (0..self.n).map(PartyId).collect()
        }

        fn with_party(&self, id: PartyId, window: usize, f: &mut dyn FnMut(&Party)) {
            if id.0 < self.n {
                f(&self.build(id, window));
            }
        }
    }

    #[test]
    fn owned_store_round_trips_parties() {
        let parties = make_parties(4);
        let expected: Vec<Vec<usize>> = parties.iter().map(|p| p.train_labels().to_vec()).collect();
        let store = PopulationStore::from_parties(parties);
        assert_eq!(store.len(), 4);
        assert_eq!(store.party_ids(), (0..4).map(PartyId).collect::<Vec<_>>());
        for (i, want) in expected.iter().enumerate() {
            let labels = store
                .with_party(PartyId(i), |p| p.train_labels().to_vec())
                .expect("known id");
            assert_eq!(&labels, want);
        }
        assert!(store.with_party(PartyId(99), |_| ()).is_none());
    }

    #[test]
    fn lazy_rebuilds_are_bit_identical_and_unpinned() {
        let store = PopulationStore::new(Box::new(SeededProvider { n: 50 }));
        let a = store.party(PartyId(31)).expect("known id");
        let b = store.party(PartyId(31)).expect("known id");
        assert_eq!(a.train_labels(), b.train_labels());
        assert_eq!(
            a.train_features().as_slice(),
            b.train_features().as_slice(),
            "re-instantiation must be bit-identical"
        );
        assert_eq!(store.stats().pinned, 0);
        assert!(store.stats().materializations >= 2);
    }

    #[test]
    fn view_filters_membership_and_preserves_order() {
        let store = PopulationStore::from_parties(make_parties(6));
        let view = store.view(vec![PartyId(4), PartyId(1), PartyId(99)]);
        assert_eq!(view.ids(), &[PartyId(4), PartyId(1)]);
        assert!(view.contains(PartyId(1)));
        assert!(!view.contains(PartyId(0)));
        assert!(view.party(PartyId(0)).is_none(), "out-of-view id is hidden");
        let cohort = view.parties(&[PartyId(1), PartyId(0), PartyId(4)]);
        assert_eq!(
            cohort.iter().map(|p| p.id()).collect::<Vec<_>>(),
            vec![PartyId(1), PartyId(4)]
        );
        let infos = view.infos();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].id, PartyId(4));
    }

    #[test]
    fn cohort_tracks_peak_and_drops_unknown() {
        let store = PopulationStore::new(Box::new(SeededProvider { n: 1000 }));
        let cohort = store.cohort(&[PartyId(7), PartyId(2000), PartyId(999)]);
        assert_eq!(cohort.len(), 2);
        assert_eq!(store.stats().peak_cohort, 2);
        let _ = store.cohort(&[PartyId(1)]);
        assert_eq!(store.stats().peak_cohort, 2, "peak is a high-water mark");
    }

    #[test]
    fn mutating_under_lazy_provider_pins_until_window_advance() {
        let mut store = PopulationStore::new(Box::new(SeededProvider { n: 10 }));
        let before = store
            .with_party(PartyId(3), |p| p.train().len())
            .expect("id");
        let mut rng = StdRng::seed_from_u64(9);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
        let (train, test) = (
            gen.generate_uniform(3, &mut rng),
            gen.generate_uniform(2, &mut rng),
        );
        store.with_party_mut(PartyId(3), |p| p.advance_window(train, test));
        assert_eq!(store.stats().pinned, 1);
        let after = store
            .with_party(PartyId(3), |p| p.train().len())
            .expect("id");
        assert_ne!(before, after, "reads must see the pinned mutation");
        store.set_window(1);
        assert_eq!(store.stats().pinned, 0, "window advance drops pins");
    }

    #[test]
    fn infos_are_cached_per_window() {
        let store = PopulationStore::new(Box::new(SeededProvider { n: 10 }));
        let _ = store.info(PartyId(2));
        let built = store.stats().materializations;
        let _ = store.info(PartyId(2));
        assert_eq!(
            store.stats().materializations,
            built,
            "second read is cached"
        );
    }
}
