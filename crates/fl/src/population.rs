//! Population store: the runtime's one handle on the parties, lent
//! O(cohort).
//!
//! Every round of a federation touches a *cohort* of a handful of parties,
//! so the runtime never holds a `&[Party]`. A [`PopulationStore`] fronts a
//! [`PartyProvider`] and lends a concrete [`Party`] only when a selector
//! samples it into a cohort; the cohort `Vec` is dropped when the round
//! ends. The store keeps no party of its own, only a per-window cache of
//! [`PartyInfo`], so over a provider that rebuilds parties on demand a
//! 100k-party federation costs the same per round as a 100-party one.
//!
//! Two kinds of provider sit behind the store:
//!
//! * an **owned** provider ([`PopulationStore::from_parties`]) wraps a
//!   `Vec<Party>` the caller built by hand — tests and examples use it;
//!   it lends borrows and is the only provider that can be mutated in
//!   place ([`PopulationStore::with_party_mut`]);
//! * **seeded** providers implement [`PartyProvider`] over a recipe and a
//!   seed and rebuild `(party, window)` deterministically; rebuilding the
//!   same pair twice must be bit-identical (the conformance suite enforces
//!   this). Whether such a provider also keeps its parties resident, and
//!   so lends borrows instead of fresh builds, is its own memory/speed
//!   choice — the store cannot tell.
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
//! // lent through it and dropped when the round's loop ends.
//! let view = store.view(vec![PartyId(1), PartyId(3)]);
//! assert_eq!(view.len(), 2);
//! let cohort = view.parties(&[PartyId(3)]);
//! assert_eq!(cohort.len(), 1);
//! assert_eq!(cohort[0].id(), PartyId(3));
//! // PartyId(0) is alive in the store but filtered out of this view.
//! assert!(view.with_party(PartyId(0), |p| p.id()).is_none());
//! assert!(store.with_party(PartyId(0), |p| p.train().len()).is_some());
//! ```

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

use shiftex_data::Dataset;

use crate::party::{Party, PartyId, PartyInfo};

/// Source of parties for a [`PopulationStore`].
///
/// Implementations lend a party's data for a given window on demand.
/// The contract a provider must honour:
///
/// * [`party_ids`](Self::party_ids) is the fixed population, in iteration
///   order, stable for the provider's lifetime (churn is modelled by the
///   scenario engine's liveness schedule, not by the provider);
/// * [`party`](Self::party) returns `Some` for exactly those ids;
/// * rebuilding the same `(id, window)` twice yields bit-identical data —
///   the store drops cohort parties after every round and relies on
///   re-instantiation determinism.
///
/// ```
/// use std::borrow::Cow;
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
/// impl PartyProvider for Seeded {
///     fn party_ids(&self) -> Vec<PartyId> {
///         (0..self.n).map(PartyId).collect()
///     }
///     fn party(&self, id: PartyId, window: usize) -> Option<Cow<'_, Party>> {
///         if id.0 >= self.n {
///             return None;
///         }
///         let seed = (id.0 as u64) << 20 | window as u64;
///         let mut rng = StdRng::seed_from_u64(seed);
///         let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
///         let train = gen.generate_uniform(8, &mut rng);
///         let test = gen.generate_uniform(4, &mut rng);
///         Some(Cow::Owned(Party::new(id, train, test)))
///     }
/// }
///
/// let store = PopulationStore::new(Box::new(Seeded { n: 10_000 }));
/// let a = store.party(PartyId(4096)).unwrap();
/// let b = store.party(PartyId(4096)).unwrap();
/// assert_eq!(a.train_labels(), b.train_labels()); // re-instantiation is stable
/// assert_eq!(store.stats().materializations, 2); // nothing stays resident
/// ```
pub trait PartyProvider: std::fmt::Debug {
    /// The full population, in canonical iteration order.
    fn party_ids(&self) -> Vec<PartyId>;

    /// `id`'s party at `window`, or `None` if `id` is unknown. A provider
    /// that keeps its parties resident lends a borrow; one that rebuilds
    /// them hands over the party it just built.
    fn party(&self, id: PartyId, window: usize) -> Option<Cow<'_, Party>>;

    /// `id`'s test split at `window`, or `None` if `id` is unknown — all
    /// that evaluation reads of a party. The default lends
    /// [`party`](Self::party)'s split: borrowed from a resident party,
    /// moved out of a built one. A provider that can produce the split
    /// without building the rest of the party overrides this; the split
    /// must be bit-identical to `party(id, window)`'s. An override may keep
    /// per-window state to make repeat reads cheaper (the scenario-backed
    /// lazy provider keeps a 32 B stream cursor per party read, dropped in
    /// [`advance_window`](Self::advance_window)), but its answer must not
    /// depend on which reads came before.
    fn test_split(&self, id: PartyId, window: usize) -> Option<Cow<'_, Dataset>> {
        Some(match self.party(id, window)? {
            Cow::Borrowed(party) => Cow::Borrowed(party.test()),
            Cow::Owned(party) => Cow::Owned(party.into_test()),
        })
    }

    /// `id`'s party for in-place mutation, if this provider owns storage
    /// the caller may change. Providers that derive their parties from
    /// `(id, window)` return `None` (the default).
    fn party_mut(&mut self, _id: PartyId) -> Option<&mut Party> {
        None
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

    fn party(&self, id: PartyId, _window: usize) -> Option<Cow<'_, Party>> {
        let &i = self.index.get(&id)?;
        Some(Cow::Borrowed(&self.parties[i]))
    }

    fn party_mut(&mut self, id: PartyId) -> Option<&mut Party> {
        let &i = self.index.get(&id)?;
        Some(&mut self.parties[i])
    }
}

/// Residency counters for the memory-envelope tests and the `scenarios`
/// bin's scale report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationStats {
    /// Total parties the provider can produce.
    pub population: usize,
    /// Parties the store holds beyond what its provider lends. Always 0:
    /// the store keeps no copies. Kept for reports that read it.
    pub pinned: usize,
    /// Largest cohort materialized through the store at once.
    pub peak_cohort: usize,
    /// Party reads from the provider since construction.
    pub materializations: u64,
    /// Current stream window.
    pub window: usize,
}

/// Arena of parties keyed by [`PartyId`], backed by a [`PartyProvider`].
///
/// The store is the runtime's only population handle: the scenario driver
/// asks it for the id universe, builds liveness-filtered [`PopulationView`]s
/// for algorithms, and lends concrete cohorts just-in-time. See the
/// [module docs](self) for a runnable example.
#[derive(Debug)]
pub struct PopulationStore {
    provider: Box<dyn PartyProvider>,
    order: Vec<PartyId>,
    members: BTreeSet<PartyId>,
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

    /// Moves the stream to `window`: the provider is notified and cached
    /// infos are dropped (party state is re-derived from `(id, window)`).
    pub fn set_window(&mut self, window: usize) {
        self.window = window;
        self.provider.advance_window(window);
        self.infos.get_mut().clear();
    }

    /// Whether `id` is in the population; if so, the read about to be made
    /// of it is counted as one materialization.
    fn count_read(&self, id: PartyId) -> bool {
        let known = self.contains(id);
        if known {
            self.materialized.set(self.materialized.get() + 1);
        }
        known
    }

    /// `id`'s party as the provider lends it, counted as one
    /// materialization; `None` if `id` is not in the population.
    fn lend(&self, id: PartyId) -> Option<Cow<'_, Party>> {
        self.count_read(id)
            .then(|| self.provider.party(id, self.window))
            .flatten()
    }

    /// Borrows `id`'s party (materializing it if the backing is lazy) and
    /// applies `f`; `None` if `id` is not in the population.
    pub fn with_party<R>(&self, id: PartyId, f: impl FnOnce(&Party) -> R) -> Option<R> {
        self.lend(id).map(|p| f(&p))
    }

    /// Borrows `id`'s test split ([`PartyProvider::test_split`]) and
    /// applies `f`; `None` if `id` is not in the population. Counted as one
    /// materialization, like a whole-party read.
    pub fn with_test_split<R>(&self, id: PartyId, f: impl FnOnce(&Dataset) -> R) -> Option<R> {
        self.count_read(id)
            .then(|| self.provider.test_split(id, self.window))
            .flatten()
            .map(|test| f(&test))
    }

    /// An owned copy of `id`'s party, or `None` if unknown. A party the
    /// provider just built is moved out, not copied again.
    pub fn party(&self, id: PartyId) -> Option<Party> {
        self.lend(id).map(Cow::into_owned)
    }

    /// Lends a concrete cohort in the given id order, skipping unknown ids:
    /// resident parties are borrowed, lazy ones built. The returned `Vec`
    /// is the round's working set; dropping it is the eviction that keeps
    /// residency O(cohort).
    pub fn cohort(&self, ids: &[PartyId]) -> Vec<Cow<'_, Party>> {
        let cohort: Vec<Cow<'_, Party>> = ids.iter().filter_map(|&id| self.lend(id)).collect();
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

    /// Mutates `id`'s party in place; `None` if `id` is not in the
    /// population or the provider rebuilds its parties from
    /// `(id, window)` (only [`from_parties`](Self::from_parties) stores
    /// can be mutated).
    pub fn with_party_mut<R>(&mut self, id: PartyId, f: impl FnOnce(&mut Party) -> R) -> Option<R> {
        let party = self.provider.party_mut(id)?;
        self.infos.get_mut().remove(&id);
        Some(f(party))
    }

    /// Residency counters.
    pub fn stats(&self) -> PopulationStats {
        PopulationStats {
            population: self.order.len(),
            pinned: 0,
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

    /// Borrows `id`'s party if it is in view.
    pub fn with_party<R>(&self, id: PartyId, f: impl FnOnce(&Party) -> R) -> Option<R> {
        if !self.contains(id) {
            return None;
        }
        self.store.with_party(id, f)
    }

    /// Borrows `id`'s test split if it is in view — what evaluation reads.
    pub fn with_test_split<R>(&self, id: PartyId, f: impl FnOnce(&Dataset) -> R) -> Option<R> {
        if !self.contains(id) {
            return None;
        }
        self.store.with_test_split(id, f)
    }

    /// Lends the subset of `ids` that is in view, preserving the given
    /// order — the cohort filter the round driver applies between
    /// selection and local training.
    pub fn parties(&self, ids: &[PartyId]) -> Vec<Cow<'a, Party>> {
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

        fn party(&self, id: PartyId, window: usize) -> Option<Cow<'_, Party>> {
            (id.0 < self.n).then(|| Cow::Owned(self.build(id, window)))
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
        assert!(
            view.with_party(PartyId(0), |p| p.id()).is_none(),
            "out-of-view id is hidden"
        );
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
    fn owned_cohorts_are_borrowed_and_seeded_cohorts_are_built() {
        let owned = PopulationStore::from_parties(make_parties(4));
        let cohort = owned.cohort(&[PartyId(2), PartyId(0)]);
        assert!(cohort.iter().all(|p| matches!(p, Cow::Borrowed(_))));
        assert_eq!(owned.stats().peak_cohort, 2);
        let seeded = PopulationStore::new(Box::new(SeededProvider { n: 10 }));
        let cohort = seeded.cohort(&[PartyId(4), PartyId(8), PartyId(1)]);
        assert!(cohort.iter().all(|p| matches!(p, Cow::Owned(_))));
        assert_eq!(seeded.stats().peak_cohort, 3);
        assert_eq!(seeded.stats().materializations, 3);
    }

    #[test]
    fn mutating_a_seeded_party_is_refused_and_changes_nothing() {
        let mut store = PopulationStore::new(Box::new(SeededProvider { n: 10 }));
        let before = store.party(PartyId(3)).expect("id");
        let mut rng = StdRng::seed_from_u64(9);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
        let (train, test) = (
            gen.generate_uniform(3, &mut rng),
            gen.generate_uniform(2, &mut rng),
        );
        let applied = store.with_party_mut(PartyId(3), |p| p.advance_window(train, test));
        assert!(applied.is_none(), "a seeded provider owns no mutable party");
        let after = store.party(PartyId(3)).expect("id");
        assert_eq!(before.train_labels(), after.train_labels());
        assert_eq!(
            before.train_features().as_slice(),
            after.train_features().as_slice()
        );
        assert!(after.prev_train().is_none());
    }

    #[test]
    fn test_split_reads_lend_the_party_split_and_count_as_reads() {
        let seeded = SeededProvider { n: 10 };
        let built = seeded.build(PartyId(4), 0);
        let split = seeded.test_split(PartyId(4), 0).expect("known id");
        assert!(
            matches!(split, Cow::Owned(_)),
            "a built party's split moves out"
        );
        assert_eq!(split.features(), built.test_features());
        assert_eq!(split.labels(), built.test_labels());
        assert!(seeded.test_split(PartyId(10), 0).is_none());

        let store = PopulationStore::from_parties(make_parties(3));
        let view = store.view(vec![PartyId(2)]);
        let want = store.with_party(PartyId(2), |p| p.test_labels().to_vec());
        let before = store.stats().materializations;
        let got = view.with_test_split(PartyId(2), |t| t.labels().to_vec());
        assert_eq!(got, want);
        assert!(
            view.with_test_split(PartyId(0), |_| ()).is_none(),
            "out of view"
        );
        assert!(
            store.with_test_split(PartyId(7), |_| ()).is_none(),
            "unknown id"
        );
        assert_eq!(
            store.stats().materializations,
            before + 1,
            "a split read counts as one materialization, a refused one as none"
        );
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
