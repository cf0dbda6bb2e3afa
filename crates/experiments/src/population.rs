//! Scenario-backed [`PartyProvider`]s: the population as seeded specs.
//!
//! A [`Scenario`] already is a complete recipe for any party's data at any
//! window — generator, shift schedule, windowing mode. Each party reads its
//! own stream, seeded per `(id, window)`, as the paper's parties each
//! consume their own windowed stream (§6): party 9 999's window never
//! depends on having generated parties 0…9 998 first, so any
//! `(party, window)` can be rebuilt on demand and a [`PopulationStore`]
//! stays O(cohort) resident at 10k–100k parties.
//!
//! Two providers share that one stream, and the runner uses nothing else:
//!
//! * [`LazyPopulation`] — rebuilds a party every time it is sampled into a
//!   cohort and hands it over for the round to drop; every read pays a
//!   rebuild. The one thing it keeps is a per-window test-split cursor,
//!   a 32 B stream state (~80 B with its map node) for each party whose
//!   test split was read this window, so that repeat reads skip the
//!   training rows; otherwise resident memory is independent of
//!   population size.
//! * [`ResidentPopulation`] — builds every party up front, advances them
//!   in place at each window and lends borrows. Reads are free, memory is
//!   O(population).
//!
//! A run over one must be bit-identical to a run over the other built from
//! the same scenario and stream seed; the conformance suite pins that for
//! all six algorithms.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use shiftex_data::Dataset;
use shiftex_fl::{Party, PartyId, PartyProvider, PopulationStore};

use crate::scenario::Scenario;

/// Mixes `(stream seed, party, window)` into an independent RNG seed
/// (splitmix64 finalizer, the same avalanche used by `ScenarioEngine`'s
/// per-round sub-streams).
pub fn party_stream_seed(stream_seed: u64, id: PartyId, window: usize) -> u64 {
    let mut z = stream_seed
        ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (window as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Party `i` at window 0, from its own `(id, 0)` stream. Without
/// `with_test` the stream stops before the test rows, its last draw: a party
/// about to be replayed past window 0 drops that split unread.
fn build_window0(scenario: &Scenario, stream_seed: u64, i: usize, with_test: bool) -> Party {
    let seed = party_stream_seed(stream_seed, PartyId(i), 0);
    let rng = &mut StdRng::seed_from_u64(seed);
    if with_test {
        return scenario.build_party(i, rng);
    }
    let train = scenario.draw_fresh(i, 0, rng);
    let profile = &scenario.profile;
    Party::new(
        PartyId(i),
        train,
        Dataset::empty(profile.classes, profile.shape),
    )
}

/// Advances `party` through every window in `(from, to]`, one
/// [`Scenario::advance_party`] step per window from the `(id, w)` stream.
/// The chain is what keeps sliding-window carry-over and `prev_train` (the
/// shift detector's reference window) the same however a party got there.
fn replay(scenario: &Scenario, stream_seed: u64, party: &mut Party, from: usize, to: usize) {
    for w in from + 1..=to {
        let seed = party_stream_seed(stream_seed, party.id(), w);
        scenario.advance_party(party, w, &mut StdRng::seed_from_u64(seed));
    }
}

/// Party provider that materializes nothing until asked.
///
/// Holds the scenario recipe, a stream seed and one window's test-split
/// cursors; every [`party`](PartyProvider::party) call rebuilds the
/// requested party from its per-`(id, window)` seed chain and hands it
/// over. Re-instantiation is bit-identical by construction — the same
/// seeds drive the same generator calls.
///
/// The first [`test_split`](PartyProvider::test_split) read of a party in a
/// window keeps its `(id, window)` stream as it stands after the window's
/// training rows (32 B, a [`StdRng`]); every later read of that split in
/// the same window resumes a copy of it and draws only the test rows. An
/// evaluation pass over 800 parties so keeps 63 KB (~80 B a party, with
/// the map's half-full nodes) until
/// [`advance_window`](PartyProvider::advance_window) drops them; a read
/// for another window starts from the seed again.
#[derive(Debug, Clone)]
pub struct LazyPopulation {
    scenario: Scenario,
    stream_seed: u64,
    cursors: RefCell<TestCursors>,
}

/// Streams of one window, each stopped just before its party's test rows.
#[derive(Debug, Clone, Default)]
struct TestCursors {
    /// The window every kept stream belongs to.
    window: usize,
    streams: BTreeMap<PartyId, StdRng>,
}

impl LazyPopulation {
    /// Wraps `scenario` with the base seed every per-party stream is
    /// derived from.
    pub fn new(scenario: Scenario, stream_seed: u64) -> Self {
        Self {
            scenario,
            stream_seed,
            cursors: RefCell::default(),
        }
    }

    /// Boxes this provider into a [`PopulationStore`].
    pub fn into_store(self) -> PopulationStore {
        PopulationStore::new(Box::new(self))
    }
}

impl PartyProvider for LazyPopulation {
    fn party_ids(&self) -> Vec<PartyId> {
        (0..self.scenario.profile.num_parties)
            .map(PartyId)
            .collect()
    }

    fn party(&self, id: PartyId, window: usize) -> Option<Cow<'_, Party>> {
        if id.0 >= self.scenario.profile.num_parties {
            return None;
        }
        let mut party = build_window0(&self.scenario, self.stream_seed, id.0, window == 0);
        replay(&self.scenario, self.stream_seed, &mut party, 0, window);
        Some(Cow::Owned(party))
    }

    /// Draws only the `(id, window)` stream, up to its test rows. No
    /// earlier window is rebuilt, since a window's test split depends on
    /// nothing carried over. The window's training rows come first in that
    /// stream: the first read in a window draws and drops them and keeps
    /// the stream's state after them, and later reads resume from it.
    fn test_split(&self, id: PartyId, window: usize) -> Option<Cow<'_, Dataset>> {
        if id.0 >= self.scenario.profile.num_parties {
            return None;
        }
        let mut cursors = self.cursors.borrow_mut();
        if cursors.window != window {
            cursors.streams.clear();
            cursors.window = window;
        }
        let mut rng = cursors
            .streams
            .entry(id)
            .or_insert_with(|| {
                let seed = party_stream_seed(self.stream_seed, id, window);
                let mut rng = StdRng::seed_from_u64(seed);
                self.scenario.draw_fresh(id.0, window, &mut rng);
                rng
            })
            .clone();
        Some(Cow::Owned(self.scenario.draw_test(id.0, window, &mut rng)))
    }

    /// Drops the test-split cursors: they belong to the window left.
    fn advance_window(&mut self, _window: usize) {
        self.cursors.get_mut().streams.clear();
    }
}

/// The resident twin of [`LazyPopulation`]: same per-party streams, but
/// every party is built up front and advanced in place — the runner's
/// default below the scale where O(population) memory matters, and the
/// arm the conformance suite compares a lazy run against.
#[derive(Debug)]
pub struct ResidentPopulation {
    scenario: Scenario,
    stream_seed: u64,
    /// `parties[i]` is party `PartyId(i)`.
    parties: Vec<Party>,
    /// Window the resident parties currently hold.
    window: usize,
}

impl ResidentPopulation {
    /// Materializes the whole population at window 0 from the per-party
    /// streams.
    pub fn new(scenario: Scenario, stream_seed: u64) -> Self {
        let parties = (0..scenario.profile.num_parties)
            .map(|i| build_window0(&scenario, stream_seed, i, true))
            .collect();
        Self {
            scenario,
            stream_seed,
            parties,
            window: 0,
        }
    }

    /// Boxes this provider into a [`PopulationStore`].
    pub fn into_store(self) -> PopulationStore {
        PopulationStore::new(Box::new(self))
    }
}

impl PartyProvider for ResidentPopulation {
    fn party_ids(&self) -> Vec<PartyId> {
        (0..self.parties.len()).map(PartyId).collect()
    }

    fn party(&self, id: PartyId, _window: usize) -> Option<Cow<'_, Party>> {
        self.parties.get(id.0).map(Cow::Borrowed)
    }

    /// Replays every window in `(current, window]` so a jump lands on the
    /// same chain [`LazyPopulation`] rebuilds; a repeat is a no-op and a
    /// step backwards restarts the chain from window 0.
    fn advance_window(&mut self, window: usize) {
        if window < self.window {
            *self = Self::new(self.scenario.clone(), self.stream_seed);
        }
        for party in &mut self.parties {
            replay(&self.scenario, self.stream_seed, party, self.window, window);
        }
        self.window = window;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shiftex_data::{DatasetKind, SimScale};

    fn scenario() -> Scenario {
        Scenario::build_with_population(
            DatasetKind::FashionMnist,
            SimScale::Smoke,
            3,
            Some(40),
            Some(12),
        )
    }

    /// Asserts both stores hold bit-identical data (window, carried
    /// `prev_train`) for a spread of parties.
    fn assert_stores_agree(lazy: &PopulationStore, resident: &PopulationStore, what: &str) {
        for id in [PartyId(0), PartyId(17), PartyId(39)] {
            let a = lazy.party(id).expect("lazy id");
            let b = resident.party(id).expect("resident id");
            assert_eq!(a.train_labels(), b.train_labels(), "{what}");
            assert_eq!(
                a.train_features().as_slice(),
                b.train_features().as_slice(),
                "{what} features"
            );
            assert_eq!(
                a.prev_train().map(|d| d.features()),
                b.prev_train().map(|d| d.features()),
                "{what} prev_train"
            );
        }
    }

    #[test]
    fn lazy_and_resident_agree_at_every_window() {
        let mut lazy = LazyPopulation::new(scenario(), 77).into_store();
        let mut resident = ResidentPopulation::new(scenario(), 77).into_store();
        for w in 0..3 {
            if w > 0 {
                lazy.set_window(w);
                resident.set_window(w);
            }
            assert_stores_agree(&lazy, &resident, &format!("window {w}"));
        }
        // A repeated `set_window` must not advance the resident arm again.
        resident.set_window(2);
        assert_stores_agree(&lazy, &resident, "repeated set_window(2)");
        // Stepping back restarts the chain.
        lazy.set_window(1);
        resident.set_window(1);
        assert_stores_agree(&lazy, &resident, "back to window 1");
        // A 0 → 2 jump replays window 1 on the way (what the benchmark's
        // layer probe does).
        let mut jumped = ResidentPopulation::new(scenario(), 77).into_store();
        jumped.set_window(2);
        lazy.set_window(2);
        assert_stores_agree(&lazy, &jumped, "0 -> 2 jump");
        assert_eq!(lazy.stats().pinned, 0, "lazy reads never pin");
    }

    #[test]
    fn lazy_rebuild_is_stable_across_evictions() {
        let store = LazyPopulation::new(scenario(), 5).into_store();
        let a = store.party(PartyId(23)).expect("id");
        drop(a);
        let b = store.party(PartyId(23)).expect("id");
        let a = store.party(PartyId(23)).expect("id");
        assert_eq!(a.train_features().as_slice(), b.train_features().as_slice());
        assert_eq!(a.test().features(), b.test().features());
    }

    /// A split's features and labels, features by `to_bits`.
    fn split_bits(split: &Dataset) -> (Vec<u32>, Vec<usize>) {
        let features = split.features().as_slice().iter().map(|v| v.to_bits());
        (features.collect(), split.labels().to_vec())
    }

    /// Every read of a party's test split returns the same bits: the lazy
    /// test-split read (only the window's own stream), the lazy whole-party
    /// read (which skips window 0's test rows past window 0), and both
    /// resident reads, over a sliding and a tumbling dataset. One lazy
    /// provider reads every split twice, visiting windows out of order and
    /// never told of a window change, so a cursor kept from another window
    /// or another party would show.
    #[test]
    fn test_splits_match_whole_party_reads_bit_for_bit() {
        use shiftex_data::WindowingMode;
        for (kind, windowing) in [
            (DatasetKind::FashionMnist, WindowingMode::Sliding),
            (DatasetKind::Fmow, WindowingMode::Tumbling),
        ] {
            let scenario =
                Scenario::build_with_population(kind, SimScale::Smoke, 3, Some(12), Some(8));
            assert_eq!(scenario.profile.windowing, windowing);
            let lazy = LazyPopulation::new(scenario.clone(), 77);
            let mut resident = ResidentPopulation::new(scenario, 77);
            for window in [0, 2, 1, 0, 2] {
                resident.advance_window(window);
                for id in [PartyId(0), PartyId(5), PartyId(11)] {
                    let at = format!("{kind:?}, window {window}, {id}");
                    let party = resident.party(id, window).expect("resident id");
                    let want = split_bits(party.test());
                    assert!(!want.1.is_empty(), "{at}: an empty split pins nothing");
                    let split = resident.test_split(id, window).expect("resident id");
                    assert!(matches!(split, Cow::Borrowed(_)), "{at}: resident lends");
                    assert_eq!(split_bits(&split), want, "{at}: resident test_split");
                    for read in ["first", "second"] {
                        let split = lazy.test_split(id, window).expect("lazy id");
                        assert_eq!(split_bits(&split), want, "{at}: {read} lazy test_split");
                    }
                    let party = lazy.party(id, window).expect("lazy id");
                    assert_eq!(split_bits(party.test()), want, "{at}: lazy party");
                }
            }
            assert!(lazy.test_split(PartyId(12), 0).is_none(), "unknown id");
        }
    }

    #[test]
    fn stream_seeds_are_pairwise_distinct_in_practice() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..200 {
            for w in 0..4 {
                assert!(seen.insert(party_stream_seed(9, PartyId(id), w)));
            }
        }
    }
}
