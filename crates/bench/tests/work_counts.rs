//! Exact work counts beside the clock: the allocation calls and bytes of
//! fixed party-side and server-side operations.
//!
//! Wall-clock benches on a shared box swing 1.1–1.5× with nothing changed;
//! these counts do not move unless the code does. Each row of [`TABLE`]
//! pins one operation's `(calls, bytes)` exactly. A change that moves a row
//! says why in its CHANGES entry; `--nocapture` prints the rows as counted,
//! in the table's own layout.
//!
//! Rows:
//! * one `train_local_params` call: LeNet-lite on 8 rows (the
//!   `wide_cohort_byzantine` party) and ResNet-18-lite on 200 rows (the
//!   `paper_shift` party);
//! * `materialize_cohort_10_of_10k`: a 10-party cohort rebuilt from a
//!   10 000-party lazy FashionMNIST-smoke population at window 0;
//! * one `evaluate_on_view` pass over the 800-party lazy FashionMNIST-smoke
//!   population (the `scale_lazy_churn` shape), at window 0 and window 1;
//! * one `FlipsSelector::fit` over that population's 800 label histograms
//!   of 10 classes (`k_max` 4, as `ShiftEx::cohort` fits it).
//!
//! Its own test binary, because the counting allocator is process-wide:
//! nothing else may allocate while it measures, so there is one test.
//! A `#[global_allocator]` cannot be written without `unsafe impl
//! GlobalAlloc`, so this file is on `shiftex-lint`'s unsafe allowlist; no
//! library crate gains unsafe code. Allocation counts do not depend on the
//! SIMD width, so the table holds under `target-cpu=native` and
//! `-C target-cpu=x86-64` alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use shiftex_data::{DatasetKind, SimScale};
use shiftex_experiments::{LazyPopulation, Scenario};
use shiftex_fl::{evaluate_on_view, FlipsSelector, PartyId, PartyInfo, PopulationStore};
use shiftex_nn::{train_local_params, ArchSpec, InputShape, Sequential, TrainConfig};
use shiftex_tensor::Matrix;

/// The system allocator, counting the bytes and the calls that allocate.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics that publish nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the trait's own contract; the body only forwards it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the trait's own contract; the body only forwards it.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the trait's own contract; the body only forwards it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `GlobalAlloc::realloc` contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Pinned `(row, allocation calls, allocated bytes)`, one per row (see the
/// module docs).
#[rustfmt::skip]
const TABLE: [(&str, usize, usize); 6] = [
    ("train_local_params/lenet_b8",              72,     354523),
    ("train_local_params/resnet18lite_200",      34,     269885),
    ("materialize_cohort_10_of_10k",             63,      40768),
    ("lazy_eval_800_parties_w0",              16012,   60138339),
    ("lazy_eval_800_parties_w1",              19212,   60112739),
    ("flips_fit_800x10",                       1101,     418884),
];

/// `(calls, bytes)` allocated while `f` runs; `f`'s result is dropped
/// inside the measurement, so a row counts what the operation builds and
/// hands back too.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (usize, usize) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    drop(f());
    (
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// A lazy FashionMNIST-smoke population of `parties` parties of 8 training
/// rows (the benchmark workloads' shape), and its scenario.
fn lazy_population(parties: usize, seed: u64) -> (Scenario, PopulationStore) {
    let scenario = Scenario::build_with_population(
        DatasetKind::FashionMnist,
        SimScale::Smoke,
        seed,
        Some(parties),
        Some(8),
    );
    let store = LazyPopulation::new(scenario.clone(), seed).into_store();
    (scenario, store)
}

/// Counts every row once, in [`TABLE`] order. Inputs are built outside the
/// measurements.
fn count_rows() -> Vec<(&'static str, (usize, usize))> {
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(62);

    let lenet = ArchSpec::lenet5_lite(InputShape { c: 1, h: 8, w: 8 }, 10, 24);
    let resnet = ArchSpec::resnet18_lite(InputShape { c: 3, h: 8, w: 8 }, 10, 24);
    for (label, spec, n) in [
        ("train_local_params/lenet_b8", &lenet, 8),
        ("train_local_params/resnet18lite_200", &resnet, 200),
    ] {
        let global = Sequential::build(spec, &mut rng).params_flat();
        let x = Matrix::randn(n, spec.input.dim(), 0.0, 1.0, &mut rng);
        let y: Vec<usize> = (0..n).map(|i| i % spec.classes).collect();
        let cfg = TrainConfig::default();
        let mut party_rng = StdRng::seed_from_u64(63);
        let counts =
            allocated_by(|| train_local_params(spec, &global, &x, &y, &cfg, &mut party_rng));
        rows.push((label, counts));
    }

    let (_, store) = lazy_population(10_000, 23);
    let cohort_ids: Vec<PartyId> = (0..10).map(|i| PartyId(i * 997)).collect();
    rows.push((
        "materialize_cohort_10_of_10k",
        allocated_by(|| store.cohort(&cohort_ids)),
    ));

    let (scenario, mut store) = lazy_population(800, 7);
    let params = Sequential::build(&scenario.spec, &mut rng).params_flat();
    for (label, window) in [
        ("lazy_eval_800_parties_w0", 0),
        ("lazy_eval_800_parties_w1", 1),
    ] {
        store.set_window(window);
        let view = store.view(store.party_ids());
        rows.push((
            label,
            allocated_by(|| evaluate_on_view(&scenario.spec, &params, &view)),
        ));
    }

    store.set_window(0);
    let infos: Vec<PartyInfo> = store.view(store.party_ids()).infos();
    let mut fit_rng = StdRng::seed_from_u64(64);
    rows.push((
        "flips_fit_800x10",
        allocated_by(|| FlipsSelector::fit(&infos, 4, &mut fit_rng)),
    ));
    rows
}

/// One test, so no second test thread allocates during a measurement.
#[test]
fn work_counts_are_pinned() {
    let first = count_rows();
    let second = count_rows();
    assert_eq!(first, second, "two passes must count the same work");
    let wrong: Vec<&str> = first
        .iter()
        .filter(|&&(label, (calls, bytes))| !TABLE.contains(&(label, calls, bytes)))
        .map(|&(label, _)| label)
        .collect();
    if !wrong.is_empty() {
        for (label, (calls, bytes)) in &first {
            let quoted = format!("{label:?},");
            println!("    ({quoted:<40}{calls:>6}, {bytes:>10}),");
        }
        panic!("work counts moved: {wrong:?}");
    }
    assert_eq!(first.len(), TABLE.len(), "every pinned row is counted");
}
