//! Protocol-conformance tests: the harness's scenarios match the paper's
//! §6 experimental setup (party counts, window counts, windowing modes,
//! architecture pairing, 50 % partial population shift, metrics).

use rand::{rngs::StdRng, SeedableRng};
use shiftex::data::{profile, DatasetKind, ScheduleBuilder, SimScale, WindowingMode};
use shiftex::experiments::metrics::window_metrics;
use shiftex::experiments::Scenario;
use shiftex::nn::ArchName;

#[test]
fn paper_scale_party_and_window_counts() {
    // §6: "We simulate 200 parties for CIFAR-10-C, FEMNIST, and
    // Fashion-MNIST … For FMoW, we instead use 50 parties."
    assert_eq!(profile(DatasetKind::Fmow, SimScale::Paper).num_parties, 50);
    for kind in [
        DatasetKind::Cifar10C,
        DatasetKind::Femnist,
        DatasetKind::FashionMnist,
    ] {
        assert_eq!(profile(kind, SimScale::Paper).num_parties, 200, "{kind}");
    }
    // §7: "4 windows for FMoW and CIFAR-10-C, and 5 windows for
    // TinyImagenet-C, FEMNIST, and FashionMNIST."
    assert_eq!(profile(DatasetKind::Fmow, SimScale::Paper).eval_windows, 4);
    assert_eq!(
        profile(DatasetKind::Cifar10C, SimScale::Paper).eval_windows,
        4
    );
    for kind in [
        DatasetKind::TinyImagenetC,
        DatasetKind::Femnist,
        DatasetKind::FashionMnist,
    ] {
        assert_eq!(profile(kind, SimScale::Paper).eval_windows, 5, "{kind}");
    }
}

#[test]
fn windowing_strategy_matches_section_6() {
    // "For large datasets (FMoW, Tiny-ImageNet-C), we employ tumbling
    // windows … For smaller datasets …, we use sliding windows."
    for kind in [DatasetKind::Fmow, DatasetKind::TinyImagenetC] {
        assert_eq!(
            profile(kind, SimScale::Paper).windowing,
            WindowingMode::Tumbling,
            "{kind}"
        );
    }
    for kind in [
        DatasetKind::Cifar10C,
        DatasetKind::Femnist,
        DatasetKind::FashionMnist,
    ] {
        assert_eq!(
            profile(kind, SimScale::Paper).windowing,
            WindowingMode::Sliding,
            "{kind}"
        );
    }
}

#[test]
fn architecture_pairing_matches_models_paragraph() {
    // LeNet-5 for FEMNIST/FashionMNIST, DenseNet-121 for FMoW, ResNet-18
    // for CIFAR-10-C, ResNet-50 for Tiny-ImageNet-C (Lite stand-ins).
    let arch = |kind| Scenario::build(kind, SimScale::Smoke, 0).spec.name;
    assert_eq!(arch(DatasetKind::Femnist), ArchName::LeNet5Lite);
    assert_eq!(arch(DatasetKind::FashionMnist), ArchName::LeNet5Lite);
    assert_eq!(arch(DatasetKind::Fmow), ArchName::DenseNet121Lite);
    assert_eq!(arch(DatasetKind::Cifar10C), ArchName::ResNet18Lite);
    assert_eq!(arch(DatasetKind::TinyImagenetC), ArchName::ResNet50Lite);
}

#[test]
fn half_the_population_shifts_each_window() {
    // "In each window, 50% of the participating clients retain their
    // previous data distribution, while the remaining 50% receive a new
    // distribution."
    let p = profile(DatasetKind::Cifar10C, SimScale::Small);
    let mut rng = StdRng::seed_from_u64(4);
    let schedule = ScheduleBuilder::from_profile(&p, &mut rng).build(&mut rng);
    for w in 1..=p.eval_windows {
        let shifted = schedule.shifted_parties(w).len();
        // At most half shift; regime-retaining re-draws can make it less.
        assert!(
            shifted <= p.num_parties / 2,
            "window {w}: {shifted} shifted out of {}",
            p.num_parties
        );
    }
    // The first window must shift exactly half (nobody can "re-shift").
    assert_eq!(schedule.shifted_parties(1).len(), p.num_parties / 2);
}

#[test]
fn recovery_metric_is_95_percent_of_preshift() {
    // §6: "Recovery Time captures the number of rounds required to regain
    // 95% of pre-shift performance."
    let m = window_metrics(0.80, 0.50, &[0.70, 0.75, 0.76, 0.80]);
    assert_eq!(
        m.recovery_rounds,
        Some(3),
        "0.76 = 0.95 × 0.80 reached at round 3"
    );
    let m = window_metrics(0.80, 0.77, &[0.80]);
    assert_eq!(
        m.recovery_rounds,
        Some(0),
        "already above target at shift time"
    );
}

#[test]
fn tinyimagenet_paper_budget_is_40_rounds() {
    // Table 2 reports ">40" recovery ceilings for Tiny-ImageNet-C and
    // ">51" elsewhere.
    let t = Scenario::build(DatasetKind::TinyImagenetC, SimScale::Paper, 0);
    assert_eq!(t.rounds_per_window, 40);
    let c = Scenario::build(DatasetKind::Cifar10C, SimScale::Paper, 0);
    assert_eq!(c.rounds_per_window, 51);
}
