//! The no-op contract for optional session attachments: the whole table
//! of `common`, each row alone and all together, plus the checks that
//! belong to no single row.

mod common;

use common::{
    assert_invisible_across_governors, base, cases, check_invisible_for_draw, Attach, ROWS,
};
use eavs::faults::FaultPlan;
use eavs::obs::{shared, NullSink};
use eavs::power::DevicePowerModel;
use eavs::scaling::predictor::SessionPrior;
use proptest::prelude::*;

#[test]
fn every_attachment_is_invisible_across_governors() {
    assert_invisible_across_governors(&cases());
}

#[test]
fn real_attachments_split_the_fingerprint() {
    let plain = base("eavs", 23).fingerprint().expect("cacheable");
    let real: [(&str, Attach); 3] = [
        ("faults/storm", |b| b.faults(FaultPlan::standard_storm())),
        ("power/phone", |b| b.power(DevicePowerModel::phone())),
        ("prior/one-type", |b| {
            b.prior(SessionPrior {
                types: [Some((2.0e6, 8.0)), None, None],
            })
        }),
    ];
    for (name, attach) in real {
        let fp = attach(base("eavs", 23)).fingerprint().expect("cacheable");
        assert_ne!(fp, plain, "{name} must split off the digest");
    }
}

#[test]
fn only_observers_make_a_builder_observed() {
    // Observers are not hashed, so the cache layer refuses to serve
    // observed builders from memo (covered in eavs-bench).
    assert!(!base("eavs", 23).has_observer());
    assert!(base("eavs", 23).trace(shared(NullSink)).has_observer());
    assert!(base("eavs", 23).profile(true).has_observer());
    for (name, attach) in ROWS.into_iter().filter(|(n, _)| !n.starts_with("trace/")) {
        assert!(!attach(base("eavs", 23)).has_observer(), "{name}");
    }
}

#[test]
fn any_power_model_changes_only_the_power_block() {
    // The post-hoc contract, tested from the outside: a full phone model
    // leaves every simulation outcome untouched and only fills in the
    // power block of the report.
    let plain = base("eavs", 47).record_series(true).run();
    let mut phone = base("eavs", 47)
        .record_series(true)
        .power(DevicePowerModel::phone())
        .run();
    assert!(phone.power.total_j() > 0.0);
    assert!(phone.power.display_j > 0.0);
    assert!(phone.power.decoder_j > 0.0);
    // Zero the power block; everything else must be byte-identical.
    phone.power = Default::default();
    assert_eq!(format!("{plain:?}"), format!("{phone:?}"));
}

#[test]
fn f5_regeneration_reproduces_committed_csv() {
    let table = eavs::bench::comparison::f5_energy_by_governor();
    let committed = std::fs::read_to_string("results/f5_energy_by_governor.csv")
        .expect("committed golden CSV present");
    assert_eq!(table.to_csv(), committed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any governor/content/seed draw, every empty attachment, alone
    /// or all together, leaves the fingerprint and the report unchanged.
    #[test]
    fn every_attachment_is_invisible_for_any_draw(
        gov_pick in 0u8..5,
        content_pick in 0u8..3,
        seed in 1u64..400,
    ) {
        check_invisible_for_draw(&cases(), gov_pick, content_pick, seed)?;
    }
}
