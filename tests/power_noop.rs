//! The `DevicePowerModel::none()` row of the attachment table in
//! `common`: it is invisible across governors, schedules the same events
//! and shares the plain fingerprint. Because accounting is post-hoc, the
//! phone model may change only the report's power block, for any draw.

mod common;

use common::{
    assert_fingerprint_split, assert_invisible_across_governors, assert_same_events, base,
    check_invisible_for_draw, row, GOVERNORS,
};
use eavs::power::DevicePowerModel;
use eavs::tracegen::content::ContentProfile;
use proptest::prelude::*;

#[test]
fn none_model_is_invisible_across_governors() {
    assert_invisible_across_governors(&[row("power/none")]);
}

#[test]
fn none_model_shares_the_fingerprint() {
    assert_fingerprint_split(row("power/none"), |b| b.power(DevicePowerModel::phone()));
}

#[test]
fn none_model_processes_the_same_events() {
    assert_same_events(row("power/none"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn power_models_are_behaviorally_inert_for_any_draw(
        gov_pick in 0u8..5,
        content_pick in 0u8..3,
        seed in 1u64..400,
    ) {
        check_invisible_for_draw(&[row("power/none")], gov_pick, content_pick, seed)?;
        let mk = || base(GOVERNORS[gov_pick as usize], seed)
            .content(ContentProfile::ALL[content_pick as usize]);
        let plain = mk().run();
        let mut phone = mk().power(DevicePowerModel::phone()).run();
        prop_assert!(phone.power.total_j() > 0.0);
        phone.power = Default::default();
        prop_assert_eq!(format!("{phone:?}"), format!("{plain:?}"));
    }
}
