//! The empty fault plan's row of the attachment table in `common`: with
//! the default retry policy it is invisible across governors, schedules
//! the same events and shares the plain fingerprint.

mod common;

use common::{
    assert_fingerprint_split, assert_invisible_across_governors, assert_same_events, row,
};
use eavs::faults::FaultPlan;

#[test]
fn empty_plan_is_invisible_across_governors() {
    assert_invisible_across_governors(&[row("faults/empty")]);
}

#[test]
fn empty_plan_shares_the_fingerprint() {
    assert_fingerprint_split(row("faults/empty"), |b| {
        b.faults(FaultPlan::standard_storm())
    });
}

#[test]
fn empty_plan_processes_the_same_events() {
    assert_same_events(row("faults/empty"));
}
