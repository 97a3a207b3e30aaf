//! The trace sinks' rows of the attachment table in `common`: a
//! `NullSink`, and a recording `RingSink`, are invisible across governors
//! and schedule the same events, for any draw.

mod common;

use common::{
    assert_invisible_across_governors, assert_same_events, check_invisible_for_draw, row,
};
use proptest::prelude::*;

#[test]
fn null_sink_is_invisible_across_governors() {
    assert_invisible_across_governors(&[row("trace/null")]);
}

#[test]
fn null_sink_processes_the_same_events() {
    assert_same_events(row("trace/null"));
    assert_same_events(row("trace/ring"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn null_sink_is_invisible_for_any_draw(
        gov_pick in 0u8..5,
        content_pick in 0u8..3,
        seed in 1u64..400,
    ) {
        check_invisible_for_draw(&[row("trace/null")], gov_pick, content_pick, seed)?;
    }
}
