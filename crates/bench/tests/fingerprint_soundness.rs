//! The session cache serves one report for every builder with the same
//! fingerprint, so a fingerprint that left out an input the run depends
//! on would hand one session another's report. Every report
//! `run_sessions` returns for a slice of the `smoke` and `global`
//! campaigns under every governor, hits included, must equal a fresh,
//! uncached run of its own builder.
//!
//! Alone in its test binary, so the hits it counts are its own.

use eavs_bench::cache::{run_sessions, stats};
use eavs_fleet::campaign::{builder_for, draw_session};
use eavs_fleet::CampaignSpec;
use eavs_governors::BASELINE_NAMES;

/// Draws taken from the front of each campaign.
const DRAWS: u64 = 40;

#[test]
fn every_report_the_cache_returns_equals_an_uncached_run() {
    let governors: Vec<&str> = BASELINE_NAMES
        .into_iter()
        .chain(["eavs", "eavs-panic"])
        .collect();
    let before = stats();
    for spec in [CampaignSpec::smoke(), CampaignSpec::global()] {
        let cases: Vec<_> = (0..DRAWS)
            .flat_map(|id| {
                let draw = draw_session(&spec, id);
                governors.iter().map(move |&gov| (id, draw, gov))
            })
            .collect();
        let builder =
            |(_, draw, gov): &(_, _, &str)| builder_for(draw, gov).expect("known governor");
        let cached = run_sessions(
            cases
                .iter()
                .map(|case| {
                    (
                        format!("{} draw {} {}", spec.name, case.0, case.2),
                        builder(case),
                    )
                })
                .collect(),
        );
        assert_eq!(cached.len(), cases.len());
        for (case, report) in cases.iter().zip(&cached) {
            // Debug renders every field, the energy floats included.
            assert_eq!(
                format!("{report:?}"),
                format!("{:?}", builder(case).run()),
                "{} draw {} {}: the cache returned another session's report",
                spec.name,
                case.0,
                case.2
            );
        }
    }
    let hits = stats().hits - before.hits;
    // Hits across draws are what could differ; without any the test
    // would compare each run with itself.
    assert!(hits >= 10, "only {hits} cache hits in the slice");
}
