//! The segment memo under its byte cap, end to end: a session whose
//! segments were evicted regenerates them and reports exactly what it
//! reported before. Alone in its binary, because the memo and its
//! counters are process-wide.

use std::sync::Arc;

use eavs::scaling::governor::{EavsConfig, EavsGovernor};
use eavs::scaling::predictor::predictor_by_name;
use eavs::scaling::session::{GovernorChoice, StreamingSession};
use eavs::sim::time::SimDuration;
use eavs::tracegen::content::ContentProfile;
use eavs::tracegen::memo::{segment_cache_stats, SEGMENT_CAP_BYTES};
use eavs::tracegen::video_gen::VideoGenerator;
use eavs::video::manifest::Manifest;

#[test]
fn a_session_whose_segments_were_evicted_reruns_to_the_same_report() {
    let manifest = Arc::new(Manifest::single(
        6_000,
        1920,
        1080,
        SimDuration::from_secs(60),
        30,
    ));
    let run = || {
        let report = StreamingSession::builder(GovernorChoice::Eavs(EavsGovernor::new(
            predictor_by_name("hybrid").unwrap(),
            EavsConfig::default(),
        )))
        .manifest(Arc::clone(&manifest))
        .content(ContentProfile::Sport)
        .seed(11)
        .run();
        format!("{report:?}")
    };
    let first = run();
    let filled = segment_cache_stats();
    assert!(filled.misses >= manifest.num_segments, "{filled:?}");
    assert_eq!(filled.evictions, 0, "{filled:?}");

    // More than the cap of other segments: a four-hour title of another
    // seed, never hit, pushes every older entry out.
    let long = Arc::new(Manifest::single(
        6_000,
        1920,
        1080,
        SimDuration::from_secs(4 * 3600),
        30,
    ));
    let flood = VideoGenerator::new(long, ContentProfile::Film, 12_345);
    let mut pushed = 0u64;
    let mut index = 0;
    while pushed <= SEGMENT_CAP_BYTES {
        pushed += flood.shared_segment(index, 0).approx_bytes() as u64;
        index += 1;
    }
    let flooded = segment_cache_stats();
    assert!(flooded.evictions >= filled.misses, "{flooded:?}");
    assert!(
        flooded.resident_bytes <= SEGMENT_CAP_BYTES,
        "{flooded:?} over the {SEGMENT_CAP_BYTES}-byte cap"
    );

    let again = run();
    let rerun = segment_cache_stats();
    assert!(
        rerun.misses - flooded.misses >= manifest.num_segments,
        "the rerun found its segments resident: {flooded:?} → {rerun:?}"
    );
    assert_eq!(again, first, "regenerated segments changed the report");
}
