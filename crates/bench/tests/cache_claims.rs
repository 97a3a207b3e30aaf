//! Two batches that miss the same key at the same moment simulate it
//! once: the first lookup claims the key as an in-flight entry, and the
//! other batch waits for that run instead of starting its own.
//!
//! Alone in its test binary, so no other test moves the cache counters.

use eavs_bench::cache::{run_sessions, stats};
use eavs_bench::harness::{eavs_default, manifest_1080p30};
use eavs_core::session::StreamingSession;
use std::sync::{Arc, Barrier};

#[test]
fn concurrent_batches_share_one_run_of_an_unseen_key() {
    let barrier = Arc::new(Barrier::new(2));
    let before = stats();
    let batches: Vec<_> = ["left", "right"]
        .into_iter()
        .map(|side| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let builder = StreamingSession::builder(eavs_default())
                    .manifest(manifest_1080p30(60))
                    .seed(4_242);
                barrier.wait();
                run_sessions(vec![(side.to_owned(), builder)])
                    .pop()
                    .expect("one report per job")
            })
        })
        .collect();
    let reports: Vec<_> = batches
        .into_iter()
        .map(|batch| batch.join().expect("batch thread"))
        .collect();
    let after = stats();
    assert_eq!(
        after.misses - before.misses,
        1,
        "one batch simulates the key"
    );
    assert_eq!(after.hits - before.hits, 1, "the other waits for that run");
    assert!(Arc::ptr_eq(&reports[0], &reports[1]));
}
