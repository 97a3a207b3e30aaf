//! Acceptance tests for the fault-injection figures: the F24 storm must
//! separate panic-recovery EAVS from the stock governors, and faulted
//! sessions must stay deterministic across the shared pool.

use eavs_bench::harness::{governor, run_parallel_labeled};
use eavs_bench::robustness::{balanced_retry, f24_labels, f24_reports, f25_policies};
use eavs_core::session::StreamingSession;
use eavs_faults::FaultPlan;
use eavs_sim::time::SimDuration;
use eavs_trace::content::ContentProfile;
use eavs_video::manifest::Manifest;
use std::sync::Arc;

/// The paper-style claim behind F24: under the standard storm, EAVS with
/// panic recovery rides out every fault — zero rebuffers, zero late
/// vsyncs — while at least one stock governor visibly degrades.
#[test]
fn f24_storm_recovery_separates_governors() {
    let labels = f24_labels();
    let reports = f24_reports();
    assert_eq!(labels.len(), reports.len());

    let panic_row = reports.last().expect("eavs-panic row");
    assert_eq!(*labels.last().unwrap(), "eavs-panic");
    assert_eq!(
        panic_row.qoe.rebuffer_events, 0,
        "eavs-panic must absorb the storm without rebuffering"
    );
    assert_eq!(
        panic_row.qoe.late_vsyncs, 0,
        "eavs-panic must not miss a vsync under the storm"
    );
    assert!(
        panic_row.panic_races > 0,
        "the storm must actually trigger panic re-races"
    );

    let stock_degraded = reports[..reports.len() - 1]
        .iter()
        .any(|r| r.qoe.rebuffer_events > 0 || r.qoe.late_vsyncs > 0);
    assert!(
        stock_degraded,
        "at least one stock governor must rebuffer or miss vsyncs under the storm"
    );

    // Every row faced the same scripted network faults: the corrupt
    // segment was re-downloaded (not silently swallowed) everywhere.
    for (name, r) in labels.iter().zip(&reports) {
        assert!(
            r.corrupt_downloads() >= 1,
            "{name}: corruption not injected"
        );
        assert!(r.download_retries() >= 1, "{name}: no retry recorded");
        assert_eq!(
            r.segments_abandoned(),
            0,
            "{name}: storm must be recoverable"
        );
    }
}

/// F25 sanity: the policy sweep spans the qualitative regimes — the
/// watchdog-free row hangs on the first stall (session runs to the
/// safety horizon) while the balanced row finishes near content length.
#[test]
fn f25_policies_span_the_design_space() {
    let policies = f25_policies();
    assert!(policies.len() >= 4);
    let labels: Vec<&str> = policies.iter().map(|(l, _)| *l).collect();
    assert!(labels.contains(&"balanced"));
    assert!(labels.contains(&"no-watchdog"));
    let no_watchdog = &policies
        .iter()
        .find(|(l, _)| *l == "no-watchdog")
        .unwrap()
        .1;
    assert!(no_watchdog.timeout.is_none());
}

/// Determinism under faults: a storm session run through the
/// shared pool is byte-identical (Debug repr) to the same session
/// run serially — fault decisions are coordinate-keyed, never
/// thread-order-dependent.
#[test]
fn faulted_pool_execution_matches_serial() {
    let manifest = Arc::new(Manifest::single(
        3_000,
        1280,
        720,
        SimDuration::from_secs(20),
        30,
    ));
    let names = ["ondemand", "schedutil", "eavs", "eavs-panic"];

    let run_one = |name: &str, seed: u64, manifest: Arc<Manifest>| {
        StreamingSession::builder(governor(name))
            .manifest(manifest)
            .content(ContentProfile::Sport)
            .faults(FaultPlan::standard_storm())
            .retry(balanced_retry())
            .seed(seed)
            .run()
    };

    let serial: Vec<String> = names
        .iter()
        .flat_map(|&name| {
            let manifest = Arc::clone(&manifest);
            (0..2u64).map(move |k| format!("{:?}", run_one(name, 100 + k, Arc::clone(&manifest))))
        })
        .collect();

    let pooled: Vec<String> = run_parallel_labeled(
        names
            .iter()
            .flat_map(|&name| {
                let manifest = Arc::clone(&manifest);
                (0..2u64).map(move |k| {
                    let manifest = Arc::clone(&manifest);
                    let job = move || format!("{:?}", run_one(name, 100 + k, manifest));
                    (format!("faulted determinism {name} seed {k}"), job)
                })
            })
            .collect(),
    );

    assert_eq!(serial, pooled, "pool execution changed faulted results");
}
