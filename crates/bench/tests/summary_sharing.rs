//! The session cache stores each distinct frame-cost summary once for
//! all the reports it holds. A frame's decode cost does not depend on the
//! clock, so every governor lane of one stream tallies an equal summary,
//! and the lanes `run_sessions` returns must share one allocation of it,
//! while different streams keep their own. The cache's byte count, which
//! counts each shared summary once, must match what the reports really
//! hold, and a fleet shard's footprint counts each shared summary once
//! too.
//!
//! Alone in its test binary, with a one-worker pool, so every session
//! runs on the calling thread, whose allocations the counting allocator
//! sees, and the cache counters move only for these tests, which take
//! turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};

use eavs_bench::cache::{run_sessions, stats};
use eavs_core::report::SessionReport;
use eavs_core::session::SessionBuilder;
use eavs_fleet::campaign::{builder_for, draw_session, run_shard, SessionDraw};
use eavs_fleet::spec::AbrChoice;
use eavs_fleet::CampaignSpec;

struct CountingAlloc;

thread_local! {
    /// Bytes this thread holds: allocated minus freed, by layout size. A
    /// `const` initialiser and no destructor, so counting never allocates
    /// itself.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    // `try_with`: the slot is gone while the thread itself is torn down.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: delegates verbatim to `System`; the counter is a thread-local
// `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Sets a one-worker pool before anything starts it, and runs the tests
/// one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static ONE_WORKER: Once = Once::new();
    static SERIAL: Mutex<()> = Mutex::new(());
    ONE_WORKER.call_once(|| std::env::set_var("EAVS_JOBS", "1"));
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The `global` campaign with perfbench's extra governor: six lanes.
fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::global();
    spec.governors.push("eavs-panic".to_owned());
    spec
}

/// Every governor lane of `draw`, labeled.
fn lanes(spec: &CampaignSpec, draw: &SessionDraw) -> Vec<(String, SessionBuilder)> {
    spec.governors
        .iter()
        .map(|gov| (gov.clone(), builder_for(draw, gov).expect("known governor")))
        .collect()
}

#[test]
fn the_lanes_of_one_stream_share_one_summary_and_other_streams_do_not() {
    let _serial = serial();
    let spec = spec();
    let fixed: Vec<SessionDraw> = (0..)
        .map(|id| draw_session(&spec, id))
        .filter(|draw| draw.abr == AbrChoice::Fixed)
        .take(2)
        .collect();
    let before = stats();
    let first = run_sessions(lanes(&spec, &fixed[0]));
    let other = run_sessions(lanes(&spec, &fixed[1]));
    let after = stats();
    for (gov, report) in spec.governors.iter().zip(&first) {
        assert!(
            Arc::ptr_eq(&report.frame_cycles, &first[0].frame_cycles),
            "{gov} keeps its own copy of the stream's summary"
        );
        // The shared summary is the lane's own, not merely an equal-hash one.
        let direct = builder_for(&fixed[0], gov).expect("known governor").run();
        assert_eq!(report.frame_cycles, direct.frame_cycles, "{gov}");
    }
    assert_ne!(first[0].frame_cycles, other[0].frame_cycles);
    assert!(!Arc::ptr_eq(&first[0].frame_cycles, &other[0].frame_cycles));
    assert_eq!(after.misses - before.misses, 12);
    assert_eq!(after.reports - before.reports, 12);
    // At most the two streams' summaries are new: another stream of the
    // same title may have made one resident already.
    assert!(after.summaries - before.summaries <= 2);
}

#[test]
fn the_counted_bytes_match_what_a_shared_batch_holds() {
    let _serial = serial();
    let spec = spec();
    let batch = |ids: std::ops::Range<u64>| -> Vec<(String, SessionBuilder)> {
        ids.flat_map(|id| lanes(&spec, &draw_session(&spec, id)))
            .collect()
    };
    // Grow the cache's key map and ring first: 100 draws take them past
    // 512 entries, to room for 896, so the 120 reports measured below
    // add no slot storage whichever of the other tests (132 reports at
    // most) ran first, and the bytes they hold are their own. Draws
    // 200..220 are unseen by the other tests.
    drop(run_sessions(batch(300..400)));
    // Warm the memos and this thread's scratch, so a measured run leaves
    // nothing behind but its report.
    for (_, builder) in batch(200..220) {
        builder.run();
    }
    let (before, bytes_before) = (live_bytes(), stats().bytes);
    let reports: Vec<Arc<SessionReport>> = run_sessions(batch(200..220));
    let unshared: u64 = reports.iter().map(|r| r.approx_bytes()).sum();
    drop(reports);
    let held = live_bytes() - before;
    let counted = (stats().bytes - bytes_before) as i64;
    assert!(
        (counted - held).abs() * 10 <= held,
        "the cache counts {counted} bytes for a batch that holds {held}"
    );
    // Without the sharing the batch would hold far more.
    assert!(unshared as i64 > held * 13 / 10, "{unshared} vs {held}");
}

#[test]
fn a_shard_counts_each_shared_summary_once() {
    let _serial = serial();
    let mut spec = spec();
    // 20 draws a shard; shard 25 holds draws 500..520, which the other
    // tests never run.
    spec.shard_size = 20;
    let reports = RefCell::new(Vec::new());
    let runner = |jobs: Vec<(String, SessionBuilder)>| -> Vec<Arc<SessionReport>> {
        let out = run_sessions(jobs);
        reports.borrow_mut().clone_from(&out);
        out
    };
    let outcome = run_shard(&spec, 25, &runner).expect("valid shard");
    let reports = reports.into_inner();
    let mut seen = HashSet::new();
    let mut expected = outcome.partial.approx_bytes();
    let mut unshared = outcome.partial.approx_bytes();
    for r in &reports {
        expected += r.approx_bytes() - r.summary_bytes();
        if seen.insert(Arc::as_ptr(&r.frame_cycles)) {
            expected += r.summary_bytes();
        }
        unshared += r.approx_bytes();
    }
    assert_eq!(outcome.shard_bytes, expected);
    // The shard's lanes share their stream's summary: counting it per
    // lane would count it six times.
    assert!(seen.len() * spec.governors.len() <= reports.len());
    assert!(unshared > expected);
}
