//! Allocation guards on the session hot path, measured by a counting
//! global allocator:
//!
//! - Zero cost when off: attaching a [`NullSink`] (the sink the golden
//!   `EAVS_NULL_TRACE` pass forces onto every cached session; unlike an
//!   empty fault plan, power model or prior, the builder keeps it, so
//!   its tap runs) must not add heap
//!   allocations beyond the constant handful for the shared sink handle
//!   and the dispatch tap. Event payloads are built lazily behind the
//!   `Option<SharedSink>` branch, so the no-sink path allocates nothing
//!   and the NullSink path allocates only setup.
//! - Scratch reuse: `SessionBuilder::run` recycles one `SessionScratch`
//!   per thread, so a second session on the same thread allocates only
//!   what a session cannot share with its predecessor.
//!
//! The allocator counts per thread, so the tests of this binary, which
//! run concurrently, never see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eavs::obs::{shared, NullSink, SharedSink};
use eavs::scaling::governor::{EavsConfig, EavsGovernor};
use eavs::scaling::predictor::predictor_by_name;
use eavs::scaling::session::{GovernorChoice, SessionBuilder, StreamingSession};
use eavs::sim::time::SimDuration;
use eavs::video::manifest::Manifest;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Allocation calls made by this thread. A `const` initialiser and a
    /// type without a destructor, so counting never allocates itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread itself is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counter is a thread-local
// `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn builder(manifest: &Arc<Manifest>) -> SessionBuilder {
    StreamingSession::builder(GovernorChoice::Eavs(EavsGovernor::new(
        predictor_by_name("hybrid").unwrap(),
        EavsConfig::default(),
    )))
    .manifest(Arc::clone(manifest))
    .seed(4242)
}

fn allocs_for(run: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    run();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn null_sink_adds_no_measurable_allocations() {
    let manifest = Arc::new(Manifest::single(
        6_000,
        1920,
        1080,
        SimDuration::from_secs(10),
        30,
    ));
    // Warm the one-time memos (segment/trace generation) so both
    // measurements see only the session hot path.
    builder(&manifest).run();
    builder(&manifest).trace(shared(NullSink)).run();

    let plain = allocs_for(|| {
        builder(&manifest).run();
    });
    let nulled = allocs_for(|| {
        let sink: SharedSink = shared(NullSink);
        builder(&manifest).trace(sink).run();
    });

    // The PR-2 hot-path diet pinned warm sessions at ~1700 allocations;
    // leave generous slack for allocator/runtime noise, but fail well
    // before a per-event or per-frame regression (300 frames here).
    assert!(
        plain < 2_600,
        "plain warm session allocated {plain} times (diet regression?)"
    );
    // A NullSink costs setup only: the Arc<Mutex<..>>, its clones into
    // the world and the boxed dispatch tap — nothing per event.
    let delta = nulled.saturating_sub(plain);
    assert!(
        delta <= 16,
        "NullSink added {delta} allocations over a plain run ({plain} -> {nulled}); \
         tracing must be zero-cost when off"
    );
}

#[test]
fn second_run_on_a_thread_reuses_its_scratch() {
    let manifest = Arc::new(Manifest::single(
        6_000,
        1920,
        1080,
        SimDuration::from_secs(10),
        30,
    ));
    // The first run on this thread warms the one-time memos and leaves
    // the thread's scratch buffers behind for the next run.
    let first = allocs_for(|| {
        builder(&manifest).run();
    });
    let second = allocs_for(|| {
        builder(&manifest).run();
    });
    // Measured at 37 with the scratch recycled and 45 on fresh buffers
    // (10 s 1080p30, warm memos). The bound leaves a little headroom yet
    // fails if `run()` stops recycling the thread's scratch.
    assert!(
        second <= 40,
        "second run on one thread allocated {second} times (first {first}); \
         is SessionBuilder::run still recycling its thread's SessionScratch?"
    );
}
