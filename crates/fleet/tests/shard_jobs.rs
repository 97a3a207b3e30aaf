//! The footprint of the jobs `run_shard` hands its runner, measured by a
//! counting global allocator. A shard builds every job of its batch
//! before the first one runs, so their size is part of a campaign's
//! peak memory:
//!
//! - a job's inline element (label and builder) stays a few words, so
//!   the batch's one contiguous buffer stays small;
//! - a job's bytes, inline and heap, stay near their measured value;
//! - every job of one (title, ABR) pair in a shard streams one shared
//!   manifest allocation.
//!
//! The allocator counts per thread, and `run_shard` builds its jobs on
//! the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use eavs_core::report::SessionReport;
use eavs_core::session::SessionBuilder;
use eavs_fleet::campaign::{draw_session, run_shard};
use eavs_fleet::CampaignSpec;
use eavs_power::DevicePowerModel;

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

/// The campaign the `perfbench` `campaign` workload runs: `global` with
/// an `eavs-panic` lane and the phone power model. Shard 0 holds 250
/// draws × 6 lanes.
fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::global();
    spec.governors.push("eavs-panic".to_owned());
    spec.power = DevicePowerModel::phone();
    spec
}

/// Builds shard 0's jobs and hands them to `inspect` in place of a
/// runner; the shard then fails for want of reports.
fn with_shard_jobs(spec: &CampaignSpec, inspect: impl Fn(&[(String, SessionBuilder)])) {
    let runner = |jobs: Vec<(String, SessionBuilder)>| -> Vec<Arc<SessionReport>> {
        inspect(&jobs);
        Vec::new()
    };
    let err = run_shard(spec, 0, &runner).unwrap_err();
    assert!(err.contains("runner returned 0 reports"), "{err}");
}

#[test]
fn a_shard_job_is_small_inline_and_in_total() {
    let spec = spec();
    // The first build generates and memoizes the shard's bandwidth
    // traces; the measured one below only shares them.
    with_shard_jobs(&spec, |_| {});
    let before = live_bytes();
    let per_job = Cell::new(0);
    with_shard_jobs(&spec, |jobs| {
        assert_eq!(jobs.len(), 1_500);
        per_job.set((live_bytes() - before) / jobs.len() as i64);
    });
    // The labeled builder is a `String` and one pointer: 32 bytes on
    // x86_64, against 560 with the builder's fields inline.
    let inline = std::mem::size_of::<(String, SessionBuilder)>();
    assert!(
        inline <= 35,
        "a shard job takes {inline} bytes inline (ceiling 35)"
    );
    // Everything the shard holds when its runner starts, per job: the
    // inline element, the builder's boxed body, label and governor, and
    // each job's share of the draws and manifests. Measured at 834 bytes
    // on x86_64 (953 with the body inline and a manifest per job).
    let per_job = per_job.get();
    assert!(
        per_job <= 917,
        "a shard job holds {per_job} bytes (ceiling 917)"
    );
}

#[test]
fn the_jobs_of_one_title_and_abr_share_one_manifest() {
    let spec = spec();
    let lanes = spec.governors.len();
    let (start, _) = spec.shard_range(0);
    with_shard_jobs(&spec, |jobs| {
        let mut first = HashMap::new();
        for (i, (label, builder)) in jobs.iter().enumerate() {
            let draw = draw_session(&spec, start + (i / lanes) as u64);
            let manifest = first
                .entry((draw.title, draw.abr))
                .or_insert_with(|| Arc::clone(builder.streamed_manifest()));
            assert!(
                Arc::ptr_eq(manifest, builder.streamed_manifest()),
                "{label} streams its own copy of the manifest"
            );
        }
        // The shard draws more than one pair, so sharing is per pair.
        assert!(first.len() > 1);
    });
}
