//! Content-addressed session memoization.
//!
//! Sessions are deterministic: [`SessionBuilder::fingerprint`] digests
//! every input that influences the outcome, so a process-wide map from
//! fingerprint to `Arc<SessionReport>` lets every figure module (and a
//! second `run_all` pass) reuse sessions instead of re-simulating them.
//! Builders whose components carry learned state fingerprint as `None`
//! and always run.
//!
//! [`run_sessions`] is the one runner: every figure and the fleet's
//! pooled runner hand it `(label, builder)` batches. A miss is claimed as
//! an in-flight entry the moment it is fingerprinted and goes straight to
//! the shared pool; a lookup in any batch that finds the key in flight
//! waits for that run, helping the pool meanwhile. Each key is therefore
//! simulated once per process, whatever `EAVS_JOBS` says, and sessions
//! still run *outside* the lock.
//!
//! The store also keeps one copy of each distinct frame-cost summary
//! ([`SessionReport::frame_cycles`]). A frame's decode cost does not
//! depend on the clock it runs at, so every governor lane of one stream
//! tallies an equal summary. Before a fresh report is published, its
//! summary is swapped for the equal resident one, if any. The table of
//! resident summaries is keyed by the summary itself, never by a hash
//! of it, so two different summaries are never merged. It counts the
//! resident reports that use each summary and drops a summary with the
//! last of them.

use eavs_core::framestats::FrameCycleStats;
use eavs_core::report::SessionReport;
use eavs_core::session::SessionBuilder;
use std::collections::hash_map::Entry as SummaryEntry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Counters of the session cache since process start.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SessionCacheStats {
    /// Sessions served from the cache.
    pub hits: u64,
    /// Sessions that had to be simulated (and were then cached).
    pub misses: u64,
    /// Sessions that could not be fingerprinted (pre-warmed components)
    /// and ran uncached.
    pub uncacheable: u64,
    /// Approximate resident bytes of the cached reports, each distinct
    /// frame-cost summary counted once.
    pub bytes: u64,
    /// Reports evicted to stay under the byte cap.
    pub evictions: u64,
    /// Reports resident now.
    pub reports: u64,
    /// Distinct frame-cost summaries the resident reports share.
    pub summaries: u64,
}

impl SessionCacheStats {
    /// Fraction of cacheable lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static UNCACHEABLE: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// A cache entry: a finished report, or a run some batch has claimed.
enum Entry {
    Ready(Arc<SessionReport>),
    InFlight,
}

/// The bounded report store: insertion order doubles as eviction order.
#[derive(Default)]
struct CacheInner {
    map: HashMap<u128, Entry>,
    /// Keys of ready reports in insertion order; the front is next to
    /// evict.
    order: VecDeque<u128>,
    /// The ready reports' distinct frame-cost summaries, each with the
    /// number of ready reports that use it.
    summaries: HashMap<Arc<FrameCycleStats>, u64>,
    /// Approximate resident bytes of the ready reports, each summary
    /// counted once.
    bytes: u64,
}

fn store() -> &'static Mutex<CacheInner> {
    static MAP: OnceLock<Mutex<CacheInner>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(CacheInner::default()))
}

fn cache() -> MutexGuard<'static, CacheInner> {
    store().lock().expect("session cache poisoned")
}

/// Resident-byte cap: 64 MiB. Reports are a few KB each (tens of KB with
/// series), so the cap holds every figure of a full `run_all` with room
/// to spare while bounding pathological callers.
const CAP_BYTES: u64 = 64 << 20;

/// Publishes `report` under `key` and returns it, shared: its summary
/// becomes the equal resident one, if any. Inserts under the cap,
/// evicting oldest-inserted reports first. The just-inserted report is
/// never evicted (the loop stops at one resident entry), so an oversized
/// report still gets returned and cached until the next insert. If a
/// report is already there under `key`, returns that one instead.
fn insert_bounded(
    inner: &mut CacheInner,
    cap: u64,
    key: u128,
    mut report: SessionReport,
) -> Arc<SessionReport> {
    if let Some(Entry::Ready(resident)) = inner.map.get(&key) {
        return Arc::clone(resident);
    }
    inner.bytes += share_summary(&mut inner.summaries, &mut report);
    let report = Arc::new(report);
    inner.map.insert(key, Entry::Ready(Arc::clone(&report)));
    inner.order.push_back(key);
    while inner.bytes > cap && inner.order.len() > 1 {
        let oldest = inner.order.pop_front().expect("len checked");
        if let Some(Entry::Ready(evicted)) = inner.map.remove(&oldest) {
            inner.bytes -= release_summary(&mut inner.summaries, &evicted);
            EVICTIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
    report
}

/// Points `report` at the resident summary equal to its own, or makes
/// its own resident, and counts one more user of it. Returns the bytes
/// the report adds to the store: its summary's only when that is new.
fn share_summary(
    summaries: &mut HashMap<Arc<FrameCycleStats>, u64>,
    report: &mut SessionReport,
) -> u64 {
    match summaries.entry(Arc::clone(&report.frame_cycles)) {
        SummaryEntry::Occupied(mut resident) => {
            report.frame_cycles = Arc::clone(resident.key());
            *resident.get_mut() += 1;
            report.approx_bytes() - report.summary_bytes()
        }
        SummaryEntry::Vacant(slot) => {
            slot.insert(1);
            report.approx_bytes()
        }
    }
}

/// Counts one user fewer of an evicted report's summary, dropping the
/// summary with its last user. Returns the bytes the store frees.
fn release_summary(
    summaries: &mut HashMap<Arc<FrameCycleStats>, u64>,
    report: &SessionReport,
) -> u64 {
    let freed = report.approx_bytes() - report.summary_bytes();
    let users = summaries
        .get_mut(&*report.frame_cycles)
        .expect("a resident report's summary is in the table");
    *users -= 1;
    if *users > 0 {
        return freed;
    }
    summaries.remove(&*report.frame_cycles);
    freed + report.summary_bytes()
}

/// A shared no-op trace sink attached to every session when
/// `EAVS_NULL_TRACE` is set. Unlike an empty fault plan, power model or
/// prior, which the builder stores as absent, a
/// [`NullSink`](eavs_obs::NullSink) is a real sink: the tap is installed
/// and every emit closure runs. It must still be a perfect behavioral
/// no-op, so this mode is CI's proof that the tracing wiring leaves
/// every committed figure byte-identical.
fn forced_null_trace() -> Option<eavs_obs::SharedSink> {
    static FORCE: OnceLock<Option<eavs_obs::SharedSink>> = OnceLock::new();
    FORCE
        .get_or_init(|| {
            crate::executor::env_knob::<String>("EAVS_NULL_TRACE").map(|_| {
                let sink: eavs_obs::SharedSink = eavs_obs::shared(eavs_obs::NullSink);
                sink
            })
        })
        .clone()
}

/// Attaches the forced `EAVS_NULL_TRACE` sink and returns the builder
/// with its cache key: `None` (counted as uncacheable) when it must run
/// uncached.
///
/// Builders carrying an observer (trace sink or profiler) always run —
/// a cache hit would skip the observer's side effects. The forced
/// sink is attached *after* that check: it is not a caller observer,
/// and sessions must stay cacheable under it so the CI golden pass
/// exercises the identical hit/miss pattern. Builders whose components
/// carry learned state cannot be fingerprinted.
fn prepare(builder: SessionBuilder) -> (SessionBuilder, Option<u128>) {
    if builder.has_observer() {
        UNCACHEABLE.fetch_add(1, Ordering::Relaxed);
        return (builder, None);
    }
    let builder = match forced_null_trace() {
        Some(sink) => builder.trace(sink),
        None => builder,
    };
    let key = builder.fingerprint().map(|fp| fp.0);
    if key.is_none() {
        UNCACHEABLE.fetch_add(1, Ordering::Relaxed);
    }
    (builder, key)
}

/// What a lookup found under a key.
enum Lookup {
    Hit(Arc<SessionReport>),
    /// Another run holds the claim on this key: wait for it ([`settle`]).
    InFlight(u128),
    /// Absent: the caller now holds the claim and must run the session.
    Miss(Claim),
}

/// Looks `key` up, claiming it when absent. An in-flight key counts as a
/// hit, since its report is on its way.
fn lookup(key: u128) -> Lookup {
    let mut inner = cache();
    match inner.map.get(&key) {
        Some(Entry::Ready(report)) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            Lookup::Hit(Arc::clone(report))
        }
        Some(Entry::InFlight) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            Lookup::InFlight(key)
        }
        None => {
            inner.map.insert(key, Entry::InFlight);
            MISSES.fetch_add(1, Ordering::Relaxed);
            Lookup::Miss(Claim(key))
        }
    }
}

/// An in-flight entry the holder must fill. [`Claim::fulfil`] publishes
/// the report; a claim dropped unfilled (its session panicked) withdraws
/// the entry, so waiters stop waiting.
struct Claim(u128);

impl Claim {
    /// Publishes `report` and returns it as the cache holds it, its
    /// summary shared.
    fn fulfil(self, report: SessionReport) -> Arc<SessionReport> {
        let report = insert_bounded(&mut cache(), CAP_BYTES, self.0, report);
        std::mem::forget(self);
        report
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        // Runs while the session's panic unwinds, so it must not panic:
        // every update of the store leaves it valid.
        let mut inner = store().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(Entry::InFlight) = inner.map.get(&self.0) {
            inner.map.remove(&self.0);
        }
    }
}

/// Helps the pool until `key` is no longer in flight, then returns its
/// report if it is resident. Session runs never wait on the cache, so the
/// run that holds the claim always finishes.
fn settle(key: u128) -> Option<Arc<SessionReport>> {
    crate::executor::pool().help_until(|| match cache().map.get(&key) {
        Some(Entry::InFlight) => None,
        Some(Entry::Ready(report)) => Some(Some(Arc::clone(report))),
        None => Some(None),
    })
}

/// Runs a labeled batch of sessions through the cache, returning reports
/// in input order.
///
/// Each builder is prepared (`prepare`) and looked up on the calling
/// thread. A miss is claimed and spawned on the pool at once; its run
/// publishes the report, its frame-cost summary shared with the equal
/// resident one, as soon as it finishes. Uncached runs keep their own
/// summary. A key another run holds (an earlier job of this call, or a
/// concurrent batch) is waited for after this call's own runs are in. Hit and miss counts are therefore
/// independent of `EAVS_JOBS` as long as nothing is evicted.
pub fn run_sessions(jobs: Vec<(String, SessionBuilder)>) -> Vec<Arc<SessionReport>> {
    enum Slot {
        Done(Arc<SessionReport>),
        /// This call's run, by batch index.
        Run(usize),
        /// Another run's key; the job is kept in case that run fails, and
        /// boxed so the common slots stay small.
        Await(u128, Box<(String, SessionBuilder)>),
    }
    let mut batch = crate::executor::pool().batch();
    let mut slots: Vec<Slot> = Vec::with_capacity(jobs.len());
    for (label, builder) in jobs {
        let (builder, key) = prepare(builder);
        let claim = match key.map(lookup) {
            Some(Lookup::Hit(report)) => {
                slots.push(Slot::Done(report));
                continue;
            }
            Some(Lookup::InFlight(key)) => {
                slots.push(Slot::Await(key, Box::new((label, builder))));
                continue;
            }
            Some(Lookup::Miss(claim)) => Some(claim),
            None => None,
        };
        let index = batch.spawn(label, move || {
            let report = builder.run();
            match claim {
                Some(claim) => claim.fulfil(report),
                None => Arc::new(report),
            }
        });
        slots.push(Slot::Run(index));
    }

    let reports = batch.join();
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Done(report) => report,
            Slot::Run(index) => Arc::clone(&reports[index]),
            // Not resident once settled (the claiming run panicked, or the
            // report was evicted already): run it here, uncached.
            Slot::Await(key, job) => settle(key).unwrap_or_else(|| {
                let (label, builder) = *job;
                let mut rerun = crate::executor::pool().batch();
                rerun.spawn(label, move || Arc::new(builder.run()));
                rerun.join().pop().expect("one report")
            }),
        })
        .collect()
}

/// Counters of the session cache.
pub fn stats() -> SessionCacheStats {
    let inner = cache();
    SessionCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        uncacheable: UNCACHEABLE.load(Ordering::Relaxed),
        bytes: inner.bytes,
        evictions: EVICTIONS.load(Ordering::Relaxed),
        reports: inner.order.len() as u64,
        summaries: inner.summaries.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{eavs_default, governor, manifest_1080p30};
    use eavs_core::session::StreamingSession;
    /// Every governor lane of the first `draws` sessions of the `global`
    /// campaign: streams whose lanes tally equal frame-cost summaries.
    fn lanes(draws: u64) -> Vec<SessionBuilder> {
        use eavs_fleet::campaign::{builder_for, draw_session};
        let spec = eavs_fleet::CampaignSpec::global();
        (0..draws)
            .flat_map(|id| {
                let draw = draw_session(&spec, id);
                spec.governors
                    .iter()
                    .map(move |gov| builder_for(&draw, gov).expect("known governor"))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// A session whose only P-frames cost `mcycles` each.
    fn summary_of(mcycles: &[f64]) -> FrameCycleStats {
        let mut tally = eavs_core::framestats::FrameCycleTally::default();
        for &m in mcycles {
            tally.observe(
                eavs_video::frame::FrameType::P,
                eavs_cpu::freq::Cycles::from_mega(m),
            );
        }
        tally.finish()
    }

    /// One session through the batch runner.
    fn run_one(builder: SessionBuilder) -> Arc<SessionReport> {
        run_sessions(vec![("cache test".into(), builder)])
            .pop()
            .expect("one report per job")
    }

    fn builder() -> SessionBuilder {
        StreamingSession::builder(eavs_default())
            .manifest(manifest_1080p30(4))
            .seed(7)
    }

    #[test]
    fn identical_builders_share_one_report() {
        // A seed no other test uses, so the first run is a genuine miss.
        let mk = || {
            StreamingSession::builder(eavs_default())
                .manifest(manifest_1080p30(4))
                .seed(777)
        };
        let before = stats();
        let a = run_one(mk());
        let b = run_one(mk());
        assert!(Arc::ptr_eq(&a, &b), "second run must be a cache hit");
        let after = stats();
        assert!(after.hits > before.hits);
        assert!(after.bytes > before.bytes);
    }

    #[test]
    fn different_seeds_do_not_collide() {
        let a = run_one(builder());
        let b = run_one(
            StreamingSession::builder(eavs_default())
                .manifest(manifest_1080p30(4))
                .seed(8),
        );
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.cpu_joules(), b.cpu_joules());
    }

    #[test]
    fn cached_report_matches_direct_run() {
        let cached = run_one(builder());
        let direct = builder().run();
        assert_eq!(cached.cpu_joules(), direct.cpu_joules());
        assert_eq!(cached.transitions, direct.transitions);
        assert_eq!(cached.events_processed, direct.events_processed);
    }

    #[test]
    fn observed_builders_bypass_the_cache() {
        use eavs_obs::{shared, RingSink};
        let mk = || {
            StreamingSession::builder(eavs_default())
                .manifest(manifest_1080p30(4))
                .seed(991)
                .trace(shared(RingSink::new(256)))
        };
        let before = stats();
        let a = run_one(mk());
        let b = run_one(mk());
        // Each run must actually simulate (the sink needs its events).
        assert!(!Arc::ptr_eq(&a, &b));
        let after = stats();
        assert!(after.uncacheable >= before.uncacheable + 2);
        // Determinism still holds between the uncached runs.
        assert_eq!(a.cpu_joules(), b.cpu_joules());
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn baseline_governors_are_cacheable() {
        let mk = || {
            StreamingSession::builder(governor("ondemand"))
                .manifest(manifest_1080p30(4))
                .seed(11)
        };
        let a = run_one(mk());
        let b = run_one(mk());
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn eviction_is_insertion_ordered_and_spares_the_newest() {
        // Drive the bounded store directly with a cap below one report.
        let mut inner = CacheInner::default();
        let report = builder().run();
        let before = EVICTIONS.load(Ordering::Relaxed);
        insert_bounded(&mut inner, 1, 0xA, report.clone());
        assert!(
            inner.map.contains_key(&0xA),
            "newest entry is never evicted"
        );
        insert_bounded(&mut inner, 1, 0xB, report.clone());
        insert_bounded(&mut inner, 1, 0xC, report.clone());
        assert_eq!(inner.order.len(), 1);
        assert!(inner.map.contains_key(&0xC));
        assert!(!inner.map.contains_key(&0xA) && !inner.map.contains_key(&0xB));
        assert_eq!(EVICTIONS.load(Ordering::Relaxed) - before, 2);
        assert_eq!(inner.bytes, report.approx_bytes());
        // A roomy cap evicts nothing.
        let mut roomy = CacheInner::default();
        insert_bounded(&mut roomy, u64::MAX, 0xA, report.clone());
        insert_bounded(&mut roomy, u64::MAX, 0xB, report);
        assert_eq!(roomy.map.len(), 2);
    }

    #[test]
    fn a_panicking_session_withdraws_its_claim() {
        use eavs_core::session::ClusterSelect;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Automatic placement asserts an EAVS governor when the run starts.
        let mk = || {
            StreamingSession::builder(governor("ondemand"))
                .manifest(manifest_1080p30(4))
                .seed(5_151)
                .cluster(ClusterSelect::Auto)
        };
        let key = mk().fingerprint().expect("cacheable").0;
        for _ in 0..2 {
            // The duplicate waits on the first job's claim, which the panic
            // withdraws; the call re-raises the first job's panic.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_sessions(vec![("first".into(), mk()), ("duplicate".into(), mk())])
            }));
            let payload = caught.expect_err("the session panics");
            let msg = payload
                .downcast_ref::<String>()
                .expect("labeled panic message");
            assert!(msg.contains("'first'"), "got: {msg}");
            assert!(!cache().map.contains_key(&key), "claim withdrawn");
        }
    }

    #[test]
    fn run_sessions_matches_scalar_runs_and_dedupes_within_a_call() {
        use crate::harness::eavs_with;
        use eavs_core::governor::EavsConfig;
        // A margin sweep. Seed unique to this test so every lookup is a
        // genuine miss.
        let margins = [0.0, 0.10, 0.15, 0.30, 0.50];
        let mk = |margin| {
            StreamingSession::builder(eavs_with(
                EavsConfig {
                    margin,
                    ..EavsConfig::default()
                },
                "hybrid",
            ))
            .manifest(manifest_1080p30(4))
            .seed(31_337)
        };
        let expected: Vec<String> = margins
            .iter()
            .map(|&m| format!("{:?}", mk(m).run()))
            .collect();
        let got = run_sessions(
            margins
                .iter()
                .map(|&m| (format!("margin {m}"), mk(m)))
                .collect(),
        );
        for (i, r) in got.iter().enumerate() {
            assert_eq!(format!("{:?}", **r), expected[i], "margin {}", margins[i]);
        }
        // A duplicate job in the same call shares the result, and a later
        // call is served from the cache.
        let twice = run_sessions(vec![("a".into(), mk(0.7)), ("b".into(), mk(0.7))]);
        assert!(Arc::ptr_eq(&twice[0], &twice[1]));
        let again = run_sessions(vec![("c".into(), mk(0.7))]);
        assert!(Arc::ptr_eq(&twice[0], &again[0]));
    }

    #[test]
    fn equal_summaries_are_stored_once_and_counted_once() {
        let mut inner = CacheInner::default();
        let reports: Vec<_> = lanes(2)
            .into_iter()
            .enumerate()
            .map(|(key, b)| insert_bounded(&mut inner, u64::MAX, key as u128, b.run()))
            .collect();
        let mut distinct: Vec<&Arc<FrameCycleStats>> = Vec::new();
        for r in &reports {
            match distinct.iter().find(|d| **d == &r.frame_cycles) {
                Some(d) => assert!(Arc::ptr_eq(d, &r.frame_cycles), "equal but not shared"),
                None => distinct.push(&r.frame_cycles),
            }
        }
        assert!(distinct.len() < reports.len(), "some lanes share");
        assert_eq!(inner.summaries.len(), distinct.len());
        for summary in &distinct {
            let users = reports
                .iter()
                .filter(|r| Arc::ptr_eq(&r.frame_cycles, summary))
                .count() as u64;
            assert_eq!(inner.summaries[&***summary], users);
        }
        let unshared: u64 = reports.iter().map(|r| r.approx_bytes()).sum();
        let shared: u64 = reports
            .iter()
            .map(|r| r.approx_bytes() - r.summary_bytes())
            .sum::<u64>()
            + distinct
                .iter()
                .map(|s| {
                    let user = reports.iter().find(|r| Arc::ptr_eq(&r.frame_cycles, s));
                    user.expect("a user").summary_bytes()
                })
                .sum::<u64>();
        assert_eq!(inner.bytes, shared);
        assert!(inner.bytes < unshared);
    }

    #[test]
    fn summaries_that_differ_only_in_their_bins_are_not_merged() {
        use eavs_core::framestats::PRIOR_HIST_BINS;
        use eavs_video::frame::FrameType;
        let bins = |s: &FrameCycleStats| -> Vec<u64> {
            (0..PRIOR_HIST_BINS)
                .map(|i| s.bin_count(FrameType::P, i))
                .collect()
        };
        // Equal count, sum and sum of squares (12 and 62), different bins.
        let (a, b) = (summary_of(&[1.0, 5.0, 6.0]), summary_of(&[2.0, 3.0, 7.0]));
        assert_eq!(a.mcycles(FrameType::P), b.mcycles(FrameType::P));
        assert_eq!(a.mcycles_sq(FrameType::P), b.mcycles_sq(FrameType::P));
        assert_ne!(bins(&a), bins(&b));
        let base = builder().run();
        let with = |summary: &FrameCycleStats| {
            let mut report = base.clone();
            report.frame_cycles = Arc::new(summary.clone());
            report
        };
        let mut inner = CacheInner::default();
        let ra = insert_bounded(&mut inner, u64::MAX, 1, with(&a));
        let rb = insert_bounded(&mut inner, u64::MAX, 2, with(&b));
        let ra2 = insert_bounded(&mut inner, u64::MAX, 3, with(&a));
        assert_eq!(bins(&ra.frame_cycles), bins(&a));
        assert_eq!(bins(&rb.frame_cycles), bins(&b), "b got a's summary");
        assert!(Arc::ptr_eq(&ra.frame_cycles, &ra2.frame_cycles));
        assert_eq!(inner.summaries.len(), 2);
    }

    #[test]
    fn eviction_under_a_tiny_cap_empties_the_summary_table() {
        let mut inner = CacheInner::default();
        for (key, b) in lanes(3).into_iter().enumerate() {
            let newest = insert_bounded(&mut inner, 1, key as u128, b.run());
            // Only the newest report stays, so only its summary does.
            assert_eq!(inner.order.len(), 1);
            assert_eq!(inner.summaries.len(), 1, "insert {key}");
            assert_eq!(inner.summaries.get(&*newest.frame_cycles), Some(&1));
            assert_eq!(inner.bytes, newest.approx_bytes(), "insert {key}");
        }
    }
}
