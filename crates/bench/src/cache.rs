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

use eavs_core::report::SessionReport;
use eavs_core::session::SessionBuilder;
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
    /// Approximate resident bytes of the cached reports.
    pub bytes: u64,
    /// Reports evicted to stay under the byte cap.
    pub evictions: u64,
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
    /// Approximate resident bytes of the ready reports.
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

/// Inserts under the cap, evicting oldest-inserted reports first. The
/// just-inserted report is never evicted (the loop stops at one resident
/// entry), so an oversized report still gets returned and cached until
/// the next insert. No-op if a report is already there under `key`.
fn insert_bounded(inner: &mut CacheInner, cap: u64, key: u128, report: &Arc<SessionReport>) {
    if let Some(Entry::Ready(_)) = inner.map.get(&key) {
        return;
    }
    inner.bytes += report.approx_bytes();
    inner.map.insert(key, Entry::Ready(Arc::clone(report)));
    inner.order.push_back(key);
    while inner.bytes > cap && inner.order.len() > 1 {
        let oldest = inner.order.pop_front().expect("len checked");
        if let Some(Entry::Ready(evicted)) = inner.map.remove(&oldest) {
            inner.bytes = inner.bytes.saturating_sub(evicted.approx_bytes());
            EVICTIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
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
    fn fulfil(self, report: &Arc<SessionReport>) {
        insert_bounded(&mut cache(), CAP_BYTES, self.0, report);
        std::mem::forget(self);
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
/// publishes the report as soon as it finishes. A key another run holds
/// (an earlier job of this call, or a concurrent batch) is waited for
/// after this call's own runs are in. Hit and miss counts are therefore
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
            let report = Arc::new(builder.run());
            if let Some(claim) = claim {
                claim.fulfil(&report);
            }
            report
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
    SessionCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        uncacheable: UNCACHEABLE.load(Ordering::Relaxed),
        bytes: cache().bytes,
        evictions: EVICTIONS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{eavs_default, governor, manifest_1080p30};
    use eavs_core::session::StreamingSession;

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
        let report = Arc::new(builder().run());
        let before = EVICTIONS.load(Ordering::Relaxed);
        insert_bounded(&mut inner, 1, 0xA, &report);
        assert!(
            inner.map.contains_key(&0xA),
            "newest entry is never evicted"
        );
        insert_bounded(&mut inner, 1, 0xB, &report);
        insert_bounded(&mut inner, 1, 0xC, &report);
        assert_eq!(inner.order.len(), 1);
        assert!(inner.map.contains_key(&0xC));
        assert!(!inner.map.contains_key(&0xA) && !inner.map.contains_key(&0xB));
        assert_eq!(EVICTIONS.load(Ordering::Relaxed) - before, 2);
        assert_eq!(inner.bytes, report.approx_bytes());
        // A roomy cap evicts nothing.
        let mut roomy = CacheInner::default();
        insert_bounded(&mut roomy, u64::MAX, 0xA, &report);
        insert_bounded(&mut roomy, u64::MAX, 0xB, &report);
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
}
