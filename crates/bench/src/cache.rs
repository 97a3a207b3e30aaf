//! Content-addressed session memoization.
//!
//! Sessions are deterministic: [`SessionBuilder::fingerprint`] digests
//! every input that influences the outcome, so a process-wide map from
//! fingerprint to `Arc<SessionReport>` lets every figure module (and a
//! second `run_all` pass) reuse sessions instead of re-simulating them.
//! Builders whose components carry learned state fingerprint as `None`
//! and always run.
//!
//! The session runs *outside* the lock: two workers racing on the same
//! fingerprint may both simulate, but determinism makes the results
//! identical, so whichever insert wins is indistinguishable.

use eavs_core::report::SessionReport;
use eavs_core::session::SessionBuilder;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// The bounded report store: insertion order doubles as eviction order.
#[derive(Default)]
struct CacheInner {
    map: HashMap<u128, Arc<SessionReport>>,
    /// Keys in insertion order; the front is next to evict.
    order: VecDeque<u128>,
    /// Approximate resident bytes of `map`.
    bytes: u64,
}

fn cache() -> &'static Mutex<CacheInner> {
    static MAP: OnceLock<Mutex<CacheInner>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(CacheInner::default()))
}

/// Resident-byte cap: 64 MiB. Reports are a few KB each (tens of KB with
/// series), so the cap holds every figure of a full `run_all` with room
/// to spare while bounding pathological callers.
const CAP_BYTES: u64 = 64 << 20;

/// Inserts under the cap, evicting oldest-inserted entries first. The
/// just-inserted report is never evicted (the loop stops at one resident
/// entry), so an oversized report still gets returned and cached until
/// the next insert. No-op if the key is already present.
fn insert_bounded(inner: &mut CacheInner, cap: u64, key: u128, report: &Arc<SessionReport>) {
    if inner.map.contains_key(&key) {
        return;
    }
    inner.bytes += report.approx_bytes();
    inner.map.insert(key, Arc::clone(report));
    inner.order.push_back(key);
    while inner.bytes > cap && inner.order.len() > 1 {
        let oldest = inner.order.pop_front().expect("len checked");
        if let Some(evicted) = inner.map.remove(&oldest) {
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

/// The cached report under `key`, counting a hit.
fn lookup(key: u128) -> Option<Arc<SessionReport>> {
    let found = cache()
        .lock()
        .expect("session cache poisoned")
        .map
        .get(&key)
        .cloned();
    if found.is_some() {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    found
}

/// Runs `builder` through the process-wide session cache: a hit returns
/// the shared report without simulating; a miss simulates, caches and
/// returns it; an observed or unfingerprintable builder runs uncached.
pub fn run_session(builder: SessionBuilder) -> Arc<SessionReport> {
    let (builder, key) = prepare(builder);
    let Some(key) = key else {
        return Arc::new(builder.run());
    };
    if let Some(r) = lookup(key) {
        return r;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let report = Arc::new(builder.run());
    let mut inner = cache().lock().expect("session cache poisoned");
    if let Some(r) = inner.map.get(&key) {
        return Arc::clone(r); // a racer inserted first; identical by determinism
    }
    insert_bounded(&mut inner, CAP_BYTES, key, &report);
    report
}

/// Runs a labeled batch of sessions through the cache in one pass,
/// returning reports in input order: the vectorized [`run_session`].
///
/// Each builder is prepared exactly as [`run_session`] prepares it and
/// looked up in the cache; a builder whose key an earlier job of this
/// call already claimed shares that job's run. Every remaining builder
/// runs on the shared pool, and the new reports enter the cache in input
/// order. All of this bookkeeping happens on the calling thread, so
/// counters and eviction order are independent of `EAVS_JOBS`.
pub fn run_sessions(jobs: Vec<(String, SessionBuilder)>) -> Vec<Arc<SessionReport>> {
    enum Slot {
        Done(Arc<SessionReport>),
        /// Resolve from this call's run results by position.
        Run(usize),
    }
    let mut slots: Vec<Slot> = Vec::with_capacity(jobs.len());
    let mut runs: Vec<(String, SessionBuilder)> = Vec::new();
    let mut keys: Vec<Option<u128>> = Vec::new();
    let mut claimed: HashMap<u128, usize> = HashMap::new();
    for (label, builder) in jobs {
        let (builder, key) = prepare(builder);
        if let Some(key) = key {
            if let Some(r) = lookup(key) {
                slots.push(Slot::Done(r));
                continue;
            }
            if let Some(&run) = claimed.get(&key) {
                // Duplicate of an earlier miss in this very call.
                HITS.fetch_add(1, Ordering::Relaxed);
                slots.push(Slot::Run(run));
                continue;
            }
            MISSES.fetch_add(1, Ordering::Relaxed);
            claimed.insert(key, runs.len());
        }
        slots.push(Slot::Run(runs.len()));
        keys.push(key);
        runs.push((label, builder));
    }

    let reports: Vec<Arc<SessionReport>> = crate::executor::run_parallel_labeled(
        runs.into_iter()
            .map(|(label, builder)| (label, move || builder.run()))
            .collect(),
    )
    .into_iter()
    .map(Arc::new)
    .collect();
    {
        let mut inner = cache().lock().expect("session cache poisoned");
        for (key, report) in keys.iter().zip(&reports) {
            if let Some(key) = key {
                insert_bounded(&mut inner, CAP_BYTES, *key, report);
            }
        }
    }

    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Done(r) => r,
            Slot::Run(i) => Arc::clone(&reports[i]),
        })
        .collect()
}

/// Counters of the session cache.
pub fn stats() -> SessionCacheStats {
    SessionCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        uncacheable: UNCACHEABLE.load(Ordering::Relaxed),
        bytes: cache().lock().expect("session cache poisoned").bytes,
        evictions: EVICTIONS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{eavs_default, governor, manifest_1080p30};
    use eavs_core::session::StreamingSession;

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
        let a = run_session(mk());
        let b = run_session(mk());
        assert!(Arc::ptr_eq(&a, &b), "second run must be a cache hit");
        let after = stats();
        assert!(after.hits > before.hits);
        assert!(after.bytes > before.bytes);
    }

    #[test]
    fn different_seeds_do_not_collide() {
        let a = run_session(builder());
        let b = run_session(
            StreamingSession::builder(eavs_default())
                .manifest(manifest_1080p30(4))
                .seed(8),
        );
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.cpu_joules(), b.cpu_joules());
    }

    #[test]
    fn cached_report_matches_direct_run() {
        let cached = run_session(builder());
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
        let a = run_session(mk());
        let b = run_session(mk());
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
        let a = run_session(mk());
        let b = run_session(mk());
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
