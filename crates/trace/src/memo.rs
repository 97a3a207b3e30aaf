//! Process-wide memoization of generated traces.
//!
//! Generation is deterministic in its inputs: segment `(manifest,
//! content, seed, index, rung)` and bandwidth `(profile, duration, step,
//! seed)` tuples always produce the same bytes. Experiments re-derive the
//! same workloads dozens of times (one per governor per figure), so the
//! generators keep keyed caches here and hand out `Arc`s instead of
//! rebuilding.
//!
//! Builders run *outside* the lock: two threads racing on the same key
//! may both build, but they build identical values, so whichever insert
//! wins is indistinguishable from the other.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use eavs_net::bandwidth::BandwidthTrace;
use eavs_video::segment::Segment;

/// Hit/miss counters of one cache since process start.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the value.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Memo<K, V> {
    map: Mutex<HashMap<K, Arc<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    fn new() -> Self {
        Memo {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        if let Some(v) = self.map.lock().expect("memo poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build());
        Arc::clone(
            self.map
                .lock()
                .expect("memo poisoned")
                .entry(key)
                .or_insert(built),
        )
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Key: (generator identity digest, segment index, rung).
type SegmentKey = (u128, u64, usize);
/// Key: (profile name, duration ns, step ns, seed).
type TraceKey = (&'static str, u64, u64, u64);

fn segments() -> &'static Memo<SegmentKey, Segment> {
    static CACHE: OnceLock<Memo<SegmentKey, Segment>> = OnceLock::new();
    CACHE.get_or_init(Memo::new)
}

fn traces() -> &'static Memo<TraceKey, BandwidthTrace> {
    static CACHE: OnceLock<Memo<TraceKey, BandwidthTrace>> = OnceLock::new();
    CACHE.get_or_init(Memo::new)
}

pub(crate) fn shared_segment(key: SegmentKey, build: impl FnOnce() -> Segment) -> Arc<Segment> {
    segments().get_or_build(key, build)
}

pub(crate) fn shared_trace(
    key: TraceKey,
    build: impl FnOnce() -> BandwidthTrace,
) -> Arc<BandwidthTrace> {
    traces().get_or_build(key, build)
}

/// Counters of the segment cache.
pub fn segment_cache_stats() -> CacheStats {
    segments().stats()
}

/// Counters of the bandwidth-trace cache.
pub fn trace_cache_stats() -> CacheStats {
    traces().stats()
}

/// Branch tags of the EAVS governor's decision logic: which branch fired
/// for one frequency decision.
pub mod decision_kind {
    /// Structural maximum: fill race or an open panic window.
    pub const STRUCTURAL_MAX: u8 = 0;
    /// Playback ended: policy minimum.
    pub const ENDED_MIN: u8 = 1;
    /// Paced fill (race disabled): select on the fill window's demand.
    pub const PACED_FILL: u8 = 2;
    /// Playing with an empty demand list: select on zero demand.
    pub const IDLE: u8 = 3;
    /// Playing with pending work: select on the pipeline's demand.
    pub const DEMAND: u8 = 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_returns_same_arc_and_counts() {
        let memo: Memo<u32, String> = Memo::new();
        let a = memo.get_or_build(1, || "one".to_owned());
        let b = memo.get_or_build(1, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        let _ = memo.get_or_build(2, || "two".to_owned());
        assert_eq!(memo.stats().misses, 2);
    }

    #[test]
    fn hit_rate_handles_empty_and_counts() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
