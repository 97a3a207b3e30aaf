//! Process-wide memoization of generated traces, bounded by resident
//! bytes.
//!
//! Generation is deterministic in its inputs: segment `(manifest,
//! content, seed, index, rung)` and bandwidth `(profile, duration, step,
//! seed)` tuples always produce the same bytes. Experiments re-derive the
//! same workloads dozens of times (one per governor per figure), so the
//! generators keep keyed caches here and hand out `Arc`s instead of
//! rebuilding.
//!
//! Each store has a byte cap ([`SEGMENT_CAP_BYTES`], [`TRACE_CAP_BYTES`])
//! and evicts by recency (second chance): a hit marks its entry, and an
//! insert that pushes the resident bytes past the cap sweeps the key ring
//! from the front, sparing a marked entry once (clearing its mark and
//! moving it to the back) and dropping the first unmarked one, until the
//! store fits again. The value just inserted is never swept, so a value
//! larger than the cap is still returned and cached until the next
//! insert. A dropped value is rebuilt on its next lookup, which costs
//! time but not a byte of output: values are pure functions of their key.
//! An evicted value stays alive while a caller holds its `Arc`.
//!
//! Builders run *outside* the lock: two threads racing on the same key
//! may both build, but they build identical values, so whichever insert
//! wins is indistinguishable from the other.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use eavs_net::bandwidth::BandwidthTrace;
use eavs_video::segment::Segment;

/// Resident-byte cap of the segment memo: 4 MiB. The shipped paths need
/// far less: a cold `run_all` generates 1.14 MiB of segments in all
/// (1,342 misses at `EAVS_JOBS=1`), perfbench's `campaign` 1.28 MiB
/// (1,748 misses) and the 50,000-run `global` campaign 1.37 MiB, so the
/// cap holds more than twice the largest of them and none of them evicts
/// (CI checks `run_all`). Fleet reuse is scoped to the catalog, whose hot
/// titles recur across all shards, so a cap near the working set would
/// cost regeneration even with recency: an insertion-order cap of 1 MiB
/// raised `campaign`'s misses from 1,748 to 2,756.
pub const SEGMENT_CAP_BYTES: u64 = 4 << 20;

/// Resident-byte cap of the bandwidth-trace memo: 256 KiB. Traces are
/// per title, not per segment, so there are few of them: a cold
/// `run_all` generates 28 KiB of traces in all (11 misses) and the
/// `global` campaign 24 KiB. The cap holds about eight times that.
pub const TRACE_CAP_BYTES: u64 = 256 << 10;

/// Hit, miss and eviction counters and resident size of one cache since
/// process start.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the value.
    pub misses: u64,
    /// Values dropped to keep the cache under its byte cap.
    pub evictions: u64,
    /// Inline plus heap bytes of the values the cache holds now; at most
    /// the cap plus the last value inserted.
    pub resident_bytes: u64,
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

/// A cached value and its second-chance mark.
struct Slot<V> {
    value: Arc<V>,
    /// Set by a hit; the sweep clears it once instead of evicting.
    referenced: bool,
}

/// What one memo's lock guards.
struct Store<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Every resident key once, in sweep order: the front goes next.
    ring: VecDeque<K>,
    stats: CacheStats,
}

struct Memo<K, V> {
    store: Mutex<Store<K, V>>,
    cap_bytes: u64,
    /// Inline plus heap bytes of one value.
    bytes_of: fn(&V) -> usize,
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    fn new(cap_bytes: u64, bytes_of: fn(&V) -> usize) -> Self {
        Memo {
            store: Mutex::new(Store {
                map: HashMap::new(),
                ring: VecDeque::new(),
                stats: CacheStats::default(),
            }),
            cap_bytes,
            bytes_of,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Store<K, V>> {
        self.store.lock().expect("memo poisoned")
    }

    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        {
            let mut guard = self.lock();
            let store = &mut *guard;
            if let Some(slot) = store.map.get_mut(&key) {
                slot.referenced = true;
                store.stats.hits += 1;
                return Arc::clone(&slot.value);
            }
            store.stats.misses += 1;
        }
        let built = Arc::new(build());
        let mut guard = self.lock();
        let store = &mut *guard;
        if let Some(slot) = store.map.get(&key) {
            return Arc::clone(&slot.value);
        }
        store.stats.resident_bytes += (self.bytes_of)(&built) as u64;
        // Sweep before the new key joins the ring, so it cannot go.
        while store.stats.resident_bytes > self.cap_bytes {
            let Some(front) = store.ring.pop_front() else {
                break;
            };
            let slot = store.map.get_mut(&front).expect("ring keys are resident");
            if std::mem::take(&mut slot.referenced) {
                store.ring.push_back(front);
                continue;
            }
            let slot = store.map.remove(&front).expect("ring keys are resident");
            store.stats.resident_bytes -= (self.bytes_of)(&slot.value) as u64;
            store.stats.evictions += 1;
        }
        store.ring.push_back(key.clone());
        let slot = Slot {
            value: Arc::clone(&built),
            referenced: false,
        };
        store.map.insert(key, slot);
        built
    }

    fn stats(&self) -> CacheStats {
        self.lock().stats
    }
}

/// Key: (generator identity digest, segment index, rung).
type SegmentKey = (u128, u64, usize);
/// Key: (profile name, duration ns, step ns, seed).
type TraceKey = (&'static str, u64, u64, u64);

fn segments() -> &'static Memo<SegmentKey, Segment> {
    static CACHE: OnceLock<Memo<SegmentKey, Segment>> = OnceLock::new();
    CACHE.get_or_init(|| Memo::new(SEGMENT_CAP_BYTES, Segment::approx_bytes))
}

fn traces() -> &'static Memo<TraceKey, BandwidthTrace> {
    static CACHE: OnceLock<Memo<TraceKey, BandwidthTrace>> = OnceLock::new();
    CACHE.get_or_init(|| Memo::new(TRACE_CAP_BYTES, BandwidthTrace::approx_bytes))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A memo of `Vec<u8>` values whose size is their length.
    fn bytes_memo(cap: u64) -> Memo<u32, Vec<u8>> {
        Memo::new(cap, Vec::len)
    }

    fn value(key: u32, len: usize) -> Vec<u8> {
        vec![key as u8; len]
    }

    fn resident_keys(memo: &Memo<u32, Vec<u8>>) -> Vec<u32> {
        let mut keys: Vec<u32> = memo.lock().map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn memo_returns_same_arc_and_counts() {
        let memo: Memo<u32, String> = Memo::new(u64::MAX, String::len);
        let a = memo.get_or_build(1, || "one".to_owned());
        let b = memo.get_or_build(1, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.resident_bytes), (1, 1, 3));
        let _ = memo.get_or_build(2, || "four".to_owned());
        assert_eq!(memo.stats().misses, 2);
        assert_eq!(memo.stats().resident_bytes, 7);
        assert_eq!(memo.stats().evictions, 0);
    }

    #[test]
    fn resident_bytes_never_exceed_the_cap_by_more_than_the_last_insert() {
        let cap = 1_000;
        let memo = bytes_memo(cap);
        // Sizes from 1 to 400 bytes, some keys revisited.
        for i in 0..2_000u32 {
            let key = i.wrapping_mul(2_654_435_761) % 300;
            let len = (key as usize * 37) % 400 + 1;
            let _ = memo.get_or_build(key, || value(key, len));
            let s = memo.stats();
            assert!(
                s.resident_bytes <= cap + len as u64,
                "lookup {i}: {} resident bytes, cap {cap}, last value {len}",
                s.resident_bytes
            );
            let store = memo.lock();
            let held: usize = store.map.values().map(|slot| slot.value.len()).sum();
            assert_eq!(held as u64, s.resident_bytes, "lookup {i}");
            assert_eq!(store.map.len(), store.ring.len(), "lookup {i}");
        }
        assert!(memo.stats().evictions > 0);
    }

    #[test]
    fn a_value_just_inserted_is_never_evicted() {
        let memo = bytes_memo(100);
        let _ = memo.get_or_build(1, || value(1, 60));
        // Over the cap on its own: the older entry goes, the new one stays.
        let big = memo.get_or_build(2, || value(2, 250));
        assert_eq!(big.len(), 250);
        assert_eq!(resident_keys(&memo), [2]);
        let again = memo.get_or_build(2, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&big, &again));
        // The next insert sweeps it out.
        let _ = memo.get_or_build(3, || value(3, 10));
        assert_eq!(resident_keys(&memo), [3]);
        let s = memo.stats();
        assert_eq!((s.evictions, s.resident_bytes), (2, 10));
    }

    #[test]
    fn an_entry_that_was_hit_survives_one_sweep() {
        let memo = bytes_memo(30);
        for key in 1..=3 {
            let _ = memo.get_or_build(key, || value(key, 10));
        }
        // Key 1 is the oldest, but the hit spares it; key 2 goes instead.
        let _ = memo.get_or_build(1, || unreachable!("must hit"));
        let _ = memo.get_or_build(4, || value(4, 10));
        assert_eq!(resident_keys(&memo), [1, 3, 4]);
        // Its mark was spent: with no new hit, the next sweeps reach it.
        let _ = memo.get_or_build(5, || value(5, 10));
        assert_eq!(resident_keys(&memo), [1, 4, 5]);
        let _ = memo.get_or_build(6, || value(6, 10));
        assert_eq!(resident_keys(&memo), [4, 5, 6]);
    }

    #[test]
    fn counts_stay_right_across_evictions() {
        let memo = bytes_memo(20);
        let _ = memo.get_or_build(1, || value(1, 10));
        let _ = memo.get_or_build(1, || unreachable!("must hit"));
        let _ = memo.get_or_build(2, || value(2, 10));
        let _ = memo.get_or_build(3, || value(3, 10)); // evicts 2 (1 was hit)
        let _ = memo.get_or_build(2, || value(2, 10)); // rebuilt, evicts 1
        let _ = memo.get_or_build(3, || unreachable!("must hit"));
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: 2,
                misses: 4,
                evictions: 2,
                resident_bytes: 20,
            }
        );
        assert_eq!(resident_keys(&memo), [2, 3]);
    }

    #[test]
    fn a_rebuilt_key_returns_equal_bytes() {
        let memo = bytes_memo(64);
        let build = |key: u32| move || (0..32).map(|i| (key * 31 + i) as u8).collect::<Vec<u8>>();
        let first = memo.get_or_build(7, build(7));
        for key in 100..110 {
            let _ = memo.get_or_build(key, build(key));
        }
        assert!(!resident_keys(&memo).contains(&7), "7 was evicted");
        let rebuilt = memo.get_or_build(7, build(7));
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(first, rebuilt);
    }

    #[test]
    fn hit_rate_handles_empty_and_counts() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
