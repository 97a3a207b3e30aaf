//! Property-based tests for the metrics crate.

use eavs_metrics::{
    mean_confidence_interval, Histogram, OnlineStats, Quantiles, ResidencyTracker, StepSeries,
};
use eavs_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Welford matches the naive two-pass mean for arbitrary data.
    #[test]
    fn online_mean_matches_naive(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s: OnlineStats = data.iter().copied().collect();
        let naive = data.iter().sum::<f64>() / data.len() as f64;
        prop_assert!((s.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
        prop_assert!(s.min() <= s.mean() + 1e-9 && s.mean() <= s.max() + 1e-9);
    }

    /// Merging shards is equivalent to a single pass.
    #[test]
    fn merge_equivalence(
        a in proptest::collection::vec(-1e3f64..1e3, 1..100),
        b in proptest::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let whole: OnlineStats = a.iter().chain(b.iter()).copied().collect();
        let mut left: OnlineStats = a.iter().copied().collect();
        let right: OnlineStats = b.iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-7);
        prop_assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-5);
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(data in proptest::collection::vec(-1e4f64..1e4, 1..200)) {
        let mut q: Quantiles = data.iter().copied().collect();
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = min;
        for i in 0..=10 {
            let v = q.quantile(i as f64 / 10.0);
            prop_assert!(v >= prev - 1e-9);
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
            prev = v;
        }
    }

    /// Histogram total always equals the number of recorded samples.
    #[test]
    fn histogram_conserves_count(data in proptest::collection::vec(-10.0f64..20.0, 0..300)) {
        let mut h = Histogram::new(0.0, 10.0, 7);
        for &x in &data {
            h.record(x);
        }
        prop_assert_eq!(h.total(), data.len() as u64);
        let binned: u64 = (0..h.num_bins()).map(|i| h.bin_count(i)).sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), data.len() as u64);
    }

    /// Residency times always sum to the elapsed interval.
    #[test]
    fn residency_conservation(switches in proptest::collection::vec((0usize..4, 1u64..1000), 0..50)) {
        let mut now = SimTime::ZERO;
        let mut r = ResidencyTracker::new(4, 0, now);
        for (state, dt) in switches {
            now += SimDuration::from_millis(dt);
            r.switch_to(state, now);
        }
        let end = now + SimDuration::from_millis(17);
        let total: SimDuration = r.snapshot(end).into_iter().sum();
        prop_assert_eq!(total, end - SimTime::ZERO);
    }

    /// Step-series integral over adjacent windows is additive.
    #[test]
    fn stepseries_integral_additive(
        values in proptest::collection::vec(0.0f64..100.0, 1..30),
        split in 1u64..100,
    ) {
        let mut s = StepSeries::new();
        for (i, &v) in values.iter().enumerate() {
            s.set(SimTime::from_secs(i as u64), v);
        }
        let end = SimTime::from_secs(200);
        let mid = SimTime::from_secs(split.min(199));
        let whole = s.integral(SimTime::ZERO, end).unwrap();
        let a = s.integral(SimTime::ZERO, mid).unwrap_or(0.0);
        let b = s.integral(mid, end).unwrap_or(0.0);
        prop_assert!((whole - (a + b)).abs() < 1e-6 * (1.0 + whole.abs()));
    }

    /// CI half-width shrinks (weakly) as identical batches accumulate.
    #[test]
    fn ci_contains_mean_of_constant_data(x in -100.0f64..100.0, n in 2u64..50) {
        let s: OnlineStats = (0..n).map(|_| x).collect();
        let ci = mean_confidence_interval(&s, 0.95);
        prop_assert!(ci.contains(x));
        prop_assert_eq!(ci.half_width, 0.0);
    }
}
