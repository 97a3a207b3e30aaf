//! Fixed-bin histograms for distribution figures.

use std::fmt;

/// Where one observation lands in a histogram of `bins` equal-width bins
/// over `[lo, hi)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slot {
    /// Below `lo`.
    Underflow,
    /// In bin `i`.
    Bin(usize),
    /// At or above `hi`.
    Overflow,
}

/// Locates `x` among `bins` equal-width bins over `[lo, hi)`: the one
/// binning rule [`Histogram::record`] and dense tallies kept outside a
/// histogram (a session's frame-cost tally) share.
///
/// # Panics
///
/// Panics on NaN.
#[inline]
pub fn locate(lo: f64, hi: f64, bins: usize, x: f64) -> Slot {
    assert!(!x.is_nan(), "NaN observation");
    if x < lo {
        Slot::Underflow
    } else if x >= hi {
        Slot::Overflow
    } else {
        let idx = ((x - lo) / (hi - lo) * bins as f64) as usize;
        // Floating rounding can land exactly on `bins` for x just below
        // hi; clamp.
        Slot::Bin(idx.min(bins - 1))
    }
}

/// A linear-bin histogram over `[lo, hi)` with overflow/underflow counters.
///
/// Only the occupied span of bins is stored: the run from the first to
/// the last non-zero bin. Every other bin is zero, and every accessor
/// ([`bin_count`](Self::bin_count), [`iter`](Self::iter), equality,
/// [`merge`](Self::merge)) sees all `num_bins` logical bins, so a
/// sparse histogram stays small. The fleet aggregates (arrivals and each
/// governor lane's energy, QoE and startup distributions) and the figure
/// tables use it; a report's per-frame-type cost summary
/// (`eavs_core::framestats::FrameCycleStats`) has one fixed shape and
/// keeps its own spans.
///
/// ```
/// use eavs_metrics::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for x in [0.5, 1.5, 1.7, 9.9, -3.0, 42.0] {
///     h.record(x);
/// }
/// assert_eq!(h.bin_count(0), 3); // [0,2) holds 0.5, 1.5, 1.7
/// assert_eq!(h.bin_count(4), 1); // [8,10) holds 9.9
/// assert_eq!(h.underflow(), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
// The span is canonical (empty with `first == 0`, or starting and ending
// with a non-zero count), so the derived equality is logical equality.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    /// Logical bin count.
    bins: usize,
    /// Logical index of `span[0]`.
    first: usize,
    /// Counts of bins `first..first + span.len()`.
    span: Box<[u64]>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    /// Allocates nothing until the first in-range observation.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range [{lo}, {hi}) is empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins,
            first: 0,
            span: Box::default(),
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn record(&mut self, x: f64) {
        match locate(self.lo, self.hi, self.bins, x) {
            Slot::Underflow => self.underflow += 1,
            Slot::Overflow => self.overflow += 1,
            Slot::Bin(i) => {
                self.cover(i, i + 1);
                self.span[i - self.first] += 1;
            }
        }
    }

    /// Widens the stored span to include bins `start..end` (non-empty).
    fn cover(&mut self, start: usize, end: usize) {
        let (start, end) = if self.span.is_empty() {
            (start, end)
        } else {
            let stored_end = self.first + self.span.len();
            if start >= self.first && end <= stored_end {
                return;
            }
            (start.min(self.first), end.max(stored_end))
        };
        let mut span = vec![0; end - start].into_boxed_slice();
        let offset = self.first.saturating_sub(start);
        span[offset..offset + self.span.len()].copy_from_slice(&self.span);
        self.first = start;
        self.span = span;
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        assert!(i < self.bins, "bin {i} out of range");
        i.checked_sub(self.first)
            .and_then(|j| self.span.get(j))
            .copied()
            .unwrap_or(0)
    }

    /// The `[lo, hi)` edges of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins, "bin {i} out of range");
        let w = (self.hi - self.lo) / self.bins as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins
    }

    /// Lower edge of the range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the range (exclusive).
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Rebuilds a histogram from its dense per-bin counts (checkpoint
    /// decoding, dense tallies), keeping only the occupied span.
    ///
    /// # Panics
    ///
    /// Panics on an empty range or zero bins, like [`Histogram::new`].
    pub fn from_parts(lo: f64, hi: f64, bins: &[u64], underflow: u64, overflow: u64) -> Self {
        let mut h = Histogram::new(lo, hi, bins.len());
        h.underflow = underflow;
        h.overflow = overflow;
        if let (Some(first), Some(last)) = (
            bins.iter().position(|&c| c > 0),
            bins.iter().rposition(|&c| c > 0),
        ) {
            h.first = first;
            h.span = bins[first..=last].into();
        }
        h
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.in_range() + self.underflow + self.overflow
    }

    fn in_range(&self) -> u64 {
        self.span.iter().sum()
    }

    /// Fraction of in-range observations falling in bin `i`.
    pub fn bin_fraction(&self, i: usize) -> f64 {
        let in_range = self.in_range();
        if in_range == 0 {
            0.0
        } else {
            self.bin_count(i) as f64 / in_range as f64
        }
    }

    /// Iterates `(bin_lo, bin_hi, count)` triples over every bin.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.bins).map(|i| {
            let (lo, hi) = self.bin_edges(i);
            (lo, hi, self.bin_count(i))
        })
    }

    /// `true` when `other` has the identical range and bin count, i.e. the
    /// two histograms can be merged.
    pub fn same_shape(&self, other: &Histogram) -> bool {
        self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
            && self.bins == other.bins
    }

    /// Merges `other` into `self` by summing bin, underflow and overflow
    /// counts. Counts are integers, so merging is exactly associative and
    /// commutative — per-shard histograms fold to the same result in any
    /// order, which is what makes sharded campaign output deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different ranges or bin counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.same_shape(other),
            "merging histograms of different shape: [{}, {}) x{} vs [{}, {}) x{}",
            self.lo,
            self.hi,
            self.bins,
            other.lo,
            other.hi,
            other.bins
        );
        if !other.span.is_empty() {
            self.cover(other.first, other.first + other.span.len());
            let offset = other.first - self.first;
            for (a, b) in self.span[offset..].iter_mut().zip(&*other.span) {
                *a += *b;
            }
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) over *in-range* observations,
    /// linearly interpolated within the containing bin. Returns `None`
    /// when no in-range observations have been recorded.
    ///
    /// Resolution is one bin width, but the estimate depends only on the
    /// bin counts — so quantiles of merged histograms are identical no
    /// matter how the observations were sharded.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside [0, 1].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        let in_range = self.in_range();
        if in_range == 0 {
            return None;
        }
        let target = q * in_range as f64;
        let mut cum = 0u64;
        for (j, &count) in self.span.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let next = cum + count;
            if next as f64 >= target {
                let (lo, hi) = self.bin_edges(self.first + j);
                let within = ((target - cum as f64) / count as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * within);
            }
            cum = next;
        }
        // Rounding pushed the target past the last occupied bin, which
        // ends the canonical span.
        Some(self.bin_edges(self.first + self.span.len() - 1).1)
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.span.iter().copied().max().unwrap_or(0).max(1);
        for (lo, hi, count) in self.iter() {
            let width = (count * 40 / max) as usize;
            writeln!(
                f,
                "[{lo:>10.2}, {hi:>10.2}) {count:>8} {}",
                "#".repeat(width)
            )?;
        }
        Ok(())
    }
}

/// A counter over labeled categories (e.g. events per governor decision).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    counts: Vec<(String, u64)>,
}

impl Counter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Counter { counts: Vec::new() }
    }

    /// Increments `label` by one.
    pub fn incr(&mut self, label: &str) {
        self.add(label, 1);
    }

    /// Adds `n` to `label`.
    pub fn add(&mut self, label: &str, n: u64) {
        if let Some(entry) = self.counts.iter_mut().find(|(l, _)| l == label) {
            entry.1 += n;
        } else {
            self.counts.push((label.to_owned(), n));
        }
    }

    /// The count for `label` (0 if never seen).
    pub fn count(&self, label: &str) -> u64 {
        self.counts
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, c)| *c)
    }

    /// Total of all counts.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|(_, c)| c).sum()
    }

    /// Iterates `(label, count)` in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(l, c)| (l.as_str(), *c))
    }

    /// Merges `other` into `self` by summing per-label counts. The counts
    /// are order-independent; the *iteration order* keeps `self`'s labels
    /// first, then `other`'s unseen labels in their first-seen order.
    pub fn merge(&mut self, other: &Counter) {
        for (label, n) in other.iter() {
            self.add(label, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_range_without_gaps() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..1000 {
            h.record(i as f64 / 1000.0);
        }
        assert_eq!(h.total(), 1000);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 100, "bin {i}");
        }
    }

    #[test]
    fn edge_values() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0); // first bin
        h.record(10.0); // overflow (half-open)
        h.record(9.999_999_999); // last bin
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.bin_count(9), 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn bin_edges_and_fraction() {
        let mut h = Histogram::new(2.0, 4.0, 4);
        assert_eq!(h.bin_edges(0), (2.0, 2.5));
        assert_eq!(h.bin_edges(3), (3.5, 4.0));
        h.record(2.1);
        h.record(2.2);
        h.record(3.9);
        assert!((h.bin_fraction(0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn inverted_range_panics() {
        Histogram::new(5.0, 5.0, 3);
    }

    #[test]
    fn display_renders_rows() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.record(0.5);
        let out = h.to_string();
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains('#'));
    }

    #[test]
    fn merge_equals_single_recorder() {
        let data: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.173).fract() * 12.0 - 1.0)
            .collect();
        let mut whole = Histogram::new(0.0, 10.0, 8);
        for &x in &data {
            whole.record(x);
        }
        let mut a = Histogram::new(0.0, 10.0, 8);
        let mut b = Histogram::new(0.0, 10.0, 8);
        for (i, &x) in data.iter().enumerate() {
            if i % 3 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        // Merge in both orders: identical to recording everything in one go.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(0.3);
        let before = h.clone();
        h.merge(&Histogram::new(0.0, 1.0, 4));
        assert_eq!(h, before);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn merge_rejects_shape_mismatch() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.merge(&Histogram::new(0.0, 1.0, 5));
    }

    #[test]
    fn quantile_interpolates_within_bins() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..1000 {
            h.record(i as f64 / 10.0);
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 50.0).abs() <= 1.0, "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 99.0).abs() <= 1.0, "p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(100.0));
        // Empty histograms have no quantiles.
        assert_eq!(Histogram::new(0.0, 1.0, 2).quantile(0.5), None);
        // Out-of-range observations don't shift in-range quantiles.
        let mut spiky = Histogram::new(0.0, 10.0, 10);
        spiky.record(5.0);
        spiky.record(-100.0);
        spiky.record(1e9);
        let q = spiky.quantile(0.5).unwrap();
        assert!((5.0..6.0).contains(&q), "median {q} should sit in [5,6)");
    }

    #[test]
    fn counter_merge_sums_labels() {
        let mut a = Counter::new();
        a.add("x", 2);
        a.add("y", 1);
        let mut b = Counter::new();
        b.add("y", 4);
        b.add("z", 3);
        a.merge(&b);
        assert_eq!(a.count("x"), 2);
        assert_eq!(a.count("y"), 5);
        assert_eq!(a.count("z"), 3);
        assert_eq!(a.total(), 10);
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr("a");
        c.incr("b");
        c.add("a", 3);
        assert_eq!(c.count("a"), 4);
        assert_eq!(c.count("b"), 1);
        assert_eq!(c.count("missing"), 0);
        assert_eq!(c.total(), 5);
        let labels: Vec<&str> = c.iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["a", "b"], "first-seen order preserved");
    }
}
