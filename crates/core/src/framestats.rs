//! Per-frame-type decode-cycle statistics: the raw material for fleet
//! workload priors.
//!
//! Every session records the *actual* decode cost of each frame it
//! displays, bucketed by frame type (I/P/B). The summary is bit-exact
//! mergeable — sums use fixed-point [`ExactSum`] and distributions use
//! integer-binned [`Histogram`]s — so shards of a fleet campaign can fold
//! their statistics in any order and land on byte-identical state. This is
//! the same associativity contract `GovAggregate` in `crates/fleet`
//! follows, and it is what makes the persisted `eavs-prior/v1` artifact
//! deterministic across `EAVS_JOBS` settings.
//!
//! A session records into a [`FrameCycleTally`], whose dense bins live
//! inline in the session (no heap: recording never allocates), and
//! hands its report a span-trimmed [`FrameCycleStats`] once at the end:
//! reports stay resident in the session cache for a whole campaign, and
//! a typical one occupies about a sixth of its 3 × 64 bins.
//!
//! Costs are accounted in **Mcycles** (millions of cycles). A 1080p frame
//! costs tens of Mcycles, so per-frame squared magnitudes stay far below
//! the `ExactSum` fixed-point overflow horizon even for billion-frame
//! campaigns.

use eavs_cpu::freq::Cycles;
use eavs_metrics::histogram::{locate, Histogram, Slot};
use eavs_metrics::stats::ExactSum;
use eavs_video::frame::FrameType;

/// Upper edge of the per-type cost histograms, in Mcycles.
///
/// Chosen so a 4K I-frame under a decode-spike fault still lands in-range;
/// anything above is counted in the overflow bucket and still merges
/// exactly.
pub const PRIOR_HIST_HI_MCYCLES: f64 = 256.0;

/// Bin count of the per-type cost histograms.
pub const PRIOR_HIST_BINS: usize = 64;

/// Bit-exact mergeable per-frame-type decode-cost summary.
///
/// Indexed by [`FrameType::index`] (I=0, P=1, B=2). The frame count per
/// type lives inside the [`ExactSum`] moments (`mcycles[t].count()`).
#[derive(Clone, Debug, PartialEq)]
pub struct FrameCycleStats {
    /// Sum of per-frame decode cost in Mcycles, fixed point.
    pub mcycles: [ExactSum; 3],
    /// Sum of squared per-frame decode cost in Mcycles², fixed point.
    pub mcycles_sq: [ExactSum; 3],
    /// Per-type cost distribution over `[0, 256)` Mcycles, 64 bins.
    pub hist: [Histogram; 3],
}

impl FrameCycleStats {
    /// An empty summary. Allocates nothing.
    pub fn new() -> Self {
        let hist = || Histogram::new(0.0, PRIOR_HIST_HI_MCYCLES, PRIOR_HIST_BINS);
        FrameCycleStats {
            mcycles: [ExactSum::new(), ExactSum::new(), ExactSum::new()],
            mcycles_sq: [ExactSum::new(), ExactSum::new(), ExactSum::new()],
            hist: [hist(), hist(), hist()],
        }
    }

    /// Folds another summary in. Order-free: integer addition throughout.
    pub fn merge(&mut self, other: &FrameCycleStats) {
        for t in 0..3 {
            self.mcycles[t].merge(&other.mcycles[t]);
            self.mcycles_sq[t].merge(&other.mcycles_sq[t]);
            self.hist[t].merge(&other.hist[t]);
        }
    }

    /// Frames observed for one type.
    pub fn count(&self, frame_type: FrameType) -> u64 {
        self.mcycles[frame_type.index()].count()
    }

    /// Frames observed across all types.
    pub fn total_frames(&self) -> u64 {
        self.mcycles.iter().map(ExactSum::count).sum()
    }

    /// `true` if no frame has been observed.
    pub fn is_empty(&self) -> bool {
        self.total_frames() == 0
    }

    /// Mean cost for one type in Mcycles, if any frame was seen.
    pub fn mean_mcycles(&self, frame_type: FrameType) -> Option<f64> {
        let s = &self.mcycles[frame_type.index()];
        (s.count() > 0).then(|| s.mean())
    }

    /// Population variance of the per-type cost in Mcycles².
    pub fn variance_mcycles(&self, frame_type: FrameType) -> Option<f64> {
        let t = frame_type.index();
        let n = self.mcycles[t].count();
        (n > 0).then(|| {
            let mean = self.mcycles[t].mean();
            (self.mcycles_sq[t].value() / n as f64 - mean * mean).max(0.0)
        })
    }

    /// Heap bytes held: the histograms' occupied bin spans (everything
    /// else is inline).
    pub fn heap_bytes(&self) -> usize {
        self.hist.iter().map(Histogram::heap_bytes).sum()
    }
}

impl Default for FrameCycleStats {
    fn default() -> Self {
        FrameCycleStats::new()
    }
}

/// A session's running [`FrameCycleStats`]: its sums, with the
/// histograms left empty and dense per-type bins stored inline beside
/// them, so recording a frame never allocates. [`finish`](Self::finish)
/// trims the bins into the report's histograms.
#[derive(Clone, Debug)]
pub struct FrameCycleTally {
    stats: FrameCycleStats,
    bins: [[u64; PRIOR_HIST_BINS]; 3],
    underflow: [u64; 3],
    overflow: [u64; 3],
}

impl FrameCycleTally {
    /// Records one decoded frame's actual cost.
    pub fn observe(&mut self, frame_type: FrameType, actual: Cycles) {
        let t = frame_type.index();
        let mc = actual.mega();
        self.stats.mcycles[t].add(mc);
        self.stats.mcycles_sq[t].add(mc * mc);
        match locate(0.0, PRIOR_HIST_HI_MCYCLES, PRIOR_HIST_BINS, mc) {
            Slot::Underflow => self.underflow[t] += 1,
            Slot::Bin(i) => self.bins[t][i] += 1,
            Slot::Overflow => self.overflow[t] += 1,
        }
    }

    /// The summary of every frame observed, with span-trimmed histograms
    /// (one allocation per frame type seen).
    pub fn finish(&self) -> FrameCycleStats {
        let hist = |t: usize| {
            Histogram::from_parts(
                0.0,
                PRIOR_HIST_HI_MCYCLES,
                &self.bins[t],
                self.underflow[t],
                self.overflow[t],
            )
        };
        FrameCycleStats {
            hist: [hist(0), hist(1), hist(2)],
            ..self.stats
        }
    }
}

impl Default for FrameCycleTally {
    fn default() -> Self {
        FrameCycleTally {
            stats: FrameCycleStats::new(),
            bins: [[0; PRIOR_HIST_BINS]; 3],
            underflow: [0; 3],
            overflow: [0; 3],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(FrameType, f64)> {
        vec![
            (FrameType::I, 42.5),
            (FrameType::P, 18.25),
            (FrameType::P, 19.75),
            (FrameType::B, 9.0),
            (FrameType::I, 300.0), // overflow bucket
        ]
    }

    fn tally(data: &[(FrameType, f64)]) -> FrameCycleStats {
        let mut t = FrameCycleTally::default();
        for &(ft, mc) in data {
            t.observe(ft, Cycles::from_mega(mc));
        }
        t.finish()
    }

    #[test]
    fn observe_accumulates_per_type() {
        let s = tally(&sample());
        assert_eq!(s.count(FrameType::I), 2);
        assert_eq!(s.count(FrameType::P), 2);
        assert_eq!(s.count(FrameType::B), 1);
        assert_eq!(s.total_frames(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.mean_mcycles(FrameType::P), Some(19.0));
        assert_eq!(s.hist[FrameType::I.index()].overflow(), 1);
    }

    #[test]
    fn empty_stats_report_no_means() {
        let s = FrameCycleStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean_mcycles(FrameType::I), None);
        assert_eq!(s.variance_mcycles(FrameType::B), None);
        assert_eq!(FrameCycleTally::default().finish(), s);
        assert_eq!(s.heap_bytes(), 0);
    }

    #[test]
    fn merge_matches_sequential_fold_exactly() {
        let data = sample();
        let whole = tally(&data);
        // Split, fold in reverse shard order: must be bit-identical.
        let (even, odd): (Vec<_>, Vec<_>) = data.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let strip =
            |v: Vec<(usize, &(FrameType, f64))>| v.into_iter().map(|(_, x)| *x).collect::<Vec<_>>();
        let (a, b) = (tally(&strip(even)), tally(&strip(odd)));
        let mut folded = FrameCycleStats::new();
        folded.merge(&b);
        folded.merge(&a);
        assert_eq!(folded, whole);
    }

    #[test]
    fn tally_matches_recording_histograms_directly() {
        let data: Vec<(FrameType, f64)> = (0..400)
            .map(|i| (FrameType::ALL[i % 3], (i as f64 * 0.731).fract() * 300.0))
            .collect();
        let s = tally(&data);
        let mut direct: [Histogram; 3] =
            std::array::from_fn(|_| Histogram::new(0.0, PRIOR_HIST_HI_MCYCLES, PRIOR_HIST_BINS));
        for &(ft, mc) in &data {
            direct[ft.index()].record(Cycles::from_mega(mc).mega());
        }
        assert_eq!(s.hist, direct);
        assert_eq!(
            s.heap_bytes(),
            direct.iter().map(Histogram::heap_bytes).sum::<usize>()
        );
    }

    #[test]
    fn variance_is_nonnegative_and_exact_for_constant_input() {
        let s = tally(&[(FrameType::P, 20.0); 10]);
        assert_eq!(s.variance_mcycles(FrameType::P), Some(0.0));
    }
}
