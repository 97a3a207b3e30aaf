//! Per-frame-type decode-cycle statistics: the raw material for fleet
//! workload priors.
//!
//! Every session records the *actual* decode cost of each frame it
//! displays, bucketed by frame type (I/P/B). The summary is bit-exact
//! mergeable — sums are fixed point (the [`ExactSum`] quantisation) and
//! the cost distribution is integer-binned — so shards of a fleet
//! campaign can fold their statistics in any order and land on
//! byte-identical state. This is the same associativity contract
//! `GovAggregate` in `crates/fleet` follows, and it is what makes the
//! persisted `eavs-prior/v1` artifact deterministic across `EAVS_JOBS`
//! settings.
//!
//! A session records into a [`FrameCycleTally`], whose dense bins live
//! inline in the session (no heap: recording never allocates), and
//! hands its report a span-trimmed [`FrameCycleStats`] once at the end:
//! reports stay resident in the session cache for a whole campaign, and
//! a typical one occupies about a sixth of its 3 × 64 bins. Every type's
//! distribution has the same fixed shape, `[0, PRIOR_HIST_HI_MCYCLES) ×
//! PRIOR_HIST_BINS`, so the summary stores no edges, and the three
//! occupied spans share one allocation.
//!
//! Costs are accounted in **Mcycles** (millions of cycles). A 1080p frame
//! costs tens of Mcycles, so per-frame squared magnitudes stay far below
//! the `ExactSum` fixed-point overflow horizon even for billion-frame
//! campaigns.

use eavs_cpu::freq::Cycles;
use eavs_metrics::histogram::{locate, Slot};
use eavs_metrics::stats::ExactSum;
use eavs_video::frame::FrameType;

/// Upper edge of the per-type cost distributions, in Mcycles. The lower
/// edge is 0.
///
/// Chosen so a 4K I-frame under a decode-spike fault still lands in-range;
/// anything above is counted in the overflow bucket and still merges
/// exactly.
pub const PRIOR_HIST_HI_MCYCLES: f64 = 256.0;

/// Bin count of the per-type cost distributions.
pub const PRIOR_HIST_BINS: usize = 64;

// A type's occupied span is stored as a `u8` first bin and length.
const _: () = assert!(PRIOR_HIST_BINS <= u8::MAX as usize);

/// One frame type's part of a [`FrameCycleStats`]: its frame count, the
/// raw fixed-point accumulators of its two sums, its out-of-range counts
/// and where its occupied bins sit.
///
/// The span is canonical (empty with `first == 0`, or starting and ending
/// with a non-zero count), so the derived equality of the summary is
/// logical equality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
struct TypeStats {
    /// Sum of per-frame cost, nano-Mcycles ([`ExactSum::raw`]).
    mcycles_nanos: i128,
    /// Sum of squared per-frame cost, nano-Mcycles².
    mcycles_sq_nanos: i128,
    /// Frames observed: the count of both sums.
    frames: u64,
    underflow: u64,
    overflow: u64,
    /// Logical index of the first stored bin.
    first: u8,
    /// Bins stored for this type.
    len: u8,
}

impl TypeStats {
    fn end(&self) -> usize {
        self.first as usize + self.len as usize
    }
}

/// Bit-exact mergeable per-frame-type decode-cost summary.
///
/// Per frame type (indexed by [`FrameType::index`], I=0, P=1, B=2): the
/// frame count, fixed-point sums of cost and squared cost, and the cost
/// distribution over `[0, PRIOR_HIST_HI_MCYCLES)` in
/// [`PRIOR_HIST_BINS`] bins plus underflow and overflow counts. Only each
/// type's occupied run of bins is stored, and the three runs share one
/// heap slice.
///
/// Equality and hashing are derived: the spans are canonical, so equal
/// fields mean an equal summary, and the session cache keys its table of
/// shared summaries by the summary itself.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct FrameCycleStats {
    types: [TypeStats; 3],
    /// The occupied bin spans of types I, P and B, back to back.
    bins: Box<[u64]>,
}

impl FrameCycleStats {
    /// An empty summary. Allocates nothing.
    pub fn new() -> Self {
        FrameCycleStats::default()
    }

    /// Folds another summary in. Order-free: integer addition throughout.
    /// Allocates only when `other` occupies a bin outside `self`'s spans.
    pub fn merge(&mut self, other: &FrameCycleStats) {
        let spans: [(usize, usize); 3] = std::array::from_fn(|t| {
            let (mine, theirs) = (&self.types[t], &other.types[t]);
            match (mine.len, theirs.len) {
                (_, 0) => (mine.first as usize, mine.end()),
                (0, _) => (theirs.first as usize, theirs.end()),
                _ => (
                    mine.first.min(theirs.first) as usize,
                    mine.end().max(theirs.end()),
                ),
            }
        });
        if (0..3).any(|t| spans[t] != (self.types[t].first as usize, self.types[t].end())) {
            let old = std::mem::take(&mut self.bins);
            let mut bins = vec![0; spans.iter().map(|(start, end)| end - start).sum()];
            let (mut from, mut to) = (0, 0);
            for (ty, &(start, end)) in self.types.iter_mut().zip(&spans) {
                let len = ty.len as usize;
                // An empty span's `first` is 0, and it copies nothing.
                let at = to + (ty.first as usize).saturating_sub(start);
                bins[at..at + len].copy_from_slice(&old[from..from + len]);
                from += len;
                to += end - start;
                ty.first = start as u8;
                ty.len = (end - start) as u8;
            }
            self.bins = bins.into_boxed_slice();
        }
        for t in 0..3 {
            let theirs = &other.types[t];
            if theirs.len > 0 {
                let at = self.offset(t) + (theirs.first - self.types[t].first) as usize;
                let span = other.span(t);
                for (a, b) in self.bins[at..at + span.len()].iter_mut().zip(span) {
                    *a += *b;
                }
            }
            let mine = &mut self.types[t];
            mine.mcycles_nanos += theirs.mcycles_nanos;
            mine.mcycles_sq_nanos += theirs.mcycles_sq_nanos;
            mine.frames += theirs.frames;
            mine.underflow += theirs.underflow;
            mine.overflow += theirs.overflow;
        }
    }

    /// Where type `t`'s span starts in `bins`.
    fn offset(&self, t: usize) -> usize {
        self.types[..t].iter().map(|ty| ty.len as usize).sum()
    }

    /// Type `t`'s stored bins.
    fn span(&self, t: usize) -> &[u64] {
        let at = self.offset(t);
        &self.bins[at..at + self.types[t].len as usize]
    }

    /// Frames observed for one type.
    pub fn count(&self, frame_type: FrameType) -> u64 {
        self.types[frame_type.index()].frames
    }

    /// Frames observed across all types.
    pub fn total_frames(&self) -> u64 {
        self.types.iter().map(|ty| ty.frames).sum()
    }

    /// `true` if no frame has been observed.
    pub fn is_empty(&self) -> bool {
        self.total_frames() == 0
    }

    /// Sum of one type's per-frame cost in Mcycles, fixed point.
    pub fn mcycles(&self, frame_type: FrameType) -> ExactSum {
        let ty = &self.types[frame_type.index()];
        ExactSum::from_raw(ty.mcycles_nanos, ty.frames)
    }

    /// Sum of one type's squared per-frame cost in Mcycles², fixed point.
    /// Its count is the type's frame count, like [`mcycles`](Self::mcycles).
    pub fn mcycles_sq(&self, frame_type: FrameType) -> ExactSum {
        let ty = &self.types[frame_type.index()];
        ExactSum::from_raw(ty.mcycles_sq_nanos, ty.frames)
    }

    /// Mean cost for one type in Mcycles, if any frame was seen.
    pub fn mean_mcycles(&self, frame_type: FrameType) -> Option<f64> {
        let s = self.mcycles(frame_type);
        (s.count() > 0).then(|| s.mean())
    }

    /// Population variance of the per-type cost in Mcycles².
    pub fn variance_mcycles(&self, frame_type: FrameType) -> Option<f64> {
        let n = self.count(frame_type);
        (n > 0).then(|| {
            let mean = self.mcycles(frame_type).mean();
            (self.mcycles_sq(frame_type).value() / n as f64 - mean * mean).max(0.0)
        })
    }

    /// Frames of one type whose cost fell in bin `i` of
    /// `[0, PRIOR_HIST_HI_MCYCLES)`.
    ///
    /// # Panics
    ///
    /// Panics unless `i < PRIOR_HIST_BINS`.
    pub fn bin_count(&self, frame_type: FrameType, i: usize) -> u64 {
        assert!(i < PRIOR_HIST_BINS, "bin {i} out of range");
        let t = frame_type.index();
        i.checked_sub(self.types[t].first as usize)
            .and_then(|j| self.span(t).get(j))
            .copied()
            .unwrap_or(0)
    }

    /// Frames of one type that cost less than 0 Mcycles (none do; kept
    /// for the distribution's shape and its codec).
    pub fn underflow(&self, frame_type: FrameType) -> u64 {
        self.types[frame_type.index()].underflow
    }

    /// Frames of one type that cost at least `PRIOR_HIST_HI_MCYCLES`.
    pub fn overflow(&self, frame_type: FrameType) -> u64 {
        self.types[frame_type.index()].overflow
    }

    /// Heap bytes held: the occupied bin spans, in one allocation
    /// (everything else is inline).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.bins)
    }
}

/// One frame type's summary in dense form: its two sums, its
/// out-of-range counts and all [`PRIOR_HIST_BINS`] bins. This is what a
/// [`FrameCycleTally`] records into and what the `eavs-prior/v1` codec
/// decodes.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseTypeStats {
    /// Sum of per-frame cost in Mcycles, fixed point.
    pub mcycles: ExactSum,
    /// Sum of squared per-frame cost in Mcycles², fixed point.
    pub mcycles_sq: ExactSum,
    /// Frames below 0 Mcycles.
    pub underflow: u64,
    /// Frames at or above [`PRIOR_HIST_HI_MCYCLES`].
    pub overflow: u64,
    /// Per-bin frame counts over `[0, PRIOR_HIST_HI_MCYCLES)`.
    pub bins: [u64; PRIOR_HIST_BINS],
}

impl Default for DenseTypeStats {
    fn default() -> Self {
        DenseTypeStats {
            mcycles: ExactSum::new(),
            mcycles_sq: ExactSum::new(),
            underflow: 0,
            overflow: 0,
            bins: [0; PRIOR_HIST_BINS],
        }
    }
}

/// A session's running [`FrameCycleStats`] in dense form, stored inline
/// in the session, so recording a frame never allocates.
/// [`finish`](Self::finish) trims the bins into the report's summary.
#[derive(Clone, Debug, Default)]
pub struct FrameCycleTally {
    types: [DenseTypeStats; 3],
}

impl FrameCycleTally {
    /// Records one decoded frame's actual cost.
    pub fn observe(&mut self, frame_type: FrameType, actual: Cycles) {
        let ty = &mut self.types[frame_type.index()];
        let mc = actual.mega();
        ty.mcycles.add(mc);
        ty.mcycles_sq.add(mc * mc);
        match locate(0.0, PRIOR_HIST_HI_MCYCLES, PRIOR_HIST_BINS, mc) {
            Slot::Underflow => ty.underflow += 1,
            Slot::Bin(i) => ty.bins[i] += 1,
            Slot::Overflow => ty.overflow += 1,
        }
    }

    /// A tally holding one dense summary per frame type, indexed like
    /// [`FrameType::index`].
    ///
    /// # Errors
    ///
    /// Names the first type whose two sums disagree on their frame count:
    /// a summary keeps one count per type.
    pub fn from_types(types: [DenseTypeStats; 3]) -> Result<Self, String> {
        for (ft, ty) in FrameType::ALL.into_iter().zip(&types) {
            let (n, n_sq) = (ty.mcycles.count(), ty.mcycles_sq.count());
            if n != n_sq {
                return Err(format!(
                    "{ft:?}-frame cost sum counts {n} frames but its square sum {n_sq}"
                ));
            }
        }
        Ok(FrameCycleTally { types })
    }

    /// The summary of every frame observed, each type's bins trimmed to
    /// their occupied span: one allocation, or none if no frame landed
    /// in range.
    pub fn finish(&self) -> FrameCycleStats {
        let spans = self.types.each_ref().map(|ty| {
            match (
                ty.bins.iter().position(|&c| c > 0),
                ty.bins.iter().rposition(|&c| c > 0),
            ) {
                (Some(first), Some(last)) => first..last + 1,
                _ => 0..0,
            }
        });
        let mut bins = Vec::with_capacity(spans.iter().map(|s| s.len()).sum());
        let types = std::array::from_fn(|t| {
            let ty = &self.types[t];
            let span = spans[t].clone();
            bins.extend_from_slice(&ty.bins[span.clone()]);
            let (mcycles_nanos, frames) = ty.mcycles.raw();
            TypeStats {
                mcycles_nanos,
                mcycles_sq_nanos: ty.mcycles_sq.raw().0,
                frames,
                underflow: ty.underflow,
                overflow: ty.overflow,
                first: span.start as u8,
                len: span.len() as u8,
            }
        });
        FrameCycleStats {
            types,
            bins: bins.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_metrics::histogram::Histogram;

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
        assert_eq!(s.overflow(FrameType::I), 1);
    }

    #[test]
    fn empty_stats_report_no_means() {
        let s = FrameCycleStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean_mcycles(FrameType::I), None);
        assert_eq!(s.variance_mcycles(FrameType::B), None);
        assert_eq!(FrameCycleTally::default().finish(), s);
        assert_eq!(s.heap_bytes(), 0);
        // Three 64-byte type records and the one boxed slice on 64-bit
        // targets: no edges, no second count, one pointer.
        assert!(std::mem::size_of::<FrameCycleStats>() <= 208);
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
        for ft in FrameType::ALL {
            let h = &direct[ft.index()];
            for i in 0..PRIOR_HIST_BINS {
                assert_eq!(s.bin_count(ft, i), h.bin_count(i), "{ft:?} bin {i}");
            }
            assert_eq!(s.underflow(ft), h.underflow());
            assert_eq!(s.overflow(ft), h.overflow());
        }
    }

    #[test]
    fn merging_a_disjoint_span_relays_the_bins() {
        // P sits low in one summary and high in the other; I only in the
        // second; B in both at the same bin.
        let a = tally(&[(FrameType::P, 10.0), (FrameType::B, 5.0)]);
        let b = tally(&[
            (FrameType::I, 100.0),
            (FrameType::P, 200.0),
            (FrameType::B, 5.0),
        ]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.bin_count(FrameType::P, 2), 1);
        assert_eq!(ab.bin_count(FrameType::P, 50), 1);
        assert_eq!(ab.bin_count(FrameType::B, 1), 2);
        assert_eq!(ab.bin_count(FrameType::I, 25), 1);
        // Folding in a summary inside the spans allocates nothing new.
        let bins = ab.bins.as_ptr();
        ab.merge(&a);
        assert_eq!(ab.bins.as_ptr(), bins);
        assert_eq!(ab.count(FrameType::P), 3);
    }

    #[test]
    fn a_type_whose_sums_disagree_on_count_is_refused() {
        let mut types: [DenseTypeStats; 3] = Default::default();
        types[1].mcycles.add(3.0);
        let err = FrameCycleTally::from_types(types.clone()).unwrap_err();
        assert!(err.contains("P-frame"), "{err}");
        types[1].mcycles_sq.add(9.0);
        assert!(FrameCycleTally::from_types(types).is_ok());
    }

    #[test]
    fn variance_is_nonnegative_and_exact_for_constant_input() {
        let s = tally(&[(FrameType::P, 20.0); 10]);
        assert_eq!(s.variance_mcycles(FrameType::P), Some(0.0));
    }
}
