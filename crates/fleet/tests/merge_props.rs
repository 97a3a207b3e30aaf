//! Property tests for the fleet aggregate algebra: folding shard
//! partials must be associative and order-independent down to the bit,
//! because `run_campaign` relies on exactly that to make shard size and
//! resume points invisible in the final output. Histograms keep only
//! their occupied bins, so a dense reference checks that the trimmed
//! layout is invisible in every bin, merge and codec byte.

use std::sync::{Arc, OnceLock};

use eavs_core::framestats::{FrameCycleStats, PRIOR_HIST_BINS, PRIOR_HIST_HI_MCYCLES};
use eavs_core::report::SessionReport;
use eavs_fleet::campaign::{builder_for, draw_session, SessionDraw};
use eavs_fleet::{checkpoint, prior, CampaignSpec, FleetAggregate};
use eavs_metrics::histogram::Histogram;
use eavs_video::frame::FrameType;
use proptest::prelude::*;

const SESSIONS: usize = 12;

type Pool = (CampaignSpec, Vec<(SessionDraw, Vec<Arc<SessionReport>>)>);

/// The simulated sessions are by far the expensive part, so they run
/// once; every proptest case just re-folds the cached reports.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut spec = CampaignSpec::smoke();
        spec.name = "merge-props".to_owned();
        spec.sessions = SESSIONS as u64;
        spec.shard_size = 4;
        let data = (0..SESSIONS as u64)
            .map(|id| {
                let draw = draw_session(&spec, id);
                let reports = spec
                    .governors
                    .iter()
                    .map(|gov| Arc::new(builder_for(&draw, gov).unwrap().run()))
                    .collect();
                (draw, reports)
            })
            .collect();
        (spec, data)
    })
}

/// Folds the given session indices (in the given order) into one partial.
fn fold(ids: &[usize]) -> FleetAggregate {
    let (spec, data) = pool();
    let mut agg = FleetAggregate::new(spec);
    for &i in ids {
        let (draw, reports) = &data[i];
        agg.observe_arrival(draw.arrival_s);
        for (gov_index, report) in reports.iter().enumerate() {
            agg.observe(gov_index, report);
        }
        // Mirror `run_shard`: the fleet prior folds one lane per session.
        agg.observe_prior(
            &draw.title.key(),
            draw.content.name(),
            &reports[0].frame_cycles,
        );
    }
    agg
}

/// Deterministic Fisher–Yates driven by a SplitMix step, so each proptest
/// seed names one permutation.
fn shuffled(n: usize, mut seed: u64) -> Vec<usize> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut ids: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        ids.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    ids
}

/// The dense layout histograms had before span trimming: every bin
/// stored, binned and merged the plain way.
#[derive(Clone, PartialEq, Debug)]
struct DenseHist {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl DenseHist {
    fn new(lo: f64, hi: f64, bins: usize) -> Self {
        DenseHist {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Every logical bin of a histogram, read through its accessors.
    fn of(h: &Histogram) -> Self {
        DenseHist {
            lo: h.lo(),
            hi: h.hi(),
            bins: (0..h.num_bins()).map(|i| h.bin_count(i)).collect(),
            underflow: h.underflow(),
            overflow: h.overflow(),
        }
    }

    /// One frame type's cost distribution, read through its accessors.
    fn of_frame_type(stats: &FrameCycleStats, ft: FrameType) -> Self {
        DenseHist {
            lo: 0.0,
            hi: PRIOR_HIST_HI_MCYCLES,
            bins: (0..PRIOR_HIST_BINS)
                .map(|i| stats.bin_count(ft, i))
                .collect(),
            underflow: stats.underflow(ft),
            overflow: stats.overflow(ft),
        }
    }

    fn record(&mut self, x: f64) {
        let n = self.bins.len();
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let i = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[i.min(n - 1)] += 1;
        }
    }

    fn merge(&mut self, other: &DenseHist) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// `(bin_lo, bin_hi, count)` for every bin.
    fn triples(&self) -> Vec<(f64, f64, u64)> {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + w * i as f64, self.lo + w * (i + 1) as f64, c))
            .collect()
    }

    /// The checkpoint and prior codecs' line for this histogram.
    fn line(&self, key: &str) -> String {
        let mut line = format!(
            "{key} {:016x} {:016x} {} {}",
            self.lo.to_bits(),
            self.hi.to_bits(),
            self.underflow,
            self.overflow
        );
        for c in &self.bins {
            line.push_str(&format!(" {c}"));
        }
        line
    }
}

/// The encoded lines of `text` that start with `prefix`.
fn lines_with<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    text.lines().filter(|l| l.starts_with(prefix)).collect()
}

/// The prior's histograms, folded densely from each session's report in
/// sequence, as the codec lines the prior section must hold.
fn dense_prior_lines() -> Vec<String> {
    let (_, data) = pool();
    let mut folded: std::collections::BTreeMap<(String, String), Vec<DenseHist>> =
        Default::default();
    for (draw, reports) in data {
        let key = (draw.title.key(), draw.content.name().to_owned());
        let dense: Vec<DenseHist> = FrameType::ALL
            .into_iter()
            .map(|ft| DenseHist::of_frame_type(&reports[0].frame_cycles, ft))
            .collect();
        match folded.get_mut(&key) {
            Some(acc) => acc.iter_mut().zip(&dense).for_each(|(a, d)| a.merge(d)),
            None => {
                folded.insert(key, dense);
            }
        }
    }
    folded
        .values()
        .flat_map(|hists| {
            hists
                .iter()
                .enumerate()
                .map(|(t, h)| h.line(&format!("hist{t}")))
        })
        .collect()
}

#[test]
fn folded_frame_cycle_stats_write_the_dense_fold_bytes() {
    let expected = dense_prior_lines();
    let agg = fold(&(0..SESSIONS).collect::<Vec<_>>());
    // The reports' spans really are trimmed, or this checks nothing.
    let (_, data) = pool();
    let stored: usize = data[0].1[0].frame_cycles.heap_bytes();
    assert!(stored < 3 * 64 * 8, "{stored} bytes of bins");
    assert_eq!(lines_with(&prior::encode(&agg.prior), "hist"), expected);
    assert_eq!(lines_with(&checkpoint::encode(&agg), "hist"), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Span-trimmed histograms equal the dense reference under random
    /// records dealt to shards and merged in any order: every bin, the
    /// `iter` triples and the checkpoint line, which decodes back to the
    /// same histogram.
    #[test]
    fn trimmed_histograms_match_the_dense_reference(
        raw in proptest::collection::vec((0u64..1_000, 0u64..1_000), 0..120),
        centre in 0u64..1_000,
        width in 1u64..400,
        shards in 1usize..6,
        perm_seed in 0u64..100_000,
    ) {
        let spec = &pool().0;
        let span = spec.arrival_span_s as f64;
        // A cluster (trimmed spans that grow at both ends) plus spread
        // values, 10% of the range either side out of range.
        let xs: Vec<f64> = raw
            .iter()
            .map(|&(u, v)| {
                let at = if v % 2 == 0 { centre + u % width } else { u };
                (at as f64 / 1_000.0) * 1.2 * span - 0.1 * span
            })
            .collect();
        let mut parts = vec![Histogram::new(0.0, span, 48); shards];
        let mut dense = DenseHist::new(0.0, span, 48);
        for (i, &x) in xs.iter().enumerate() {
            parts[(raw[i].1 as usize) % shards].record(x);
            dense.record(x);
        }
        let mut merged = Histogram::new(0.0, span, 48);
        for i in shuffled(shards, perm_seed) {
            merged.merge(&parts[i]);
        }
        prop_assert_eq!(&DenseHist::of(&merged), &dense);
        prop_assert_eq!(merged.iter().collect::<Vec<_>>(), dense.triples());
        let mut whole = Histogram::new(0.0, span, 48);
        xs.iter().for_each(|&x| whole.record(x));
        prop_assert_eq!(&merged, &whole);

        let mut agg = FleetAggregate::new(spec);
        agg.arrivals = merged.clone();
        let text = checkpoint::encode(&agg);
        let line = dense.line("arrivals");
        prop_assert_eq!(lines_with(&text, "arrivals "), vec![line.as_str()]);
        prop_assert_eq!(checkpoint::decode(&text).unwrap().arrivals, merged);
    }

    /// (A ∪ B) ∪ C == A ∪ (B ∪ C) == sequential fold of everything, for
    /// every way of cutting the population into three shards.
    #[test]
    fn merge_is_associative(cut_x in 1u64..11, cut_y in 1u64..11) {
        let a = cut_x.min(cut_y) as usize;
        let b = cut_x.max(cut_y) as usize;
        prop_assume!(a < b);
        let ids: Vec<usize> = (0..SESSIONS).collect();
        let (x, y, z) = (fold(&ids[..a]), fold(&ids[a..b]), fold(&ids[b..]));

        let mut left = x.clone();
        left.merge(&y);
        left.merge(&z);

        let mut yz = y.clone();
        yz.merge(&z);
        let mut right = x;
        right.merge(&yz);

        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &fold(&ids));
    }

    /// Merging per-shard partials in any order — and with sessions dealt
    /// to shards in any order — produces the same bits as the in-order
    /// sequential fold.
    #[test]
    fn merge_is_order_independent(perm_seed in 0u64..100_000, shard_len in 1u64..6) {
        let order = shuffled(SESSIONS, perm_seed);
        let mut merged = FleetAggregate::new(&pool().0);
        for shard in order.chunks(shard_len as usize) {
            merged.merge(&fold(shard));
        }
        let sequential = fold(&(0..SESSIONS).collect::<Vec<_>>());
        prop_assert_eq!(merged, sequential);
    }

    /// The fleet prior is part of the same algebra: merging per-shard
    /// prior stores in any order must produce the same *encoded bytes*
    /// as the sequential fold — this is what makes `--emit-prior` files
    /// byte-identical across `EAVS_JOBS` settings and shard interleavings.
    #[test]
    fn prior_merge_is_bit_exact_across_shard_orderings(
        perm_seed in 0u64..100_000,
        shard_len in 1u64..6,
    ) {
        let order = shuffled(SESSIONS, perm_seed);
        let mut merged = eavs_fleet::PriorStore::new();
        for shard in order.chunks(shard_len as usize) {
            merged.merge(&fold(shard).prior);
        }
        let sequential = fold(&(0..SESSIONS).collect::<Vec<_>>()).prior;
        prop_assert!(!sequential.is_empty());
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(
            eavs_fleet::prior::encode(&merged),
            eavs_fleet::prior::encode(&sequential)
        );
    }

    /// A ∪ B == B ∪ A for prior stores, bit-for-bit.
    #[test]
    fn prior_merge_is_commutative(cut in 1u64..11) {
        let ids: Vec<usize> = (0..SESSIONS).collect();
        let a = fold(&ids[..cut as usize]).prior;
        let b = fold(&ids[cut as usize..]).prior;
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(eavs_fleet::prior::encode(&ab), eavs_fleet::prior::encode(&ba));
    }
}
