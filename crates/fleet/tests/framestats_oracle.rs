//! [`FrameCycleStats`] against a reference: the summary as three general
//! [`Histogram`]s beside two [`ExactSum`]s per frame type, each sum with
//! its own count, folded the way the one-allocation layout replaced.
//!
//! Over random summaries (recorded frames, costs past the 256-Mcycle
//! edge, decoded parts with underflow counts, empty types) dealt to
//! shards and merged in random orders, every count, sum, mean, variance
//! and bin must agree with the reference, and the `eavs-prior/v1` text
//! and a checkpoint's prior section must be the bytes the reference
//! writes. Decoding keeps refusing foreign layouts and also refuses a
//! type whose two sums disagree on their count.

use std::fmt::Write as _;

use eavs_core::framestats::{
    DenseTypeStats, FrameCycleStats, FrameCycleTally, PRIOR_HIST_BINS, PRIOR_HIST_HI_MCYCLES,
};
use eavs_cpu::freq::Cycles;
use eavs_fleet::{checkpoint, prior, CampaignSpec, FleetAggregate, PriorStore};
use eavs_metrics::histogram::{locate, Histogram, Slot};
use eavs_metrics::stats::ExactSum;
use eavs_video::frame::FrameType;
use proptest::prelude::*;

/// The reference summary: per frame type two sums, each counting its
/// frames, and a histogram that stores its own range and bins.
#[derive(Clone, Debug, PartialEq)]
struct Reference {
    mcycles: [ExactSum; 3],
    mcycles_sq: [ExactSum; 3],
    hist: [Histogram; 3],
}

impl Reference {
    fn new() -> Self {
        Reference {
            mcycles: [ExactSum::new(); 3],
            mcycles_sq: [ExactSum::new(); 3],
            hist: std::array::from_fn(|_| {
                Histogram::new(0.0, PRIOR_HIST_HI_MCYCLES, PRIOR_HIST_BINS)
            }),
        }
    }

    fn observe(&mut self, t: usize, mc: f64) {
        self.mcycles[t].add(mc);
        self.mcycles_sq[t].add(mc * mc);
        self.hist[t].record(mc);
    }

    fn from_dense(types: &[DenseTypeStats; 3]) -> Self {
        Reference {
            mcycles: types.each_ref().map(|ty| ty.mcycles),
            mcycles_sq: types.each_ref().map(|ty| ty.mcycles_sq),
            hist: types.each_ref().map(|ty| {
                Histogram::from_parts(
                    0.0,
                    PRIOR_HIST_HI_MCYCLES,
                    &ty.bins,
                    ty.underflow,
                    ty.overflow,
                )
            }),
        }
    }

    fn merge(&mut self, other: &Reference) {
        for t in 0..3 {
            self.mcycles[t].merge(&other.mcycles[t]);
            self.mcycles_sq[t].merge(&other.mcycles_sq[t]);
            self.hist[t].merge(&other.hist[t]);
        }
    }

    fn total_frames(&self) -> u64 {
        self.mcycles.iter().map(ExactSum::count).sum()
    }

    fn mean(&self, t: usize) -> Option<f64> {
        let s = &self.mcycles[t];
        (s.count() > 0).then(|| s.mean())
    }

    fn variance(&self, t: usize) -> Option<f64> {
        let n = self.mcycles[t].count();
        (n > 0).then(|| {
            let mean = self.mcycles[t].mean();
            (self.mcycles_sq[t].value() / n as f64 - mean * mean).max(0.0)
        })
    }

    /// One store entry as the prior codec writes it.
    fn encode_entry(&self, out: &mut String, title: &str, content: &str) {
        let _ = writeln!(out, "key {title} {content}");
        for t in 0..3 {
            for (key, sum) in [("mc", &self.mcycles[t]), ("mcsq", &self.mcycles_sq[t])] {
                let (nanos, count) = sum.raw();
                let _ = writeln!(out, "{key}{t} {nanos} {count}");
            }
            let h = &self.hist[t];
            let _ = write!(
                out,
                "hist{t} {:016x} {:016x} {} {}",
                h.lo().to_bits(),
                h.hi().to_bits(),
                h.underflow(),
                h.overflow()
            );
            for i in 0..h.num_bins() {
                let _ = write!(out, " {}", h.bin_count(i));
            }
            out.push('\n');
        }
    }
}

/// Every observable of `stats` equals the reference's.
fn assert_agrees(stats: &FrameCycleStats, reference: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(stats.total_frames(), reference.total_frames());
    prop_assert_eq!(stats.is_empty(), reference.total_frames() == 0);
    for ft in FrameType::ALL {
        let t = ft.index();
        prop_assert_eq!(stats.count(ft), reference.mcycles[t].count());
        prop_assert_eq!(stats.mcycles(ft), reference.mcycles[t]);
        // The reference keeps a second count; the summary shares one.
        prop_assert_eq!(
            stats.mcycles_sq(ft).raw().0,
            reference.mcycles_sq[t].raw().0
        );
        prop_assert_eq!(
            stats.mean_mcycles(ft).map(f64::to_bits),
            reference.mean(t).map(f64::to_bits)
        );
        prop_assert_eq!(
            stats.variance_mcycles(ft).map(f64::to_bits),
            reference.variance(t).map(f64::to_bits)
        );
        let h = &reference.hist[t];
        prop_assert_eq!(stats.underflow(ft), h.underflow());
        prop_assert_eq!(stats.overflow(ft), h.overflow());
        for i in 0..PRIOR_HIST_BINS {
            prop_assert_eq!(stats.bin_count(ft, i), h.bin_count(i), "{:?} bin {}", ft, i);
        }
    }
    // The same occupied spans, in one allocation instead of three.
    let occupied: usize = reference
        .hist
        .iter()
        .map(|h| {
            let counts: Vec<u64> = (0..h.num_bins()).map(|i| h.bin_count(i)).collect();
            match (
                counts.iter().position(|&c| c > 0),
                counts.iter().rposition(|&c| c > 0),
            ) {
                (Some(first), Some(last)) => last - first + 1,
                _ => 0,
            }
        })
        .sum();
    prop_assert_eq!(stats.heap_bytes(), occupied * 8);
    Ok(())
}

/// A deterministic permutation of `0..n`.
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

/// One shard's summary and its reference. Even shards record frames
/// through a [`FrameCycleTally`]; odd shards are built from dense parts,
/// as the decoder builds them, with `underflow[t]` frames below the
/// range (which no recorded cost reaches).
fn shard(
    index: usize,
    frames: &[(usize, f64)],
    underflow: [u64; 3],
) -> (FrameCycleStats, Reference) {
    let mut reference = Reference::new();
    if index.is_multiple_of(2) {
        let mut tally = FrameCycleTally::default();
        for &(t, mc) in frames {
            let cost = Cycles::from_mega(mc);
            tally.observe(FrameType::ALL[t], cost);
            reference.observe(t, cost.mega());
        }
        return (tally.finish(), reference);
    }
    let mut types: [DenseTypeStats; 3] = Default::default();
    for &(t, mc) in frames {
        let ty = &mut types[t];
        ty.mcycles.add(mc);
        ty.mcycles_sq.add(mc * mc);
        match locate(0.0, PRIOR_HIST_HI_MCYCLES, PRIOR_HIST_BINS, mc) {
            Slot::Underflow => ty.underflow += 1,
            Slot::Bin(i) => ty.bins[i] += 1,
            Slot::Overflow => ty.overflow += 1,
        }
    }
    for (ty, n) in types.iter_mut().zip(underflow) {
        ty.underflow += n;
    }
    reference.merge(&Reference::from_dense(&types));
    let stats = FrameCycleTally::from_types(types)
        .expect("counts agree")
        .finish();
    (stats, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn the_one_span_layout_matches_three_histograms(
        raw in proptest::collection::vec((0u64..3, 0u64..40_000, 0u64..64), 0..160),
        underflow in proptest::collection::vec(0u64..3, 3..4),
        centre in 0u64..30_000,
        width in 1u64..4_000,
        shards in 1usize..7,
        perm_seed in 0u64..100_000,
    ) {
        // Costs in 0.01 Mcycles up to 400 Mcycles: half clustered (spans
        // that grow at both ends as shards merge), half spread, some past
        // the 256-Mcycle edge. A type the draw never picks stays empty.
        let frames: Vec<(usize, usize, f64)> = raw
            .iter()
            .map(|&(t, u, pick)| {
                let at = if pick % 2 == 0 { centre + u % width } else { u };
                ((pick as usize / 2) % shards, t as usize, at as f64 / 100.0)
            })
            .collect();
        let parts: Vec<(FrameCycleStats, Reference)> = (0..shards)
            .map(|s| {
                let mine: Vec<(usize, f64)> = frames
                    .iter()
                    .filter(|f| f.0 == s)
                    .map(|&(_, t, mc)| (t, mc))
                    .collect();
                let under = if s == 1 { [underflow[0], underflow[1], underflow[2]] } else { [0; 3] };
                shard(s, &mine, under)
            })
            .collect();
        for (stats, reference) in &parts {
            assert_agrees(stats, reference)?;
        }

        let mut merged = FrameCycleStats::new();
        let mut reference = Reference::new();
        for i in shuffled(shards, perm_seed) {
            merged.merge(&parts[i].0);
            reference.merge(&parts[i].1);
        }
        assert_agrees(&merged, &reference)?;
        let mut in_order = FrameCycleStats::new();
        parts.iter().for_each(|(stats, _)| in_order.merge(stats));
        prop_assert_eq!(&merged, &in_order);

        // The prior file and a checkpoint's prior section: the bytes the
        // reference writes. An empty summary is not stored.
        let mut store = PriorStore::new();
        store.observe("6000kbps-1920x1080@30", "film", &merged);
        store.observe("3000kbps-1280x720@30", "sport", &parts[0].0);
        let mut body = String::new();
        let keys = [
            ("3000kbps-1280x720@30", "sport", &parts[0].1),
            ("6000kbps-1920x1080@30", "film", &reference),
        ];
        let stored: Vec<_> = keys.iter().filter(|k| k.2.total_frames() > 0).collect();
        let _ = writeln!(body, "prior {}", stored.len());
        for (title, content, r) in stored {
            r.encode_entry(&mut body, title, content);
        }
        body.push_str("end\n");
        let text = prior::encode(&store);
        prop_assert_eq!(&text, &format!("{}\n{body}", prior::PRIOR_MAGIC));
        let mut agg = FleetAggregate::new(&CampaignSpec::smoke());
        agg.prior = store.clone();
        let ckpt = checkpoint::encode(&agg);
        prop_assert!(ckpt.ends_with(&format!("\n{body}")), "{}", ckpt);
        prop_assert_eq!(checkpoint::decode(&ckpt).unwrap().prior, store.clone());

        let decoded = prior::decode(&text).unwrap();
        prop_assert_eq!(&decoded, &store);
        prop_assert_eq!(prior::encode(&decoded), text.clone());

        // Refusals: a foreign layout (one bin short or over, a shifted
        // or widened range) and two sums that disagree on their count.
        if let Some(line) = text.lines().find(|l| l.starts_with("hist1 ")) {
            let fields: Vec<&str> = line.split(' ').collect();
            let wider = format!("{:016x}", 512f64.to_bits());
            let shifted = format!("{:016x}", 1f64.to_bits());
            let foreign = [
                fields[..fields.len() - 1].join(" "),
                format!("{line} 0"),
                [&fields[..2], &[wider.as_str()], &fields[3..]].concat().join(" "),
                [&fields[..1], &[shifted.as_str()], &fields[2..]].concat().join(" "),
            ];
            for bad in foreign {
                let err = prior::decode(&text.replacen(line, &bad, 1)).unwrap_err();
                prop_assert!(err.contains("hist1 layout"), "{}", err);
            }
            let sq = text.lines().find(|l| l.starts_with("mcsq1 ")).unwrap();
            let (nanos, count) = sq["mcsq1 ".len()..].split_once(' ').unwrap();
            let count: u64 = count.parse().unwrap();
            let bad = text.replacen(sq, &format!("mcsq1 {nanos} {}", count + 1), 1);
            let err = prior::decode(&bad).unwrap_err();
            prop_assert!(err.contains("square sum"), "{}", err);
        }
    }
}
