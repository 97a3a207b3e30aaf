//! Property-based tests for the EAVS core: predictors, the demand/selector
//! math, governor decision invariants, and the session kernel's
//! scratch-reuse equivalence.

use std::sync::Arc;

use eavs_core::governor::{EavsConfig, EavsGovernor, InFlightMeta, PipelineSnapshot};
use eavs_core::predictor::{
    predictor_by_name, Ewma, FrameMeta, Hybrid, WorkloadPredictor, PREDICTOR_NAMES,
};
use eavs_core::selector::{required_hz, required_hz_split, DemandItem, OppSelector};
use eavs_cpu::cluster::PolicyLimits;
use eavs_cpu::freq::Cycles;
use eavs_cpu::opp::OppTable;
use eavs_sim::time::{SimDuration, SimTime};
use eavs_video::display::PlaybackPhase;
use eavs_video::frame::FrameType;
use proptest::prelude::*;

fn table() -> OppTable {
    OppTable::from_mhz_mv(&[(500, 900), (1000, 1000), (1500, 1100), (2000, 1250)]).unwrap()
}

/// The required rate as a plain loop over the prefixes: the reference
/// the selector's `required_hz` and `required_hz_split` must match bit
/// for bit.
fn reference_required_hz(now: SimTime, items: &[DemandItem]) -> f64 {
    let mut cum = 0.0;
    let mut worst: f64 = 0.0;
    for item in items {
        cum += item.cycles.get();
        if cum <= 0.0 {
            continue;
        }
        if item.deadline <= now {
            return f64::INFINITY;
        }
        let slack_s = (item.deadline.as_nanos() - now.as_nanos()) as f64 / 1e9;
        worst = worst.max(cum / slack_s);
    }
    worst
}

fn ftype(i: u8) -> FrameType {
    match i % 3 {
        0 => FrameType::I,
        1 => FrameType::P,
        _ => FrameType::B,
    }
}

proptest! {
    /// Predictions are always positive and finite, for every predictor,
    /// after any observation sequence.
    #[test]
    fn predictions_positive_and_finite(
        observations in proptest::collection::vec((0u8..3, 100u32..1_000_000, 1.0f64..100.0), 0..60),
        query_type in 0u8..3,
        query_size in 100u32..1_000_000,
    ) {
        for name in PREDICTOR_NAMES {
            let mut p = predictor_by_name(name).unwrap();
            for &(t, size, mcycles) in &observations {
                p.observe(
                    FrameMeta { index: 0, frame_type: ftype(t), size_bytes: size },
                    Cycles::from_mega(mcycles),
                );
            }
            let pred = p.predict(FrameMeta { index: 0, frame_type: ftype(query_type), size_bytes: query_size });
            prop_assert!(pred.get().is_finite() && pred.get() > 0.0, "{name}: {pred:?}");
        }
    }

    /// The monotonic-deque WindowMax matches a naive sliding-window max
    /// for arbitrary observation sequences.
    #[test]
    fn window_max_matches_naive(
        window in 1usize..20,
        values in proptest::collection::vec(0.1f64..1e8, 1..200),
    ) {
        let mut fast = eavs_core::predictor::WindowMax::new(window);
        let meta = FrameMeta { index: 0, frame_type: FrameType::P, size_bytes: 1000 };
        for (i, &v) in values.iter().enumerate() {
            fast.observe(meta, Cycles::new(v));
            let start = (i + 1).saturating_sub(window);
            let naive = values[start..=i]
                .iter()
                .cloned()
                .fold(f64::MIN, f64::max);
            let got = fast.predict(meta).get();
            prop_assert!(
                (got - naive).abs() < 1e-9 * naive.max(1.0),
                "at {i}: got {got}, naive {naive}"
            );
        }
    }

    /// A predictor trained on a constant per-type cost converges to it.
    #[test]
    fn constant_workload_is_learned(mcycles in 1.0f64..200.0, size in 1_000u32..100_000) {
        let meta = FrameMeta { index: 0, frame_type: FrameType::P, size_bytes: size };
        for name in ["last", "ewma", "window-max", "size-regression"] {
            let mut p = predictor_by_name(name).unwrap();
            for _ in 0..80 {
                p.observe(meta, Cycles::from_mega(mcycles));
            }
            let pred = p.predict(meta).mega();
            prop_assert!(
                (pred - mcycles).abs() / mcycles < 0.02,
                "{name}: predicted {pred} for constant {mcycles}"
            );
        }
    }

    /// required_hz is monotone: adding an item never lowers the rate, and
    /// shrinking slack never lowers it either.
    #[test]
    fn required_hz_monotone(
        items in proptest::collection::vec((1.0f64..100.0, 1u64..2_000), 1..20),
        extra in (1.0f64..100.0, 1u64..2_000),
    ) {
        let now = SimTime::from_millis(0);
        let mut sorted: Vec<(f64, u64)> = items;
        sorted.sort_by_key(|&(_, d)| d);
        let demand: Vec<DemandItem> = sorted
            .iter()
            .map(|&(mc, ms)| DemandItem {
                cycles: Cycles::from_mega(mc),
                deadline: SimTime::from_millis(ms),
            })
            .collect();
        let base = required_hz(now, &demand);
        // Adding one more item at the end (latest deadline) never lowers it.
        let mut more = demand.clone();
        more.push(DemandItem {
            cycles: Cycles::from_mega(extra.0),
            deadline: SimTime::from_millis(sorted.last().unwrap().1 + extra.1),
        });
        prop_assert!(required_hz(now, &more) >= base - 1e-9);
        // Advancing `now` (shrinking all slack) never lowers it.
        let later = required_hz(SimTime::from_micros(500), &demand);
        prop_assert!(later >= base - 1e-9);
    }

    /// `required_hz_split(head, tail)` is bit-identical to `required_hz`
    /// over the concatenated list, and both equal a plain prefix loop:
    /// zero-cycle items, overdue and due deadlines included.
    #[test]
    fn required_hz_split_matches_concatenation(
        items in proptest::collection::vec((0u8..4, 1.0f64..100.0, 0u64..5_000_000), 0..12),
        now_us in 0u64..3_000,
        split_head in any::<bool>(),
    ) {
        let mut sorted = items;
        sorted.sort_by_key(|&(_, _, d)| d);
        let demand: Vec<DemandItem> = sorted
            .iter()
            .map(|&(zero, mc, ns)| DemandItem {
                // One item in four carries no cycles (`cum <= 0` skips).
                cycles: Cycles::from_mega(if zero == 0 { 0.0 } else { mc }),
                deadline: SimTime::from_nanos(ns),
            })
            .collect();
        let now = SimTime::from_micros(now_us);
        let whole = required_hz(now, &demand);
        prop_assert_eq!(whole.to_bits(), reference_required_hz(now, &demand).to_bits());
        let (head, tail) = match demand.split_first() {
            Some((first, rest)) if split_head => (Some(*first), rest),
            _ => (None, &demand[..]),
        };
        prop_assert_eq!(required_hz_split(now, head, tail).to_bits(), whole.to_bits());
    }

    /// The selector output is always within limits, and jumps up
    /// immediately when demand exceeds the current OPP's rate.
    #[test]
    fn selector_sound(
        requests in proptest::collection::vec(0.0f64..4e9, 1..50),
        margin in 0.0f64..0.5,
        hysteresis in 1u32..5,
    ) {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut sel = OppSelector::new(margin, hysteresis);
        let mut cur = 0;
        for required in requests {
            let idx = sel.select(&tbl, limits, cur, required);
            prop_assert!(idx <= limits.max_index);
            // Soundness: if a feasible OPP exists for the padded demand,
            // the chosen one satisfies it (up-switches are never delayed).
            let padded = required * (1.0 + margin);
            if padded <= tbl.max_freq().hz() as f64 && idx < limits.max_index {
                prop_assert!(
                    tbl.freq(idx).hz() as f64 >= padded - 1.0,
                    "chose {idx} ({}) for padded demand {padded:.3e}",
                    tbl.freq(idx)
                );
            }
            cur = idx;
        }
    }

    /// Governor decisions are always legal OPP indices, in any phase.
    #[test]
    fn governor_decisions_in_range(
        decoded in 0usize..8,
        upcoming in 0usize..16,
        phase in 0u8..3,
        executed_mega in 0.0f64..50.0,
        trained_mega in 1.0f64..60.0,
    ) {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut g = EavsGovernor::new(Box::new(Ewma::default()), EavsConfig::default());
        let meta = FrameMeta { index: 0, frame_type: FrameType::P, size_bytes: 10_000 };
        g.observe_decode(meta, Cycles::from_mega(trained_mega));
        let snap = PipelineSnapshot {
            now: SimTime::from_millis(50),
            phase: match phase {
                0 => PlaybackPhase::Startup,
                1 => PlaybackPhase::Playing,
                _ => PlaybackPhase::Rebuffering,
            },
            next_vsync: SimTime::from_millis(60),
            frame_period: SimDuration::from_millis(33),
            decoded_len: decoded,
            in_flight: Some(InFlightMeta {
                meta,
                executed: Cycles::from_mega(executed_mega),
            }),
            upcoming: vec![meta; upcoming],
        };
        let idx = g.decide(&snap, &tbl, limits, 1);
        prop_assert!(idx <= limits.max_index);
    }

    /// More decoded slack never *raises* the chosen OPP (fresh governors,
    /// identical demand otherwise).
    #[test]
    fn slack_monotonicity(
        upcoming in 1usize..10,
        trained_mega in 5.0f64..60.0,
        d1 in 0usize..6,
        extra in 1usize..6,
    ) {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let snap_with = |decoded: usize| PipelineSnapshot {
            now: SimTime::from_millis(50),
            phase: PlaybackPhase::Playing,
            next_vsync: SimTime::from_millis(60),
            frame_period: SimDuration::from_millis(33),
            decoded_len: decoded,
            in_flight: None,
            upcoming: vec![FrameMeta { index: 0, frame_type: FrameType::P, size_bytes: 10_000 }; upcoming],
        };
        let fresh = || {
            let mut g = EavsGovernor::new(
                Box::new(Hybrid::default()),
                EavsConfig { down_hysteresis: 1, ..EavsConfig::default() },
            );
            g.observe_decode(
                FrameMeta { index: 0, frame_type: FrameType::P, size_bytes: 10_000 },
                Cycles::from_mega(trained_mega),
            );
            g
        };
        let shallow = fresh().decide(&snap_with(d1), &tbl, limits, 3);
        let deep = fresh().decide(&snap_with(d1 + extra), &tbl, limits, 3);
        prop_assert!(deep <= shallow, "deep {deep} > shallow {shallow}");
    }
}

// ---------------------------------------------------------------------------
// Session-kernel equivalence: recycled scratch vs fresh buffers.
// ---------------------------------------------------------------------------

use eavs_core::session::{SessionBuilder, SessionScratch, SessionState, StreamingSession};
use eavs_faults::{DecodeSpike, FaultPlan, SegmentFault};
use eavs_trace::content::ContentProfile;
use eavs_video::manifest::Manifest;

/// One randomized session spec, re-buildable as many times as needed
/// (SessionBuilder is consumed by `run`).
#[derive(Clone, Debug)]
struct SpecDraw {
    seed: u64,
    kbps: u32,
    fps: u32,
    secs: u64,
    content: u8,
    margin: f64,
    hysteresis: u32,
    corrupt_segment: Option<u32>,
    spike_frame: Option<u32>,
}

/// Hand-rolled strategy (the vendored proptest has no `prop_map`).
#[derive(Debug)]
struct SpecStrategy;

impl Strategy for SpecStrategy {
    type Value = SpecDraw;

    fn sample(&self, rng: &mut proptest::test_runner::TestRng) -> SpecDraw {
        let fps = [24u32, 30, 60][(0usize..3).sample(rng)];
        // Over-drawn sentinel values mean "no fault of that kind".
        let corrupt = (0u32..3).sample(rng);
        let spike = (0u32..61).sample(rng);
        SpecDraw {
            seed: (0u64..1_000).sample(rng),
            kbps: (500u32..8_000).sample(rng),
            fps,
            secs: (3u64..8).sample(rng),
            content: (0u8..3).sample(rng),
            margin: (0.0f64..0.5).sample(rng),
            hysteresis: (1u32..6).sample(rng),
            corrupt_segment: (corrupt < 2).then_some(corrupt),
            spike_frame: (spike < 60).then_some(spike),
        }
    }
}

impl SpecDraw {
    fn faults(&self) -> FaultPlan {
        let mut plan = FaultPlan::default();
        if let Some(seg) = self.corrupt_segment {
            plan.corruption.push(SegmentFault::once(seg.into()));
        }
        if let Some(frame) = self.spike_frame {
            plan.decode_spikes.push(DecodeSpike {
                frame: frame.into(),
                factor: 2.5,
            });
        }
        plan
    }

    fn builder(&self, manifest: &Arc<Manifest>) -> SessionBuilder {
        let gov = eavs_core::session::GovernorChoice::Eavs(EavsGovernor::new(
            Box::new(Hybrid::default()),
            EavsConfig {
                margin: self.margin,
                down_hysteresis: self.hysteresis,
                ..EavsConfig::default()
            },
        ));
        let content = match self.content {
            0 => ContentProfile::Film,
            1 => ContentProfile::Animation,
            _ => ContentProfile::Sport,
        };
        let mut b = StreamingSession::builder(gov)
            .manifest(Arc::clone(manifest))
            .content(content)
            .seed(self.seed);
        let faults = self.faults();
        if !faults.is_empty() {
            b = b.faults(faults);
        }
        b
    }

    fn manifest(&self) -> Arc<Manifest> {
        Arc::new(Manifest::single(
            self.kbps,
            1280,
            720,
            SimDuration::from_secs(self.secs),
            self.fps,
        ))
    }
}

proptest! {
    // Session runs are costly; a modest case count still covers the
    // interesting corners (faulted sessions, mixed durations and rates).
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `SessionBuilder::run` recycles one scratch per thread, so each
    /// session inherits the buffers of whatever ran before it on that
    /// thread. For arbitrary sequences of specs (including faulted ones)
    /// that must be byte-identical to the kernel run on fresh buffers,
    /// and must leave the builders' fingerprints untouched.
    #[test]
    fn recycled_scratch_equivalent_to_fresh(
        specs in proptest::collection::vec(SpecStrategy, 1..6),
    ) {
        let manifests: Vec<Arc<Manifest>> = specs.iter().map(SpecDraw::manifest).collect();
        for (i, (spec, manifest)) in specs.iter().zip(&manifests).enumerate() {
            let fingerprint = spec.builder(manifest).fingerprint();
            let recycled = format!("{:?}", spec.builder(manifest).run());
            let mut scratch = SessionScratch::default();
            let mut state = SessionState::with_scratch(spec.builder(manifest), &mut scratch);
            while state.step() {}
            let fresh = format!("{:?}", state.finish_into(&mut scratch));
            prop_assert_eq!(&recycled, &fresh, "spec {}: {:?}", i, spec);
            prop_assert_eq!(&fingerprint, &spec.builder(manifest).fingerprint());
        }
    }
}
