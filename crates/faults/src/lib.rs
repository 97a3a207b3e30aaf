//! Deterministic fault injection for streaming sessions.
//!
//! A [`FaultPlan`] describes *what goes wrong* during a session: network
//! faults (bandwidth blackouts, stalled downloads, corrupt segments),
//! decode faults (cycle-count spikes, transient decoder stalls) and
//! thermal faults (ambient temperature steps). Plans are data — they can
//! be scripted exactly, randomized from a seed, or both — and compile
//! into a [`FaultSchedule`] that the session event loop queries.
//!
//! Determinism is the load-bearing property. Every randomized decision
//! is keyed on the *coordinate* of the thing being faulted (segment
//! index + attempt, frame index) rather than on draw order, so the same
//! plan produces the same storm regardless of which governor runs the
//! session, how retries interleave, or which worker thread executes the
//! sweep. That is what makes fault runs cacheable, comparable across
//! governors, and reproducible under the work-stealing pool.

use eavs_net::bandwidth::BandwidthTrace;
use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::rng::SimRng;
use eavs_sim::time::{SimDuration, SimTime};

/// A window during which the network delivers zero bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blackout {
    /// When the blackout begins.
    pub start: SimTime,
    /// How long the outage lasts.
    pub duration: SimDuration,
}

impl Blackout {
    /// End of the blackout window.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// A scripted per-segment fault: the first `attempts` download attempts
/// of `segment` fail (stall or arrive corrupt, depending on which list
/// the fault sits in). Attempt numbering starts at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentFault {
    /// Segment index the fault applies to.
    pub segment: u64,
    /// Number of leading attempts that fail before one succeeds.
    pub attempts: u32,
}

impl SegmentFault {
    /// Fault a single attempt (the first) of `segment`.
    pub fn once(segment: u64) -> Self {
        Self {
            segment,
            attempts: 1,
        }
    }
}

/// A scripted decode-cost spike: frame `frame` costs `factor`× its
/// nominal cycle count to decode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeSpike {
    /// Global frame index the spike applies to.
    pub frame: u64,
    /// Multiplier applied to the frame's nominal decode cycles.
    pub factor: f64,
}

/// A scripted transient decoder stall: decoding of frame `frame` cannot
/// begin until `pause` has elapsed from the moment it first becomes
/// eligible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderStall {
    /// Global frame index that stalls before decode.
    pub frame: u64,
    /// How long the decoder is wedged.
    pub pause: SimDuration,
}

/// A scripted ambient-temperature step for the thermal model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmbientStep {
    /// When the ambient temperature changes.
    pub at: SimTime,
    /// New ambient temperature in °C.
    pub ambient_c: f64,
}

/// Seeded randomized fault generation layered on top of any scripted
/// faults. Each decision is an independent, coordinate-keyed coin flip;
/// probabilities are per segment-attempt (network) or per frame (decode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomFaults {
    /// Seed for the coordinate-keyed decision hash.
    pub seed: u64,
    /// Probability that a given (segment, attempt) download stalls.
    pub stall_prob: f64,
    /// Probability that a given (segment, attempt) arrives corrupt.
    pub corrupt_prob: f64,
    /// Probability that a given frame's decode cost spikes.
    pub spike_prob: f64,
    /// Multiplier applied to spiked frames.
    pub spike_factor: f64,
    /// Probability that the decoder stalls before a given frame.
    pub decoder_stall_prob: f64,
    /// Duration of a randomized decoder stall.
    pub decoder_stall: SimDuration,
}

impl RandomFaults {
    /// A light randomized storm: rare stalls and spikes.
    pub fn light(seed: u64) -> Self {
        Self {
            seed,
            stall_prob: 0.02,
            corrupt_prob: 0.02,
            spike_prob: 0.005,
            spike_factor: 2.0,
            decoder_stall_prob: 0.002,
            decoder_stall: SimDuration::from_millis(40),
        }
    }

    /// A heavy randomized storm: frequent network faults and decode
    /// disruption, for stress testing recovery paths.
    pub fn heavy(seed: u64) -> Self {
        Self {
            seed,
            stall_prob: 0.15,
            corrupt_prob: 0.10,
            spike_prob: 0.03,
            spike_factor: 3.0,
            decoder_stall_prob: 0.01,
            decoder_stall: SimDuration::from_millis(80),
        }
    }
}

/// A complete description of everything that goes wrong in one session.
///
/// The default plan is empty and injects nothing; an empty plan is
/// guaranteed to be a behavioral no-op (same events, same report, same
/// fingerprint as a session built without a plan at all).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Bandwidth blackout windows overlaid on the network trace.
    pub blackouts: Vec<Blackout>,
    /// Segments whose leading download attempts stall (never complete).
    pub stalls: Vec<SegmentFault>,
    /// Segments whose leading download attempts arrive corrupt.
    pub corruption: Vec<SegmentFault>,
    /// Frames whose decode cost spikes.
    pub decode_spikes: Vec<DecodeSpike>,
    /// Frames before which the decoder transiently stalls.
    pub decoder_stalls: Vec<DecoderStall>,
    /// Ambient temperature steps (require a thermal model to matter).
    pub ambient_steps: Vec<AmbientStep>,
    /// Optional seeded randomized faults layered on the scripted ones.
    pub randomized: Option<RandomFaults>,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.blackouts.is_empty()
            && self.stalls.is_empty()
            && self.corruption.is_empty()
            && self.decode_spikes.is_empty()
            && self.decoder_stalls.is_empty()
            && self.ambient_steps.is_empty()
            && self.randomized.is_none()
    }

    /// The standard fault storm used by experiment F24: one mid-stream
    /// blackout the buffer should absorb, a corrupt and a stalled
    /// segment, a burst of decode-cost spikes, one decoder stall, and an
    /// ambient heat step that later reverts. Survivable by a governor
    /// that races on recovery; punishing for one that does not.
    pub fn standard_storm() -> Self {
        Self {
            blackouts: vec![Blackout {
                start: SimTime::from_secs(20),
                duration: SimDuration::from_secs(5),
            }],
            stalls: vec![SegmentFault::once(8)],
            corruption: vec![SegmentFault::once(3)],
            decode_spikes: (300..330)
                .map(|frame| DecodeSpike { frame, factor: 2.5 })
                .collect(),
            decoder_stalls: vec![DecoderStall {
                frame: 450,
                pause: SimDuration::from_millis(80),
            }],
            ambient_steps: vec![
                AmbientStep {
                    at: SimTime::from_secs(30),
                    ambient_c: 45.0,
                },
                AmbientStep {
                    at: SimTime::from_secs(60),
                    ambient_c: 25.0,
                },
            ],
            randomized: None,
        }
    }

    /// Feed every knob of the plan into a fingerprint. Randomized plans
    /// are fully described by their seed and probabilities, so they hash
    /// deterministically too — no poisoning required.
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str("faults/v1");
        fp.write_usize(self.blackouts.len());
        for b in &self.blackouts {
            fp.write_u64(b.start.as_nanos());
            fp.write_u64(b.duration.as_nanos());
        }
        fp.write_usize(self.stalls.len());
        for s in &self.stalls {
            fp.write_u64(s.segment);
            fp.write_u32(s.attempts);
        }
        fp.write_usize(self.corruption.len());
        for s in &self.corruption {
            fp.write_u64(s.segment);
            fp.write_u32(s.attempts);
        }
        fp.write_usize(self.decode_spikes.len());
        for s in &self.decode_spikes {
            fp.write_u64(s.frame);
            fp.write_f64(s.factor);
        }
        fp.write_usize(self.decoder_stalls.len());
        for s in &self.decoder_stalls {
            fp.write_u64(s.frame);
            fp.write_u64(s.pause.as_nanos());
        }
        fp.write_usize(self.ambient_steps.len());
        for s in &self.ambient_steps {
            fp.write_u64(s.at.as_nanos());
            fp.write_f64(s.ambient_c);
        }
        match &self.randomized {
            None => fp.write_u8(0),
            Some(r) => {
                fp.write_u8(1);
                fp.write_u64(r.seed);
                fp.write_f64(r.stall_prob);
                fp.write_f64(r.corrupt_prob);
                fp.write_f64(r.spike_prob);
                fp.write_f64(r.spike_factor);
                fp.write_f64(r.decoder_stall_prob);
                fp.write_u64(r.decoder_stall.as_nanos());
            }
        }
    }

    /// Compile the plan into the lookup structure the session queries.
    pub fn schedule(&self) -> FaultSchedule {
        let mut stalls = self.stalls.clone();
        stalls.sort_by_key(|s| s.segment);
        let mut corruption = self.corruption.clone();
        corruption.sort_by_key(|s| s.segment);
        let mut decode_spikes = self.decode_spikes.clone();
        decode_spikes.sort_by_key(|s| s.frame);
        let mut decoder_stalls = self.decoder_stalls.clone();
        decoder_stalls.sort_by_key(|s| s.frame);
        let mut ambient_steps = self.ambient_steps.clone();
        ambient_steps.sort_by_key(|s| s.at);
        let mut blackouts = self.blackouts.clone();
        blackouts.sort_by_key(|b| b.start);
        FaultSchedule {
            blackouts,
            stalls,
            corruption,
            decode_spikes,
            decoder_stalls,
            ambient_steps,
            randomized: self.randomized,
        }
    }
}

/// Decision domains for coordinate-keyed randomized draws. Distinct
/// domains keep e.g. the stall coin for (segment 3, attempt 0) and the
/// corruption coin for the same coordinate independent.
const DOMAIN_STALL: u64 = 1;
const DOMAIN_CORRUPT: u64 = 2;
const DOMAIN_SPIKE: u64 = 3;
const DOMAIN_DECODER_STALL: u64 = 4;

/// Mix a seed with a (domain, a, b) coordinate into an RNG seed.
/// SplitMix64-style finalization: order-free, avalanche on every input.
fn coordinate_seed(seed: u64, domain: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        .wrapping_add(domain.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One coordinate-keyed bernoulli draw.
fn coordinate_coin(seed: u64, domain: u64, a: u64, b: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    SimRng::new(coordinate_seed(seed, domain, a, b)).bernoulli(p)
}

/// A [`FaultPlan`] compiled for point lookups by the session event loop.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    blackouts: Vec<Blackout>,
    stalls: Vec<SegmentFault>,
    corruption: Vec<SegmentFault>,
    decode_spikes: Vec<DecodeSpike>,
    decoder_stalls: Vec<DecoderStall>,
    ambient_steps: Vec<AmbientStep>,
    randomized: Option<RandomFaults>,
}

impl FaultSchedule {
    /// True when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.blackouts.is_empty()
            && self.stalls.is_empty()
            && self.corruption.is_empty()
            && self.decode_spikes.is_empty()
            && self.decoder_stalls.is_empty()
            && self.ambient_steps.is_empty()
            && self.randomized.is_none()
    }

    fn scripted(list: &[SegmentFault], segment: u64, attempt: u32) -> bool {
        list.binary_search_by_key(&segment, |s| s.segment)
            .map(|i| attempt < list[i].attempts)
            .unwrap_or(false)
    }

    /// Does download attempt `attempt` of `segment` stall (never
    /// complete on its own)?
    pub fn is_stalled(&self, segment: u64, attempt: u32) -> bool {
        Self::scripted(&self.stalls, segment, attempt)
            || self.randomized.is_some_and(|r| {
                coordinate_coin(
                    r.seed,
                    DOMAIN_STALL,
                    segment,
                    u64::from(attempt),
                    r.stall_prob,
                )
            })
    }

    /// Does download attempt `attempt` of `segment` arrive corrupt,
    /// forcing a re-download?
    pub fn is_corrupt(&self, segment: u64, attempt: u32) -> bool {
        Self::scripted(&self.corruption, segment, attempt)
            || self.randomized.is_some_and(|r| {
                coordinate_coin(
                    r.seed,
                    DOMAIN_CORRUPT,
                    segment,
                    u64::from(attempt),
                    r.corrupt_prob,
                )
            })
    }

    /// Decode-cost multiplier for `frame`, if it spikes.
    pub fn decode_spike(&self, frame: u64) -> Option<f64> {
        if let Ok(i) = self.decode_spikes.binary_search_by_key(&frame, |s| s.frame) {
            return Some(self.decode_spikes[i].factor);
        }
        self.randomized
            .filter(|r| coordinate_coin(r.seed, DOMAIN_SPIKE, frame, 0, r.spike_prob))
            .map(|r| r.spike_factor)
    }

    /// Transient decoder stall before `frame`, if any.
    pub fn decoder_stall(&self, frame: u64) -> Option<SimDuration> {
        if let Ok(i) = self
            .decoder_stalls
            .binary_search_by_key(&frame, |s| s.frame)
        {
            return Some(self.decoder_stalls[i].pause);
        }
        self.randomized
            .filter(|r| {
                coordinate_coin(r.seed, DOMAIN_DECODER_STALL, frame, 0, r.decoder_stall_prob)
            })
            .map(|r| r.decoder_stall)
    }

    /// Ambient temperature steps, sorted by time.
    pub fn ambient_steps(&self) -> &[AmbientStep] {
        &self.ambient_steps
    }

    /// Overlay the blackout windows on a bandwidth trace, producing a
    /// trace whose rate is zero inside every blackout and unchanged
    /// outside. Returns `None` when there are no blackouts (the base
    /// trace should be used untouched, preserving `Arc` sharing).
    pub fn apply_to_trace(&self, base: &BandwidthTrace) -> Option<BandwidthTrace> {
        if self.blackouts.is_empty() {
            return None;
        }
        let mut times: Vec<SimTime> = base.points().iter().map(|&(t, _)| t).collect();
        for b in &self.blackouts {
            times.push(b.start);
            times.push(b.end());
        }
        times.sort();
        times.dedup();
        let in_blackout = |t: SimTime| self.blackouts.iter().any(|b| t >= b.start && t < b.end());
        let mut points: Vec<(SimTime, f64)> = Vec::with_capacity(times.len());
        for t in times {
            let rate = if in_blackout(t) { 0.0 } else { base.rate_at(t) };
            match points.last() {
                Some(&(_, prev)) if prev == rate => {}
                _ => points.push((t, rate)),
            }
        }
        Some(BandwidthTrace::from_points(points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp_of(plan: &FaultPlan) -> u128 {
        let mut fp = Fingerprinter::new("test/faults");
        plan.fingerprint(&mut fp);
        fp.finish().expect("not opaque").0
    }

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.schedule().is_empty());
    }

    #[test]
    fn standard_storm_is_not_empty() {
        let storm = FaultPlan::standard_storm();
        assert!(!storm.is_empty());
        let sched = storm.schedule();
        assert!(sched.is_corrupt(3, 0));
        assert!(!sched.is_corrupt(3, 1));
        assert!(sched.is_stalled(8, 0));
        assert!(!sched.is_stalled(8, 1));
        assert_eq!(sched.decode_spike(300), Some(2.5));
        assert_eq!(sched.decode_spike(330), None);
        assert_eq!(sched.decoder_stall(450), Some(SimDuration::from_millis(80)));
        assert_eq!(sched.ambient_steps().len(), 2);
    }

    #[test]
    fn scripted_multi_attempt_faults_count_down() {
        let plan = FaultPlan {
            stalls: vec![SegmentFault {
                segment: 5,
                attempts: 3,
            }],
            ..FaultPlan::default()
        };
        let sched = plan.schedule();
        for attempt in 0..3 {
            assert!(sched.is_stalled(5, attempt));
        }
        assert!(!sched.is_stalled(5, 3));
        assert!(!sched.is_stalled(4, 0));
    }

    #[test]
    fn randomized_decisions_are_coordinate_stable() {
        let plan = FaultPlan {
            randomized: Some(RandomFaults::heavy(7)),
            ..FaultPlan::default()
        };
        let a = plan.schedule();
        let b = plan.schedule();
        for seg in 0..200u64 {
            for attempt in 0..4u32 {
                assert_eq!(a.is_stalled(seg, attempt), b.is_stalled(seg, attempt));
                assert_eq!(a.is_corrupt(seg, attempt), b.is_corrupt(seg, attempt));
            }
        }
        for frame in 0..2_000u64 {
            assert_eq!(a.decode_spike(frame), b.decode_spike(frame));
            assert_eq!(a.decoder_stall(frame), b.decoder_stall(frame));
        }
    }

    #[test]
    fn randomized_probabilities_hit_roughly_expected_rates() {
        let plan = FaultPlan {
            randomized: Some(RandomFaults {
                seed: 11,
                stall_prob: 0.2,
                corrupt_prob: 0.0,
                spike_prob: 0.0,
                spike_factor: 2.0,
                decoder_stall_prob: 0.0,
                decoder_stall: SimDuration::from_millis(10),
            }),
            ..FaultPlan::default()
        };
        let sched = plan.schedule();
        let hits = (0..10_000u64)
            .filter(|&seg| sched.is_stalled(seg, 0))
            .count();
        // 10k draws at p=0.2: expect ~2000, allow generous slack.
        assert!((1700..=2300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn zero_probability_never_fires() {
        let plan = FaultPlan {
            randomized: Some(RandomFaults {
                seed: 3,
                stall_prob: 0.0,
                corrupt_prob: 0.0,
                spike_prob: 0.0,
                spike_factor: 2.0,
                decoder_stall_prob: 0.0,
                decoder_stall: SimDuration::from_millis(10),
            }),
            ..FaultPlan::default()
        };
        let sched = plan.schedule();
        for seg in 0..500u64 {
            assert!(!sched.is_stalled(seg, 0));
            assert!(!sched.is_corrupt(seg, 0));
            assert_eq!(sched.decode_spike(seg), None);
            assert_eq!(sched.decoder_stall(seg), None);
        }
    }

    #[test]
    fn blackout_overlay_zeroes_rate_inside_window_only() {
        let base = BandwidthTrace::constant(10_000_000.0);
        let plan = FaultPlan {
            blackouts: vec![Blackout {
                start: SimTime::from_secs(5),
                duration: SimDuration::from_secs(2),
            }],
            ..FaultPlan::default()
        };
        let faulted = plan.schedule().apply_to_trace(&base).expect("has blackout");
        assert_eq!(faulted.rate_at(SimTime::from_secs(4)), 10_000_000.0);
        assert_eq!(faulted.rate_at(SimTime::from_secs(5)), 0.0);
        assert_eq!(faulted.rate_at(SimTime::from_secs(6)), 0.0);
        assert_eq!(faulted.rate_at(SimTime::from_secs(7)), 10_000_000.0);
    }

    #[test]
    fn blackout_overlay_merges_overlapping_windows() {
        let base = BandwidthTrace::from_mbps_steps(&[(0, 8.0), (10, 4.0)]);
        let plan = FaultPlan {
            blackouts: vec![
                Blackout {
                    start: SimTime::from_secs(2),
                    duration: SimDuration::from_secs(4),
                },
                Blackout {
                    start: SimTime::from_secs(5),
                    duration: SimDuration::from_secs(3),
                },
            ],
            ..FaultPlan::default()
        };
        let faulted = plan
            .schedule()
            .apply_to_trace(&base)
            .expect("has blackouts");
        assert_eq!(faulted.rate_at(SimTime::from_secs(1)), 8_000_000.0);
        for s in 2..8 {
            assert_eq!(faulted.rate_at(SimTime::from_secs(s)), 0.0, "t={s}");
        }
        assert_eq!(faulted.rate_at(SimTime::from_secs(8)), 8_000_000.0);
        assert_eq!(faulted.rate_at(SimTime::from_secs(11)), 4_000_000.0);
    }

    #[test]
    fn no_blackouts_returns_none() {
        let base = BandwidthTrace::constant(1.0);
        assert!(FaultPlan::default()
            .schedule()
            .apply_to_trace(&base)
            .is_none());
    }

    #[test]
    fn fingerprint_distinguishes_every_knob() {
        let base = FaultPlan::default();
        let base_fp = fp_of(&base);
        let variants = vec![
            FaultPlan {
                blackouts: vec![Blackout {
                    start: SimTime::from_secs(1),
                    duration: SimDuration::from_secs(1),
                }],
                ..base.clone()
            },
            FaultPlan {
                stalls: vec![SegmentFault::once(0)],
                ..base.clone()
            },
            FaultPlan {
                corruption: vec![SegmentFault::once(0)],
                ..base.clone()
            },
            FaultPlan {
                decode_spikes: vec![DecodeSpike {
                    frame: 0,
                    factor: 2.0,
                }],
                ..base.clone()
            },
            FaultPlan {
                decoder_stalls: vec![DecoderStall {
                    frame: 0,
                    pause: SimDuration::from_millis(1),
                }],
                ..base.clone()
            },
            FaultPlan {
                ambient_steps: vec![AmbientStep {
                    at: SimTime::from_secs(1),
                    ambient_c: 40.0,
                }],
                ..base.clone()
            },
            FaultPlan {
                randomized: Some(RandomFaults::light(0)),
                ..base.clone()
            },
        ];
        let mut seen = vec![base_fp];
        for v in &variants {
            let fp = fp_of(v);
            assert!(!seen.contains(&fp), "fingerprint collision for {v:?}");
            seen.push(fp);
        }
        // Randomized seeds and probabilities also perturb the digest.
        let r1 = FaultPlan {
            randomized: Some(RandomFaults::light(0)),
            ..base.clone()
        };
        let r2 = FaultPlan {
            randomized: Some(RandomFaults::light(1)),
            ..base.clone()
        };
        let r3 = FaultPlan {
            randomized: Some(RandomFaults {
                stall_prob: 0.5,
                ..RandomFaults::light(0)
            }),
            ..base
        };
        assert_ne!(fp_of(&r1), fp_of(&r2));
        assert_ne!(fp_of(&r1), fp_of(&r3));
    }
}
