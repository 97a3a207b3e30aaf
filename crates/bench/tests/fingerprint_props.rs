//! Property tests for the session fingerprint: it must be *sound* (equal
//! fingerprints always mean byte-identical reports) and *sensitive* (any
//! single-knob change produces a different fingerprint, so the cache can
//! never serve a stale report for a perturbed configuration).

use eavs_core::predictor::SessionPrior;
use eavs_core::session::{ClusterSelect, SessionBuilder, StreamingSession};
use eavs_cpu::soc::SocModel;
use eavs_faults::{
    AmbientStep, Blackout, DecodeSpike, DecoderStall, FaultPlan, RandomFaults, SegmentFault,
};
use eavs_net::abr::FixedAbr;
use eavs_net::download::RetryPolicy;
use eavs_net::radio::RadioModel;
use eavs_power::{DecoderModel, DevicePowerModel, DisplayModel};
use eavs_sim::time::{SimDuration, SimTime};
use eavs_trace::content::ContentProfile;
use eavs_video::display::LatePolicy;
use eavs_video::manifest::Manifest;
use proptest::prelude::*;

fn content(i: u8) -> ContentProfile {
    ContentProfile::ALL[i as usize % ContentProfile::ALL.len()]
}

/// A short session parameterized by the proptest-chosen knobs.
fn builder(seed: u64, secs: u64, content_idx: u8, rtt_ms: u64, buffer_s: u64) -> SessionBuilder {
    StreamingSession::builder(eavs_bench::harness::governor("eavs"))
        .manifest(Manifest::single(
            3_000,
            1280,
            720,
            SimDuration::from_secs(secs),
            30,
        ))
        .content(content(content_idx))
        .seed(seed)
        .rtt(SimDuration::from_millis(rtt_ms))
        .max_buffer(SimDuration::from_secs(buffer_s))
}

proptest! {
    /// Soundness: two builders with equal fingerprints produce identical
    /// reports — every field the CSV rows are derived from matches bit
    /// for bit, so a cache hit is indistinguishable from a rerun.
    #[test]
    fn equal_fingerprints_mean_identical_reports(
        seed in 0u64..1_000,
        secs in 2u64..5,
        content_idx in 0u8..8,
        rtt_ms in 10u64..80,
        buffer_s in 4u64..12,
    ) {
        let a = builder(seed, secs, content_idx, rtt_ms, buffer_s);
        let b = builder(seed, secs, content_idx, rtt_ms, buffer_s);
        let fa = a.fingerprint().expect("cacheable");
        let fb = b.fingerprint().expect("cacheable");
        prop_assert_eq!(fa, fb);

        let ra = a.run();
        let rb = b.run();
        prop_assert_eq!(ra.summary(), rb.summary());
        prop_assert_eq!(ra.cpu_energy.busy_j.to_bits(), rb.cpu_energy.busy_j.to_bits());
        prop_assert_eq!(ra.cpu_energy.idle_j.to_bits(), rb.cpu_energy.idle_j.to_bits());
        prop_assert_eq!(ra.radio.energy_j.to_bits(), rb.radio.energy_j.to_bits());
        prop_assert_eq!(ra.transitions, rb.transitions);
        prop_assert_eq!(ra.events_processed, rb.events_processed);
        prop_assert_eq!(&ra.time_in_state, &rb.time_in_state);
        prop_assert_eq!(ra.cluster, rb.cluster);
    }

    /// Sensitivity: perturbing any single knob yields a fingerprint
    /// distinct from the base configuration's.
    #[test]
    fn single_knob_perturbation_changes_fingerprint(
        seed in 0u64..1_000,
        secs in 2u64..5,
        content_idx in 0u8..8,
        rtt_ms in 10u64..80,
        buffer_s in 4u64..12,
    ) {
        let base = builder(seed, secs, content_idx, rtt_ms, buffer_s)
            .fingerprint()
            .expect("cacheable");

        let mk = || builder(seed, secs, content_idx, rtt_ms, buffer_s);
        let perturbed: Vec<(&str, SessionBuilder)> = vec![
            ("seed", mk().seed(seed + 1)),
            ("content", builder(seed, secs, content_idx + 1, rtt_ms, buffer_s)),
            ("manifest", mk().manifest(Manifest::single(
                3_001, 1280, 720, SimDuration::from_secs(secs), 30))),
            ("soc", mk().soc(SocModel::MidRange)),
            ("governor", StreamingSession::builder(
                eavs_bench::harness::governor("ondemand"))
                .manifest(Manifest::single(3_000, 1280, 720, SimDuration::from_secs(secs), 30))
                .content(content(content_idx))
                .seed(seed)
                .rtt(SimDuration::from_millis(rtt_ms))
                .max_buffer(SimDuration::from_secs(buffer_s))),
            ("rtt", mk().rtt(SimDuration::from_millis(rtt_ms + 1))),
            ("max_buffer", mk().max_buffer(SimDuration::from_secs(buffer_s + 1))),
            ("decoded_cap", mk().decoded_cap(7)),
            ("startup_frames", mk().startup_frames(9)),
            ("resume_frames", mk().resume_frames(11)),
            ("record_series", mk().record_series(true)),
            ("horizon", mk().horizon(SimTime::from_secs(1))),
            ("late_policy", mk().late_policy(LatePolicy::Drop)),
            ("cluster", mk().cluster(ClusterSelect::Little)),
            ("background", mk().background_load(0.2, SimDuration::from_millis(50))),
            // The builder default is FixedAbr rung 0, so rung 1 is the
            // minimal ABR perturbation.
            ("abr", mk().abr(Box::new(FixedAbr::new(1)))),
            // Fault-plan knobs: each list and the randomized profile must
            // perturb the digest on its own.
            ("faults/blackout", mk().faults(FaultPlan {
                blackouts: vec![Blackout {
                    start: SimTime::from_secs(1),
                    duration: SimDuration::from_millis(100),
                }],
                ..FaultPlan::default()
            })),
            ("faults/stall", mk().faults(FaultPlan {
                stalls: vec![SegmentFault::once(0)],
                ..FaultPlan::default()
            })),
            ("faults/corruption", mk().faults(FaultPlan {
                corruption: vec![SegmentFault::once(0)],
                ..FaultPlan::default()
            })),
            ("faults/spike", mk().faults(FaultPlan {
                decode_spikes: vec![DecodeSpike { frame: 3, factor: 2.0 }],
                ..FaultPlan::default()
            })),
            ("faults/decoder_stall", mk().faults(FaultPlan {
                decoder_stalls: vec![DecoderStall {
                    frame: 3,
                    pause: SimDuration::from_millis(40),
                }],
                ..FaultPlan::default()
            })),
            ("faults/ambient", mk().faults(FaultPlan {
                ambient_steps: vec![AmbientStep {
                    at: SimTime::from_secs(1),
                    ambient_c: 40.0,
                }],
                ..FaultPlan::default()
            })),
            ("faults/randomized", mk().faults(FaultPlan {
                randomized: Some(RandomFaults::light(9)),
                ..FaultPlan::default()
            })),
            // Retry-policy knobs.
            ("retry/timeout", mk().retry(RetryPolicy::with_timeout(
                SimDuration::from_secs(2)))),
            ("retry/max_retries", mk().retry(RetryPolicy {
                max_retries: 9,
                ..RetryPolicy::default()
            })),
            ("retry/backoff_base", mk().retry(RetryPolicy {
                backoff_base: SimDuration::from_millis(333),
                ..RetryPolicy::default()
            })),
            ("retry/backoff_factor", mk().retry(RetryPolicy {
                backoff_factor: 3.0,
                ..RetryPolicy::default()
            })),
            ("retry/backoff_cap", mk().retry(RetryPolicy {
                backoff_cap: SimDuration::from_secs(9),
                ..RetryPolicy::default()
            })),
            // The radio (Wi-Fi by default): a preset and each promotion
            // parameter must perturb the digest on its own.
            ("radio/preset", mk().radio(RadioModel::lte_rrc())),
            ("radio/promo_power_w", mk().radio(RadioModel {
                promo_power_w: 0.5,
                ..RadioModel::wifi()
            })),
            ("radio/promotion_latency", mk().radio(RadioModel {
                promotion_latency: SimDuration::from_millis(5),
                ..RadioModel::wifi()
            })),
            ("radio/tail_timer", mk().radio(
                RadioModel::wifi().with_tail_timer(SimDuration::from_secs(1)))),
            // Each power component and any prior evidence must perturb
            // the digest on its own.
            ("power/display", mk().power(DevicePowerModel {
                display: Some(DisplayModel::phone(0.6)),
                ..DevicePowerModel::none()
            })),
            ("power/decoder", mk().power(DevicePowerModel {
                decoder: Some(DecoderModel::phone_1080p()),
                ..DevicePowerModel::none()
            })),
            ("prior/one-type", mk().prior(SessionPrior {
                types: [Some((2.0e6, 8.0)), None, None],
            })),
        ];
        for (knob, b) in perturbed {
            let fp = b.fingerprint().expect("cacheable");
            prop_assert!(fp != base, "knob {knob} did not change the fingerprint");
        }

        // The same scripted fault on different *lists* must not collide:
        // a stalled segment 0 is not a corrupt segment 0.
        let stall = mk()
            .faults(FaultPlan { stalls: vec![SegmentFault::once(0)], ..FaultPlan::default() })
            .fingerprint()
            .expect("cacheable");
        let corrupt = mk()
            .faults(FaultPlan { corruption: vec![SegmentFault::once(0)], ..FaultPlan::default() })
            .fingerprint()
            .expect("cacheable");
        prop_assert!(stall != corrupt, "stall and corruption lists collided");

        // And the no-op guarantee at the digest level: an explicitly
        // empty plan, power model or prior hashes exactly like none.
        let empties = [
            mk().faults(FaultPlan::default()),
            mk().power(DevicePowerModel::none()),
            mk().prior(SessionPrior::default()),
        ];
        for empty in empties {
            prop_assert_eq!(empty.fingerprint().expect("cacheable"), base);
        }
    }
}
