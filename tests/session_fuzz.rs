//! Property-based fuzzing of the whole streaming session: random
//! workloads, governors and player configurations must preserve the
//! system invariants.

use eavs::faults::{
    AmbientStep, Blackout, DecodeSpike, DecoderStall, FaultPlan, RandomFaults, SegmentFault,
};
use eavs::net::download::RetryPolicy;
use eavs::net::radio::RadioModel;
use eavs::power::DevicePowerModel;
use eavs::scaling::governor::{EavsConfig, EavsGovernor};
use eavs::scaling::predictor::predictor_by_name;
use eavs::scaling::session::{ClusterSelect, GovernorChoice, StreamingSession};
use eavs::sim::rng::SimRng;
use eavs::sim::time::{SimDuration, SimTime};
use eavs::tracegen::content::ContentProfile;
use eavs::video::display::LatePolicy;
use eavs::video::manifest::Manifest;
use eavs_governors::by_name;
use proptest::prelude::*;

fn governor_for(pick: u8) -> GovernorChoice {
    match pick % 6 {
        0 => GovernorChoice::Baseline(by_name("performance").unwrap()),
        1 => GovernorChoice::Baseline(by_name("ondemand").unwrap()),
        2 => GovernorChoice::Baseline(by_name("interactive").unwrap()),
        3 => GovernorChoice::Baseline(by_name("schedutil").unwrap()),
        4 => GovernorChoice::Eavs(EavsGovernor::new(
            predictor_by_name("hybrid").unwrap(),
            EavsConfig::default(),
        )),
        _ => GovernorChoice::Eavs(EavsGovernor::new(
            predictor_by_name("ewma").unwrap(),
            EavsConfig {
                margin: 0.05,
                down_hysteresis: 1,
                ..EavsConfig::default()
            },
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariants that must hold for any configuration:
    /// frame conservation, time partition, energy sanity, bounded session.
    #[test]
    fn session_invariants(
        gov_pick in 0u8..6,
        content_pick in 0u8..3,
        rung in 0u8..3,
        fps_pick in 0u8..2,
        drop in any::<bool>(),
        little in any::<bool>(),
        seed in 1u64..500,
    ) {
        let (kbps, w, h) = [(1_500u32, 854u32, 480u32), (3_000, 1280, 720), (6_000, 1920, 1080)]
            [rung as usize];
        let fps = [30u32, 60][fps_pick as usize];
        let content = ContentProfile::ALL[content_pick as usize];
        let report = StreamingSession::builder(governor_for(gov_pick))
            .manifest(Manifest::single(kbps, w, h, SimDuration::from_secs(6), fps))
            .content(content)
            .late_policy(if drop { LatePolicy::Drop } else { LatePolicy::Stall })
            .cluster(if little { ClusterSelect::Little } else { ClusterSelect::Big })
            .seed(seed)
            .horizon(SimTime::from_secs(120))
            .run();

        // Frame conservation.
        prop_assert!(
            report.qoe.frames_displayed + report.qoe.frames_dropped <= report.qoe.total_frames
        );
        // Time partition.
        let total: SimDuration = report.time_in_state.iter().map(|&(_, d)| d).sum();
        prop_assert_eq!(total, report.session_length);
        // Energy sanity.
        prop_assert!(report.cpu_joules().is_finite() && report.cpu_joules() > 0.0);
        prop_assert!(report.cpu_energy.busy_j >= 0.0 && report.cpu_energy.idle_j >= 0.0);
        prop_assert!(report.radio.energy_j > 0.0);
        // Power within physical bounds of the platform (≤ peak × cores
        // plus generous slack for radio/static accounting).
        prop_assert!(report.mean_cpu_power() < 16.0, "power {}", report.mean_cpu_power());
        // Bounded session.
        prop_assert!(report.session_length <= SimDuration::from_secs(120));
        // Determinism spot check on a second run.
        prop_assert!(report.events_processed > 0);
    }
}

/// Draws a randomized-but-reproducible [`FaultPlan`] from `rng`: a mix
/// of scripted faults (blackouts, per-segment stalls/corruption, decode
/// spikes/stalls, ambient steps) and, half the time, a seeded randomized
/// layer on top.
fn arbitrary_plan(rng: &mut SimRng) -> FaultPlan {
    let mut plan = FaultPlan::default();
    for _ in 0..rng.uniform_u64(0, 3) {
        plan.blackouts.push(Blackout {
            start: SimTime::from_nanos(rng.uniform_u64(0, 10_000_000_000)),
            duration: SimDuration::from_nanos(rng.uniform_u64(1, 4_000_000_000)),
        });
    }
    for _ in 0..rng.uniform_u64(0, 4) {
        plan.stalls.push(SegmentFault {
            segment: rng.uniform_u64(0, 8),
            attempts: rng.uniform_u64(1, 4) as u32,
        });
    }
    for _ in 0..rng.uniform_u64(0, 4) {
        plan.corruption.push(SegmentFault {
            segment: rng.uniform_u64(0, 8),
            attempts: rng.uniform_u64(1, 3) as u32,
        });
    }
    for _ in 0..rng.uniform_u64(0, 6) {
        plan.decode_spikes.push(DecodeSpike {
            frame: rng.uniform_u64(0, 400),
            factor: rng.uniform(1.1, 6.0),
        });
    }
    for _ in 0..rng.uniform_u64(0, 3) {
        plan.decoder_stalls.push(DecoderStall {
            frame: rng.uniform_u64(0, 400),
            pause: SimDuration::from_nanos(rng.uniform_u64(1_000_000, 300_000_000)),
        });
    }
    for _ in 0..rng.uniform_u64(0, 3) {
        plan.ambient_steps.push(AmbientStep {
            at: SimTime::from_nanos(rng.uniform_u64(0, 12_000_000_000)),
            ambient_c: rng.uniform(-5.0, 50.0),
        });
    }
    if rng.bernoulli(0.5) {
        let seed = rng.next_u64();
        plan.randomized = Some(if rng.bernoulli(0.5) {
            RandomFaults::light(seed)
        } else {
            RandomFaults::heavy(seed)
        });
    }
    plan
}

/// Chaos fuzz: sessions under arbitrary fault plans must terminate and
/// keep the bookkeeping invariants — no panics, every frame accounted
/// for, retries within the policy budget, buffer never negative.
///
/// Case count defaults to 64; CI raises it via `EAVS_CHAOS_CASES`.
#[test]
fn chaos_randomized_fault_plans() {
    let cases: u64 = eavs_bench::executor::env_knob("EAVS_CHAOS_CASES").unwrap_or(64);
    // One fixed master seed: the corpus is identical on every run and
    // machine, so a CI failure reproduces locally by case index.
    let mut rng = SimRng::new(0xC4A0_5EED);
    for case in 0..cases {
        let plan = arbitrary_plan(&mut rng);
        let gov_pick = (rng.next_u64() % 6) as u8;
        let seed = rng.uniform_u64(1, 1_000_000);
        let fps = [30u32, 60][(rng.next_u64() % 2) as usize];
        let drop = rng.bernoulli(0.5);
        // Always arm the watchdog: a stalled transfer with no timeout
        // deliberately hangs until the horizon, which is its own test.
        let retry = RetryPolicy {
            timeout: Some(SimDuration::from_nanos(
                rng.uniform_u64(300_000_000, 5_000_000_000),
            )),
            max_retries: rng.uniform_u64(0, 6) as u32,
            backoff_base: SimDuration::from_nanos(rng.uniform_u64(10_000_000, 1_000_000_000)),
            backoff_factor: rng.uniform(1.0, 3.0),
            backoff_cap: SimDuration::from_secs(rng.uniform_u64(1, 10)),
        };
        // Half the cases carry a randomized whole-device power model and
        // a one-tail LTE radio — brightness and radio tail timer drawn
        // from the same corpus — which must never disturb the invariants
        // below. The other half keep the default Wi-Fi radio.
        let (power, radio) = if rng.bernoulli(0.5) {
            let power = DevicePowerModel::phone_with_brightness(rng.uniform(0.1, 1.0));
            let radio = RadioModel::lte_rrc().with_tail_timer(SimDuration::from_nanos(
                rng.uniform_u64(100_000_000, 30_000_000_000),
            ));
            (power, radio)
        } else {
            (DevicePowerModel::none(), RadioModel::wifi())
        };
        let manifest = Manifest::single(3_000, 1280, 720, SimDuration::from_secs(6), fps);
        let frames_per_segment = manifest.frames_per_segment;
        let num_segments = manifest.num_segments;
        let report = StreamingSession::builder(governor_for(gov_pick))
            .manifest(manifest)
            .content(ContentProfile::ALL[(rng.next_u64() % 3) as usize])
            .late_policy(if drop {
                LatePolicy::Drop
            } else {
                LatePolicy::Stall
            })
            .faults(plan.clone())
            .retry(retry)
            .radio(radio)
            .power(power)
            .seed(seed)
            .record_series(true)
            .horizon(SimTime::from_secs(120))
            .run();

        let ctx = || format!("case {case}: plan {plan:?}, retry {retry:?}, seed {seed}");
        // Termination within the horizon (plus the final drain).
        assert!(
            report.session_length <= SimDuration::from_secs(121),
            "{}",
            ctx()
        );
        // Frame conservation: every frame of every *successfully*
        // downloaded segment is decoded, skipped, or still in the
        // pipeline — corruption and abandonment never leak frames.
        assert_eq!(
            report.segments_downloaded * frames_per_segment,
            report.frames_decoded + report.frames_skipped() + report.frames_pending,
            "{}",
            ctx()
        );
        // Segment conservation.
        assert!(
            report.segments_downloaded + report.segments_abandoned() <= num_segments,
            "{}",
            ctx()
        );
        // Retries within the per-segment budget.
        assert!(
            report.download_retries() <= num_segments * u64::from(retry.max_retries),
            "{}",
            ctx()
        );
        // The buffer timeline never goes negative.
        let series = report.buffer_series().expect("series recorded");
        assert!(
            series.iter().all(|(_, v)| v >= 0.0),
            "negative buffer: {}",
            ctx()
        );
        // Energy stays physical under faults.
        assert!(
            report.cpu_joules().is_finite() && report.cpu_joules() > 0.0,
            "{}",
            ctx()
        );
        // The radio's four residencies partition the session exactly,
        // and its energy is finite and non-negative.
        let r = &report.radio;
        assert_eq!(
            r.idle_time + r.promo_time + r.active_time + r.tail_time,
            report.session_length,
            "{}",
            ctx()
        );
        assert!(r.energy_j.is_finite() && r.energy_j >= 0.0, "{}", ctx());
        // Whole-device power accounting stays physical too: finite and
        // non-negative — or all-zero when no model is attached.
        if power.is_none() {
            assert_eq!(report.power.total_j(), 0.0, "{}", ctx());
        } else {
            assert!(
                report.power.total_j().is_finite() && report.power.total_j() > 0.0,
                "{}",
                ctx()
            );
            assert!(report.power.display_j >= 0.0, "{}", ctx());
            assert!(report.power.decoder_j >= 0.0, "{}", ctx());
        }
    }
}
