//! Cross-crate integration tests: full sessions exercising the CPU model,
//! video pipeline, network, governors and the EAVS core together.

use eavs::net::abr::{BufferBasedAbr, RateBasedAbr};
use eavs::net::bandwidth::BandwidthTrace;
use eavs::net::radio::RadioModel;
use eavs::scaling::governor::{EavsConfig, EavsGovernor};
use eavs::scaling::predictor::{predictor_by_name, Hybrid, PREDICTOR_NAMES};
use eavs::scaling::session::{GovernorChoice, StreamingSession};
use eavs::scaling::SessionReport;
use eavs::sim::time::{SimDuration, SimTime};
use eavs::tracegen::content::ContentProfile;
use eavs::tracegen::net_gen::NetworkProfile;
use eavs::video::manifest::Manifest;
use eavs_governors::{by_name, Performance, Powersave, BASELINE_NAMES};

fn manifest_720p(secs: u64) -> Manifest {
    Manifest::single(3_000, 1280, 720, SimDuration::from_secs(secs), 30)
}

fn manifest_1080p(secs: u64) -> Manifest {
    Manifest::single(6_000, 1920, 1080, SimDuration::from_secs(secs), 30)
}

fn eavs() -> GovernorChoice {
    GovernorChoice::Eavs(EavsGovernor::new(
        Box::new(Hybrid::default()),
        EavsConfig::default(),
    ))
}

fn run(gov: GovernorChoice, manifest: Manifest, content: ContentProfile) -> SessionReport {
    StreamingSession::builder(gov)
        .manifest(manifest)
        .content(content)
        .seed(99)
        .run()
}

#[test]
fn every_baseline_governor_completes_a_session() {
    for name in BASELINE_NAMES {
        let report = run(
            GovernorChoice::Baseline(by_name(name).unwrap()),
            manifest_720p(8),
            ContentProfile::Film,
        );
        assert_eq!(
            report.qoe.frames_displayed, report.qoe.total_frames,
            "{name}: did not display every frame"
        );
        assert!(report.cpu_joules() > 0.0, "{name}: no energy recorded");
        assert!(
            report.session_length >= SimDuration::from_secs(8),
            "{name}: session shorter than the content"
        );
    }
}

#[test]
fn eavs_dominance_relations_hold() {
    // The paper's qualitative claims, as inequalities, on all 3 contents.
    for content in ContentProfile::ALL {
        let perf = run(
            GovernorChoice::Baseline(Box::new(Performance)),
            manifest_1080p(20),
            content,
        );
        let eavs_r = run(eavs(), manifest_1080p(20), content);
        // Energy: strictly better than racing at max.
        assert!(
            eavs_r.cpu_joules() < perf.cpu_joules(),
            "{content}: eavs {:.2} J !< performance {:.2} J",
            eavs_r.cpu_joules(),
            perf.cpu_joules()
        );
        // QoE: essentially perfect (sub-0.5% misses, no rebuffering).
        assert!(
            eavs_r.qoe.deadline_miss_rate() < 0.005,
            "{content}: miss rate {:.4}",
            eavs_r.qoe.deadline_miss_rate()
        );
        assert_eq!(eavs_r.qoe.rebuffer_events, 0, "{content}: rebuffered");
        assert_eq!(
            eavs_r.qoe.frames_displayed, eavs_r.qoe.total_frames,
            "{content}: incomplete playback"
        );
    }
}

#[test]
fn eavs_beats_ondemand_and_interactive_on_film() {
    let eavs_r = run(eavs(), manifest_1080p(30), ContentProfile::Film);
    for name in ["ondemand", "interactive"] {
        let base = run(
            GovernorChoice::Baseline(by_name(name).unwrap()),
            manifest_1080p(30),
            ContentProfile::Film,
        );
        let saving = 1.0 - eavs_r.cpu_joules() / base.cpu_joules();
        assert!(
            saving > 0.08,
            "saving vs {name} only {:.1}% ({:.2} vs {:.2} J)",
            saving * 100.0,
            eavs_r.cpu_joules(),
            base.cpu_joules()
        );
    }
}

#[test]
fn powersave_brackets_the_energy_floor_but_wrecks_qoe() {
    let ps = run(
        GovernorChoice::Baseline(Box::new(Powersave)),
        manifest_1080p(15),
        ContentProfile::Film,
    );
    let eavs_r = run(eavs(), manifest_1080p(15), ContentProfile::Film);
    // powersave at the floor cannot decode 1080p in real time.
    assert!(
        ps.qoe.late_vsyncs > 50,
        "powersave misses: {}",
        ps.qoe.late_vsyncs
    );
    assert!(eavs_r.qoe.late_vsyncs <= 2);
    // But per unit time its *power* is the floor.
    assert!(eavs_r.mean_cpu_power() >= ps.mean_cpu_power() * 0.8);
}

#[test]
fn all_predictors_work_inside_the_governor() {
    for name in PREDICTOR_NAMES {
        let gov = GovernorChoice::Eavs(EavsGovernor::new(
            predictor_by_name(name).unwrap(),
            EavsConfig::default(),
        ));
        let report = run(gov, manifest_720p(8), ContentProfile::Sport);
        assert_eq!(
            report.qoe.frames_displayed, report.qoe.total_frames,
            "{name}: incomplete playback"
        );
        assert_eq!(report.governor, format!("eavs/{name}"));
    }
}

#[test]
fn determinism_end_to_end_with_abr_and_lte() {
    let build = || {
        StreamingSession::builder(eavs())
            .manifest(Manifest::standard_ladder(SimDuration::from_secs(30), 30))
            .content(ContentProfile::Film)
            .network(NetworkProfile::LteDrive.generate(SimDuration::from_secs(120), 5))
            .radio(RadioModel::lte())
            .abr(Box::new(BufferBasedAbr::standard()))
            .seed(5)
            .run()
    };
    let a = build();
    let b = build();
    assert_eq!(a.cpu_joules().to_bits(), b.cpu_joules().to_bits());
    assert_eq!(a.radio.energy_j.to_bits(), b.radio.energy_j.to_bits());
    assert_eq!(a.qoe.late_vsyncs, b.qoe.late_vsyncs);
    assert_eq!(a.qoe.bitrate_switches, b.qoe.bitrate_switches);
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn abr_adapts_bitrate_to_bandwidth() {
    // Rate-based ABR over a slow link must choose lower rungs than over a
    // fast one.
    let run_abr = |bps: f64| {
        StreamingSession::builder(eavs())
            .manifest(Manifest::standard_ladder(SimDuration::from_secs(30), 30))
            .network(BandwidthTrace::constant(bps))
            .abr(Box::new(RateBasedAbr::standard()))
            .seed(3)
            .run()
    };
    let slow = run_abr(2e6);
    let fast = run_abr(50e6);
    assert!(
        fast.qoe.mean_bitrate_kbps > 2.0 * slow.qoe.mean_bitrate_kbps,
        "fast {} kbps vs slow {} kbps",
        fast.qoe.mean_bitrate_kbps,
        slow.qoe.mean_bitrate_kbps
    );
    // Both complete playback.
    assert_eq!(slow.qoe.frames_displayed, slow.qoe.total_frames);
    assert_eq!(fast.qoe.frames_displayed, fast.qoe.total_frames);
}

#[test]
fn radio_energy_scales_with_radio_model() {
    let run_radio = |model: RadioModel| {
        StreamingSession::builder(eavs())
            .manifest(manifest_720p(20))
            .radio(model)
            .seed(3)
            .run()
    };
    let wifi = run_radio(RadioModel::wifi());
    let lte = run_radio(RadioModel::lte());
    let umts = run_radio(RadioModel::umts_3g());
    assert!(wifi.radio.energy_j < lte.radio.energy_j);
    assert!(lte.radio.energy_j < umts.radio.energy_j);
    // CPU side is unaffected by the radio model.
    assert_eq!(wifi.cpu_joules().to_bits(), lte.cpu_joules().to_bits());
    // Without a power model the device sum is F9's: CPU + radio.
    let f9_sum = lte.cpu_joules() + lte.radio.energy_j + lte.power.total_j();
    assert_eq!(lte.device_joules().to_bits(), f9_sum.to_bits());
}

#[test]
fn time_in_state_partitions_session_for_all_governors() {
    for name in ["ondemand", "interactive", "schedutil"] {
        let report = run(
            GovernorChoice::Baseline(by_name(name).unwrap()),
            manifest_720p(10),
            ContentProfile::Film,
        );
        let total: SimDuration = report.time_in_state.iter().map(|&(_, d)| d).sum();
        assert_eq!(total, report.session_length, "{name}");
    }
}

#[test]
fn recorded_series_are_consistent_with_report() {
    let report = StreamingSession::builder(eavs())
        .manifest(manifest_720p(10))
        .record_series(true)
        .seed(3)
        .run();
    let freq = report.freq_series().expect("series");
    // Every recorded frequency is an OPP of the SoC.
    let opps: Vec<f64> = report
        .time_in_state
        .iter()
        .map(|&(f, _)| f.mhz() as f64)
        .collect();
    for (_, mhz) in freq.iter() {
        assert!(
            opps.iter().any(|&o| (o - mhz).abs() < 0.5),
            "recorded {mhz} MHz is not an OPP"
        );
    }
    // Buffer level is never negative and bounded by the player cap.
    let buffer = report.buffer_series().expect("series");
    for (_, level) in buffer.iter() {
        assert!(
            (0.0..=31.0).contains(&level),
            "buffer {level}s out of range"
        );
    }
}

#[test]
fn horizon_caps_runaway_sessions() {
    // A hopeless network (64 kbps for 3 Mbps content): the session cannot
    // finish, but the run terminates at the horizon with rebuffering
    // recorded.
    let report = StreamingSession::builder(eavs())
        .manifest(manifest_720p(10))
        .network(BandwidthTrace::constant(64e3))
        .horizon(SimTime::from_secs(40))
        .seed(3)
        .run();
    assert!(report.qoe.frames_displayed < report.qoe.total_frames);
    assert!(report.session_length <= SimDuration::from_secs(40));
    // At 64 kbps the startup buffer never fills: playback never begins.
    assert_eq!(report.qoe.frames_displayed, 0);
    assert_eq!(report.qoe.startup_delay, report.session_length);
}
