//! Integration tests for the extension features: thermal, background
//! load, cluster placement (static and automatic), and the CLI layer —
//! exercised together and checked for determinism.

use eavs::cli;
use eavs::cpu::thermal::{ThermalModel, ThrottleController};
use eavs::net::radio::RadioModel;
use eavs::power::DevicePowerModel;
use eavs::scaling::governor::{EavsConfig, EavsGovernor};
use eavs::scaling::predictor::Hybrid;
use eavs::scaling::session::{ClusterSelect, GovernorChoice, StreamingSession};
use eavs::sim::time::SimDuration;
use eavs::tracegen::content::ContentProfile;
use eavs::tracegen::net_gen::NetworkProfile;
use eavs::video::manifest::Manifest;

fn eavs() -> GovernorChoice {
    GovernorChoice::Eavs(EavsGovernor::new(
        Box::new(Hybrid::default()),
        EavsConfig::default(),
    ))
}

fn manifest_480p(secs: u64) -> Manifest {
    Manifest::single(1_500, 854, 480, SimDuration::from_secs(secs), 30)
}

#[test]
fn auto_placement_deterministic_and_conserves_accounting() {
    let build = || {
        StreamingSession::builder(eavs())
            .manifest(manifest_480p(20))
            .cluster(ClusterSelect::Auto)
            .seed(11)
            .run()
    };
    let a = build();
    let b = build();
    assert_eq!(a.cpu_joules().to_bits(), b.cpu_joules().to_bits());
    assert_eq!(a.migrations(), b.migrations());
    assert!(a.migrations() >= 1);
    assert_eq!(a.cluster, "auto");
    // Both clusters' energy is accounted: the total must exceed the
    // active cluster's busy energy alone and every component is finite.
    assert!(a.cpu_energy.busy_j > 0.0);
    assert!(a.cpu_energy.static_j > 0.0);
    assert!(a.cpu_energy.transition_j > 0.0, "migration energy charged");
    assert_eq!(a.qoe.frames_displayed, a.qoe.total_frames);
}

#[test]
fn auto_placement_beats_wrong_static_choice_on_light_content() {
    let run_with = |select| {
        StreamingSession::builder(eavs())
            .manifest(manifest_480p(30))
            .cluster(select)
            .seed(4)
            .run()
    };
    let auto = run_with(ClusterSelect::Auto);
    let big = run_with(ClusterSelect::Big);
    assert!(
        auto.cpu_joules() < big.cpu_joules() * 0.7,
        "auto {:.2} J should be far below static big {:.2} J on 480p",
        auto.cpu_joules(),
        big.cpu_joules()
    );
    assert_eq!(auto.qoe.late_vsyncs, 0);
}

#[test]
fn thermal_and_background_compose_with_eavs() {
    let report = StreamingSession::builder(eavs())
        .manifest(Manifest::single(
            6_000,
            1920,
            1080,
            SimDuration::from_secs(15),
            30,
        ))
        .content(ContentProfile::Film)
        .thermal(
            ThermalModel::phone_default(),
            ThrottleController::phone_default(),
        )
        .background_load(0.25, SimDuration::from_millis(80))
        .seed(9)
        .run();
    assert!(report.peak_temp_c().expect("thermal on") > 25.0);
    assert!(report.background_jobs() > 50);
    assert_eq!(report.qoe.frames_displayed, report.qoe.total_frames);
    assert_eq!(report.qoe.late_vsyncs, 0);
}

#[test]
fn radio_and_network_presets_compose() {
    // Every (network preset, radio model) pair completes a short ABR-free
    // session deterministically.
    for profile in NetworkProfile::ALL {
        for radio in [RadioModel::wifi(), RadioModel::lte(), RadioModel::umts_3g()] {
            let report = StreamingSession::builder(eavs())
                .manifest(manifest_480p(10))
                .network(profile.generate(SimDuration::from_secs(60), 3))
                .radio(radio)
                .seed(3)
                .run();
            assert_eq!(
                report.qoe.frames_displayed, report.qoe.total_frames,
                "{profile}: playback incomplete"
            );
            assert!(report.radio.energy_j > 0.0);
        }
    }
}

#[test]
fn power_model_composes_with_thermal_and_radio() {
    // The whole-device power model stacks on every other extension:
    // thermal throttling, background load, and the session's radio
    // accounting all run in the same session while the device model
    // fills in its own component counters post-hoc.
    let build = |radio: RadioModel| {
        StreamingSession::builder(eavs())
            .manifest(manifest_480p(15))
            .content(ContentProfile::Sport)
            .thermal(
                ThermalModel::phone_default(),
                ThrottleController::phone_default(),
            )
            .background_load(0.2, SimDuration::from_millis(100))
            .radio(radio)
            .power(DevicePowerModel::phone())
            .seed(17)
            .run()
    };
    let report = build(RadioModel::lte_rrc());
    assert!(report.peak_temp_c().expect("thermal on") > 25.0);
    assert!(report.radio.energy_j > 0.0);
    assert!(report.radio.promotions > 0);
    assert!(report.power.display_j > 0.0);
    assert!(report.power.decoder_j > 0.0);
    // The device sum counts the session's one radio once.
    assert_eq!(
        report.device_joules().to_bits(),
        (report.cpu_joules() + report.radio.energy_j + report.power.total_j()).to_bits()
    );
    // The radio's residencies partition the whole session.
    let r = &report.radio;
    let residency = r.idle_time + r.promo_time + r.active_time + r.tail_time;
    assert_eq!(residency, report.session_length);

    // A longer tail timer keeps the radio out of IDLE for longer and can
    // only raise energy — and the rest of the session is untouched.
    let long = build(RadioModel::lte_rrc().with_tail_timer(SimDuration::from_secs(30)));
    assert!(long.radio.energy_j >= report.radio.energy_j);
    assert!(long.radio.idle_time <= report.radio.idle_time);
    assert_eq!(long.power, report.power);
    assert_eq!(long.cpu_joules().to_bits(), report.cpu_joules().to_bits());
    assert_eq!(long.events_processed, report.events_processed);
}

#[test]
fn cli_layer_matches_direct_builder() {
    // The CLI must produce the same session a hand-built builder does.
    let args = cli::RunArgs {
        duration_s: 10,
        bitrate_kbps: 1_500,
        width: 854,
        height: 480,
        seed: 21,
        ..cli::RunArgs::default()
    };
    let via_cli = cli::run_session(&args, "eavs").expect("cli run");
    let direct = StreamingSession::builder(eavs())
        .manifest(manifest_480p(10))
        .seed(21)
        .run();
    assert_eq!(
        via_cli.cpu_joules().to_bits(),
        direct.cpu_joules().to_bits()
    );
    assert_eq!(via_cli.transitions, direct.transitions);
}
