//! Parameter sweeps: F7 (bitrate/resolution), F8 (frame rate), F10
//! (safety margin) and F13 (design ablations).

use std::sync::Arc;

use crate::harness::{eavs_with, governor, headline_session, run_sessions, single_manifest, SEED};
use eavs_core::governor::EavsConfig;
use eavs_core::predictor::PREDICTOR_NAMES;
use eavs_core::session::{SessionBuilder, StreamingSession};
use eavs_metrics::table::Table;
use eavs_trace::content::ContentProfile;
use eavs_video::manifest::Manifest;

/// The quality rungs swept by F7 (matching the standard ladder).
const RUNGS: [(u32, u32, u32, &str); 5] = [
    (700, 640, 360, "360p"),
    (1_500, 854, 480, "480p"),
    (3_000, 1280, 720, "720p"),
    (6_000, 1920, 1080, "1080p"),
    (10_000, 2560, 1440, "1440p"),
];

const SWEEP_GOVERNORS: [&str; 4] = ["performance", "ondemand", "interactive", "eavs"];

fn build_one(gov: &str, manifest: Arc<Manifest>, content: ContentProfile) -> SessionBuilder {
    StreamingSession::builder(governor(gov))
        .manifest(manifest)
        .content(content)
        .seed(SEED)
}

/// F7: CPU energy vs bitrate/resolution rung (30 fps, film).
pub fn f7_bitrate_sweep() -> Table {
    let mut t = Table::new(&[
        "rung",
        "performance (J)",
        "ondemand (J)",
        "interactive (J)",
        "eavs (J)",
        "eavs saving vs ondemand",
        "eavs miss %",
    ]);
    t.set_title("F7: CPU energy across the quality ladder — 60 s film @30fps");
    for (kbps, w, h, label) in RUNGS {
        let manifest = Arc::new(single_manifest(kbps, w, h, 60, 30));
        let reports = run_sessions(
            SWEEP_GOVERNORS
                .iter()
                .map(|&g| {
                    (
                        format!("f7 {label} {g}"),
                        build_one(g, Arc::clone(&manifest), ContentProfile::Film),
                    )
                })
                .collect(),
        );
        let ondemand = reports[1].cpu_joules();
        let eavs = &reports[3];
        t.row(&[
            label,
            &format!("{:.2}", reports[0].cpu_joules()),
            &format!("{:.2}", reports[1].cpu_joules()),
            &format!("{:.2}", reports[2].cpu_joules()),
            &format!("{:.2}", eavs.cpu_joules()),
            &format!("{:.1}%", (1.0 - eavs.cpu_joules() / ondemand) * 100.0),
            &format!("{:.3}", eavs.qoe.deadline_miss_rate() * 100.0),
        ]);
    }
    t
}

/// F8: CPU energy and misses vs frame rate (1080p film).
pub fn f8_framerate_sweep() -> Table {
    let mut t = Table::new(&[
        "fps",
        "governor",
        "cpu (J)",
        "miss %",
        "mean freq",
        "saving vs ondemand",
    ]);
    t.set_title("F8: frame-rate sweep — 60 s of 1080p film at 24/30/60 fps");
    for fps in [24u32, 30, 60] {
        let manifest = Arc::new(single_manifest(6_000, 1920, 1080, 60, fps));
        let reports = run_sessions(
            SWEEP_GOVERNORS
                .iter()
                .map(|&g| {
                    (
                        format!("f8 {fps}fps {g}"),
                        build_one(g, Arc::clone(&manifest), ContentProfile::Film),
                    )
                })
                .collect(),
        );
        let ondemand = reports[1].cpu_joules();
        for r in &reports {
            t.row(&[
                &fps.to_string(),
                &r.governor,
                &format!("{:.2}", r.cpu_joules()),
                &format!("{:.3}", r.qoe.deadline_miss_rate() * 100.0),
                &r.mean_freq.to_string(),
                &format!("{:+.1}%", (r.cpu_joules() / ondemand - 1.0) * 100.0),
            ]);
        }
    }
    t
}

/// F10: sensitivity to the EAVS safety margin (sport content stresses the
/// predictor).
pub fn f10_margin_sweep() -> Table {
    let margins = [0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50];
    let mut t = Table::new(&["margin", "cpu (J)", "late vsyncs", "miss %", "transitions"]);
    t.set_title("F10: EAVS safety-margin sweep — 60 s of 1080p30 sport");
    let reports = run_sessions(
        margins
            .iter()
            .map(|&margin| {
                let cfg = EavsConfig {
                    margin,
                    ..EavsConfig::default()
                };
                let builder =
                    headline_session(eavs_with(cfg, "hybrid")).content(ContentProfile::Sport);
                (format!("f10 margin {margin:.2}"), builder)
            })
            .collect(),
    );
    for (margin, r) in margins.iter().zip(&reports) {
        t.row(&[
            &format!("{:.0}%", margin * 100.0),
            &format!("{:.2}", r.cpu_joules()),
            &r.qoe.late_vsyncs.to_string(),
            &format!("{:.3}", r.qoe.deadline_miss_rate() * 100.0),
            &r.transitions.to_string(),
        ]);
    }
    t
}

/// F13: design ablations — predictor choice, energy floor, race-on-fill,
/// hysteresis, lookahead. Run on sport (stresses prediction) and
/// animation (light load, where the energy floor is decisive).
pub fn f13_ablations() -> Table {
    let mut t = Table::new(&[
        "variant",
        "content",
        "cpu (J)",
        "late vsyncs",
        "rebuf",
        "startup (ms)",
        "transitions",
    ]);
    t.set_title("F13: EAVS ablations — 60 s of 1080p30");

    struct Variant {
        label: String,
        predictor: &'static str,
        config: EavsConfig,
    }
    let mut variants = Vec::new();
    for p in PREDICTOR_NAMES {
        variants.push(Variant {
            label: format!("predictor={p}"),
            predictor: p,
            config: EavsConfig::default(),
        });
    }
    variants.push(Variant {
        label: "predictor=oracle (bound)".into(),
        predictor: "oracle",
        config: EavsConfig::default(),
    });
    variants.push(Variant {
        label: "oracle, margin=0 (bound)".into(),
        predictor: "oracle",
        config: EavsConfig {
            margin: 0.0,
            ..EavsConfig::default()
        },
    });
    variants.push(Variant {
        label: "no-race-on-fill".into(),
        predictor: "hybrid",
        config: EavsConfig {
            race_on_fill: false,
            ..EavsConfig::default()
        },
    });
    variants.push(Variant {
        label: "no-energy-floor".into(),
        predictor: "hybrid",
        config: EavsConfig {
            energy_floor: false,
            ..EavsConfig::default()
        },
    });
    variants.push(Variant {
        label: "no-hysteresis".into(),
        predictor: "hybrid",
        config: EavsConfig {
            down_hysteresis: 1,
            ..EavsConfig::default()
        },
    });
    variants.push(Variant {
        label: "hysteresis=8".into(),
        predictor: "hybrid",
        config: EavsConfig {
            down_hysteresis: 8,
            ..EavsConfig::default()
        },
    });
    variants.push(Variant {
        label: "lookahead=1".into(),
        predictor: "hybrid",
        config: EavsConfig {
            lookahead: 1,
            ..EavsConfig::default()
        },
    });
    variants.push(Variant {
        label: "lookahead=16".into(),
        predictor: "hybrid",
        config: EavsConfig {
            lookahead: 16,
            ..EavsConfig::default()
        },
    });
    variants.push(Variant {
        label: "tick=5ms".into(),
        predictor: "hybrid",
        config: EavsConfig {
            decision_interval: eavs_sim::time::SimDuration::from_millis(5),
            ..EavsConfig::default()
        },
    });
    variants.push(Variant {
        label: "tick=100ms".into(),
        predictor: "hybrid",
        config: EavsConfig {
            decision_interval: eavs_sim::time::SimDuration::from_millis(100),
            ..EavsConfig::default()
        },
    });

    for content in [ContentProfile::Sport, ContentProfile::Animation] {
        let reports = run_sessions(
            variants
                .iter()
                .map(|v| {
                    let builder =
                        headline_session(eavs_with(v.config, v.predictor)).content(content);
                    (format!("f13 {} {}", v.label, content.name()), builder)
                })
                .collect(),
        );
        for (v, r) in variants.iter().zip(&reports) {
            t.row(&[
                &v.label,
                content.name(),
                &format!("{:.2}", r.cpu_joules()),
                &r.qoe.late_vsyncs.to_string(),
                &r.qoe.rebuffer_events.to_string(),
                &format!("{:.0}", r.qoe.startup_delay.as_secs_f64() * 1e3),
                &r.transitions.to_string(),
            ]);
        }
    }
    t
}
