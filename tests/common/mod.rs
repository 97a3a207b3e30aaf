//! The no-op contract for optional session attachments, as one table.
//!
//! An empty attachment must be invisible: same report field for field,
//! same event stream, same fingerprint. For the fault plan, the power
//! model and the prior this holds by construction, because the builder
//! stores an empty value as `None`. Trace sinks are real observers that
//! run on every event and are never hashed. A new attachment costs one
//! row here. `attachments.rs` runs every row alone and all together;
//! `faults_noop.rs`, `obs_noop.rs` and `power_noop.rs` run their own row.

// Each test crate uses its own subset of these helpers.
#![allow(dead_code)]

use eavs::faults::FaultPlan;
use eavs::net::download::RetryPolicy;
use eavs::obs::{shared, NullSink, RingSink};
use eavs::power::DevicePowerModel;
use eavs::scaling::governor::{EavsConfig, EavsGovernor};
use eavs::scaling::predictor::{predictor_by_name, SessionPrior};
use eavs::scaling::session::{GovernorChoice, SessionBuilder, StreamingSession};
use eavs::sim::time::SimDuration;
use eavs::tracegen::content::ContentProfile;
use eavs::video::manifest::Manifest;
use eavs_governors::by_name;
use proptest::prelude::*;

pub const GOVERNORS: [&str; 5] = ["performance", "powersave", "ondemand", "schedutil", "eavs"];

pub type Attach = fn(SessionBuilder) -> SessionBuilder;

/// Every empty attachment, one row each.
pub const ROWS: [(&str, Attach); 5] = [
    ("faults/empty", |b| {
        b.faults(FaultPlan::default()).retry(RetryPolicy::default())
    }),
    ("power/none", |b| b.power(DevicePowerModel::none())),
    ("prior/empty", |b| b.prior(SessionPrior::default())),
    ("trace/null", |b| b.trace(shared(NullSink))),
    ("trace/ring", |b| b.trace(shared(RingSink::new(65_536)))),
];

/// The row called `name`.
pub fn row(name: &str) -> (&'static str, Attach) {
    ROWS.into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no row {name}"))
}

/// Every row applied in turn. The two trace rows replace each other,
/// so the combined builder carries the `RingSink`.
fn all(b: SessionBuilder) -> SessionBuilder {
    ROWS.iter().fold(b, |b, (_, attach)| attach(b))
}

/// The rows plus the all-together case.
pub fn cases() -> Vec<(&'static str, Attach)> {
    ROWS.into_iter().chain([("all", all as Attach)]).collect()
}

fn governor(name: &str) -> GovernorChoice {
    if name == "eavs" {
        GovernorChoice::Eavs(EavsGovernor::new(
            predictor_by_name("hybrid").unwrap(),
            EavsConfig::default(),
        ))
    } else {
        GovernorChoice::Baseline(by_name(name).unwrap())
    }
}

pub fn base(gov: &str, seed: u64) -> SessionBuilder {
    StreamingSession::builder(governor(gov))
        .manifest(Manifest::single(
            3_000,
            1280,
            720,
            SimDuration::from_secs(8),
            30,
        ))
        .content(ContentProfile::Sport)
        .seed(seed)
}

/// Runs every case under each of the five governors and demands the
/// plain session's fingerprint, report, event count and series.
pub fn assert_invisible_across_governors(cases: &[(&str, Attach)]) {
    for gov in GOVERNORS {
        let mk = || base(gov, 11).record_series(true);
        let plain_fp = mk().fingerprint().expect("cacheable");
        let plain = mk().run();
        // The baseline injects nothing, models no device power and
        // carries no host-dependent profile.
        assert!(plain.profile.is_none(), "{gov}");
        assert_eq!(plain.power, Default::default(), "{gov}");
        let faults = [
            plain.download_retries(),
            plain.download_timeouts(),
            plain.corrupt_downloads(),
            plain.segments_abandoned(),
            plain.decode_spikes(),
            plain.decode_stalls(),
            plain.panic_races,
        ];
        assert_eq!(faults, [0; 7], "{gov}");
        for (name, attach) in cases {
            let label = format!("{gov} + {name}");
            assert_eq!(
                attach(mk()).fingerprint().expect("cacheable"),
                plain_fp,
                "{label}: fingerprint"
            );
            let attached = attach(mk()).run();
            // Debug covers every field, including the energy floats, the
            // fault counters and the power block. Neither side carries a
            // profile, so the comparison is host-independent.
            assert_eq!(
                format!("{plain:?}"),
                format!("{attached:?}"),
                "{label}: report"
            );
            assert_eq!(plain.events_processed, attached.events_processed, "{label}");
            assert_eq!(plain.freq_series(), attached.freq_series(), "{label}");
            assert_eq!(plain.buffer_series(), attached.buffer_series(), "{label}");
        }
    }
}

/// The simulator schedules the exact same event stream with `attach`:
/// no dormant watchdog, no ambient tick, no extra governor decision.
pub fn assert_same_events((name, attach): (&str, Attach)) {
    let plain = base("eavs", 31).record_series(true).run();
    let attached = attach(base("eavs", 31).record_series(true)).run();
    assert_eq!(plain.events_processed, attached.events_processed, "{name}");
    assert_eq!(plain.freq_series(), attached.freq_series(), "{name}");
    assert_eq!(plain.buffer_series(), attached.buffer_series(), "{name}");
}

/// The empty attachment shares the plain digest, so the session cache
/// may serve either report for the other; the real one splits off.
pub fn assert_fingerprint_split((name, empty): (&str, Attach), real: Attach) {
    let plain = base("eavs", 23).fingerprint().expect("cacheable");
    let fp = |attach: Attach| attach(base("eavs", 23)).fingerprint().expect("cacheable");
    assert_eq!(fp(empty), plain, "{name} must share the digest");
    assert_ne!(fp(real), plain, "the real {name} attachment must split off");
}

/// For one governor/content/seed draw, every case leaves the fingerprint
/// and the report unchanged.
pub fn check_invisible_for_draw(
    cases: &[(&str, Attach)],
    gov_pick: u8,
    content_pick: u8,
    seed: u64,
) -> Result<(), TestCaseError> {
    let gov = GOVERNORS[gov_pick as usize];
    let content = ContentProfile::ALL[content_pick as usize];
    let mk = || base(gov, seed).content(content);
    let plain_fp = mk().fingerprint().expect("cacheable");
    let plain = format!("{:?}", mk().run());
    for (name, attach) in cases {
        prop_assert_eq!(
            attach(mk()).fingerprint().expect("cacheable"),
            plain_fp,
            "{}",
            name
        );
        prop_assert_eq!(&format!("{:?}", attach(mk()).run()), &plain, "{}", name);
    }
    Ok(())
}
