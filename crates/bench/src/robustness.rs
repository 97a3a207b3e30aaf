//! Robustness experiments: fault storms and retry-policy sensitivity.
//!
//! Both figures drive sessions through the deterministic fault-injection
//! subsystem (`eavs-faults`). Fault decisions are keyed on stable
//! coordinates (segment index, attempt, frame index), so every governor
//! in a figure faces the *identical* storm — the rows differ only in how
//! the frequency policy absorbs it.

use std::sync::Arc;

use crate::harness::{
    eavs_resilient, governor, manifest_1080p30, run_sessions, COMPARISON_GOVERNORS, SEED,
};
use eavs_core::report::SessionReport;
use eavs_core::session::{SessionBuilder, StreamingSession};
use eavs_cpu::thermal::{ThermalModel, ThrottleController};
use eavs_faults::FaultPlan;
use eavs_metrics::table::Table;
use eavs_net::download::RetryPolicy;
use eavs_sim::time::SimDuration;
use eavs_trace::content::ContentProfile;

/// The retry policy both robustness figures treat as "balanced": a 2 s
/// watchdog, four retries, 250 ms base backoff doubling to a 5 s cap.
pub fn balanced_retry() -> RetryPolicy {
    RetryPolicy {
        timeout: Some(SimDuration::from_secs(2)),
        max_retries: 4,
        backoff_base: SimDuration::from_millis(250),
        backoff_factor: 2.0,
        backoff_cap: SimDuration::from_secs(5),
    }
}

/// The F24 session: 90 s of 1080p30 film under `governor(name)`, the
/// phone thermal model and the standard storm with the balanced retry.
fn storm_session(name: &str) -> SessionBuilder {
    StreamingSession::builder(governor(name))
        .manifest(manifest_1080p30(90))
        .content(ContentProfile::Film)
        .thermal(
            ThermalModel::phone_default(),
            ThrottleController::phone_default(),
        )
        .faults(FaultPlan::standard_storm())
        .retry(balanced_retry())
        .seed(SEED)
}

/// Row labels for F24, aligned with [`f24_reports`]: the comparison
/// governors plus the panic-recovery EAVS variant.
pub fn f24_labels() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = COMPARISON_GOVERNORS.to_vec();
    names.push("eavs-panic");
    names
}

/// The F24 row set: every comparison governor plus EAVS with panic
/// recovery, all run through [`FaultPlan::standard_storm`].
pub fn f24_reports() -> Vec<Arc<SessionReport>> {
    run_sessions(
        f24_labels()
            .into_iter()
            .map(|name| (format!("f24 {name}"), storm_session(name)))
            .collect(),
    )
}

/// F24: one fault storm, every governor.
///
/// 90 s of 1080p30 film with the standard storm: a 5 s bandwidth
/// blackout, a stalled and a corrupt segment, a 30-frame decode-cycle
/// spike burst, a transient decoder stall and two ambient steps. The
/// balanced retry policy recovers every network fault; the spike burst
/// separates the governors — reactive ones miss vsyncs (or starve the
/// display outright) while EAVS with panic recovery re-races to the
/// ceiling and keeps the decoded queue fed.
pub fn f24_fault_storm() -> Table {
    let reports = f24_reports();
    let mut t = Table::new(&[
        "governor",
        "cpu (J)",
        "rebuf",
        "late vsyncs",
        "miss %",
        "retries",
        "timeouts",
        "corrupt",
        "panics",
        "mean freq",
    ]);
    t.set_title("F24: fault-storm recovery — 90 s 1080p30 film, standard storm, balanced retry");
    for (name, r) in f24_labels().iter().zip(&reports) {
        t.row(&[
            name,
            &format!("{:.1}", r.cpu_joules()),
            &r.qoe.rebuffer_events.to_string(),
            &r.qoe.late_vsyncs.to_string(),
            &format!("{:.3}", r.qoe.deadline_miss_rate() * 100.0),
            &r.download_retries().to_string(),
            &r.download_timeouts().to_string(),
            &r.corrupt_downloads().to_string(),
            &r.panic_races.to_string(),
            &r.mean_freq.to_string(),
        ]);
    }
    t
}

/// The retry policies F25 sweeps, as `(label, policy)` rows.
pub fn f25_policies() -> Vec<(&'static str, RetryPolicy)> {
    vec![
        (
            "hair-trigger",
            RetryPolicy {
                timeout: Some(SimDuration::from_millis(500)),
                max_retries: 6,
                backoff_base: SimDuration::from_millis(100),
                backoff_factor: 2.0,
                backoff_cap: SimDuration::from_secs(2),
            },
        ),
        ("balanced", balanced_retry()),
        (
            "patient",
            RetryPolicy {
                timeout: Some(SimDuration::from_secs(4)),
                max_retries: 2,
                backoff_base: SimDuration::from_secs(1),
                backoff_factor: 2.0,
                backoff_cap: SimDuration::from_secs(8),
            },
        ),
        (
            "give-up-fast",
            RetryPolicy {
                timeout: Some(SimDuration::from_secs(1)),
                max_retries: 0,
                ..RetryPolicy::default()
            },
        ),
        ("no-watchdog", RetryPolicy::default()),
    ]
}

/// F25: retry-policy sensitivity under a stall/corruption-heavy plan.
///
/// EAVS with panic recovery streams 90 s of film through randomized
/// heavy faults (15 % stall, 10 % corruption per attempt) while the
/// retry policy sweeps from trigger-happy to absent. Aggressive
/// watchdogs burn radio energy on retries; patient ones trade that for
/// rebuffer time; no watchdog at all leaves the first stalled transfer
/// hanging until the session's safety horizon.
pub fn f25_retry_sensitivity() -> Table {
    let plan = FaultPlan {
        randomized: Some(eavs_faults::RandomFaults::heavy(SEED)),
        ..FaultPlan::default()
    };
    let reports = run_sessions(
        f25_policies()
            .into_iter()
            .map(|(label, retry)| {
                let builder = StreamingSession::builder(eavs_resilient())
                    .manifest(manifest_1080p30(90))
                    .content(ContentProfile::Film)
                    .faults(plan.clone())
                    .retry(retry)
                    .seed(SEED);
                (format!("f25 {label}"), builder)
            })
            .collect(),
    );
    let mut t = Table::new(&[
        "policy",
        "retries",
        "timeouts",
        "corrupt",
        "abandoned",
        "rebuf",
        "startup (ms)",
        "session (s)",
        "cpu (J)",
        "radio (J)",
    ]);
    t.set_title("F25: retry-policy sensitivity — EAVS+panic, randomized heavy faults");
    for ((label, _), r) in f25_policies().iter().zip(&reports) {
        t.row(&[
            label,
            &r.download_retries().to_string(),
            &r.download_timeouts().to_string(),
            &r.corrupt_downloads().to_string(),
            &r.segments_abandoned().to_string(),
            &r.qoe.rebuffer_events.to_string(),
            &format!("{:.0}", r.qoe.startup_delay.as_secs_f64() * 1000.0),
            &format!("{:.1}", r.session_length.as_secs_f64()),
            &format!("{:.1}", r.cpu_joules()),
            &format!("{:.1}", r.radio.energy_j),
        ]);
    }
    t
}
