//! Headline comparisons: F5 (energy by governor), F6 (deadline misses),
//! T2 (full summary matrix).

use std::sync::Arc;

use crate::harness::{governor, headline_session, run_sessions, COMPARISON_GOVERNORS};
use eavs_core::report::SessionReport;
use eavs_metrics::table::Table;
use eavs_trace::content::ContentProfile;

/// Runs the comparison set on one content, 60 s of 1080p30, as one batch.
/// Sessions go through the process-wide cache, so the figures sharing
/// this set (F5, F6, T2) reuse each governor × content report once it
/// is cached.
pub fn run_comparison(content: ContentProfile) -> Vec<Arc<SessionReport>> {
    run_sessions(
        COMPARISON_GOVERNORS
            .iter()
            .map(|&name| {
                let builder = headline_session(governor(name)).content(content);
                (format!("comparison {name} {}", content.name()), builder)
            })
            .collect(),
    )
}

fn joules_of(reports: &[Arc<SessionReport>], name: &str) -> f64 {
    reports
        .iter()
        .find(|r| r.governor.starts_with(name))
        .map(|r| r.cpu_joules())
        .unwrap_or(f64::NAN)
}

/// F5: CPU energy by governor (film content).
pub fn f5_energy_by_governor() -> Table {
    let reports = run_comparison(ContentProfile::Film);
    let ondemand = joules_of(&reports, "ondemand");
    let interactive = joules_of(&reports, "interactive");
    let mut t = Table::new(&[
        "governor",
        "cpu (J)",
        "vs ondemand",
        "vs interactive",
        "mean power (W)",
        "mean freq",
        "mJ/frame",
    ]);
    t.set_title("F5: CPU energy by governor — 60 s of 1080p30 film, flagship2016");
    for r in &reports {
        t.row(&[
            r.governor,
            &format!("{:.2}", r.cpu_joules()),
            &format!("{:+.1}%", (r.cpu_joules() / ondemand - 1.0) * 100.0),
            &format!("{:+.1}%", (r.cpu_joules() / interactive - 1.0) * 100.0),
            &format!("{:.3}", r.mean_cpu_power()),
            &r.mean_freq.to_string(),
            &format!("{:.2}", r.mj_per_frame()),
        ]);
    }
    t
}

/// F6: QoE (deadline misses, rebuffering) by governor (film content).
pub fn f6_deadline_misses() -> Table {
    let reports = run_comparison(ContentProfile::Film);
    let mut t = Table::new(&[
        "governor",
        "late vsyncs",
        "miss %",
        "rebuffers",
        "frames shown",
        "session (s)",
        "transitions",
    ]);
    t.set_title("F6: playback quality by governor — 60 s of 1080p30 film");
    for r in &reports {
        t.row(&[
            r.governor,
            &r.qoe.late_vsyncs.to_string(),
            &format!("{:.3}", r.qoe.deadline_miss_rate() * 100.0),
            &r.qoe.rebuffer_events.to_string(),
            &format!("{}/{}", r.qoe.frames_displayed, r.qoe.total_frames),
            &format!("{:.1}", r.session_length.as_secs_f64()),
            &r.transitions.to_string(),
        ]);
    }
    t
}

/// T2: the full summary matrix (governor × content).
pub fn t2_summary() -> Table {
    let mut t = Table::new(&[
        "governor",
        "content",
        "cpu (J)",
        "vs interactive",
        "miss %",
        "rebuf",
        "mean freq",
        "trans",
        "qoe score",
    ]);
    t.set_title("T2: summary — all governors × all contents, 60 s of 1080p30");
    for content in ContentProfile::ALL {
        let reports = run_comparison(content);
        let interactive = joules_of(&reports, "interactive");
        for r in &reports {
            t.row(&[
                r.governor,
                content.name(),
                &format!("{:.2}", r.cpu_joules()),
                &format!("{:+.1}%", (r.cpu_joules() / interactive - 1.0) * 100.0),
                &format!("{:.3}", r.qoe.deadline_miss_rate() * 100.0),
                &r.qoe.rebuffer_events.to_string(),
                &r.mean_freq.to_string(),
                &r.transitions.to_string(),
                &format!("{:.2}", r.qoe.score()),
            ]);
        }
    }
    t
}
