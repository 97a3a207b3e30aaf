//! Timeline figures: F11 (buffer occupancy) and F12 (frequency residency).

use crate::harness::{governor, headline_session, run_sessions, COMPARISON_GOVERNORS};
use eavs_metrics::table::Table;
use eavs_sim::time::{SimDuration, SimTime};

/// F11: playback-buffer occupancy under EAVS vs ondemand (the governor
/// must not disturb buffer health).
pub fn f11_buffer_timeline() -> Table {
    let names = ["ondemand", "eavs"];
    let reports = run_sessions(
        names
            .iter()
            .map(|&name| {
                let builder = headline_session(governor(name)).record_series(true);
                (format!("f11 {name}"), builder)
            })
            .collect(),
    );
    let mut t = Table::new(&["t (s)", "ondemand buffer (s)", "eavs buffer (s)"]);
    t.set_title("F11: playback buffer occupancy — 60 s of 1080p30 film");
    let series: Vec<_> = reports
        .iter()
        .map(|r| {
            r.buffer_series().expect("recorded").resample(
                SimTime::ZERO,
                SimTime::from_secs(60),
                SimDuration::from_secs(2),
            )
        })
        .collect();
    for (a, b) in series[0].iter().zip(&series[1]) {
        t.row_owned(vec![
            format!("{:.0}", a.0.as_secs_f64()),
            format!("{:.2}", a.1),
            format!("{:.2}", b.1),
        ]);
    }
    t
}

/// F12: wall-clock frequency residency (time_in_state) by governor.
pub fn f12_residency() -> Table {
    let reports = run_sessions(
        COMPARISON_GOVERNORS
            .iter()
            .map(|&name| (format!("f12 {name}"), headline_session(governor(name))))
            .collect(),
    );
    let freqs: Vec<String> = reports[0]
        .time_in_state
        .iter()
        .map(|&(f, _)| f.to_string())
        .collect();
    let mut headers: Vec<&str> = vec!["governor"];
    headers.extend(freqs.iter().map(String::as_str));
    let mut t = Table::new(&headers);
    t.set_title("F12: frequency residency (% of session) — 60 s of 1080p30 film");
    for r in &reports {
        let total: SimDuration = r.time_in_state.iter().map(|&(_, d)| d).sum();
        let mut row = vec![r.governor.clone()];
        for &(_, d) in &r.time_in_state {
            row.push(format!("{:.1}", d.ratio(total) * 100.0));
        }
        t.row_owned(row);
    }
    t
}
