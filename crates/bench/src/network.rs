//! F9: variable networks with ABR — CPU + radio energy.

use std::sync::Arc;

use crate::harness::{governor, run_sessions, SEED};
use eavs_core::session::StreamingSession;
use eavs_metrics::table::Table;
use eavs_net::abr::BufferBasedAbr;
use eavs_net::radio::RadioModel;
use eavs_sim::time::SimDuration;
use eavs_trace::content::ContentProfile;
use eavs_trace::net_gen::NetworkProfile;
use eavs_video::manifest::Manifest;

fn radio_for(profile: NetworkProfile) -> RadioModel {
    match profile {
        NetworkProfile::WifiHome => RadioModel::wifi(),
        NetworkProfile::LteDrive => RadioModel::lte(),
        NetworkProfile::HspaTram => RadioModel::umts_3g(),
    }
}

/// F9: adaptive streaming over each network preset, interactive vs EAVS,
/// whole-stack energy.
pub fn f9_network_abr() -> Table {
    let duration = SimDuration::from_secs(120);
    let mut t = Table::new(&[
        "network",
        "governor",
        "cpu (J)",
        "radio (J)",
        "total (J)",
        "mean kbps",
        "switches",
        "rebuf",
        "miss %",
    ]);
    t.set_title("F9: ABR streaming over variable networks — 120 s, buffer-based ABR");
    let manifest = Arc::new(Manifest::standard_ladder(duration, 30));
    for profile in NetworkProfile::ALL {
        // One generated trace per network profile, shared by every job
        // (and memoized process-wide across reruns).
        let trace = profile.generate_shared(duration * 3, SEED);
        let reports = run_sessions(
            ["interactive", "eavs"]
                .iter()
                .map(|&name| {
                    let builder = StreamingSession::builder(governor(name))
                        .manifest(Arc::clone(&manifest))
                        .content(ContentProfile::Film)
                        .network(Arc::clone(&trace))
                        .radio(radio_for(profile))
                        .abr(Box::new(BufferBasedAbr::standard()))
                        .seed(SEED);
                    (format!("f9 {} {name}", profile.name()), builder)
                })
                .collect(),
        );
        for r in &reports {
            t.row(&[
                profile.name(),
                r.governor,
                &format!("{:.2}", r.cpu_joules()),
                &format!("{:.2}", r.radio.energy_j),
                &format!("{:.2}", r.device_joules()),
                &format!("{:.0}", r.qoe.mean_bitrate_kbps),
                &r.qoe.bitrate_switches.to_string(),
                &r.qoe.rebuffer_events.to_string(),
                &format!("{:.3}", r.qoe.deadline_miss_rate() * 100.0),
            ]);
        }
    }
    t
}
