//! Adaptive streaming over a variable LTE link.
//!
//! Streams a 2-minute title with a full DASH ladder over a Markov-
//! modulated LTE drive trace, using buffer-based ABR, and compares the
//! interactive baseline against EAVS on *whole-device-relevant* energy
//! (CPU + radio) and QoE — the scenario of figure F9.
//!
//! ```text
//! cargo run --release --example abr_streaming
//! ```

use eavs::metrics::table::Table;
use eavs::net::abr::BufferBasedAbr;
use eavs::net::radio::RadioModel;
use eavs::scaling::governor::{EavsConfig, EavsGovernor};
use eavs::scaling::predictor::Hybrid;
use eavs::scaling::session::{GovernorChoice, StreamingSession};
use eavs::sim::time::SimDuration;
use eavs::tracegen::content::ContentProfile;
use eavs::tracegen::net_gen::NetworkProfile;
use eavs::video::manifest::Manifest;
use eavs_governors::Interactive;

fn main() {
    let duration = SimDuration::from_secs(120);
    let network = NetworkProfile::LteDrive.generate(duration * 3, 2024);

    let mut table = Table::new(&[
        "governor",
        "cpu (J)",
        "radio (J)",
        "total (J)",
        "mean kbps",
        "switches",
        "rebuffers",
        "qoe score",
    ]);
    table.set_title("120 s adaptive 30fps stream over LTE drive trace (buffer-based ABR)");

    for (label, gov) in [
        (
            "interactive",
            GovernorChoice::Baseline(Box::new(Interactive::new()) as Box<_>),
        ),
        (
            "eavs",
            GovernorChoice::Eavs(EavsGovernor::new(
                Box::new(Hybrid::default()),
                EavsConfig::default(),
            )),
        ),
    ] {
        let report = StreamingSession::builder(gov)
            .manifest(Manifest::standard_ladder(duration, 30))
            .content(ContentProfile::Film)
            .network(network.clone())
            .radio(RadioModel::lte())
            .abr(Box::new(BufferBasedAbr::standard()))
            .seed(7)
            .run();
        table.row(&[
            label,
            &format!("{:.2}", report.cpu_joules()),
            &format!("{:.2}", report.radio.energy_j),
            &format!("{:.2}", report.device_joules()),
            &format!("{:.0}", report.qoe.mean_bitrate_kbps),
            &report.qoe.bitrate_switches.to_string(),
            &report.qoe.rebuffer_events.to_string(),
            &format!("{:.2}", report.qoe.score()),
        ]);
    }
    println!("{}", table.render());
    println!("CPU savings are additive on top of radio energy: the governor");
    println!("does not disturb ABR decisions (same bitrate/switch columns).");
}
