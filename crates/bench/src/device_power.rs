//! Whole-device energy experiments: the F28 component breakdown and the
//! F29 radio tail-timer sensitivity sweep.
//!
//! Both figures stream an LTE drive scenario through the one-tail LTE
//! radio ([`RadioModel::lte_rrc`]) and attach the phone preset of
//! [`DevicePowerModel`] (display and decoder). Radio and power accounting
//! are post-hoc over the finished timeline (download activity intervals,
//! chosen bitrates, manifest, seed), so the sessions here are
//! byte-identical to their unmodeled twins, and the committed golden CSVs
//! of the other 30 experiments are provably untouched
//! (`tests/attachments.rs`).

use crate::harness::{
    governor, headline_session, run_sessions, single_manifest, COMPARISON_GOVERNORS, SEED,
};
use eavs_core::session::{GovernorChoice, SessionBuilder, StreamingSession};
use eavs_metrics::table::Table;
use eavs_net::radio::RadioModel;
use eavs_power::DevicePowerModel;
use eavs_sim::time::SimDuration;
use eavs_trace::content::ContentProfile;
use eavs_trace::net_gen::NetworkProfile;

/// The F28 workload: 60 s of 1080p30 film streamed over the LTE drive
/// trace with the one-tail LTE radio and the phone model — bursty
/// downloads with real gaps, so the RRC state machine has promotions and
/// tails to account.
fn lte_session(gov: GovernorChoice) -> SessionBuilder {
    headline_session(gov)
        .network(NetworkProfile::LteDrive.generate(SimDuration::from_secs(60) * 3, SEED))
        .radio(RadioModel::lte_rrc())
        .power(DevicePowerModel::phone())
}

/// F28: whole-device energy breakdown by governor.
///
/// Every comparison governor streams the same LTE drive workload under
/// the phone power model. CPU energy separates the governors as in F5;
/// the radio, display and decoder components are near-constant across
/// them — which is the figure's point: on a whole-device budget the
/// governor's CPU savings compete with component draws it cannot touch.
pub fn f28_device_breakdown() -> Table {
    let reports = run_sessions(
        COMPARISON_GOVERNORS
            .iter()
            .map(|&name| (format!("f28 {name}"), lte_session(governor(name))))
            .collect(),
    );
    let mut t = Table::new(&[
        "governor",
        "cpu (J)",
        "rrc radio (J)",
        "promos",
        "display (J)",
        "decoder (J)",
        "device (J)",
        "cpu share %",
    ]);
    t.set_title("F28: whole-device energy breakdown — 60 s 1080p30 film, LTE drive, phone model");
    for (name, r) in COMPARISON_GOVERNORS.iter().zip(&reports) {
        let device = r.device_joules();
        t.row(&[
            name,
            &format!("{:.1}", r.cpu_joules()),
            &format!("{:.1}", r.radio.energy_j),
            &r.radio.promotions.to_string(),
            &format!("{:.1}", r.power.display_j),
            &format!("{:.1}", r.power.decoder_j),
            &format!("{device:.1}"),
            &format!("{:.1}", r.cpu_joules() * 100.0 / device),
        ]);
    }
    t
}

/// The tail timers F29 sweeps, in milliseconds.
pub fn f29_tail_timers_ms() -> Vec<u64> {
    vec![500, 1_000, 2_500, 5_000, 10_000, 20_000]
}

/// F29: RRC tail-timer sensitivity.
///
/// EAVS streams a 480p rung over the same LTE drive trace — the low
/// bitrate leaves the link idle between segment fetches, which is the
/// bursty regime where the timer matters — while the radio tail timer
/// sweeps from 0.5 s to 20 s. Short timers demote in every gap: many
/// promotions, little tail energy. Long ones hold the radio hot through
/// every inter-burst gap. The download timeline itself never changes
/// (accounting is post-hoc), so the sweep isolates the timer exactly.
pub fn f29_radio_tail_sweep() -> Table {
    let reports = run_sessions(
        f29_tail_timers_ms()
            .into_iter()
            .map(|ms| {
                let builder = StreamingSession::builder(governor("eavs"))
                    .manifest(single_manifest(1_200, 854, 480, 60, 30))
                    .content(ContentProfile::Film)
                    .network(
                        NetworkProfile::LteDrive.generate(SimDuration::from_secs(60) * 3, SEED),
                    )
                    .radio(RadioModel::lte_rrc().with_tail_timer(SimDuration::from_millis(ms)))
                    .power(DevicePowerModel::phone())
                    .seed(SEED);
                (format!("f29 tail {ms} ms"), builder)
            })
            .collect(),
    );
    let mut t = Table::new(&[
        "tail timer (s)",
        "promos",
        "idle (s)",
        "promo (s)",
        "active (s)",
        "tail (s)",
        "rrc radio (J)",
        "device (J)",
    ]);
    t.set_title("F29: radio tail-timer sensitivity — EAVS, 60 s 480p film, LTE drive");
    for (ms, r) in f29_tail_timers_ms().iter().zip(&reports) {
        t.row(&[
            &format!("{:.1}", *ms as f64 / 1000.0),
            &r.radio.promotions.to_string(),
            &format!("{:.1}", r.radio.idle_time.as_secs_f64()),
            &format!("{:.2}", r.radio.promo_time.as_secs_f64()),
            &format!("{:.1}", r.radio.active_time.as_secs_f64()),
            &format!("{:.1}", r.radio.tail_time.as_secs_f64()),
            &format!("{:.1}", r.radio.energy_j),
            &format!("{:.1}", r.radio.energy_j + r.power.total_j()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f29_energy_is_monotone_in_the_tail_timer() {
        // Longer tails can only add energy: same timeline, more time in
        // the expensive TAIL state instead of IDLE.
        let table = f29_radio_tail_sweep();
        let csv = table.to_csv();
        let radio_j: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(6).unwrap().parse().unwrap())
            .collect();
        assert_eq!(radio_j.len(), f29_tail_timers_ms().len());
        for pair in radio_j.windows(2) {
            assert!(pair[1] >= pair[0], "tail sweep not monotone: {radio_j:?}");
        }
    }
}
