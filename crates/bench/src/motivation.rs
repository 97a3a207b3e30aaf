//! Motivation experiments: T1 (OPP tables), F1 (power/energy vs
//! frequency), F2 (frequency timelines), F3 (workload variability).

use crate::harness::{self, governor, manifest_1080p30, SEED};
use eavs_core::session::StreamingSession;
use eavs_cpu::soc::SocModel;
use eavs_metrics::quantile::Quantiles;
use eavs_metrics::stats::OnlineStats;
use eavs_metrics::table::Table;
use eavs_sim::time::{SimDuration, SimTime};
use eavs_trace::content::ContentProfile;
use eavs_trace::video_gen::VideoGenerator;
use eavs_video::frame::FrameType;

/// T1: the OPP tables and power model of every SoC preset.
pub fn t1_opp_table() -> Table {
    let mut t = Table::new(&[
        "soc",
        "opp",
        "freq",
        "voltage",
        "active (W)",
        "idle WFI (W)",
        "nJ/cycle",
    ]);
    t.set_title("T1: SoC operating points and power model");
    for soc in SocModel::ALL {
        let table = soc.opp_table();
        let power = soc.power_model();
        let cstates = soc.cstates();
        for (i, opp) in table.iter().enumerate() {
            let active = power.active_power(*opp);
            t.row(&[
                soc.name(),
                &i.to_string(),
                &opp.freq.to_string(),
                &opp.volt.to_string(),
                &format!("{active:.3}"),
                &format!("{:.3}", cstates.state(0).power_w),
                &format!("{:.3}", active / opp.freq.hz() as f64 * 1e9),
            ]);
        }
    }
    t
}

/// F1: power and energy-per-frame vs fixed frequency (flagship2016,
/// decoding mean 1080p30 film frames with the remainder of each frame
/// period spent idle).
pub fn f1_power_curve() -> Table {
    let soc = SocModel::Flagship2016;
    let table = soc.opp_table();
    let power = soc.power_model();
    let cstates = soc.cstates();
    let generator = VideoGenerator::new(manifest_1080p30(60), ContentProfile::Film, SEED);
    let mean_cycles = generator.mean_cycles_per_frame(0);
    let period = 1.0 / 30.0;

    let mut t = Table::new(&[
        "freq",
        "active power (W)",
        "decode time (ms)",
        "busy energy (mJ)",
        "idle energy (mJ)",
        "energy/frame (mJ)",
        "feasible",
    ]);
    t.set_title(format!(
        "F1: energy per 1080p30 film frame vs fixed frequency ({:.1} Mcycles/frame)",
        mean_cycles / 1e6
    ));
    for opp in table.iter() {
        let active = power.active_power(*opp);
        let decode_s = mean_cycles / opp.freq.hz() as f64;
        let feasible = decode_s <= period;
        let busy_mj = active * decode_s * 1e3;
        let idle_s = (period - decode_s).max(0.0);
        let idle_mj = cstates.idle_energy(SimDuration::from_secs_f64(idle_s)) * 1e3;
        t.row(&[
            &opp.freq.to_string(),
            &format!("{active:.3}"),
            &format!("{:.2}", decode_s * 1e3),
            &format!("{busy_mj:.3}"),
            &format!("{idle_mj:.3}"),
            &format!("{:.3}", busy_mj + idle_mj),
            if feasible { "yes" } else { "NO" },
        ]);
    }
    t
}

/// F2: frequency timeline under ondemand, interactive and EAVS during the
/// same 20-second playback. Each row is the *time-weighted mean* frequency
/// over a 500 ms bin — point samples would alias the 10 ms oscillation of
/// the reactive governors into noise.
pub fn f2_freq_timeline() -> Table {
    let names = ["ondemand", "interactive", "eavs"];
    let manifest = std::sync::Arc::new(manifest_1080p30(20));
    let reports: Vec<_> = harness::run_parallel_labeled(
        names
            .iter()
            .map(|&name| {
                let manifest = std::sync::Arc::clone(&manifest);
                let job = move || {
                    harness::run_session(
                        StreamingSession::builder(governor(name))
                            .manifest(manifest)
                            .seed(SEED)
                            .record_series(true),
                    )
                };
                (format!("f2 {name}"), job)
            })
            .collect(),
    );
    let mut t = Table::new(&["t (s)", "ondemand (MHz)", "interactive (MHz)", "eavs (MHz)"]);
    t.set_title("F2: CPU frequency timeline during 1080p30 playback (500 ms bin means)");
    let step = SimDuration::from_millis(500);
    let end = SimTime::from_secs(20);
    let mut bin_start = SimTime::ZERO;
    while bin_start < end {
        let bin_end = bin_start + step;
        let mut row = vec![format!("{:.1}", bin_start.as_secs_f64())];
        for r in &reports {
            let series = r.freq_series.as_ref().expect("series recorded");
            let mean = series.time_weighted_mean(bin_start, bin_end).unwrap_or(0.0);
            row.push(format!("{mean:.0}"));
        }
        t.row_owned(row);
        bin_start = bin_end;
    }
    t
}

/// F3: per-frame decode-cycle variability by content type at 1080p.
pub fn f3_workload_variability() -> Table {
    let mut t = Table::new(&[
        "content",
        "mean (Mcyc)",
        "cv",
        "p95 (Mcyc)",
        "p99 (Mcyc)",
        "max (Mcyc)",
        "I mean",
        "P mean",
        "B mean",
    ]);
    t.set_title("F3: decode workload variability at 1080p30 (60 s)");
    for content in ContentProfile::ALL {
        let generator = VideoGenerator::new(manifest_1080p30(60), content, SEED);
        let mut all = Quantiles::new();
        let mut stats = OnlineStats::new();
        let mut per_type = [OnlineStats::new(), OnlineStats::new(), OnlineStats::new()];
        for seg in generator.all_segments(0) {
            for f in seg.frames() {
                let mc = f.decode_cycles.mega();
                all.push(mc);
                stats.push(mc);
                per_type[f.frame_type.index()].push(mc);
            }
        }
        t.row(&[
            content.name(),
            &format!("{:.2}", stats.mean()),
            &format!("{:.3}", stats.sample_std_dev() / stats.mean()),
            &format!("{:.2}", all.quantile(0.95)),
            &format!("{:.2}", all.quantile(0.99)),
            &format!("{:.2}", stats.max()),
            &format!("{:.2}", per_type[FrameType::I.index()].mean()),
            &format!("{:.2}", per_type[FrameType::P.index()].mean()),
            &format!("{:.2}", per_type[FrameType::B.index()].mean()),
        ]);
    }
    t
}
