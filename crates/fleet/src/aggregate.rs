//! Mergeable streaming aggregates for campaign populations.
//!
//! Every field is one of: a `u64` counter, a fixed-point
//! [`ExactSum`], a [`Histogram`] of integer bin counts, or an f64
//! min/max. All four merge bit-exactly associatively and commutatively,
//! which is the determinism backbone of the fleet: per-shard partials
//! fold to the identical final aggregate for any `EAVS_JOBS` setting,
//! shard interleaving or kill/resume split. (Welford-style
//! [`eavs_metrics::stats::OnlineStats`] is deliberately *not* used here —
//! its float merge depends on grouping.)

use eavs_core::report::SessionReport;
use eavs_metrics::histogram::Histogram;
use eavs_metrics::stats::ExactSum;
use eavs_metrics::table::Table;

use crate::spec::CampaignSpec;

/// Population statistics for one governor lane.
#[derive(Clone, Debug, PartialEq)]
pub struct GovAggregate {
    /// Governor name (the spec's label, e.g. `eavs` or `ondemand`).
    pub name: String,
    /// Sessions folded in.
    pub sessions: u64,
    /// CPU energy distribution, joules.
    pub cpu_j: Histogram,
    /// CPU energy sum, joules.
    pub cpu_j_sum: ExactSum,
    /// Smallest session CPU energy (+∞ when empty).
    pub cpu_j_min: f64,
    /// Largest session CPU energy (−∞ when empty).
    pub cpu_j_max: f64,
    /// Radio energy sum, joules.
    pub radio_j_sum: ExactSum,
    /// Whole-device display energy sum, joules.
    pub device_display_j_sum: ExactSum,
    /// Whole-device decoder energy sum, joules.
    pub device_decoder_j_sum: ExactSum,
    /// Radio IDLE→ACTIVE promotions across the population.
    pub radio_promotions: u64,
    /// Composite QoE score distribution.
    pub qoe: Histogram,
    /// Composite QoE score sum.
    pub qoe_sum: ExactSum,
    /// Startup delay distribution, milliseconds.
    pub startup_ms: Histogram,
    /// Startup delay sum, milliseconds.
    pub startup_ms_sum: ExactSum,
    /// Rebuffer events across the population.
    pub rebuffer_events: u64,
    /// Rebuffer time sum, seconds.
    pub rebuffer_secs: ExactSum,
    /// Vsync deadlines missed because decode was late.
    pub late_vsyncs: u64,
    /// Frames dropped by the late policy.
    pub frames_dropped: u64,
    /// Frames displayed on time.
    pub frames_displayed: u64,
    /// Total frames offered.
    pub total_frames: u64,
    /// Frequency transitions across the population.
    pub transitions: u64,
    /// Sum of per-session time-weighted mean frequencies, MHz.
    pub mean_freq_mhz_sum: ExactSum,
    /// Sum of per-session mean delivered bitrates, kbps.
    pub bitrate_kbps_sum: ExactSum,
    /// Sum of wall-clock session lengths, seconds.
    pub session_secs: ExactSum,
    /// Sessions with perfect playback (no misses, no rebuffering).
    pub perfect_sessions: u64,
    /// EAVS panic re-races across the population.
    pub panic_races: u64,
    /// Download retries across the population.
    pub download_retries: u64,
}

fn hist(shape: (f64, f64, usize)) -> Histogram {
    Histogram::new(shape.0, shape.1, shape.2)
}

impl GovAggregate {
    /// An empty lane for `name`, with the spec's histogram shapes.
    pub fn new(name: &str, spec: &CampaignSpec) -> Self {
        GovAggregate {
            name: name.to_owned(),
            sessions: 0,
            cpu_j: hist(spec.energy_hist),
            cpu_j_sum: ExactSum::new(),
            cpu_j_min: f64::INFINITY,
            cpu_j_max: f64::NEG_INFINITY,
            radio_j_sum: ExactSum::new(),
            device_display_j_sum: ExactSum::new(),
            device_decoder_j_sum: ExactSum::new(),
            radio_promotions: 0,
            qoe: hist(spec.qoe_hist),
            qoe_sum: ExactSum::new(),
            startup_ms: hist(spec.startup_hist_ms),
            startup_ms_sum: ExactSum::new(),
            rebuffer_events: 0,
            rebuffer_secs: ExactSum::new(),
            late_vsyncs: 0,
            frames_dropped: 0,
            frames_displayed: 0,
            total_frames: 0,
            transitions: 0,
            mean_freq_mhz_sum: ExactSum::new(),
            bitrate_kbps_sum: ExactSum::new(),
            session_secs: ExactSum::new(),
            perfect_sessions: 0,
            panic_races: 0,
            download_retries: 0,
        }
    }

    /// Folds one session report into the lane.
    pub fn observe(&mut self, r: &SessionReport) {
        self.sessions += 1;
        let cpu = r.cpu_joules();
        self.cpu_j.record(cpu);
        self.cpu_j_sum.add(cpu);
        self.cpu_j_min = self.cpu_j_min.min(cpu);
        self.cpu_j_max = self.cpu_j_max.max(cpu);
        self.radio_j_sum.add(r.radio.energy_j);
        self.device_display_j_sum.add(r.power.display_j);
        self.device_decoder_j_sum.add(r.power.decoder_j);
        self.radio_promotions += u64::from(r.radio.promotions);
        let score = r.qoe.score();
        self.qoe.record(score);
        self.qoe_sum.add(score);
        let startup = r.qoe.startup_delay.as_secs_f64() * 1000.0;
        self.startup_ms.record(startup);
        self.startup_ms_sum.add(startup);
        self.rebuffer_events += r.qoe.rebuffer_events;
        self.rebuffer_secs.add(r.qoe.rebuffer_time.as_secs_f64());
        self.late_vsyncs += r.qoe.late_vsyncs;
        self.frames_dropped += r.qoe.frames_dropped;
        self.frames_displayed += r.qoe.frames_displayed;
        self.total_frames += r.qoe.total_frames;
        self.transitions += r.transitions;
        self.mean_freq_mhz_sum.add(f64::from(r.mean_freq.mhz()));
        self.bitrate_kbps_sum.add(r.qoe.mean_bitrate_kbps);
        self.session_secs.add(r.session_length.as_secs_f64());
        if r.qoe.is_perfect() {
            self.perfect_sessions += 1;
        }
        self.panic_races += r.panic_races;
        self.download_retries += r.download_retries();
    }

    /// Merges another partial lane (same governor, same shapes).
    ///
    /// # Panics
    ///
    /// Panics on a governor-name or histogram-shape mismatch.
    pub fn merge(&mut self, other: &GovAggregate) {
        assert_eq!(self.name, other.name, "merging different governor lanes");
        self.sessions += other.sessions;
        self.cpu_j.merge(&other.cpu_j);
        self.cpu_j_sum.merge(&other.cpu_j_sum);
        self.cpu_j_min = self.cpu_j_min.min(other.cpu_j_min);
        self.cpu_j_max = self.cpu_j_max.max(other.cpu_j_max);
        self.radio_j_sum.merge(&other.radio_j_sum);
        self.device_display_j_sum.merge(&other.device_display_j_sum);
        self.device_decoder_j_sum.merge(&other.device_decoder_j_sum);
        self.radio_promotions += other.radio_promotions;
        self.qoe.merge(&other.qoe);
        self.qoe_sum.merge(&other.qoe_sum);
        self.startup_ms.merge(&other.startup_ms);
        self.startup_ms_sum.merge(&other.startup_ms_sum);
        self.rebuffer_events += other.rebuffer_events;
        self.rebuffer_secs.merge(&other.rebuffer_secs);
        self.late_vsyncs += other.late_vsyncs;
        self.frames_dropped += other.frames_dropped;
        self.frames_displayed += other.frames_displayed;
        self.total_frames += other.total_frames;
        self.transitions += other.transitions;
        self.mean_freq_mhz_sum.merge(&other.mean_freq_mhz_sum);
        self.bitrate_kbps_sum.merge(&other.bitrate_kbps_sum);
        self.session_secs.merge(&other.session_secs);
        self.perfect_sessions += other.perfect_sessions;
        self.panic_races += other.panic_races;
        self.download_retries += other.download_retries;
    }

    /// Population deadline-miss rate (late + dropped over offered ticks).
    pub fn miss_rate(&self) -> f64 {
        let missed = self.late_vsyncs + self.frames_dropped;
        let ticks = self.frames_displayed + missed;
        if ticks == 0 {
            0.0
        } else {
            missed as f64 / ticks as f64
        }
    }

    /// Resident footprint bound of the lane, bytes: every histogram bin
    /// is counted, the size the occupied spans can grow to.
    pub fn approx_bytes(&self) -> u64 {
        let hists = self.cpu_j.num_bins() + self.qoe.num_bins() + self.startup_ms.num_bins();
        (std::mem::size_of::<GovAggregate>() + self.name.len() + hists * 8) as u64
    }
}

/// The merged state of a whole campaign: per-governor lanes plus the
/// arrival profile and the resume cursor.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetAggregate {
    /// Fingerprint of the spec this aggregate belongs to.
    pub campaign: u128,
    /// Shards fully folded in (the resume cursor).
    pub shards_done: u64,
    /// Sessions folded in (each counted once, not per governor).
    pub sessions_done: u64,
    /// Session arrivals over the campaign window, seconds.
    pub arrivals: Histogram,
    /// One lane per governor, in spec order.
    pub govs: Vec<GovAggregate>,
    /// Fleet workload knowledge: per-(title, content) decode-cost
    /// summaries (see [`crate::prior`]). Folded once per session — decode
    /// costs are governor-independent — and persisted both in the
    /// checkpoint and as a standalone `eavs-prior/v1` file.
    pub prior: crate::prior::PriorStore,
}

impl FleetAggregate {
    /// An empty aggregate shaped by `spec`.
    pub fn new(spec: &CampaignSpec) -> Self {
        FleetAggregate {
            campaign: spec.fingerprint().0,
            shards_done: 0,
            sessions_done: 0,
            arrivals: Histogram::new(0.0, spec.arrival_span_s as f64, 48),
            govs: spec
                .governors
                .iter()
                .map(|g| GovAggregate::new(g, spec))
                .collect(),
            prior: crate::prior::PriorStore::new(),
        }
    }

    /// Records one session arrival (seconds into the campaign window).
    pub fn observe_arrival(&mut self, arrival_s: f64) {
        self.sessions_done += 1;
        self.arrivals.record(arrival_s);
    }

    /// Folds one report into governor lane `gov_index`.
    ///
    /// # Panics
    ///
    /// Panics if `gov_index` is out of range.
    pub fn observe(&mut self, gov_index: usize, report: &SessionReport) {
        self.govs[gov_index].observe(report);
    }

    /// Folds one session's decode-cost summary into the fleet prior.
    ///
    /// Called once per session (not per governor lane): frame decode
    /// cost depends on the title and content, not on the frequency the
    /// governor happened to pick, so one lane's observation suffices and
    /// multi-counting would skew the population weight.
    pub fn observe_prior(
        &mut self,
        title_key: &str,
        content: &str,
        stats: &eavs_core::framestats::FrameCycleStats,
    ) {
        self.prior.observe(title_key, content, stats);
    }

    /// Merges a partial aggregate of the same campaign. `shards_done` and
    /// the cursor semantics belong to the *caller* (a shard partial keeps
    /// its own count of 0); only the statistics merge.
    ///
    /// # Panics
    ///
    /// Panics if the aggregates belong to different campaigns or have
    /// mismatched lanes.
    pub fn merge(&mut self, other: &FleetAggregate) {
        assert_eq!(
            self.campaign, other.campaign,
            "merging aggregates of different campaigns"
        );
        assert_eq!(self.govs.len(), other.govs.len(), "governor lane mismatch");
        self.sessions_done += other.sessions_done;
        self.arrivals.merge(&other.arrivals);
        for (mine, theirs) in self.govs.iter_mut().zip(&other.govs) {
            mine.merge(theirs);
        }
        self.prior.merge(&other.prior);
    }

    /// Checks that [`merge`](Self::merge) can fold `other` in: the same
    /// governor lanes in the same order, with the same histogram layouts.
    /// `merge` asserts all of this, so a partial from outside the process
    /// (a worker's shard upload) must pass here first. The campaign
    /// fingerprint is the caller's check, and the prior needs none: a
    /// [`PriorStore`](crate::prior::PriorStore) holds only the
    /// `FrameCycleStats` layout, since its decoder refuses any other.
    ///
    /// # Errors
    ///
    /// Names the first mismatch.
    pub fn check_shape(&self, other: &FleetAggregate) -> Result<(), String> {
        if !self.arrivals.same_shape(&other.arrivals) {
            return Err("arrivals histogram layout differs".to_owned());
        }
        if self.govs.len() != other.govs.len() {
            return Err(format!(
                "{} governor lanes, want {}",
                other.govs.len(),
                self.govs.len()
            ));
        }
        for (mine, theirs) in self.govs.iter().zip(&other.govs) {
            if mine.name != theirs.name {
                return Err(format!("lane {:?}, want {:?}", theirs.name, mine.name));
            }
            for (what, a, b) in [
                ("cpu_j", &mine.cpu_j, &theirs.cpu_j),
                ("qoe", &mine.qoe, &theirs.qoe),
                ("startup_ms", &mine.startup_ms, &theirs.startup_ms),
            ] {
                if !a.same_shape(b) {
                    return Err(format!(
                        "lane {:?}: {what} histogram layout differs",
                        mine.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Approximate resident footprint, bytes. The point of the exercise:
    /// this is O(bins × governors) plus O(title × content catalog) for
    /// the prior store — independent of the session count either way.
    pub fn approx_bytes(&self) -> u64 {
        std::mem::size_of::<FleetAggregate>() as u64
            + self.arrivals.num_bins() as u64 * 8
            + self
                .govs
                .iter()
                .map(GovAggregate::approx_bytes)
                .sum::<u64>()
            + self.prior.approx_bytes()
    }

    /// Renders the population table (the F26 row set): per-governor
    /// energy and QoE distribution statistics. Every value is derived
    /// from the merged aggregate, so the table is byte-identical however
    /// the campaign was sharded, parallelized or resumed.
    pub fn table(&self, spec: &CampaignSpec) -> Table {
        let mut t = Table::new(&[
            "governor",
            "sessions",
            "mean cpu (J)",
            "p50 (J)",
            "p90 (J)",
            "p99 (J)",
            "max (J)",
            "mean qoe",
            "p10 qoe",
            "miss %",
            "rebuf/sess",
            "startup p90 (ms)",
            "perfect %",
            "mean freq (MHz)",
            "offered (erl)",
        ]);
        t.set_title(format!(
            "F26: fleet population — campaign '{}', {} sessions per governor",
            spec.name, spec.sessions,
        ));
        for g in &self.govs {
            let q = |h: &Histogram, p: f64| h.quantile(p).unwrap_or(0.0);
            let max = if g.sessions == 0 { 0.0 } else { g.cpu_j_max };
            t.row(&[
                &g.name,
                &g.sessions.to_string(),
                &format!("{:.3}", g.cpu_j_sum.mean()),
                &format!("{:.3}", q(&g.cpu_j, 0.5)),
                &format!("{:.3}", q(&g.cpu_j, 0.9)),
                &format!("{:.3}", q(&g.cpu_j, 0.99)),
                &format!("{max:.3}"),
                &format!("{:.2}", g.qoe_sum.mean()),
                &format!("{:.2}", q(&g.qoe, 0.1)),
                &format!("{:.4}", g.miss_rate() * 100.0),
                &format!(
                    "{:.4}",
                    if g.sessions == 0 {
                        0.0
                    } else {
                        g.rebuffer_events as f64 / g.sessions as f64
                    }
                ),
                &format!("{:.0}", q(&g.startup_ms, 0.9)),
                &format!(
                    "{:.1}",
                    if g.sessions == 0 {
                        0.0
                    } else {
                        g.perfect_sessions as f64 * 100.0 / g.sessions as f64
                    }
                ),
                &format!("{:.0}", g.mean_freq_mhz_sum.mean()),
                // Offered load in erlangs: mean concurrent sessions this
                // lane would put on the service over the arrival window.
                &format!("{:.2}", g.session_secs.value() / spec.arrival_span_s as f64),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{builder_for, draw_session};

    fn sample_reports(n: u64) -> Vec<SessionReport> {
        let spec = CampaignSpec::smoke();
        (0..n)
            .map(|id| {
                let draw = draw_session(&spec, id);
                builder_for(&draw, "eavs").unwrap().run()
            })
            .collect()
    }

    #[test]
    fn sharded_fold_matches_sequential_fold() {
        let spec = CampaignSpec::smoke();
        let reports = sample_reports(6);
        let mut whole = FleetAggregate::new(&spec);
        for (i, r) in reports.iter().enumerate() {
            whole.observe_arrival(i as f64 * 10.0);
            whole.observe(1, r); // lane 1 = eavs in the smoke spec
        }
        // Split across three shards, merge the partials in reverse order.
        let mut partials: Vec<FleetAggregate> =
            (0..3).map(|_| FleetAggregate::new(&spec)).collect();
        for (i, r) in reports.iter().enumerate() {
            partials[i % 3].observe_arrival(i as f64 * 10.0);
            partials[i % 3].observe(1, r);
        }
        let mut folded = FleetAggregate::new(&spec);
        for p in partials.iter().rev() {
            folded.merge(p);
        }
        assert_eq!(folded, whole);
    }

    #[test]
    fn check_shape_names_each_mismatch() {
        let spec = CampaignSpec::smoke();
        let whole = FleetAggregate::new(&spec);
        assert_eq!(whole.check_shape(&FleetAggregate::new(&spec)), Ok(()));
        let mut one_lane = whole.clone();
        one_lane.govs.truncate(1);
        let mut swapped = whole.clone();
        swapped.govs.swap(0, 1);
        let mut wide_qoe = whole.clone();
        wide_qoe.govs[1].qoe = Histogram::new(0.0, 2.0, 40);
        let mut arrivals = whole.clone();
        arrivals.arrivals = Histogram::new(0.0, 1.0, 48);
        for (partial, want) in [
            (one_lane, "1 governor lanes, want 2"),
            (swapped, "lane"),
            (wide_qoe, "qoe histogram layout"),
            (arrivals, "arrivals histogram layout"),
        ] {
            let err = whole.check_shape(&partial).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn merge_rejects_cross_campaign() {
        let a = FleetAggregate::new(&CampaignSpec::smoke());
        let mut other_spec = CampaignSpec::smoke();
        other_spec.seed = 99;
        let b = FleetAggregate::new(&other_spec);
        let caught = std::panic::catch_unwind(move || {
            let mut a = a;
            a.merge(&b);
        });
        assert!(caught.is_err());
    }

    #[test]
    fn footprint_is_independent_of_session_count() {
        let spec = CampaignSpec::smoke();
        let mut agg = FleetAggregate::new(&spec);
        let empty_bytes = agg.approx_bytes();
        for r in sample_reports(4) {
            agg.observe_arrival(1.0);
            agg.observe(0, &r);
        }
        assert_eq!(agg.approx_bytes(), empty_bytes);
    }

    #[test]
    fn table_renders_one_row_per_governor() {
        let spec = CampaignSpec::smoke();
        let mut agg = FleetAggregate::new(&spec);
        for r in sample_reports(2) {
            agg.observe_arrival(5.0);
            agg.observe(0, &r);
            agg.observe(1, &r);
        }
        let table = agg.table(&spec);
        let csv = table.to_csv();
        assert!(csv.contains("ondemand"));
        assert!(csv.contains("eavs"));
        assert_eq!(csv.lines().count(), 1 + spec.governors.len());
    }
}
