//! Session result reporting.

use crate::framestats::FrameCycleStats;
use eavs_cpu::cluster::CpuEnergyBreakdown;
use eavs_cpu::freq::Frequency;
use eavs_cpu::soc::SocModel;
use eavs_metrics::timeseries::StepSeries;
use eavs_net::radio::RadioReport;
use eavs_power::DevicePowerReport;
use eavs_sim::time::SimDuration;
use eavs_trace::content::ContentProfile;
use eavs_video::qoe::QoeReport;
use std::fmt;
use std::sync::Arc;

/// Everything measured over one streaming session.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Governor name (plus predictor for EAVS, e.g. `eavs/hybrid`).
    /// Static: a report holds no heap copy of it.
    pub governor: &'static str,
    /// SoC preset used.
    pub soc: SocModel,
    /// Name of the cluster that hosted the player (`big` presets use the
    /// SoC name; LITTLE placements get a `-little` suffix, automatic
    /// placement reports `auto`).
    pub cluster: &'static str,
    /// Content profile streamed.
    pub content: ContentProfile,
    /// CPU energy breakdown.
    pub cpu_energy: CpuEnergyBreakdown,
    /// Radio time/energy breakdown of the session's one radio.
    pub radio: RadioReport,
    /// Whole-device power co-model counters (display, decoder).
    /// All-zero under the default zero-power no-op model.
    pub power: DevicePowerReport,
    /// Playback quality metrics.
    pub qoe: QoeReport,
    /// Wall-clock session length (start → last frame displayed).
    pub session_length: SimDuration,
    /// Time-weighted mean CPU frequency over the session.
    pub mean_freq: Frequency,
    /// Number of frequency transitions.
    pub transitions: u64,
    /// Wall-clock time at each OPP.
    pub time_in_state: Vec<(Frequency, SimDuration)>,
    /// Frames decoded.
    pub frames_decoded: u64,
    /// Segments downloaded.
    pub segments_downloaded: u64,
    /// Simulator events processed.
    pub events_processed: u64,
    /// Background bursts completed on the secondary core.
    pub background_jobs: u64,
    /// Cluster migrations performed (automatic placement only).
    pub migrations: u64,
    /// Segment downloads re-attempted after a timeout or corruption.
    pub download_retries: u64,
    /// Downloads aborted by the retry watchdog.
    pub download_timeouts: u64,
    /// Downloads that completed but failed integrity (fault injection).
    pub corrupt_downloads: u64,
    /// Segments given up on after exhausting the retry budget.
    pub segments_abandoned: u64,
    /// Frames discarded undecoded by drop-mode catch-up.
    pub frames_skipped: u64,
    /// Frames still upstream of the decoder when the session ended.
    pub frames_pending: u64,
    /// Decode jobs whose cycle cost was spiked by fault injection.
    pub decode_spikes: u64,
    /// Transient decoder stalls injected.
    pub decode_stalls: u64,
    /// EAVS panic re-races triggered (prediction breaches + rebuffers;
    /// zero unless panic recovery is enabled).
    pub panic_races: u64,
    /// Per-frame-type actual decode-cost summary (bit-exact mergeable;
    /// the raw material fleet campaigns fold into workload priors). Its
    /// three occupied bin spans share one allocation.
    ///
    /// Behind an `Arc` because a frame's decode cost does not depend on
    /// the clock it runs at: every governor streaming one title under
    /// the same faults tallies an equal summary, and the session cache
    /// keeps one copy of each for all the reports it holds.
    pub frame_cycles: Arc<FrameCycleStats>,
    /// Per-phase simulated/wall time breakdown (only when profiling was
    /// requested via the session builder; wall times are host-dependent
    /// and never enter fingerprints, traces, or CSVs). Boxed: reports
    /// outside profiled runs stay resident in the session cache, and
    /// `None` costs one word instead of the profile's size.
    pub profile: Option<Box<eavs_obs::PhaseProfile>>,
    /// The series and peak temperature, read through
    /// [`freq_series`](Self::freq_series),
    /// [`buffer_series`](Self::buffer_series) and
    /// [`peak_temp_c`](Self::peak_temp_c). Boxed for the same reason as
    /// `profile`: `None` in every fleet and figure run that records no
    /// series and models no heat, where it costs one word.
    pub(crate) recorded: Option<Box<Recorded>>,
}

/// The parts of a [`SessionReport`] only some builder options fill.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Recorded {
    freq_series: Option<StepSeries>,
    buffer_series: Option<StepSeries>,
    peak_temp_c: Option<f64>,
}

impl SessionReport {
    /// Stores the optional series and peak temperature, boxed, or
    /// nothing when all three are absent.
    pub(crate) fn set_recorded(
        &mut self,
        freq_series: Option<StepSeries>,
        buffer_series: Option<StepSeries>,
        peak_temp_c: Option<f64>,
    ) {
        let parts = Recorded {
            freq_series,
            buffer_series,
            peak_temp_c,
        };
        self.recorded = (parts.freq_series.is_some()
            || parts.buffer_series.is_some()
            || parts.peak_temp_c.is_some())
        .then(|| Box::new(parts));
    }

    /// Frequency timeline in MHz (only when series recording was enabled).
    pub fn freq_series(&self) -> Option<&StepSeries> {
        self.recorded.as_ref()?.freq_series.as_ref()
    }

    /// Buffer-level timeline in seconds (only when series recording was
    /// enabled).
    pub fn buffer_series(&self) -> Option<&StepSeries> {
        self.recorded.as_ref()?.buffer_series.as_ref()
    }

    /// Peak die temperature (only when the thermal model was enabled).
    pub fn peak_temp_c(&self) -> Option<f64> {
        self.recorded.as_ref()?.peak_temp_c
    }

    /// Total CPU energy in joules (the paper's headline metric).
    pub fn cpu_joules(&self) -> f64 {
        self.cpu_energy.total()
    }

    /// Whole-device energy: CPU, the session's radio, and the power
    /// model's display and decoder (zero when not modeled), joules.
    pub fn device_joules(&self) -> f64 {
        self.cpu_joules() + self.radio.energy_j + self.power.total_j()
    }

    /// Mean CPU power over the session, watts.
    pub fn mean_cpu_power(&self) -> f64 {
        self.cpu_joules() / self.session_length.as_secs_f64()
    }

    /// CPU energy per displayed frame, millijoules.
    pub fn mj_per_frame(&self) -> f64 {
        if self.qoe.frames_displayed == 0 {
            return 0.0;
        }
        self.cpu_joules() * 1000.0 / self.qoe.frames_displayed as f64
    }

    /// Inline plus heap bytes this report holds, as allocated (capacity,
    /// not length; a series' points), its whole frame-cost summary
    /// included ([`summary_bytes`](Self::summary_bytes)). The governor
    /// and cluster names are static and cost only their inline
    /// references.
    ///
    /// Used by the session cache and the fleet campaign runner to account
    /// resident memory (cache size, peak shard footprint) with one shared
    /// yardstick. The session cache, which shares equal summaries between
    /// its reports, counts each distinct summary once.
    pub fn approx_bytes(&self) -> u64 {
        let mut bytes = std::mem::size_of::<SessionReport>();
        bytes += self.time_in_state.capacity() * std::mem::size_of::<(Frequency, SimDuration)>();
        if self.recorded.is_some() {
            bytes += std::mem::size_of::<Recorded>();
        }
        // A StepSeries point is (time, value): 16 bytes.
        for series in self.freq_series().into_iter().chain(self.buffer_series()) {
            bytes += series.len() * 16;
        }
        if self.profile.is_some() {
            bytes += std::mem::size_of::<eavs_obs::PhaseProfile>();
        }
        bytes as u64 + self.summary_bytes()
    }

    /// Bytes of the frame-cost summary behind [`frame_cycles`]: its `Arc`
    /// block (the two reference counts and the summary inline) and its
    /// bins. Part of [`approx_bytes`](Self::approx_bytes).
    ///
    /// [`frame_cycles`]: Self::frame_cycles
    pub fn summary_bytes(&self) -> u64 {
        (2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<FrameCycleStats>()
            + self.frame_cycles.heap_bytes()) as u64
    }

    /// One-line summary for experiment logs.
    pub fn summary(&self) -> String {
        format!(
            "{:<16} cpu {:7.2} J ({:5.3} W)  radio {:7.2} J  miss {:6.3}%  rebuf {}  mean {}  trans {}",
            self.governor,
            self.cpu_joules(),
            self.mean_cpu_power(),
            self.radio.energy_j,
            self.qoe.deadline_miss_rate() * 100.0,
            self.qoe.rebuffer_events,
            self.mean_freq,
            self.transitions,
        )
    }
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "session: {} on {} ({})",
            self.governor, self.soc, self.content
        )?;
        writeln!(
            f,
            "  energy: cpu {:.2} J (busy {:.2} / idle {:.2} / static {:.2} / trans {:.3}), radio {:.2} J",
            self.cpu_joules(),
            self.cpu_energy.busy_j,
            self.cpu_energy.idle_j,
            self.cpu_energy.static_j,
            self.cpu_energy.transition_j,
            self.radio.energy_j
        )?;
        writeln!(f, "  qoe: {}", self.qoe)?;
        write!(
            f,
            "  cpu: mean {} over {}, {} transitions, {} frames decoded",
            self.mean_freq, self.session_length, self.transitions, self.frames_decoded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_video::display::Playback;

    fn report() -> SessionReport {
        let mut playback = Playback::new(10, 1, 1);
        playback.finalize(eavs_sim::time::SimTime::from_secs(1));
        SessionReport {
            governor: "test",
            soc: SocModel::MidRange,
            cluster: "midrange",
            content: ContentProfile::Film,
            cpu_energy: CpuEnergyBreakdown {
                busy_j: 6.0,
                idle_j: 2.0,
                static_j: 1.5,
                transition_j: 0.5,
            },
            radio: RadioReport {
                energy_j: 5.0,
                ..RadioReport::default()
            },
            power: DevicePowerReport::default(),
            qoe: QoeReport::from_playback(
                &playback,
                &[3000],
                SimDuration::from_millis(500),
                SimDuration::from_secs(10),
            ),
            session_length: SimDuration::from_secs(10),
            mean_freq: Frequency::from_mhz(1000),
            transitions: 42,
            time_in_state: vec![],
            frames_decoded: 300,
            segments_downloaded: 5,
            events_processed: 1234,
            background_jobs: 0,
            migrations: 0,
            download_retries: 0,
            download_timeouts: 0,
            corrupt_downloads: 0,
            segments_abandoned: 0,
            frames_skipped: 0,
            frames_pending: 0,
            decode_spikes: 0,
            decode_stalls: 0,
            panic_races: 0,
            frame_cycles: Arc::new(FrameCycleStats::new()),
            profile: None,
            recorded: None,
        }
    }

    #[test]
    fn energy_aggregation() {
        let r = report();
        assert!((r.cpu_joules() - 10.0).abs() < 1e-12);
        assert!((r.device_joules() - 15.0).abs() < 1e-12);
        assert!((r.mean_cpu_power() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_and_display_render() {
        let r = report();
        assert!(r.summary().contains("test"));
        let s = r.to_string();
        assert!(s.contains("cpu 10.00 J"));
        assert!(s.contains("midrange"));
    }

    #[test]
    fn mj_per_frame_handles_zero_frames() {
        let r = report();
        assert_eq!(r.mj_per_frame(), 0.0);
    }

    #[test]
    fn approx_bytes_counts_heap_parts() {
        let mut r = report();
        let base = r.approx_bytes();
        assert!(base >= std::mem::size_of::<SessionReport>() as u64);
        r.time_in_state = vec![(Frequency::from_mhz(1000), SimDuration::from_secs(1)); 8];
        assert!(r.approx_bytes() > base);
    }

    #[test]
    fn recorded_parts_are_boxed_only_when_present() {
        let mut r = report();
        r.set_recorded(None, None, None);
        assert!(r.recorded.is_none());
        assert_eq!(
            (r.freq_series(), r.buffer_series(), r.peak_temp_c()),
            (None, None, None)
        );
        let base = r.approx_bytes();
        r.set_recorded(None, None, Some(41.5));
        assert_eq!(r.peak_temp_c(), Some(41.5));
        assert_eq!(r.freq_series(), None);
        assert_eq!(
            r.approx_bytes(),
            base + std::mem::size_of::<Recorded>() as u64
        );
    }
}
