//! Structured trace events emitted by the session hot path.
//!
//! Events are small, `Copy`, and carry **integers only**: frequencies
//! in kHz, temperatures in milli-°C, factors in milli-units. Keeping
//! floats out of the payload means serialization is exact and the
//! byte-identical-trace guarantee never hinges on float formatting.

/// The pipeline phase an event belongs to.
///
/// Used by [`crate::profile::PhaseProfile`] to bucket per-phase costs
/// and by the Chrome-trace export to lay events out on separate tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Segment transfer over the network model (including retries).
    Download,
    /// Frame decode jobs on the CPU cluster.
    Decode,
    /// Vsync handling and frame presentation.
    Display,
    /// Frequency-governor sampling and decisions.
    Governor,
    /// Everything else (playback lifecycle, thermal, migrations...).
    Other,
}

impl Phase {
    /// All phases, in the fixed order used for reports.
    pub const ALL: [Phase; 5] = [
        Phase::Download,
        Phase::Decode,
        Phase::Display,
        Phase::Governor,
        Phase::Other,
    ];

    /// Stable lowercase name, used in JSON reports and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Download => "download",
            Phase::Decode => "decode",
            Phase::Display => "display",
            Phase::Governor => "governor",
            Phase::Other => "other",
        }
    }
}

/// One structured event on a session timeline.
///
/// Variants mirror the decision points of `core::session`: segment
/// transfers (with the full retry/fault lifecycle), decode jobs (with
/// fault-injected spikes and stalls), vsync outcomes, governor
/// decisions and the frequency changes they cause, and the rarer
/// lifecycle events (playback start/end, cluster migration, thermal
/// ambient steps, background throttling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The simulation engine dispatched a raw event to the session world
    /// (emitted by the `sim::engine` scheduler tap, pre-handler).
    Dispatch {
        /// Static name of the engine event kind.
        kind: &'static str,
    },
    /// A segment transfer began (attempt 0) or was re-begun after a retry.
    DownloadStart {
        /// Segment index within the manifest.
        segment: u64,
        /// 0 for the first try, incremented per retry.
        attempt: u32,
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// A segment transfer completed and passed integrity checks.
    DownloadDone {
        /// Segment index within the manifest.
        segment: u64,
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// Fault injection stalled the transfer before it could start.
    DownloadStalled {
        /// Segment index within the manifest.
        segment: u64,
        /// Attempt that hit the stall.
        attempt: u32,
    },
    /// The retry watchdog fired before the transfer finished.
    DownloadTimeout {
        /// Segment index within the manifest.
        segment: u64,
        /// Attempt that timed out.
        attempt: u32,
    },
    /// A completed transfer failed its integrity check.
    DownloadCorrupt {
        /// Segment index within the manifest.
        segment: u64,
        /// Attempt that delivered corrupt bytes.
        attempt: u32,
    },
    /// A retry was scheduled after a timeout/corruption.
    DownloadRetry {
        /// Segment index within the manifest.
        segment: u64,
        /// The attempt number the retry will run as.
        attempt: u32,
    },
    /// The retry budget ran out; the segment was abandoned.
    DownloadAbandoned {
        /// Segment index within the manifest.
        segment: u64,
    },
    /// A decode job was submitted to the cluster.
    DecodeStart {
        /// Frame index.
        frame: u64,
        /// CPU frequency the job was started at, in kHz.
        freq_khz: u64,
    },
    /// A decode job finished.
    DecodeDone {
        /// Frame index.
        frame: u64,
    },
    /// Fault injection inflated this frame's decode cost.
    DecodeSpike {
        /// Frame index.
        frame: u64,
        /// Cost multiplier in milli-units (1500 = 1.5x).
        factor_milli: u64,
    },
    /// Fault injection paused the decoder.
    DecodeStall {
        /// Frame index that was about to decode.
        frame: u64,
        /// Stall length in microseconds of simulated time.
        resume_in_us: u64,
    },
    /// The governor sampled the pipeline and picked a target.
    GovernorDecision {
        /// Frequency before the decision, in kHz.
        cur_khz: u64,
        /// Frequency the governor asked for, in kHz.
        target_khz: u64,
    },
    /// The applied frequency actually changed.
    FreqChange {
        /// Previous frequency in kHz.
        from_khz: u64,
        /// New frequency in kHz.
        to_khz: u64,
    },
    /// The governor detected a panic race (deadline at risk).
    PanicRace,
    /// A frame was displayed on time.
    VsyncDisplayed {
        /// Frame index.
        frame: u64,
    },
    /// The decoder missed the vsync deadline; the previous frame was held.
    VsyncLate {
        /// Frame index that should have been shown.
        frame: u64,
    },
    /// A frame was dropped by the late-frame policy.
    VsyncDropped {
        /// Frame index that was dropped.
        frame: u64,
    },
    /// Playback starved: the buffer ran dry mid-stream.
    Rebuffer {
        /// Next frame the display was waiting for.
        frame: u64,
    },
    /// Startup buffering finished and playback began.
    PlaybackStart,
    /// The last frame was presented.
    PlaybackEnd {
        /// Final frame index.
        frame: u64,
    },
    /// The decode job migrated between clusters.
    Migration {
        /// `true` if the job moved to the little cluster.
        to_little: bool,
    },
    /// The ambient-temperature schedule stepped.
    AmbientStep {
        /// New ambient temperature in milli-°C.
        milli_c: i64,
    },
    /// A background-load burst started on the secondary core.
    BackgroundBurst,
}

impl TraceEvent {
    /// Stable snake_case kind tag, used as the JSONL `ev` field, the
    /// Chrome-trace event name, and the counter-sink key.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Dispatch { .. } => "dispatch",
            TraceEvent::DownloadStart { .. } => "download_start",
            TraceEvent::DownloadDone { .. } => "download_done",
            TraceEvent::DownloadStalled { .. } => "download_stalled",
            TraceEvent::DownloadTimeout { .. } => "download_timeout",
            TraceEvent::DownloadCorrupt { .. } => "download_corrupt",
            TraceEvent::DownloadRetry { .. } => "download_retry",
            TraceEvent::DownloadAbandoned { .. } => "download_abandoned",
            TraceEvent::DecodeStart { .. } => "decode_start",
            TraceEvent::DecodeDone { .. } => "decode_done",
            TraceEvent::DecodeSpike { .. } => "decode_spike",
            TraceEvent::DecodeStall { .. } => "decode_stall",
            TraceEvent::GovernorDecision { .. } => "governor_decision",
            TraceEvent::FreqChange { .. } => "freq_change",
            TraceEvent::PanicRace => "panic_race",
            TraceEvent::VsyncDisplayed { .. } => "vsync_displayed",
            TraceEvent::VsyncLate { .. } => "vsync_late",
            TraceEvent::VsyncDropped { .. } => "vsync_dropped",
            TraceEvent::Rebuffer { .. } => "rebuffer",
            TraceEvent::PlaybackStart => "playback_start",
            TraceEvent::PlaybackEnd { .. } => "playback_end",
            TraceEvent::Migration { .. } => "migration",
            TraceEvent::AmbientStep { .. } => "ambient_step",
            TraceEvent::BackgroundBurst => "background_burst",
        }
    }

    /// Which pipeline phase this event belongs to.
    pub fn phase(&self) -> Phase {
        match self {
            TraceEvent::DownloadStart { .. }
            | TraceEvent::DownloadDone { .. }
            | TraceEvent::DownloadStalled { .. }
            | TraceEvent::DownloadTimeout { .. }
            | TraceEvent::DownloadCorrupt { .. }
            | TraceEvent::DownloadRetry { .. }
            | TraceEvent::DownloadAbandoned { .. } => Phase::Download,
            TraceEvent::DecodeStart { .. }
            | TraceEvent::DecodeDone { .. }
            | TraceEvent::DecodeSpike { .. }
            | TraceEvent::DecodeStall { .. } => Phase::Decode,
            TraceEvent::VsyncDisplayed { .. }
            | TraceEvent::VsyncLate { .. }
            | TraceEvent::VsyncDropped { .. }
            | TraceEvent::Rebuffer { .. } => Phase::Display,
            TraceEvent::GovernorDecision { .. }
            | TraceEvent::FreqChange { .. }
            | TraceEvent::PanicRace => Phase::Governor,
            TraceEvent::Dispatch { .. }
            | TraceEvent::PlaybackStart
            | TraceEvent::PlaybackEnd { .. }
            | TraceEvent::Migration { .. }
            | TraceEvent::AmbientStep { .. }
            | TraceEvent::BackgroundBurst => Phase::Other,
        }
    }

    /// Appends the event's payload fields as JSON object members
    /// (`,"k":v` pairs) to `out`. Emits nothing for payload-free events.
    ///
    /// Hand-rolled like the rest of the repo's JSON: every field is an
    /// integer, so the output is exact and deterministic.
    pub(crate) fn write_json_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        match *self {
            TraceEvent::Dispatch { kind } => {
                let _ = write!(out, r#","kind":"{kind}""#);
            }
            TraceEvent::DownloadStart {
                segment,
                attempt,
                bytes,
            } => {
                let _ = write!(
                    out,
                    r#","segment":{segment},"attempt":{attempt},"bytes":{bytes}"#
                );
            }
            TraceEvent::DownloadDone { segment, bytes } => {
                let _ = write!(out, r#","segment":{segment},"bytes":{bytes}"#);
            }
            TraceEvent::DownloadStalled { segment, attempt }
            | TraceEvent::DownloadTimeout { segment, attempt }
            | TraceEvent::DownloadCorrupt { segment, attempt }
            | TraceEvent::DownloadRetry { segment, attempt } => {
                let _ = write!(out, r#","segment":{segment},"attempt":{attempt}"#);
            }
            TraceEvent::DownloadAbandoned { segment } => {
                let _ = write!(out, r#","segment":{segment}"#);
            }
            TraceEvent::DecodeStart { frame, freq_khz } => {
                let _ = write!(out, r#","frame":{frame},"freq_khz":{freq_khz}"#);
            }
            TraceEvent::DecodeDone { frame }
            | TraceEvent::VsyncDisplayed { frame }
            | TraceEvent::VsyncLate { frame }
            | TraceEvent::VsyncDropped { frame }
            | TraceEvent::Rebuffer { frame }
            | TraceEvent::PlaybackEnd { frame } => {
                let _ = write!(out, r#","frame":{frame}"#);
            }
            TraceEvent::DecodeSpike {
                frame,
                factor_milli,
            } => {
                let _ = write!(out, r#","frame":{frame},"factor_milli":{factor_milli}"#);
            }
            TraceEvent::DecodeStall {
                frame,
                resume_in_us,
            } => {
                let _ = write!(out, r#","frame":{frame},"resume_in_us":{resume_in_us}"#);
            }
            TraceEvent::GovernorDecision {
                cur_khz,
                target_khz,
            } => {
                let _ = write!(out, r#","cur_khz":{cur_khz},"target_khz":{target_khz}"#);
            }
            TraceEvent::FreqChange { from_khz, to_khz } => {
                let _ = write!(out, r#","from_khz":{from_khz},"to_khz":{to_khz}"#);
            }
            TraceEvent::Migration { to_little } => {
                let _ = write!(out, r#","to_little":{to_little}"#);
            }
            TraceEvent::AmbientStep { milli_c } => {
                let _ = write!(out, r#","milli_c":{milli_c}"#);
            }
            TraceEvent::PanicRace | TraceEvent::PlaybackStart | TraceEvent::BackgroundBurst => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique_and_snake_case() {
        let events = [
            TraceEvent::Dispatch { kind: "vsync" },
            TraceEvent::DownloadStart {
                segment: 0,
                attempt: 0,
                bytes: 1,
            },
            TraceEvent::DownloadDone {
                segment: 0,
                bytes: 1,
            },
            TraceEvent::DownloadStalled {
                segment: 0,
                attempt: 0,
            },
            TraceEvent::DownloadTimeout {
                segment: 0,
                attempt: 0,
            },
            TraceEvent::DownloadCorrupt {
                segment: 0,
                attempt: 0,
            },
            TraceEvent::DownloadRetry {
                segment: 0,
                attempt: 1,
            },
            TraceEvent::DownloadAbandoned { segment: 0 },
            TraceEvent::DecodeStart {
                frame: 0,
                freq_khz: 1,
            },
            TraceEvent::DecodeDone { frame: 0 },
            TraceEvent::DecodeSpike {
                frame: 0,
                factor_milli: 1500,
            },
            TraceEvent::DecodeStall {
                frame: 0,
                resume_in_us: 5,
            },
            TraceEvent::GovernorDecision {
                cur_khz: 1,
                target_khz: 2,
            },
            TraceEvent::FreqChange {
                from_khz: 1,
                to_khz: 2,
            },
            TraceEvent::PanicRace,
            TraceEvent::VsyncDisplayed { frame: 0 },
            TraceEvent::VsyncLate { frame: 0 },
            TraceEvent::VsyncDropped { frame: 0 },
            TraceEvent::Rebuffer { frame: 0 },
            TraceEvent::PlaybackStart,
            TraceEvent::PlaybackEnd { frame: 0 },
            TraceEvent::Migration { to_little: true },
            TraceEvent::AmbientStep { milli_c: 25_000 },
            TraceEvent::BackgroundBurst,
        ];
        let mut seen = std::collections::HashSet::new();
        for ev in &events {
            let k = ev.kind();
            assert!(seen.insert(k), "duplicate kind {k}");
            assert!(
                k.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "kind {k} is not snake_case"
            );
        }
    }

    #[test]
    fn phases_partition_the_lifecycle() {
        assert_eq!(
            TraceEvent::DownloadRetry {
                segment: 3,
                attempt: 2
            }
            .phase(),
            Phase::Download
        );
        assert_eq!(TraceEvent::DecodeDone { frame: 1 }.phase(), Phase::Decode);
        assert_eq!(TraceEvent::Rebuffer { frame: 9 }.phase(), Phase::Display);
        assert_eq!(TraceEvent::PanicRace.phase(), Phase::Governor);
        assert_eq!(TraceEvent::PlaybackStart.phase(), Phase::Other);
        for p in Phase::ALL {
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn json_fields_are_exact() {
        let mut s = String::new();
        TraceEvent::GovernorDecision {
            cur_khz: 422_400,
            target_khz: 729_600,
        }
        .write_json_fields(&mut s);
        assert_eq!(s, r#","cur_khz":422400,"target_khz":729600"#);

        s.clear();
        TraceEvent::PlaybackStart.write_json_fields(&mut s);
        assert!(s.is_empty());

        s.clear();
        TraceEvent::AmbientStep { milli_c: -5_000 }.write_json_fields(&mut s);
        assert_eq!(s, r#","milli_c":-5000"#);
    }
}
