//! Trace sinks: where session events go.
//!
//! The session hot path holds an `Option<SharedSink>` and calls
//! [`TraceSink::record`] through it. Two implementations cover the
//! spectrum:
//!
//! - [`NullSink`] — discards events. Emit sites construct the event
//!   lazily (closure-deferred), so with no sink attached the cost is a
//!   single branch, and with a `NullSink` it is one virtual call.
//! - [`RingSink`] — a bounded ring buffer of timestamped events,
//!   oldest-dropped, dumpable as JSONL or Chrome trace-event JSON.
//!
//! All sinks are deterministic: they observe simulated time only and
//! never feed anything back into the simulation.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use eavs_sim::time::SimTime;

use crate::event::TraceEvent;

/// A consumer of session trace events.
///
/// Implementations must not influence the simulation: `record` takes
/// `&mut self` so sinks can buffer freely, but the event stream they
/// see for a given seeded session is identical no matter which sink —
/// or how many threads' worth of sibling sessions — are running.
pub trait TraceSink: Send {
    /// Consumes one event stamped with the simulated time it occurred.
    fn record(&mut self, at: SimTime, ev: &TraceEvent);
}

/// A sink handle shareable between the builder, the session, and the
/// caller who wants the data back afterwards.
///
/// The mutex is uncontended in practice — sessions are single-threaded
/// — but makes the handle `Sync` so builders can cross the
/// sweep pool's thread boundary.
pub type SharedSink = Arc<Mutex<dyn TraceSink>>;

/// Wraps a sink into a [`SharedSink`] handle.
pub fn shared<S: TraceSink + 'static>(sink: S) -> Arc<Mutex<S>> {
    Arc::new(Mutex::new(sink))
}

/// Discards every event. Exists so "tracing compiled in, nothing
/// listening" has a measurable-as-zero cost that tests can assert on.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _at: SimTime, _ev: &TraceEvent) {}
}

/// One event with its position on the session timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Monotone sequence number (0-based, counts *all* events recorded,
    /// including ones later evicted from the ring).
    pub seq: u64,
    /// Simulated time of the event.
    pub at: SimTime,
    /// The event itself.
    pub ev: TraceEvent,
}

/// A bounded in-memory event timeline.
///
/// Keeps the most recent `capacity` events; older events are evicted
/// (counted in [`RingSink::dropped`]). The ring never reallocates after
/// construction, so steady-state recording is allocation-free.
#[derive(Debug)]
pub struct RingSink {
    buf: VecDeque<TimedEvent>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            seq: 0,
            dropped: 0,
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events recorded over the sink's lifetime.
    pub fn total_recorded(&self) -> u64 {
        self.seq
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates buffered events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }

    /// Renders the buffered timeline as JSON Lines, one event per line:
    ///
    /// ```text
    /// {"seq":0,"t_ns":0,"ev":"download_start","segment":0,"attempt":0,"bytes":262144}
    /// ```
    ///
    /// Timestamps are simulated nanoseconds; all payloads are integers.
    /// The output is byte-deterministic for a given event stream.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.buf.len() * 64);
        for te in &self.buf {
            let _ = write!(
                out,
                r#"{{"seq":{},"t_ns":{},"ev":"{}""#,
                te.seq,
                te.at.as_nanos(),
                te.ev.kind()
            );
            te.ev.write_json_fields(&mut out);
            out.push_str("}\n");
        }
        out
    }

    /// Renders the buffered timeline in the Chrome trace-event JSON
    /// array format, loadable in `chrome://tracing` and Perfetto.
    ///
    /// Download transfers and decode jobs become `B`/`E` duration spans
    /// on their own tracks (tid 1 and 2); everything else becomes an
    /// instant (`i`) on tid 0; frequency changes additionally emit a
    /// `C` counter series so the CPU frequency renders as a graph.
    /// Timestamps are simulated microseconds with nanosecond precision
    /// kept as a fixed 3-digit fraction, so output stays byte-exact.
    pub fn to_chrome_trace(&self, process_name: &str) -> String {
        let mut out = String::with_capacity(self.buf.len() * 96 + 256);
        out.push_str("[\n");
        let _ = write!(
            out,
            r#"{{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{{"name":"{}"}}}}"#,
            json_escape(process_name)
        );
        for (tid, name) in [(0u32, "session"), (1, "download"), (2, "decode")] {
            let _ = write!(
                out,
                ",\n{}",
                format_args!(
                    r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{tid},"args":{{"name":"{name}"}}}}"#
                )
            );
        }
        let mut open_download: u32 = 0;
        let mut open_decode: u32 = 0;
        for te in &self.buf {
            let ts = ChromeTs(te.at.as_nanos());
            match te.ev {
                TraceEvent::DownloadStart { segment, .. } => {
                    open_download += 1;
                    let _ = write!(
                        out,
                        ",\n{}",
                        format_args!(
                            r#"{{"name":"segment {segment}","cat":"download","ph":"B","pid":1,"tid":1,"ts":{ts}}}"#
                        )
                    );
                }
                TraceEvent::DownloadDone { .. }
                | TraceEvent::DownloadTimeout { .. }
                | TraceEvent::DownloadStalled { .. } => {
                    // Timeouts and stalls end the transfer slot too; only
                    // close a span if one is actually open (stalls can
                    // precede the B when the fault fires pre-transfer).
                    if open_download > 0 {
                        open_download -= 1;
                        let _ = write!(
                            out,
                            ",\n{}",
                            format_args!(
                                r#"{{"cat":"download","ph":"E","pid":1,"tid":1,"ts":{ts}}}"#
                            )
                        );
                    }
                    if !matches!(te.ev, TraceEvent::DownloadDone { .. }) {
                        write_instant(&mut out, &te.ev, ts, 1);
                    }
                }
                TraceEvent::DecodeStart { frame, .. } => {
                    open_decode += 1;
                    let _ = write!(
                        out,
                        ",\n{}",
                        format_args!(
                            r#"{{"name":"frame {frame}","cat":"decode","ph":"B","pid":1,"tid":2,"ts":{ts}}}"#
                        )
                    );
                }
                TraceEvent::DecodeDone { .. } => {
                    if open_decode > 0 {
                        open_decode -= 1;
                        let _ = write!(
                            out,
                            ",\n{}",
                            format_args!(
                                r#"{{"cat":"decode","ph":"E","pid":1,"tid":2,"ts":{ts}}}"#
                            )
                        );
                    }
                }
                TraceEvent::FreqChange { to_khz, .. } => {
                    write_instant(&mut out, &te.ev, ts, 0);
                    let _ = write!(
                        out,
                        ",\n{}",
                        format_args!(
                            r#"{{"name":"cpu_freq_khz","ph":"C","pid":1,"tid":0,"ts":{ts},"args":{{"khz":{to_khz}}}}}"#
                        )
                    );
                }
                _ => {
                    let tid = match te.ev.phase() {
                        crate::event::Phase::Download => 1,
                        crate::event::Phase::Decode => 2,
                        _ => 0,
                    };
                    write_instant(&mut out, &te.ev, ts, tid);
                }
            }
        }
        // Close any spans left open at the end of the buffer so the
        // JSON stays well-formed for viewers that require balance.
        if let Some(last) = self.buf.back() {
            let ts = ChromeTs(last.at.as_nanos());
            for _ in 0..open_download {
                let _ = write!(
                    out,
                    ",\n{}",
                    format_args!(r#"{{"cat":"download","ph":"E","pid":1,"tid":1,"ts":{ts}}}"#)
                );
            }
            for _ in 0..open_decode {
                let _ = write!(
                    out,
                    ",\n{}",
                    format_args!(r#"{{"cat":"decode","ph":"E","pid":1,"tid":2,"ts":{ts}}}"#)
                );
            }
        }
        out.push_str("\n]\n");
        out
    }
}

/// A simulated-nanosecond timestamp rendered as Chrome-trace
/// microseconds with exactly three fractional digits (`12.345`).
#[derive(Clone, Copy)]
struct ChromeTs(u64);

impl std::fmt::Display for ChromeTs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1_000, self.0 % 1_000)
    }
}

fn write_instant(out: &mut String, ev: &TraceEvent, ts: ChromeTs, tid: u32) {
    let _ = write!(
        out,
        ",\n{}",
        format_args!(
            r#"{{"name":"{}","cat":"{}","ph":"i","s":"t","pid":1,"tid":{tid},"ts":{ts}}}"#,
            ev.kind(),
            ev.phase().name()
        )
    );
}

/// Minimal JSON string escaping for names we interpolate into traces.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl TraceSink for RingSink {
    fn record(&mut self, at: SimTime, ev: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TimedEvent {
            seq: self.seq,
            at,
            ev: *ev,
        });
        self.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(frame: u64) -> TraceEvent {
        TraceEvent::VsyncDisplayed { frame }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(SimTime::from_nanos(i), &ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_recorded(), 5);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn ring_capacity_clamped_to_one() {
        let mut ring = RingSink::new(0);
        ring.record(SimTime::ZERO, &ev(0));
        ring.record(SimTime::ZERO, &ev(1));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn jsonl_is_one_exact_line_per_event() {
        let mut ring = RingSink::new(8);
        ring.record(
            SimTime::from_micros(16),
            &TraceEvent::DownloadStart {
                segment: 2,
                attempt: 0,
                bytes: 4096,
            },
        );
        ring.record(SimTime::from_micros(33), &TraceEvent::PlaybackStart);
        let jsonl = ring.to_jsonl();
        assert_eq!(
            jsonl,
            concat!(
                "{\"seq\":0,\"t_ns\":16000,\"ev\":\"download_start\",",
                "\"segment\":2,\"attempt\":0,\"bytes\":4096}\n",
                "{\"seq\":1,\"t_ns\":33000,\"ev\":\"playback_start\"}\n",
            )
        );
    }

    #[test]
    fn chrome_trace_pairs_spans_and_closes_leftovers() {
        let mut ring = RingSink::new(16);
        ring.record(
            SimTime::from_nanos(1_500),
            &TraceEvent::DownloadStart {
                segment: 0,
                attempt: 0,
                bytes: 10,
            },
        );
        ring.record(
            SimTime::from_nanos(9_000),
            &TraceEvent::DownloadDone {
                segment: 0,
                bytes: 10,
            },
        );
        ring.record(
            SimTime::from_nanos(10_000),
            &TraceEvent::DecodeStart {
                frame: 0,
                freq_khz: 300_000,
            },
        );
        let trace = ring.to_chrome_trace("test");
        assert!(trace.starts_with("[\n"));
        assert!(trace.ends_with("\n]\n"));
        assert!(trace.contains(r#""ph":"B","pid":1,"tid":1,"ts":1.500"#));
        assert!(trace.contains(r#""ph":"E","pid":1,"tid":1,"ts":9.000"#));
        // The dangling decode span is closed at the last buffered time.
        assert!(trace.contains(r#""cat":"decode","ph":"E","pid":1,"tid":2,"ts":10.000"#));
        // Balanced span events overall.
        assert_eq!(trace.matches(r#""ph":"B""#).count(), 2);
        assert_eq!(trace.matches(r#""ph":"E""#).count(), 2);
    }

    #[test]
    fn chrome_trace_emits_freq_counter_series() {
        let mut ring = RingSink::new(4);
        ring.record(
            SimTime::from_micros(100),
            &TraceEvent::FreqChange {
                from_khz: 300_000,
                to_khz: 652_800,
            },
        );
        let trace = ring.to_chrome_trace("cpu");
        assert!(trace.contains(r#""name":"cpu_freq_khz","ph":"C""#));
        assert!(trace.contains(r#""args":{"khz":652800}"#));
    }

    #[test]
    fn shared_handle_is_dyn_compatible() {
        let ring = shared(RingSink::new(4));
        let as_dyn: SharedSink = ring.clone();
        as_dyn.lock().unwrap().record(SimTime::ZERO, &ev(7));
        assert_eq!(ring.lock().unwrap().len(), 1);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
