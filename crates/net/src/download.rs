//! The segment downloader.
//!
//! One HTTP-like transfer at a time (DASH players fetch segments
//! sequentially): a request costs one RTT, then bytes flow at the
//! bandwidth trace's rate. Completion times are computed in closed form
//! from the piecewise-constant trace, so the session can schedule a single
//! completion event per segment. Activity intervals are recorded for radio
//! energy accounting, and per-segment throughput samples feed the ABR.

use std::sync::Arc;

use crate::bandwidth::BandwidthTrace;
use crate::radio::ActivityInterval;
use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::time::{round_u64, SimDuration, SimTime};

/// Retry behavior for failed (stalled or corrupt) segment downloads.
///
/// A transfer that has not completed within `timeout` is aborted and
/// retried after an exponential backoff: attempt `n` (0-based) waits
/// `backoff_base * backoff_factor^n`, capped at `backoff_cap`. After
/// `max_retries` failed retries the segment is abandoned and the session
/// moves on. The default policy has no timeout, so clean sessions
/// schedule no watchdog events at all.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RetryPolicy {
    /// Abort a transfer that has not completed within this span.
    /// `None` disables the watchdog (and with it, stall recovery).
    pub timeout: Option<SimDuration>,
    /// Maximum number of retries per segment before giving up.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base: SimDuration,
    /// Multiplier applied to the backoff per failed attempt.
    pub backoff_factor: f64,
    /// Upper bound on any single backoff wait.
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: None,
            max_retries: 4,
            backoff_base: SimDuration::from_millis(200),
            backoff_factor: 2.0,
            backoff_cap: SimDuration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// A policy with a watchdog timeout and the default backoff schedule.
    pub fn with_timeout(timeout: SimDuration) -> Self {
        RetryPolicy {
            timeout: Some(timeout),
            ..RetryPolicy::default()
        }
    }

    /// Backoff wait before retry number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let cap = self.backoff_cap.as_nanos() as f64;
        let mut nanos = self.backoff_base.as_nanos() as f64;
        for _ in 0..attempt.min(64) {
            nanos *= self.backoff_factor.max(0.0);
            if nanos >= cap {
                break;
            }
        }
        SimDuration::from_nanos(round_u64(nanos.min(cap)))
    }

    /// Feed every policy knob into a fingerprint.
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_opt_u64(self.timeout.map(SimDuration::as_nanos));
        fp.write_u32(self.max_retries);
        fp.write_u64(self.backoff_base.as_nanos());
        fp.write_f64(self.backoff_factor);
        fp.write_u64(self.backoff_cap.as_nanos());
    }
}

/// A completed transfer's measurement, as the ABR sees it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ThroughputSample {
    /// Bytes transferred.
    pub bytes: u64,
    /// Transfer wall time including the request RTT.
    pub duration: SimDuration,
}

impl ThroughputSample {
    /// The measured goodput in bits/second.
    pub fn bps(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / self.duration.as_secs_f64()
    }
}

/// State of the in-flight transfer.
#[derive(Clone, Copy, PartialEq, Debug)]
struct InFlight {
    started: SimTime,
    completes: SimTime,
    bytes: u64,
}

/// Sequential segment downloader over a bandwidth trace.
///
/// The trace is held behind an [`Arc`]: generated traces can be large
/// (per-second samples over long sessions), and parallel sweeps share one
/// copy across jobs instead of deep-cloning per session.
#[derive(Clone, Debug)]
pub struct Downloader {
    trace: Arc<BandwidthTrace>,
    rtt: SimDuration,
    in_flight: Option<InFlight>,
    activity: Vec<ActivityInterval>,
    samples: Vec<ThroughputSample>,
    bytes_total: u64,
}

impl Downloader {
    /// Creates a downloader over `trace` with the given request RTT.
    /// Accepts either an owned `BandwidthTrace` or a shared `Arc`.
    pub fn new(trace: impl Into<Arc<BandwidthTrace>>, rtt: SimDuration) -> Self {
        Downloader {
            trace: trace.into(),
            rtt,
            in_flight: None,
            activity: Vec::new(),
            samples: Vec::new(),
            bytes_total: 0,
        }
    }

    /// `true` if a transfer is in progress.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Starts fetching `bytes` at `now`; returns the completion instant,
    /// or `None` if the trace's bandwidth drops to zero forever before the
    /// transfer can finish (the session should treat this as a stalled
    /// network).
    ///
    /// # Panics
    ///
    /// Panics if a transfer is already in flight.
    pub fn start(&mut self, now: SimTime, bytes: u64) -> Option<SimTime> {
        assert!(self.in_flight.is_none(), "downloader is busy");
        let data_start = now + self.rtt;
        let completes = self.trace.completion_time(data_start, bytes as f64)?;
        self.in_flight = Some(InFlight {
            started: now,
            completes,
            bytes,
        });
        Some(completes)
    }

    /// Starts a transfer that will never complete on its own: the radio
    /// stays active (and burning energy) but no completion instant exists.
    /// Used by fault injection to model a stalled server; only a watchdog
    /// timeout ([`Downloader::abort`]) can free the downloader again.
    ///
    /// # Panics
    ///
    /// Panics if a transfer is already in flight.
    pub fn start_stalled(&mut self, now: SimTime, bytes: u64) {
        assert!(self.in_flight.is_none(), "downloader is busy");
        self.in_flight = Some(InFlight {
            started: now,
            completes: SimTime::MAX,
            bytes,
        });
    }

    /// Aborts the in-flight transfer at `now`. The radio activity up to
    /// the abort is recorded (the bytes were partially sent and the radio
    /// was powered), but no throughput sample is produced — the ABR never
    /// sees failed transfers.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight or `now` precedes the transfer start.
    pub fn abort(&mut self, now: SimTime) {
        let f = self.in_flight.take().expect("no transfer in flight");
        assert!(now >= f.started, "abort before transfer start");
        self.activity.push(ActivityInterval {
            start: f.started,
            end: now.min(f.completes),
        });
    }

    /// Marks the in-flight transfer complete at `now` (the instant returned
    /// by [`Downloader::start`]) and returns its throughput sample.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight or `now` differs from the promised
    /// completion instant.
    pub fn complete(&mut self, now: SimTime) -> ThroughputSample {
        let f = self.in_flight.take().expect("no transfer in flight");
        assert_eq!(now, f.completes, "completion at unexpected time");
        self.activity.push(ActivityInterval {
            start: f.started,
            end: now,
        });
        let sample = ThroughputSample {
            bytes: f.bytes,
            duration: now - f.started,
        };
        self.samples.push(sample);
        self.bytes_total += f.bytes;
        sample
    }

    /// All completed-transfer throughput samples, oldest first.
    pub fn samples(&self) -> &[ThroughputSample] {
        &self.samples
    }

    /// Total bytes downloaded.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Radio activity intervals so far (including any in-flight transfer,
    /// truncated at `now`).
    pub fn activity(&self, now: SimTime) -> Vec<ActivityInterval> {
        let mut out = self.activity.clone();
        if let Some(f) = self.in_flight {
            out.push(ActivityInterval {
                start: f.started,
                end: now.min(f.completes),
            });
        }
        out
    }

    /// The bandwidth trace.
    pub fn trace(&self) -> &BandwidthTrace {
        &self.trace
    }

    /// The configured request RTT.
    pub fn rtt(&self) -> SimDuration {
        self.rtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> SimTime {
        SimTime::from_secs(n)
    }

    #[test]
    fn transfer_lifecycle() {
        let trace = BandwidthTrace::constant(8e6); // 1 MB/s
        let mut d = Downloader::new(trace, SimDuration::from_millis(50));
        assert!(!d.is_busy());
        let done = d.start(s(1), 1_000_000).unwrap();
        assert!(d.is_busy());
        assert_eq!(done, s(2) + SimDuration::from_millis(50));
        let sample = d.complete(done);
        assert!(!d.is_busy());
        assert_eq!(sample.bytes, 1_000_000);
        assert_eq!(sample.duration, SimDuration::from_millis(1050));
        // Goodput below link rate because of the RTT.
        assert!(sample.bps() < 8e6);
        assert!(sample.bps() > 7e6);
        assert_eq!(d.bytes_total(), 1_000_000);
        assert_eq!(d.samples().len(), 1);
    }

    #[test]
    fn activity_includes_in_flight() {
        let mut d = Downloader::new(BandwidthTrace::constant(8e6), SimDuration::ZERO);
        let done = d.start(s(0), 4_000_000).unwrap();
        assert_eq!(done, s(4));
        let act = d.activity(s(2));
        assert_eq!(act.len(), 1);
        assert_eq!(act[0].end, s(2));
        d.complete(done);
        let act = d.activity(s(10));
        assert_eq!(act[0].end, s(4));
    }

    #[test]
    fn stalled_network_returns_none() {
        let trace = BandwidthTrace::from_mbps_steps(&[(0, 1.0), (2, 0.0)]);
        let mut d = Downloader::new(trace, SimDuration::ZERO);
        assert!(d.start(s(0), 10_000_000).is_none());
        assert!(!d.is_busy(), "failed start leaves downloader free");
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn concurrent_start_panics() {
        let mut d = Downloader::new(BandwidthTrace::constant(8e6), SimDuration::ZERO);
        d.start(s(0), 1000).unwrap();
        d.start(s(0), 1000).unwrap();
    }

    #[test]
    #[should_panic(expected = "unexpected time")]
    fn complete_at_wrong_time_panics() {
        let mut d = Downloader::new(BandwidthTrace::constant(8e6), SimDuration::ZERO);
        d.start(s(0), 8_000_000).unwrap();
        d.complete(s(3));
    }

    #[test]
    fn stalled_transfer_never_completes_and_abort_frees() {
        let mut d = Downloader::new(BandwidthTrace::constant(8e6), SimDuration::ZERO);
        d.start_stalled(s(1), 1_000_000);
        assert!(d.is_busy());
        // The radio is active for as long as the stall persists.
        let act = d.activity(s(5));
        assert_eq!(act.len(), 1);
        assert_eq!(act[0].start, s(1));
        assert_eq!(act[0].end, s(5));
        d.abort(s(3));
        assert!(!d.is_busy());
        // Aborted transfers leave radio activity but no ABR sample.
        assert_eq!(d.samples().len(), 0);
        assert_eq!(d.bytes_total(), 0);
        let act = d.activity(s(10));
        assert_eq!(act.len(), 1);
        assert_eq!(act[0].end, s(3));
    }

    #[test]
    fn abort_mid_transfer_records_partial_activity() {
        let mut d = Downloader::new(BandwidthTrace::constant(8e6), SimDuration::ZERO);
        let done = d.start(s(0), 4_000_000).unwrap();
        assert_eq!(done, s(4));
        d.abort(s(2));
        assert!(!d.is_busy());
        let act = d.activity(s(10));
        assert_eq!(act.len(), 1);
        assert_eq!(act[0].end, s(2));
        // Downloader is free for a retry.
        assert!(d.start(s(2), 4_000_000).is_some());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            timeout: Some(SimDuration::from_secs(2)),
            max_retries: 8,
            backoff_base: SimDuration::from_millis(200),
            backoff_factor: 2.0,
            backoff_cap: SimDuration::from_secs(1),
        };
        assert_eq!(p.backoff(0), SimDuration::from_millis(200));
        assert_eq!(p.backoff(1), SimDuration::from_millis(400));
        assert_eq!(p.backoff(2), SimDuration::from_millis(800));
        assert_eq!(p.backoff(3), SimDuration::from_secs(1));
        assert_eq!(p.backoff(60), SimDuration::from_secs(1));
        // Enormous attempt counts must not overflow the clock.
        assert_eq!(p.backoff(u32::MAX), SimDuration::from_secs(1));
    }

    #[test]
    fn default_policy_has_no_timeout() {
        let p = RetryPolicy::default();
        assert_eq!(p.timeout, None);
        assert_eq!(
            RetryPolicy::with_timeout(SimDuration::from_secs(2)).timeout,
            Some(SimDuration::from_secs(2))
        );
    }

    #[test]
    fn retry_policy_fingerprint_distinguishes_knobs() {
        let fp_of = |p: &RetryPolicy| {
            let mut fp = Fingerprinter::new("test/retry");
            p.fingerprint(&mut fp);
            fp.finish().expect("not opaque")
        };
        let base = RetryPolicy::default();
        let variants = [
            RetryPolicy {
                timeout: Some(SimDuration::from_secs(2)),
                ..base
            },
            RetryPolicy {
                max_retries: 5,
                ..base
            },
            RetryPolicy {
                backoff_base: SimDuration::from_millis(201),
                ..base
            },
            RetryPolicy {
                backoff_factor: 3.0,
                ..base
            },
            RetryPolicy {
                backoff_cap: SimDuration::from_secs(6),
                ..base
            },
        ];
        let mut seen = vec![fp_of(&base)];
        for v in &variants {
            let fp = fp_of(v);
            assert!(!seen.contains(&fp), "fingerprint collision for {v:?}");
            seen.push(fp);
        }
    }

    #[test]
    fn throughput_sample_zero_duration() {
        let sample = ThroughputSample {
            bytes: 100,
            duration: SimDuration::ZERO,
        };
        assert_eq!(sample.bps(), 0.0);
    }
}
