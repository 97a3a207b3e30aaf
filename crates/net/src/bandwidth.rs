//! Piecewise-constant bandwidth traces.
//!
//! Network capacity over time, as in the trace-driven evaluation of
//! streaming systems. The trace is a step function of bits/second; the
//! downloader integrates it to get exact transfer-completion times (no
//! per-packet simulation is needed for DASH-scale transfers).

use eavs_sim::time::{SimDuration, SimTime};
use eavs_video::manifest::Manifest;

/// How many times its rung's nominal size a segment is taken to reach
/// when [`check_constant_rate`] budgets the clock. Generated segments
/// vary around the nominal size with frame type and scene changes; the
/// largest seen over all contents, 20 seeds and three ladders of 600 s
/// was 2.23 times nominal.
const SEGMENT_PEAK: f64 = 4.0;

/// Checks that a constant link of `bps` bits/second can stream
/// `manifest` within the simulation clock (`u64` nanoseconds, about 584
/// years): the rate must be positive and finite, and every segment of
/// the top rung, each at four times its nominal size, must
/// arrive before the clock runs out. Downloads run back to back, so the
/// budget is the whole stream rather than its largest segment; a rate
/// below it overflows the clock mid-session.
///
/// # Errors
///
/// Returns a message naming the rate and the slowest usable one.
pub fn check_constant_rate(bps: f64, manifest: &Manifest) -> Result<(), String> {
    if !(bps.is_finite() && bps > 0.0) {
        return Err(format!(
            "constant rate must be positive and finite, got {} Mbps",
            bps / 1e6
        ));
    }
    let largest = manifest
        .representations()
        .iter()
        .map(|r| r.bytes_per_segment(manifest.segment_duration()))
        .max()
        .unwrap_or(0);
    let stream_bits = manifest.num_segments as f64 * largest as f64 * 8.0 * SEGMENT_PEAK;
    let clock_s = SimDuration::MAX.as_secs_f64();
    let slowest = stream_bits / clock_s;
    if bps <= slowest {
        return Err(format!(
            "constant rate {:e} Mbps cannot stream this manifest within the simulation clock \
             (slowest usable: {:e} Mbps)",
            bps / 1e6,
            slowest / 1e6
        ));
    }
    Ok(())
}

/// A step function of available bandwidth (bits per second). The last
/// value holds forever; traces may also be replayed cyclically via
/// [`BandwidthTrace::rate_at_cyclic`].
#[derive(Clone, PartialEq, Debug)]
pub struct BandwidthTrace {
    points: Vec<(SimTime, f64)>,
}

impl BandwidthTrace {
    /// A constant-rate trace.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not positive and finite.
    pub fn constant(bps: f64) -> Self {
        BandwidthTrace::from_points(vec![(SimTime::ZERO, bps)])
    }

    /// Builds a trace from `(time, bps)` change points.
    ///
    /// # Panics
    ///
    /// Panics if empty, if the first point is not at time zero, if times
    /// are not strictly increasing, or if any rate is negative/NaN (zero
    /// is allowed: outages).
    pub fn from_points(points: Vec<(SimTime, f64)>) -> Self {
        assert!(!points.is_empty(), "empty bandwidth trace");
        assert_eq!(
            points[0].0,
            SimTime::ZERO,
            "bandwidth trace must start at time zero"
        );
        for (i, &(t, bps)) in points.iter().enumerate() {
            assert!(bps.is_finite() && bps >= 0.0, "bad rate {bps} at point {i}");
            if i > 0 {
                assert!(t > points[i - 1].0, "trace times must strictly increase");
            }
        }
        BandwidthTrace { points }
    }

    /// Builds a trace from `(seconds, Mbps)` pairs — the common trace-file
    /// shape.
    ///
    /// # Panics
    ///
    /// As [`BandwidthTrace::from_points`].
    pub fn from_mbps_steps(steps: &[(u64, f64)]) -> Self {
        BandwidthTrace::from_points(
            steps
                .iter()
                .map(|&(secs, mbps)| (SimTime::from_secs(secs), mbps * 1e6))
                .collect(),
        )
    }

    /// The rate in force at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        self.points[idx - 1].1
    }

    /// The rate at `t` with the trace replayed cyclically with period
    /// `cycle` (for traces shorter than the session).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is zero.
    pub fn rate_at_cyclic(&self, t: SimTime, cycle: SimDuration) -> f64 {
        assert!(!cycle.is_zero(), "zero cycle");
        let wrapped = SimTime::from_nanos(t.as_nanos() % cycle.as_nanos());
        self.rate_at(wrapped)
    }

    /// Bytes transferable in `[from, to)`.
    pub fn bytes_between(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from <= to, "inverted window");
        let mut acc = 0.0;
        let mut t = from;
        while t < to {
            let idx = self.points.partition_point(|&(pt, _)| pt <= t);
            let rate = self.points[idx - 1].1;
            let seg_end = self
                .points
                .get(idx)
                .map(|&(pt, _)| pt)
                .unwrap_or(SimTime::MAX)
                .min(to);
            acc += rate * (seg_end - t).as_secs_f64() / 8.0;
            t = seg_end;
        }
        acc
    }

    /// The instant at which a transfer of `bytes` starting at `from`
    /// completes, or `None` if the trace's tail rate is zero and the
    /// transfer can never finish.
    pub fn completion_time(&self, from: SimTime, bytes: f64) -> Option<SimTime> {
        assert!(bytes.is_finite() && bytes >= 0.0, "bad byte count {bytes}");
        if bytes == 0.0 {
            return Some(from);
        }
        let mut remaining = bytes;
        let mut t = from;
        loop {
            let idx = self.points.partition_point(|&(pt, _)| pt <= t);
            let rate = self.points[idx - 1].1;
            let seg_end = self.points.get(idx).map(|&(pt, _)| pt);
            match seg_end {
                Some(end) => {
                    let cap = rate * (end - t).as_secs_f64() / 8.0;
                    if cap >= remaining {
                        let dt = remaining * 8.0 / rate;
                        return Some(t + SimDuration::from_secs_f64(dt));
                    }
                    remaining -= cap;
                    t = end;
                }
                None => {
                    // Tail segment extends forever.
                    if rate <= 0.0 {
                        return None;
                    }
                    let dt = remaining * 8.0 / rate;
                    return Some(t + SimDuration::from_secs_f64(dt));
                }
            }
        }
    }

    /// The mean rate over `[from, to)` in bits/second.
    pub fn mean_rate(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from < to, "empty window");
        self.bytes_between(from, to) * 8.0 / (to - from).as_secs_f64()
    }

    /// Hashes the trace contents (every change point) into `fp`, so two
    /// separately allocated but identical traces collide under session
    /// and trace memoization.
    pub fn fingerprint(&self, fp: &mut eavs_sim::fingerprint::Fingerprinter) {
        for &(t, bps) in &self.points {
            fp.write_u64(t.as_nanos());
            fp.write_f64(bps);
        }
    }

    /// The change points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Inline plus heap bytes this trace holds: the points vector's
    /// whole capacity, since that is what stays allocated.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<BandwidthTrace>()
            + self.points.capacity() * std::mem::size_of::<(SimTime, f64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> SimTime {
        SimTime::from_secs(n)
    }

    #[test]
    fn constant_rates_must_stream_the_manifest_within_the_clock() {
        // 60 s of 6 Mbps in 2 s segments: 30 × 1.5 MB, budgeted at 4×.
        let m = Manifest::single(6_000, 1920, 1080, SimDuration::from_secs(60), 30);
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let err = check_constant_rate(bad, &m).unwrap_err();
            assert!(err.contains("positive and finite"), "{bad}: {err}");
        }
        let err = check_constant_rate(1e-294, &m).unwrap_err();
        assert!(err.contains("within the simulation clock"), "{err}");
        // 1.44e9 bits over ~1.84e10 s: the slowest usable rate is ~0.08 bps.
        assert!(check_constant_rate(0.07, &m).is_err());
        assert!(check_constant_rate(0.1, &m).is_ok());
        assert!(check_constant_rate(6e6, &m).is_ok());
    }

    #[test]
    fn approx_bytes_counts_the_points_capacity() {
        let mut points = Vec::with_capacity(10);
        points.extend([(s(0), 1e6), (s(1), 2e6)]);
        let tr = BandwidthTrace::from_points(points);
        assert_eq!(
            tr.approx_bytes(),
            std::mem::size_of::<BandwidthTrace>() + 10 * 16
        );
    }

    #[test]
    fn constant_trace_completion() {
        let tr = BandwidthTrace::constant(8e6); // 1 MB/s
        let done = tr.completion_time(s(2), 500_000.0).unwrap();
        assert_eq!(done, s(2) + SimDuration::from_millis(500));
        assert_eq!(tr.rate_at(s(100)), 8e6);
    }

    #[test]
    fn stepped_trace_integrates_across_steps() {
        // 8 Mbps for 10 s, then 0.8 Mbps.
        let tr = BandwidthTrace::from_mbps_steps(&[(0, 8.0), (10, 0.8)]);
        // Start at t=9: 1 s at 1 MB/s = 1 MB, then 0.1 MB/s.
        // 1.5 MB total: 1 MB in first second, 0.5 MB at 0.1 MB/s = 5 s.
        let done = tr.completion_time(s(9), 1_500_000.0).unwrap();
        assert_eq!(done, s(15));
    }

    #[test]
    fn zero_tail_never_completes() {
        let tr = BandwidthTrace::from_mbps_steps(&[(0, 1.0), (5, 0.0)]);
        assert_eq!(tr.completion_time(s(6), 1000.0), None);
        // But a transfer fitting before the outage completes.
        assert!(tr.completion_time(s(0), 100_000.0).is_some());
    }

    #[test]
    fn zero_bytes_completes_immediately() {
        let tr = BandwidthTrace::constant(1e6);
        assert_eq!(tr.completion_time(s(3), 0.0), Some(s(3)));
    }

    #[test]
    fn bytes_between_matches_completion() {
        let tr = BandwidthTrace::from_mbps_steps(&[(0, 4.0), (3, 12.0), (7, 2.0)]);
        let bytes = tr.bytes_between(s(1), s(9));
        let done = tr.completion_time(s(1), bytes).unwrap();
        assert!(
            done.checked_duration_since(s(9))
                .is_none_or(|d| d < SimDuration::from_micros(1))
                && s(9)
                    .checked_duration_since(done)
                    .is_none_or(|d| d < SimDuration::from_micros(1)),
            "done={done}"
        );
    }

    #[test]
    fn mean_rate() {
        let tr = BandwidthTrace::from_mbps_steps(&[(0, 2.0), (5, 6.0)]);
        let mean = tr.mean_rate(s(0), s(10));
        assert!((mean - 4e6).abs() < 1.0);
    }

    #[test]
    fn cyclic_replay_wraps() {
        let tr = BandwidthTrace::from_mbps_steps(&[(0, 1.0), (10, 5.0)]);
        let cycle = SimDuration::from_secs(20);
        assert_eq!(tr.rate_at_cyclic(s(5), cycle), 1e6);
        assert_eq!(tr.rate_at_cyclic(s(15), cycle), 5e6);
        assert_eq!(tr.rate_at_cyclic(s(25), cycle), 1e6);
    }

    #[test]
    #[should_panic(expected = "start at time zero")]
    fn trace_must_start_at_zero() {
        BandwidthTrace::from_points(vec![(s(1), 1e6)]);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn times_must_increase() {
        BandwidthTrace::from_points(vec![(s(0), 1e6), (s(0), 2e6)]);
    }
}
