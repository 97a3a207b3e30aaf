//! CPU load observation, as seen by sampling governors.
//!
//! Linux's `ondemand`/`conservative`/`interactive` read `/proc/stat`-style
//! cumulative busy counters and compute the busy fraction of each sampling
//! window. [`LoadMonitor`] reproduces that: feed it the cluster's cumulative
//! busy time at each sample instant and it yields [`LoadSample`]s.

use crate::freq::Frequency;
use crate::opp::OppIndex;
use eavs_sim::time::{round_u64, SimDuration, SimTime};

/// One sampling-window observation handed to a governor.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LoadSample {
    /// Sample instant.
    pub now: SimTime,
    /// Window length since the previous sample.
    pub window: SimDuration,
    /// Fraction of the window the observed core was busy, in `[0, 1]`.
    pub busy_fraction: f64,
    /// Frequency in force during the window.
    pub cur_freq: Frequency,
    /// OPP index in force during the window.
    pub cur_index: OppIndex,
}

impl LoadSample {
    /// Load as a percentage (the unit Linux governor tunables use).
    pub fn load_pct(&self) -> f64 {
        self.busy_fraction * 100.0
    }

    /// Frequency-invariant utilization: busy fraction scaled by the current
    /// frequency, i.e. the clock rate the workload actually consumed.
    /// This is the quantity `schedutil` keys off.
    pub fn consumed_freq(&self) -> Frequency {
        let khz = round_u64(self.busy_fraction * self.cur_freq.khz() as f64);
        Frequency::from_khz(u32::try_from(khz).unwrap_or(u32::MAX))
    }
}

/// Converts cumulative busy counters into per-window [`LoadSample`]s.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LoadMonitor {
    last_time: SimTime,
    last_busy: SimDuration,
}

impl LoadMonitor {
    /// Creates a monitor with its baseline at `start` / `busy_at_start`.
    pub fn new(start: SimTime, busy_at_start: SimDuration) -> Self {
        LoadMonitor {
            last_time: start,
            last_busy: busy_at_start,
        }
    }

    /// Produces the sample for the window `(previous sample, now]`.
    ///
    /// `busy_total` is the observed core's cumulative busy time at `now`.
    /// Returns `None` for a zero-length window (no time has passed).
    ///
    /// # Panics
    ///
    /// Panics if time or the busy counter went backwards.
    pub fn sample(
        &mut self,
        now: SimTime,
        busy_total: SimDuration,
        cur_freq: Frequency,
        cur_index: OppIndex,
    ) -> Option<LoadSample> {
        let window = now
            .checked_duration_since(self.last_time)
            .expect("load monitor time went backwards");
        let busy = busy_total
            .checked_sub(self.last_busy)
            .expect("busy counter went backwards");
        if window.is_zero() {
            return None;
        }
        self.last_time = now;
        self.last_busy = busy_total;
        let busy_fraction = (busy.as_secs_f64() / window.as_secs_f64()).clamp(0.0, 1.0);
        Some(LoadSample {
            now,
            window,
            busy_fraction,
            cur_freq,
            cur_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    const F: Frequency = Frequency::from_mhz(1000);

    #[test]
    fn computes_window_busy_fraction() {
        let mut m = LoadMonitor::new(t(0), SimDuration::ZERO);
        let s = m.sample(t(100), d(40), F, 1).unwrap();
        assert_eq!(s.window, d(100));
        assert!((s.busy_fraction - 0.4).abs() < 1e-12);
        assert!((s.load_pct() - 40.0).abs() < 1e-9);
        // Next window is relative to the previous sample.
        let s2 = m.sample(t(200), d(140), F, 1).unwrap();
        assert!((s2.busy_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_window_yields_none() {
        let mut m = LoadMonitor::new(t(5), d(1));
        assert_eq!(m.sample(t(5), d(1), F, 0), None);
    }

    #[test]
    fn clamps_fraction_to_unit_interval() {
        // Busy can exceed window with multi-core counters; clamp.
        let mut m = LoadMonitor::new(t(0), SimDuration::ZERO);
        let s = m.sample(t(10), d(25), F, 0).unwrap();
        assert_eq!(s.busy_fraction, 1.0);
    }

    #[test]
    fn consumed_freq_scales_with_load() {
        let s = LoadSample {
            now: t(1),
            window: d(1),
            busy_fraction: 0.5,
            cur_freq: Frequency::from_mhz(2000),
            cur_index: 3,
        };
        assert_eq!(s.consumed_freq(), Frequency::from_mhz(1000));
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn backwards_time_panics() {
        let mut m = LoadMonitor::new(t(10), SimDuration::ZERO);
        m.sample(t(5), SimDuration::ZERO, F, 0);
    }
}
