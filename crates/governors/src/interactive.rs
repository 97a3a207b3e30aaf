//! The Android `interactive` governor.
//!
//! The stock governor on most Android devices of the paper's era.
//! Semantics reproduced from the AOSP driver:
//!
//! * load ≥ `go_hispeed_load` while below `hispeed_freq` → jump to
//!   `hispeed_freq` immediately (the touch-responsiveness burst);
//! * otherwise target the lowest frequency with
//!   `freq × target_load ≥ load × cur_freq` (i.e. aim to run at
//!   `target_load` percent busy);
//! * rising *above* `hispeed_freq` requires the load to persist for
//!   `above_hispeed_delay`;
//! * any *decrease* is blocked until the current frequency has been in
//!   force for `min_sample_time` (the floor timer).

use crate::governor::{lowest_index_for_khz, CpufreqGovernor};
use eavs_cpu::cluster::PolicyLimits;
use eavs_cpu::load::LoadSample;
use eavs_cpu::opp::{OppIndex, OppTable};
use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::time::{SimDuration, SimTime};

/// Tunables (sysfs `interactive/*`), AOSP defaults.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct InteractiveTunables {
    /// Load percentage that triggers the hispeed jump.
    pub go_hispeed_load: f64,
    /// The jump target as a fraction of max frequency (AOSP default: max).
    pub hispeed_freq_fraction: f64,
    /// Target busy percentage for steady-state scaling.
    pub target_load: f64,
    /// Sampling (timer) period.
    pub timer_rate: SimDuration,
    /// Dwell required at hispeed before going above it.
    pub above_hispeed_delay: SimDuration,
    /// Minimum time at a frequency before scaling down.
    pub min_sample_time: SimDuration,
}

impl Default for InteractiveTunables {
    fn default() -> Self {
        InteractiveTunables {
            go_hispeed_load: 99.0,
            hispeed_freq_fraction: 1.0,
            target_load: 90.0,
            timer_rate: SimDuration::from_millis(20),
            above_hispeed_delay: SimDuration::from_millis(20),
            min_sample_time: SimDuration::from_millis(80),
        }
    }
}

/// The `interactive` governor.
#[derive(Clone, Copy, Debug)]
pub struct Interactive {
    tunables: InteractiveTunables,
    /// When the current frequency was entered (floor timer).
    freq_since: Option<(OppIndex, SimTime)>,
    /// When the policy reached hispeed (above_hispeed_delay timer).
    hispeed_since: Option<SimTime>,
}

impl Interactive {
    /// Creates the governor with default tunables.
    pub fn new() -> Self {
        Interactive::with_tunables(InteractiveTunables::default())
    }

    /// Creates the governor with explicit tunables.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range tunables.
    pub fn with_tunables(tunables: InteractiveTunables) -> Self {
        assert!(
            tunables.go_hispeed_load > 0.0 && tunables.go_hispeed_load <= 100.0,
            "bad go_hispeed_load"
        );
        assert!(
            tunables.hispeed_freq_fraction > 0.0 && tunables.hispeed_freq_fraction <= 1.0,
            "bad hispeed fraction"
        );
        assert!(
            tunables.target_load > 0.0 && tunables.target_load <= 100.0,
            "bad target_load"
        );
        Interactive {
            tunables,
            freq_since: None,
            hispeed_since: None,
        }
    }

    fn hispeed_index(&self, table: &OppTable, limits: PolicyLimits) -> OppIndex {
        let khz = self.tunables.hispeed_freq_fraction * table.max_freq().khz() as f64;
        lowest_index_for_khz(table, limits, khz)
    }
}

impl Default for Interactive {
    fn default() -> Self {
        Interactive::new()
    }
}

impl CpufreqGovernor for Interactive {
    fn name(&self) -> &'static str {
        "interactive"
    }

    fn sampling_interval(&self) -> SimDuration {
        self.tunables.timer_rate
    }

    fn on_sample(
        &mut self,
        sample: &LoadSample,
        table: &OppTable,
        limits: PolicyLimits,
    ) -> OppIndex {
        let now = sample.now;
        let cur = sample.cur_index;
        // Maintain the floor timer.
        match self.freq_since {
            Some((idx, _)) if idx == cur => {}
            _ => self.freq_since = Some((cur, now)),
        }
        let load = sample.load_pct();
        let hispeed = self.hispeed_index(table, limits);

        // Desired frequency so the CPU would run at target_load.
        let desired_khz = load / self.tunables.target_load * sample.cur_freq.khz() as f64;
        let mut target = lowest_index_for_khz(table, limits, desired_khz);

        // Hispeed burst logic.
        if load >= self.tunables.go_hispeed_load && cur < hispeed {
            target = target.max(hispeed);
            self.hispeed_since = Some(now);
        }
        if target > hispeed && cur >= hispeed {
            // Going above hispeed requires dwell.
            let since = *self.hispeed_since.get_or_insert(now);
            if now.saturating_duration_since(since) < self.tunables.above_hispeed_delay {
                target = hispeed.max(cur);
            }
        } else if cur < hispeed {
            self.hispeed_since = None;
        }

        // Floor timer: block decreases until min_sample_time at cur.
        if target < cur {
            let (_, since) = self.freq_since.expect("set above");
            if now.saturating_duration_since(since) < self.tunables.min_sample_time {
                target = cur;
            }
        }
        limits.clamp(target)
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        if self.freq_since.is_some() || self.hispeed_since.is_some() {
            // Running floor/dwell timers are learned state.
            fp.mark_opaque();
            return;
        }
        fp.write_str(self.name());
        fp.write_f64(self.tunables.go_hispeed_load);
        fp.write_f64(self.tunables.hispeed_freq_fraction);
        fp.write_f64(self.tunables.target_load);
        fp.write_u64(self.tunables.timer_rate.as_nanos());
        fp.write_u64(self.tunables.above_hispeed_delay.as_nanos());
        fp.write_u64(self.tunables.min_sample_time.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> OppTable {
        OppTable::from_mhz_mv(&[(500, 900), (1000, 1000), (1500, 1100), (2000, 1250)]).unwrap()
    }

    fn sample(load_pct: f64, cur_index: OppIndex, t_ms: u64, table: &OppTable) -> LoadSample {
        LoadSample {
            now: SimTime::from_millis(t_ms),
            window: SimDuration::from_millis(20),
            busy_fraction: load_pct / 100.0,
            cur_freq: table.freq(cur_index),
            cur_index,
        }
    }

    #[test]
    fn hispeed_jump_on_burst() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Interactive::new();
        // 100% load from the lowest OPP jumps straight to hispeed (= max
        // with default tunables).
        let idx = g.on_sample(&sample(100.0, 0, 0, &t), &t, limits);
        assert_eq!(idx, 3);
    }

    #[test]
    fn steady_state_targets_ninety_percent() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Interactive::new();
        // 45% at 2000 MHz -> desired = 45/90 × 2000 = 1000 MHz, but the
        // floor timer blocks the drop for min_sample_time (80 ms).
        let idx = g.on_sample(&sample(45.0, 3, 0, &t), &t, limits);
        assert_eq!(idx, 3, "floor timer holds");
        let idx = g.on_sample(&sample(45.0, 3, 100, &t), &t, limits);
        assert_eq!(idx, 1, "after dwell the drop happens");
    }

    #[test]
    fn moderate_load_scales_to_target() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Interactive::with_tunables(InteractiveTunables {
            hispeed_freq_fraction: 0.75, // hispeed = 1500
            ..InteractiveTunables::default()
        });
        // 60% at 1000 MHz -> desired = 60/90×1000 = 667 MHz -> 1000 MHz OPP.
        let idx = g.on_sample(&sample(60.0, 1, 0, &t), &t, limits);
        assert_eq!(idx, 1);
    }

    #[test]
    fn above_hispeed_requires_dwell() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Interactive::with_tunables(InteractiveTunables {
            hispeed_freq_fraction: 0.75, // hispeed = index 2 (1500)
            above_hispeed_delay: SimDuration::from_millis(40),
            ..InteractiveTunables::default()
        });
        // Burst at low freq jumps to hispeed, not above.
        let idx = g.on_sample(&sample(100.0, 0, 0, &t), &t, limits);
        assert_eq!(idx, 2, "jump lands on hispeed first");
        // At hispeed with very high load, dwell not yet satisfied.
        let idx = g.on_sample(&sample(100.0, 2, 20, &t), &t, limits);
        assert_eq!(idx, 2);
        // After the dwell, it may exceed hispeed.
        let idx = g.on_sample(&sample(100.0, 2, 60, &t), &t, limits);
        assert_eq!(idx, 3);
    }

    #[test]
    fn respects_limits() {
        let t = table();
        let limits = PolicyLimits {
            min_index: 0,
            max_index: 1,
        };
        let mut g = Interactive::new();
        let idx = g.on_sample(&sample(100.0, 0, 0, &t), &t, limits);
        assert!(idx <= 1);
    }

    #[test]
    fn default_tunables_are_aosp() {
        let d = InteractiveTunables::default();
        assert_eq!(d.go_hispeed_load, 99.0);
        assert_eq!(d.timer_rate, SimDuration::from_millis(20));
        assert_eq!(d.min_sample_time, SimDuration::from_millis(80));
    }
}
