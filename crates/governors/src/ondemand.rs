//! The `ondemand` governor (Linux `drivers/cpufreq/ondemand.c`).
//!
//! Semantics reproduced:
//! * load above `up_threshold` → jump straight to the maximum frequency;
//! * otherwise pick the lowest frequency ≥ `load% × max_freq`
//!   (proportional scaling against the *maximum*, not the current, rate);
//! * `sampling_down_factor` multiplies the sampling period while at the
//!   maximum frequency, so a busy CPU is re-evaluated less often (the
//!   kernel's optimization to avoid bouncing off max).

use crate::governor::{lowest_index_for_khz, CpufreqGovernor};
use eavs_cpu::cluster::PolicyLimits;
use eavs_cpu::load::LoadSample;
use eavs_cpu::opp::{OppIndex, OppTable};
use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::time::SimDuration;

/// Tunables (sysfs `ondemand/*`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OndemandTunables {
    /// Load percentage above which the governor jumps to max.
    pub up_threshold: f64,
    /// Base sampling period.
    pub sampling_rate: SimDuration,
    /// Periods to stay at max before re-evaluating downward.
    pub sampling_down_factor: u32,
}

impl Default for OndemandTunables {
    fn default() -> Self {
        OndemandTunables {
            up_threshold: 95.0,
            sampling_rate: SimDuration::from_millis(10),
            sampling_down_factor: 1,
        }
    }
}

/// The `ondemand` governor.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ondemand {
    tunables: OndemandTunables,
    /// Remaining high-rate periods to hold max (sampling_down_factor).
    down_skip: u32,
}

impl Ondemand {
    /// Creates the governor with default tunables.
    pub fn new() -> Self {
        Ondemand::default()
    }

    /// Creates the governor with explicit tunables.
    ///
    /// # Panics
    ///
    /// Panics if `up_threshold` is not in `(0, 100]` or
    /// `sampling_down_factor == 0`.
    pub fn with_tunables(tunables: OndemandTunables) -> Self {
        assert!(
            tunables.up_threshold > 0.0 && tunables.up_threshold <= 100.0,
            "bad up_threshold"
        );
        assert!(
            tunables.sampling_down_factor > 0,
            "bad sampling_down_factor"
        );
        Ondemand {
            tunables,
            down_skip: 0,
        }
    }

    /// The tunables in force.
    pub fn tunables(&self) -> OndemandTunables {
        self.tunables
    }
}

impl CpufreqGovernor for Ondemand {
    fn name(&self) -> &'static str {
        "ondemand"
    }

    fn sampling_interval(&self) -> SimDuration {
        self.tunables.sampling_rate
    }

    fn on_sample(
        &mut self,
        sample: &LoadSample,
        table: &OppTable,
        limits: PolicyLimits,
    ) -> OppIndex {
        let load = sample.load_pct();
        if load > self.tunables.up_threshold {
            self.down_skip = self.tunables.sampling_down_factor.saturating_sub(1);
            return limits.max_index;
        }
        if self.down_skip > 0 && sample.cur_index == limits.max_index {
            self.down_skip -= 1;
            return limits.max_index;
        }
        // Proportional: lowest f >= load% of the hardware max.
        let target_khz = load / 100.0 * table.max_freq().khz() as f64;
        lowest_index_for_khz(table, limits, target_khz)
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        if self.down_skip != 0 {
            // Mid-flight sampling_down_factor state; not reconstructible
            // from tunables alone.
            fp.mark_opaque();
            return;
        }
        fp.write_str(self.name());
        fp.write_f64(self.tunables.up_threshold);
        fp.write_u64(self.tunables.sampling_rate.as_nanos());
        fp.write_u32(self.tunables.sampling_down_factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_cpu::freq::Frequency;
    use eavs_sim::time::SimTime;

    fn table() -> OppTable {
        OppTable::from_mhz_mv(&[(500, 900), (1000, 1000), (1500, 1100), (2000, 1250)]).unwrap()
    }

    fn sample(load_pct: f64, cur_index: OppIndex) -> LoadSample {
        LoadSample {
            now: SimTime::from_secs(1),
            window: SimDuration::from_millis(10),
            busy_fraction: load_pct / 100.0,
            cur_freq: Frequency::from_mhz(1000),
            cur_index,
        }
    }

    #[test]
    fn jumps_to_max_above_threshold() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Ondemand::new();
        assert_eq!(g.on_sample(&sample(96.0, 0), &t, limits), 3);
        assert_eq!(g.on_sample(&sample(100.0, 0), &t, limits), 3);
    }

    #[test]
    fn proportional_below_threshold() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Ondemand::new();
        // 40% of 2000 MHz = 800 MHz -> lowest OPP >= 800 is 1000 MHz.
        assert_eq!(g.on_sample(&sample(40.0, 2), &t, limits), 1);
        // 10% -> 200 MHz -> slowest OPP.
        assert_eq!(g.on_sample(&sample(10.0, 2), &t, limits), 0);
        // 80% -> 1600 MHz -> 2000 MHz OPP.
        assert_eq!(g.on_sample(&sample(80.0, 2), &t, limits), 3);
    }

    #[test]
    fn sampling_down_factor_holds_max() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Ondemand::with_tunables(OndemandTunables {
            sampling_down_factor: 3,
            ..OndemandTunables::default()
        });
        assert_eq!(g.on_sample(&sample(99.0, 0), &t, limits), 3);
        // Two low samples are absorbed while at max.
        assert_eq!(g.on_sample(&sample(5.0, 3), &t, limits), 3);
        assert_eq!(g.on_sample(&sample(5.0, 3), &t, limits), 3);
        // Third re-evaluates downward.
        assert_eq!(g.on_sample(&sample(5.0, 3), &t, limits), 0);
    }

    #[test]
    fn respects_policy_limits() {
        let t = table();
        let limits = PolicyLimits {
            min_index: 1,
            max_index: 2,
        };
        let mut g = Ondemand::new();
        assert_eq!(g.on_sample(&sample(100.0, 1), &t, limits), 2);
        assert_eq!(g.on_sample(&sample(0.0, 1), &t, limits), 1);
    }

    #[test]
    fn default_tunables_match_kernel() {
        let t = OndemandTunables::default();
        assert_eq!(t.up_threshold, 95.0);
        assert_eq!(t.sampling_rate, SimDuration::from_millis(10));
        assert_eq!(t.sampling_down_factor, 1);
    }

    #[test]
    #[should_panic(expected = "bad up_threshold")]
    fn invalid_threshold_rejected() {
        Ondemand::with_tunables(OndemandTunables {
            up_threshold: 0.0,
            ..OndemandTunables::default()
        });
    }
}
