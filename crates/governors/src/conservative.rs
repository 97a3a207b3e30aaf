//! The `conservative` governor (Linux `drivers/cpufreq/conservative.c`).
//!
//! Like `ondemand` but moves in small steps: load above `up_threshold`
//! raises the target by `freq_step` percent of the maximum frequency; load
//! below `down_threshold` lowers it by the same step. Designed for
//! battery-powered devices where gradual ramps were thought gentler.

use crate::governor::CpufreqGovernor;
use eavs_cpu::cluster::PolicyLimits;
use eavs_cpu::load::LoadSample;
use eavs_cpu::opp::{OppIndex, OppTable};
use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::time::SimDuration;

/// Tunables (sysfs `conservative/*`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ConservativeTunables {
    /// Load percentage above which the frequency steps up.
    pub up_threshold: f64,
    /// Load percentage below which the frequency steps down.
    pub down_threshold: f64,
    /// Step size as a percentage of the maximum frequency.
    pub freq_step_pct: f64,
    /// Sampling period.
    pub sampling_rate: SimDuration,
}

impl Default for ConservativeTunables {
    fn default() -> Self {
        ConservativeTunables {
            up_threshold: 80.0,
            down_threshold: 20.0,
            freq_step_pct: 5.0,
            sampling_rate: SimDuration::from_millis(10),
        }
    }
}

/// The `conservative` governor.
#[derive(Clone, Copy, Debug)]
pub struct Conservative {
    tunables: ConservativeTunables,
    /// The requested target in kHz (tracked independently of the table so
    /// repeated small steps accumulate, as in the kernel).
    requested_khz: Option<f64>,
}

impl Conservative {
    /// Creates the governor with default tunables.
    pub fn new() -> Self {
        Conservative::with_tunables(ConservativeTunables::default())
    }

    /// Creates the governor with explicit tunables.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < down_threshold < up_threshold <= 100` and
    /// `freq_step_pct > 0`.
    pub fn with_tunables(tunables: ConservativeTunables) -> Self {
        assert!(
            tunables.down_threshold > 0.0
                && tunables.down_threshold < tunables.up_threshold
                && tunables.up_threshold <= 100.0,
            "bad thresholds"
        );
        assert!(tunables.freq_step_pct > 0.0, "bad freq_step");
        Conservative {
            tunables,
            requested_khz: None,
        }
    }
}

impl Default for Conservative {
    fn default() -> Self {
        Conservative::new()
    }
}

impl CpufreqGovernor for Conservative {
    fn name(&self) -> &'static str {
        "conservative"
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
        let max_khz = table.freq(limits.max_index).khz() as f64;
        let min_khz = table.freq(limits.min_index).khz() as f64;
        let step = self.tunables.freq_step_pct / 100.0 * table.max_freq().khz() as f64;
        let mut requested = self
            .requested_khz
            .unwrap_or(sample.cur_freq.khz() as f64)
            .clamp(min_khz, max_khz);
        let load = sample.load_pct();
        if load > self.tunables.up_threshold {
            requested = (requested + step).min(max_khz);
        } else if load < self.tunables.down_threshold {
            requested = (requested - step).max(min_khz);
        }
        self.requested_khz = Some(requested);
        // The kernel uses RELATION_C (closest); RELATION_L on the running
        // request is equivalent for monotone steps and simpler.
        let mut idx = limits.max_index;
        for i in limits.min_index..=limits.max_index {
            if table.freq(i).khz() as f64 >= requested - 1.0 {
                idx = i;
                break;
            }
        }
        idx
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        if self.requested_khz.is_some() {
            // An accumulated step target is learned state.
            fp.mark_opaque();
            return;
        }
        fp.write_str(self.name());
        fp.write_f64(self.tunables.up_threshold);
        fp.write_f64(self.tunables.down_threshold);
        fp.write_f64(self.tunables.freq_step_pct);
        fp.write_u64(self.tunables.sampling_rate.as_nanos());
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

    fn sample(load_pct: f64, cur_mhz: u32, cur_index: OppIndex) -> LoadSample {
        LoadSample {
            now: SimTime::from_secs(1),
            window: SimDuration::from_millis(10),
            busy_fraction: load_pct / 100.0,
            cur_freq: Frequency::from_mhz(cur_mhz),
            cur_index,
        }
    }

    #[test]
    fn steps_up_gradually_not_jumping_to_max() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Conservative::new();
        // From 500 MHz at full load: +100 MHz per sample (5% of 2 GHz).
        // After one sample the request is 600 -> OPP 1000 MHz, not max.
        let idx = g.on_sample(&sample(100.0, 500, 0), &t, limits);
        assert_eq!(idx, 1);
        // It takes many more samples to reach max.
        let mut last = idx;
        for _ in 0..20 {
            last = g.on_sample(&sample(100.0, t.freq(last).mhz(), last), &t, limits);
        }
        assert_eq!(last, 3, "sustained load eventually reaches max");
    }

    #[test]
    fn steps_down_on_low_load() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Conservative::new();
        // Start high, idle load: request decays 100 MHz per sample.
        let mut idx = 3;
        for _ in 0..20 {
            idx = g.on_sample(&sample(5.0, t.freq(idx).mhz(), idx), &t, limits);
        }
        assert_eq!(idx, 0, "sustained idleness reaches min");
    }

    #[test]
    fn holds_inside_hysteresis_band() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Conservative::new();
        // 50% load is between the thresholds: no movement.
        let first = g.on_sample(&sample(50.0, 1000, 1), &t, limits);
        let second = g.on_sample(&sample(50.0, 1000, 1), &t, limits);
        assert_eq!(first, 1);
        assert_eq!(second, 1);
    }

    #[test]
    fn respects_limits() {
        let t = table();
        let limits = PolicyLimits {
            min_index: 1,
            max_index: 2,
        };
        let mut g = Conservative::new();
        let mut idx = 1;
        for _ in 0..40 {
            idx = g.on_sample(&sample(100.0, t.freq(idx).mhz(), idx), &t, limits);
        }
        assert_eq!(idx, 2);
        for _ in 0..40 {
            idx = g.on_sample(&sample(1.0, t.freq(idx).mhz(), idx), &t, limits);
        }
        assert_eq!(idx, 1);
    }

    #[test]
    #[should_panic(expected = "bad thresholds")]
    fn inverted_thresholds_rejected() {
        Conservative::with_tunables(ConservativeTunables {
            up_threshold: 20.0,
            down_threshold: 80.0,
            ..ConservativeTunables::default()
        });
    }
}
