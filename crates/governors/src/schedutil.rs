//! The `schedutil` governor (Linux `kernel/sched/cpufreq_schedutil.c`).
//!
//! Chooses `next_freq = C × max_freq × util / max_capacity` with
//! `C = 1.25` (the kernel's "map util to 80% of a frequency" headroom).
//! Utilization here is frequency-invariant: the busy fraction scaled by
//! the frequency it was measured at, so `util / max_capacity =
//! busy_fraction × cur_freq / max_freq`. Frequency changes are rate-limited
//! by `rate_limit`.

use crate::governor::{lowest_index_for_khz, CpufreqGovernor};
use eavs_cpu::cluster::PolicyLimits;
use eavs_cpu::load::LoadSample;
use eavs_cpu::opp::{OppIndex, OppTable};
use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::time::{SimDuration, SimTime};

/// Tunables.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SchedutilTunables {
    /// Headroom factor applied to measured utilization.
    pub headroom: f64,
    /// Minimum interval between frequency changes.
    pub rate_limit: SimDuration,
}

impl Default for SchedutilTunables {
    fn default() -> Self {
        SchedutilTunables {
            headroom: 1.25,
            rate_limit: SimDuration::from_millis(10),
        }
    }
}

/// The `schedutil` governor.
#[derive(Clone, Copy, Debug)]
pub struct Schedutil {
    tunables: SchedutilTunables,
    last_change: Option<(OppIndex, SimTime)>,
}

impl Schedutil {
    /// Creates the governor with default tunables.
    pub fn new() -> Self {
        Schedutil::with_tunables(SchedutilTunables::default())
    }

    /// Creates the governor with explicit tunables.
    ///
    /// # Panics
    ///
    /// Panics if `headroom < 1.0`.
    pub fn with_tunables(tunables: SchedutilTunables) -> Self {
        assert!(tunables.headroom >= 1.0, "headroom below 1 starves the CPU");
        Schedutil {
            tunables,
            last_change: None,
        }
    }
}

impl Default for Schedutil {
    fn default() -> Self {
        Schedutil::new()
    }
}

impl CpufreqGovernor for Schedutil {
    fn name(&self) -> &'static str {
        "schedutil"
    }

    fn sampling_interval(&self) -> SimDuration {
        // PELT updates arrive on scheduler ticks; 4 ms approximates the
        // tick-driven update rate.
        SimDuration::from_millis(4)
    }

    fn on_sample(
        &mut self,
        sample: &LoadSample,
        table: &OppTable,
        limits: PolicyLimits,
    ) -> OppIndex {
        // Frequency-invariant consumed clock rate.
        let consumed_khz = sample.busy_fraction * sample.cur_freq.khz() as f64;
        let target_khz = self.tunables.headroom * consumed_khz;
        let target = lowest_index_for_khz(table, limits, target_khz);

        match self.last_change {
            Some((idx, at))
                if target != idx
                    && sample.now.saturating_duration_since(at) < self.tunables.rate_limit =>
            {
                idx
            }
            Some((idx, _)) if target == idx => idx,
            _ => {
                self.last_change = Some((target, sample.now));
                target
            }
        }
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        if self.last_change.is_some() {
            // A live rate-limit anchor is learned state.
            fp.mark_opaque();
            return;
        }
        fp.write_str(self.name());
        fp.write_f64(self.tunables.headroom);
        fp.write_u64(self.tunables.rate_limit.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_cpu::freq::Frequency;

    fn table() -> OppTable {
        OppTable::from_mhz_mv(&[(500, 900), (1000, 1000), (1500, 1100), (2000, 1250)]).unwrap()
    }

    fn sample(busy: f64, cur_mhz: u32, cur_index: OppIndex, t_ms: u64) -> LoadSample {
        LoadSample {
            now: SimTime::from_millis(t_ms),
            window: SimDuration::from_millis(4),
            busy_fraction: busy,
            cur_freq: Frequency::from_mhz(cur_mhz),
            cur_index,
        }
    }

    #[test]
    fn applies_headroom_to_invariant_util() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Schedutil::new();
        // 60% busy at 1000 MHz -> consumed 600 MHz -> ×1.25 = 750 -> 1000 OPP.
        assert_eq!(g.on_sample(&sample(0.6, 1000, 1, 0), &t, limits), 1);
        // 90% at 1500 -> 1350 -> ×1.25 = 1687 -> 2000 OPP.
        let mut g = Schedutil::new();
        assert_eq!(g.on_sample(&sample(0.9, 1500, 2, 0), &t, limits), 3);
    }

    #[test]
    fn full_load_at_max_stays_at_max() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Schedutil::new();
        assert_eq!(g.on_sample(&sample(1.0, 2000, 3, 0), &t, limits), 3);
    }

    #[test]
    fn idle_scales_to_min() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Schedutil::new();
        assert_eq!(g.on_sample(&sample(0.0, 2000, 3, 0), &t, limits), 0);
    }

    #[test]
    fn rate_limit_blocks_rapid_changes() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g = Schedutil::new();
        // 100% at 500 MHz -> 625 MHz target -> 1000 MHz OPP (index 1).
        assert_eq!(g.on_sample(&sample(1.0, 500, 0, 0), &t, limits), 1);
        // Change requested 4 ms later is inside the 10 ms rate limit.
        let held = g.on_sample(&sample(0.0, 1000, 1, 4), &t, limits);
        assert_eq!(held, 1, "rate limit holds previous choice");
        // After the rate limit it may move.
        let moved = g.on_sample(&sample(0.0, 1000, 1, 14), &t, limits);
        assert_eq!(moved, 0);
    }

    #[test]
    fn frequency_invariance_consistency() {
        // The same physical workload (consumed clock) maps to the same
        // target regardless of the frequency it was observed at.
        let t = table();
        let limits = PolicyLimits::full(&t);
        let mut g1 = Schedutil::new();
        let mut g2 = Schedutil::new();
        let a = g1.on_sample(&sample(0.9, 1000, 1, 0), &t, limits); // 900 consumed
        let b = g2.on_sample(&sample(0.45, 2000, 3, 0), &t, limits); // 900 consumed
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn sub_unity_headroom_rejected() {
        Schedutil::with_tunables(SchedutilTunables {
            headroom: 0.9,
            ..SchedutilTunables::default()
        });
    }
}
