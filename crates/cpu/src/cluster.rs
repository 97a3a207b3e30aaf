//! A DVFS frequency domain with one or more cores.
//!
//! The cluster is the unit the governor controls: all cores share one
//! frequency (as in big.LITTLE policy domains). It owns the OPP table,
//! power model and idle-state table, performs energy integration, tracks
//! per-OPP wall-clock residency (the `time_in_state` statistic) and applies
//! frequency transitions with a configurable latency.
//!
//! # Time discipline
//!
//! All mutating calls take the current simulation time and must be
//! monotone. [`Cluster::advance`] integrates state up to `now`; the other
//! mutators call it implicitly, so callers may simply invoke them in event
//! order.

use crate::core::CpuCore;
use crate::cstate::CStateTable;
use crate::freq::{Cycles, Frequency};
use crate::opp::{OppIndex, OppTable};
use crate::power::{CmosPowerModel, PowerLut};
use eavs_metrics::residency::ResidencyTracker;
use eavs_sim::time::{SimDuration, SimTime};

/// Governor-visible frequency limits (the `scaling_min_freq` /
/// `scaling_max_freq` pair, in OPP indices).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolicyLimits {
    /// Lowest permitted OPP index.
    pub min_index: OppIndex,
    /// Highest permitted OPP index.
    pub max_index: OppIndex,
}

impl PolicyLimits {
    /// Limits spanning an entire table.
    pub fn full(table: &OppTable) -> Self {
        PolicyLimits {
            min_index: table.min_index(),
            max_index: table.max_index(),
        }
    }

    /// Clamps an index into the limits.
    pub fn clamp(&self, idx: OppIndex) -> OppIndex {
        idx.clamp(self.min_index, self.max_index)
    }
}

/// Energy breakdown of a cluster, in joules.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CpuEnergyBreakdown {
    /// Energy of actively executing cores.
    pub busy_j: f64,
    /// Energy of idle cores (C-state residency).
    pub idle_j: f64,
    /// Always-on domain (uncore) energy.
    pub static_j: f64,
    /// Energy spent on frequency transitions.
    pub transition_j: f64,
}

impl CpuEnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.busy_j + self.idle_j + self.static_j + self.transition_j
    }
}

/// Configuration for building a [`Cluster`].
pub struct ClusterConfig {
    /// Human-readable name (e.g. "big", "LITTLE").
    pub name: &'static str,
    /// The OPP table.
    pub opps: OppTable,
    /// Power model.
    pub power: CmosPowerModel,
    /// Idle states.
    pub cstates: CStateTable,
    /// Number of cores sharing the domain.
    pub num_cores: usize,
    /// Latency of a frequency transition (work continues at the old
    /// frequency until it completes).
    pub transition_latency: SimDuration,
    /// OPP index at start.
    pub initial_index: OppIndex,
}

/// A shared-frequency CPU cluster.
pub struct Cluster {
    name: &'static str,
    opps: OppTable,
    power: CmosPowerModel,
    /// Per-OPP watts precomputed from `power` at construction; the per-frame
    /// energy integration reads this instead of re-evaluating the model.
    lut: PowerLut,
    cstates: CStateTable,
    cores: Vec<CpuCore>,
    cur: OppIndex,
    pending: Option<(SimTime, OppIndex)>,
    limits: PolicyLimits,
    transition_latency: SimDuration,
    transitions: u64,
    last_update: SimTime,
    start_time: SimTime,
    energy: CpuEnergyBreakdown,
    residency: ResidencyTracker,
    gated: bool,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("name", &self.name)
            .field("cur_freq", &self.current_freq())
            .field("cores", &self.cores.len())
            .field("transitions", &self.transitions)
            .finish()
    }
}

impl Cluster {
    /// Builds a cluster at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0` or `initial_index` is out of range.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.num_cores > 0, "cluster needs at least one core");
        assert!(
            config.initial_index < config.opps.len(),
            "initial OPP index out of range"
        );
        let start = SimTime::ZERO;
        let cores = (0..config.num_cores)
            .map(|id| CpuCore::new(id, start))
            .collect();
        let residency = ResidencyTracker::new(config.opps.len(), config.initial_index, start);
        let lut = PowerLut::derive(&config.power, &config.opps);
        Cluster {
            name: config.name,
            limits: PolicyLimits::full(&config.opps),
            opps: config.opps,
            power: config.power,
            lut,
            cstates: config.cstates,
            cores,
            cur: config.initial_index,
            pending: None,
            transition_latency: config.transition_latency,
            transitions: 0,
            last_update: start,
            start_time: start,
            energy: CpuEnergyBreakdown::default(),
            residency,
            gated: false,
        }
    }

    /// `true` while the cluster is power-gated.
    pub fn is_gated(&self) -> bool {
        self.gated
    }

    /// Power-gates or wakes the whole cluster. While gated, the domain
    /// draws no energy (cores are power-collapsed and the rail is off);
    /// work cannot be submitted.
    ///
    /// # Panics
    ///
    /// Panics when gating with a busy core.
    pub fn set_gated(&mut self, now: SimTime, gated: bool) {
        self.advance(now);
        if gated == self.gated {
            return;
        }
        // Close open idle intervals at the boundary so idle energy is
        // attributed to the correct (gated vs powered) regime.
        for core in &mut self.cores {
            let idle_len = core.flush_idle(now);
            if !self.gated {
                self.energy.idle_j += self.cstates.idle_energy(idle_len);
            }
            assert!(
                !core.is_busy() || !gated,
                "cannot power-gate a cluster with busy cores"
            );
        }
        self.gated = gated;
    }

    /// The cluster name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The OPP table.
    pub fn opps(&self) -> &OppTable {
        &self.opps
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The currently *effective* OPP index (a pending transition does not
    /// change this until its latency elapses).
    pub fn current_index(&self) -> OppIndex {
        self.cur
    }

    /// The currently effective frequency.
    pub fn current_freq(&self) -> Frequency {
        self.opps.freq(self.cur)
    }

    /// The index that will be in force once any pending transition lands.
    pub fn target_index(&self) -> OppIndex {
        self.pending.map_or(self.cur, |(_, idx)| idx)
    }

    /// Current policy limits.
    pub fn limits(&self) -> PolicyLimits {
        self.limits
    }

    /// Replaces the policy limits (e.g. thermal throttling). The current
    /// target is re-clamped at the next `set_target` call.
    ///
    /// # Panics
    ///
    /// Panics if the limits are inverted or out of range.
    pub fn set_limits(&mut self, limits: PolicyLimits) {
        assert!(
            limits.min_index <= limits.max_index && limits.max_index < self.opps.len(),
            "bad policy limits {limits:?}"
        );
        self.limits = limits;
    }

    /// Number of completed frequency transitions requested so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// A core's public view.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: usize) -> &CpuCore {
        &self.cores[core]
    }

    /// Advances all accounting to `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "cluster clock went backwards: {} -> {}",
            self.last_update,
            now
        );
        while self.last_update < now {
            // Apply a pending switch that lands exactly at the current time.
            if let Some((at, idx)) = self.pending {
                if at <= self.last_update {
                    self.apply_switch(at.max(self.last_update), idx);
                }
            }
            let seg_end = match self.pending {
                Some((at, _)) if at < now => at,
                _ => now,
            };
            self.integrate_segment(self.last_update, seg_end);
            self.last_update = seg_end;
            if let Some((at, idx)) = self.pending {
                if at <= self.last_update {
                    self.apply_switch(at, idx);
                }
            }
        }
        // Zero-length advance may still need to land a due switch.
        if let Some((at, idx)) = self.pending {
            if at <= now {
                self.apply_switch(at, idx);
            }
        }
    }

    fn apply_switch(&mut self, at: SimTime, idx: OppIndex) {
        self.cur = idx;
        self.pending = None;
        self.residency.switch_to(idx, at);
    }

    fn integrate_segment(&mut self, start: SimTime, end: SimTime) {
        if start == end {
            return;
        }
        if self.gated {
            debug_assert!(
                self.cores.iter().all(|c| !c.is_busy()),
                "gated cluster with busy core"
            );
            return; // rail off: no energy, no progress
        }
        let freq = self.opps.freq(self.cur);
        let active_p = self.lut.active_at(self.cur);
        for core in &mut self.cores {
            let out = core.advance_segment(start, end, freq);
            self.energy.busy_j += active_p * out.busy.as_secs_f64();
        }
        self.energy.static_j += self.lut.static_w() * (end - start).as_secs_f64();
    }

    /// Requests a frequency change to `index`, clamped to the policy
    /// limits. The new frequency takes effect after the transition latency;
    /// work continues at the old frequency meanwhile. Requesting the
    /// current target is a no-op.
    ///
    /// Returns the (clamped) index that was targeted.
    pub fn set_target(&mut self, now: SimTime, index: OppIndex) -> OppIndex {
        self.advance(now);
        let idx = self.limits.clamp(index.min(self.opps.max_index()));
        if idx == self.target_index() {
            return idx;
        }
        self.transitions += 1;
        self.energy.transition_j += self.lut.transition_j();
        if self.transition_latency.is_zero() {
            self.apply_switch(now, idx);
        } else {
            self.pending = Some((now + self.transition_latency, idx));
        }
        idx
    }

    /// Requests the slowest OPP whose frequency is at least `target`
    /// (cpufreq's `CPUFREQ_RELATION_L`), clamped to policy limits.
    pub fn set_target_freq(&mut self, now: SimTime, target: Frequency) -> OppIndex {
        let idx = self.opps.closest_satisfying(target);
        self.set_target(now, idx)
    }

    /// Starts a job of `cycles` on `core` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the core is busy or `core` is out of range.
    pub fn start_job(&mut self, now: SimTime, core: usize, cycles: Cycles) {
        assert!(!self.gated, "cannot run work on a power-gated cluster");
        self.advance(now);
        let idle_len = self.cores[core].start_job(cycles, now);
        self.energy.idle_j += self.cstates.idle_energy(idle_len);
    }

    /// Predicts when the job on `core` will finish given the current
    /// frequency and any pending transition, assuming no further changes.
    /// `None` if the core is idle.
    ///
    /// The cluster must already be advanced to `now` (any mutator does
    /// this); predictions are exact under the stated assumption, so the
    /// session can schedule a completion event at the returned instant.
    pub fn completion_time(&self, now: SimTime, core: usize) -> Option<SimTime> {
        let mut remaining = self.cores[core].remaining()?;
        let mut t = now.max(self.last_update);
        let mut freq = self.opps.freq(self.cur);
        if let Some((at, idx)) = self.pending {
            if at > t {
                let head = freq.cycles_in(at - t);
                if head.get() >= remaining.get() {
                    return Some(t + freq.time_for(remaining));
                }
                remaining = remaining.saturating_sub(head);
                t = at;
            }
            freq = self.opps.freq(idx);
        }
        Some(t + freq.time_for(remaining))
    }

    /// Total busy time across all cores.
    pub fn busy_total(&self) -> SimDuration {
        self.cores.iter().map(|c| c.busy_total()).sum()
    }

    /// Busy time of one core (for load sampling).
    pub fn core_busy_total(&self, core: usize) -> SimDuration {
        self.cores[core].busy_total()
    }

    /// Wall-clock residency per OPP index up to `now`.
    pub fn time_in_state(&self, now: SimTime) -> Vec<SimDuration> {
        self.residency.snapshot(now)
    }

    /// Fills `out` with the wall-clock residency per OPP index up to
    /// `now`, reusing the vector's capacity.
    pub fn time_in_state_into(&self, now: SimTime, out: &mut Vec<SimDuration>) {
        self.residency.snapshot_into(now, out);
    }

    /// Flushes idle accounting and returns the energy breakdown as of
    /// `now`. Idempotent; the cluster remains usable afterwards.
    pub fn energy_at(&mut self, now: SimTime) -> CpuEnergyBreakdown {
        self.advance(now);
        for core in &mut self.cores {
            let idle_len = core.flush_idle(now);
            if !self.gated {
                self.energy.idle_j += self.cstates.idle_energy(idle_len);
            }
        }
        self.energy
    }

    /// Mean power over the elapsed lifetime, at `now`.
    pub fn mean_power(&mut self, now: SimTime) -> f64 {
        let elapsed = now - self.start_time;
        if elapsed.is_zero() {
            return 0.0;
        }
        self.energy_at(now).total() / elapsed.as_secs_f64()
    }

    /// `true` if the given core is executing.
    pub fn is_core_busy(&self, core: usize) -> bool {
        self.cores[core].is_busy()
    }

    /// The idle-state table (for inspection and analytic figures).
    pub fn cstates(&self) -> &CStateTable {
        &self.cstates
    }

    /// The power model (for inspection and analytic figures).
    pub fn power_model(&self) -> &CmosPowerModel {
        &self.power
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::CmosPowerModel;

    fn test_cluster(latency_us: u64) -> Cluster {
        Cluster::new(ClusterConfig {
            name: "test",
            opps: OppTable::from_mhz_mv(&[(500, 900), (1000, 1000), (2000, 1250)]).unwrap(),
            power: CmosPowerModel::new(1e-9, 0.1, 0.05),
            cstates: CStateTable::mobile_default(0.08),
            num_cores: 2,
            transition_latency: SimDuration::from_micros(latency_us),
            initial_index: 1,
        })
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn initial_state() {
        let c = test_cluster(0);
        assert_eq!(c.current_index(), 1);
        assert_eq!(c.current_freq(), Frequency::from_mhz(1000));
        assert_eq!(c.num_cores(), 2);
        assert_eq!(c.transitions(), 0);
    }

    #[test]
    fn job_runs_and_completes_at_predicted_time() {
        let mut c = test_cluster(0);
        c.start_job(t(0), 0, Cycles::from_mega(10.0)); // 10 ms at 1 GHz
        let done = c.completion_time(t(0), 0).unwrap();
        assert_eq!(done, t(10));
        c.advance(done);
        assert!(!c.is_core_busy(0));
        assert_eq!(c.core(0).jobs_completed(), 1);
    }

    #[test]
    fn zero_latency_switch_changes_speed() {
        let mut c = test_cluster(0);
        c.start_job(t(0), 0, Cycles::from_mega(10.0));
        c.advance(t(2)); // 2 Mcycles done
        c.set_target(t(2), 2); // to 2 GHz
        let done = c.completion_time(t(2), 0).unwrap();
        // 8 Mcycles at 2 GHz = 4 ms.
        assert_eq!(done, t(6));
        c.advance(done);
        assert!(!c.is_core_busy(0));
    }

    #[test]
    fn transition_latency_delays_speedup() {
        let mut c = test_cluster(1000); // 1 ms latency
        c.start_job(t(0), 0, Cycles::from_mega(10.0));
        c.set_target(t(0), 2);
        // During [0, 1ms) still 1 GHz (1 Mcycle), then 9 Mcycle at 2 GHz (4.5 ms).
        let done = c.completion_time(t(0), 0).unwrap();
        assert_eq!(done, SimTime::from_micros(5_500));
        c.advance(done);
        assert!(!c.is_core_busy(0));
        assert_eq!(c.current_index(), 2);
    }

    #[test]
    fn set_target_clamps_to_limits() {
        let mut c = test_cluster(0);
        c.set_limits(PolicyLimits {
            min_index: 1,
            max_index: 1,
        });
        assert_eq!(c.set_target(t(0), 2), 1);
        assert_eq!(c.set_target(t(1), 0), 1);
        assert_eq!(c.current_index(), 1);
    }

    #[test]
    fn repeat_target_is_noop() {
        let mut c = test_cluster(0);
        c.set_target(t(0), 2);
        let n = c.transitions();
        c.set_target(t(1), 2);
        assert_eq!(c.transitions(), n);
    }

    #[test]
    fn residency_tracks_wall_time() {
        let mut c = test_cluster(0);
        c.advance(t(4));
        c.set_target(t(4), 0);
        c.advance(t(10));
        let tis = c.time_in_state(t(10));
        assert_eq!(tis[1], SimDuration::from_millis(4));
        assert_eq!(tis[0], SimDuration::from_millis(6));
        assert_eq!(tis[2], SimDuration::ZERO);
    }

    #[test]
    fn energy_breakdown_accumulates_all_components() {
        let mut c = test_cluster(0);
        c.start_job(t(0), 0, Cycles::from_mega(10.0));
        c.set_target(t(0), 2);
        c.advance(t(20));
        let e = c.energy_at(t(20));
        assert!(e.busy_j > 0.0, "busy energy");
        assert!(e.idle_j > 0.0, "idle energy (core 1 idle throughout)");
        assert!(e.static_j > 0.0, "static energy");
        assert!(e.transition_j > 0.0, "transition energy");
        let expected_static = 0.05 * 0.02;
        assert!((e.static_j - expected_static).abs() < 1e-9);
    }

    #[test]
    fn energy_at_is_idempotent() {
        let mut c = test_cluster(0);
        c.advance(t(10));
        let e1 = c.energy_at(t(10));
        let e2 = c.energy_at(t(10));
        assert_eq!(e1, e2);
    }

    #[test]
    fn busy_energy_matches_hand_computation() {
        let mut c = test_cluster(0);
        // 10 Mcycles at 1 GHz = 10 ms busy at P_active(1GHz@1V) = 1e-9*1*1e9 + 0.1 = 1.1 W.
        c.start_job(t(0), 0, Cycles::from_mega(10.0));
        c.advance(t(10));
        let e = c.energy_at(t(10));
        assert!((e.busy_j - 1.1 * 0.010).abs() < 1e-6, "busy_j={}", e.busy_j);
    }

    #[test]
    fn mean_power_between_idle_and_active() {
        let mut c = test_cluster(0);
        c.advance(t(100));
        let p = c.mean_power(t(100));
        // Fully idle: 2 cores deep-idle + static.
        assert!(p > 0.0 && p < 0.2, "idle mean power {p}");
    }

    #[test]
    fn completion_prediction_none_when_idle() {
        let c = test_cluster(0);
        assert_eq!(c.completion_time(t(0), 0), None);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_backwards_panics() {
        let mut c = test_cluster(0);
        c.advance(t(5));
        c.advance(t(4));
    }

    #[test]
    fn power_gating_stops_energy_accrual() {
        let mut c = test_cluster(0);
        c.advance(t(10));
        let before = c.energy_at(t(10));
        c.set_gated(t(10), true);
        assert!(c.is_gated());
        c.advance(t(1000));
        let gated = c.energy_at(t(1000));
        assert_eq!(gated, before, "gated cluster must not accrue energy");
        // Waking resumes accounting.
        c.set_gated(t(1000), false);
        c.advance(t(1100));
        let after = c.energy_at(t(1100));
        assert!(after.total() > gated.total());
        // Idempotent gating calls are no-ops.
        c.set_gated(t(1100), false);
    }

    #[test]
    #[should_panic(expected = "power-gated")]
    fn gated_cluster_rejects_work() {
        let mut c = test_cluster(0);
        c.set_gated(t(0), true);
        c.start_job(t(1), 0, Cycles::from_mega(1.0));
    }

    #[test]
    #[should_panic(expected = "busy cores")]
    fn gating_busy_cluster_panics() {
        let mut c = test_cluster(0);
        c.start_job(t(0), 0, Cycles::from_mega(100.0));
        c.set_gated(t(1), true);
    }

    #[test]
    fn pending_switch_override() {
        let mut c = test_cluster(1000);
        c.set_target(t(0), 2);
        c.set_target(t(0), 0); // override before it lands
        c.advance(t(2));
        assert_eq!(c.current_index(), 0);
        assert_eq!(c.transitions(), 2);
    }
}
