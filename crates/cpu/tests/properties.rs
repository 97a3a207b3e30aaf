//! Property-based tests for the CPU/DVFS model.

use eavs_cpu::cluster::{Cluster, ClusterConfig, PolicyLimits};
use eavs_cpu::cstate::CStateTable;
use eavs_cpu::freq::Cycles;
use eavs_cpu::opp::OppTable;
use eavs_cpu::power::CmosPowerModel;
use eavs_cpu::soc::SocModel;
use eavs_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn small_cluster(latency_us: u64) -> Cluster {
    cluster_of(2, latency_us)
}

fn cluster_of(num_cores: usize, latency_us: u64) -> Cluster {
    Cluster::new(ClusterConfig {
        name: "prop",
        opps: OppTable::from_mhz_mv(&[(500, 900), (1000, 1000), (1500, 1100), (2000, 1250)])
            .unwrap(),
        power: CmosPowerModel::new(1e-9, 0.1, 0.05),
        cstates: CStateTable::mobile_default(0.08),
        num_cores,
        transition_latency: SimDuration::from_micros(latency_us),
        initial_index: 0,
    })
}

proptest! {
    /// Busy + accounted-idle time per core equals elapsed wall time after
    /// finalization, regardless of the job/switch schedule.
    #[test]
    fn time_conservation(
        ops in proptest::collection::vec((0u64..50, 0usize..4, 1u64..40), 0..40),
        latency_us in prop_oneof![Just(0u64), Just(100u64)],
    ) {
        let mut cluster = small_cluster(latency_us);
        let mut now = SimTime::ZERO;
        for (dt_ms, opp, mcycles) in ops {
            now += SimDuration::from_millis(dt_ms);
            cluster.set_target(now, opp);
            if !cluster.is_core_busy(0) {
                cluster.start_job(now, 0, Cycles::from_mega(mcycles as f64));
            }
        }
        let end = now + SimDuration::from_secs(5);
        cluster.advance(end);
        let _ = cluster.energy_at(end); // flush idle accounting
        for core_id in 0..cluster.num_cores() {
            let core = cluster.core(core_id);
            let accounted = core.busy_total() + core.idle_total();
            let elapsed = end - SimTime::ZERO;
            let diff = if accounted > elapsed { accounted - elapsed } else { elapsed - accounted };
            prop_assert!(
                diff <= SimDuration::from_nanos(10),
                "core {core_id}: accounted {accounted} vs elapsed {elapsed}"
            );
        }
    }

    /// Cores that never run are invisible to busy energy and residency:
    /// a 4-core cluster whose cores 1-3 stay idle accrues bit-identical
    /// `busy_j`, `static_j`, `transition_j` and `time_in_state` to a
    /// 1-core cluster with the same OPPs and power model, whatever the
    /// job and frequency-switch schedule on core 0.
    #[test]
    fn idle_cores_add_no_busy_energy(
        ops in proptest::collection::vec((0u64..40, 0usize..4, 1u64..60), 0..60),
        latency_us in prop_oneof![Just(0u64), Just(100u64)],
    ) {
        let mut one = cluster_of(1, latency_us);
        let mut four = cluster_of(4, latency_us);
        let mut now = SimTime::ZERO;
        for (dt_ms, opp, mcycles) in ops {
            now += SimDuration::from_millis(dt_ms) + SimDuration::from_nanos(mcycles * 7);
            for c in [&mut one, &mut four] {
                c.set_target(now, opp);
                if !c.is_core_busy(0) {
                    c.start_job(now, 0, Cycles::from_mega(mcycles as f64 * 1.37));
                }
            }
        }
        let end = now + SimDuration::from_secs(1);
        let (e1, e4) = (one.energy_at(end), four.energy_at(end));
        prop_assert_eq!(e1.busy_j.to_bits(), e4.busy_j.to_bits());
        prop_assert_eq!(e1.static_j.to_bits(), e4.static_j.to_bits());
        prop_assert_eq!(e1.transition_j.to_bits(), e4.transition_j.to_bits());
        prop_assert_eq!(one.time_in_state(end), four.time_in_state(end));
        prop_assert_eq!(one.core(0).cycles_retired().to_bits(), four.core(0).cycles_retired().to_bits());
        prop_assert_eq!(one.busy_total(), four.busy_total());
    }

    /// time_in_state always sums to elapsed wall time.
    #[test]
    fn residency_sums_to_elapsed(
        switches in proptest::collection::vec((1u64..100, 0usize..4), 0..30),
    ) {
        let mut cluster = small_cluster(0);
        let mut now = SimTime::ZERO;
        for (dt_ms, opp) in switches {
            now += SimDuration::from_millis(dt_ms);
            cluster.set_target(now, opp);
        }
        let end = now + SimDuration::from_millis(7);
        cluster.advance(end);
        let total: SimDuration = cluster.time_in_state(end).into_iter().sum();
        prop_assert_eq!(total, end - SimTime::ZERO);
    }

    /// Energy is monotone in time: advancing further never reduces any
    /// component.
    #[test]
    fn energy_monotone(steps in proptest::collection::vec(1u64..500, 1..20)) {
        let mut cluster = small_cluster(0);
        cluster.start_job(SimTime::ZERO, 0, Cycles::from_mega(500.0));
        let mut now = SimTime::ZERO;
        let mut last_total = 0.0;
        for dt_ms in steps {
            now += SimDuration::from_millis(dt_ms);
            let e = cluster.energy_at(now);
            prop_assert!(e.total() >= last_total - 1e-12);
            prop_assert!(e.busy_j >= 0.0 && e.idle_j >= 0.0 && e.static_j >= 0.0);
            last_total = e.total();
        }
    }

    /// Job completion prediction matches actual completion: after advancing
    /// to the predicted instant the core is idle, and one tick before it is
    /// still busy (when the prediction is far enough out).
    #[test]
    fn completion_prediction_exact(
        mcycles in 1u64..2000,
        opp in 0usize..4,
        latency_us in prop_oneof![Just(0u64), Just(100u64)],
    ) {
        let mut cluster = small_cluster(latency_us);
        cluster.set_target(SimTime::ZERO, opp);
        cluster.start_job(SimTime::ZERO, 0, Cycles::from_mega(mcycles as f64));
        let done = cluster.completion_time(SimTime::ZERO, 0).unwrap();
        if done > SimTime::from_micros(1) {
            let mut probe = cluster;
            probe.advance(done - SimDuration::from_micros(1));
            prop_assert!(probe.is_core_busy(0), "finished early");
            probe.advance(done);
            prop_assert!(!probe.is_core_busy(0), "not finished at prediction");
        }
    }

    /// set_target always lands within policy limits.
    #[test]
    fn limits_respected(
        min in 0usize..4,
        span in 0usize..4,
        requests in proptest::collection::vec(0usize..10, 1..20),
    ) {
        let mut cluster = small_cluster(0);
        let max = (min + span).min(3);
        cluster.set_limits(PolicyLimits { min_index: min, max_index: max });
        let mut now = SimTime::ZERO;
        for req in requests {
            now += SimDuration::from_millis(1);
            let got = cluster.set_target(now, req);
            prop_assert!(got >= min && got <= max);
            cluster.advance(now + SimDuration::from_micros(500));
            prop_assert!(cluster.current_index() >= min && cluster.current_index() <= max);
        }
    }

    /// Running the same job at a lower OPP never uses more busy energy on
    /// the preset SoCs *above* the energy-per-cycle optimum, and the busy
    /// time is always longer at lower frequency.
    #[test]
    fn slower_is_longer(mcycles in 10u64..500) {
        let table = SocModel::Flagship2016.opp_table();
        let mut durations = Vec::new();
        for opp in 0..table.len() {
            let mut cluster = SocModel::Flagship2016.build_cluster();
            cluster.set_target(SimTime::ZERO, opp);
            // Let the transition land before starting work.
            let start = SimTime::from_millis(1);
            cluster.start_job(start, 0, Cycles::from_mega(mcycles as f64));
            let done = cluster.completion_time(start, 0).unwrap();
            durations.push(done - start);
        }
        for w in durations.windows(2) {
            prop_assert!(w[1] <= w[0], "higher OPP must not be slower: {durations:?}");
        }
    }
}
