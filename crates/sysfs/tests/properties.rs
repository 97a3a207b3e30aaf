//! Property-based tests: the sysfs surface never panics on arbitrary
//! input, its state machine mirrors kernel semantics, and a `userspace`
//! governor writing `scaling_setspeed` drives a cluster exactly as
//! `Cluster::set_target` does.

use eavs_cpu::cluster::PolicyLimits;
use eavs_cpu::freq::{Cycles, Frequency};
use eavs_cpu::soc::SocModel;
use eavs_sim::time::{SimDuration, SimTime};
use eavs_sysfs::{CpufreqFs, SysfsError, AVAILABLE_GOVERNORS};
use proptest::prelude::*;

proptest! {
    /// Arbitrary reads and writes to arbitrary paths/values return errors
    /// rather than panicking, and never corrupt the policy (reads of the
    /// core files still succeed afterwards).
    #[test]
    fn fuzz_never_panics(
        ops in proptest::collection::vec(
            (any::<bool>(), "[a-z_/]{0,24}", "[0-9a-z ]{0,12}"),
            0..60
        ),
    ) {
        let mut cluster = SocModel::MidRange.build_cluster();
        let mut fs = CpufreqFs::new(&cluster);
        let mut t_ms = 0u64;
        for (is_write, path, value) in ops {
            t_ms += 1;
            let now = SimTime::from_millis(t_ms);
            if is_write {
                let _ = fs.write(&mut cluster, &path, &value, now);
            } else {
                let _ = fs.read(&cluster, &path, now);
            }
        }
        let now = SimTime::from_millis(t_ms + 1);
        prop_assert!(fs.read(&cluster, "scaling_cur_freq", now).is_ok());
        prop_assert!(fs.read(&cluster, "scaling_governor", now).is_ok());
        prop_assert!(fs.read(&cluster, "stats/time_in_state", now).is_ok());
    }

    /// Every listed file is readable; every advertised governor is
    /// accepted by scaling_governor; everything else is rejected.
    #[test]
    fn listed_files_readable_and_governors_accepted(seed in any::<u64>()) {
        let mut cluster = SocModel::Flagship2016.build_cluster();
        let mut fs = CpufreqFs::new(&cluster);
        let now = SimTime::from_millis(seed % 1000);
        for file in fs.list() {
            prop_assert!(
                fs.read(&cluster, file, now).is_ok(),
                "listed file {file} unreadable"
            );
        }
        for gov in AVAILABLE_GOVERNORS {
            prop_assert!(fs.write(&mut cluster, "scaling_governor", gov, now).is_ok());
        }
        let err = fs
            .write(&mut cluster, "scaling_governor", "not-a-governor", now)
            .unwrap_err();
        let is_invalid = matches!(err, SysfsError::InvalidValue { .. });
        prop_assert!(is_invalid);
    }

    /// Userspace setspeed accepts any integer kHz, as the kernel does,
    /// and refuses anything else without moving the cluster.
    #[test]
    fn setspeed_accepts_any_khz_and_only_integers(khz in 0u32..3_000_000) {
        let mut cluster = SocModel::MidRange.build_cluster();
        let mut fs = CpufreqFs::new(&cluster);
        let now = SimTime::ZERO;
        fs.write(&mut cluster, "scaling_governor", "userspace", now)
            .unwrap();
        prop_assert!(fs.write(&mut cluster, "scaling_setspeed", &khz.to_string(), now).is_ok());
        let target = cluster.target_index();
        for bad in [format!("-{khz}"), format!("{khz}kHz"), format!("{khz}.5")] {
            let err = fs.write(&mut cluster, "scaling_setspeed", &bad, now).unwrap_err();
            let is_invalid = matches!(err, SysfsError::InvalidValue { .. });
            prop_assert!(is_invalid, "{} accepted", bad);
            prop_assert_eq!(cluster.target_index(), target);
        }
    }

    /// `scaling_setspeed` is `Cluster::set_target` in deployment form: on
    /// every preset's big and LITTLE cluster, under random limit writes,
    /// a cluster driven by OPP indices and its twin driven by `userspace`
    /// writes of arbitrary kHz (same jobs on both) stay in lockstep and
    /// end with bit-identical energy and residency.
    #[test]
    fn setspeed_writes_match_set_target(
        soc in 0usize..3,
        little in any::<bool>(),
        ops in proptest::collection::vec((0u8..5, any::<u64>(), 0u64..5_000_000), 1..80),
    ) {
        let soc = SocModel::ALL[soc];
        let build = if little { SocModel::build_little_cluster } else { SocModel::build_cluster };
        let (mut direct, mut driven) = (build(soc), build(soc));
        let mut fs = CpufreqFs::new(&driven);
        fs.write(&mut driven, "scaling_governor", "userspace", SimTime::ZERO).unwrap();
        let opps = direct.opps().clone();
        let (mut min, mut max) = (opps.min_freq(), opps.max_freq());
        let mut now = SimTime::ZERO;
        for (kind, value, dt_ns) in ops {
            now += SimDuration::from_nanos(dt_ns);
            if kind < 2 {
                // Any kHz from 0 to a quarter past the top OPP: below,
                // between, on and above the table's frequencies. The
                // kernel's rule, computed here: the lowest OPP at or
                // above the target, else the top OPP, then clamped to the
                // policy limits.
                let khz = (value % (u64::from(opps.max_freq().khz()) * 5 / 4 + 1)) as u32;
                let idx = opps
                    .iter()
                    .position(|o| o.freq.khz() >= khz)
                    .unwrap_or(opps.len() - 1);
                direct.set_target(now, direct.limits().clamp(idx));
                fs.write(&mut driven, "scaling_setspeed", &khz.to_string(), now).unwrap();
            } else if kind == 2 {
                // A core seen busy may have finished by `now`; both skip it.
                let core = (value % direct.num_cores() as u64) as usize;
                if !direct.is_core_busy(core) {
                    let cycles = Cycles::new((value >> 8) as f64 % 2e7);
                    direct.start_job(now, core, cycles);
                    driven.start_job(now, core, cycles);
                }
            } else {
                // Kernel limit semantics: min rounds up, max rounds down,
                // an inverted pair collapses onto the max.
                let khz = (value % 3_000_000) as u32;
                let (path, bound) =
                    if kind == 3 { ("scaling_min_freq", &mut min) } else { ("scaling_max_freq", &mut max) };
                *bound = Frequency::from_khz(khz);
                let hi = opps.highest_at_most(max).unwrap_or(0);
                let lo = opps.lowest_at_least(min).unwrap_or(opps.max_index()).min(hi);
                direct.set_limits(PolicyLimits { min_index: lo, max_index: hi });
                fs.write(&mut driven, path, &khz.to_string(), now).unwrap();
            }
            prop_assert_eq!(direct.target_index(), driven.target_index());
            prop_assert_eq!(direct.transitions(), driven.transitions());
        }
        let end = now + SimDuration::from_millis(10);
        let (a, b) = (direct.energy_at(end), driven.energy_at(end));
        prop_assert_eq!(
            [a.busy_j, a.idle_j, a.static_j, a.transition_j].map(f64::to_bits),
            [b.busy_j, b.idle_j, b.static_j, b.transition_j].map(f64::to_bits)
        );
        prop_assert_eq!(direct.time_in_state(end), driven.time_in_state(end));
    }
}
