//! The simulated `/sys/devices/system/cpu/cpuN/cpufreq` policy directory.
//!
//! [`CpufreqFs`] exposes the Linux cpufreq file protocol over a simulated
//! [`Cluster`]: a userspace governor (like EAVS deployed on a rooted
//! Android phone) interacts *only* through these reads and writes —
//! selecting the `userspace` governor and echoing kHz values into
//! `scaling_setspeed`. The crate's property tests verify that driving a
//! cluster through this interface is step-for-step identical to calling
//! `Cluster::set_target` directly.
//!
//! Supported files (relative to the policy directory):
//!
//! | file | access | contents |
//! |---|---|---|
//! | `scaling_available_frequencies` | r | kHz list, ascending |
//! | `scaling_available_governors` | r | governor names |
//! | `scaling_governor` | rw | active governor |
//! | `scaling_cur_freq` | r | current kHz |
//! | `scaling_min_freq` / `scaling_max_freq` | rw | policy limits, kHz |
//! | `cpuinfo_min_freq` / `cpuinfo_max_freq` | r | hardware limits, kHz |
//! | `cpuinfo_transition_latency` | r | nanoseconds |
//! | `scaling_setspeed` | rw | kHz, resolved to the lowest OPP at or above it (else the top), within the limits; reads back the current kHz; only in `userspace` |
//! | `scaling_driver` | r | `"eavs-sim"` |
//! | `affected_cpus` / `related_cpus` | r | core ids |
//! | `stats/time_in_state` | r | `kHz 10ms-ticks` lines |
//! | `stats/total_trans` | r | transition count |

use crate::error::SysfsError;
use eavs_cpu::cluster::{Cluster, PolicyLimits};
use eavs_cpu::freq::Frequency;
use eavs_sim::time::SimTime;

/// Governors selectable through `scaling_governor`.
pub const AVAILABLE_GOVERNORS: [&str; 8] = [
    "performance",
    "powersave",
    "userspace",
    "ondemand",
    "conservative",
    "interactive",
    "schedutil",
    "eavs",
];

/// A cpufreq policy directory bound to a cluster.
#[derive(Debug)]
pub struct CpufreqFs {
    governor: String,
    min_freq: Frequency,
    max_freq: Frequency,
}

impl CpufreqFs {
    /// Creates the policy directory for `cluster` with the `performance`
    /// semantics of a fresh policy: limits span the whole table.
    pub fn new(cluster: &Cluster) -> Self {
        CpufreqFs {
            governor: "performance".to_owned(),
            min_freq: cluster.opps().min_freq(),
            max_freq: cluster.opps().max_freq(),
        }
    }

    /// The active governor name.
    pub fn governor(&self) -> &str {
        &self.governor
    }

    /// Lists the files in the policy directory (the `stats/` names are
    /// returned with their subdirectory prefix).
    pub fn list(&self) -> Vec<&'static str> {
        vec![
            "affected_cpus",
            "cpuinfo_max_freq",
            "cpuinfo_min_freq",
            "cpuinfo_transition_latency",
            "related_cpus",
            "scaling_available_frequencies",
            "scaling_available_governors",
            "scaling_cur_freq",
            "scaling_driver",
            "scaling_governor",
            "scaling_max_freq",
            "scaling_min_freq",
            "scaling_setspeed",
            "stats/time_in_state",
            "stats/total_trans",
        ]
    }

    /// Reads a file.
    ///
    /// # Errors
    ///
    /// [`SysfsError::NotFound`] for unknown paths.
    pub fn read(&self, cluster: &Cluster, path: &str, now: SimTime) -> Result<String, SysfsError> {
        let out = match path {
            "scaling_available_frequencies" => {
                let mut s = cluster
                    .opps()
                    .iter()
                    .map(|o| o.freq.khz().to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                s.push('\n');
                s
            }
            "scaling_available_governors" => {
                let mut s = AVAILABLE_GOVERNORS.join(" ");
                s.push('\n');
                s
            }
            "scaling_governor" => format!("{}\n", self.governor),
            "scaling_cur_freq" => format!("{}\n", cluster.current_freq().khz()),
            "scaling_min_freq" => format!("{}\n", self.min_freq.khz()),
            "scaling_max_freq" => format!("{}\n", self.max_freq.khz()),
            "cpuinfo_min_freq" => format!("{}\n", cluster.opps().min_freq().khz()),
            "cpuinfo_max_freq" => format!("{}\n", cluster.opps().max_freq().khz()),
            "cpuinfo_transition_latency" => "50000\n".to_owned(),
            "scaling_driver" => "eavs-sim\n".to_owned(),
            // Like the kernel's `show_speed`, which prints `policy->cur`:
            // the frequency in effect, not the kHz last written.
            "scaling_setspeed" => match self.governor.as_str() {
                "userspace" => format!("{}\n", cluster.current_freq().khz()),
                _ => "<unsupported>\n".to_owned(),
            },
            "affected_cpus" | "related_cpus" => {
                let mut s = (0..cluster.num_cores())
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                s.push('\n');
                s
            }
            "stats/time_in_state" => {
                // Kernel format: "<kHz> <10ms-ticks>" per line.
                let tis = cluster.time_in_state(now);
                let mut s = String::new();
                for (idx, dur) in tis.iter().enumerate() {
                    s.push_str(&format!(
                        "{} {}\n",
                        cluster.opps().freq(idx).khz(),
                        dur.as_millis() / 10
                    ));
                }
                s
            }
            "stats/total_trans" => format!("{}\n", cluster.transitions()),
            other => return Err(SysfsError::NotFound(other.to_owned())),
        };
        Ok(out)
    }

    /// Writes a file.
    ///
    /// # Errors
    ///
    /// * [`SysfsError::NotFound`] — unknown path.
    /// * [`SysfsError::NotWritable`] — read-only file.
    /// * [`SysfsError::InvalidValue`] — unparsable or out-of-range value.
    /// * [`SysfsError::NotPermitted`] — `scaling_setspeed` outside the
    ///   `userspace` governor.
    pub fn write(
        &mut self,
        cluster: &mut Cluster,
        path: &str,
        value: &str,
        now: SimTime,
    ) -> Result<(), SysfsError> {
        let value = value.trim();
        match path {
            "scaling_governor" => {
                if !AVAILABLE_GOVERNORS.contains(&value) {
                    return Err(SysfsError::InvalidValue {
                        path: path.to_owned(),
                        value: value.to_owned(),
                        reason: "unknown governor".to_owned(),
                    });
                }
                self.governor = value.to_owned();
                // Mirror kernel behavior for the static governors.
                match value {
                    "performance" => {
                        cluster.set_target(now, cluster.opps().max_index());
                    }
                    "powersave" => {
                        cluster.set_target(now, cluster.opps().min_index());
                    }
                    _ => {}
                }
                Ok(())
            }
            "scaling_setspeed" => {
                if self.governor != "userspace" {
                    return Err(SysfsError::NotPermitted {
                        path: path.to_owned(),
                        reason: format!(
                            "scaling_setspeed requires the userspace governor (active: {})",
                            self.governor
                        ),
                    });
                }
                // Like the kernel's `userspace` governor, any kHz is
                // accepted and resolved with CPUFREQ_RELATION_L within
                // the policy limits.
                let freq = Frequency::from_khz(parse_khz(path, value)?);
                cluster.set_target_freq(now, freq);
                Ok(())
            }
            "scaling_min_freq" => {
                let khz = parse_khz(path, value)?;
                self.min_freq = Frequency::from_khz(khz);
                self.apply_limits(cluster);
                Ok(())
            }
            "scaling_max_freq" => {
                let khz = parse_khz(path, value)?;
                self.max_freq = Frequency::from_khz(khz);
                self.apply_limits(cluster);
                Ok(())
            }
            "scaling_available_frequencies"
            | "scaling_available_governors"
            | "scaling_cur_freq"
            | "cpuinfo_min_freq"
            | "cpuinfo_max_freq"
            | "cpuinfo_transition_latency"
            | "scaling_driver"
            | "affected_cpus"
            | "related_cpus"
            | "stats/time_in_state"
            | "stats/total_trans" => Err(SysfsError::NotWritable(path.to_owned())),
            other => Err(SysfsError::NotFound(other.to_owned())),
        }
    }

    fn apply_limits(&mut self, cluster: &mut Cluster) {
        let table = cluster.opps();
        // Kernel semantics: clamp requested limits to hardware bounds and
        // keep min <= max.
        let min_idx = table
            .lowest_at_least(self.min_freq)
            .unwrap_or(table.max_index());
        let max_idx = table.highest_at_most(self.max_freq).unwrap_or(0);
        let (min_idx, max_idx) = if min_idx <= max_idx {
            (min_idx, max_idx)
        } else {
            (max_idx, max_idx)
        };
        cluster.set_limits(PolicyLimits {
            min_index: min_idx,
            max_index: max_idx,
        });
    }
}

fn parse_khz(path: &str, value: &str) -> Result<u32, SysfsError> {
    value.parse::<u32>().map_err(|_| SysfsError::InvalidValue {
        path: path.to_owned(),
        value: value.to_owned(),
        reason: "expected an integer kHz value".to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_cpu::soc::SocModel;

    fn setup() -> (Cluster, CpufreqFs) {
        let cluster = SocModel::MidRange.build_cluster();
        let fs = CpufreqFs::new(&cluster);
        (cluster, fs)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn reads_available_frequencies() {
        let (cluster, fs) = setup();
        let out = fs
            .read(&cluster, "scaling_available_frequencies", t(0))
            .unwrap();
        assert_eq!(out, "400000 800000 1100000 1400000\n");
    }

    #[test]
    fn governor_switch_applies_static_policies() {
        let (mut cluster, mut fs) = setup();
        fs.write(&mut cluster, "scaling_governor", "performance\n", t(0))
            .unwrap();
        cluster.advance(t(1));
        assert_eq!(cluster.current_freq(), Frequency::from_mhz(1400));
        fs.write(&mut cluster, "scaling_governor", "powersave", t(2))
            .unwrap();
        cluster.advance(t(3));
        assert_eq!(cluster.current_freq(), Frequency::from_mhz(400));
        assert_eq!(
            fs.read(&cluster, "scaling_governor", t(3)).unwrap(),
            "powersave\n"
        );
    }

    #[test]
    fn unknown_governor_rejected() {
        let (mut cluster, mut fs) = setup();
        let err = fs
            .write(&mut cluster, "scaling_governor", "turbo9000", t(0))
            .unwrap_err();
        assert!(matches!(err, SysfsError::InvalidValue { .. }));
    }

    #[test]
    fn setspeed_requires_userspace() {
        let (mut cluster, mut fs) = setup();
        let err = fs
            .write(&mut cluster, "scaling_setspeed", "800000", t(0))
            .unwrap_err();
        assert!(matches!(err, SysfsError::NotPermitted { .. }));
        fs.write(&mut cluster, "scaling_governor", "userspace", t(0))
            .unwrap();
        fs.write(&mut cluster, "scaling_setspeed", "800000", t(0))
            .unwrap();
        cluster.advance(t(1));
        assert_eq!(cluster.current_freq(), Frequency::from_mhz(800));
        assert_eq!(
            fs.read(&cluster, "scaling_setspeed", t(1)).unwrap(),
            "800000\n"
        );
    }

    #[test]
    fn setspeed_resolves_any_khz_to_the_lowest_opp_at_or_above_it() {
        let (mut cluster, mut fs) = setup();
        fs.write(&mut cluster, "scaling_governor", "userspace", t(0))
            .unwrap();
        let opps = cluster.opps().clone();
        let between = (opps.freq(0).khz() + opps.freq(1).khz()) / 2;
        for (khz, want) in [
            (1, 0),
            (between, 1),
            (opps.freq(1).khz(), 1),
            (opps.max_freq().khz() + 1, opps.max_index()),
        ] {
            fs.write(&mut cluster, "scaling_setspeed", &khz.to_string(), t(0))
                .unwrap();
            assert_eq!(cluster.target_index(), want, "{khz} kHz");
        }
        let err = fs
            .write(&mut cluster, "scaling_setspeed", "fast", t(0))
            .unwrap_err();
        assert!(matches!(err, SysfsError::InvalidValue { .. }));
    }

    #[test]
    fn setspeed_reads_the_current_frequency_not_the_khz_written() {
        let (mut cluster, mut fs) = setup();
        fs.write(&mut cluster, "scaling_governor", "userspace", t(0))
            .unwrap();
        fs.write(&mut cluster, "scaling_setspeed", "123456", t(0))
            .unwrap();
        cluster.advance(t(1));
        let cur = fs.read(&cluster, "scaling_cur_freq", t(1)).unwrap();
        assert_eq!(cur, "400000\n");
        assert_eq!(fs.read(&cluster, "scaling_setspeed", t(1)).unwrap(), cur);
    }

    #[test]
    fn limit_writes_clamp_the_cluster() {
        let (mut cluster, mut fs) = setup();
        fs.write(&mut cluster, "scaling_max_freq", "800000", t(0))
            .unwrap();
        // performance-like request above the cap is clamped.
        cluster.set_target(t(1), cluster.opps().max_index());
        cluster.advance(t(2));
        assert_eq!(cluster.current_freq(), Frequency::from_mhz(800));
        assert_eq!(
            fs.read(&cluster, "scaling_max_freq", t(2)).unwrap(),
            "800000\n"
        );
    }

    #[test]
    fn inverted_limits_degrade_to_max() {
        let (mut cluster, mut fs) = setup();
        fs.write(&mut cluster, "scaling_max_freq", "400000", t(0))
            .unwrap();
        fs.write(&mut cluster, "scaling_min_freq", "1400000", t(0))
            .unwrap();
        // min > max: policy collapses to the max limit.
        cluster.set_target(t(1), 3);
        cluster.advance(t(2));
        assert_eq!(cluster.current_freq(), Frequency::from_mhz(400));
    }

    #[test]
    fn time_in_state_format() {
        let (mut cluster, fs) = setup();
        cluster.set_target(t(0), 1);
        cluster.advance(t(1000));
        let out = fs.read(&cluster, "stats/time_in_state", t(1000)).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("800000 "));
        let ticks: u64 = lines[1].split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(ticks >= 99, "≈1 s at 800 MHz expected, got {ticks} ticks");
    }

    #[test]
    fn total_trans_counts() {
        let (mut cluster, mut fs) = setup();
        fs.write(&mut cluster, "scaling_governor", "userspace", t(0))
            .unwrap();
        fs.write(&mut cluster, "scaling_setspeed", "800000", t(1))
            .unwrap();
        fs.write(&mut cluster, "scaling_setspeed", "1400000", t(2))
            .unwrap();
        let out = fs.read(&cluster, "stats/total_trans", t(3)).unwrap();
        assert_eq!(out, "2\n");
    }

    #[test]
    fn read_only_files_reject_writes() {
        let (mut cluster, mut fs) = setup();
        let err = fs
            .write(&mut cluster, "scaling_cur_freq", "800000", t(0))
            .unwrap_err();
        assert!(matches!(err, SysfsError::NotWritable(_)));
    }

    #[test]
    fn unknown_path_not_found() {
        let (cluster, fs) = setup();
        assert!(matches!(
            fs.read(&cluster, "bogus", t(0)).unwrap_err(),
            SysfsError::NotFound(_)
        ));
    }

    #[test]
    fn list_contains_core_files() {
        let (_, fs) = setup();
        let files = fs.list();
        for f in [
            "scaling_governor",
            "scaling_setspeed",
            "stats/time_in_state",
        ] {
            assert!(files.contains(&f), "{f} missing");
        }
    }

    #[test]
    fn cur_freq_tracks_cluster() {
        let (mut cluster, mut fs) = setup();
        fs.write(&mut cluster, "scaling_governor", "userspace", t(0))
            .unwrap();
        fs.write(&mut cluster, "scaling_setspeed", "1100000", t(0))
            .unwrap();
        cluster.advance(t(1));
        assert_eq!(
            fs.read(&cluster, "scaling_cur_freq", t(1)).unwrap(),
            "1100000\n"
        );
    }
}
