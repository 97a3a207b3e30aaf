//! # eavs-sysfs — simulated Linux cpufreq sysfs interface
//!
//! The deployment surface of the EAVS governor on a real (rooted) Android
//! device is the cpufreq sysfs tree: select the `userspace` governor, then
//! echo kHz values into `scaling_setspeed`. This crate simulates exactly
//! that file protocol over the [`eavs_cpu`] cluster model (the "sysfs
//! governor doable" path of the reproduction plan). Sessions set the OPP
//! with `Cluster::set_target`; `tests/properties.rs` proves that
//! `scaling_setspeed` writes of any kHz drive a cluster identically to
//! `set_target` of the OPP the kernel's `CPUFREQ_RELATION_L` rule picks
//! within the policy limits, on every preset's big and LITTLE cluster.
//!
//! ```
//! use eavs_cpu::soc::SocModel;
//! use eavs_sysfs::CpufreqFs;
//! use eavs_sim::time::SimTime;
//!
//! let mut cluster = SocModel::MidRange.build_cluster();
//! let mut fs = CpufreqFs::new(&cluster);
//! let t = SimTime::ZERO;
//! fs.write(&mut cluster, "scaling_governor", "userspace", t)?;
//! fs.write(&mut cluster, "scaling_setspeed", "800000", t)?;
//! assert_eq!(fs.read(&cluster, "scaling_governor", t)?, "userspace\n");
//! # Ok::<(), eavs_sysfs::SysfsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpufreq;
pub mod error;

pub use cpufreq::{CpufreqFs, AVAILABLE_GOVERNORS};
pub use error::SysfsError;
