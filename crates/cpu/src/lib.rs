//! # eavs-cpu — mobile SoC CPU/DVFS/power model
//!
//! The hardware substrate for the EAVS reproduction: a smartphone-class CPU
//! frequency domain with operating performance points, a CMOS power model,
//! idle states, frequency-transition latency, per-OPP residency statistics
//! and a thermal model. Everything a cpufreq governor touches on a real
//! device exists here in simulated form.
//!
//! * [`freq`] — `Frequency` (kHz), `Voltage` (mV) and `Cycles` units.
//! * [`opp`] — validated OPP tables ([`OppTable`]).
//! * [`power`] — the `P = Ceff·V²·f + leak·V` power model and its per-OPP table.
//! * [`cstate`] — idle-state ladders with target residencies.
//! * [`core`] — single-core execution (jobs as cycle bags).
//! * [`cluster`] — the governor-controlled frequency domain:
//!   energy integration, `time_in_state`, transition latency.
//! * [`load`] — sampling-window load observation for classic governors.
//! * [`thermal`] — RC thermal model and throttle controller.
//! * [`soc`] — phone-shaped presets used by all experiments.
//!
//! ## Example
//!
//! ```
//! use eavs_cpu::freq::Cycles;
//! use eavs_cpu::soc::SocModel;
//! use eavs_sim::time::SimTime;
//!
//! let mut cluster = SocModel::Flagship2016.build_cluster();
//! cluster.set_target(SimTime::ZERO, 3);
//! cluster.start_job(SimTime::ZERO, 0, Cycles::from_mega(50.0));
//! let done = cluster.completion_time(SimTime::ZERO, 0).unwrap();
//! cluster.advance(done);
//! assert_eq!(cluster.core(0).jobs_completed(), 1);
//! let energy = cluster.energy_at(done);
//! assert!(energy.busy_j > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod core;
pub mod cstate;
pub mod freq;
pub mod load;
pub mod opp;
pub mod power;
pub mod soc;
pub mod thermal;

pub use cluster::{Cluster, ClusterConfig, CpuEnergyBreakdown, PolicyLimits};
pub use core::{CoreState, CpuCore};
pub use cstate::{CState, CStateTable};
pub use freq::{Cycles, Frequency, Voltage};
pub use load::{LoadMonitor, LoadSample};
pub use opp::{Opp, OppIndex, OppTable};
pub use power::CmosPowerModel;
pub use soc::SocModel;
pub use thermal::{ThermalModel, ThrottleController};
