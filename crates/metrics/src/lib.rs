//! # eavs-metrics — measurement infrastructure for EAVS experiments
//!
//! Statistics utilities shared by every layer of the EAVS reproduction:
//!
//! * [`stats`] — streaming mean/variance ([`stats::OnlineStats`]).
//! * [`quantile`] — exact quantiles over stored samples.
//! * [`histogram`] — fixed-bin histograms and labeled counters.
//! * [`residency`] — time-in-state tracking (cpufreq `time_in_state`).
//! * [`timeseries`] — piecewise-constant signals with time-weighted means.
//! * [`ci`] — Student-t confidence intervals for repeated runs.
//! * [`table`] — ASCII table / CSV rendering for the bench harness.
//!
//! All types are plain data with no interior mutability; parallel sweeps
//! merge per-shard accumulators explicitly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod histogram;
pub mod quantile;
pub mod residency;
pub mod stats;
pub mod table;
pub mod timeseries;

pub use ci::{mean_confidence_interval, ConfidenceInterval};
pub use histogram::{Counter, Histogram};
pub use quantile::Quantiles;
pub use residency::ResidencyTracker;
pub use stats::{OnlineStats, Summary};
pub use table::Table;
pub use timeseries::StepSeries;
