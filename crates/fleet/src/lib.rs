//! # eavs-fleet — fleet-scale population campaigns
//!
//! The per-figure experiments simulate a handful of sessions; a production
//! claim ("millions of users") needs the *population* shape: energy and
//! QoE distributions per governor over heterogeneous devices, networks and
//! content. This crate expands a declarative [`spec::CampaignSpec`] into N
//! deterministic sessions and folds their reports into mergeable
//! [`aggregate::FleetAggregate`]s so memory stays O(shards), never O(N).
//!
//! Determinism contract (see DESIGN.md §12):
//!
//! * every per-session decision (device, network, trace seed, content,
//!   title, ABR, workload seed, arrival) is drawn by SplitMix on the
//!   stable coordinate `(campaign_seed, session_id)` — the same
//!   convention `eavs-faults` uses — so a session's configuration is a
//!   pure function of the spec, independent of execution order;
//! * aggregates hold only integer counters, fixed-point
//!   [`eavs_metrics::stats::ExactSum`]s, histograms and f64 min/max, all
//!   of whose merges are bit-exact associative and commutative, so
//!   per-shard partials fold to the same bits for any shard interleaving;
//! * checkpoints serialize the merged aggregate plus the shard cursor,
//!   so a killed campaign resumes to byte-identical final output.
//!
//! The crate is engine-agnostic: [`campaign::run_campaign`] takes the
//! shard runner as a closure, so the library has no dependency on the
//! bench harness. `eavs-bench` injects its shared job pool and
//! content-addressed session cache; tests inject a serial runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod campaign;
pub mod checkpoint;
pub mod prior;
pub mod progress;
pub mod prom;
pub mod spec;

pub use aggregate::{FleetAggregate, GovAggregate};
pub use campaign::{
    run_campaign, run_shard, run_shard_warm, CampaignOutcome, CampaignStatus, RunOptions,
    ShardOutcome,
};
pub use prior::PriorStore;
pub use progress::{GovSnapshot, ProgressSnapshot};
pub use spec::CampaignSpec;
