//! # eavs-core — Energy-Aware Video Scaling
//!
//! The primary contribution of the reproduced paper (*Energy-Aware CPU
//! Frequency Scaling for Mobile Video Streaming*, ICDCS 2017): a
//! video-aware cpufreq governor that predicts per-frame decode workload,
//! derives deadlines from the display pipeline, and runs the CPU at the
//! slowest operating point that keeps every frame on time — plus the
//! [`session`] harness that wires it (and the baselines) into a full
//! streaming system for evaluation.
//!
//! * [`predictor`] — per-frame-type decode-cost predictors (F4).
//! * [`selector`] — prefix-demand → minimal-OPP selection with margin and
//!   hysteresis (F10).
//! * [`governor`] — the [`EavsGovernor`] decision logic (F5–F13).
//! * [`session`] — the [`session::StreamingSession`]
//!   builder: CPU + video + network + governor in one deterministic run.
//! * [`report`] — the per-session measurement record.
//!
//! ## Quickstart
//!
//! ```
//! use eavs_core::governor::{EavsConfig, EavsGovernor};
//! use eavs_core::predictor::Hybrid;
//! use eavs_core::session::{GovernorChoice, StreamingSession};
//! use eavs_sim::time::SimDuration;
//! use eavs_video::manifest::Manifest;
//!
//! let gov = GovernorChoice::Eavs(EavsGovernor::new(
//!     Box::new(Hybrid::default()),
//!     EavsConfig::default(),
//! ));
//! let report = StreamingSession::builder(gov)
//!     .manifest(Manifest::single(3_000, 1280, 720, SimDuration::from_secs(4), 30))
//!     .seed(7)
//!     .run();
//! assert_eq!(report.qoe.frames_displayed, report.qoe.total_frames);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod framestats;
pub mod governor;
pub mod predictor;
pub mod report;
pub mod selector;
pub mod session;

/// Counters of the batched session runner, which was removed: every
/// session runs through [`crate::session::SessionBuilder::run`].
pub mod batch {
    /// Process-wide counters of the batched session runner.
    #[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
    pub struct BatchStats {
        /// Sessions completed by the batched runner: always 0.
        pub sessions: u64,
    }

    /// Always all-zero. Kept so callers that sample it, such as the
    /// `perfbench` campaign layer table, still build.
    pub fn batch_stats() -> BatchStats {
        BatchStats::default()
    }
}

pub use framestats::FrameCycleStats;
pub use governor::{EavsConfig, EavsGovernor, PipelineSnapshot};
pub use predictor::{FleetPrior, FrameMeta, Hybrid, SessionPrior, WorkloadPredictor};
pub use report::SessionReport;
pub use selector::{required_hz, DemandItem, OppSelector};
pub use session::{
    ClusterSelect, GovernorChoice, KernelHot, SessionBuilder, SessionScratch, SessionState,
    StreamingSession,
};
