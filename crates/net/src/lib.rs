//! # eavs-net — network substrate
//!
//! Bandwidth-trace-driven downloading, ABR decision logic and cellular
//! radio power accounting for the EAVS reproduction:
//!
//! * [`bandwidth`] — piecewise-constant [`BandwidthTrace`] with exact
//!   transfer-completion integration.
//! * [`download`] — the sequential segment [`Downloader`] (one RTT per
//!   request, activity recorded for radio accounting).
//! * [`abr`] — fixed, throughput-based and buffer-based algorithms.
//! * [`radio`] — one RRC state machine (IDLE/PROMO/ACTIVE/two tails) with
//!   3G RRC, LTE DRX and WiFi PSM presets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abr;
pub mod bandwidth;
pub mod download;
pub mod radio;

pub use abr::{AbrAlgorithm, AbrContext, BufferBasedAbr, FixedAbr, RateBasedAbr};
pub use bandwidth::BandwidthTrace;
pub use download::{Downloader, ThroughputSample};
pub use radio::{ActivityInterval, RadioModel, RadioReport};
