//! Deterministic observability layer for EAVS sessions and fleets.
//!
//! The simulator's whole argument is a timeline argument — frames must
//! finish *by* their vsync deadline, not early (wasted energy) and not
//! late (QoE loss) — yet until this crate existed only end-of-run
//! aggregates left the session. `eavs-obs` adds the three observability
//! primitives every production stack carries, without compromising the
//! repo's determinism contract:
//!
//! - **Event tracing** ([`event::TraceEvent`]) behind a [`sink::TraceSink`]
//!   trait. Sessions emit structured events at every hot-path decision
//!   point; sinks choose what to do with them. [`sink::NullSink`]
//!   discards everything (and the emit sites are gated so event
//!   construction itself is skipped when no sink is attached), and
//!   [`sink::RingSink`] keeps a bounded in-memory timeline dumpable as
//!   JSONL or Chrome trace-event JSON (Perfetto-loadable).
//! - **Phase profiling** ([`profile::PhaseProfile`]): per-phase
//!   (download / decode / display / governor) simulated-time and
//!   wall-time breakdowns, cheap enough to leave on in benches.
//! - **Prometheus text exposition** ([`prom::PromWriter`]): fleet
//!   campaigns render shard progress, cache hit rates, fault counters
//!   and per-governor energy/QoE histograms in the standard
//!   text-exposition format for scraping.
//!
//! # Determinism rules
//!
//! Traces are part of the reproducibility surface: the same seeded
//! session must produce **byte-identical** JSONL regardless of
//! `EAVS_JOBS`, host, or wall-clock. To keep that true:
//!
//! 1. Events carry **simulated** time only. Wall-clock never enters an
//!    event or a serialized trace (wall time appears only in
//!    [`profile::PhaseStats::wall_ns`], which is explicitly excluded
//!    from trace dumps).
//! 2. Event payloads are integers — floats are pre-scaled to fixed
//!    units (kHz, milli-°C, milli-factors) so formatting is exact.
//! 3. Sinks observe, they never steer: attaching or detaching a sink
//!    must not change a single simulation outcome. The session
//!    fingerprint deliberately ignores sinks, and CI proves all golden
//!    CSVs are byte-identical under a forced no-op sink.

pub mod event;
pub mod profile;
pub mod prom;
pub mod sink;

pub use event::{Phase, TraceEvent};
pub use profile::{PhaseProfile, PhaseStats};
pub use prom::{check_conformance, PromWriter, TEXT_FORMAT};
pub use sink::{shared, NullSink, RingSink, SharedSink, TimedEvent, TraceSink};
