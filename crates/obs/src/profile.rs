//! Per-phase cost breakdowns for a session.
//!
//! A [`PhaseProfile`] splits a session's activity across the pipeline
//! phases (download / decode / display / governor / other) on two
//! clocks:
//!
//! - **simulated time** — how long each phase occupied the modeled
//!   hardware (deterministic, part of the reproducibility surface);
//! - **wall time** — how long the host spent executing each phase's
//!   handlers (non-deterministic by nature, reported for perf work and
//!   explicitly excluded from trace dumps and fingerprints).
//!
//! `bench_report --profile` embeds one of these per benchmark run in
//! `BENCH_sim.json`.

use crate::event::Phase;

/// Aggregate cost of one pipeline phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Events attributed to the phase.
    pub events: u64,
    /// Host wall-clock spent in the phase's handlers, in nanoseconds.
    pub wall_ns: u64,
    /// Simulated time occupied by the phase, in nanoseconds.
    pub sim_ns: u64,
}

/// Per-phase breakdown of one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Segment transfer activity.
    pub download: PhaseStats,
    /// Decode job activity.
    pub decode: PhaseStats,
    /// Vsync/presentation activity.
    pub display: PhaseStats,
    /// Governor sampling and decisions.
    pub governor: PhaseStats,
    /// Everything else.
    pub other: PhaseStats,
}

impl PhaseProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable stats bucket for one phase.
    pub fn stats_mut(&mut self, phase: Phase) -> &mut PhaseStats {
        match phase {
            Phase::Download => &mut self.download,
            Phase::Decode => &mut self.decode,
            Phase::Display => &mut self.display,
            Phase::Governor => &mut self.governor,
            Phase::Other => &mut self.other,
        }
    }

    /// Stats bucket for one phase.
    pub fn stats(&self, phase: Phase) -> &PhaseStats {
        match phase {
            Phase::Download => &self.download,
            Phase::Decode => &self.decode,
            Phase::Display => &self.display,
            Phase::Governor => &self.governor,
            Phase::Other => &self.other,
        }
    }

    /// Counts one event and its handler wall-time against a phase.
    pub fn note(&mut self, phase: Phase, wall_ns: u64) {
        let s = self.stats_mut(phase);
        s.events += 1;
        s.wall_ns += wall_ns;
    }

    /// Sets the simulated-time occupancy of a phase (filled once at
    /// end of session from the authoritative model state, not summed
    /// incrementally, so it cannot drift from the report).
    pub fn set_sim_ns(&mut self, phase: Phase, sim_ns: u64) {
        self.stats_mut(phase).sim_ns = sim_ns;
    }

    /// Total events across all phases.
    pub fn total_events(&self) -> u64 {
        Phase::ALL.iter().map(|p| self.stats(*p).events).sum()
    }

    /// Total handler wall-time across all phases, in nanoseconds.
    pub fn total_wall_ns(&self) -> u64 {
        Phase::ALL.iter().map(|p| self.stats(*p).wall_ns).sum()
    }

    /// Renders the profile as a JSON object string, matching the repo's
    /// hand-rolled-JSON house style:
    ///
    /// ```text
    /// {"download":{"events":12,"sim_ms":482.125,"wall_us":13},...}
    /// ```
    ///
    /// Simulated time is exact (nanoseconds rendered as fixed-point
    /// milliseconds); wall time is integer microseconds.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        out.push('{');
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let s = self.stats(*phase);
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#""{}":{{"events":{},"sim_ms":{}.{:06},"wall_us":{}}}"#,
                phase.name(),
                s.events,
                s.sim_ns / 1_000_000,
                s.sim_ns % 1_000_000,
                s.wall_ns / 1_000
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_accumulates_per_phase() {
        let mut p = PhaseProfile::new();
        p.note(Phase::Download, 500);
        p.note(Phase::Download, 1_500);
        p.note(Phase::Governor, 250);
        assert_eq!(p.download.events, 2);
        assert_eq!(p.download.wall_ns, 2_000);
        assert_eq!(p.governor.events, 1);
        assert_eq!(p.total_events(), 3);
        assert_eq!(p.total_wall_ns(), 2_250);
    }

    #[test]
    fn sim_time_is_set_not_summed() {
        let mut p = PhaseProfile::new();
        p.set_sim_ns(Phase::Decode, 5_000_000);
        p.set_sim_ns(Phase::Decode, 7_000_000);
        assert_eq!(p.decode.sim_ns, 7_000_000);
    }

    #[test]
    fn json_shape_is_exact() {
        let mut p = PhaseProfile::new();
        p.note(Phase::Download, 13_000);
        p.set_sim_ns(Phase::Download, 482_125_000);
        let json = p.to_json();
        assert!(json
            .starts_with(r#"{"download":{"events":1,"sim_ms":482.125000,"wall_us":13},"decode":"#));
        assert!(json.ends_with(r#""other":{"events":0,"sim_ms":0.000000,"wall_us":0}}"#));
        // All five phases present, in order.
        for p in Phase::ALL {
            assert!(json.contains(&format!(r#""{}":{{"#, p.name())));
        }
    }
}
