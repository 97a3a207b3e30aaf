//! Shared infrastructure for the experiment binaries: the governor-name
//! table (the fleet campaign's, so figures and campaigns build the same
//! governors), the headline manifests, CSV output and the re-exported
//! session runner.

use eavs_core::governor::{EavsConfig, EavsGovernor};
use eavs_core::session::{GovernorChoice, SessionBuilder, StreamingSession};

use eavs_metrics::table::Table;
use eavs_sim::time::SimDuration;
use eavs_video::manifest::Manifest;
use std::fs;
use std::path::PathBuf;

/// The seed every experiment uses unless it is explicitly sweeping seeds.
pub const SEED: u64 = 42;

/// Governors compared in the headline figures, in presentation order.
pub const COMPARISON_GOVERNORS: [&str; 8] = [
    "performance",
    "powersave",
    "userspace",
    "ondemand",
    "conservative",
    "interactive",
    "schedutil",
    "eavs",
];

/// Constructs a governor by name from the campaign matrix table
/// ([`governor_choice`](eavs_fleet::campaign::governor_choice)): any
/// baseline, `eavs` (hybrid predictor, default config) or `eavs-panic`.
///
/// # Panics
///
/// Panics on unknown names.
pub fn governor(name: &str) -> GovernorChoice {
    eavs_fleet::campaign::governor_choice(name).unwrap_or_else(|e| panic!("{e}"))
}

/// The paper-default EAVS configuration (hybrid predictor).
pub fn eavs_default() -> GovernorChoice {
    governor("eavs")
}

/// EAVS with panic recovery enabled (the fault-tolerant configuration
/// compared in F24/F25): on a prediction breach or rebuffer the next
/// decision re-races to the highest permitted OPP, then decays back
/// through the normal selector hysteresis.
pub fn eavs_resilient() -> GovernorChoice {
    governor("eavs-panic")
}

/// An EAVS variant with an explicit config and predictor name.
pub fn eavs_with(config: EavsConfig, predictor: &str) -> GovernorChoice {
    GovernorChoice::Eavs(EavsGovernor::new(
        eavs_core::predictor::predictor_by_name(predictor)
            .unwrap_or_else(|| panic!("unknown predictor {predictor}")),
        config,
    ))
}

/// The fixed-quality manifests used across figures.
pub fn single_manifest(
    bitrate_kbps: u32,
    width: u32,
    height: u32,
    secs: u64,
    fps: u32,
) -> Manifest {
    Manifest::single(
        bitrate_kbps,
        width,
        height,
        SimDuration::from_secs(secs),
        fps,
    )
}

/// 1080p30 at 6 Mbps — the headline workload.
pub fn manifest_1080p30(secs: u64) -> Manifest {
    single_manifest(6_000, 1920, 1080, secs, 30)
}

/// The headline session: 60 s of 1080p30 film under `gov` at [`SEED`].
pub fn headline_session(gov: GovernorChoice) -> SessionBuilder {
    StreamingSession::builder(gov)
        .manifest(manifest_1080p30(60))
        .seed(SEED)
}

/// Where experiment CSVs land.
pub fn results_dir() -> PathBuf {
    let dir = crate::executor::env_knob::<String>("EAVS_RESULTS_DIR");
    PathBuf::from(dir.unwrap_or_else(|| "results".to_owned()))
}

/// Prints a table and writes its CSV under `results/<id>.csv`.
pub fn emit(id: &str, table: &Table) {
    println!("{}", table.render());
    emit_into(&results_dir(), id, table);
}

/// Writes a table's CSV as `<dir>/<id>.csv` (no rendering to stdout).
pub fn emit_into(dir: &std::path::Path, id: &str, table: &Table) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{id}.csv"));
    if let Err(e) = fs::write(&path, table.to_csv()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        println!("[csv written to {}]\n", path.display());
    }
}

pub use crate::cache::run_sessions;
pub use crate::executor::{run_parallel, run_parallel_labeled};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governor_constructor_covers_comparison_set() {
        for name in COMPARISON_GOVERNORS {
            let g = governor(name);
            drop(g);
        }
    }

    #[test]
    #[should_panic(expected = "unknown governor")]
    fn unknown_governor_panics() {
        governor("warp-speed");
    }

    #[test]
    fn parallel_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = run_parallel(jobs);
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn manifest_helpers() {
        let m = manifest_1080p30(10);
        assert_eq!(m.fps, 30);
        assert_eq!(m.representation(0).height, 1080);
    }
}
