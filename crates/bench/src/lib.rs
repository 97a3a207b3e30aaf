//! # eavs-bench — the experiment harness
//!
//! One module per experiment family. Each registered table/figure prints
//! its paper-style rows and writes CSV under `results/`; the one entry
//! point is the `run_all` binary, which regenerates everything, or the
//! experiments named on its command line (`run_all f5_energy_by_governor`,
//! see [`select_experiments`]). The fleet figures F26/F27 have their own
//! binaries and write under `results/fleet/`. The one criterion bench
//! (`benches/governor_overhead.rs`) is the governor-overhead figure (F14).
//!
//! Every figure hands its sessions to [`cache::run_sessions`] as one
//! `(label, builder)` batch, the runner [`fleet::pooled_runner`] shares;
//! only the predictor replays of F4, F30 and F31 fan out through
//! [`executor::run_parallel_labeled`] directly.
//!
//! | experiment | function |
//! |---|---|
//! | T1 | [`motivation::t1_opp_table`] |
//! | F1 | [`motivation::f1_power_curve`] |
//! | F2 | [`motivation::f2_freq_timeline`] |
//! | F3 | [`motivation::f3_workload_variability`] |
//! | F4 | [`prediction::f4_prediction`] |
//! | F5 | [`comparison::f5_energy_by_governor`] |
//! | F6 | [`comparison::f6_deadline_misses`] |
//! | F7 | [`sweeps::f7_bitrate_sweep`] |
//! | F8 | [`sweeps::f8_framerate_sweep`] |
//! | F9 | [`network::f9_network_abr`] |
//! | F10 | [`sweeps::f10_margin_sweep`] |
//! | F11 | [`timeline::f11_buffer_timeline`] |
//! | F12 | [`timeline::f12_residency`] |
//! | F13 | [`sweeps::f13_ablations`] |
//! | F15 | [`extensions::f15_thermal`] |
//! | F16 | [`extensions::f16_background`] |
//! | F17 | [`extensions::f17_cluster_placement`] |
//! | F18 | [`extensions::f18_queue_depth`] |
//! | F19 | [`extensions::f19_energy_breakdown`] |
//! | F20 | [`extensions::f20_auto_placement`] |
//! | F21 | [`extensions::f21_late_policy`] |
//! | F22 | [`extensions::f22_static_pinning`] |
//! | F23 | [`extensions::f23_baseline_tuning`] |
//! | F24 | [`robustness::f24_fault_storm`] |
//! | F25 | [`robustness::f25_retry_sensitivity`] |
//! | F26 | [`fleet::f26_fleet_population`] |
//! | F27 | `src/bin/f27_fleet_scaling.rs` |
//! | F28 | [`device_power::f28_device_breakdown`] |
//! | F29 | [`device_power::f29_radio_tail_sweep`] |
//! | F30 | [`prior::f30_prior_coldstart`] |
//! | F31 | [`prior::f31_prior_staleness`] |
//! | T2 | [`comparison::t2_summary`] |
//! | T3 | [`extensions::t3_confidence`] |
//! | T4 | [`extensions::t4_soc_matrix`] |
//! | F14 | `benches/governor_overhead.rs` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod comparison;
pub mod device_power;
pub mod executor;
pub mod extensions;
pub mod fleet;
pub mod harness;
pub mod motivation;
pub mod network;
pub mod prediction;
pub mod prior;
pub mod robustness;
pub mod sweeps;
pub mod timeline;

/// A registered experiment: its id and the function regenerating its table.
pub type Experiment = (&'static str, fn() -> eavs_metrics::table::Table);

/// Every table-producing experiment, as `(id, function)` pairs in
/// presentation order — the backing list for `run_all`.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("t1_opp_table", motivation::t1_opp_table),
        ("f1_power_curve", motivation::f1_power_curve),
        ("f2_freq_timeline", motivation::f2_freq_timeline),
        (
            "f3_workload_variability",
            motivation::f3_workload_variability,
        ),
        ("f4_prediction", prediction::f4_prediction),
        ("f5_energy_by_governor", comparison::f5_energy_by_governor),
        ("f6_deadline_misses", comparison::f6_deadline_misses),
        ("f7_bitrate_sweep", sweeps::f7_bitrate_sweep),
        ("f8_framerate_sweep", sweeps::f8_framerate_sweep),
        ("f9_network_abr", network::f9_network_abr),
        ("f10_margin_sweep", sweeps::f10_margin_sweep),
        ("f11_buffer_timeline", timeline::f11_buffer_timeline),
        ("f12_residency", timeline::f12_residency),
        ("f13_ablations", sweeps::f13_ablations),
        ("f15_thermal", extensions::f15_thermal),
        ("f16_background", extensions::f16_background),
        ("f17_cluster_placement", extensions::f17_cluster_placement),
        ("f18_queue_depth", extensions::f18_queue_depth),
        ("f19_energy_breakdown", extensions::f19_energy_breakdown),
        ("f20_auto_placement", extensions::f20_auto_placement),
        ("f21_late_policy", extensions::f21_late_policy),
        ("f22_static_pinning", extensions::f22_static_pinning),
        ("f23_baseline_tuning", extensions::f23_baseline_tuning),
        ("f24_fault_storm", robustness::f24_fault_storm),
        ("f25_retry_sensitivity", robustness::f25_retry_sensitivity),
        ("f28_device_breakdown", device_power::f28_device_breakdown),
        ("f29_radio_tail_sweep", device_power::f29_radio_tail_sweep),
        ("f30_prior_coldstart", prior::f30_prior_coldstart),
        ("f31_prior_staleness", prior::f31_prior_staleness),
        ("t2_summary", comparison::t2_summary),
        ("t3_confidence", extensions::t3_confidence),
        ("t4_soc_matrix", extensions::t4_soc_matrix),
    ]
}

/// The registered experiments named by `ids`, in presentation order (the
/// order of [`all_experiments`], not of `ids`); a repeated id selects its
/// experiment once, and no ids select every experiment.
///
/// # Errors
///
/// Returns the first id that names no registered experiment.
pub fn select_experiments<S: AsRef<str>>(ids: &[S]) -> Result<Vec<Experiment>, String> {
    let all = all_experiments();
    let known = |id: &str| all.iter().any(|(name, _)| *name == id);
    if let Some(unknown) = ids.iter().map(AsRef::as_ref).find(|id| !known(id)) {
        return Err(unknown.to_owned());
    }
    Ok(all
        .into_iter()
        .filter(|(name, _)| ids.is_empty() || ids.iter().any(|id| id.as_ref() == *name))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(experiments: &[Experiment]) -> Vec<&'static str> {
        experiments.iter().map(|(id, _)| *id).collect()
    }

    #[test]
    fn no_ids_select_every_experiment() {
        let none: [&str; 0] = [];
        let all = select_experiments(&none).unwrap();
        assert_eq!(ids(&all), ids(&all_experiments()));
        assert_eq!(all.len(), 32);
    }

    #[test]
    fn a_subset_keeps_presentation_order() {
        let picked =
            select_experiments(&["t2_summary", "f30_prior_coldstart", "f5_energy_by_governor"])
                .unwrap();
        assert_eq!(
            ids(&picked),
            ["f5_energy_by_governor", "f30_prior_coldstart", "t2_summary"]
        );
    }

    #[test]
    fn a_repeated_id_runs_once() {
        let picked =
            select_experiments(&["f1_power_curve", "t1_opp_table", "f1_power_curve"]).unwrap();
        assert_eq!(ids(&picked), ["t1_opp_table", "f1_power_curve"]);
    }

    #[test]
    fn an_unknown_id_is_an_error_that_names_it() {
        assert_eq!(
            select_experiments(&["f5_energy_by_governor", "nope", "f99"]).err(),
            Some("nope".to_owned())
        );
        // The fleet figures have their own binaries; they are not registered.
        assert_eq!(
            select_experiments(&["f26_fleet_population"]).err(),
            Some("f26_fleet_population".to_owned())
        );
    }
}
