//! SoC presets.
//!
//! OPP tables shaped after published smartphone SoC tables (frequencies and
//! the characteristic superlinear voltage ramps), with power coefficients
//! calibrated so peak cluster power lands in the 2–3.5 W range reported for
//! phone-class big cores. Absolute watts are model parameters, not device
//! measurements — the experiments compare governors on the *same* model, so
//! only the shape matters (see DESIGN.md §2).

use crate::cluster::{Cluster, ClusterConfig};
use crate::cstate::CStateTable;
use crate::opp::OppTable;
use crate::power::CmosPowerModel;
use eavs_sim::time::SimDuration;

/// The SoC models available to experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SocModel {
    /// 2013-class big.LITTLE big cluster (A15-like): 800–1600 MHz, 5 OPPs.
    BigLittle2013,
    /// 2016-class flagship performance cluster: 307–2150 MHz, 10 OPPs.
    Flagship2016,
    /// Mid-range quad: 400–1400 MHz, 4 OPPs.
    MidRange,
}

impl SocModel {
    /// All presets (for sweeps).
    pub const ALL: [SocModel; 3] = [
        SocModel::BigLittle2013,
        SocModel::Flagship2016,
        SocModel::MidRange,
    ];

    /// A short identifier for tables and CSV files.
    pub fn name(self) -> &'static str {
        match self {
            SocModel::BigLittle2013 => "biglittle2013",
            SocModel::Flagship2016 => "flagship2016",
            SocModel::MidRange => "midrange",
        }
    }

    /// The OPP table of the media (video-decoding) cluster.
    pub fn opp_table(self) -> OppTable {
        let pairs: &[(u32, u32)] = match self {
            SocModel::BigLittle2013 => &[
                (800, 900),
                (1000, 975),
                (1200, 1050),
                (1400, 1125),
                (1600, 1212),
            ],
            SocModel::Flagship2016 => &[
                (307, 775),
                (422, 800),
                (556, 825),
                (729, 850),
                (902, 900),
                (1076, 950),
                (1324, 1012),
                (1574, 1075),
                (1863, 1150),
                (2150, 1250),
            ],
            SocModel::MidRange => &[(400, 850), (800, 950), (1100, 1050), (1400, 1150)],
        };
        OppTable::from_mhz_mv(pairs).expect("preset tables are valid")
    }

    /// The power model for the media cluster.
    pub fn power_model(self) -> CmosPowerModel {
        match self {
            // Peak ≈ 0.9e-9 · 1.212² · 1.6e9 + 0.25·1.212 ≈ 2.4 W.
            SocModel::BigLittle2013 => CmosPowerModel::new(0.9e-9, 0.25, 0.08),
            // Peak ≈ 0.75e-9 · 1.25² · 2.15e9 + 0.30·1.25 ≈ 2.9 W.
            SocModel::Flagship2016 => CmosPowerModel::new(0.75e-9, 0.30, 0.10),
            // Peak ≈ 0.8e-9 · 1.15² · 1.4e9 + 0.18·1.15 ≈ 1.7 W.
            SocModel::MidRange => CmosPowerModel::new(0.8e-9, 0.18, 0.06),
        }
    }

    /// The idle-state ladder.
    pub fn cstates(self) -> CStateTable {
        let wfi_w = match self {
            SocModel::BigLittle2013 => 0.22,
            SocModel::Flagship2016 => 0.25,
            SocModel::MidRange => 0.15,
        };
        CStateTable::mobile_default(wfi_w)
    }

    /// Frequency-transition latency (PLL relock + voltage ramp).
    pub fn transition_latency(self) -> SimDuration {
        match self {
            SocModel::BigLittle2013 => SimDuration::from_micros(100),
            SocModel::Flagship2016 => SimDuration::from_micros(50),
            SocModel::MidRange => SimDuration::from_micros(150),
        }
    }

    /// Cores in the media cluster.
    pub fn num_cores(self) -> usize {
        match self {
            SocModel::BigLittle2013 => 4,
            SocModel::Flagship2016 => 2,
            SocModel::MidRange => 4,
        }
    }

    /// A fresh [`ClusterConfig`] for the media cluster, starting at the
    /// slowest OPP (as after boot with `powersave` briefly in force).
    pub fn cluster_config(self) -> ClusterConfig {
        let opps = self.opp_table();
        ClusterConfig {
            name: self.name(),
            initial_index: 0,
            power: self.power_model(),
            cstates: self.cstates(),
            num_cores: self.num_cores(),
            transition_latency: self.transition_latency(),
            opps,
        }
    }

    /// Builds the media cluster directly.
    pub fn build_cluster(self) -> Cluster {
        Cluster::new(self.cluster_config())
    }

    /// The LITTLE (efficiency) cluster's OPP table.
    pub fn little_opp_table(self) -> OppTable {
        let pairs: &[(u32, u32)] = match self {
            // A7-class companion cluster.
            SocModel::BigLittle2013 => &[
                (500, 900),
                (600, 925),
                (700, 950),
                (800, 1000),
                (1000, 1050),
                (1200, 1125),
            ],
            // Kryo power cluster (lower ceiling, same low rungs).
            SocModel::Flagship2016 => &[
                (307, 775),
                (422, 800),
                (556, 825),
                (729, 850),
                (902, 900),
                (1132, 950),
                (1363, 1025),
                (1593, 1100),
            ],
            SocModel::MidRange => &[(400, 850), (600, 900), (800, 950), (1000, 1000)],
        };
        OppTable::from_mhz_mv(pairs).expect("preset tables are valid")
    }

    /// The LITTLE cluster's power model (smaller cores: lower switched
    /// capacitance and leakage).
    pub fn little_power_model(self) -> CmosPowerModel {
        match self {
            SocModel::BigLittle2013 => CmosPowerModel::new(0.30e-9, 0.08, 0.03),
            SocModel::Flagship2016 => CmosPowerModel::new(0.35e-9, 0.10, 0.04),
            SocModel::MidRange => CmosPowerModel::new(0.35e-9, 0.07, 0.03),
        }
    }

    /// The LITTLE cluster's name.
    pub fn little_name(self) -> &'static str {
        match self {
            SocModel::BigLittle2013 => "biglittle2013-little",
            SocModel::Flagship2016 => "flagship2016-little",
            SocModel::MidRange => "midrange-little",
        }
    }

    /// A fresh [`ClusterConfig`] for the LITTLE cluster.
    pub fn little_cluster_config(self) -> ClusterConfig {
        let opps = self.little_opp_table();
        ClusterConfig {
            name: self.little_name(),
            initial_index: 0,
            power: self.little_power_model(),
            cstates: CStateTable::mobile_default(match self {
                SocModel::BigLittle2013 => 0.08,
                SocModel::Flagship2016 => 0.10,
                SocModel::MidRange => 0.07,
            }),
            num_cores: 4,
            transition_latency: self.transition_latency(),
            opps,
        }
    }

    /// Builds the LITTLE cluster directly.
    pub fn build_little_cluster(self) -> Cluster {
        Cluster::new(self.little_cluster_config())
    }
}

impl std::fmt::Display for SocModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_build() {
        for soc in SocModel::ALL {
            let cluster = soc.build_cluster();
            assert!(cluster.opps().len() >= 4, "{soc} table too small");
            assert!(cluster.num_cores() >= 2);
        }
    }

    #[test]
    fn peak_power_in_phone_range() {
        for soc in SocModel::ALL {
            let table = soc.opp_table();
            let power = soc.power_model();
            let peak = power.active_power(table.opp(table.max_index()));
            assert!(
                (1.0..4.0).contains(&peak),
                "{soc}: peak power {peak:.2} W outside phone range"
            );
            let floor = power.active_power(table.opp(0));
            assert!(floor < peak / 2.0, "{soc}: insufficient dynamic range");
        }
    }

    #[test]
    fn dynamic_energy_per_cycle_grows_with_frequency() {
        // Dynamic energy/cycle = Ceff·V² strictly increases with the OPP
        // (voltage ramps with frequency). Total energy/cycle is U-shaped
        // because leakage-per-cycle shrinks with f — that interior optimum
        // is the crux of the paper, asserted separately below.
        for soc in SocModel::ALL {
            let table = soc.opp_table();
            let power = soc.power_model();
            let mut last = 0.0;
            for opp in table.iter() {
                let e_dyn = power.dynamic_power(*opp) / opp.freq.hz() as f64;
                assert!(
                    e_dyn > last,
                    "{soc}: dynamic energy/cycle not increasing at {opp}"
                );
                last = e_dyn;
            }
        }
    }

    #[test]
    fn top_opp_is_never_the_energy_per_cycle_optimum() {
        // The fastest OPP must cost more energy per cycle than the best
        // OPP in the table — otherwise racing to max would be free and the
        // paper's approach pointless on this model.
        for soc in SocModel::ALL {
            let table = soc.opp_table();
            let power = soc.power_model();
            let e: Vec<f64> = table
                .iter()
                .map(|o| power.active_power(*o) / o.freq.hz() as f64)
                .collect();
            let best = e.iter().cloned().fold(f64::INFINITY, f64::min);
            let top = *e.last().expect("non-empty");
            assert!(
                top > best * 1.15,
                "{soc}: top OPP within 15% of optimal energy/cycle ({e:?})"
            );
        }
    }

    #[test]
    fn little_clusters_build_and_are_cheaper_per_cycle_at_shared_rungs() {
        for soc in SocModel::ALL {
            let little = soc.build_little_cluster();
            assert!(little.opps().len() >= 4);
            // At any frequency both clusters offer, the LITTLE core is
            // cheaper — the premise of big.LITTLE.
            let big_table = soc.opp_table();
            let big_power = soc.power_model();
            let little_table = soc.little_opp_table();
            let little_power = soc.little_power_model();
            for opp in little_table.iter() {
                if let Some(big_idx) = big_table.index_of(opp.freq) {
                    let big_opp = big_table.opp(big_idx);
                    assert!(
                        little_power.active_power(*opp) < big_power.active_power(big_opp),
                        "{soc}: LITTLE not cheaper at {}",
                        opp.freq
                    );
                }
            }
            // But its ceiling is lower.
            assert!(little_table.max_freq() < big_table.max_freq());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = SocModel::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SocModel::ALL.len());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(SocModel::Flagship2016.to_string(), "flagship2016");
    }
}
