//! CPU power model.
//!
//! Converts an operating point and activity state into watts with one
//! model, [`CmosPowerModel`]: the analytic `P = Ceff·V²·f + P_static(V)`
//! form, the standard first-order model for CMOS dynamic power. Its
//! convexity in frequency (through the voltage/frequency curve) is what
//! makes "race-to-max" energy-suboptimal and the paper's approach win.
//! [`PowerLut`] evaluates it once per operating point for the hot path.
//!
//! All powers are per-core; cluster-shared (uncore) power is represented by
//! the model's `domain_static_w`.

use crate::opp::{Opp, OppTable};

/// First-order CMOS power model.
///
/// `P_active = ceff · V² · f + leak · V`, `P_idle = idle_frac · P_active`'s
/// leakage part only — idle cores are clock-gated so dynamic power vanishes
/// but leakage (∝ V) remains.
///
/// ```
/// use eavs_cpu::freq::{Frequency, Voltage};
/// use eavs_cpu::opp::Opp;
/// use eavs_cpu::power::CmosPowerModel;
///
/// let m = CmosPowerModel::new(0.9e-9, 0.12, 0.05);
/// let slow = Opp { freq: Frequency::from_mhz(500), volt: Voltage::from_mv(900) };
/// let fast = Opp { freq: Frequency::from_mhz(2000), volt: Voltage::from_mv(1250) };
/// assert!(m.active_power(fast) > 4.0 * m.active_power(slow)); // superlinear
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CmosPowerModel {
    /// Effective switched capacitance coefficient, in W / (V²·Hz).
    ceff: f64,
    /// Leakage coefficient in W/V (P_leak = leak · V).
    leak: f64,
    /// Domain static power in watts.
    domain_static_w: f64,
}

impl CmosPowerModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is negative or NaN.
    pub fn new(ceff: f64, leak: f64, domain_static_w: f64) -> Self {
        assert!(
            ceff.is_finite() && ceff >= 0.0,
            "bad capacitance coefficient {ceff}"
        );
        assert!(leak.is_finite() && leak >= 0.0, "bad leakage {leak}");
        assert!(
            domain_static_w.is_finite() && domain_static_w >= 0.0,
            "bad static power {domain_static_w}"
        );
        CmosPowerModel {
            ceff,
            leak,
            domain_static_w,
        }
    }

    /// The dynamic (switching) component of active power at `opp`.
    pub fn dynamic_power(&self, opp: Opp) -> f64 {
        let v = opp.volt.volts();
        self.ceff * v * v * opp.freq.hz() as f64
    }

    /// The leakage component at `opp`.
    pub fn leakage_power(&self, opp: Opp) -> f64 {
        self.leak * opp.volt.volts()
    }

    /// Power of one core actively executing at `opp`.
    pub fn active_power(&self, opp: Opp) -> f64 {
        self.dynamic_power(opp) + self.leakage_power(opp)
    }

    /// Power of one idle (clock-gated, WFI) core while the domain sits at
    /// `opp`. Voltage-dependent leakage keeps this non-zero.
    pub fn idle_power(&self, opp: Opp) -> f64 {
        self.leakage_power(opp)
    }

    /// Always-on power of the frequency domain itself (uncore, L2, PLLs),
    /// drawn whenever the cluster is powered regardless of core activity.
    pub fn domain_static_power(&self) -> f64 {
        self.domain_static_w
    }

    /// Energy cost of one frequency transition, in joules.
    pub fn transition_energy(&self) -> f64 {
        20e-6 // 20 µJ, order of magnitude from published DVFS measurements
    }
}

/// Per-OPP power lookup table derived once from a [`CmosPowerModel`].
///
/// The energy-integration hot path runs for every frame of every simulated
/// session; evaluating the analytic model (`Ceff·V²·f + leak·V`) per
/// segment is wasted work when the OPP table is fixed at cluster
/// construction. `PowerLut::derive` evaluates the model
/// once per operating point and the tick then reads plain `f64`s by index.
#[derive(Clone, Debug)]
pub struct PowerLut {
    active_w: Vec<f64>,
    idle_w: Vec<f64>,
    static_w: f64,
    transition_j: f64,
}

impl PowerLut {
    /// Evaluates `model` at every operating point of `opps`.
    pub fn derive(model: &CmosPowerModel, opps: &OppTable) -> Self {
        PowerLut {
            active_w: opps.iter().map(|&o| model.active_power(o)).collect(),
            idle_w: opps.iter().map(|&o| model.idle_power(o)).collect(),
            static_w: model.domain_static_power(),
            transition_j: model.transition_energy(),
        }
    }

    /// Active power of one core at OPP index `idx`, in watts.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the derived table.
    pub fn active_at(&self, idx: usize) -> f64 {
        self.active_w[idx]
    }

    /// Idle (clock-gated) power of one core at OPP index `idx`, in watts.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the derived table.
    pub fn idle_at(&self, idx: usize) -> f64 {
        self.idle_w[idx]
    }

    /// Always-on domain power, in watts.
    pub fn static_w(&self) -> f64 {
        self.static_w
    }

    /// Energy cost of one frequency transition, in joules.
    pub fn transition_j(&self) -> f64 {
        self.transition_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::{Frequency, Voltage};

    fn opp(mhz: u32, mv: u32) -> Opp {
        Opp {
            freq: Frequency::from_mhz(mhz),
            volt: Voltage::from_mv(mv),
        }
    }

    #[test]
    fn cmos_components() {
        let m = CmosPowerModel::new(1e-9, 0.1, 0.05);
        let o = opp(1000, 1000); // 1 GHz at 1 V
        assert!((m.dynamic_power(o) - 1.0).abs() < 1e-9); // 1e-9 * 1 * 1e9
        assert!((m.leakage_power(o) - 0.1).abs() < 1e-12);
        assert!((m.active_power(o) - 1.1).abs() < 1e-9);
        assert!((m.idle_power(o) - 0.1).abs() < 1e-12);
        assert!((m.domain_static_power() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn cmos_power_is_superlinear_in_frequency() {
        let m = CmosPowerModel::new(0.9e-9, 0.12, 0.0);
        // 4x frequency with realistic voltage scaling -> far more than 4x power.
        let p_slow = m.active_power(opp(500, 900));
        let p_fast = m.active_power(opp(2000, 1250));
        assert!(p_fast / p_slow > 4.0, "ratio {}", p_fast / p_slow);
        // Therefore energy per cycle is higher at the fast OPP:
        let e_slow = p_slow / 500e6;
        let e_fast = p_fast / 2000e6;
        assert!(e_fast > e_slow, "energy/cycle must grow with frequency");
    }

    #[test]
    fn energy_per_cycle_with_idle_makes_race_nontrivial() {
        // With non-trivial idle power, total energy for a fixed job +
        // deadline window has an interior optimum; verify at least that the
        // fastest OPP is not energy-optimal for the active+idle sum.
        let m = CmosPowerModel::new(0.9e-9, 0.12, 0.05);
        let opps = [
            opp(500, 900),
            opp(1000, 1000),
            opp(1500, 1100),
            opp(2000, 1250),
        ];
        let cycles = 5e8; // 0.5 Gcycle job
        let window = 1.0; // 1 s deadline window
        let energy = |o: Opp| {
            let busy = cycles / o.freq.hz() as f64;
            assert!(busy <= window);
            m.active_power(o) * busy + m.idle_power(o) * (window - busy)
        };
        let e: Vec<f64> = opps.iter().map(|&o| energy(o)).collect();
        let min_idx = e
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_ne!(min_idx, 3, "racing to max should not be optimal: {e:?}");
    }

    #[test]
    fn default_transition_energy_is_small() {
        let m = CmosPowerModel::new(1e-9, 0.1, 0.0);
        assert!(m.transition_energy() < 1e-3);
    }

    #[test]
    fn lut_matches_model_at_every_opp() {
        let opps =
            OppTable::from_mhz_mv(&[(500, 900), (1000, 1000), (1500, 1100), (2000, 1250)]).unwrap();
        let m = CmosPowerModel::new(0.9e-9, 0.12, 0.05);
        let lut = PowerLut::derive(&m, &opps);
        for idx in 0..opps.len() {
            let o = opps.opp(idx);
            assert_eq!(lut.active_at(idx), m.active_power(o), "active @ {idx}");
            assert_eq!(lut.idle_at(idx), m.idle_power(o), "idle @ {idx}");
        }
        assert_eq!(lut.static_w(), m.domain_static_power());
        assert_eq!(lut.transition_j(), m.transition_energy());
    }
}
