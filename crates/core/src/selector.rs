//! Deadline-driven minimal-frequency selection.
//!
//! The core scheduling rule of EAVS: given the pending decode work items
//! and their display deadlines, compute the *required clock rate* — the
//! maximum over work-item prefixes of `cumulative cycles / time to that
//! item's deadline` — and pick the slowest OPP that meets it with a safety
//! margin. Down-switch hysteresis keeps transition counts (and their
//! latency/energy cost) bounded when demand hovers between two OPPs.

use eavs_cpu::cluster::PolicyLimits;
use eavs_cpu::freq::Cycles;
use eavs_cpu::opp::{OppIndex, OppTable};
use eavs_cpu::power::PowerModel;
use eavs_sim::time::SimTime;

/// One pending work item: cycles that must retire by a deadline.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DemandItem {
    /// Predicted cycles of this item.
    pub cycles: Cycles,
    /// Display deadline of this item.
    pub deadline: SimTime,
}

/// The required clock rate in Hz to finish every prefix of `items`
/// (ordered by deadline) on time, starting at `now`. Returns
/// `f64::INFINITY` if any non-empty prefix is already due or overdue.
///
/// Items must be sorted by deadline; in a decode pipeline they naturally
/// are (frames display in order).
pub fn required_hz(now: SimTime, items: &[DemandItem]) -> f64 {
    required_hz_split(now, None, items)
}

/// [`required_hz`] over `head` followed by `tail`, without assembling
/// the concatenated list: the same additions, divisions and `max`es in
/// the same order, so the result is bit-identical.
pub fn required_hz_split(now: SimTime, head: Option<DemandItem>, tail: &[DemandItem]) -> f64 {
    // `Chain::try_fold` runs one loop per part, not one branchy loop.
    head.iter()
        .chain(tail)
        .try_fold((0.0, 0.0_f64), |(cum, worst), item| {
            let cum = cum + item.cycles.get();
            if cum <= 0.0 {
                return Some((cum, worst));
            }
            match item.deadline.checked_duration_since(now) {
                Some(slack) if !slack.is_zero() => {
                    Some((cum, worst.max(cum / slack.as_secs_f64())))
                }
                // Due or overdue: no finite rate meets it.
                _ => None,
            }
        })
        .map_or(f64::INFINITY, |(_, worst)| worst)
}

/// The *critical speed* of an OPP table under a power model: the index
/// minimizing marginal energy per cycle, `(P_active(opp) − P_idle)/f`,
/// where `P_idle` is the power the core would draw sleeping instead
/// (deep-idle power for video-scale gaps).
///
/// Below this speed, running *slower* costs **more** energy for the same
/// work (leakage/static power is paid for longer) — so a deadline-driven
/// governor should never select an OPP below it while work is pending;
/// racing to the critical speed and sleeping deeply dominates. This is
/// the energy floor the EAVS governor clamps to (ablated in F13).
pub fn critical_speed_index(
    table: &OppTable,
    power: &dyn PowerModel,
    deep_idle_w: f64,
) -> OppIndex {
    let mut best = 0;
    let mut best_e = f64::INFINITY;
    for (i, opp) in table.iter().enumerate() {
        let marginal = (power.active_power(*opp) - deep_idle_w).max(0.0);
        let e_per_cycle = marginal / opp.freq.hz() as f64;
        if e_per_cycle < best_e {
            best_e = e_per_cycle;
            best = i;
        }
    }
    best
}

/// Margin-and-hysteresis OPP selection.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OppSelector {
    /// Fractional headroom applied to the required rate (0.15 = 15 %).
    margin: f64,
    /// Consecutive decisions a *lower* target must persist before the
    /// selector actually steps down. Up-switches are immediate.
    down_hysteresis: u32,
    /// Pending lower target and how many times it has been confirmed.
    down_pending: Option<(OppIndex, u32)>,
}

impl OppSelector {
    /// Creates a selector.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is negative or not finite.
    pub fn new(margin: f64, down_hysteresis: u32) -> Self {
        assert!(margin.is_finite() && margin >= 0.0, "bad margin {margin}");
        OppSelector {
            margin,
            down_hysteresis,
            down_pending: None,
        }
    }

    /// The configured margin.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Selects the OPP for a required rate, relative to the current index.
    pub fn select(
        &mut self,
        table: &OppTable,
        limits: PolicyLimits,
        cur: OppIndex,
        required: f64,
    ) -> OppIndex {
        let raw = if required.is_infinite() {
            limits.max_index
        } else {
            let padded_khz = required * (1.0 + self.margin) / 1000.0;
            let mut idx = limits.max_index;
            for i in limits.min_index..=limits.max_index {
                if table.freq(i).khz() as f64 >= padded_khz {
                    idx = i;
                    break;
                }
            }
            idx
        };
        let raw = limits.clamp(raw);
        if raw >= cur {
            // Up (or hold): immediate, clear any pending down-switch.
            self.down_pending = None;
            return raw;
        }
        // Down: require persistence.
        match self.down_pending {
            Some((idx, count)) if idx >= raw => {
                // The pending (or a higher) target keeps being justified.
                let count = count + 1;
                if count >= self.down_hysteresis {
                    self.down_pending = None;
                    idx.max(raw)
                } else {
                    self.down_pending = Some((idx.max(raw), count));
                    cur
                }
            }
            _ => {
                if self.down_hysteresis <= 1 {
                    self.down_pending = None;
                    raw
                } else {
                    self.down_pending = Some((raw, 1));
                    cur
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> OppTable {
        OppTable::from_mhz_mv(&[(500, 900), (1000, 1000), (1500, 1100), (2000, 1250)]).unwrap()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn item(mcycles: f64, deadline_ms: u64) -> DemandItem {
        DemandItem {
            cycles: Cycles::from_mega(mcycles),
            deadline: t(deadline_ms),
        }
    }

    #[test]
    fn required_rate_single_item() {
        // 10 Mcycles due in 10 ms -> 1 GHz.
        let hz = required_hz(t(0), &[item(10.0, 10)]);
        assert!((hz - 1e9).abs() < 1.0);
    }

    #[test]
    fn required_rate_is_prefix_max() {
        // First item easy (1 Mcycle / 100 ms), second tight:
        // cum 21 Mcycles by 120 ms -> 175 MHz; but a third item with huge
        // cycles and a tight deadline dominates.
        let items = [item(1.0, 100), item(20.0, 120), item(50.0, 125)];
        let hz = required_hz(t(0), &items);
        let expect = (71e6) / 0.125;
        assert!((hz - expect).abs() / expect < 1e-9, "hz={hz}");
    }

    #[test]
    fn overdue_items_demand_infinity() {
        assert_eq!(required_hz(t(10), &[item(1.0, 10)]), f64::INFINITY);
        assert_eq!(required_hz(t(20), &[item(1.0, 10)]), f64::INFINITY);
    }

    #[test]
    fn empty_demand_is_zero() {
        assert_eq!(required_hz(t(0), &[]), 0.0);
    }

    #[test]
    fn zero_cycles_items_are_free() {
        let items = [DemandItem {
            cycles: Cycles::ZERO,
            deadline: t(0), // overdue but empty
        }];
        assert_eq!(required_hz(t(5), &items), 0.0);
    }

    #[test]
    fn selector_picks_minimal_opp_with_margin() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut sel = OppSelector::new(0.15, 1);
        // 800 MHz required × 1.15 = 920 MHz -> 1000 MHz OPP.
        assert_eq!(sel.select(&tbl, limits, 0, 800e6), 1);
        // 900 MHz × 1.15 = 1035 -> 1500 OPP.
        assert_eq!(sel.select(&tbl, limits, 0, 900e6), 2);
        // Demand beyond the table -> max.
        assert_eq!(sel.select(&tbl, limits, 0, 5e9), 3);
        assert_eq!(sel.select(&tbl, limits, 0, f64::INFINITY), 3);
    }

    #[test]
    fn up_switch_is_immediate_down_needs_persistence() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut sel = OppSelector::new(0.0, 3);
        // From 500 MHz, demand jumps -> up immediately.
        assert_eq!(sel.select(&tbl, limits, 0, 1.9e9), 3);
        // Demand drops: held for 2 decisions, drops on the 3rd.
        assert_eq!(sel.select(&tbl, limits, 3, 400e6), 3);
        assert_eq!(sel.select(&tbl, limits, 3, 400e6), 3);
        assert_eq!(sel.select(&tbl, limits, 3, 400e6), 0);
    }

    #[test]
    fn up_blip_resets_down_hysteresis() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut sel = OppSelector::new(0.0, 2);
        assert_eq!(sel.select(&tbl, limits, 3, 400e6), 3);
        // A demand spike cancels the pending down-switch.
        assert_eq!(sel.select(&tbl, limits, 3, 1.9e9), 3);
        assert_eq!(sel.select(&tbl, limits, 3, 400e6), 3, "counter restarted");
        assert_eq!(sel.select(&tbl, limits, 3, 400e6), 0);
    }

    #[test]
    fn selector_respects_limits() {
        let tbl = table();
        let limits = PolicyLimits {
            min_index: 1,
            max_index: 2,
        };
        let mut sel = OppSelector::new(0.1, 1);
        assert_eq!(sel.select(&tbl, limits, 1, 0.0), 1);
        assert_eq!(sel.select(&tbl, limits, 1, 9e9), 2);
    }

    #[test]
    fn critical_speed_is_interior_with_deep_idle() {
        use eavs_cpu::power::CmosPowerModel;
        use eavs_cpu::soc::SocModel;
        // With deep idle nearly free, the U-shape has an interior minimum
        // on the flagship table (see F1): not the lowest OPP.
        let soc = SocModel::Flagship2016;
        let tbl = soc.opp_table();
        let power = soc.power_model();
        let deep = soc.cstates().iter().last().expect("states").power_w;
        let idx = critical_speed_index(&tbl, &power, deep);
        assert!(idx > 0, "critical speed should be above the floor OPP");
        assert!(idx < tbl.max_index(), "and below the top OPP");
        // With idle as expensive as WFI leakage, pacing low wins: the
        // critical speed collapses toward the floor.
        let shallow = critical_speed_index(&tbl, &power, 0.25);
        assert!(shallow <= idx);
        // A leakage-free model has monotone energy/cycle: floor optimal.
        let ideal = CmosPowerModel::new(1e-9, 0.0, 0.0);
        assert_eq!(critical_speed_index(&tbl, &ideal, 0.0), 0);
    }

    #[test]
    fn larger_margin_selects_no_slower() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        for required in [100e6, 430e6, 870e6, 1.3e9, 1.7e9] {
            let mut tight = OppSelector::new(0.0, 1);
            let mut safe = OppSelector::new(0.3, 1);
            assert!(
                safe.select(&tbl, limits, 0, required) >= tight.select(&tbl, limits, 0, required)
            );
        }
    }
}
