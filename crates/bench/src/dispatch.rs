//! Shared workload for the governor dispatch micro-benchmarks.
//!
//! Three code paths make one baseline-governor decision per lane per
//! step, over identical deterministic load streams:
//!
//! * **dyn**  — `Box<dyn CpufreqGovernor>::on_sample`, the extension
//!   escape hatch: an indirect call per lane plus a linear `OppTable`
//!   scan per decision.
//! * **enum** — [`GovernorKind::decide`] over a cached [`DecisionLut`]:
//!   static dispatch through one predictable `match`, selection over the
//!   precomputed frequency column.
//! * **lut**  — [`DecisionLut::lookup_many`] over a contiguous target
//!   column, the struct-of-arrays form for many sessions of one
//!   governor. This is the selection primitive alone
//!   (targets are precomputed), so it bounds the other two from below.
//!
//! The same lane state and stream drive both the `governor_dispatch`
//! criterion bench and the `governor_dispatch` object in
//! `BENCH_sim.json`, so the two reports measure the same thing.

use eavs_cpu::cluster::PolicyLimits;
use eavs_cpu::load::LoadSample;
use eavs_cpu::opp::{OppIndex, OppTable};
use eavs_cpu::soc::SocModel;
use eavs_governors::{by_name, CpufreqGovernor, DecisionLut, GovernorKind, BASELINE_NAMES};
use eavs_sim::time::{SimDuration, SimTime};

/// Lane widths the dispatch comparison is run at.
pub const WIDTHS: [usize; 3] = [1, 8, 64];

/// One width's worth of dispatch lanes: the same governor sequence held
/// three ways, stepped over the same deterministic load stream.
pub struct DispatchLanes {
    table: OppTable,
    limits: PolicyLimits,
    lut: DecisionLut,
    dyn_lanes: Vec<(Box<dyn CpufreqGovernor>, OppIndex)>,
    enum_lanes: Vec<(GovernorKind, OppIndex)>,
    targets: Vec<f64>,
    out: Vec<OppIndex>,
    step: u64,
}

impl DispatchLanes {
    /// Builds `width` lanes cycling through every baseline governor.
    pub fn new(width: usize) -> Self {
        let table = SocModel::Flagship2016.opp_table();
        let limits = PolicyLimits::full(&table);
        let lut = DecisionLut::build(&table, limits);
        let start = limits.min_index;
        let dyn_lanes = (0..width)
            .map(|i| {
                let name = BASELINE_NAMES[i % BASELINE_NAMES.len()];
                (by_name(name).expect("baseline exists"), start)
            })
            .collect();
        let enum_lanes = (0..width)
            .map(|i| {
                let name = BASELINE_NAMES[i % BASELINE_NAMES.len()];
                (GovernorKind::by_name(name).expect("baseline exists"), start)
            })
            .collect();
        DispatchLanes {
            table,
            limits,
            lut,
            dyn_lanes,
            enum_lanes,
            targets: vec![0.0; width],
            out: vec![0; width],
            step: 0,
        }
    }

    /// The deterministic load stream: lane `i` at step `t`.
    fn sample(&self, t: u64, lane: usize, cur_index: OppIndex) -> LoadSample {
        let busy = ((t * 37 + lane as u64 * 13) % 101) as f64 / 100.0;
        LoadSample {
            now: SimTime::from_millis(t * 10),
            window: SimDuration::from_millis(10),
            busy_fraction: busy,
            cur_freq: self.table.freq(cur_index),
            cur_index,
        }
    }

    /// One decision per lane through the trait objects. Returns the sum
    /// of chosen indices (for `black_box`).
    pub fn step_dyn(&mut self) -> usize {
        let t = self.step;
        self.step += 1;
        let mut sum = 0;
        for lane in 0..self.dyn_lanes.len() {
            let s = self.sample(t, lane, self.dyn_lanes[lane].1);
            let (g, cur) = &mut self.dyn_lanes[lane];
            let idx = g.on_sample(&s, &self.table, self.limits);
            *cur = idx;
            sum += idx;
        }
        sum
    }

    /// One decision per lane through the enum kernel and the cached LUT.
    pub fn step_enum(&mut self) -> usize {
        let t = self.step;
        self.step += 1;
        let mut sum = 0;
        for lane in 0..self.enum_lanes.len() {
            let s = self.sample(t, lane, self.enum_lanes[lane].1);
            let (g, cur) = &mut self.enum_lanes[lane];
            let idx = g.decide(&s, &self.lut);
            *cur = idx;
            sum += idx;
        }
        sum
    }

    /// One frequency selection per lane over the contiguous target
    /// column — the vectorized selection primitive.
    pub fn step_lut(&mut self) -> usize {
        let t = self.step;
        self.step += 1;
        let hw_max = self.lut.hw_max_khz();
        for (lane, target) in self.targets.iter_mut().enumerate() {
            let busy = ((t * 37 + lane as u64 * 13) % 101) as f64 / 100.0;
            *target = busy * hw_max;
        }
        self.lut.lookup_many(&self.targets, &mut self.out);
        self.out.iter().sum()
    }

    /// Lane count.
    pub fn width(&self) -> usize {
        self.out.len()
    }
}

/// Best-of-`reps` nanoseconds per decision for (dyn, enum, lut) at one
/// width, timing `steps` sweeps per rep. Used by `bench_report` to fold
/// the dispatch comparison into `BENCH_sim.json`; the criterion bench
/// measures the same [`DispatchLanes`] steps with its own loop.
pub fn measure_ns_per_decision(width: usize, steps: u64, reps: u32) -> (f64, f64, f64) {
    let mut lanes = DispatchLanes::new(width);
    let decisions = (steps * width as u64) as f64;
    let mut time = |f: &mut dyn FnMut(&mut DispatchLanes) -> usize| {
        // Warm-up sweep, then best-of-reps timed sweeps.
        for _ in 0..steps / 4 {
            std::hint::black_box(f(&mut lanes));
        }
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let started = std::time::Instant::now();
            for _ in 0..steps {
                std::hint::black_box(f(&mut lanes));
            }
            best = best.min(started.elapsed().as_nanos() as f64 / decisions);
        }
        best
    };
    let dyn_ns = time(&mut |l| l.step_dyn());
    let enum_ns = time(&mut |l| l.step_enum());
    let lut_ns = time(&mut |l| l.step_lut());
    (dyn_ns, enum_ns, lut_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dyn and enum lanes must agree decision-for-decision — the
    /// bench compares dispatch cost, not different answers.
    #[test]
    fn dyn_and_enum_streams_agree() {
        for width in WIDTHS {
            let mut lanes = DispatchLanes::new(width);
            for _ in 0..100 {
                let t = lanes.step;
                let a = lanes.step_dyn();
                lanes.step = t; // rewind so both paths see the same stream
                let b = lanes.step_enum();
                assert_eq!(a, b, "width {width} diverged at step {t}");
            }
        }
    }
}
