//! The devirtualized governor decision kernel.
//!
//! [`GovernorKind`] is a closed enum over every baseline governor. Where
//! `Box<dyn CpufreqGovernor>` costs an indirect call per sample — opaque
//! to the inliner and the branch predictor — the enum dispatches through
//! a single predictable `match` and each arm inlines the governor's
//! decision over a [`DecisionLut`]: the per-OPP frequencies of the active
//! `OppTable × PolicyLimits` window, precomputed once as a contiguous
//! `f64` column. Frequency selection then becomes a branchless count of
//! entries below the target, which the compiler autovectorizes.
//!
//! Every decision is bit-identical to the trait path: the LUT preserves
//! the exact `freq as f64 >= target` comparisons of
//! [`lowest_index_for_khz`](crate::governor::lowest_index_for_khz)
//! (as `!(freq < target)` over the same values), and the enum arms reuse
//! the governors' own mutable state. The trait object remains the
//! extension escape hatch for governors outside this crate;
//! `tests/kind_equivalence.rs` proves enum ≡ dyn over random streams.

use crate::conservative::Conservative;
use crate::governor::CpufreqGovernor;
use crate::interactive::Interactive;
use crate::ondemand::Ondemand;
use crate::schedutil::Schedutil;
use crate::static_govs::{Performance, Powersave, Userspace};
use eavs_cpu::cluster::PolicyLimits;
use eavs_cpu::load::LoadSample;
use eavs_cpu::opp::{OppIndex, OppTable};
use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::time::SimDuration;

/// Precomputed per-OPP decision table for one `OppTable × PolicyLimits`
/// window.
///
/// Holds every table frequency as `f64` kHz in a contiguous column plus
/// the limit window, so a governor decision needs no `OppTable` access
/// and no integer→float conversion on the hot path. Build once per
/// policy window and revalidate with [`matches`](Self::matches) — limits
/// move under thermal throttling, tables never change mid-session.
#[derive(Clone, Debug)]
pub struct DecisionLut {
    /// `table.freq(i).khz() as f64` for every OPP, full table.
    khz: Box<[f64]>,
    /// `table.max_freq().khz() as f64` — the hardware (not policy) max.
    hw_max_khz: f64,
    min_index: OppIndex,
    max_index: OppIndex,
}

impl DecisionLut {
    /// Builds the table for one policy window.
    pub fn build(table: &OppTable, limits: PolicyLimits) -> Self {
        let khz: Box<[f64]> = (0..=table.max_index())
            .map(|i| table.freq(i).khz() as f64)
            .collect();
        DecisionLut {
            khz,
            hw_max_khz: table.max_freq().khz() as f64,
            min_index: limits.min_index,
            max_index: limits.max_index,
        }
    }

    /// Whether the cached window still describes `table × limits`.
    #[inline]
    pub fn matches(&self, table: &OppTable, limits: PolicyLimits) -> bool {
        self.min_index == limits.min_index
            && self.max_index == limits.max_index
            && self.khz.len() == table.max_index() + 1
    }

    /// Lowest in-window index whose frequency is at least `target_khz`
    /// (the window max when none is) — bit-identical to
    /// [`lowest_index_for_khz`](crate::governor::lowest_index_for_khz),
    /// as a branchless count the compiler vectorizes.
    #[inline]
    pub fn lookup(&self, target_khz: f64) -> OppIndex {
        let mut below = 0usize;
        for &f in &self.khz[self.min_index..=self.max_index] {
            below += usize::from(f < target_khz);
        }
        (self.min_index + below).min(self.max_index)
    }

    /// [`lookup`](Self::lookup) over a contiguous column of targets —
    /// the struct-of-arrays form for many sessions of one governor.
    pub fn lookup_many(&self, targets: &[f64], out: &mut [OppIndex]) {
        for (t, o) in targets.iter().zip(out.iter_mut()) {
            *o = self.lookup(*t);
        }
    }

    /// The cached frequency of an OPP, in kHz.
    #[inline]
    pub fn khz_at(&self, idx: OppIndex) -> f64 {
        self.khz[idx]
    }

    /// The hardware maximum frequency, in kHz (ignores limits).
    #[inline]
    pub fn hw_max_khz(&self) -> f64 {
        self.hw_max_khz
    }

    /// The window's lowest selectable index.
    #[inline]
    pub fn min_index(&self) -> OppIndex {
        self.min_index
    }

    /// The window's highest selectable index.
    #[inline]
    pub fn max_index(&self) -> OppIndex {
        self.max_index
    }

    /// Clamps an index into the window.
    #[inline]
    pub fn clamp(&self, idx: OppIndex) -> OppIndex {
        idx.clamp(self.min_index, self.max_index)
    }
}

/// Caches a [`DecisionLut`] across samples, rebuilding only when the
/// policy window moves (thermal limit changes) — the glue a session
/// keeps next to its [`GovernorKind`].
#[derive(Clone, Debug, Default)]
pub struct LutCache(Option<DecisionLut>);

impl LutCache {
    /// The LUT for `table × limits`, rebuilt if the window changed.
    #[inline]
    pub fn get(&mut self, table: &OppTable, limits: PolicyLimits) -> &DecisionLut {
        if !self.0.as_ref().is_some_and(|l| l.matches(table, limits)) {
            self.0 = Some(DecisionLut::build(table, limits));
        }
        self.0.as_ref().expect("just built")
    }
}

/// A baseline governor as a closed enum: static dispatch over the exact
/// same governor state the trait objects carry.
#[derive(Clone, Debug)]
pub enum GovernorKind {
    /// [`Performance`].
    Performance(Performance),
    /// [`Powersave`].
    Powersave(Powersave),
    /// [`Userspace`].
    Userspace(Userspace),
    /// [`Ondemand`].
    Ondemand(Ondemand),
    /// [`Conservative`].
    Conservative(Conservative),
    /// [`Interactive`].
    Interactive(Interactive),
    /// [`Schedutil`].
    Schedutil(Schedutil),
}

macro_rules! each_kind {
    ($self:expr, $g:ident => $body:expr) => {
        match $self {
            GovernorKind::Performance($g) => $body,
            GovernorKind::Powersave($g) => $body,
            GovernorKind::Userspace($g) => $body,
            GovernorKind::Ondemand($g) => $body,
            GovernorKind::Conservative($g) => $body,
            GovernorKind::Interactive($g) => $body,
            GovernorKind::Schedutil($g) => $body,
        }
    };
}

impl GovernorKind {
    /// Constructs a baseline governor by sysfs name, with default
    /// tunables — the enum counterpart of [`crate::by_name`]. Returns
    /// `None` for unknown names.
    pub fn by_name(name: &str) -> Option<GovernorKind> {
        Some(match name {
            "performance" => GovernorKind::Performance(Performance),
            "powersave" => GovernorKind::Powersave(Powersave),
            "userspace" => GovernorKind::Userspace(Userspace::new(0)),
            "ondemand" => GovernorKind::Ondemand(Ondemand::new()),
            "conservative" => GovernorKind::Conservative(Conservative::new()),
            "interactive" => GovernorKind::Interactive(Interactive::new()),
            "schedutil" => GovernorKind::Schedutil(Schedutil::new()),
            _ => return None,
        })
    }

    /// The governor's sysfs name.
    pub fn name(&self) -> &'static str {
        each_kind!(self, g => CpufreqGovernor::name(g))
    }

    /// How often the governor wants to be sampled.
    pub fn sampling_interval(&self) -> SimDuration {
        each_kind!(self, g => CpufreqGovernor::sampling_interval(g))
    }

    /// Hashes identity and tunables — byte-identical to the trait
    /// object's fingerprint, so memo keys are dispatch-agnostic.
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        each_kind!(self, g => CpufreqGovernor::fingerprint(g, fp))
    }

    /// The OPP index selected at governor start.
    pub fn initial_index(&self, table: &OppTable, limits: PolicyLimits) -> OppIndex {
        each_kind!(self, g => CpufreqGovernor::initial_index(g, table, limits))
    }

    /// One decision over the precomputed LUT — bit-identical to the
    /// trait path's `on_sample` for the window the LUT was built from.
    #[inline]
    pub fn decide(&mut self, sample: &LoadSample, lut: &DecisionLut) -> OppIndex {
        match self {
            GovernorKind::Performance(_) => lut.max_index(),
            GovernorKind::Powersave(_) => lut.min_index(),
            GovernorKind::Userspace(g) => lut.clamp(g.speed()),
            GovernorKind::Ondemand(g) => g.decide_lut(sample, lut),
            GovernorKind::Conservative(g) => g.decide_lut(sample, lut),
            GovernorKind::Interactive(g) => g.decide_lut(sample, lut),
            GovernorKind::Schedutil(g) => g.decide_lut(sample, lut),
        }
    }

    /// Trait-shaped entry point: builds a throwaway LUT per call. Use
    /// [`decide`](Self::decide) with a [`LutCache`] on hot paths; this
    /// exists for drop-in parity tests and cold call sites.
    pub fn on_sample(
        &mut self,
        sample: &LoadSample,
        table: &OppTable,
        limits: PolicyLimits,
    ) -> OppIndex {
        let lut = DecisionLut::build(table, limits);
        self.decide(sample, &lut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BASELINE_NAMES;
    use eavs_sim::time::SimTime;

    fn table() -> OppTable {
        OppTable::from_mhz_mv(&[(500, 900), (1000, 1000), (1500, 1100), (2000, 1250)]).unwrap()
    }

    fn sample(load_pct: f64, cur_index: OppIndex, t_ms: u64, table: &OppTable) -> LoadSample {
        LoadSample {
            now: SimTime::from_millis(t_ms),
            window: SimDuration::from_millis(10),
            busy_fraction: load_pct / 100.0,
            cur_freq: table.freq(cur_index),
            cur_index,
        }
    }

    #[test]
    fn by_name_covers_all_baselines() {
        for name in BASELINE_NAMES {
            let k = GovernorKind::by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(k.name(), name);
        }
        assert!(GovernorKind::by_name("eavs").is_none());
    }

    #[test]
    fn lut_lookup_matches_linear_scan() {
        let t = table();
        for limits in [
            PolicyLimits::full(&t),
            PolicyLimits {
                min_index: 1,
                max_index: 2,
            },
            PolicyLimits {
                min_index: 2,
                max_index: 2,
            },
        ] {
            let lut = DecisionLut::build(&t, limits);
            for target in [
                -1.0,
                0.0,
                250_000.0,
                499_999.0,
                500_000.0,
                500_001.0,
                999_999.9,
                1_000_000.0,
                1_500_000.0,
                1_999_999.0,
                2_000_000.0,
                5_000_000.0,
            ] {
                assert_eq!(
                    lut.lookup(target),
                    crate::governor::lowest_index_for_khz(&t, limits, target),
                    "target {target} limits {limits:?}"
                );
            }
        }
    }

    #[test]
    fn lut_matches_tracks_limit_changes() {
        let t = table();
        let full = PolicyLimits::full(&t);
        let lut = DecisionLut::build(&t, full);
        assert!(lut.matches(&t, full));
        assert!(!lut.matches(
            &t,
            PolicyLimits {
                min_index: 0,
                max_index: 2
            }
        ));
    }

    #[test]
    fn lut_cache_rebuilds_only_on_window_change() {
        let t = table();
        let mut cache = LutCache::default();
        let full = PolicyLimits::full(&t);
        assert_eq!(cache.get(&t, full).max_index(), 3);
        let narrowed = PolicyLimits {
            min_index: 0,
            max_index: 1,
        };
        assert_eq!(cache.get(&t, narrowed).max_index(), 1);
        assert_eq!(cache.get(&t, full).max_index(), 3);
    }

    #[test]
    fn lookup_many_matches_scalar() {
        let t = table();
        let lut = DecisionLut::build(&t, PolicyLimits::full(&t));
        let targets: Vec<f64> = (0..64).map(|i| i as f64 * 40_000.0).collect();
        let mut out = vec![0usize; targets.len()];
        lut.lookup_many(&targets, &mut out);
        for (t_khz, idx) in targets.iter().zip(&out) {
            assert_eq!(*idx, lut.lookup(*t_khz));
        }
    }

    #[test]
    fn enum_tracks_dyn_over_a_mixed_stream() {
        let t = table();
        let limits = PolicyLimits::full(&t);
        for name in BASELINE_NAMES {
            let mut k = GovernorKind::by_name(name).unwrap();
            let mut d = crate::by_name(name).unwrap();
            let mut cur: OppIndex = limits.min_index;
            for step in 0..200u64 {
                let load = ((step * 37) % 101) as f64;
                let s = sample(load, cur, step * 10, &t);
                let a = k.on_sample(&s, &t, limits);
                let b = d.on_sample(&s, &t, limits);
                assert_eq!(a, b, "{name} diverged at step {step}");
                cur = a;
            }
        }
    }
}
