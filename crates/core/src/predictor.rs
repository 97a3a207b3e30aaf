//! Decode-workload prediction.
//!
//! The EAVS governor must know how many cycles upcoming frames will take
//! *before* decoding them. Predictors observe `(frame metadata, actual
//! cycles)` pairs after each decode — frame metadata (type and coded size)
//! is container information available before decode; actual cycles are
//! what a per-thread cycle counter reports afterwards.
//!
//! Implemented predictors, in increasing sophistication (F4 compares
//! them, F13 ablates the governor across them):
//!
//! * [`LastValue`] — per-type last observation.
//! * [`Ewma`] — per-type exponentially weighted moving average.
//! * [`WindowMax`] — per-type max over a sliding window (conservative).
//! * [`SizeRegression`] — per-type online linear regression on coded size.
//! * [`Hybrid`] — size regression blended with an EWMA correction ratio
//!   plus a variance-based safety term; the paper-grade default.

use eavs_cpu::freq::Cycles;
use eavs_sim::fingerprint::Fingerprinter;
use eavs_video::frame::{Frame, FrameType};
use std::collections::VecDeque;

/// Container-visible frame metadata (what a predictor may look at).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FrameMeta {
    /// Global decode-order index (container timeline position).
    pub index: u64,
    /// Coding type.
    pub frame_type: FrameType,
    /// Coded size in bytes.
    pub size_bytes: u32,
}

impl From<&Frame> for FrameMeta {
    fn from(f: &Frame) -> Self {
        FrameMeta {
            index: f.index,
            frame_type: f.frame_type,
            size_bytes: f.size_bytes,
        }
    }
}

/// A decode-cost predictor.
pub trait WorkloadPredictor: std::fmt::Debug + Send {
    /// Name for reports.
    fn name(&self) -> &'static str;

    /// The governor name a session report carries, `eavs/<name>`.
    /// Static, so a report holds no heap copy of it.
    fn report_label(&self) -> &'static str;

    /// Predicted decode cost of a frame with the given metadata.
    fn predict(&self, meta: FrameMeta) -> Cycles;

    /// Feeds back the measured cost after the frame was decoded.
    fn observe(&mut self, meta: FrameMeta, actual: Cycles);

    /// Offers ground-truth costs for frames about to enter the pipeline.
    /// Real predictors ignore this; the [`Oracle`] stores it. Exists so
    /// the evaluation can bound how much better a perfect predictor could
    /// do (F13's `predictor=oracle` row).
    fn preload(&mut self, frames: &[(FrameMeta, Cycles)]) {
        let _ = frames;
    }

    /// Hashes the predictor's identity and parameters into `fp` for
    /// session memoization. The default marks the fingerprint opaque;
    /// concrete predictors override it and must mark opaque once they
    /// carry observations.
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.mark_opaque();
    }

    /// Whether [`observe`](Self::observe) can only ever change the
    /// predictions of frames sharing the observed frame's `frame_type`.
    /// Every built-in predictor keeps per-type (or, for the oracle,
    /// per-index) state and answers `true`; the session's steady-demand
    /// cache then refreshes only the observed type's cached items after
    /// a decode completes instead of rebuilding the whole list. The
    /// conservative default is `false`: cross-type coupling assumed,
    /// full rebuild after every observation.
    fn observe_is_type_local(&self) -> bool {
        false
    }
}

/// Implements [`WorkloadPredictor::name`] and
/// [`WorkloadPredictor::report_label`] from one literal.
macro_rules! predictor_names {
    ($name:literal) => {
        fn name(&self) -> &'static str {
            $name
        }

        fn report_label(&self) -> &'static str {
            concat!("eavs/", $name)
        }
    };
}

/// Cold-start estimate before any observation of a type: scale from coded
/// size with a generous cycles/byte factor so early frames are not
/// under-provisioned.
fn cold_start(meta: FrameMeta) -> Cycles {
    Cycles::new((f64::from(meta.size_bytes) * 600.0).max(5e6))
}

/// Per-type last observed value.
#[derive(Clone, Debug, Default)]
pub struct LastValue {
    last: [Option<f64>; 3],
}

impl LastValue {
    /// Creates the predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WorkloadPredictor for LastValue {
    predictor_names!("last");

    fn observe_is_type_local(&self) -> bool {
        true
    }

    fn predict(&self, meta: FrameMeta) -> Cycles {
        match self.last[meta.frame_type.index()] {
            Some(v) => Cycles::new(v),
            None => cold_start(meta),
        }
    }

    fn observe(&mut self, meta: FrameMeta, actual: Cycles) {
        self.last[meta.frame_type.index()] = Some(actual.get());
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        if self.last.iter().any(Option::is_some) {
            fp.mark_opaque();
            return;
        }
        fp.write_str(self.name());
    }
}

/// Per-type exponentially weighted moving average.
#[derive(Clone, Debug)]
pub struct Ewma {
    alpha: f64,
    mean: [Option<f64>; 3],
}

impl Ewma {
    /// Creates the predictor with smoothing factor `alpha` (weight of the
    /// newest observation).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "bad EWMA alpha {alpha}");
        Ewma {
            alpha,
            mean: [None; 3],
        }
    }
}

impl Default for Ewma {
    fn default() -> Self {
        Ewma::new(0.25)
    }
}

impl WorkloadPredictor for Ewma {
    predictor_names!("ewma");

    fn observe_is_type_local(&self) -> bool {
        true
    }

    fn predict(&self, meta: FrameMeta) -> Cycles {
        match self.mean[meta.frame_type.index()] {
            Some(v) => Cycles::new(v),
            None => cold_start(meta),
        }
    }

    fn observe(&mut self, meta: FrameMeta, actual: Cycles) {
        let slot = &mut self.mean[meta.frame_type.index()];
        *slot = Some(match *slot {
            Some(m) => m + self.alpha * (actual.get() - m),
            None => actual.get(),
        });
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        if self.mean.iter().any(Option::is_some) {
            fp.mark_opaque();
            return;
        }
        fp.write_str(self.name());
        fp.write_f64(self.alpha);
    }
}

/// Per-type maximum over a sliding window of observations.
///
/// The running maximum is maintained incrementally at
/// [`observe`](WorkloadPredictor::observe) time (re-scanning the window
/// only when the evicted entry *was* the maximum), so the much more
/// frequent [`predict`](WorkloadPredictor::predict) is a single cached
/// read. The max of a set does not depend on scan order, so the cached
/// value is bit-identical to the fold the predictor used to run per call.
#[derive(Clone, Debug)]
pub struct WindowMax {
    window: usize,
    history: [VecDeque<f64>; 3],
    /// Cached per-type window maximum; NaN encodes an empty window.
    max: [f64; 3],
}

impl WindowMax {
    /// Creates the predictor with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "zero window");
        WindowMax {
            window,
            history: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            max: [f64::NAN; 3],
        }
    }
}

impl Default for WindowMax {
    fn default() -> Self {
        WindowMax::new(30)
    }
}

impl WorkloadPredictor for WindowMax {
    predictor_names!("window-max");

    fn observe_is_type_local(&self) -> bool {
        true
    }

    fn predict(&self, meta: FrameMeta) -> Cycles {
        match self.max[meta.frame_type.index()] {
            v if v.is_nan() => cold_start(meta),
            v => Cycles::new(v),
        }
    }

    fn observe(&mut self, meta: FrameMeta, actual: Cycles) {
        let i = meta.frame_type.index();
        let h = &mut self.history[i];
        let mut evicted = None;
        if h.len() == self.window {
            evicted = h.pop_front();
        }
        h.push_back(actual.get());
        let m = self.max[i];
        self.max[i] = if evicted.is_some_and(|e| e == m) {
            // The maximum may have just left the window; rescan.
            h.iter().cloned().fold(f64::NAN, f64::max)
        } else if m.is_nan() {
            actual.get()
        } else {
            m.max(actual.get())
        };
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        if self.history.iter().any(|h| !h.is_empty()) {
            fp.mark_opaque();
            return;
        }
        fp.write_str(self.name());
        fp.write_usize(self.window);
    }
}

/// Per-type online linear regression `cycles = a + b·size`.
///
/// Maintains running first and second moments; falls back to the mean when
/// size variance is degenerate.
///
/// The fitted line is refreshed once per [`observe`](WorkloadPredictor::observe)
/// and cached, so [`predict`](WorkloadPredictor::predict) — called an order
/// of magnitude more often (once per frame in the lookahead window, every
/// decision) — is a handful of flops instead of re-deriving the fit's
/// divisions each time. The cached coefficients are computed by the exact
/// same expressions the per-call fit used, so predictions are bit-identical.
#[derive(Clone, Debug, Default)]
pub struct SizeRegression {
    stats: [RegState; 3],
    fit: [Fit; 3],
}

/// The state of a cached per-type fit.
#[derive(Clone, Copy, Debug, Default)]
enum Fit {
    /// No observations yet: predictions fall back to [`cold_start`].
    #[default]
    Cold,
    /// Too few observations (or degenerate size variance): predict the
    /// per-type mean.
    Mean(f64),
    /// A trusted line, pre-clamped to the sane band around the mean.
    Line { a: f64, b: f64, lo: f64, hi: f64 },
}

impl Fit {
    /// Derives the cached fit from the raw moments — the same arithmetic,
    /// in the same order, as [`RegState::predict`] performed inline.
    fn from_state(s: &RegState) -> Fit {
        if s.n < 1.0 {
            return Fit::Cold;
        }
        let mean = s.sum_y / s.n;
        if s.n < 8.0 {
            return Fit::Mean(mean);
        }
        let var_x = s.sum_xx - s.sum_x * s.sum_x / s.n;
        if var_x < 1e-9 {
            return Fit::Mean(mean);
        }
        let cov = s.sum_xy - s.sum_x * s.sum_y / s.n;
        let b = cov / var_x;
        let a = (s.sum_y - b * s.sum_x) / s.n;
        Fit::Line {
            a,
            b,
            lo: mean / 4.0,
            hi: mean * 4.0,
        }
    }

    /// Applies the fit to a coded size; `None` means cold.
    #[inline]
    fn apply(&self, x: f64) -> Option<f64> {
        match *self {
            Fit::Cold => None,
            Fit::Mean(mean) => Some(mean),
            Fit::Line { a, b, lo, hi } => Some((a + b * x).clamp(lo, hi)),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct RegState {
    n: f64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
}

impl RegState {
    fn observe(&mut self, x: f64, y: f64) {
        self.n += 1.0;
        self.sum_x += x;
        self.sum_y += y;
        self.sum_xx += x * x;
        self.sum_xy += x * y;
    }

    /// Reference implementation of the fit, derived inline per call.
    /// Production goes through the cached [`Fit`]; this stays as the
    /// oracle the equivalence test compares against, bit for bit.
    ///
    /// With few observations a fitted line extrapolates wildly; trust
    /// the per-type mean until the fit has support, and always clamp
    /// the line's output to a sane band around the mean.
    #[cfg(test)]
    fn predict(&self, x: f64) -> Option<f64> {
        if self.n < 1.0 {
            return None;
        }
        let mean = self.sum_y / self.n;
        if self.n < 8.0 {
            return Some(mean);
        }
        let var_x = self.sum_xx - self.sum_x * self.sum_x / self.n;
        if var_x < 1e-9 {
            return Some(mean);
        }
        let cov = self.sum_xy - self.sum_x * self.sum_y / self.n;
        let b = cov / var_x;
        let a = (self.sum_y - b * self.sum_x) / self.n;
        Some((a + b * x).clamp(mean / 4.0, mean * 4.0))
    }
}

impl SizeRegression {
    /// Creates the predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WorkloadPredictor for SizeRegression {
    predictor_names!("size-regression");

    fn observe_is_type_local(&self) -> bool {
        true
    }

    fn predict(&self, meta: FrameMeta) -> Cycles {
        match self.fit[meta.frame_type.index()].apply(f64::from(meta.size_bytes)) {
            Some(v) => Cycles::new(v.max(10_000.0)),
            None => cold_start(meta),
        }
    }

    fn observe(&mut self, meta: FrameMeta, actual: Cycles) {
        let i = meta.frame_type.index();
        self.stats[i].observe(f64::from(meta.size_bytes), actual.get());
        self.fit[i] = Fit::from_state(&self.stats[i]);
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        if self.stats.iter().any(|s| s.n > 0.0) {
            fp.mark_opaque();
            return;
        }
        fp.write_str(self.name());
    }
}

/// The paper-grade predictor: per-type size regression, corrected by an
/// EWMA of the actual/predicted ratio (absorbs content drift), plus a
/// safety term proportional to the EWMA of the absolute residual (so
/// bursty content gets more headroom automatically).
#[derive(Clone, Debug)]
pub struct Hybrid {
    regression: SizeRegression,
    ratio: [f64; 3],
    residual: [f64; 3],
    ratio_alpha: f64,
    safety_sigmas: f64,
}

impl Hybrid {
    /// Creates the predictor with `safety_sigmas` residual headroom.
    ///
    /// # Panics
    ///
    /// Panics if `safety_sigmas` is negative.
    pub fn new(safety_sigmas: f64) -> Self {
        assert!(safety_sigmas >= 0.0, "negative safety");
        Hybrid {
            regression: SizeRegression::new(),
            ratio: [1.0; 3],
            residual: [0.0; 3],
            ratio_alpha: 0.2,
            safety_sigmas,
        }
    }
}

impl Default for Hybrid {
    fn default() -> Self {
        Hybrid::new(1.0)
    }
}

impl WorkloadPredictor for Hybrid {
    predictor_names!("hybrid");

    fn observe_is_type_local(&self) -> bool {
        true
    }

    fn predict(&self, meta: FrameMeta) -> Cycles {
        let base = self.regression.predict(meta).get();
        let i = meta.frame_type.index();
        let corrected = base * self.ratio[i] + self.safety_sigmas * self.residual[i];
        Cycles::new(corrected.max(10_000.0))
    }

    fn observe(&mut self, meta: FrameMeta, actual: Cycles) {
        let i = meta.frame_type.index();
        let base = self.regression.predict(meta).get();
        if base > 0.0 {
            let r = actual.get() / base;
            self.ratio[i] += self.ratio_alpha * (r - self.ratio[i]);
            let resid = (actual.get() - base * self.ratio[i]).abs();
            self.residual[i] += self.ratio_alpha * (resid - self.residual[i]);
        }
        self.regression.observe(meta, actual);
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        if self.ratio != [1.0; 3] || self.residual != [0.0; 3] {
            fp.mark_opaque();
            return;
        }
        // Delegates to the inner regression, which marks opaque once it
        // holds observations.
        fp.write_str(self.name());
        fp.write_f64(self.ratio_alpha);
        fp.write_f64(self.safety_sigmas);
        self.regression.fingerprint(fp);
    }
}

/// The cheating upper bound: returns the exact decode cost of every frame
/// it has been [`preload`](WorkloadPredictor::preload)ed with (the
/// streaming session preloads each downloaded segment). Not realizable on
/// a device — it exists to measure the *regret* of the real predictors:
/// how much energy/QoE a perfect predictor would buy.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    truth: std::collections::HashMap<u64, f64>,
}

impl Oracle {
    /// Creates an empty oracle (useless until preloaded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames whose truth is known.
    pub fn known(&self) -> usize {
        self.truth.len()
    }
}

impl WorkloadPredictor for Oracle {
    predictor_names!("oracle");

    fn observe_is_type_local(&self) -> bool {
        true
    }

    fn predict(&self, meta: FrameMeta) -> Cycles {
        match self.truth.get(&meta.index) {
            Some(&cycles) => Cycles::new(cycles),
            None => cold_start(meta),
        }
    }

    fn observe(&mut self, meta: FrameMeta, actual: Cycles) {
        // Ground truth by definition; keep it anyway for frames that were
        // never preloaded.
        self.truth.insert(meta.index, actual.get());
    }

    fn preload(&mut self, frames: &[(FrameMeta, Cycles)]) {
        for (meta, cycles) in frames {
            self.truth.insert(meta.index, cycles.get());
        }
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        if !self.truth.is_empty() {
            fp.mark_opaque();
            return;
        }
        fp.write_str(self.name());
    }
}

/// Per-frame-type population prior learned by a fleet campaign for one
/// (title, content) key.
///
/// Each slot holds `(mean_cycles, weight)` for the type at
/// [`FrameType::index`]: the population mean decode cost and a pseudo-count
/// evidence weight (capped fleet-side so one giant campaign cannot drown
/// out local evidence). An empty prior is indistinguishable from no prior
/// at all — sessions treat it as absent, mirroring the null power-model
/// contract.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct SessionPrior {
    /// Per-type `(mean_cycles, weight)`, indexed by [`FrameType::index`].
    pub types: [Option<(f64, f64)>; 3],
}

impl SessionPrior {
    /// `true` when no type carries population evidence (≡ no prior).
    pub fn is_empty(&self) -> bool {
        self.types.iter().all(Option::is_none)
    }

    /// Hashes the prior's exact content (f64 bit patterns) into `fp`.
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        for slot in &self.types {
            match slot {
                Some((mean, weight)) => {
                    fp.write_u8(1);
                    fp.write_f64(*mean);
                    fp.write_f64(*weight);
                }
                None => fp.write_u8(0),
            }
        }
    }
}

/// Local observations per type after which [`FleetPrior`] hands off
/// entirely to its inner predictor. Past this point a warmed session
/// predicts bit-identically to a cold one — the prior only shapes the
/// cold-start window.
pub const PRIOR_HANDOFF_OBS: u64 = 30;

/// A population-seeded predictor: starts from the fleet posterior, hands
/// off to the wrapped per-session predictor as local evidence accumulates.
///
/// Per frame type, with `n` local observations, prediction is the
/// pseudo-count blend `(w·prior_mean + n·inner) / (w + n)` where `w` is
/// the prior's evidence weight: the pure prior mean at `n = 0` (replacing
/// the size-scaled cold start), converging to the inner predictor and
/// switching to it outright at [`PRIOR_HANDOFF_OBS`].
#[derive(Debug)]
pub struct FleetPrior {
    inner: Box<dyn WorkloadPredictor>,
    prior: SessionPrior,
    seen: [u64; 3],
}

impl FleetPrior {
    /// Wraps `inner` with the given population prior.
    pub fn new(inner: Box<dyn WorkloadPredictor>, prior: SessionPrior) -> Self {
        FleetPrior {
            inner,
            prior,
            seen: [0; 3],
        }
    }

    /// The wrapped per-session predictor's name.
    pub fn inner_name(&self) -> &'static str {
        self.inner.name()
    }
}

impl WorkloadPredictor for FleetPrior {
    predictor_names!("fleet-prior");

    fn observe_is_type_local(&self) -> bool {
        // The blend weight `seen` is per-type, so type locality is
        // inherited from the inner predictor.
        self.inner.observe_is_type_local()
    }

    fn predict(&self, meta: FrameMeta) -> Cycles {
        let t = meta.frame_type.index();
        let n = self.seen[t];
        let Some((mean, weight)) = self.prior.types[t] else {
            return self.inner.predict(meta);
        };
        if n >= PRIOR_HANDOFF_OBS {
            return self.inner.predict(meta);
        }
        if n == 0 {
            return Cycles::new(mean);
        }
        let local = self.inner.predict(meta).get();
        let n = n as f64;
        Cycles::new((weight * mean + n * local) / (weight + n))
    }

    fn observe(&mut self, meta: FrameMeta, actual: Cycles) {
        let t = meta.frame_type.index();
        self.seen[t] = self.seen[t].saturating_add(1);
        self.inner.observe(meta, actual);
    }

    fn preload(&mut self, frames: &[(FrameMeta, Cycles)]) {
        self.inner.preload(frames);
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        if self.seen != [0; 3] {
            fp.mark_opaque();
            return;
        }
        fp.write_str(self.name());
        self.prior.fingerprint(fp);
        self.inner.fingerprint(fp);
    }
}

/// Constructs a predictor by name (for experiment configs).
///
/// Known names: `last`, `ewma`, `window-max`, `size-regression`, `hybrid`,
/// plus the unrealizable `oracle` bound.
pub fn predictor_by_name(name: &str) -> Option<Box<dyn WorkloadPredictor>> {
    Some(match name {
        "last" => Box::new(LastValue::new()),
        "ewma" => Box::new(Ewma::default()),
        "window-max" => Box::new(WindowMax::default()),
        "size-regression" => Box::new(SizeRegression::new()),
        "hybrid" => Box::new(Hybrid::default()),
        "oracle" => Box::new(Oracle::new()),
        _ => return None,
    })
}

/// All predictor names, in F4/F13 presentation order.
pub const PREDICTOR_NAMES: [&str; 5] = ["last", "ewma", "window-max", "size-regression", "hybrid"];

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(t: FrameType, size: u32) -> FrameMeta {
        FrameMeta {
            index: 0,
            frame_type: t,
            size_bytes: size,
        }
    }

    fn mc(m: f64) -> Cycles {
        Cycles::from_mega(m)
    }

    #[test]
    fn cold_start_scales_with_size() {
        let p = LastValue::new();
        let small = p.predict(meta(FrameType::I, 10_000));
        let large = p.predict(meta(FrameType::I, 100_000));
        assert!(large > small);
    }

    #[test]
    fn last_value_tracks_per_type() {
        let mut p = LastValue::new();
        p.observe(meta(FrameType::I, 1000), mc(30.0));
        p.observe(meta(FrameType::B, 100), mc(5.0));
        assert_eq!(p.predict(meta(FrameType::I, 1000)), mc(30.0));
        assert_eq!(p.predict(meta(FrameType::B, 100)), mc(5.0));
        p.observe(meta(FrameType::I, 1000), mc(40.0));
        assert_eq!(p.predict(meta(FrameType::I, 999)), mc(40.0));
    }

    #[test]
    fn ewma_converges_to_constant_signal() {
        let mut p = Ewma::new(0.3);
        for _ in 0..100 {
            p.observe(meta(FrameType::P, 500), mc(10.0));
        }
        let pred = p.predict(meta(FrameType::P, 500));
        assert!((pred.mega() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn ewma_smooths_oscillation() {
        let mut p = Ewma::new(0.2);
        for i in 0..200 {
            let v = if i % 2 == 0 { 8.0 } else { 12.0 };
            p.observe(meta(FrameType::P, 500), mc(v));
        }
        let pred = p.predict(meta(FrameType::P, 500)).mega();
        assert!((pred - 10.0).abs() < 1.5, "pred {pred}");
    }

    #[test]
    fn window_max_is_conservative() {
        let mut p = WindowMax::new(5);
        for v in [5.0, 9.0, 6.0] {
            p.observe(meta(FrameType::P, 500), mc(v));
        }
        assert_eq!(p.predict(meta(FrameType::P, 500)), mc(9.0));
        // Max slides out of the window.
        for _ in 0..5 {
            p.observe(meta(FrameType::P, 500), mc(4.0));
        }
        assert_eq!(p.predict(meta(FrameType::P, 500)), mc(4.0));
    }

    #[test]
    fn regression_learns_linear_law() {
        let mut p = SizeRegression::new();
        // cycles = 1e6 + 100 * size
        for size in (1000u32..20_000).step_by(1000) {
            p.observe(
                meta(FrameType::P, size),
                Cycles::new(1e6 + 100.0 * f64::from(size)),
            );
        }
        let pred = p.predict(meta(FrameType::P, 10_500)).get();
        let truth = 1e6 + 100.0 * 10_500.0;
        assert!(
            (pred - truth).abs() / truth < 0.01,
            "pred {pred} truth {truth}"
        );
    }

    #[test]
    fn regression_degenerate_sizes_fall_back_to_mean() {
        let mut p = SizeRegression::new();
        p.observe(meta(FrameType::B, 700), mc(3.0));
        p.observe(meta(FrameType::B, 700), mc(5.0));
        let pred = p.predict(meta(FrameType::B, 700)).mega();
        assert!((pred - 4.0).abs() < 1e-9);
    }

    #[test]
    fn hybrid_beats_ewma_on_size_correlated_load() {
        // Workload where cost is strongly size-driven and sizes alternate:
        // EWMA smears; hybrid keys off size.
        let mut hybrid = Hybrid::new(0.0);
        let mut ewma = Ewma::default();
        let cost = |size: u32| Cycles::new(200.0 * f64::from(size));
        for i in 0..300 {
            let size = if i % 2 == 0 { 10_000 } else { 40_000 };
            let m = meta(FrameType::P, size);
            hybrid.observe(m, cost(size));
            ewma.observe(m, cost(size));
        }
        let m = meta(FrameType::P, 40_000);
        let truth = cost(40_000).get();
        let hybrid_err = (hybrid.predict(m).get() - truth).abs() / truth;
        let ewma_err = (ewma.predict(m).get() - truth).abs() / truth;
        assert!(
            hybrid_err < ewma_err / 2.0,
            "hybrid {hybrid_err:.3} vs ewma {ewma_err:.3}"
        );
    }

    #[test]
    fn hybrid_safety_adds_headroom_under_noise() {
        let mut tight = Hybrid::new(0.0);
        let mut safe = Hybrid::new(2.0);
        // Noisy-ish deterministic sequence.
        for i in 0..200u32 {
            let noise = 1.0 + 0.3 * f64::from(i % 7) / 6.0;
            let actual = Cycles::new(10e6 * noise);
            let m = meta(FrameType::P, 20_000);
            tight.observe(m, actual);
            safe.observe(m, actual);
        }
        let m = meta(FrameType::P, 20_000);
        assert!(safe.predict(m) > tight.predict(m));
    }

    #[test]
    fn regression_cached_fit_is_bit_identical_to_inline_fit() {
        // Deterministic varied stream: every (n, variance) regime of the
        // fit — cold, low-support mean, degenerate variance, full line —
        // must produce bit-for-bit the value the inline derivation gives.
        let mut p = SizeRegression::new();
        let types = [FrameType::I, FrameType::P, FrameType::B];
        for step in 0u32..64 {
            let ty = types[(step % 3) as usize];
            for &probe in &[400u32, 9_000, 25_000, 1 << 20] {
                let m = meta(ty, probe);
                let inline = p.stats[ty.index()]
                    .predict(f64::from(probe))
                    .map_or(cold_start(m), |v| Cycles::new(v.max(10_000.0)));
                assert_eq!(
                    p.predict(m).get().to_bits(),
                    inline.get().to_bits(),
                    "step {step} type {ty:?} probe {probe}"
                );
            }
            // Degenerate sizes for B (constant), spread for I/P.
            let size = match ty {
                FrameType::B => 700,
                _ => 1_000 + 517 * step,
            };
            let cost = 5e6 + 300.0 * f64::from(size) + 1e5 * f64::from(step % 5);
            p.observe(meta(ty, size), Cycles::new(cost));
        }
    }

    #[test]
    fn window_max_cached_max_matches_window_rescan() {
        // Eviction of the maximum, duplicated maxima, and growth from
        // empty all keep the cache equal to a full window scan.
        let mut p = WindowMax::new(4);
        let vals = [
            9.0, 2.0, 9.0, 1.0, 3.0, 8.0, 8.0, 7.0, 1.0, 1.0, 1.0, 1.0, 2.0,
        ];
        for (i, &v) in vals.iter().enumerate() {
            p.observe(meta(FrameType::P, 500), mc(v));
            let scan = p.history[FrameType::P.index()]
                .iter()
                .cloned()
                .fold(f64::NAN, f64::max);
            assert_eq!(
                p.predict(meta(FrameType::P, 500)),
                Cycles::new(scan),
                "after obs {i}"
            );
        }
    }

    #[test]
    fn by_name_covers_all() {
        for name in PREDICTOR_NAMES.into_iter().chain(["oracle"]) {
            let p = predictor_by_name(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(p.name(), name);
            assert_eq!(p.report_label(), format!("eavs/{name}"));
        }
        let prior = FleetPrior::new(Box::new(Hybrid::default()), SessionPrior::default());
        assert_eq!(prior.report_label(), "eavs/fleet-prior");
        assert!(predictor_by_name("psychic").is_none());
    }

    #[test]
    fn oracle_returns_preloaded_truth_exactly() {
        let mut o = Oracle::new();
        let m1 = FrameMeta {
            index: 7,
            frame_type: FrameType::I,
            size_bytes: 50_000,
        };
        let m2 = FrameMeta {
            index: 8,
            frame_type: FrameType::B,
            size_bytes: 4_000,
        };
        o.preload(&[(m1, mc(42.0)), (m2, mc(3.0))]);
        assert_eq!(o.known(), 2);
        assert_eq!(o.predict(m1), mc(42.0));
        assert_eq!(o.predict(m2), mc(3.0));
        // Unknown frames fall back to the size-scaled cold start.
        let unknown = FrameMeta {
            index: 99,
            frame_type: FrameType::P,
            size_bytes: 10_000,
        };
        assert!(o.predict(unknown).get() > 0.0);
        // Observation also teaches it.
        o.observe(unknown, mc(11.0));
        assert_eq!(o.predict(unknown), mc(11.0));
    }

    #[test]
    fn real_predictors_ignore_preload() {
        let m = meta(FrameType::P, 10_000);
        for name in ["last", "ewma", "window-max", "size-regression", "hybrid"] {
            let mut p = predictor_by_name(name).unwrap();
            let before = p.predict(m).get();
            p.preload(&[(m, mc(500.0))]);
            assert_eq!(
                p.predict(m).get(),
                before,
                "{name} must not learn from preload"
            );
        }
    }

    fn prior(mean_mc: f64, weight: f64) -> SessionPrior {
        SessionPrior {
            types: [Some((mean_mc * 1e6, weight)); 3],
        }
    }

    #[test]
    fn fleet_prior_replaces_cold_start_with_population_mean() {
        let p = FleetPrior::new(Box::new(Ewma::default()), prior(25.0, 8.0));
        assert_eq!(p.predict(meta(FrameType::I, 50_000)), mc(25.0));
        assert_eq!(p.name(), "fleet-prior");
        assert_eq!(p.inner_name(), "ewma");
    }

    #[test]
    fn fleet_prior_blend_moves_toward_local_evidence() {
        let mut p = FleetPrior::new(Box::new(LastValue::new()), prior(25.0, 8.0));
        let m = meta(FrameType::P, 500);
        p.observe(m, mc(10.0));
        // n=1, w=8: (8*25 + 1*10) / 9.
        let expect = (8.0 * 25.0 + 10.0) / 9.0;
        assert!((p.predict(m).mega() - expect).abs() < 1e-9);
        for _ in 0..10 {
            p.observe(m, mc(10.0));
        }
        // More local evidence pulls the blend toward the local value.
        assert!((p.predict(m).mega() - 10.0).abs() < (expect - 10.0));
    }

    #[test]
    fn fleet_prior_hands_off_bit_exactly_after_warmup() {
        let mut warmed = FleetPrior::new(Box::new(Ewma::default()), prior(25.0, 8.0));
        let mut cold = Ewma::default();
        let m = meta(FrameType::P, 500);
        for i in 0..PRIOR_HANDOFF_OBS {
            let v = mc(10.0 + (i % 4) as f64);
            warmed.observe(m, v);
            cold.observe(m, v);
        }
        assert_eq!(
            warmed.predict(m).get().to_bits(),
            cold.predict(m).get().to_bits(),
            "past hand-off, warmed and cold sessions must agree exactly"
        );
    }

    #[test]
    fn fleet_prior_empty_prior_defers_to_inner() {
        let p = FleetPrior::new(Box::new(Ewma::default()), SessionPrior::default());
        let bare = Ewma::default();
        let m = meta(FrameType::B, 4_000);
        assert_eq!(p.predict(m), bare.predict(m));
        assert!(SessionPrior::default().is_empty());
    }

    #[test]
    fn fleet_prior_fingerprints_content_while_fresh() {
        let fp_of = |p: &dyn WorkloadPredictor| {
            let mut fp = Fingerprinter::new("test");
            p.fingerprint(&mut fp);
            fp.finish()
        };
        let a = FleetPrior::new(Box::new(Ewma::default()), prior(25.0, 8.0));
        let b = FleetPrior::new(Box::new(Ewma::default()), prior(25.0, 8.0));
        let c = FleetPrior::new(Box::new(Ewma::default()), prior(26.0, 8.0));
        assert_eq!(fp_of(&a), fp_of(&b));
        assert_ne!(fp_of(&a), fp_of(&c), "prior content must key the cache");
        // Once trained the fingerprint goes opaque (uncacheable).
        let mut d = FleetPrior::new(Box::new(Ewma::default()), prior(25.0, 8.0));
        d.observe(meta(FrameType::P, 500), mc(10.0));
        assert_eq!(fp_of(&d), None);
    }
}
