//! The EAVS governor — the paper's contribution.
//!
//! A video-aware CPU frequency governor. Where stock governors infer
//! demand from utilization history, EAVS computes it from the player
//! pipeline directly:
//!
//! 1. **Predict** each pending frame's decode cycles from its container
//!    metadata and per-type feedback ([`WorkloadPredictor`]).
//! 2. **Derive deadlines** from the vsync schedule and the decoded-queue
//!    depth: with `d` frames already decoded, the in-flight frame is due
//!    at `next_vsync + d·τ`, the `j`-th waiting frame at
//!    `next_vsync + (d+1+j)·τ`.
//! 3. **Select** the slowest OPP whose clock rate covers the worst prefix
//!    demand with a safety margin, holding down-switches through a short
//!    hysteresis ([`OppSelector`]).
//! 4. **Phase policy**: while the buffer is filling (startup/rebuffer)
//!    race at the maximum frequency — the deadline there is "now"; while
//!    paused with a full pipeline, drop to the floor.
//!
//! The governor sees nothing a real implementation could not: container
//! frame sizes/types, the decoded-queue depth, vsync timing, and per-frame
//! cycle counts *after* decoding (perf counters).

use crate::predictor::{FrameMeta, WorkloadPredictor};
use crate::selector::{required_hz, DemandItem, OppSelector};
use eavs_cpu::cluster::PolicyLimits;
use eavs_cpu::freq::Cycles;
use eavs_cpu::opp::{OppIndex, OppTable};
use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::time::{SimDuration, SimTime};
use eavs_video::display::PlaybackPhase;

/// Configuration of the EAVS governor.
#[derive(Clone, Copy, Debug)]
pub struct EavsConfig {
    /// Fractional frequency headroom over the computed requirement.
    pub margin: f64,
    /// Consecutive decisions before a down-switch is applied.
    pub down_hysteresis: u32,
    /// How many waiting frames are considered when computing demand.
    pub lookahead: usize,
    /// Race at max frequency while the pipeline is filling
    /// (startup/rebuffering). Disabling this is the F13 ablation.
    pub race_on_fill: bool,
    /// Never select below the platform's critical speed while work is
    /// pending (see [`critical_speed_index`](crate::selector::critical_speed_index)):
    /// below it, slower costs *more* energy. The session computes the
    /// floor from the SoC's power model; disabling this is the F13
    /// ablation `no-energy-floor`.
    pub energy_floor: bool,
    /// Fallback decision period (decisions also happen on pipeline
    /// events).
    pub decision_interval: SimDuration,
    /// Graceful degradation under faults: when a decoded frame breaches
    /// its prediction by more than `panic_breach_factor`, or a rebuffer
    /// is reported via [`EavsGovernor::notify_rebuffer`], re-race at the
    /// maximum OPP for `panic_hold`, then decay back through the normal
    /// selector (hysteresis + critical-speed floor). Off by default:
    /// clean sessions are bit-identical with and without the feature.
    pub panic_recovery: bool,
    /// Actual/predicted cycle ratio that counts as a prediction breach.
    pub panic_breach_factor: f64,
    /// How long a panic pins the maximum OPP.
    pub panic_hold: SimDuration,
}

impl Default for EavsConfig {
    fn default() -> Self {
        EavsConfig {
            margin: 0.15,
            down_hysteresis: 3,
            lookahead: 8,
            race_on_fill: true,
            energy_floor: true,
            decision_interval: SimDuration::from_millis(20),
            panic_recovery: false,
            panic_breach_factor: 1.25,
            panic_hold: SimDuration::from_millis(250),
        }
    }
}

impl EavsConfig {
    /// The default configuration with panic recovery enabled — the
    /// resilient variant benchmarked by the fault-storm experiments.
    pub fn resilient() -> Self {
        EavsConfig {
            panic_recovery: true,
            ..EavsConfig::default()
        }
    }
}

/// The in-flight decode as the governor sees it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct InFlightMeta {
    /// Container metadata of the frame being decoded.
    pub meta: FrameMeta,
    /// Cycles already spent on it (observable via perf counters).
    pub executed: Cycles,
}

/// A snapshot of the player pipeline at decision time.
#[derive(Clone, Debug)]
pub struct PipelineSnapshot {
    /// Decision instant.
    pub now: SimTime,
    /// Playback phase.
    pub phase: PlaybackPhase,
    /// The next vsync tick (meaningful while playing).
    pub next_vsync: SimTime,
    /// Vsync period (= frame duration).
    pub frame_period: SimDuration,
    /// Frames sitting decoded, ready for display.
    pub decoded_len: usize,
    /// The decode in flight, if any.
    pub in_flight: Option<InFlightMeta>,
    /// Container metadata of waiting (undecoded) frames, in decode order.
    pub upcoming: Vec<FrameMeta>,
}

/// Branch tags of the EAVS governor's decision logic: which branch fired
/// for one frequency decision.
pub mod decision_kind {
    /// Structural maximum: fill race or an open panic window.
    pub const STRUCTURAL_MAX: u8 = 0;
    /// Playback ended: policy minimum.
    pub const ENDED_MIN: u8 = 1;
    /// Paced fill (race disabled): select on the fill window's demand.
    pub const PACED_FILL: u8 = 2;
    /// Playing with an empty demand list: select on zero demand.
    pub const IDLE: u8 = 3;
    /// Playing with pending work: select on the pipeline's demand.
    pub const DEMAND: u8 = 4;
}

/// The EAVS governor.
#[derive(Debug)]
pub struct EavsGovernor {
    predictor: Box<dyn WorkloadPredictor>,
    selector: OppSelector,
    config: EavsConfig,
    floor_index: OppIndex,
    decisions: u64,
    /// Reused demand buffer for [`decide`](Self::decide) — the hottest
    /// per-decision allocation in a session.
    demand_scratch: Vec<DemandItem>,
    /// A prediction breach or rebuffer was reported since the last
    /// decision; the next decision opens a panic window.
    breach_pending: bool,
    /// While set, decisions return the maximum OPP until this instant.
    panic_until: Option<SimTime>,
    /// Panic windows opened so far.
    panics: u64,
}

impl EavsGovernor {
    /// Creates the governor with the given predictor and configuration.
    pub fn new(predictor: Box<dyn WorkloadPredictor>, config: EavsConfig) -> Self {
        EavsGovernor {
            predictor,
            selector: OppSelector::new(config.margin, config.down_hysteresis),
            config,
            floor_index: 0,
            decisions: 0,
            demand_scratch: Vec::with_capacity(1 + config.lookahead),
            breach_pending: false,
            panic_until: None,
            panics: 0,
        }
    }

    /// Sets the platform's critical-speed floor (an OPP index). The
    /// session computes it from the SoC's power model at startup; a
    /// standalone deployment would derive it from the device power table
    /// once. Only takes effect while `config.energy_floor` is set.
    pub fn set_energy_floor(&mut self, index: OppIndex) {
        self.floor_index = index;
    }

    /// The configured critical-speed floor.
    pub fn energy_floor(&self) -> OppIndex {
        self.floor_index
    }

    /// Clamps a pacing decision up to the critical-speed floor when work
    /// is pending.
    fn apply_floor(&self, idx: OppIndex, has_work: bool, limits: PolicyLimits) -> OppIndex {
        if self.config.energy_floor && has_work {
            limits.clamp(idx.max(self.floor_index))
        } else {
            idx
        }
    }

    /// The governor's sysfs-style name.
    pub fn name(&self) -> &'static str {
        "eavs"
    }

    /// The configuration in force.
    pub fn config(&self) -> &EavsConfig {
        &self.config
    }

    /// The predictor's name (for reports).
    pub fn predictor_name(&self) -> &'static str {
        self.predictor.name()
    }

    /// Number of decisions taken.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of panic windows opened (prediction breaches + rebuffers
    /// that triggered a re-race; zero unless `panic_recovery` is set).
    pub fn panics(&self) -> u64 {
        self.panics
    }

    /// Reports a rebuffer event (playback starved). With `panic_recovery`
    /// enabled, the next decision re-races at the maximum OPP.
    pub fn notify_rebuffer(&mut self) {
        if self.config.panic_recovery {
            self.breach_pending = true;
        }
    }

    /// Feedback after a frame finished decoding.
    pub fn observe_decode(&mut self, meta: FrameMeta, actual: Cycles) {
        if self.config.panic_recovery {
            let predicted = self.predictor.predict(meta);
            if predicted.get() > 0.0
                && actual.get() > predicted.get() * self.config.panic_breach_factor
            {
                self.breach_pending = true;
            }
        }
        self.predictor.observe(meta, actual);
    }

    /// Forwards ground-truth costs to the predictor (only the [`Oracle`]
    /// bound uses them; see
    /// [`WorkloadPredictor::preload`]).
    ///
    /// [`Oracle`]: crate::predictor::Oracle
    pub fn preload(&mut self, frames: &[(FrameMeta, Cycles)]) {
        self.predictor.preload(frames);
    }

    /// Wraps the configured predictor in a population-seeded
    /// [`FleetPrior`](crate::predictor::FleetPrior). The session calls
    /// this at startup when the builder carries a non-empty prior; it must
    /// happen before the first decision so fingerprints stay coherent.
    ///
    /// # Panics
    ///
    /// Panics if any decision has already been taken.
    pub fn seed_prior(&mut self, prior: crate::predictor::SessionPrior) {
        assert_eq!(self.decisions, 0, "prior seeded after decisions began");
        let inner = std::mem::replace(
            &mut self.predictor,
            Box::new(crate::predictor::LastValue::new()),
        );
        self.predictor = Box::new(crate::predictor::FleetPrior::new(inner, prior));
    }

    /// Predicts a frame's decode cost (exposed for the prediction-accuracy
    /// experiment F4).
    pub fn predict(&self, meta: FrameMeta) -> Cycles {
        self.predictor.predict(meta)
    }

    /// The demand items left behind by the most recent full `DEMAND`
    /// decision (the scratch is reused across decisions, so this is only
    /// meaningful immediately after such a decision — the session copies
    /// it into its steady-tick cache right away).
    pub(crate) fn last_demand(&self) -> &[DemandItem] {
        &self.demand_scratch
    }

    /// Whether the predictor's observations are type-local (see
    /// [`WorkloadPredictor::observe_is_type_local`]); gates the partial
    /// steady-cache refresh after a decode completion.
    pub(crate) fn observe_type_local(&self) -> bool {
        self.predictor.observe_is_type_local()
    }

    /// Computes the demand list for a snapshot (visible for tests and the
    /// ablation harness).
    pub fn demand(&self, snap: &PipelineSnapshot) -> Vec<DemandItem> {
        let mut items = Vec::with_capacity(1 + self.config.lookahead);
        self.demand_into(snap, &mut items);
        items
    }

    /// Fills `items` with the snapshot's demand list, reusing its capacity.
    fn demand_into(&self, snap: &PipelineSnapshot, items: &mut Vec<DemandItem>) {
        items.clear();
        let tau = snap.frame_period;
        let d = snap.decoded_len as u64;
        if let Some(inflight) = snap.in_flight {
            let predicted = self.predictor.predict(inflight.meta);
            // If the frame already overran its prediction, assume a
            // residual 10% remains rather than zero.
            let remaining = if inflight.executed.get() >= predicted.get() {
                predicted.scale(0.1)
            } else {
                predicted.saturating_sub(inflight.executed)
            };
            items.push(DemandItem {
                cycles: remaining,
                deadline: snap.next_vsync.saturating_add(tau * d),
            });
        }
        let base = d + u64::from(snap.in_flight.is_some());
        for (j, meta) in snap.upcoming.iter().take(self.config.lookahead).enumerate() {
            items.push(DemandItem {
                cycles: self.predictor.predict(*meta),
                deadline: snap.next_vsync.saturating_add(tau * (base + j as u64)),
            });
        }
    }

    /// The raw clock-rate requirement (Hz) of a snapshot's demand, before
    /// margin/OPP quantization — the quantity an automatic big.LITTLE
    /// placement policy compares against each cluster's ceiling.
    pub fn required_hz_for(&self, snap: &PipelineSnapshot) -> f64 {
        required_hz(snap.now, &self.demand(snap))
    }

    /// The *sustained* clock rate the stream needs: mean predicted cycles
    /// per upcoming frame divided by the frame period. Queue slack can
    /// make the momentary [`required_hz_for`](Self::required_hz_for) dip
    /// far below this, but a cluster whose ceiling is under the sustained
    /// rate will eventually fall behind — placement decisions must honor
    /// it.
    pub fn sustained_hz_for(&self, snap: &PipelineSnapshot) -> f64 {
        if snap.upcoming.is_empty() || snap.frame_period.is_zero() {
            return 0.0;
        }
        let mean_cycles: f64 = snap
            .upcoming
            .iter()
            .map(|m| self.predictor.predict(*m).get())
            .sum::<f64>()
            / snap.upcoming.len() as f64;
        mean_cycles / snap.frame_period.as_secs_f64()
    }

    /// Takes a frequency decision for the snapshot.
    pub fn decide(
        &mut self,
        snap: &PipelineSnapshot,
        table: &OppTable,
        limits: PolicyLimits,
        cur: OppIndex,
    ) -> OppIndex {
        self.decide_core(snap, table, limits, cur).0
    }

    /// [`decide`](Self::decide) exposing the branch tag (the constants in
    /// [`decision_kind`]), so the session can tell whether the decision's
    /// demand list is cacheable for steady-tick reuse (only `DEMAND`
    /// branches leave a meaningful list behind).
    pub(crate) fn decide_tagged(
        &mut self,
        snap: &PipelineSnapshot,
        table: &OppTable,
        limits: PolicyLimits,
        cur: OppIndex,
    ) -> (OppIndex, u8) {
        self.decide_core(snap, table, limits, cur)
    }

    /// A Playing-phase decision for a demand value the caller recomputed
    /// from cached items — the steady-tick fast path. Between pipeline
    /// events only the clock (and the in-flight frame's progress) moves,
    /// so the session re-derives `required` from its cached demand list
    /// and skips the snapshot/predictor walk entirely. This method is
    /// [`decide_core`](Self::decide_core) specialised to
    /// `phase == Playing` with a non-empty demand list: every state
    /// transition — the decision counter, panic-window bookkeeping,
    /// selector hysteresis, the energy floor — runs identically, so a
    /// session interleaving fast and full decisions is bit-identical to
    /// one taking full decisions throughout.
    pub(crate) fn decide_steady(
        &mut self,
        now: SimTime,
        table: &OppTable,
        limits: PolicyLimits,
        cur: OppIndex,
        required: f64,
    ) -> OppIndex {
        self.decisions += 1;
        if self.config.panic_recovery {
            if self.breach_pending {
                self.breach_pending = false;
                self.panics += 1;
                self.panic_until = Some(now + self.config.panic_hold);
            }
            if let Some(until) = self.panic_until {
                // Playing-phase by construction, so the Ended exemption
                // of the full path cannot apply here.
                if now < until {
                    return limits.max_index;
                }
                self.panic_until = None;
            }
        }
        let idx = self.selector.select(table, limits, cur, required);
        self.apply_floor(idx, true, limits)
    }

    /// Whether the Playing branch's demand list would be non-empty:
    /// exactly when an in-flight decode exists or the lookahead window
    /// admits at least one waiting frame (mirrors
    /// [`demand_into`](Self::demand_into)).
    fn playing_has_demand(config: &EavsConfig, snap: &PipelineSnapshot) -> bool {
        snap.in_flight.is_some() || (config.lookahead > 0 && !snap.upcoming.is_empty())
    }

    /// The full decision: returns the chosen index and the branch tag.
    fn decide_core(
        &mut self,
        snap: &PipelineSnapshot,
        table: &OppTable,
        limits: PolicyLimits,
        cur: OppIndex,
    ) -> (OppIndex, u8) {
        self.decisions += 1;
        if self.config.panic_recovery {
            if self.breach_pending {
                self.breach_pending = false;
                self.panics += 1;
                self.panic_until = Some(snap.now + self.config.panic_hold);
            }
            if let Some(until) = self.panic_until {
                if snap.now < until && snap.phase != PlaybackPhase::Ended {
                    // Re-race: clear the backlog at full speed; the
                    // selector's hysteresis decays the frequency back to
                    // the critical-speed floor once the window closes.
                    return (limits.max_index, decision_kind::STRUCTURAL_MAX);
                }
                self.panic_until = None;
            }
        }
        match snap.phase {
            PlaybackPhase::Startup | PlaybackPhase::Rebuffering => {
                if self.config.race_on_fill {
                    (limits.max_index, decision_kind::STRUCTURAL_MAX)
                } else {
                    // Ablation: treat filling like steady state with a
                    // synthetic near-term deadline one frame period out.
                    let demand: f64 = snap
                        .upcoming
                        .iter()
                        .take(self.config.lookahead)
                        .map(|m| self.predictor.predict(*m).get())
                        .sum();
                    let window = snap.frame_period * (self.config.lookahead as u64).max(1);
                    let required = demand / window.as_secs_f64();
                    let idx = self.selector.select(table, limits, cur, required);
                    (
                        self.apply_floor(idx, !snap.upcoming.is_empty(), limits),
                        decision_kind::PACED_FILL,
                    )
                }
            }
            PlaybackPhase::Ended => (limits.min_index, decision_kind::ENDED_MIN),
            PlaybackPhase::Playing => {
                if !Self::playing_has_demand(&self.config, snap) {
                    // Pipeline drained of work (decoded queue full or end
                    // of stream): any frequency idles equally well.
                    let idx = self.selector.select(table, limits, cur, 0.0);
                    (idx, decision_kind::IDLE)
                } else {
                    let mut items = std::mem::take(&mut self.demand_scratch);
                    self.demand_into(snap, &mut items);
                    debug_assert!(!items.is_empty(), "playing_has_demand mirrors demand_into");
                    let required = required_hz(snap.now, &items);
                    self.demand_scratch = items;
                    let idx = self.selector.select(table, limits, cur, required);
                    (self.apply_floor(idx, true, limits), decision_kind::DEMAND)
                }
            }
        }
    }

    /// Hashes the governor's identity into `fp` for session memoization:
    /// the full configuration, the energy floor, and the predictor. A
    /// governor that has already taken decisions (selector hysteresis,
    /// predictor history) is opaque.
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        if self.decisions > 0 {
            fp.mark_opaque();
            return;
        }
        fp.write_str(self.name());
        fp.write_f64(self.config.margin);
        fp.write_u32(self.config.down_hysteresis);
        fp.write_usize(self.config.lookahead);
        fp.write_bool(self.config.race_on_fill);
        fp.write_bool(self.config.energy_floor);
        fp.write_u64(self.config.decision_interval.as_nanos());
        fp.write_bool(self.config.panic_recovery);
        fp.write_f64(self.config.panic_breach_factor);
        fp.write_u64(self.config.panic_hold.as_nanos());
        fp.write_usize(self.floor_index);
        self.predictor.fingerprint(fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{Ewma, LastValue};
    use eavs_video::frame::FrameType;

    fn table() -> OppTable {
        OppTable::from_mhz_mv(&[(500, 900), (1000, 1000), (1500, 1100), (2000, 1250)]).unwrap()
    }

    fn meta(size: u32) -> FrameMeta {
        FrameMeta {
            index: 0,
            frame_type: FrameType::P,
            size_bytes: size,
        }
    }

    /// A governor whose predictor has been trained to a constant value.
    fn trained(mcycles: f64, config: EavsConfig) -> EavsGovernor {
        let mut g = EavsGovernor::new(Box::new(LastValue::new()), config);
        g.observe_decode(meta(1000), Cycles::from_mega(mcycles));
        g
    }

    fn snapshot(
        decoded: usize,
        in_flight: Option<InFlightMeta>,
        upcoming: usize,
    ) -> PipelineSnapshot {
        PipelineSnapshot {
            now: SimTime::from_millis(100),
            phase: PlaybackPhase::Playing,
            next_vsync: SimTime::from_millis(110),
            frame_period: SimDuration::from_millis(33),
            decoded_len: decoded,
            in_flight,
            upcoming: vec![meta(1000); upcoming],
        }
    }

    #[test]
    fn races_while_filling() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut g = trained(10.0, EavsConfig::default());
        let mut snap = snapshot(0, None, 4);
        snap.phase = PlaybackPhase::Startup;
        assert_eq!(g.decide(&snap, &tbl, limits, 0), 3);
        snap.phase = PlaybackPhase::Rebuffering;
        assert_eq!(g.decide(&snap, &tbl, limits, 0), 3);
    }

    #[test]
    fn ablation_no_race_paces_fill() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut g = trained(
            10.0,
            EavsConfig {
                race_on_fill: false,
                margin: 0.0,
                down_hysteresis: 1,
                ..EavsConfig::default()
            },
        );
        let mut snap = snapshot(0, None, 8);
        snap.phase = PlaybackPhase::Startup;
        let idx = g.decide(&snap, &tbl, limits, 0);
        // 8 × 10 Mcycles over 8 × 33 ms ≈ 303 MHz -> lowest OPP.
        assert_eq!(idx, 0);
    }

    #[test]
    fn deep_decoded_queue_lets_cpu_slow_down() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let cfg = EavsConfig {
            margin: 0.0,
            down_hysteresis: 1,
            ..EavsConfig::default()
        };
        // 20 Mcycles per frame.
        let mut g_shallow = trained(20.0, cfg);
        let mut g_deep = trained(20.0, cfg);
        let inflight = Some(InFlightMeta {
            meta: meta(1000),
            executed: Cycles::ZERO,
        });
        // Shallow queue: in-flight due at next vsync (10 ms away).
        let shallow = snapshot(0, inflight, 4);
        // Deep queue: 4 decoded frames of slack.
        let deep = snapshot(4, inflight, 4);
        let idx_shallow = g_shallow.decide(&shallow, &tbl, limits, 3);
        let idx_deep = g_deep.decide(&deep, &tbl, limits, 3);
        assert!(
            idx_deep < idx_shallow,
            "slack must lower the chosen OPP ({idx_deep} !< {idx_shallow})"
        );
    }

    #[test]
    fn overdue_deadline_forces_max() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut g = trained(20.0, EavsConfig::default());
        let mut snap = snapshot(
            0,
            Some(InFlightMeta {
                meta: meta(1000),
                executed: Cycles::ZERO,
            }),
            2,
        );
        snap.next_vsync = snap.now; // due right now
        assert_eq!(g.decide(&snap, &tbl, limits, 0), 3);
    }

    #[test]
    fn executed_cycles_reduce_demand() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let cfg = EavsConfig {
            margin: 0.0,
            down_hysteresis: 1,
            lookahead: 0,
            ..EavsConfig::default()
        };
        let mut fresh = trained(40.0, cfg);
        let mut nearly_done = trained(40.0, cfg);
        let snap_fresh = snapshot(
            1,
            Some(InFlightMeta {
                meta: meta(1000),
                executed: Cycles::ZERO,
            }),
            0,
        );
        let snap_done = snapshot(
            1,
            Some(InFlightMeta {
                meta: meta(1000),
                executed: Cycles::from_mega(38.0),
            }),
            0,
        );
        let a = fresh.decide(&snap_fresh, &tbl, limits, 3);
        let b = nearly_done.decide(&snap_done, &tbl, limits, 3);
        assert!(b <= a, "{b} <= {a}");
        assert_eq!(b, 0, "2 Mcycles in 43 ms needs only the floor");
    }

    #[test]
    fn overrun_assumes_residual_work() {
        let g = trained(10.0, EavsConfig::default());
        let snap = snapshot(
            0,
            Some(InFlightMeta {
                meta: meta(1000),
                executed: Cycles::from_mega(15.0), // beyond the prediction
            }),
            0,
        );
        let items = g.demand(&snap);
        assert_eq!(items.len(), 1);
        assert!((items[0].cycles.mega() - 1.0).abs() < 1e-9, "10% residual");
    }

    #[test]
    fn demand_deadlines_are_vsync_spaced() {
        let g = trained(10.0, EavsConfig::default());
        let snap = snapshot(
            2,
            Some(InFlightMeta {
                meta: meta(1000),
                executed: Cycles::ZERO,
            }),
            3,
        );
        let items = g.demand(&snap);
        assert_eq!(items.len(), 4);
        // In-flight covers vsync + 2 periods; then consecutive periods.
        let base = SimTime::from_millis(110);
        assert_eq!(items[0].deadline, base + SimDuration::from_millis(66));
        assert_eq!(items[1].deadline, base + SimDuration::from_millis(99));
        assert_eq!(items[3].deadline, base + SimDuration::from_millis(165));
    }

    #[test]
    fn lookahead_truncates_demand() {
        let g = trained(
            10.0,
            EavsConfig {
                lookahead: 2,
                ..EavsConfig::default()
            },
        );
        let snap = snapshot(0, None, 10);
        assert_eq!(g.demand(&snap).len(), 2);
    }

    #[test]
    fn ended_drops_to_floor() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut g = trained(10.0, EavsConfig::default());
        let mut snap = snapshot(0, None, 0);
        snap.phase = PlaybackPhase::Ended;
        assert_eq!(g.decide(&snap, &tbl, limits, 3), 0);
    }

    #[test]
    fn prediction_breach_opens_panic_window() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        // Train with the cold-start estimate itself (5 Mcycles for a
        // 1000-byte frame) so the training observation is not a breach.
        let mut g = trained(5.0, EavsConfig::resilient());
        // Deep slack: absent a panic this snapshot picks the lowest OPP.
        let calm = snapshot(4, None, 1);
        assert_eq!(g.decide(&calm, &tbl, limits, 0), 0);
        assert_eq!(g.panics(), 0);
        // A frame costing 5x its prediction breaches the 1.25x factor.
        g.observe_decode(meta(1000), Cycles::from_mega(25.0));
        assert_eq!(g.decide(&calm, &tbl, limits, 0), 3, "panic races at max");
        assert_eq!(g.panics(), 1);
        // Within the hold window the max OPP is pinned...
        let mut soon = calm.clone();
        soon.now = calm.now + SimDuration::from_millis(100);
        assert_eq!(g.decide(&soon, &tbl, limits, 3), 3);
        // ...and once it expires the governor decays back down.
        let mut later = calm.clone();
        later.now = calm.now + SimDuration::from_millis(400);
        later.next_vsync = later.now + SimDuration::from_millis(10);
        let mut cur = 3;
        for _ in 0..10 {
            cur = g.decide(&later, &tbl, limits, cur);
        }
        assert!(cur < 3, "panic must decay");
        assert_eq!(g.panics(), 1, "one breach, one panic");
    }

    #[test]
    fn rebuffer_notification_triggers_panic() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut g = trained(5.0, EavsConfig::resilient());
        let calm = snapshot(4, None, 1);
        assert_eq!(g.decide(&calm, &tbl, limits, 0), 0);
        g.notify_rebuffer();
        assert_eq!(g.decide(&calm, &tbl, limits, 0), 3);
        assert_eq!(g.panics(), 1);
    }

    #[test]
    fn panic_recovery_off_ignores_breaches_and_rebuffers() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut g = trained(10.0, EavsConfig::default());
        let calm = snapshot(4, None, 1);
        g.observe_decode(meta(1000), Cycles::from_mega(100.0));
        g.notify_rebuffer();
        // LastValue now predicts 100 Mcycles; with 4 frames of slack the
        // demand still fits a low OPP, and no panic pins the max.
        assert!(g.decide(&calm, &tbl, limits, 0) < 3);
        assert_eq!(g.panics(), 0);
    }

    #[test]
    fn works_with_any_predictor() {
        let tbl = table();
        let limits = PolicyLimits::full(&tbl);
        let mut g = EavsGovernor::new(Box::new(Ewma::default()), EavsConfig::default());
        g.observe_decode(meta(1000), Cycles::from_mega(15.0));
        let snap = snapshot(1, None, 4);
        let idx = g.decide(&snap, &tbl, limits, 0);
        assert!(idx <= 3);
        assert_eq!(g.predictor_name(), "ewma");
        assert_eq!(g.decisions(), 1);
    }
}
