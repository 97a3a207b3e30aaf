//! The streaming session: the full system wired together.
//!
//! A [`StreamingSession`] couples the CPU cluster, the decode pipeline and
//! display clock, the segment downloader with its ABR, and a governor
//! (baseline or EAVS) inside one deterministic event loop. Running it
//! yields a [`SessionReport`] with energy, QoE and frequency statistics —
//! the primitive every experiment in the repository is built from.
//!
//! ## Event flow
//!
//! ```text
//! DownloadDone ─▶ frames into pipeline ─▶ decode starts on CPU core 0
//!      ▲                                        │ DecodeDone
//!      └── ABR + buffer cap ◀── Vsync ◀─────────┘ (governor feedback)
//! ```
//!
//! The governor is invoked on every pipeline event (EAVS) or on its
//! sampling tick (baselines); every frequency change recomputes and
//! reschedules the in-flight decode's completion event.

use crate::framestats::FrameCycleTally;
use crate::governor::{decision_kind, EavsGovernor, InFlightMeta, PipelineSnapshot};
use crate::predictor::{FrameMeta, SessionPrior};
use crate::report::SessionReport;
use crate::selector::{required_hz_split, DemandItem};
use eavs_cpu::cluster::{Cluster, PolicyLimits};
use eavs_cpu::freq::{Cycles, Frequency};
use eavs_cpu::load::LoadMonitor;
use eavs_cpu::soc::SocModel;
use eavs_cpu::thermal::{ThermalModel, ThrottleController};
use eavs_faults::{AmbientStep, FaultPlan, FaultSchedule};
use eavs_governors::CpufreqGovernor;
use eavs_metrics::timeseries::StepSeries;
use eavs_net::abr::{AbrAlgorithm, AbrContext, FixedAbr};
use eavs_net::bandwidth::BandwidthTrace;
use eavs_net::download::{Downloader, RetryPolicy};
use eavs_net::radio::RadioModel;
use eavs_obs::{Phase, PhaseProfile, SharedSink, TraceEvent};
use eavs_power::DevicePowerModel;
use eavs_sim::engine::{Scheduler, Simulation, StepOutcome, World};
use eavs_sim::fingerprint::{Fingerprint, Fingerprinter};
use eavs_sim::queue::EventId;
use eavs_sim::time::{SimDuration, SimTime};
use eavs_trace::content::ContentProfile;
use eavs_trace::video_gen::VideoGenerator;
use eavs_video::display::{LatePolicy, Playback, PlaybackPhase, VsyncOutcome};
use eavs_video::manifest::Manifest;
use eavs_video::pipeline::DecodePipeline;
use eavs_video::qoe::QoeReport;
use eavs_video::segment::Segment;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

/// Always 0. Differential decision replay was removed (every session
/// takes every decision in full); the counter stays so callers that
/// sample it, such as the `perfbench` campaign layer table, still build.
pub fn replayed_sessions() -> u64 {
    0
}

/// Always 0, for the same reason as [`replayed_sessions`].
pub fn injected_decisions() -> u64 {
    0
}

/// Which governor drives the session.
pub enum GovernorChoice {
    /// A workload-oblivious baseline governor.
    Baseline(Box<dyn CpufreqGovernor>),
    /// The video-aware EAVS governor.
    Eavs(EavsGovernor),
}

impl GovernorChoice {
    fn report_name(&self) -> &'static str {
        match self {
            GovernorChoice::Baseline(g) => g.name(),
            GovernorChoice::Eavs(g) => g.report_label(),
        }
    }

    fn sampling_interval(&self) -> SimDuration {
        match self {
            GovernorChoice::Baseline(g) => g.sampling_interval(),
            GovernorChoice::Eavs(g) => g.config().decision_interval,
        }
    }

    /// Hashes the governor's identity and configuration into `fp`,
    /// branch-tagged so a baseline can never collide with EAVS. Governors
    /// carrying learned state mark the fingerprint opaque.
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        match self {
            GovernorChoice::Baseline(g) => {
                fp.write_u8(0);
                g.fingerprint(fp);
            }
            GovernorChoice::Eavs(g) => {
                fp.write_u8(1);
                g.fingerprint(fp);
            }
        }
    }
}

impl std::fmt::Debug for GovernorChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GovernorChoice({})", self.report_name())
    }
}

/// Builder for a [`StreamingSession`].
///
/// ```no_run
/// use eavs_core::session::{GovernorChoice, StreamingSession};
/// use eavs_core::governor::{EavsConfig, EavsGovernor};
/// use eavs_core::predictor::Hybrid;
///
/// let gov = GovernorChoice::Eavs(EavsGovernor::new(
///     Box::new(Hybrid::default()),
///     EavsConfig::default(),
/// ));
/// let report = StreamingSession::builder(gov).seed(7).run();
/// println!("{report}");
/// ```
pub struct SessionBuilder {
    governor: GovernorChoice,
    soc: SocModel,
    content: ContentProfile,
    manifest: Arc<Manifest>,
    network: Arc<BandwidthTrace>,
    radio: RadioModel,
    abr: Box<dyn AbrAlgorithm>,
    seed: u64,
    max_buffer: SimDuration,
    decoded_cap: usize,
    startup_frames: usize,
    resume_frames: usize,
    rtt: SimDuration,
    record_series: bool,
    horizon: Option<SimTime>,
    thermal: Option<Box<(ThermalModel, ThrottleController)>>,
    background: Option<BackgroundLoad>,
    cluster_select: ClusterSelect,
    late_policy: LatePolicy,
    faults: Option<Box<FaultPlan>>,
    retry: RetryPolicy,
    power: Option<DevicePowerModel>,
    prior: Option<Box<SessionPrior>>,
    trace: Option<SharedSink>,
    profile: bool,
}

/// Which cluster of a big.LITTLE SoC hosts the player threads.
///
/// Decode placement on phones of the paper's era was a static affinity
/// decision; F17 compares the two placements per quality rung.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ClusterSelect {
    /// The performance (big) cluster.
    #[default]
    Big,
    /// The efficiency (LITTLE) cluster: cheaper per cycle, lower ceiling.
    Little,
    /// Start on the big cluster and migrate automatically: EAVS moves the
    /// player to whichever cluster covers the predicted demand most
    /// cheaply, power-gating the other (EAS-style placement; EAVS only).
    Auto,
}

/// Synthetic background work on a secondary core of the same frequency
/// domain (notifications, sync jobs): each period, a burst sized to keep
/// the core busy for `duty × period` at the frequency in force when the
/// burst starts.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BackgroundLoad {
    /// Fraction of each period the burst occupies (at burst-start speed).
    pub duty: f64,
    /// Burst period.
    pub period: SimDuration,
}

impl SessionBuilder {
    fn new(governor: GovernorChoice) -> Self {
        SessionBuilder {
            governor,
            soc: SocModel::Flagship2016,
            content: ContentProfile::Film,
            manifest: Arc::new(Manifest::single(
                6_000,
                1920,
                1080,
                SimDuration::from_secs(60),
                30,
            )),
            network: Arc::new(BandwidthTrace::constant(20e6)),
            radio: RadioModel::wifi(),
            abr: Box::new(FixedAbr::new(0)),
            seed: 1,
            max_buffer: SimDuration::from_secs(30),
            decoded_cap: 4,
            startup_frames: 30,
            resume_frames: 60,
            rtt: SimDuration::from_millis(50),
            record_series: false,
            horizon: None,
            thermal: None,
            background: None,
            cluster_select: ClusterSelect::Big,
            late_policy: LatePolicy::Stall,
            faults: None,
            retry: RetryPolicy::default(),
            power: None,
            prior: None,
            trace: None,
            profile: false,
        }
    }

    /// Attaches a trace sink: every hot-path event (downloads, retries,
    /// decode jobs, vsync outcomes, governor decisions, fault
    /// injections) is recorded against simulated time. Sinks observe —
    /// attaching one never changes any session outcome, which is why
    /// [`SessionBuilder::fingerprint`] deliberately ignores them (see
    /// [`SessionBuilder::has_observer`] for the caching implication).
    pub fn trace(mut self, sink: SharedSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Enables per-phase profiling: the report carries a
    /// [`PhaseProfile`] with simulated-time and handler wall-time
    /// breakdowns for download/decode/display/governor work.
    pub fn profile(mut self, enable: bool) -> Self {
        self.profile = enable;
        self
    }

    /// `true` if an observer (trace sink or profiler) is attached.
    ///
    /// Observers don't perturb outcomes, but their *output* (the trace,
    /// the wall-time profile) is per-run, so observed sessions must not
    /// be served from a memoization cache — the cached report would
    /// carry no side effects for the observer.
    pub fn has_observer(&self) -> bool {
        self.trace.is_some() || self.profile
    }

    /// Injects a fault plan: network blackouts, stalled/corrupt segment
    /// downloads, decode spikes and stalls, ambient temperature steps.
    /// An empty plan is stored as no plan at all, so it is a no-op by
    /// construction.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then(|| Box::new(plan));
        self
    }

    /// Attaches a whole-device power model (display + decoder; the
    /// radio is [`SessionBuilder::radio`]). Accounting is post-hoc over
    /// the finished session's timeline, so any model is a behavioral
    /// no-op: only the report's power counters change.
    /// [`DevicePowerModel::none`] is stored as no model at all.
    pub fn power(mut self, model: DevicePowerModel) -> Self {
        self.power = (!model.is_none()).then_some(model);
        self
    }

    /// Seeds the EAVS predictor with a fleet-learned population prior:
    /// the governor's predictor is wrapped in a
    /// [`FleetPrior`](crate::predictor::FleetPrior) at session start. An
    /// empty prior is stored as no prior at all, and baselines ignore
    /// priors entirely.
    pub fn prior(mut self, prior: SessionPrior) -> Self {
        self.prior = (!prior.is_empty()).then(|| Box::new(prior));
        self
    }

    /// Sets the download retry policy (timeout, retry cap, exponential
    /// backoff). The default has no timeout, so clean sessions schedule
    /// no watchdog events.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Selects what happens to frames whose display slot passes before
    /// they are decoded (stall, the conservative default, or drop).
    pub fn late_policy(mut self, policy: LatePolicy) -> Self {
        self.late_policy = policy;
        self
    }

    /// Places the player on the big or LITTLE cluster.
    pub fn cluster(mut self, select: ClusterSelect) -> Self {
        self.cluster_select = select;
        self
    }

    /// Enables the thermal model and throttle controller: die temperature
    /// follows dissipated power and caps the policy's maximum OPP.
    pub fn thermal(mut self, model: ThermalModel, throttle: ThrottleController) -> Self {
        self.thermal = Some(Box::new((model, throttle)));
        self
    }

    /// Adds periodic background work on core 1 of the frequency domain.
    ///
    /// # Panics
    ///
    /// Panics if the duty is outside `(0, 1)` or the period is zero.
    pub fn background_load(mut self, duty: f64, period: SimDuration) -> Self {
        assert!(duty > 0.0 && duty < 1.0, "duty must be in (0,1)");
        assert!(!period.is_zero(), "zero background period");
        self.background = Some(BackgroundLoad { duty, period });
        self
    }

    /// Selects the SoC preset.
    pub fn soc(mut self, soc: SocModel) -> Self {
        self.soc = soc;
        self
    }

    /// Selects the content profile.
    pub fn content(mut self, content: ContentProfile) -> Self {
        self.content = content;
        self
    }

    /// Replaces the manifest (ladder, duration, fps). Accepts an owned
    /// `Manifest` or a shared `Arc<Manifest>`; sweeps pass the `Arc` so every
    /// job references one allocation.
    pub fn manifest(mut self, manifest: impl Into<Arc<Manifest>>) -> Self {
        self.manifest = manifest.into();
        self
    }

    /// Replaces the bandwidth trace.
    pub fn network(mut self, network: impl Into<Arc<BandwidthTrace>>) -> Self {
        self.network = network.into();
        self
    }

    /// Selects the session's radio: the one modem whose energy the
    /// report's `radio` block accounts (Wi-Fi by default).
    pub fn radio(mut self, radio: RadioModel) -> Self {
        self.radio = radio;
        self
    }

    /// Replaces the ABR algorithm.
    pub fn abr(mut self, abr: Box<dyn AbrAlgorithm>) -> Self {
        self.abr = abr;
        self
    }

    /// Sets the workload seed (content + any stochastic models).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the player's maximum buffered media.
    pub fn max_buffer(mut self, max_buffer: SimDuration) -> Self {
        self.max_buffer = max_buffer;
        self
    }

    /// Sets the decoded-frame queue capacity (output surfaces).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn decoded_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "decoded queue needs capacity");
        self.decoded_cap = cap;
        self
    }

    /// Sets the startup threshold in frames.
    pub fn startup_frames(mut self, frames: usize) -> Self {
        self.startup_frames = frames.max(1);
        self
    }

    /// Sets the rebuffer-resume threshold in frames.
    pub fn resume_frames(mut self, frames: usize) -> Self {
        self.resume_frames = frames.max(1);
        self
    }

    /// Sets the request RTT.
    pub fn rtt(mut self, rtt: SimDuration) -> Self {
        self.rtt = rtt;
        self
    }

    /// Records frequency and buffer timelines into the report.
    pub fn record_series(mut self, record: bool) -> Self {
        self.record_series = record;
        self
    }

    /// Overrides the safety horizon (default: 6× content length + 60 s).
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// A deterministic 128-bit digest of everything that influences the
    /// session's outcome: governor, platform, content profile, manifest,
    /// bandwidth trace, radio model, ABR, seed and every knob. Sessions
    /// are single-threaded and deterministic, so two builders with equal
    /// fingerprints produce identical reports — the key `eavs-bench`'s
    /// session cache memoizes on. Returns `None` when any component
    /// carries state the fingerprint cannot capture (e.g. a pre-warmed
    /// predictor or governor), making the session uncacheable.
    ///
    /// Observers (trace sinks, the profiler) are intentionally *not*
    /// hashed: they never influence outcomes, so a traced and an
    /// untraced builder share a fingerprint. Callers that memoize must
    /// additionally check [`SessionBuilder::has_observer`] — cache hits
    /// would silently skip the observer's side effects.
    pub fn fingerprint(&self) -> Option<Fingerprint> {
        let mut fp = Fingerprinter::new("eavs-session/v1");
        self.governor.fingerprint(&mut fp);
        fp.write_str(self.soc.name());
        fp.write_str(self.content.name());
        // The manifest and trace are hashed by content, not identity:
        // distinct allocations of the same ladder must collide.
        self.manifest.fingerprint(&mut fp);
        self.network.fingerprint(&mut fp);
        self.radio.fingerprint(&mut fp);
        self.abr.fingerprint(&mut fp);
        fp.write_u64(self.seed);
        fp.write_u64(self.max_buffer.as_nanos());
        fp.write_usize(self.decoded_cap);
        fp.write_usize(self.startup_frames);
        fp.write_usize(self.resume_frames);
        fp.write_u64(self.rtt.as_nanos());
        fp.write_bool(self.record_series);
        fp.write_opt_u64(self.horizon.map(|h| h.as_nanos()));
        match self.thermal.as_deref() {
            None => fp.write_u8(0),
            Some((model, throttle)) => {
                fp.write_u8(1);
                model.fingerprint(&mut fp);
                fp.write_f64(throttle.throttle_start_c);
                fp.write_f64(throttle.throttle_full_c);
            }
        }
        match &self.background {
            None => fp.write_u8(0),
            Some(bg) => {
                fp.write_u8(1);
                fp.write_f64(bg.duty);
                fp.write_u64(bg.period.as_nanos());
            }
        }
        fp.write_u8(match self.cluster_select {
            ClusterSelect::Big => 0,
            ClusterSelect::Little => 1,
            ClusterSelect::Auto => 2,
        });
        fp.write_u8(match self.late_policy {
            LatePolicy::Stall => 0,
            LatePolicy::Drop => 1,
        });
        // The setters store an empty fault plan, the none() power model
        // and an empty prior as `None`, so each of them shares the
        // absent attachment's tag 0. Any real fault (randomized plans
        // included), modeled component or population evidence perturbs
        // the digest by its exact content.
        match &self.faults {
            None => fp.write_u8(0),
            Some(plan) => {
                fp.write_u8(1);
                plan.fingerprint(&mut fp);
            }
        }
        self.retry.fingerprint(&mut fp);
        match &self.power {
            None => fp.write_u8(0),
            Some(model) => {
                fp.write_u8(1);
                model.fingerprint(&mut fp);
            }
        }
        match &self.prior {
            None => fp.write_u8(0),
            Some(prior) => {
                fp.write_u8(1);
                prior.fingerprint(&mut fp);
            }
        }
        fp.finish()
    }

    /// Runs the session to completion and reports.
    pub fn run(self) -> SessionReport {
        StreamingSession::run_built(self)
    }
}

/// Entry point: build and run streaming sessions.
pub struct StreamingSession;

impl StreamingSession {
    /// Starts building a session around a governor.
    pub fn builder(governor: GovernorChoice) -> SessionBuilder {
        SessionBuilder::new(governor)
    }

    /// Runs on this thread's recycled [`SessionScratch`]. The scratch is
    /// moved out for the run and put back afterwards, so a session built
    /// and run from inside another one just starts from empty buffers.
    fn run_built(b: SessionBuilder) -> SessionReport {
        thread_local! {
            static SCRATCH: Cell<SessionScratch> = Cell::new(SessionScratch::default());
        }
        let mut scratch = SCRATCH.with(Cell::take);
        let mut state = SessionState::with_scratch(b, &mut scratch);
        while state.step() {}
        let report = state.finish_into(&mut scratch);
        SCRATCH.with(|cell| cell.set(scratch));
        report
    }
}

/// Recycled per-session buffers for the step kernel.
///
/// [`SessionBuilder::run`] keeps one `SessionScratch` per thread (so one
/// per pool worker) and threads it through
/// [`SessionState::with_scratch`] / [`SessionState::finish_into`]: each
/// session inherits the previous one's backing stores (cleared, not
/// freed), driving steady-state allocations per session toward zero.
/// `Default` yields empty buffers.
#[derive(Default)]
pub struct SessionScratch {
    /// Backing store for [`PipelineSnapshot::upcoming`].
    snapshot: Vec<FrameMeta>,
    /// Per-segment ground-truth buffer for oracle preloads.
    truth: Vec<(FrameMeta, Cycles)>,
    /// Per-segment bitrate log (QoE input).
    bitrates: Vec<u32>,
    /// Time-in-state accumulation buffer.
    tis: Vec<SimDuration>,
    /// The steady-tick demand cache's buffers.
    steady: SteadyDemand,
}

/// A read-only projection of one running session's counters, cheap
/// enough to take after every kernel step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelHot {
    /// Governor decisions taken so far (0 for baselines).
    pub decisions: u64,
}

/// The pure step kernel: one streaming session, advanced one event at a
/// time.
///
/// [`SessionState::with_scratch`] performs all construction and initial
/// scheduling; [`SessionState::step`] processes exactly one event (the
/// only mutation point); [`SessionState::finish_into`] consumes the
/// state into a [`SessionReport`], returning the scratch buffers for the
/// next session. `run()` on the builder is exactly
/// `with_scratch → step* → finish_into`, so driving the kernel by hand
/// gives byte-identical results by construction.
pub struct SessionState {
    sim: Simulation<SessionWorld>,
    horizon: SimTime,
    done: bool,
}

impl SessionState {
    /// Builds the session world, borrowing backing stores from `scratch`.
    pub fn with_scratch(b: SessionBuilder, scratch: &mut SessionScratch) -> SessionState {
        let horizon = b.horizon.unwrap_or_else(|| {
            SimTime::ZERO + b.manifest.total_duration() * 6 + SimDuration::from_secs(60)
        });
        let (cluster, standby) = match b.cluster_select {
            ClusterSelect::Big => (b.soc.build_cluster(), None),
            ClusterSelect::Little => (b.soc.build_little_cluster(), None),
            ClusterSelect::Auto => {
                assert!(
                    matches!(b.governor, GovernorChoice::Eavs(_)),
                    "automatic cluster placement requires the EAVS governor"
                );
                assert!(
                    b.thermal.is_none() && b.background.is_none(),
                    "automatic placement does not compose with thermal or background load"
                );
                let mut little = b.soc.build_little_cluster();
                little.set_gated(SimTime::ZERO, true);
                (b.soc.build_cluster(), Some(little))
            }
        };
        let faults = b
            .faults
            .as_deref()
            .map(FaultPlan::schedule)
            .unwrap_or_default();
        // Blackout windows rewrite the trace; otherwise the shared Arc is
        // used untouched (keeps sweep jobs on one allocation).
        let network = match faults.apply_to_trace(&b.network) {
            Some(t) => Arc::new(t),
            None => Arc::clone(&b.network),
        };
        let ambient_queue: VecDeque<AmbientStep> = if b.thermal.is_some() {
            faults.ambient_steps().iter().copied().collect()
        } else {
            VecDeque::new()
        };
        let generator = VideoGenerator::new(b.manifest.clone(), b.content, b.seed);
        let playback = Playback::new(b.manifest.total_frames(), b.startup_frames, b.resume_frames)
            .with_policy(b.late_policy);
        let max_buffer_frames = (b.max_buffer.as_nanos() / b.manifest.frame_duration().as_nanos())
            .max(b.manifest.frames_per_segment * 2) as usize;
        let num_segments = b.manifest.num_segments as usize;
        let frames_per_segment = b.manifest.frames_per_segment as usize;
        let mut bitrates = std::mem::take(&mut scratch.bitrates);
        bitrates.clear();
        bitrates.reserve(num_segments);
        let mut snapshot_scratch = std::mem::take(&mut scratch.snapshot);
        snapshot_scratch.clear();
        snapshot_scratch.reserve(16);
        let mut truth_scratch = std::mem::take(&mut scratch.truth);
        truth_scratch.clear();
        truth_scratch.reserve(frames_per_segment);
        // Seed the EAVS predictor from the fleet prior before any decision
        // is taken; baselines have no predictor to seed.
        let mut governor = b.governor;
        if let Some(prior) = b.prior {
            if let GovernorChoice::Eavs(g) = &mut governor {
                g.seed_prior(*prior);
            }
        }
        let world = SessionWorld {
            monitor: LoadMonitor::new(SimTime::ZERO, SimDuration::ZERO),
            monitor_bg: LoadMonitor::new(SimTime::ZERO, SimDuration::ZERO),
            standby,
            migrations: 0,
            last_migration: SimTime::ZERO,
            thermal: b.thermal.map(|t| *t),
            thermal_last: (SimTime::ZERO, 0.0),
            peak_temp_c: None,
            background: b.background,
            pipeline: DecodePipeline::new(b.decoded_cap),
            downloader: Downloader::new(network, b.rtt),
            faults,
            retry: b.retry,
            attempt: 0,
            retry_segment: None,
            download_event: None,
            timeout_event: None,
            decoder_stall_event: None,
            stall_frame: 0,
            stall_cleared: None,
            ambient_queue,
            download_retries: 0,
            download_timeouts: 0,
            corrupt_downloads: 0,
            segments_abandoned: 0,
            frames_skipped: 0,
            decode_spikes: 0,
            decode_stalls: 0,
            freq_series: b.record_series.then(StepSeries::new),
            buffer_series: b.record_series.then(StepSeries::new),
            cluster,
            governor,
            playback,
            abr: b.abr,
            generator,
            manifest: b.manifest,
            soc: b.soc,
            content: b.content,
            radio: b.radio,
            power: b.power.unwrap_or_default(),
            seed: b.seed,
            next_segment: 0,
            pending_segment: None,
            last_rep: None,
            bitrates,
            snapshot_scratch,
            truth_scratch,
            decode_event: None,
            decode_initial: None,
            vsync_event: None,
            next_vsync_at: SimTime::ZERO,
            end_time: None,
            segments_downloaded: 0,
            max_buffer_frames,
            trace: b.trace,
            profile: b.profile.then(PhaseProfile::new),
            pipeline_epoch: 0,
            steady: std::mem::take(&mut scratch.steady).reset(),
            frame_cycles: FrameCycleTally::default(),
        };
        let mut sim = Simulation::new(world);
        if let Some(sink) = sim.world().trace.clone() {
            // Engine-level tap: record every raw dispatch ahead of its
            // handler, so timelines show the scheduler's view too.
            sim.scheduler().set_tap(Box::new(move |at, ev: &Ev| {
                sink.lock()
                    .expect("trace sink poisoned")
                    .record(at, &TraceEvent::Dispatch { kind: ev.kind() });
            }));
        }

        // Initial governor target and first download.
        {
            let sched_now = SimTime::ZERO;
            let world = sim.world_mut();
            // Derive the platform's critical-speed floor for EAVS from the
            // SoC's power model and deepest idle state (done once, as a
            // real deployment would from the device power table).
            let floor = crate::selector::critical_speed_index(
                world.cluster.opps(),
                world.cluster.power_model(),
                world
                    .cluster
                    .cstates()
                    .iter()
                    .last()
                    .expect("at least one idle state")
                    .power_w,
            );
            if let GovernorChoice::Eavs(g) = &mut world.governor {
                g.set_energy_floor(floor);
            }
            let initial = match &world.governor {
                GovernorChoice::Baseline(g) => {
                    g.initial_index(world.cluster.opps(), world.cluster.limits())
                }
                GovernorChoice::Eavs(_) => world.cluster.limits().max_index,
            };
            world.cluster.set_target(sched_now, initial);
            if let Some(s) = &mut world.freq_series {
                s.set(sched_now, world.cluster.opps().freq(initial).mhz() as f64);
            }
        }
        let interval = sim.world().governor.sampling_interval();
        sim.scheduler().schedule_at(SimTime::ZERO, Ev::Start);
        sim.scheduler()
            .schedule_at(SimTime::ZERO + interval, Ev::Sample);
        if sim.world().background.is_some() {
            sim.scheduler().schedule_at(SimTime::ZERO, Ev::Background);
        }
        for i in 0..sim.world().ambient_queue.len() {
            let at = sim.world().ambient_queue[i].at;
            sim.scheduler().schedule_at(at, Ev::AmbientStep);
        }
        SessionState {
            sim,
            horizon,
            done: false,
        }
    }

    /// Processes exactly one event. Returns `false` once the session is
    /// over (playback ended, queue drained, or horizon reached); further
    /// calls stay `false`.
    pub fn step(&mut self) -> bool {
        if self.done {
            return false;
        }
        match self.sim.step_until(self.horizon) {
            StepOutcome::Progressed => true,
            StepOutcome::QueueEmpty | StepOutcome::HorizonReached | StepOutcome::Stopped => {
                self.done = true;
                false
            }
        }
    }

    /// Snapshot of the session's counters so far.
    pub fn hot(&self) -> KernelHot {
        KernelHot {
            decisions: match &self.sim.world().governor {
                GovernorChoice::Eavs(g) => g.decisions(),
                _ => 0,
            },
        }
    }

    /// Consumes the finished (or horizon-cut) session into its report,
    /// returning the recycled buffers through `scratch`.
    pub fn finish_into(mut self, scratch: &mut SessionScratch) -> SessionReport {
        let end = self.sim.world().end_time.unwrap_or(self.sim.now());
        let events = self.sim.scheduler().events_processed();
        let mut world = self.sim.into_world();
        world.playback.finalize(end);
        world.build_report(end, events, scratch)
    }
}

/// Session events.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Ev {
    /// Kick off the first download.
    Start,
    /// The in-flight segment finished downloading.
    DownloadDone,
    /// A display refresh tick.
    Vsync,
    /// The in-flight decode completed.
    DecodeDone,
    /// Governor sampling tick.
    Sample,
    /// Background-load burst tick.
    Background,
    /// Watchdog: the in-flight download exceeded the retry timeout.
    DownloadTimeout,
    /// Backoff elapsed; re-attempt the failed segment.
    RetryDownload,
    /// A transient decoder stall cleared.
    DecodeResume,
    /// A scripted ambient-temperature step (fault injection).
    AmbientStep,
}

impl Ev {
    /// Stable name for the engine-dispatch trace tap.
    fn kind(&self) -> &'static str {
        match self {
            Ev::Start => "start",
            Ev::DownloadDone => "download_done",
            Ev::Vsync => "vsync",
            Ev::DecodeDone => "decode_done",
            Ev::Sample => "sample",
            Ev::Background => "background",
            Ev::DownloadTimeout => "download_timeout",
            Ev::RetryDownload => "retry_download",
            Ev::DecodeResume => "decode_resume",
            Ev::AmbientStep => "ambient_step",
        }
    }

    /// Which pipeline phase this engine event's handler belongs to (for
    /// the wall-time profiler).
    fn phase(&self) -> Phase {
        match self {
            Ev::Start | Ev::DownloadDone | Ev::DownloadTimeout | Ev::RetryDownload => {
                Phase::Download
            }
            Ev::DecodeDone | Ev::DecodeResume => Phase::Decode,
            Ev::Vsync => Phase::Display,
            Ev::Sample => Phase::Governor,
            Ev::Background | Ev::AmbientStep => Phase::Other,
        }
    }
}

struct SessionWorld {
    cluster: Cluster,
    governor: GovernorChoice,
    pipeline: DecodePipeline,
    playback: Playback,
    downloader: Downloader,
    abr: Box<dyn AbrAlgorithm>,
    generator: VideoGenerator,
    manifest: Arc<Manifest>,
    soc: SocModel,
    content: ContentProfile,
    radio: RadioModel,
    /// Whole-device power co-model; the zero-power no-op by default.
    power: DevicePowerModel,
    /// The builder's seed, kept for coordinate-keyed power draws
    /// (display frame similarity) in post-hoc accounting.
    seed: u64,
    monitor: LoadMonitor,
    monitor_bg: LoadMonitor,
    standby: Option<Cluster>,
    migrations: u64,
    last_migration: SimTime,
    thermal: Option<(ThermalModel, ThrottleController)>,
    thermal_last: (SimTime, f64),
    peak_temp_c: Option<f64>,
    background: Option<BackgroundLoad>,
    next_segment: u64,
    pending_segment: Option<Arc<Segment>>,
    last_rep: Option<usize>,
    bitrates: Vec<u32>,
    /// Compiled fault plan; empty on clean sessions (every lookup misses).
    faults: FaultSchedule,
    retry: RetryPolicy,
    /// 0-based attempt number of the in-flight (or pending-retry) download.
    attempt: u32,
    /// A failed segment waiting out its backoff before re-download.
    retry_segment: Option<Arc<Segment>>,
    download_event: Option<EventId>,
    timeout_event: Option<EventId>,
    decoder_stall_event: Option<EventId>,
    /// Frame index the pending decoder stall applies to.
    stall_frame: u64,
    /// Frame whose decoder stall already elapsed (don't re-trigger).
    stall_cleared: Option<u64>,
    ambient_queue: VecDeque<AmbientStep>,
    download_retries: u64,
    download_timeouts: u64,
    corrupt_downloads: u64,
    segments_abandoned: u64,
    frames_skipped: u64,
    decode_spikes: u64,
    decode_stalls: u64,
    /// Recycled backing store for [`PipelineSnapshot::upcoming`]; handed
    /// to the snapshot and reclaimed after the governor decision so the
    /// per-event hot path allocates nothing in steady state.
    snapshot_scratch: Vec<FrameMeta>,
    /// Recycled per-segment ground-truth buffer for oracle preloads.
    truth_scratch: Vec<(FrameMeta, Cycles)>,
    decode_event: Option<EventId>,
    decode_initial: Option<Cycles>,
    vsync_event: Option<EventId>,
    next_vsync_at: SimTime,
    end_time: Option<SimTime>,
    segments_downloaded: u64,
    max_buffer_frames: usize,
    freq_series: Option<StepSeries>,
    buffer_series: Option<StepSeries>,
    /// Attached trace sink, if any. `None` keeps every emit site down to
    /// a single predictable branch (events are built inside closures, so
    /// nothing is even constructed).
    trace: Option<SharedSink>,
    /// Wall/sim per-phase accounting, when profiling was requested.
    profile: Option<PhaseProfile>,
    /// Monotonic counter of pipeline-mutating events: bumped for every
    /// event except the pure sample tick, because the scheduler is the
    /// only driver of state change — between events nothing but the
    /// clock (and the in-flight decode's progress) moves.
    pipeline_epoch: u64,
    /// Demand items cached by the last full `DEMAND` decision, reusable
    /// on steady timer ticks while [`Self::pipeline_epoch`] is unchanged.
    steady: SteadyDemand,
    /// Per-frame-type actual decode-cost summary, recorded on every
    /// decode completion regardless of governor (the raw material fleet
    /// campaigns fold into workload priors).
    frame_cycles: FrameCycleTally,
}

/// The steady-tick demand cache (see [`SessionWorld::govern`]): between
/// pipeline events a decision's demand list differs from the previous
/// one only through the clock and the in-flight decode's progress, both
/// of which are recomputed live — the predictor walk and the snapshot
/// build are skipped entirely.
struct SteadyDemand {
    /// Pipeline epoch the items were derived under; `u64::MAX` = never.
    epoch: u64,
    /// Predicted cost and display deadline of the in-flight decode
    /// (item 0). Its *remaining* cycles are recomputed each tick from
    /// the core's live counter, exactly as a snapshot would see them.
    inflight: Option<(Cycles, SimTime)>,
    /// Demand items of the waiting frames — fixed between events.
    tail: Vec<DemandItem>,
    /// Frame metadata behind each `tail` item, kept so a decode
    /// completion can re-predict just the observed type's items.
    tail_meta: Vec<FrameMeta>,
}

impl Default for SteadyDemand {
    fn default() -> Self {
        SteadyDemand {
            epoch: u64::MAX,
            inflight: None,
            tail: Vec::new(),
            tail_meta: Vec::new(),
        }
    }
}

impl SteadyDemand {
    /// Empties the cache, keeping its buffers' capacity.
    fn reset(mut self) -> Self {
        self.epoch = u64::MAX;
        self.inflight = None;
        self.tail.clear();
        self.tail_meta.clear();
        self
    }
}

impl World for SessionWorld {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, event: Ev) {
        let now = sched.now();
        self.cluster.advance(now);
        if self.profile.is_some() {
            // Wall-clock only ever feeds the profiler, never the model:
            // the dispatch below is identical either way.
            let start = std::time::Instant::now();
            self.dispatch(sched, now, event);
            let wall_ns = start.elapsed().as_nanos() as u64;
            if let Some(p) = &mut self.profile {
                p.note(event.phase(), wall_ns);
            }
        } else {
            self.dispatch(sched, now, event);
        }
    }
}

impl SessionWorld {
    fn dispatch(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, event: Ev) {
        // Every event except the pure sample tick may mutate the pipeline
        // (queue depths, vsync schedule, phase, predictor state); the tick
        // itself only reads. Over-counting is harmless — an epoch bump
        // merely sends the next decision down the full path.
        if !matches!(event, Ev::Sample) {
            self.pipeline_epoch += 1;
        }
        match event {
            Ev::Start => {
                self.maybe_request_download(sched, now);
            }
            Ev::DownloadDone => self.on_download_done(sched, now),
            Ev::DecodeDone => self.on_decode_done(sched, now),
            Ev::Vsync => self.on_vsync(sched, now),
            Ev::Sample => self.on_sample(sched, now),
            Ev::Background => self.on_background(sched, now),
            Ev::DownloadTimeout => self.on_download_timeout(sched, now),
            Ev::RetryDownload => self.on_retry_download(sched, now),
            Ev::DecodeResume => self.on_decode_resume(sched, now),
            Ev::AmbientStep => self.on_ambient_step(sched, now),
        }
    }

    /// Records a trace event if a sink is attached. The event is built
    /// inside the closure, so when nothing listens the cost is one
    /// branch and no construction.
    #[inline]
    fn emit(&self, now: SimTime, ev: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.trace {
            let event = ev();
            sink.lock()
                .expect("trace sink poisoned")
                .record(now, &event);
        }
    }
    fn buffered_media(&self) -> SimDuration {
        SimDuration::from_nanos(
            self.manifest.frame_duration().as_nanos() * self.pipeline.frames_buffered() as u64,
        )
    }

    fn record_buffer(&mut self, now: SimTime) {
        let level = self.buffered_media().as_secs_f64();
        if let Some(s) = &mut self.buffer_series {
            s.set(now, level);
        }
    }

    fn maybe_request_download(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        if self.downloader.is_busy()
            || self.retry_segment.is_some()
            || self.next_segment >= self.manifest.num_segments
        {
            return;
        }
        if self.pipeline.frames_buffered() as u64 + self.manifest.frames_per_segment
            > self.max_buffer_frames as u64
        {
            return; // buffer full; retried on the next vsync drain
        }
        let ctx = AbrContext {
            manifest: &self.manifest,
            buffer_level: SimDuration::from_nanos(
                self.manifest.frame_duration().as_nanos() * self.pipeline.frames_buffered() as u64,
            ),
            throughput: self.downloader.samples(),
            next_segment: self.next_segment,
            previous_choice: self.last_rep,
        };
        let rep = self.abr.choose(&ctx);
        // Shared across sessions: every governor streaming this title
        // re-decodes the same bytes, so generate each segment once.
        let segment = self.generator.shared_segment(self.next_segment, rep);
        self.next_segment += 1;
        self.begin_transfer(sched, now, segment, 0);
    }

    /// Starts (or re-starts) a segment transfer, honoring stall faults
    /// and arming the retry watchdog when a timeout is configured.
    fn begin_transfer(
        &mut self,
        sched: &mut Scheduler<Ev>,
        now: SimTime,
        segment: Arc<Segment>,
        attempt: u32,
    ) {
        self.attempt = attempt;
        if self.faults.is_stalled(segment.index, attempt) {
            // The server wedged: the radio burns energy but no completion
            // instant exists. Only the watchdog can recover this.
            self.downloader.start_stalled(now, segment.size_bytes());
            self.emit(now, || TraceEvent::DownloadStalled {
                segment: segment.index,
                attempt,
            });
        } else {
            let done = self
                .downloader
                .start(now, segment.size_bytes())
                .expect("bandwidth trace stalls forever; transfer cannot complete");
            self.download_event = Some(sched.schedule_at(done, Ev::DownloadDone));
            self.emit(now, || TraceEvent::DownloadStart {
                segment: segment.index,
                attempt,
                bytes: segment.size_bytes(),
            });
        }
        self.pending_segment = Some(segment);
        if let Some(timeout) = self.retry.timeout {
            self.timeout_event = Some(sched.schedule_at(now + timeout, Ev::DownloadTimeout));
        }
    }

    /// Queues a failed segment for re-download after exponential backoff,
    /// or abandons it once the retry budget is exhausted.
    fn schedule_retry(
        &mut self,
        sched: &mut Scheduler<Ev>,
        now: SimTime,
        segment: Arc<Segment>,
        next_attempt: u32,
    ) {
        if next_attempt > self.retry.max_retries {
            self.segments_abandoned += 1;
            self.emit(now, || TraceEvent::DownloadAbandoned {
                segment: segment.index,
            });
            self.maybe_request_download(sched, now);
            return;
        }
        self.attempt = next_attempt;
        self.emit(now, || TraceEvent::DownloadRetry {
            segment: segment.index,
            attempt: next_attempt,
        });
        self.retry_segment = Some(segment);
        let wait = self.retry.backoff(next_attempt - 1);
        sched.schedule_at(now + wait, Ev::RetryDownload);
    }

    fn on_download_timeout(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        self.timeout_event = None;
        // A completion at the exact same instant may have already been
        // handled (it cancels the watchdog, so only an uncanceled event
        // with a transfer still pending acts).
        let Some(segment) = self.pending_segment.take() else {
            return;
        };
        if let Some(ev) = self.download_event.take() {
            sched.cancel(ev);
        }
        self.downloader.abort(now);
        self.download_timeouts += 1;
        self.emit(now, || TraceEvent::DownloadTimeout {
            segment: segment.index,
            attempt: self.attempt,
        });
        self.schedule_retry(sched, now, segment, self.attempt + 1);
        self.govern(sched, now);
    }

    fn on_retry_download(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        let Some(segment) = self.retry_segment.take() else {
            return;
        };
        self.download_retries += 1;
        let attempt = self.attempt;
        self.begin_transfer(sched, now, segment, attempt);
        self.govern(sched, now);
    }

    fn on_download_done(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        self.download_event = None;
        if let Some(ev) = self.timeout_event.take() {
            sched.cancel(ev);
        }
        self.downloader.complete(now);
        let segment = self
            .pending_segment
            .take()
            .expect("download completion without a pending segment");
        if self.faults.is_corrupt(segment.index, self.attempt) {
            // The bytes arrived but fail integrity checks: the transfer
            // cost real radio energy, yet the segment must be re-fetched.
            self.corrupt_downloads += 1;
            self.emit(now, || TraceEvent::DownloadCorrupt {
                segment: segment.index,
                attempt: self.attempt,
            });
            self.schedule_retry(sched, now, segment, self.attempt + 1);
            self.govern(sched, now);
            return;
        }
        self.emit(now, || TraceEvent::DownloadDone {
            segment: segment.index,
            bytes: segment.size_bytes(),
        });
        let rep = self.manifest.representation(segment.representation_id);
        self.bitrates.push(rep.bitrate_kbps);
        self.last_rep = Some(segment.representation_id);
        self.segments_downloaded += 1;
        if let GovernorChoice::Eavs(g) = &mut self.governor {
            // Real predictors ignore this; the oracle bound stores it.
            self.truth_scratch.clear();
            self.truth_scratch.extend(
                segment
                    .frames()
                    .map(|f| (FrameMeta::from(&f), f.decode_cycles)),
            );
            g.preload(&self.truth_scratch);
        }
        self.pipeline.push_frames(segment.frames());
        self.record_buffer(now);
        self.try_start_decode(sched, now);
        self.maybe_begin_playback(sched, now);
        self.maybe_request_download(sched, now);
        self.govern(sched, now);
    }

    fn try_start_decode(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        if self.playback.policy() == LatePolicy::Drop {
            // Never spend cycles decoding frames that can no longer make
            // their slot: skip stale Bs, resync at the next I if the GOP
            // is lost.
            self.frames_skipped += self.pipeline.catch_up(self.playback.next_display()) as u64;
        }
        if !self.pipeline.can_start_decode() || self.cluster.is_core_busy(0) {
            return;
        }
        if let Some(next) = self.pipeline.peek_next_undecoded() {
            let idx = next.index;
            if self.stall_cleared != Some(idx) {
                if let Some(pause) = self.faults.decoder_stall(idx) {
                    // Transient decoder wedge: the frame cannot enter the
                    // decoder until the pause elapses.
                    if self.decoder_stall_event.is_none() {
                        self.decode_stalls += 1;
                        self.stall_frame = idx;
                        self.decoder_stall_event =
                            Some(sched.schedule_at(now + pause, Ev::DecodeResume));
                        self.emit(now, || TraceEvent::DecodeStall {
                            frame: idx,
                            resume_in_us: pause.as_micros(),
                        });
                    }
                    return;
                }
            }
        }
        let frame = self.pipeline.start_decode();
        let cycles = match self.faults.decode_spike(frame.index) {
            Some(factor) => {
                self.decode_spikes += 1;
                self.emit(now, || TraceEvent::DecodeSpike {
                    frame: frame.index,
                    factor_milli: (factor * 1000.0).round() as u64,
                });
                frame.decode_cycles.scale(factor)
            }
            None => frame.decode_cycles,
        };
        self.cluster.start_job(now, 0, cycles);
        self.emit(now, || TraceEvent::DecodeStart {
            frame: frame.index,
            freq_khz: u64::from(self.cluster.current_freq().khz()),
        });
        self.decode_initial = Some(cycles);
        let done = self
            .cluster
            .completion_time(now, 0)
            .expect("job just started");
        self.decode_event = Some(sched.schedule_at(done, Ev::DecodeDone));
    }

    fn on_decode_resume(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        self.decoder_stall_event = None;
        self.stall_cleared = Some(self.stall_frame);
        self.try_start_decode(sched, now);
        self.maybe_begin_playback(sched, now);
        self.govern(sched, now);
    }

    /// Applies a scripted ambient-temperature step: integrate the thermal
    /// model up to now under the old ambient, then switch it.
    fn on_ambient_step(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        self.update_thermal(sched, now);
        if let Some(step) = self.ambient_queue.pop_front() {
            self.emit(now, || TraceEvent::AmbientStep {
                milli_c: (step.ambient_c * 1000.0).round() as i64,
            });
            if let Some((model, _)) = &mut self.thermal {
                model.set_ambient(step.ambient_c);
            }
        }
    }

    fn on_decode_done(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        debug_assert!(
            !self.cluster.is_core_busy(0),
            "decode completion event fired while core still busy"
        );
        self.decode_event = None;
        // The cycles actually charged to the core (spiked under faults);
        // feeding the governor the *observed* cost, not the container's
        // nominal one, is what lets panic recovery detect breaches.
        let actual = self
            .decode_initial
            .take()
            .expect("decode completion without initial cycles");
        let frame = self.pipeline.finish_decode();
        self.emit(now, || TraceEvent::DecodeDone { frame: frame.index });
        let observed = FrameMeta::from(&frame);
        self.frame_cycles.observe(observed.frame_type, actual);
        if let GovernorChoice::Eavs(g) = &mut self.governor {
            g.observe_decode(observed, actual);
        }
        self.maybe_migrate(sched, now);
        let cache_live = self.steady.epoch.wrapping_add(1) == self.pipeline_epoch;
        let skipped_before = self.frames_skipped;
        self.try_start_decode(sched, now);
        self.maybe_begin_playback(sched, now);
        if cache_live && self.frames_skipped == skipped_before {
            self.revalidate_steady_after_decode(observed);
        }
        self.govern(sched, now);
    }

    fn maybe_begin_playback(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        if self.pipeline.decoded_len() == 0 {
            return;
        }
        if !matches!(
            self.playback.phase(),
            PlaybackPhase::Startup | PlaybackPhase::Rebuffering
        ) {
            return;
        }
        let downloads_done = self.next_segment >= self.manifest.num_segments
            && !self.downloader.is_busy()
            && self.retry_segment.is_none();
        if self
            .playback
            .maybe_start(now, self.pipeline.frames_buffered(), downloads_done)
        {
            self.emit(now, || TraceEvent::PlaybackStart);
            self.schedule_vsync(sched, now);
        }
    }

    fn schedule_vsync(&mut self, sched: &mut Scheduler<Ev>, at: SimTime) {
        self.next_vsync_at = at;
        self.vsync_event = Some(sched.schedule_at(at, Ev::Vsync));
    }

    fn on_vsync(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        self.vsync_event = None;
        if self.playback.phase() != PlaybackPhase::Playing {
            return;
        }
        match self.playback.on_vsync(now, &mut self.pipeline) {
            VsyncOutcome::Displayed(frame) => {
                self.emit(now, || TraceEvent::VsyncDisplayed { frame: frame.index });
                self.record_buffer(now);
                let cache_live = self.steady.epoch.wrapping_add(1) == self.pipeline_epoch;
                let skipped_before = self.frames_skipped;
                let inflight_before = self.decode_event.is_some();
                self.try_start_decode(sched, now);
                self.maybe_request_download(sched, now);
                self.schedule_vsync(sched, now + self.manifest.frame_duration());
                if cache_live && self.frames_skipped == skipped_before {
                    self.revalidate_steady_after_display(inflight_before);
                }
                self.govern(sched, now);
            }
            VsyncOutcome::DecoderLate => {
                self.emit(now, || TraceEvent::VsyncLate {
                    frame: self.playback.next_display(),
                });
                self.schedule_vsync(sched, now + self.manifest.frame_duration());
                self.govern(sched, now);
            }
            VsyncOutcome::Dropped => {
                self.emit(now, || TraceEvent::VsyncDropped {
                    frame: self.playback.next_display(),
                });
                if self.playback.phase() == PlaybackPhase::Ended {
                    self.emit(now, || TraceEvent::PlaybackEnd {
                        frame: self.playback.next_display(),
                    });
                    self.end_time = Some(now);
                    sched.stop();
                    return;
                }
                self.record_buffer(now);
                self.try_start_decode(sched, now);
                self.maybe_request_download(sched, now);
                self.schedule_vsync(sched, now + self.manifest.frame_duration());
                self.govern(sched, now);
            }
            VsyncOutcome::Starved => {
                self.emit(now, || TraceEvent::Rebuffer {
                    frame: self.playback.next_display(),
                });
                if let GovernorChoice::Eavs(g) = &mut self.governor {
                    // Rebuffer: with panic recovery enabled, the next
                    // decision re-races to clear the backlog (no-op for
                    // the stock configuration).
                    g.notify_rebuffer();
                }
                let downloads_done = self.next_segment >= self.manifest.num_segments
                    && !self.downloader.is_busy()
                    && self.retry_segment.is_none();
                if downloads_done && self.pipeline.is_drained() {
                    // Nothing will ever arrive again (possible under the
                    // drop policy when the stream's tail was skipped):
                    // finish instead of waiting for the horizon.
                    self.end_time = Some(now);
                    sched.stop();
                    return;
                }
                self.maybe_request_download(sched, now);
                self.govern(sched, now);
            }
            VsyncOutcome::Ended(frame) => {
                self.emit(now, || TraceEvent::VsyncDisplayed { frame: frame.index });
                self.emit(now, || TraceEvent::PlaybackEnd { frame: frame.index });
                self.end_time = Some(now);
                sched.stop();
            }
        }
    }

    /// Minimum residency on a cluster before migrating again.
    const MIGRATION_HOLD: SimDuration = SimDuration::from_secs(2);
    /// Demand headroom required to stay on (or move to) the LITTLE
    /// cluster, as a fraction of its top frequency.
    const LITTLE_HEADROOM: f64 = 0.85;
    /// Energy cost of moving the player between clusters (cache warmup,
    /// context migration), charged as transition energy.
    const MIGRATION_ENERGY_J: f64 = 2e-3;

    /// EAS-style automatic placement: when all cores are idle, compare the
    /// predicted demand against the LITTLE ceiling and swap clusters if
    /// the other one covers it more cheaply.
    fn maybe_migrate(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        if self.standby.is_none()
            || now.saturating_duration_since(self.last_migration) < Self::MIGRATION_HOLD
        {
            return;
        }
        if (0..self.cluster.num_cores()).any(|c| self.cluster.is_core_busy(c)) {
            return;
        }
        let snapshot = self.snapshot(now, 16);
        let GovernorChoice::Eavs(g) = &mut self.governor else {
            self.snapshot_scratch = snapshot.upcoming;
            return;
        };
        // Momentary demand can dip while the decoded queue is full; the
        // sustained rate is what the target cluster must cover.
        let required = g
            .required_hz_for(&snapshot)
            .max(g.sustained_hz_for(&snapshot))
            * (1.0 + g.config().margin);
        self.snapshot_scratch = snapshot.upcoming;
        let standby = self.standby.as_mut().expect("checked above");
        // Which of the two tables is LITTLE? The one with the lower top
        // frequency.
        let active_is_little = self.cluster.opps().max_freq() < standby.opps().max_freq();
        let little_top_hz = if active_is_little {
            self.cluster.opps().max_freq().hz() as f64
        } else {
            standby.opps().max_freq().hz() as f64
        };
        let fits_little = required.is_finite() && required <= little_top_hz * Self::LITTLE_HEADROOM;
        if fits_little == active_is_little {
            return; // already on the right cluster
        }
        // Swap: wake the standby, gate the active.
        standby.set_gated(now, false);
        self.cluster.set_gated(now, true);
        std::mem::swap(&mut self.cluster, standby);
        self.migrations += 1;
        self.last_migration = now;
        // Load monitors are per-cluster counters; rebase them.
        self.monitor = LoadMonitor::new(now, self.cluster.core_busy_total(0));
        if self.cluster.num_cores() > 1 {
            self.monitor_bg = LoadMonitor::new(now, self.cluster.core_busy_total(1));
        }
        // Recompute the energy floor for the new table.
        let floor = crate::selector::critical_speed_index(
            self.cluster.opps(),
            self.cluster.power_model(),
            self.cluster
                .cstates()
                .iter()
                .last()
                .expect("idle states")
                .power_w,
        );
        g.set_energy_floor(floor);
        self.emit(now, || TraceEvent::Migration {
            to_little: fits_little,
        });
        self.govern(sched, now);
    }

    /// Periodic background burst on core 1 (never the decode core).
    fn on_background(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        let Some(bg) = self.background else { return };
        if self.cluster.num_cores() > 1 && !self.cluster.is_core_busy(1) {
            let cycles = self
                .cluster
                .current_freq()
                .cycles_in(bg.period.mul_f64(bg.duty));
            self.cluster.start_job(now, 1, cycles);
            self.emit(now, || TraceEvent::BackgroundBurst);
        }
        sched.schedule_at(now + bg.period, Ev::Background);
    }

    /// Updates die temperature from dissipated power and applies thermal
    /// caps to the policy limits (cpufreq cooling-device behavior).
    fn update_thermal(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        let Some((model, throttle)) = &mut self.thermal else {
            return;
        };
        let (last_t, last_e) = self.thermal_last;
        let dt = now.saturating_duration_since(last_t);
        if dt.is_zero() {
            return;
        }
        let energy = self.cluster.energy_at(now).total();
        let power = ((energy - last_e) / dt.as_secs_f64()).max(0.0);
        model.update(power, dt);
        self.thermal_last = (now, energy);
        let temp = model.temperature();
        self.peak_temp_c = Some(self.peak_temp_c.map_or(temp, |p| p.max(temp)));
        let allowed = throttle.max_index(temp, self.cluster.opps());
        if allowed != self.cluster.limits().max_index {
            self.cluster.set_limits(PolicyLimits {
                min_index: 0,
                max_index: allowed,
            });
            // Force the running target back inside the new cap.
            let target = self.cluster.target_index().min(allowed);
            self.cluster.set_target(now, target);
            self.reschedule_decode(sched, now);
        }
    }

    fn on_sample(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        self.update_thermal(sched, now);
        if matches!(self.governor, GovernorChoice::Eavs(_)) {
            // EAVS never reads utilization samples — its demand comes from
            // the pipeline snapshot — so the decision tick skips the load
            // monitor bookkeeping entirely.
            self.govern(sched, now);
            let interval = self.governor.sampling_interval();
            sched.schedule_at(now + interval, Ev::Sample);
            return;
        }
        let busy = self.cluster.core_busy_total(0);
        let sample0 = self.monitor.sample(
            now,
            busy,
            self.cluster.current_freq(),
            self.cluster.current_index(),
        );
        // Linux policies observe the busiest CPU of the domain; include
        // the background core when it has load. Without a background load
        // core 1 never runs, and its all-idle window (sampled at the same
        // instants as core 0's) can never win the pick below.
        let sample = if self.background.is_some() && self.cluster.num_cores() > 1 {
            let sample1 = self.monitor_bg.sample(
                now,
                self.cluster.core_busy_total(1),
                self.cluster.current_freq(),
                self.cluster.current_index(),
            );
            match (sample0, sample1) {
                (Some(a), Some(b)) => Some(if b.busy_fraction > a.busy_fraction {
                    b
                } else {
                    a
                }),
                (a, b) => a.or(b),
            }
        } else {
            sample0
        };
        match (&mut self.governor, sample) {
            (GovernorChoice::Baseline(g), Some(sample)) => {
                let idx = g.on_sample(&sample, self.cluster.opps(), self.cluster.limits());
                self.emit(now, || TraceEvent::GovernorDecision {
                    cur_khz: u64::from(self.cluster.current_freq().khz()),
                    target_khz: u64::from(self.cluster.opps().freq(idx).khz()),
                });
                self.apply_target(sched, now, idx);
            }
            (GovernorChoice::Eavs(_), _) => unreachable!("EAVS tick handled above"),
            (GovernorChoice::Baseline(_), None) => {}
        }
        let interval = self.governor.sampling_interval();
        sched.schedule_at(now + interval, Ev::Sample);
    }

    /// EAVS event-driven decision (no-op for baselines, which only act on
    /// their sampling tick).
    /// Re-validates the steady demand cache across a clean `Displayed`
    /// vsync. The display pop and the vsync advance cancel exactly in
    /// every cached deadline — `(V+τ) + τ·(d−1+k) = V + τ·(d+k)` in
    /// integer nanoseconds — and no observation ran, so the cached items
    /// are bit-identical to what a fresh snapshot walk would produce.
    /// When the freed decoded slot let a decode start, the cache
    /// *slides* instead: the head tail item becomes the in-flight item
    /// (same predicted cycles, same deadline, zero executed) and, if the
    /// lookahead window is still full, the newly visible frame is
    /// appended — the only predictor call on this path.
    fn revalidate_steady_after_display(&mut self, inflight_before: bool) {
        let started = !inflight_before && self.decode_event.is_some();
        if !started {
            // In-flight state untouched: every cached item is invariant.
            self.steady.epoch = self.pipeline_epoch;
            return;
        }
        if self.steady.inflight.is_some() || self.steady.tail.is_empty() {
            // A start implies the cache saw an idle core and a nonempty
            // window; anything else is stale — take the full path.
            return;
        }
        self.slide_steady_head();
    }

    /// Re-validates the steady demand cache across a decode completion.
    /// Dropping the finished item cancels the decoded-queue growth in
    /// every remaining deadline (`base` stays `d+1`), so the cached tail
    /// is deadline-exact. The predictor *did* observe the finished frame,
    /// but its observations are type-local
    /// ([`WorkloadPredictor::observe_is_type_local`]), so only cached
    /// items of the observed type need a fresh prediction. If the freed
    /// core picked up the next frame, the cache slides as in the display
    /// path.
    ///
    /// [`WorkloadPredictor::observe_is_type_local`]:
    /// crate::predictor::WorkloadPredictor::observe_is_type_local
    fn revalidate_steady_after_decode(&mut self, observed: FrameMeta) {
        if self.steady.inflight.is_none() {
            // Stale: a completion implies a cached in-flight item.
            return;
        }
        let GovernorChoice::Eavs(g) = &self.governor else {
            return;
        };
        if !g.observe_type_local() {
            return;
        }
        if self.steady.tail.is_empty() {
            // Dropping the finished item leaves an *empty* demand list;
            // the decision is no longer a `DEMAND` one (idle/ended
            // branches take over) — only the full path can tell.
            return;
        }
        self.steady.inflight = None;
        for (item, meta) in self.steady.tail.iter_mut().zip(&self.steady.tail_meta) {
            if meta.frame_type == observed.frame_type {
                item.cycles = g.predict(*meta);
            }
        }
        if self.decode_event.is_some() {
            self.slide_steady_head();
        } else {
            self.steady.epoch = self.pipeline_epoch;
        }
    }

    /// Slides the steady cache by one frame after a decode start: the
    /// head tail item becomes the in-flight item (its deadline and
    /// predicted cycles are invariant — see the call sites' proofs) and,
    /// when the lookahead window is still full, the newly visible frame
    /// gets the one fresh prediction on this path.
    fn slide_steady_head(&mut self) {
        let GovernorChoice::Eavs(g) = &self.governor else {
            return;
        };
        let la = g.config().lookahead;
        let mut entrant = None;
        if la > 0 {
            let mut seen = 0usize;
            let mut last_meta = None;
            for f in self.pipeline.peek_undecoded(la) {
                seen += 1;
                last_meta = Some(FrameMeta::from(f));
            }
            if seen == la {
                let meta = last_meta.expect("seen == la > 0");
                let tau = self.manifest.frame_duration();
                let base = self.pipeline.decoded_len() as u64 + 1;
                let j = (la - 1) as u64;
                entrant = Some((
                    DemandItem {
                        cycles: g.predict(meta),
                        deadline: self.next_vsync_at.saturating_add(tau * (base + j)),
                    },
                    meta,
                ));
            }
        }
        let head = self.steady.tail.remove(0);
        self.steady.tail_meta.remove(0);
        self.steady.inflight = Some((head.cycles, head.deadline));
        if let Some((item, meta)) = entrant {
            self.steady.tail.push(item);
            self.steady.tail_meta.push(meta);
        }
        self.steady.epoch = self.pipeline_epoch;
    }

    fn govern(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        // Baselines never act here; bail before building a snapshot.
        let GovernorChoice::Eavs(gov) = &self.governor else {
            return;
        };
        // A decision consumes at most the lookahead window, so peek
        // exactly that. At lookahead 0 one frame is still peeked: the
        // fill/floor branches steer on waiting-queue emptiness.
        let want = gov.config().lookahead.max(1);
        // Panic races are counted inside the governor; sample the counter
        // around the decision so the trace can mark the exact instant.
        // Only paid when a sink is listening.
        let tracing = self.trace.is_some();
        let panics_before = if tracing {
            match &self.governor {
                GovernorChoice::Eavs(g) => g.panics(),
                _ => 0,
            }
        } else {
            0
        };
        // Steady-tick fast path: the pipeline is untouched since the last
        // full DEMAND decision (no event but sample ticks fired), so the
        // cached demand list is exact — only the clock moved and only the
        // in-flight item's remaining cycles need re-deriving.
        if self.steady.epoch == self.pipeline_epoch {
            let head = self.steady.inflight.map(|(predicted, deadline)| {
                let initial = self.decode_initial.expect("in-flight implies initial");
                let remaining = self.cluster.core(0).remaining().unwrap_or(Cycles::ZERO);
                let executed = initial.saturating_sub(remaining);
                // Same overrun rule as the snapshot path: an overshot
                // prediction leaves a 10% residual, not zero.
                let cycles = if executed.get() >= predicted.get() {
                    predicted.scale(0.1)
                } else {
                    predicted.saturating_sub(executed)
                };
                DemandItem { cycles, deadline }
            });
            let required = required_hz_split(now, head, &self.steady.tail);
            let GovernorChoice::Eavs(g) = &mut self.governor else {
                unreachable!("checked above");
            };
            let idx = g.decide_steady(
                now,
                self.cluster.opps(),
                self.cluster.limits(),
                self.cluster.current_index(),
                required,
            );
            if tracing {
                if g.panics() > panics_before {
                    self.emit(now, || TraceEvent::PanicRace);
                }
                self.emit(now, || TraceEvent::GovernorDecision {
                    cur_khz: u64::from(self.cluster.current_freq().khz()),
                    target_khz: u64::from(self.cluster.opps().freq(idx).khz()),
                });
            }
            self.apply_target(sched, now, idx);
            return;
        }

        let snapshot = self.snapshot(now, want);
        let GovernorChoice::Eavs(g) = &mut self.governor else {
            unreachable!("checked above");
        };
        let (idx, kind) = g.decide_tagged(
            &snapshot,
            self.cluster.opps(),
            self.cluster.limits(),
            self.cluster.current_index(),
        );
        if kind == decision_kind::DEMAND {
            // A live DEMAND decision just left its item list in the
            // governor's scratch: copy it into the steady cache so timer
            // ticks until the next pipeline event skip the rebuild. The
            // in-flight item is re-keyed by its *predicted* cost (its
            // remaining cycles are a function of the clock).
            let inflight = snapshot
                .in_flight
                .map(|ifm| (g.predict(ifm.meta), g.last_demand()[0].deadline));
            self.steady.tail.clear();
            self.steady
                .tail
                .extend_from_slice(&g.last_demand()[usize::from(inflight.is_some())..]);
            self.steady.tail_meta.clear();
            self.steady
                .tail_meta
                .extend_from_slice(&snapshot.upcoming[..self.steady.tail.len()]);
            self.steady.inflight = inflight;
            self.steady.epoch = self.pipeline_epoch;
        }
        let panics_after = if tracing { g.panics() } else { 0 };
        self.snapshot_scratch = snapshot.upcoming;
        if tracing {
            if panics_after > panics_before {
                self.emit(now, || TraceEvent::PanicRace);
            }
            self.emit(now, || TraceEvent::GovernorDecision {
                cur_khz: u64::from(self.cluster.current_freq().khz()),
                target_khz: u64::from(self.cluster.opps().freq(idx).khz()),
            });
        }
        self.apply_target(sched, now, idx);
    }

    /// Builds a pipeline snapshot carrying up to `want` waiting frames.
    /// Decisions only ever read the governor's lookahead window, so the
    /// govern path asks for exactly that; the placement path asks for the
    /// full 16-frame horizon its sustained-rate estimate integrates over.
    fn snapshot(&mut self, now: SimTime, want: usize) -> PipelineSnapshot {
        let in_flight = self.pipeline.in_flight().map(|frame| {
            let initial = self.decode_initial.expect("in-flight implies initial");
            let remaining = self.cluster.core(0).remaining().unwrap_or(Cycles::ZERO);
            InFlightMeta {
                meta: FrameMeta::from(frame),
                executed: initial.saturating_sub(remaining),
            }
        });
        let mut upcoming = std::mem::take(&mut self.snapshot_scratch);
        upcoming.clear();
        upcoming.extend(self.pipeline.peek_undecoded(want).map(FrameMeta::from));
        PipelineSnapshot {
            now,
            phase: self.playback.phase(),
            next_vsync: if self.playback.phase() == PlaybackPhase::Playing {
                self.next_vsync_at.max(now)
            } else {
                now
            },
            frame_period: self.manifest.frame_duration(),
            decoded_len: self.pipeline.decoded_len(),
            in_flight,
            upcoming,
        }
    }

    fn apply_target(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, idx: usize) {
        let before = self.cluster.target_index();
        self.cluster.set_target(now, idx);
        if self.cluster.target_index() != before {
            self.emit(now, || TraceEvent::FreqChange {
                from_khz: u64::from(self.cluster.opps().freq(before).khz()),
                to_khz: u64::from(self.cluster.opps().freq(self.cluster.target_index()).khz()),
            });
            if let Some(s) = &mut self.freq_series {
                s.set(
                    now,
                    self.cluster.opps().freq(self.cluster.target_index()).mhz() as f64,
                );
            }
            self.reschedule_decode(sched, now);
        }
    }

    fn reschedule_decode(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        if let Some(ev) = self.decode_event.take() {
            sched.cancel(ev);
            let done = self
                .cluster
                .completion_time(now, 0)
                .expect("decode in flight");
            self.decode_event = Some(sched.schedule_at(done, Ev::DecodeDone));
        }
    }

    fn build_report(
        mut self,
        end: SimTime,
        events_processed: u64,
        scratch: &mut SessionScratch,
    ) -> SessionReport {
        let session_length = end - SimTime::ZERO;
        let mut cpu_energy = self.cluster.energy_at(end);
        if let Some(standby) = &mut self.standby {
            let other = standby.energy_at(end);
            cpu_energy.busy_j += other.busy_j;
            cpu_energy.idle_j += other.idle_j;
            cpu_energy.static_j += other.static_j;
            cpu_energy.transition_j += other.transition_j;
        }
        cpu_energy.transition_j += Self::MIGRATION_ENERGY_J * self.migrations as f64;
        let mut tis = std::mem::take(&mut scratch.tis);
        tis.clear();
        tis.reserve(self.cluster.opps().len());
        self.cluster.time_in_state_into(end, &mut tis);
        let mut time_in_state: Vec<(Frequency, SimDuration)> = Vec::with_capacity(tis.len());
        time_in_state.extend(
            tis.iter()
                .enumerate()
                .map(|(i, &d)| (self.cluster.opps().freq(i), d)),
        );
        let total: SimDuration = tis.iter().copied().sum();
        let mean_khz = if total.is_zero() {
            0.0
        } else {
            time_in_state
                .iter()
                .map(|(f, d)| f.khz() as f64 * d.as_secs_f64())
                .sum::<f64>()
                / total.as_secs_f64()
        };
        scratch.tis = tis;
        let startup_delay = self.playback.startup_delay().unwrap_or(session_length);
        let qoe = QoeReport::from_playback(
            &self.playback,
            &self.bitrates,
            startup_delay,
            session_length,
        );
        // Whole-device power is accounted post-hoc from the finished
        // timeline (chosen bitrates, manifest, seed): it reads event-loop
        // products, never event-loop state, so the no-op model — and any
        // other — cannot perturb the simulation.
        let power = self
            .power
            .account(self.seed, &self.bitrates, &self.manifest, session_length);
        // QoE and power were the last readers; hand the recycled buffers
        // back.
        self.bitrates.clear();
        scratch.bitrates = std::mem::take(&mut self.bitrates);
        self.snapshot_scratch.clear();
        scratch.snapshot = std::mem::take(&mut self.snapshot_scratch);
        self.truth_scratch.clear();
        scratch.truth = std::mem::take(&mut self.truth_scratch);
        scratch.steady = std::mem::take(&mut self.steady);
        let panic_races = match &self.governor {
            GovernorChoice::Eavs(g) => g.panics(),
            _ => 0,
        };
        // The download timeline, copied once: the profiler reads it, then
        // the radio walk consumes it.
        let activity = self.downloader.activity(end);
        if let Some(p) = &mut self.profile {
            // Simulated occupancy comes from the authoritative model
            // state, filled once here rather than summed incrementally,
            // so it cannot drift from the rest of the report.
            let download: SimDuration = activity
                .iter()
                .map(|a| a.end.saturating_duration_since(a.start))
                .sum();
            p.set_sim_ns(Phase::Download, download.as_nanos());
            p.set_sim_ns(Phase::Decode, self.cluster.core_busy_total(0).as_nanos());
            p.set_sim_ns(
                Phase::Display,
                session_length
                    .saturating_sub(startup_delay)
                    .saturating_sub(qoe.rebuffer_time)
                    .as_nanos(),
            );
            // Governor decisions are instantaneous on the simulated
            // clock; their cost shows up in events and wall time only.
            p.set_sim_ns(Phase::Governor, 0);
        }
        let radio = self.radio.account(activity, session_length);
        // Frames still upstream of the decoder (undecoded + in flight);
        // decoded-queue leftovers are already counted in frames_decoded.
        let frames_pending = (self.pipeline.frames_buffered() - self.pipeline.decoded_len()) as u64;
        let mut report = SessionReport {
            governor: self.governor.report_name(),
            soc: self.soc,
            cluster: if self.standby.is_some() {
                "auto"
            } else {
                self.cluster.name()
            },
            migrations: self.migrations,
            content: self.content,
            cpu_energy,
            radio,
            power,
            qoe,
            session_length,
            mean_freq: Frequency::from_khz(mean_khz.round() as u32),
            transitions: self.cluster.transitions(),
            time_in_state,
            frames_decoded: self.pipeline.frames_decoded(),
            segments_downloaded: self.segments_downloaded,
            events_processed,
            background_jobs: if self.cluster.num_cores() > 1 {
                self.cluster.core(1).jobs_completed()
            } else {
                0
            },
            download_retries: self.download_retries,
            download_timeouts: self.download_timeouts,
            corrupt_downloads: self.corrupt_downloads,
            segments_abandoned: self.segments_abandoned,
            frames_skipped: self.frames_skipped,
            frames_pending,
            decode_spikes: self.decode_spikes,
            decode_stalls: self.decode_stalls,
            panic_races,
            frame_cycles: Arc::new(self.frame_cycles.finish()),
            profile: self.profile.map(Box::new),
            recorded: None,
        };
        report.set_recorded(
            self.freq_series.take(),
            self.buffer_series.take(),
            self.peak_temp_c,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::EavsConfig;
    use crate::predictor::Hybrid;
    use eavs_governors::{Ondemand, Performance, Powersave};

    fn short_manifest() -> Manifest {
        Manifest::single(3_000, 1280, 720, SimDuration::from_secs(10), 30)
    }

    fn eavs() -> GovernorChoice {
        GovernorChoice::Eavs(EavsGovernor::new(
            Box::new(Hybrid::default()),
            EavsConfig::default(),
        ))
    }

    fn run(gov: GovernorChoice) -> SessionReport {
        StreamingSession::builder(gov)
            .manifest(short_manifest())
            .seed(3)
            .run()
    }

    #[test]
    fn performance_session_completes_cleanly() {
        let r = run(GovernorChoice::Baseline(Box::new(Performance)));
        assert_eq!(r.qoe.frames_displayed, r.qoe.total_frames);
        assert_eq!(r.qoe.late_vsyncs, 0, "max frequency never misses");
        assert_eq!(r.qoe.rebuffer_events, 0);
        assert!(r.cpu_joules() > 0.0);
        assert!(r.radio.energy_j > 0.0);
        assert!(r.session_length >= SimDuration::from_secs(10));
    }

    #[test]
    fn eavs_saves_energy_without_misses_vs_performance() {
        let perf = run(GovernorChoice::Baseline(Box::new(Performance)));
        let eavs = run(eavs());
        assert_eq!(eavs.qoe.frames_displayed, eavs.qoe.total_frames);
        assert!(
            eavs.cpu_joules() < perf.cpu_joules() * 0.95,
            "eavs {:.2} J !< performance {:.2} J",
            eavs.cpu_joules(),
            perf.cpu_joules()
        );
        assert!(
            eavs.qoe.deadline_miss_rate() < 0.01,
            "missing {:.3}%",
            eavs.qoe.deadline_miss_rate() * 100.0
        );
    }

    #[test]
    fn powersave_misses_deadlines_on_heavy_content() {
        let r = StreamingSession::builder(GovernorChoice::Baseline(Box::new(Powersave)))
            .manifest(Manifest::single(
                6_000,
                1920,
                1080,
                SimDuration::from_secs(10),
                30,
            ))
            .seed(3)
            .run();
        assert!(
            r.qoe.late_vsyncs > 0,
            "1080p at the floor frequency must miss deadlines"
        );
        // Playback drags out beyond real time.
        assert!(r.session_length > SimDuration::from_secs(12));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(eavs());
        let b = run(eavs());
        assert_eq!(a.cpu_joules(), b.cpu_joules());
        assert_eq!(a.qoe.frames_displayed, b.qoe.frames_displayed);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn ondemand_runs_and_scales_down_sometimes() {
        let r = run(GovernorChoice::Baseline(Box::new(Ondemand::new())));
        assert_eq!(r.qoe.frames_displayed, r.qoe.total_frames);
        assert!(r.transitions > 0, "ondemand must move the frequency");
    }

    #[test]
    fn series_recording() {
        let r = StreamingSession::builder(eavs())
            .manifest(short_manifest())
            .record_series(true)
            .run();
        let freq = r.freq_series().expect("freq series");
        assert!(freq.len() > 1, "frequency must change over a session");
        let buffer = r.buffer_series().expect("buffer series");
        assert!(buffer.len() > 2);
    }

    #[test]
    fn time_in_state_covers_session() {
        let r = run(eavs());
        let total: SimDuration = r.time_in_state.iter().map(|&(_, d)| d).sum();
        assert_eq!(total, r.session_length);
    }

    #[test]
    fn little_cluster_handles_light_content_cheaper_but_fails_heavy() {
        // 480p on the LITTLE cluster: cheaper than on big.
        let light = |select: ClusterSelect| {
            StreamingSession::builder(eavs())
                .manifest(Manifest::single(
                    1_500,
                    854,
                    480,
                    SimDuration::from_secs(10),
                    30,
                ))
                .cluster(select)
                .seed(3)
                .run()
        };
        let big = light(ClusterSelect::Big);
        let little = light(ClusterSelect::Little);
        assert_eq!(little.qoe.late_vsyncs, 0, "480p fits on LITTLE");
        assert!(
            little.cpu_joules() < big.cpu_joules(),
            "LITTLE {:.2} J !< big {:.2} J at 480p",
            little.cpu_joules(),
            big.cpu_joules()
        );
        assert_eq!(little.cluster, "flagship2016-little");
        // 1080p60 sport (~1.7 Gcyc/s sustained) exceeds the LITTLE
        // ceiling (1.59 GHz): misses are unavoidable.
        let heavy = StreamingSession::builder(eavs())
            .manifest(Manifest::single(
                6_000,
                1920,
                1080,
                SimDuration::from_secs(10),
                60,
            ))
            .content(ContentProfile::Sport)
            .cluster(ClusterSelect::Little)
            .seed(3)
            .run();
        assert!(
            heavy.qoe.late_vsyncs > 0,
            "1080p60 sport must overwhelm the LITTLE cluster"
        );
    }

    #[test]
    fn auto_placement_moves_light_content_to_little() {
        let m = || Manifest::single(1_500, 854, 480, SimDuration::from_secs(20), 30);
        let light = StreamingSession::builder(eavs())
            .manifest(m())
            .cluster(ClusterSelect::Auto)
            .seed(3)
            .run();
        assert!(light.migrations >= 1, "480p should migrate to LITTLE");
        assert_eq!(light.cluster, "auto");
        assert_eq!(light.qoe.frames_displayed, light.qoe.total_frames);
        assert_eq!(light.qoe.late_vsyncs, 0);
        // Energy should approach the static-LITTLE placement, far below
        // static big.
        let static_big = StreamingSession::builder(eavs())
            .manifest(m())
            .cluster(ClusterSelect::Big)
            .seed(3)
            .run();
        let static_little = StreamingSession::builder(eavs())
            .manifest(m())
            .cluster(ClusterSelect::Little)
            .seed(3)
            .run();
        assert!(
            light.cpu_joules() < static_big.cpu_joules() * 0.8,
            "auto {:.2} J !< 0.8 x big {:.2} J",
            light.cpu_joules(),
            static_big.cpu_joules()
        );
        assert!(
            light.cpu_joules() < static_little.cpu_joules() * 1.25,
            "auto {:.2} J should approach LITTLE {:.2} J",
            light.cpu_joules(),
            static_little.cpu_joules()
        );
    }

    #[test]
    fn auto_placement_keeps_heavy_content_on_big() {
        // 1080p60 sport exceeds the LITTLE ceiling; this workload is
        // borderline even on the big cluster, so the requirement is that
        // automatic placement does no worse than the static big baseline.
        let run_with = |select: ClusterSelect| {
            StreamingSession::builder(eavs())
                .manifest(Manifest::single(
                    6_000,
                    1920,
                    1080,
                    SimDuration::from_secs(10),
                    60,
                ))
                .content(ContentProfile::Sport)
                .cluster(select)
                .seed(3)
                .run()
        };
        let auto = run_with(ClusterSelect::Auto);
        let big = run_with(ClusterSelect::Big);
        assert!(
            auto.qoe.late_vsyncs <= big.qoe.late_vsyncs,
            "auto ({} late) must not be worse than static big ({} late)",
            auto.qoe.late_vsyncs,
            big.qoe.late_vsyncs
        );
        assert!(auto.cpu_joules() <= big.cpu_joules() * 1.02);
    }

    #[test]
    #[should_panic(expected = "requires the EAVS governor")]
    fn auto_placement_rejects_baselines() {
        StreamingSession::builder(GovernorChoice::Baseline(Box::new(Performance)))
            .cluster(ClusterSelect::Auto)
            .run();
    }

    #[test]
    fn drop_policy_trades_frames_for_schedule() {
        use eavs_video::display::LatePolicy;
        let manifest = || Manifest::single(6_000, 1920, 1080, SimDuration::from_secs(15), 30);
        let run_ps = |policy| {
            StreamingSession::builder(GovernorChoice::Baseline(Box::new(Powersave)))
                .manifest(manifest())
                .late_policy(policy)
                .seed(3)
                .run()
        };
        let stall = run_ps(LatePolicy::Stall);
        let drop = run_ps(LatePolicy::Drop);
        // Stall: every frame eventually shows, but the session stretches.
        assert_eq!(stall.qoe.frames_displayed, stall.qoe.total_frames);
        assert!(stall.session_length > SimDuration::from_secs(18));
        // Drop: session stays on schedule, frames are sacrificed.
        assert!(drop.session_length < SimDuration::from_secs(17));
        assert!(drop.qoe.frames_dropped > 100);
        assert!(drop.qoe.frames_displayed + drop.qoe.frames_dropped <= drop.qoe.total_frames);
        assert!(drop.qoe.deadline_miss_rate() > 0.5);
        // A sufficient governor is indifferent to the policy.
        let eavs_drop = StreamingSession::builder(eavs())
            .manifest(manifest())
            .late_policy(LatePolicy::Drop)
            .seed(3)
            .run();
        assert_eq!(eavs_drop.qoe.frames_dropped, 0);
        assert_eq!(eavs_drop.qoe.frames_displayed, eavs_drop.qoe.total_frames);
    }

    #[test]
    fn thermal_model_tracks_and_throttles() {
        use eavs_cpu::thermal::{ThermalModel, ThrottleController};
        // An aggressive throttle window so even a short session trips it
        // under the performance governor.
        let hot = StreamingSession::builder(GovernorChoice::Baseline(Box::new(Performance)))
            .manifest(Manifest::single(
                6_000,
                1920,
                1080,
                SimDuration::from_secs(20),
                30,
            ))
            .thermal(
                ThermalModel::new(25.0, 20.0, 0.5), // tiny capacitance: fast heating
                ThrottleController::new(35.0, 90.0),
            )
            .seed(3)
            .run();
        let peak = hot.peak_temp_c().expect("thermal enabled");
        assert!(peak > 35.0, "performance must trip the throttle: {peak}°C");
        assert!(
            hot.mean_freq < Frequency::from_mhz(2150),
            "throttling must pull the mean below max"
        );
        // The same workload under EAVS stays cooler.
        let cool = StreamingSession::builder(eavs())
            .manifest(Manifest::single(
                6_000,
                1920,
                1080,
                SimDuration::from_secs(20),
                30,
            ))
            .thermal(
                ThermalModel::new(25.0, 20.0, 0.5),
                ThrottleController::new(35.0, 90.0),
            )
            .seed(3)
            .run();
        assert!(cool.peak_temp_c().expect("enabled") < peak);
    }

    #[test]
    fn background_load_runs_and_does_not_break_playback() {
        let r = StreamingSession::builder(eavs())
            .manifest(short_manifest())
            .background_load(0.3, SimDuration::from_millis(100))
            .seed(3)
            .run();
        assert!(r.background_jobs > 50, "bursts ran: {}", r.background_jobs);
        assert_eq!(r.qoe.frames_displayed, r.qoe.total_frames);
        assert_eq!(r.qoe.late_vsyncs, 0, "decode core is unaffected");
        // And without background, no jobs on core 1.
        let quiet = run(eavs());
        assert_eq!(quiet.background_jobs, 0);
    }

    #[test]
    fn background_load_costs_baselines_more_than_eavs() {
        let run_bg = |gov: GovernorChoice| {
            StreamingSession::builder(gov)
                .manifest(Manifest::single(
                    6_000,
                    1920,
                    1080,
                    SimDuration::from_secs(15),
                    30,
                ))
                .background_load(0.35, SimDuration::from_millis(50))
                .seed(3)
                .run()
        };
        let od = run_bg(GovernorChoice::Baseline(Box::new(Ondemand::new())));
        let ev = run_bg(eavs());
        // ondemand reacts to the polluted load signal; EAVS keys off the
        // video pipeline only.
        assert!(
            ev.cpu_joules() < od.cpu_joules(),
            "eavs {:.2} J !< ondemand {:.2} J under background load",
            ev.cpu_joules(),
            od.cpu_joules()
        );
        assert_eq!(ev.qoe.late_vsyncs, 0);
    }

    #[test]
    fn traced_session_is_unperturbed_and_timeline_is_deterministic() {
        use eavs_obs::{shared, RingSink};
        let plain = run(eavs());
        let record = || {
            let sink = shared(RingSink::new(1 << 16));
            let report = StreamingSession::builder(eavs())
                .manifest(short_manifest())
                .seed(3)
                .trace(sink.clone())
                .run();
            let ring = sink.lock().unwrap();
            (report, ring.to_jsonl(), ring.total_recorded())
        };
        let (traced, jsonl_a, recorded) = record();
        // Observation changes nothing about the outcome...
        assert_eq!(plain.cpu_joules(), traced.cpu_joules());
        assert_eq!(plain.events_processed, traced.events_processed);
        assert_eq!(plain.transitions, traced.transitions);
        assert_eq!(plain.qoe.frames_displayed, traced.qoe.frames_displayed);
        // ...the timeline is rich (engine dispatches + semantic events)...
        assert!(recorded > traced.events_processed, "tap + handler events");
        assert!(jsonl_a.contains(r#""ev":"playback_start""#));
        assert!(jsonl_a.contains(r#""ev":"governor_decision""#));
        assert!(jsonl_a.contains(r#""ev":"decode_start""#));
        // ...and byte-identical on a re-run.
        let (_, jsonl_b, _) = record();
        assert_eq!(jsonl_a, jsonl_b);
    }

    #[test]
    fn observers_do_not_perturb_the_fingerprint() {
        use eavs_obs::{shared, NullSink};
        let base = StreamingSession::builder(eavs())
            .manifest(short_manifest())
            .seed(3);
        let fp_plain = base.fingerprint().expect("cacheable");
        let observed = StreamingSession::builder(eavs())
            .manifest(short_manifest())
            .seed(3)
            .trace(shared(NullSink))
            .profile(true);
        assert!(observed.has_observer());
        assert_eq!(Some(fp_plain), observed.fingerprint());
        assert!(!base.has_observer());
    }

    #[test]
    fn profile_reports_phase_breakdown() {
        let r = StreamingSession::builder(eavs())
            .manifest(short_manifest())
            .seed(3)
            .profile(true)
            .run();
        let p = r.profile.expect("profiling was requested");
        assert!(p.total_events() > 0);
        assert_eq!(p.total_events(), r.events_processed);
        assert!(p.download.sim_ns > 0, "segments were transferred");
        assert!(p.decode.sim_ns > 0, "frames were decoded");
        assert!(p.display.sim_ns > 0, "playback happened");
        assert!(p.display.events > 0, "vsyncs were handled");
        // Unprofiled runs carry no breakdown.
        assert!(run(eavs()).profile.is_none());
    }

    #[test]
    fn constrained_network_causes_rebuffering() {
        // 3 Mbps content over a 1 Mbps link: cannot sustain playback.
        let r = StreamingSession::builder(eavs())
            .manifest(short_manifest())
            .network(BandwidthTrace::constant(1e6))
            .run();
        assert!(r.qoe.rebuffer_events > 0 || r.qoe.frames_displayed < r.qoe.total_frames);
    }

    #[test]
    fn only_a_modeled_power_component_splits_the_fingerprint() {
        let mk = || {
            StreamingSession::builder(eavs())
                .manifest(short_manifest())
                .seed(3)
        };
        let base = mk().fingerprint();
        assert!(base.is_some(), "fresh builders are cacheable");
        assert_ne!(
            base,
            mk().power(DevicePowerModel::phone()).fingerprint(),
            "a modeled power component must split the session fingerprint"
        );
        assert_eq!(
            base,
            mk().power(DevicePowerModel::none()).fingerprint(),
            "the zero-power no-op shares the fingerprint of no model at all"
        );
    }

    #[test]
    fn runs_on_one_thread_reuse_scratch_without_changing_reports() {
        // `run()` recycles this thread's scratch; the kernel driven by
        // hand with fresh buffers must produce the same bytes, including
        // for a session that inherits a faulted run's buffers.
        let mk = |faults: bool| {
            let b = StreamingSession::builder(eavs())
                .manifest(short_manifest())
                .seed(3);
            if faults {
                b.faults(FaultPlan::standard_storm())
            } else {
                b
            }
        };
        let fresh = |b: SessionBuilder| {
            let mut scratch = SessionScratch::default();
            let mut state = SessionState::with_scratch(b, &mut scratch);
            while state.step() {}
            format!("{:?}", state.finish_into(&mut scratch))
        };
        let first = format!("{:?}", mk(true).run());
        let second = format!("{:?}", mk(false).run());
        assert_eq!(first, fresh(mk(true)));
        assert_eq!(second, fresh(mk(false)));
    }
}
