//! Campaign expansion and the sharded run loop.
//!
//! Every per-session decision is drawn by SplitMix on the stable
//! coordinate `(campaign_seed, session_id, decision_domain)` — the same
//! convention as `eavs-faults` — so session `i`'s configuration is a pure
//! function of the spec. No draw consumes shared RNG state, so expansion
//! is order-free: shards can run in any order, on any number of workers,
//! and a resumed campaign re-derives exactly the sessions it skipped.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use eavs_core::governor::{EavsConfig, EavsGovernor};
use eavs_core::predictor::Hybrid;
use eavs_core::report::SessionReport;
use eavs_core::session::{GovernorChoice, SessionBuilder, StreamingSession};
use eavs_cpu::soc::SocModel;

use eavs_net::abr::{BufferBasedAbr, RateBasedAbr};
use eavs_net::bandwidth::BandwidthTrace;
use eavs_net::radio::RadioModel;
use eavs_power::DevicePowerModel;
use eavs_sim::time::SimDuration;
use eavs_trace::content::ContentProfile;
use eavs_video::manifest::Manifest;

use crate::aggregate::FleetAggregate;
use crate::checkpoint;
use crate::spec::{AbrChoice, CampaignSpec, NetworkChoice, TitleSpec};

/// Decision domains for the per-session coordinate draws. Stable wire
/// constants: changing one silently re-shuffles every campaign.
mod domain {
    pub const DEVICE: u64 = 1;
    pub const NETWORK: u64 = 2;
    pub const CONTENT: u64 = 3;
    pub const TITLE: u64 = 4;
    pub const ABR: u64 = 5;
    pub const WORKLOAD: u64 = 6;
    pub const TRACE: u64 = 7;
    pub const ARRIVAL: u64 = 8;
}

/// SplitMix64-style mix of a `(seed, domain, a, b)` coordinate — the same
/// keyed-hash convention `eavs-faults` uses for order-free fault
/// decisions.
fn coordinate_seed(seed: u64, dom: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        .wrapping_add(dom.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A uniform draw in [0, 1) from a coordinate.
fn coordinate_f64(seed: u64, dom: u64, session: u64) -> f64 {
    (coordinate_seed(seed, dom, session, 0) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Picks from a weighted mix by a uniform draw in [0, 1).
fn pick<T>(mix: &[(T, f64)], r: f64) -> &T {
    let total: f64 = mix.iter().map(|(_, w)| *w).sum();
    let mut remaining = r * total;
    for (item, w) in mix {
        remaining -= w;
        if remaining < 0.0 {
            return item;
        }
    }
    &mix.last().expect("validated mixes are non-empty").0
}

/// Everything drawn for one session of the population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionDraw {
    /// The session's id (its coordinate in the campaign).
    pub session_id: u64,
    /// Device.
    pub soc: SocModel,
    /// Network condition.
    pub network: NetworkChoice,
    /// Trace seed (from the campaign's trace pool; unused for constant
    /// networks).
    pub trace_seed: u64,
    /// Decode-statistics profile.
    pub content: ContentProfile,
    /// Title streamed.
    pub title: TitleSpec,
    /// ABR policy.
    pub abr: AbrChoice,
    /// Workload seed (from the campaign's seed pool).
    pub workload_seed: u64,
    /// Arrival offset into the campaign window, seconds.
    pub arrival_s: f64,
    /// Whole-device power model (the spec's, campaign-wide — not a
    /// per-session draw, but carried here so a draw stays a complete
    /// description of its session).
    pub power: DevicePowerModel,
}

/// Expands session `session_id` of the campaign — a pure function of
/// `(spec, session_id)`.
pub fn draw_session(spec: &CampaignSpec, session_id: u64) -> SessionDraw {
    let s = spec.seed;
    SessionDraw {
        session_id,
        soc: *pick(&spec.devices, coordinate_f64(s, domain::DEVICE, session_id)),
        network: *pick(
            &spec.networks,
            coordinate_f64(s, domain::NETWORK, session_id),
        ),
        trace_seed: coordinate_seed(s, domain::TRACE, session_id, 0) % spec.trace_pool,
        content: *pick(
            &spec.contents,
            coordinate_f64(s, domain::CONTENT, session_id),
        ),
        title: *pick(&spec.titles, coordinate_f64(s, domain::TITLE, session_id)),
        abr: *pick(&spec.abrs, coordinate_f64(s, domain::ABR, session_id)),
        // Seeds are 1-based: seed 0 is reserved (SimRng treats it specially
        // in some generators) and 1.. keeps pools disjoint from defaults.
        workload_seed: 1 + coordinate_seed(s, domain::WORKLOAD, session_id, 0) % spec.seed_pool,
        arrival_s: coordinate_f64(s, domain::ARRIVAL, session_id) * spec.arrival_span_s as f64,
        power: spec.power,
    }
}

/// Constructs a governor for a campaign matrix entry: any baseline name,
/// `eavs` (hybrid predictor, default config) or `eavs-panic` (panic
/// recovery enabled).
///
/// # Errors
///
/// Returns a message for unknown names.
pub fn governor_choice(name: &str) -> Result<GovernorChoice, String> {
    let config = match name {
        "eavs" => EavsConfig::default(),
        "eavs-panic" => EavsConfig::resilient(),
        other => {
            return eavs_governors::by_name(other)
                .map(GovernorChoice::Baseline)
                .ok_or_else(|| format!("unknown governor {other:?}"))
        }
    };
    let predictor = Box::new(Hybrid::default());
    Ok(GovernorChoice::Eavs(EavsGovernor::new(predictor, config)))
}

/// The manifest every session of `title` streams under `abr`: the
/// title's single encode for a fixed ABR, the standard ladder at its
/// length and frame rate for an adaptive one.
///
/// Unchecked: [`TitleSpec::manifest`] is the checked form. A fresh
/// allocation on each call, and memoized nowhere: [`run_shard`] builds
/// one per (title, ABR) of a shard and shares it between every lane of
/// every draw. Daemon specs carry any titles, so a process-wide memo
/// would grow without bound.
pub fn manifest_for(title: &TitleSpec, abr: AbrChoice) -> Arc<Manifest> {
    let duration = SimDuration::from_secs(title.duration_s);
    Arc::new(match abr {
        AbrChoice::Fixed => Manifest::single(
            title.bitrate_kbps,
            title.width,
            title.height,
            duration,
            title.fps,
        ),
        AbrChoice::Rate | AbrChoice::Buffer => Manifest::standard_ladder(duration, title.fps),
    })
}

/// Builds the runnable session for one draw under one governor.
///
/// The builder is fully fingerprintable, so identical draws (small trace
/// and seed pools make them common) deduplicate through the
/// content-addressed session cache when the runner routes through it.
///
/// # Errors
///
/// Returns a message for unknown governor names.
pub fn builder_for(draw: &SessionDraw, governor: &str) -> Result<SessionBuilder, String> {
    let manifest = manifest_for(&draw.title, draw.abr);
    Ok(session_builder(draw, governor_choice(governor)?, manifest))
}

/// The one session builder, for campaign shards and `eavsctl run`: the
/// session `draw` describes under `governor`, streaming `manifest`, which
/// must be [`manifest_for`]`(draw.title, draw.abr)`. A draw not from a
/// validated spec is checked first by [`TitleSpec::manifest`] and
/// [`NetworkChoice::check_streams`].
pub fn session_builder(
    draw: &SessionDraw,
    governor: GovernorChoice,
    manifest: Arc<Manifest>,
) -> SessionBuilder {
    let duration = SimDuration::from_secs(draw.title.duration_s);
    let builder = StreamingSession::builder(governor)
        .soc(draw.soc)
        .content(draw.content)
        .manifest(manifest)
        .power(draw.power)
        .seed(draw.workload_seed);
    let builder = match draw.network {
        NetworkChoice::Constant(mbps) => builder
            .network(BandwidthTrace::constant(mbps * 1e6))
            .radio(RadioModel::wifi()),
        // Traces are memoized per (profile, duration, seed), so a small
        // trace pool shares Arcs across the whole population. 3x the
        // clip length covers rebuffer-stretched sessions, as in the
        // figure harness.
        NetworkChoice::Profile(profile) => builder
            .network(profile.generate_shared(duration * 3, draw.trace_seed))
            .radio(profile.radio()),
    };
    match draw.abr {
        AbrChoice::Fixed => builder,
        AbrChoice::Rate => builder.abr(Box::new(RateBasedAbr::standard())),
        AbrChoice::Buffer => builder.abr(Box::new(BufferBasedAbr::standard())),
    }
}

/// A shard runner: executes labeled session builders (however it likes —
/// serially, on a pool, through a cache) and returns the reports in input
/// order.
pub type ShardRunner<'a> = dyn Fn(Vec<(String, SessionBuilder)>) -> Vec<Arc<SessionReport>> + 'a;

/// Knobs for one [`run_campaign`] invocation.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Checkpoint file: loaded (and validated against the spec) when it
    /// exists, rewritten as shards complete.
    pub checkpoint: Option<PathBuf>,
    /// Shards between checkpoint writes (0 behaves as 1). The final
    /// checkpoint after the last shard is always written.
    pub checkpoint_every: u64,
    /// Stop (with a checkpoint) once this many shards are done — the
    /// deterministic "kill" half of the CI kill/resume test.
    pub halt_after_shards: Option<u64>,
    /// Cooperative cancel flag, observed at shard boundaries only: the
    /// in-flight shard always completes and is checkpointed, so a
    /// cancelled campaign resumes (or re-submits) to byte-identical
    /// final output. The daemon's `DELETE /campaigns/{id}` sets this.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Warm-start prior: every session is seeded with
    /// `prior.session_prior(title, content)` before it runs
    /// (`eavsctl fleet --prior FILE`). `None` — and any title/content
    /// pair the store has never seen — runs cold; an empty projection is
    /// the tag-0 no-op, so a warmed campaign over unknown titles is
    /// byte-identical to an unwarmed one.
    pub prior: Option<Arc<crate::prior::PriorStore>>,
}

impl RunOptions {
    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }
}

/// How a [`run_campaign`] invocation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignStatus {
    /// All shards folded; the aggregate is final.
    Complete,
    /// Halted at `halt_after_shards`; resume from the checkpoint.
    Halted,
    /// Cancelled through [`RunOptions::cancel`] at a shard boundary;
    /// the checkpoint (if any) holds every completed shard.
    Cancelled,
}

/// The result of one [`run_campaign`] invocation.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// The merged aggregate (final when `status` is `Complete`).
    pub aggregate: FleetAggregate,
    /// Whether the campaign finished or halted at the shard limit.
    pub status: CampaignStatus,
    /// Session-runs (sessions × governors) executed by this invocation —
    /// resumed shards are not re-run and not counted.
    pub session_runs: u64,
    /// Largest per-shard resident footprint seen: the shard's reports
    /// plus its partial aggregate. Stays flat as the population grows.
    pub peak_shard_bytes: u64,
    /// Wall-clock seconds spent in the shard loop.
    pub wall_s: f64,
}

/// The folded output of one shard execution: exactly what a worker ships
/// back to a coordinator.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// The shard's partial aggregate (`shards_done` stays 0 — the cursor
    /// belongs to whoever folds partials in order).
    pub partial: FleetAggregate,
    /// Session-runs (sessions × governors) this shard executed.
    pub session_runs: u64,
    /// Resident footprint of the shard: its reports, each frame-cost
    /// summary they share counted once, plus the partial.
    pub shard_bytes: u64,
}

/// Expands and executes one shard of the campaign, folding its reports
/// into a fresh partial aggregate. A pure function of `(spec, shard)` up
/// to the runner, so shards can execute in any order on any worker and
/// still merge to identical bits — this is the unit of work the daemon's
/// shard-claim protocol hands out.
///
/// # Errors
///
/// Returns a message for an out-of-range shard index, an unknown
/// governor, or a runner that returns the wrong number of reports.
pub fn run_shard(
    spec: &CampaignSpec,
    shard: u64,
    runner: &ShardRunner,
) -> Result<ShardOutcome, String> {
    run_shard_warm(spec, shard, None, runner)
}

/// [`run_shard`] with a warm-start prior: each session's builder is
/// seeded with the store's projection for its (title, content) draw.
/// `None` (or a store that has never seen the pair) runs the shard cold.
pub fn run_shard_warm(
    spec: &CampaignSpec,
    shard: u64,
    prior: Option<&crate::prior::PriorStore>,
    runner: &ShardRunner,
) -> Result<ShardOutcome, String> {
    if shard >= spec.num_shards() {
        return Err(format!(
            "shard {shard} out of range (campaign has {} shards)",
            spec.num_shards()
        ));
    }
    let (start, end) = spec.shard_range(shard);
    let draws: Vec<SessionDraw> = (start..end).map(|id| draw_session(spec, id)).collect();
    let mut manifests = HashMap::new();
    let mut jobs = Vec::with_capacity(draws.len() * spec.governors.len());
    for draw in &draws {
        let manifest = manifests
            .entry((draw.title, draw.abr))
            .or_insert_with(|| manifest_for(&draw.title, draw.abr));
        for gov in &spec.governors {
            let mut builder = session_builder(draw, governor_choice(gov)?, Arc::clone(manifest));
            if let Some(store) = prior {
                builder =
                    builder.prior(store.session_prior(&draw.title.key(), draw.content.name()));
            }
            jobs.push((
                format!("fleet {} s{} {gov}", spec.name, draw.session_id),
                builder,
            ));
        }
    }
    let expected = jobs.len();
    let reports = runner(jobs);
    if reports.len() != expected {
        return Err(format!(
            "shard {shard}: runner returned {} reports for {expected} jobs",
            reports.len()
        ));
    }

    // Fold into a fresh per-shard partial — the same path the
    // associativity proptest exercises, so the campaign provably cannot
    // depend on shard order.
    let mut partial = FleetAggregate::new(spec);
    let mut iter = reports.iter();
    for draw in &draws {
        partial.observe_arrival(draw.arrival_s);
        for gov_index in 0..spec.governors.len() {
            let report = iter.next().expect("length checked above");
            partial.observe(gov_index, report);
            // Decode cost is a property of the stream, not the governor:
            // every lane decodes the same frames, so folding one lane
            // into the fleet prior captures the workload without
            // multi-counting sessions.
            if gov_index == 0 {
                partial.observe_prior(&draw.title.key(), draw.content.name(), &report.frame_cycles);
            }
        }
    }
    // Lanes of one stream, and cached reports of one title, share their
    // frame-cost summary: count each distinct one once.
    let mut summaries = HashSet::new();
    let shard_bytes = reports
        .iter()
        .map(|r| {
            let first = summaries.insert(Arc::as_ptr(&r.frame_cycles));
            r.approx_bytes() - if first { 0 } else { r.summary_bytes() }
        })
        .sum::<u64>()
        + partial.approx_bytes();
    Ok(ShardOutcome {
        partial,
        session_runs: expected as u64,
        shard_bytes,
    })
}

/// Runs (or resumes) a campaign: expands each shard's sessions, executes
/// them through `runner`, folds the reports into a per-shard partial and
/// merges that into the running aggregate.
///
/// # Errors
///
/// Returns a message on an invalid spec, an incompatible or corrupt
/// checkpoint, checkpoint I/O failure, or a runner that returns the wrong
/// number of reports.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &RunOptions,
    runner: &ShardRunner,
) -> Result<CampaignOutcome, String> {
    spec.validate()?;
    let fingerprint = spec.fingerprint();
    let mut aggregate = match &opts.checkpoint {
        Some(path) => match checkpoint::load(path)? {
            Some(saved) => {
                if saved.campaign != fingerprint.0 {
                    return Err(format!(
                        "checkpoint {} belongs to a different campaign (spec changed?)",
                        path.display()
                    ));
                }
                saved
            }
            None => FleetAggregate::new(spec),
        },
        None => FleetAggregate::new(spec),
    };

    let total_shards = spec.num_shards();
    let every = opts.checkpoint_every.max(1);
    let started = Instant::now();
    let mut session_runs = 0u64;
    let mut peak_shard_bytes = 0u64;
    let mut status = CampaignStatus::Complete;

    while aggregate.shards_done < total_shards {
        if opts
            .halt_after_shards
            .is_some_and(|h| aggregate.shards_done >= h)
        {
            status = CampaignStatus::Halted;
            break;
        }
        if opts.cancelled() {
            status = CampaignStatus::Cancelled;
            break;
        }
        let shard = aggregate.shards_done;
        let out = run_shard_warm(spec, shard, opts.prior.as_deref(), runner)?;
        session_runs += out.session_runs;
        peak_shard_bytes = peak_shard_bytes.max(out.shard_bytes);
        aggregate.merge(&out.partial);
        aggregate.shards_done = shard + 1;

        if let Some(path) = &opts.checkpoint {
            let last = aggregate.shards_done == total_shards;
            let stopping = opts
                .halt_after_shards
                .is_some_and(|h| aggregate.shards_done >= h)
                || opts.cancelled();
            if aggregate.shards_done % every == 0 || last || stopping {
                checkpoint::save(path, &aggregate)?;
            }
        }
    }

    Ok(CampaignOutcome {
        aggregate,
        status,
        session_runs,
        peak_shard_bytes,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// A serial shard runner: builds and runs each session in order on the
/// calling thread, with no cache. The reference implementation tests
/// compare parallel/cached runners against.
pub fn serial_runner(jobs: Vec<(String, SessionBuilder)>) -> Vec<Arc<SessionReport>> {
    jobs.into_iter()
        .map(|(_, builder)| Arc::new(builder.run()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_and_stable() {
        let spec = CampaignSpec::smoke();
        let a = draw_session(&spec, 17);
        let b = draw_session(&spec, 17);
        assert_eq!(a, b);
        // Different ids land on different coordinates (overwhelmingly).
        let c = draw_session(&spec, 18);
        assert!(a != c || a.session_id != c.session_id);
        // Pools are respected.
        for id in 0..200 {
            let d = draw_session(&spec, id);
            assert!(d.trace_seed < spec.trace_pool);
            assert!((1..=spec.seed_pool).contains(&d.workload_seed));
            assert!(d.arrival_s >= 0.0 && d.arrival_s < spec.arrival_span_s as f64);
        }
    }

    #[test]
    fn draws_cover_the_mixes() {
        let spec = CampaignSpec::smoke();
        let mut socs = std::collections::BTreeSet::new();
        let mut nets = std::collections::BTreeSet::new();
        for id in 0..300 {
            let d = draw_session(&spec, id);
            socs.insert(d.soc.name());
            nets.insert(d.network.name());
        }
        assert_eq!(socs.len(), spec.devices.len(), "all SoCs drawn");
        assert_eq!(nets.len(), spec.networks.len(), "all networks drawn");
    }

    #[test]
    fn governor_choice_covers_matrix_names() {
        for name in [
            "performance",
            "powersave",
            "ondemand",
            "interactive",
            "schedutil",
            "eavs",
            "eavs-panic",
        ] {
            governor_choice(name).unwrap();
        }
        assert!(governor_choice("warp").is_err());
    }

    #[test]
    fn builders_are_fingerprintable_for_dedup() {
        let spec = CampaignSpec::smoke();
        let draw = draw_session(&spec, 3);
        let a = builder_for(&draw, "eavs").unwrap().fingerprint();
        let b = builder_for(&draw, "eavs").unwrap().fingerprint();
        assert!(a.is_some(), "campaign sessions must be cacheable");
        assert_eq!(a, b, "identical draws must deduplicate");
        let other = builder_for(&draw, "ondemand").unwrap().fingerprint();
        assert_ne!(a, other);
    }

    #[test]
    fn tiny_campaign_runs_to_completion() {
        let mut spec = CampaignSpec::smoke();
        spec.sessions = 5;
        spec.shard_size = 2;
        let out = run_campaign(&spec, &RunOptions::default(), &serial_runner).unwrap();
        assert_eq!(out.status, CampaignStatus::Complete);
        assert_eq!(out.aggregate.sessions_done, 5);
        assert_eq!(out.aggregate.shards_done, 3);
        assert_eq!(out.session_runs, 5 * spec.governors.len() as u64);
        for lane in &out.aggregate.govs {
            assert_eq!(lane.sessions, 5);
            assert!(lane.cpu_j_sum.value() > 0.0);
        }
        assert!(out.peak_shard_bytes > 0);
    }

    #[test]
    fn empty_prior_warm_start_is_byte_identical_to_cold() {
        let mut spec = CampaignSpec::smoke();
        spec.sessions = 4;
        spec.shard_size = 2;
        let cold = run_campaign(&spec, &RunOptions::default(), &serial_runner).unwrap();
        let warmed = run_campaign(
            &spec,
            &RunOptions {
                prior: Some(Arc::new(crate::prior::PriorStore::new())),
                ..RunOptions::default()
            },
            &serial_runner,
        )
        .unwrap();
        // An empty store projects the tag-0 no-op prior for every draw.
        assert_eq!(
            crate::checkpoint::encode(&cold.aggregate),
            crate::checkpoint::encode(&warmed.aggregate)
        );
    }

    #[test]
    fn trained_prior_changes_the_eavs_lane_but_not_the_workload() {
        let mut spec = CampaignSpec::smoke();
        spec.sessions = 4;
        spec.shard_size = 2;
        let cold = run_campaign(&spec, &RunOptions::default(), &serial_runner).unwrap();
        let warmed = run_campaign(
            &spec,
            &RunOptions {
                prior: Some(Arc::new(cold.aggregate.prior.clone())),
                ..RunOptions::default()
            },
            &serial_runner,
        )
        .unwrap();
        // Decode cost is governor- and predictor-independent, so the
        // re-observed prior must round-trip exactly even though the
        // warmed EAVS lane made different frequency decisions.
        assert_eq!(warmed.aggregate.prior, cold.aggregate.prior);
        let eavs = spec.governors.iter().position(|g| g == "eavs").unwrap();
        assert_ne!(
            warmed.aggregate.govs[eavs].cpu_j_sum.raw(),
            cold.aggregate.govs[eavs].cpu_j_sum.raw(),
            "a trained prior must actually change early frequency decisions"
        );
    }

    #[test]
    fn one_session_campaign_prior_equals_the_direct_run_statistics() {
        // The campaign path must add nothing to (and lose nothing from)
        // the per-session decode statistics: a 1-session campaign's
        // emitted prior is exactly that session's `frame_cycles`.
        let mut spec = CampaignSpec::smoke();
        spec.sessions = 1;
        spec.shard_size = 1;
        let out = run_campaign(&spec, &RunOptions::default(), &serial_runner).unwrap();
        let draw = draw_session(&spec, 0);
        let report = builder_for(&draw, &spec.governors[0]).unwrap().run();
        assert!(report.frame_cycles.total_frames() > 0);
        assert_eq!(out.aggregate.prior.len(), 1);
        assert_eq!(
            out.aggregate
                .prior
                .get(&draw.title.key(), draw.content.name()),
            Some(&*report.frame_cycles)
        );
    }

    #[test]
    fn run_shard_partials_fold_to_the_campaign_aggregate() {
        let mut spec = CampaignSpec::smoke();
        spec.sessions = 6;
        spec.shard_size = 2;
        let whole = run_campaign(&spec, &RunOptions::default(), &serial_runner).unwrap();
        // Merge the standalone shard partials out of order: the fold is
        // order-free, so a coordinator can accept them from any worker.
        let mut folded = FleetAggregate::new(&spec);
        for shard in [2u64, 0, 1] {
            let out = run_shard(&spec, shard, &serial_runner).unwrap();
            assert_eq!(out.partial.shards_done, 0, "cursor belongs to the folder");
            assert_eq!(out.session_runs, 2 * spec.governors.len() as u64);
            folded.merge(&out.partial);
        }
        folded.shards_done = 3;
        assert_eq!(folded, whole.aggregate);
        assert!(run_shard(&spec, 3, &serial_runner).is_err(), "out of range");
    }

    #[test]
    fn cancel_stops_at_a_shard_boundary_with_a_resumable_checkpoint() {
        let mut spec = CampaignSpec::smoke();
        spec.sessions = 6;
        spec.shard_size = 2;
        let reference = run_campaign(&spec, &RunOptions::default(), &serial_runner).unwrap();

        let dir = std::env::temp_dir().join(format!("eavs-cancel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("cancel.ckpt");
        let flag = Arc::new(AtomicBool::new(false));
        // The runner flips the flag mid-shard: the shard must still
        // complete and checkpoint before the loop observes the cancel.
        let cancel_in_shard = flag.clone();
        let cancelling_runner = move |jobs: Vec<(String, SessionBuilder)>| {
            cancel_in_shard.store(true, Ordering::SeqCst);
            serial_runner(jobs)
        };
        let opts = RunOptions {
            checkpoint: Some(ckpt.clone()),
            cancel: Some(flag.clone()),
            ..RunOptions::default()
        };
        let cancelled = run_campaign(&spec, &opts, &cancelling_runner).unwrap();
        assert_eq!(cancelled.status, CampaignStatus::Cancelled);
        assert_eq!(cancelled.aggregate.shards_done, 1);

        // Clearing the flag resumes from the checkpoint to bytes
        // identical to the uncancelled run.
        flag.store(false, Ordering::SeqCst);
        let resumed = run_campaign(&spec, &opts, &serial_runner).unwrap();
        assert_eq!(resumed.status, CampaignStatus::Complete);
        assert_eq!(
            checkpoint::encode(&resumed.aggregate),
            checkpoint::encode(&reference.aggregate)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancel_before_the_first_shard_runs_nothing() {
        let spec = CampaignSpec::smoke();
        let opts = RunOptions {
            cancel: Some(Arc::new(AtomicBool::new(true))),
            ..RunOptions::default()
        };
        let out = run_campaign(&spec, &opts, &serial_runner).unwrap();
        assert_eq!(out.status, CampaignStatus::Cancelled);
        assert_eq!(out.session_runs, 0);
        assert_eq!(out.aggregate.shards_done, 0);
    }

    #[test]
    fn shard_size_does_not_change_the_aggregate() {
        let mut spec = CampaignSpec::smoke();
        spec.sessions = 6;
        spec.shard_size = 6;
        let whole = run_campaign(&spec, &RunOptions::default(), &serial_runner).unwrap();
        let mut sharded_spec = spec.clone();
        sharded_spec.shard_size = 2;
        let sharded = run_campaign(&sharded_spec, &RunOptions::default(), &serial_runner).unwrap();
        // Shard size is part of the campaign fingerprint (it defines the
        // checkpoint grid), so compare the statistics lane by lane.
        assert_eq!(whole.aggregate.govs, sharded.aggregate.govs);
        assert_eq!(whole.aggregate.arrivals, sharded.aggregate.arrivals);
    }
}
