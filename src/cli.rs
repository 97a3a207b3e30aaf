//! Command-line interface for `eavsctl`.
//!
//! Argument parsing is separated from execution so it is unit-testable;
//! the `eavsctl` binary is a thin wrapper around [`parse`] + [`execute`].

use eavs_core::governor::{EavsConfig, EavsGovernor};
use eavs_core::predictor::predictor_by_name;
use eavs_core::report::SessionReport;
use eavs_core::session::{ClusterSelect, GovernorChoice, StreamingSession};
use eavs_cpu::soc::SocModel;
use eavs_faults::{FaultPlan, RandomFaults};
use eavs_governors::by_name;
use eavs_net::abr::{AbrAlgorithm, BufferBasedAbr, FixedAbr, RateBasedAbr};
use eavs_net::bandwidth::BandwidthTrace;
use eavs_net::download::RetryPolicy;
use eavs_net::radio::RadioModel;
use eavs_power::DevicePowerModel;
use eavs_sim::time::SimDuration;
use eavs_trace::content::ContentProfile;
use eavs_trace::net_gen::NetworkProfile;
use eavs_video::manifest::Manifest;

/// A parsed `eavsctl` invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run one session and print the report.
    Run(RunArgs),
    /// Run the same workload under several governors and print a table.
    Compare(RunArgs, Vec<String>),
    /// Run (or resume) a population campaign and print the fleet table.
    Fleet(FleetArgs),
    /// Run one traced session and dump its event timeline.
    Trace(TraceArgs),
    /// Submit a campaign to a resident `eavsd` over HTTP.
    Submit(SubmitArgs),
    /// Show daemon campaign progress (all campaigns, or one by id).
    Status(StatusArgs),
    /// Cancel a running daemon campaign at the next shard boundary.
    Cancel(RemoteArgs),
    /// Talk to the daemon itself: health, metrics, shutdown.
    Daemon(DaemonArgs),
    /// Print the available names (governors, predictors, SoCs, …).
    List,
    /// Print usage.
    Help,
}

/// Parameters of a `submit` invocation: the spec-shaping subset of the
/// fleet flags plus daemon-client options.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SubmitArgs {
    /// Spec shape: campaign preset + overrides (checkpointing stays on
    /// the daemon side, so only the spec-shaping fleet flags apply).
    pub fleet: FleetArgs,
    /// Daemon address override (`host:port`); defaults to
    /// `EAVS_DAEMON_ADDR`, then `127.0.0.1:7026`.
    pub addr: Option<String>,
    /// Poll until the campaign completes and print the fleet table.
    pub wait: bool,
}

/// Parameters of a `status` invocation.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StatusArgs {
    /// Campaign id; `None` lists every resident campaign.
    pub id: Option<String>,
    /// Daemon address override.
    pub addr: Option<String>,
}

/// A daemon-client invocation addressing one campaign id.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RemoteArgs {
    /// Campaign id (32 hex digits, as returned by `submit`).
    pub id: String,
    /// Daemon address override.
    pub addr: Option<String>,
}

/// Parameters of a `daemon` invocation.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct DaemonArgs {
    /// `status` (default), `metrics` or `shutdown`.
    pub action: String,
    /// Daemon address override.
    pub addr: Option<String>,
}

/// Parameters of a `trace` invocation: one session plus dump options.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceArgs {
    /// The session to trace (all `run` flags apply).
    pub run: RunArgs,
    /// Write the dump here instead of stdout.
    pub out: Option<String>,
    /// Emit Chrome trace-event JSON (Perfetto-loadable) instead of JSONL.
    pub chrome: bool,
    /// Ring-buffer capacity; older events are dropped beyond this.
    pub events: usize,
}

impl Default for TraceArgs {
    fn default() -> Self {
        TraceArgs {
            run: RunArgs::default(),
            out: None,
            chrome: false,
            events: 65_536,
        }
    }
}

/// Parameters of a `fleet` campaign invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetArgs {
    /// Preset name: `smoke` or `global`.
    pub campaign: String,
    /// Population size override.
    pub sessions: Option<u64>,
    /// Campaign seed override (rekeys every per-session draw).
    pub seed: Option<u64>,
    /// Shard size override.
    pub shard_size: Option<u64>,
    /// Governor-lane override (comma-separated on the command line).
    pub governors: Option<Vec<String>>,
    /// Checkpoint path for kill/resume.
    pub checkpoint: Option<String>,
    /// Shards between checkpoint writes.
    pub checkpoint_every: u64,
    /// Deterministic kill: stop after this many shards.
    pub halt_after_shards: Option<u64>,
    /// Also write the population table as CSV here.
    pub out: Option<String>,
    /// Also write Prometheus text-exposition metrics here.
    pub metrics_out: Option<String>,
    /// Whole-device power model override: `none`, `phone` or
    /// `phone:<brightness>` (defaults to the preset's, which is `none`).
    pub power: Option<String>,
    /// Write the campaign's trained workload prior (`eavs-prior/v1`) here.
    pub emit_prior: Option<String>,
    /// Warm-start every session from a previously trained prior file.
    pub prior: Option<String>,
}

impl Default for FleetArgs {
    fn default() -> Self {
        FleetArgs {
            campaign: "smoke".to_owned(),
            sessions: None,
            seed: None,
            shard_size: None,
            governors: None,
            checkpoint: None,
            checkpoint_every: 1,
            halt_after_shards: None,
            out: None,
            metrics_out: None,
            power: None,
            emit_prior: None,
            prior: None,
        }
    }
}

/// Workload and scheme parameters shared by `run` and `compare`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Governor name (`eavs` or a baseline).
    pub governor: String,
    /// Predictor for EAVS.
    pub predictor: String,
    /// Content profile name.
    pub content: String,
    /// SoC preset name.
    pub soc: String,
    /// `big` or `little`.
    pub cluster: String,
    /// Bitrate in kbps.
    pub bitrate_kbps: u32,
    /// Luma width.
    pub width: u32,
    /// Luma height.
    pub height: u32,
    /// Frames per second.
    pub fps: u32,
    /// Stream length in seconds.
    pub duration_s: u64,
    /// Network: `constant:<mbps>` or a preset name.
    pub network: String,
    /// Radio model: `wifi`, `lte` or `3g`.
    pub radio: String,
    /// ABR: `fixed`, `rate` or `buffer` (uses the standard ladder).
    pub abr: Option<String>,
    /// Workload seed.
    pub seed: u64,
    /// EAVS margin override (fraction).
    pub margin: Option<f64>,
    /// Late-frame policy: `stall` (default) or `drop`.
    pub late_policy: String,
    /// Fault plan: `none`, `storm`, `light:<seed>` or `heavy:<seed>`.
    pub faults: String,
    /// Whole-device power model: `none`, `phone` or `phone:<brightness>`.
    pub power: String,
    /// Retry policy: `default`, `balanced`, or `<timeout_ms>,<retries>,<base_ms>`.
    pub retry: Option<String>,
    /// Enable EAVS panic recovery (re-race to max on breach/rebuffer).
    pub panic_recovery: bool,
    /// Collect a per-phase time breakdown and print it with the report.
    pub profile: bool,
    /// Seed the predictor from a trained prior file (`eavs-prior/v1`).
    pub prior: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            governor: "eavs".to_owned(),
            predictor: "hybrid".to_owned(),
            content: "film".to_owned(),
            soc: "flagship2016".to_owned(),
            cluster: "big".to_owned(),
            bitrate_kbps: 6_000,
            width: 1920,
            height: 1080,
            fps: 30,
            duration_s: 60,
            network: "constant:20".to_owned(),
            radio: "wifi".to_owned(),
            abr: None,
            seed: 42,
            margin: None,
            late_policy: "stall".to_owned(),
            faults: "none".to_owned(),
            power: "none".to_owned(),
            retry: None,
            panic_recovery: false,
            profile: false,
            prior: None,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
eavsctl — energy-aware video frequency scaling simulator

USAGE:
  eavsctl run [OPTIONS]              run one streaming session
  eavsctl compare g1,g2,.. [OPTIONS] same workload under several governors
  eavsctl fleet [FLEET OPTIONS]      run a population campaign (F26-style)
  eavsctl trace [OPTIONS] [TRACE OPTIONS]
                                     run one traced session, dump the timeline
  eavsctl submit [SUBMIT OPTIONS]    submit a campaign to a resident eavsd
  eavsctl status [ID] [--addr A]     daemon campaign progress (all, or one id)
  eavsctl cancel ID [--addr A]       cancel a daemon campaign (checkpoint kept)
  eavsctl daemon [status|metrics|shutdown] [--addr A]
                                     talk to the daemon itself
  eavsctl list                       print available names
  eavsctl help                       this text

OPTIONS (with defaults):
  --governor eavs         eavs | performance | powersave | userspace |
                          ondemand | conservative | interactive | schedutil
  --predictor hybrid      last | ewma | window-max | size-regression |
                          hybrid | oracle
  --content film          animation | film | sport
  --soc flagship2016      biglittle2013 | flagship2016 | midrange
  --cluster big           big | little | auto (eavs only)
  --bitrate 6000          kbps
  --width 1920 --height 1080 --fps 30
  --duration 60           seconds
  --network constant:20   constant:<mbps> | wifi_home | lte_drive | hspa_tram
  --radio wifi            wifi | lte | 3g
  --abr <none>            fixed | rate | buffer (switches to the 5-rung ladder)
  --seed 42
  --margin <default>      EAVS safety margin, e.g. 0.15
  --late-policy stall     stall | drop (what happens to late frames)
  --faults none           none | storm | light:<seed> | heavy:<seed>
                          (deterministic fault injection; see DESIGN.md §11)
  --power none            none | phone | phone:<brightness 0..1> — whole-device
                          energy co-model (display + decoder; --radio picks
                          the radio); accounting is post-hoc and never
                          perturbs the session
  --retry <none>          balanced | <timeout_ms>,<retries>,<base_ms>
                          (download watchdog + exponential backoff)
  --prior PATH            seed the predictor from a fleet-trained prior
                          file (eavs-prior/v1, see fleet --emit-prior);
                          keys off bitrate/resolution/fps + content, and
                          an unknown key degrades to the cold baseline
  --panic                 enable EAVS panic recovery (re-race to max OPP
                          on prediction breach or rebuffer; eavs only)
  --profile               print a per-phase (download/decode/display/governor)
                          simulated-time and wall-time breakdown

TRACE OPTIONS (all run OPTIONS also apply):
  --out PATH              write the dump to PATH instead of stdout
  --chrome                Chrome trace-event JSON (load in Perfetto /
                          chrome://tracing) instead of JSONL
  --events 65536          ring-buffer capacity; oldest events drop beyond it

FLEET OPTIONS (defaults come from the chosen preset):
  --campaign smoke        smoke | global — preset device/network/content mix
  --sessions N            population size override
  --seed N                campaign seed (rekeys every per-session draw)
  --shard-size N          sessions folded per shard (memory stays O(shard))
  --governors a,b,..      governor lanes, e.g. ondemand,eavs
  --checkpoint PATH       load/save a resumable checkpoint at PATH
  --checkpoint-every 1    shards between checkpoint writes
  --halt-after-shards N   stop (with checkpoint) after N shards — the
                          deterministic 'kill' half of kill/resume
  --out PATH              also write the population table as CSV
  --metrics-out PATH      also write Prometheus text-exposition metrics
                          (shard progress, cache hit rate, per-governor
                          energy/QoE histograms, fault counters)
  --power none            attach a whole-device power model to every
                          session of the population (same spec as run)
  --emit-prior PATH       after the campaign, write the aggregated
                          workload prior (eavs-prior/v1) — byte-identical
                          for any EAVS_JOBS / shard schedule
  --prior PATH            warm-start every session of the population from
                          a previously emitted prior file

SUBMIT OPTIONS (spec-shaping fleet flags plus daemon-client options):
  --campaign smoke        smoke | global (same presets as fleet)
  --sessions/--seed/--shard-size/--governors/--power
                          spec overrides, exactly as in fleet — the same
                          flags produce the same campaign id and the same
                          result bytes, daemon or not
  --addr HOST:PORT        daemon address (default: $EAVS_DAEMON_ADDR,
                          then 127.0.0.1:7026)
  --wait                  poll until complete and print the fleet table
  --out PATH              with --wait: also write the table as CSV
                          (byte-identical to `eavsctl fleet --out`)

EXAMPLES:
  eavsctl run --governor eavs --network lte_drive --abr buffer
  eavsctl run --faults heavy:7 --retry balanced --panic
      fault injection with watchdog retries and EAVS panic recovery
  eavsctl run --power phone:0.8 --radio lte --network lte_drive
      whole-device energy breakdown (radio + display + decoder)
  eavsctl compare ondemand,schedutil,eavs --duration 30
  eavsctl trace --seed 7 --duration 10 --out /tmp/session.jsonl
  eavsctl trace --chrome --out /tmp/session.trace.json
      open the Chrome dump in https://ui.perfetto.dev
  eavsctl fleet --campaign smoke --out /tmp/f26_smoke.csv
  eavsctl fleet --campaign smoke --metrics-out /tmp/f26.prom
  eavsctl fleet --campaign global --checkpoint /tmp/global.ckpt
      kill it any time; rerun the same command to resume where it stopped
  eavsctl fleet --campaign smoke --emit-prior /tmp/fleet.prior
  eavsctl run --prior /tmp/fleet.prior --content sport
      train a workload prior on the fleet, then seed a cold session's
      predictor from the population posterior
  eavsd --state-dir /tmp/eavsd --addr 127.0.0.1:7026 &
  eavsctl submit --campaign smoke --wait --out /tmp/f26.csv
      same table and CSV bytes as `eavsctl fleet`, served over HTTP
  eavsctl submit --campaign global && eavsctl status
      fire-and-forget; poll later (or: curl 127.0.0.1:7026/campaigns)
  eavsd --worker 127.0.0.1:7026 &
      scale out: extra shard workers, any count — results stay
      byte-identical (claims are leased, partials folded in shard order)
  eavsctl daemon metrics | grep eavs_fleet_shards_done
      fleet Prometheus page (text/plain; version=0.0.4) for all campaigns
";

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message on unknown commands, unknown flags or
/// malformed values.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = match it.next() {
        None => return Ok(Command::Help),
        Some(c) => c.as_str(),
    };
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "run" => {
            let rest: Vec<String> = it.cloned().collect();
            Ok(Command::Run(parse_run_args(&rest)?))
        }
        "fleet" => {
            let rest: Vec<String> = it.cloned().collect();
            Ok(Command::Fleet(parse_fleet_args(&rest)?))
        }
        "trace" => {
            let rest: Vec<String> = it.cloned().collect();
            Ok(Command::Trace(parse_trace_args(&rest)?))
        }
        "submit" => {
            let rest: Vec<String> = it.cloned().collect();
            Ok(Command::Submit(parse_submit_args(&rest)?))
        }
        "status" => {
            let rest: Vec<String> = it.cloned().collect();
            Ok(Command::Status(parse_status_args(&rest)?))
        }
        "cancel" => {
            let rest: Vec<String> = it.cloned().collect();
            Ok(Command::Cancel(parse_remote_args(&rest, "cancel")?))
        }
        "daemon" => {
            let rest: Vec<String> = it.cloned().collect();
            Ok(Command::Daemon(parse_daemon_args(&rest)?))
        }
        "compare" => {
            let governors: Vec<String> = it
                .next()
                .ok_or("compare needs a comma-separated governor list")?
                .split(',')
                .map(str::to_owned)
                .collect();
            if governors.is_empty() {
                return Err("compare needs at least one governor".to_owned());
            }
            let rest: Vec<String> = it.cloned().collect();
            Ok(Command::Compare(parse_run_args(&rest)?, governors))
        }
        other => Err(format!("unknown command {other:?}; try `eavsctl help`")),
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("--{name} needs a value"))
        };
        match flag.as_str() {
            "--governor" => out.governor = value("governor")?.clone(),
            "--predictor" => out.predictor = value("predictor")?.clone(),
            "--content" => out.content = value("content")?.clone(),
            "--soc" => out.soc = value("soc")?.clone(),
            "--cluster" => out.cluster = value("cluster")?.clone(),
            "--bitrate" => out.bitrate_kbps = parse_num(value("bitrate")?, "bitrate")?,
            "--width" => out.width = parse_num(value("width")?, "width")?,
            "--height" => out.height = parse_num(value("height")?, "height")?,
            "--fps" => out.fps = parse_num(value("fps")?, "fps")?,
            "--duration" => out.duration_s = parse_num(value("duration")?, "duration")?,
            "--network" => out.network = value("network")?.clone(),
            "--radio" => out.radio = value("radio")?.clone(),
            "--abr" => out.abr = Some(value("abr")?.clone()),
            "--seed" => out.seed = parse_num(value("seed")?, "seed")?,
            "--margin" => {
                let raw = value("margin")?;
                out.margin = Some(
                    raw.parse::<f64>()
                        .map_err(|_| format!("bad margin {raw:?}"))?,
                );
            }
            "--profile" => out.profile = true,
            "--late-policy" => out.late_policy = value("late-policy")?.clone(),
            "--faults" => out.faults = value("faults")?.clone(),
            "--power" => out.power = value("power")?.clone(),
            "--retry" => out.retry = Some(value("retry")?.clone()),
            "--prior" => out.prior = Some(value("prior")?.clone()),
            "--panic" => out.panic_recovery = true,
            other => return Err(format!("unknown flag {other:?}; try `eavsctl help`")),
        }
    }
    Ok(out)
}

fn parse_fleet_args(args: &[String]) -> Result<FleetArgs, String> {
    let mut out = FleetArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("--{name} needs a value"))
        };
        match flag.as_str() {
            "--campaign" => out.campaign = value("campaign")?.clone(),
            "--sessions" => out.sessions = Some(parse_num(value("sessions")?, "sessions")?),
            "--seed" => out.seed = Some(parse_num(value("seed")?, "seed")?),
            "--shard-size" => {
                out.shard_size = Some(parse_num(value("shard-size")?, "shard-size")?);
            }
            "--governors" => {
                out.governors = Some(value("governors")?.split(',').map(str::to_owned).collect());
            }
            "--checkpoint" => out.checkpoint = Some(value("checkpoint")?.clone()),
            "--checkpoint-every" => {
                out.checkpoint_every = parse_num(value("checkpoint-every")?, "checkpoint-every")?;
            }
            "--halt-after-shards" => {
                out.halt_after_shards =
                    Some(parse_num(value("halt-after-shards")?, "halt-after-shards")?);
            }
            "--out" => out.out = Some(value("out")?.clone()),
            "--metrics-out" => out.metrics_out = Some(value("metrics-out")?.clone()),
            "--power" => out.power = Some(value("power")?.clone()),
            "--emit-prior" => out.emit_prior = Some(value("emit-prior")?.clone()),
            "--prior" => out.prior = Some(value("prior")?.clone()),
            other => return Err(format!("unknown flag {other:?}; try `eavsctl help`")),
        }
    }
    Ok(out)
}

fn parse_submit_args(args: &[String]) -> Result<SubmitArgs, String> {
    let mut out = SubmitArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("--{name} needs a value"))
        };
        match flag.as_str() {
            "--campaign" => out.fleet.campaign = value("campaign")?.clone(),
            "--sessions" => out.fleet.sessions = Some(parse_num(value("sessions")?, "sessions")?),
            "--seed" => out.fleet.seed = Some(parse_num(value("seed")?, "seed")?),
            "--shard-size" => {
                out.fleet.shard_size = Some(parse_num(value("shard-size")?, "shard-size")?);
            }
            "--governors" => {
                out.fleet.governors =
                    Some(value("governors")?.split(',').map(str::to_owned).collect());
            }
            "--power" => out.fleet.power = Some(value("power")?.clone()),
            "--out" => out.fleet.out = Some(value("out")?.clone()),
            "--addr" => out.addr = Some(value("addr")?.clone()),
            "--wait" => out.wait = true,
            other => return Err(format!("unknown flag {other:?}; try `eavsctl help`")),
        }
    }
    if out.fleet.out.is_some() && !out.wait {
        return Err("--out needs --wait (the CSV is rendered from the final result)".to_owned());
    }
    Ok(out)
}

fn parse_status_args(args: &[String]) -> Result<StatusArgs, String> {
    let mut out = StatusArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                out.addr = Some(it.next().ok_or("--addr needs a value")?.clone());
            }
            other if !other.starts_with("--") && out.id.is_none() => {
                out.id = Some(other.to_owned());
            }
            other => return Err(format!("unknown flag {other:?}; try `eavsctl help`")),
        }
    }
    Ok(out)
}

fn parse_remote_args(args: &[String], verb: &str) -> Result<RemoteArgs, String> {
    let mut out = RemoteArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                out.addr = Some(it.next().ok_or("--addr needs a value")?.clone());
            }
            other if !other.starts_with("--") && out.id.is_empty() => {
                out.id = other.to_owned();
            }
            other => return Err(format!("unknown flag {other:?}; try `eavsctl help`")),
        }
    }
    if out.id.is_empty() {
        return Err(format!("{verb} needs a campaign id (see `eavsctl status`)"));
    }
    Ok(out)
}

fn parse_daemon_args(args: &[String]) -> Result<DaemonArgs, String> {
    let mut out = DaemonArgs {
        action: "status".to_owned(),
        addr: None,
    };
    let mut action_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                out.addr = Some(it.next().ok_or("--addr needs a value")?.clone());
            }
            action @ ("status" | "metrics" | "shutdown") if !action_given => {
                out.action = action.to_owned();
                action_given = true;
            }
            other => {
                return Err(format!(
                    "unknown daemon action or flag {other:?}: want status, metrics or shutdown"
                ))
            }
        }
    }
    Ok(out)
}

/// Splits the trace-specific flags off and parses the rest as `run`
/// flags, so `trace` accepts every workload option `run` does.
fn parse_trace_args(args: &[String]) -> Result<TraceArgs, String> {
    let mut out = TraceArgs::default();
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("--{name} needs a value"))
        };
        match flag.as_str() {
            "--out" => out.out = Some(value("out")?.clone()),
            "--chrome" => out.chrome = true,
            "--events" => {
                out.events = parse_num::<usize>(value("events")?, "events")?.max(1);
            }
            _ => rest.push(flag.clone()),
        }
    }
    out.run = parse_run_args(&rest)?;
    Ok(out)
}

/// Applies `args` overrides to its preset and runs (or resumes) the
/// campaign on the pooled, cached shard runner.
///
/// # Errors
///
/// Returns a message for unknown presets/governors, invalid specs, or
/// checkpoint problems.
pub fn run_fleet(args: &FleetArgs) -> Result<String, String> {
    let spec = build_fleet_spec(args)?;
    let warm_start = args
        .prior
        .as_ref()
        .map(|p| eavs_fleet::prior::load(std::path::Path::new(p)))
        .transpose()?;
    let opts = eavs_fleet::RunOptions {
        checkpoint: args.checkpoint.as_ref().map(std::path::PathBuf::from),
        checkpoint_every: args.checkpoint_every,
        halt_after_shards: args.halt_after_shards,
        prior: warm_start.map(std::sync::Arc::new),
        ..eavs_fleet::RunOptions::default()
    };
    let outcome = eavs_bench::fleet::run_campaign(&spec, &opts)?;
    let table = outcome.aggregate.table(&spec);
    let mut out = table.render();
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    let (segments, traces) = (
        eavs_trace::memo::segment_cache_stats(),
        eavs_trace::memo::trace_cache_stats(),
    );
    let cache = eavs_bench::cache::stats();
    out.push_str(&format!(
        "{}/{} shards done; {} session-runs this invocation ({:.0} runs/sec); \
         peak shard {:.1} KiB; resident: session cache {:.1} MiB (frame-cost summaries: \
         {} distinct for {} reports), segment memo {:.2} MiB ({} evictions), \
         trace memo {:.1} KiB ({} evictions)\n",
        outcome.aggregate.shards_done,
        spec.num_shards(),
        outcome.session_runs,
        outcome.session_runs as f64 / outcome.wall_s.max(1e-9),
        outcome.peak_shard_bytes as f64 / 1024.0,
        mib(cache.bytes),
        cache.summaries,
        cache.reports,
        mib(segments.resident_bytes),
        segments.evictions,
        traces.resident_bytes as f64 / 1024.0,
        traces.evictions,
    ));
    if outcome.status == eavs_fleet::CampaignStatus::Halted {
        out.push_str("halted at --halt-after-shards; rerun with the same --checkpoint to resume\n");
    }
    if let Some(path) = &args.out {
        write_output_file(path, &table.to_csv())?;
        out.push_str(&format!("[csv written to {path}]\n"));
    }
    if let Some(path) = &args.metrics_out {
        write_output_file(path, &fleet_metrics_page(&outcome.aggregate, &spec))?;
        out.push_str(&format!("[metrics written to {path}]\n"));
    }
    if let Some(path) = &args.emit_prior {
        // The prior rides the aggregate, so it is byte-identical however
        // the shards were scheduled (EAVS_JOBS) — CI `cmp`s these files.
        eavs_fleet::prior::save(std::path::Path::new(path), &outcome.aggregate.prior)?;
        out.push_str(&format!(
            "[prior written to {path}: {} catalog entries, {} frames]\n",
            outcome.aggregate.prior.len(),
            outcome.aggregate.prior.total_frames(),
        ));
    }
    Ok(out)
}

/// Builds the campaign spec a `fleet` or `submit` invocation describes:
/// the chosen preset with the spec-shaping overrides applied. The same
/// spec from either path has the same fingerprint — which is the whole
/// point: `submit` to a daemon and a local `fleet` run of the same
/// flags land on the same campaign id and, being bit-exact, the same
/// result bytes.
///
/// # Errors
///
/// Returns a message for unknown presets or power-model specs.
pub fn build_fleet_spec(args: &FleetArgs) -> Result<eavs_fleet::CampaignSpec, String> {
    let mut spec = eavs_fleet::CampaignSpec::preset(&args.campaign).ok_or(format!(
        "unknown campaign {:?}; presets: smoke global",
        args.campaign
    ))?;
    if let Some(n) = args.sessions {
        spec.sessions = n;
    }
    if let Some(s) = args.seed {
        spec.seed = s;
    }
    if let Some(s) = args.shard_size {
        spec.shard_size = s;
    }
    if let Some(govs) = &args.governors {
        spec.governors = govs.clone();
    }
    if let Some(power) = &args.power {
        spec.power = build_power(power)?.unwrap_or_default();
    }
    Ok(spec)
}

/// Resolves the daemon address: explicit `--addr`, else the
/// `EAVS_DAEMON_ADDR` knob, else the loopback default.
fn resolve_daemon_addr(flag: &Option<String>) -> String {
    flag.clone()
        .or_else(eavs_bench::executor::daemon_addr)
        .unwrap_or_else(|| "127.0.0.1:7026".to_owned())
}

/// One HTTP exchange with the daemon, with connection errors folded
/// into a actionable message.
fn daemon_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    eavs_daemon::http::client::request_text(addr, method, path, body)
        .map_err(|e| format!("cannot reach eavsd at {addr}: {e} (is `eavsd` running?)"))
}

/// Submits the campaign spec to a resident daemon; with `--wait`, polls
/// progress until the campaign finishes and prints the same fleet table
/// (and optional CSV) a local `eavsctl fleet` run would print — the
/// bytes are identical, that is the contract under test in CI.
///
/// # Errors
///
/// Returns a message when the daemon is unreachable, rejects the spec,
/// or the campaign fails/cancels while waiting.
pub fn run_submit(args: &SubmitArgs) -> Result<String, String> {
    let spec = build_fleet_spec(&args.fleet)?;
    let addr = resolve_daemon_addr(&args.addr);
    let body = eavs_daemon::codec::encode_spec(&spec);
    let (status, response) = daemon_request(&addr, "POST", "/campaigns", &body)?;
    if status != 200 {
        return Err(format!("submit rejected ({status}): {response}"));
    }
    let v = eavs_daemon::json::parse(&response).map_err(|e| format!("submit response: {e}"))?;
    let id = v
        .get("id")
        .and_then(eavs_daemon::json::Value::as_str)
        .ok_or("submit response: missing id")?
        .to_owned();
    let resumed = v.get("resumed").and_then(eavs_daemon::json::Value::as_bool) == Some(true);
    let mut out = format!(
        "campaign {id} {} on {addr}\n",
        if resumed { "resumed" } else { "submitted" },
    );
    if !args.wait {
        out.push_str(&format!(
            "poll it with: eavsctl status {id} --addr {addr}\n"
        ));
        return Ok(out);
    }
    loop {
        let (status, body) = daemon_request(&addr, "GET", &format!("/campaigns/{id}"), "")?;
        if status != 200 {
            return Err(format!("status poll failed ({status}): {body}"));
        }
        let v = eavs_daemon::json::parse(&body).map_err(|e| format!("progress body: {e}"))?;
        match v.get("phase").and_then(eavs_daemon::json::Value::as_str) {
            Some("complete") => break,
            Some("running") => std::thread::sleep(std::time::Duration::from_millis(50)),
            Some(other) => return Err(format!("campaign {id} ended {other}: {body}")),
            None => return Err(format!("progress body without phase: {body}")),
        }
    }
    let (status, text) = daemon_request(&addr, "GET", &format!("/campaigns/{id}/result"), "")?;
    if status != 200 {
        return Err(format!("result fetch failed ({status}): {text}"));
    }
    let aggregate = eavs_fleet::checkpoint::decode(&text)?;
    let table = aggregate.table(&spec);
    out.push_str(&table.render());
    out.push_str(&format!(
        "{}/{} shards done (served by {addr})\n",
        aggregate.shards_done,
        spec.num_shards(),
    ));
    if let Some(path) = &args.fleet.out {
        write_output_file(path, &table.to_csv())?;
        out.push_str(&format!("[csv written to {path}]\n"));
    }
    Ok(out)
}

/// `eavsctl status [id]`: the daemon's progress JSON, raw.
///
/// # Errors
///
/// Returns a message when the daemon is unreachable or the id unknown.
pub fn run_status(args: &StatusArgs) -> Result<String, String> {
    let addr = resolve_daemon_addr(&args.addr);
    let path = match &args.id {
        Some(id) => format!("/campaigns/{id}"),
        None => "/campaigns".to_owned(),
    };
    let (status, body) = daemon_request(&addr, "GET", &path, "")?;
    if status != 200 {
        return Err(format!("status failed ({status}): {body}"));
    }
    Ok(format!("{body}\n"))
}

/// `eavsctl cancel <id>`: stop a campaign at its next shard boundary.
/// The checkpoint survives, so resubmitting the same spec resumes it.
///
/// # Errors
///
/// Returns a message when the daemon is unreachable or the id unknown.
pub fn run_cancel(args: &RemoteArgs) -> Result<String, String> {
    let addr = resolve_daemon_addr(&args.addr);
    let (status, body) = daemon_request(&addr, "DELETE", &format!("/campaigns/{}", args.id), "")?;
    if status != 200 {
        return Err(format!("cancel failed ({status}): {body}"));
    }
    Ok(format!("{body}\n"))
}

/// `eavsctl daemon status|metrics|shutdown`.
///
/// # Errors
///
/// Returns a message when the daemon is unreachable.
pub fn run_daemon_ctl(args: &DaemonArgs) -> Result<String, String> {
    let addr = resolve_daemon_addr(&args.addr);
    match args.action.as_str() {
        "status" => {
            let (status, health) = daemon_request(&addr, "GET", "/healthz", "")?;
            if status != 200 {
                return Err(format!("healthz failed ({status}): {health}"));
            }
            let (status, list) = daemon_request(&addr, "GET", "/campaigns", "")?;
            if status != 200 {
                return Err(format!("campaign list failed ({status}): {list}"));
            }
            Ok(format!("eavsd at {addr}: {}campaigns: {list}\n", health))
        }
        "metrics" => {
            let (status, page) = daemon_request(&addr, "GET", "/metrics", "")?;
            if status != 200 {
                return Err(format!("metrics failed ({status}): {page}"));
            }
            Ok(page)
        }
        "shutdown" => {
            let (status, body) = daemon_request(&addr, "POST", "/shutdown", "")?;
            if status != 200 {
                return Err(format!("shutdown failed ({status}): {body}"));
            }
            Ok(format!("eavsd at {addr} stopping: {body}\n"))
        }
        other => Err(format!(
            "unknown daemon action {other:?}: want status, metrics or shutdown"
        )),
    }
}

/// Renders the campaign's Prometheus page plus the process-local
/// session-cache counters (hits/misses/bytes/evictions), which live in
/// the bench harness rather than the campaign aggregate.
fn fleet_metrics_page(
    aggregate: &eavs_fleet::FleetAggregate,
    spec: &eavs_fleet::CampaignSpec,
) -> String {
    let mut w = eavs_obs::PromWriter::new();
    eavs_fleet::prom::write_into(&mut w, aggregate, spec);
    let cache = eavs_bench::cache::stats();
    w.help(
        "eavs_session_cache_hits_total",
        "Sessions served from the content-addressed cache.",
    )
    .type_("eavs_session_cache_hits_total", "counter")
    .sample("eavs_session_cache_hits_total", &[], cache.hits as f64);
    w.help(
        "eavs_session_cache_misses_total",
        "Sessions simulated and then cached.",
    )
    .type_("eavs_session_cache_misses_total", "counter")
    .sample("eavs_session_cache_misses_total", &[], cache.misses as f64);
    w.help(
        "eavs_session_cache_uncacheable_total",
        "Sessions that ran uncached (unfingerprintable or observed).",
    )
    .type_("eavs_session_cache_uncacheable_total", "counter")
    .sample(
        "eavs_session_cache_uncacheable_total",
        &[],
        cache.uncacheable as f64,
    );
    w.help(
        "eavs_session_cache_resident_bytes",
        "Approximate resident bytes of the cached reports.",
    )
    .type_("eavs_session_cache_resident_bytes", "gauge")
    .sample("eavs_session_cache_resident_bytes", &[], cache.bytes as f64);
    w.help(
        "eavs_session_cache_evictions_total",
        "Reports evicted to keep the cache under its byte cap.",
    )
    .type_("eavs_session_cache_evictions_total", "counter")
    .sample(
        "eavs_session_cache_evictions_total",
        &[],
        cache.evictions as f64,
    );
    w.help(
        "eavs_session_cache_hit_ratio",
        "Fraction of cacheable lookups served from the cache.",
    )
    .type_("eavs_session_cache_hit_ratio", "gauge")
    .sample("eavs_session_cache_hit_ratio", &[], cache.hit_rate());
    w.finish()
}

fn parse_num<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String> {
    raw.parse::<T>()
        .map_err(|_| format!("bad value {raw:?} for --{name}"))
}

fn build_governor(args: &RunArgs, name: &str) -> Result<GovernorChoice, String> {
    if name == "eavs" {
        let predictor = predictor_by_name(&args.predictor)
            .ok_or(format!("unknown predictor {:?}", args.predictor))?;
        let mut config = EavsConfig::default();
        if let Some(m) = args.margin {
            if !(0.0..=2.0).contains(&m) {
                return Err(format!("margin {m} outside [0, 2]"));
            }
            config.margin = m;
        }
        config.panic_recovery = args.panic_recovery;
        Ok(GovernorChoice::Eavs(EavsGovernor::new(predictor, config)))
    } else if args.panic_recovery {
        Err("--panic requires --governor eavs".to_owned())
    } else {
        by_name(name)
            .map(GovernorChoice::Baseline)
            .ok_or(format!("unknown governor {name:?}"))
    }
}

fn build_faults(spec: &str) -> Result<Option<FaultPlan>, String> {
    if spec == "none" {
        return Ok(None);
    }
    if spec == "storm" {
        return Ok(Some(FaultPlan::standard_storm()));
    }
    let randomized = if let Some(seed) = spec.strip_prefix("light:") {
        RandomFaults::light(parse_num(seed, "faults")?)
    } else if let Some(seed) = spec.strip_prefix("heavy:") {
        RandomFaults::heavy(parse_num(seed, "faults")?)
    } else {
        return Err(format!("unknown fault plan {spec:?}"));
    };
    Ok(Some(FaultPlan {
        randomized: Some(randomized),
        ..FaultPlan::default()
    }))
}

/// Builds the whole-device power model from its CLI spec: `none`,
/// `phone` or `phone:<brightness>`.
fn build_power(spec: &str) -> Result<Option<DevicePowerModel>, String> {
    let model = if spec == "none" {
        return Ok(None);
    } else if spec == "phone" {
        DevicePowerModel::phone()
    } else if let Some(brightness) = spec.strip_prefix("phone:") {
        let b: f64 = brightness
            .parse()
            .map_err(|_| format!("bad brightness {brightness:?}"))?;
        if !(0.0..=1.0).contains(&b) {
            return Err(format!("brightness {b} outside [0, 1]"));
        }
        DevicePowerModel::phone_with_brightness(b)
    } else {
        return Err(format!(
            "unknown power model {spec:?}: want none, phone or phone:<brightness>"
        ));
    };
    Ok(Some(model))
}

fn build_retry(spec: &str) -> Result<RetryPolicy, String> {
    if spec == "balanced" {
        return Ok(RetryPolicy::with_timeout(SimDuration::from_secs(2)));
    }
    let parts: Vec<&str> = spec.split(',').collect();
    let [timeout_ms, retries, base_ms] = parts.as_slice() else {
        return Err(format!(
            "bad retry {spec:?}: want `balanced` or <timeout_ms>,<retries>,<base_ms>"
        ));
    };
    Ok(RetryPolicy {
        timeout: Some(SimDuration::from_millis(parse_num(timeout_ms, "retry")?)),
        max_retries: parse_num(retries, "retry")?,
        backoff_base: SimDuration::from_millis(parse_num(base_ms, "retry")?),
        ..RetryPolicy::default()
    })
}

fn build_soc(name: &str) -> Result<SocModel, String> {
    SocModel::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or(format!("unknown soc {name:?}"))
}

fn build_content(name: &str) -> Result<ContentProfile, String> {
    ContentProfile::ALL
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or(format!("unknown content {name:?}"))
}

fn build_network(
    spec: &str,
    manifest: &Manifest,
    duration: SimDuration,
    seed: u64,
) -> Result<BandwidthTrace, String> {
    if let Some(mbps) = spec.strip_prefix("constant:") {
        let mbps: f64 = mbps
            .parse()
            .map_err(|_| format!("bad constant rate {mbps:?}"))?;
        let bps = mbps * 1e6;
        eavs_net::bandwidth::check_constant_rate(bps, manifest)?;
        return Ok(BandwidthTrace::constant(bps));
    }
    NetworkProfile::ALL
        .into_iter()
        .find(|p| p.name() == spec)
        .map(|p| p.generate(duration * 3, seed))
        .ok_or(format!("unknown network {spec:?}"))
}

fn build_radio(name: &str) -> Result<RadioModel, String> {
    Ok(match name {
        "wifi" => RadioModel::wifi(),
        "lte" => RadioModel::lte(),
        "3g" | "umts" => RadioModel::umts_3g(),
        other => return Err(format!("unknown radio {other:?}")),
    })
}

fn build_abr(name: &str) -> Result<Box<dyn AbrAlgorithm>, String> {
    Ok(match name {
        "fixed" => Box::new(FixedAbr::new(usize::MAX)), // top rung
        "rate" => Box::new(RateBasedAbr::standard()),
        "buffer" => Box::new(BufferBasedAbr::standard()),
        other => return Err(format!("unknown abr {other:?}")),
    })
}

/// Runs one session described by `args` under governor `name`.
///
/// # Errors
///
/// Returns a message for unknown names or invalid values.
pub fn run_session(args: &RunArgs, governor_name: &str) -> Result<SessionReport, String> {
    Ok(build_session(args, governor_name)?.run())
}

/// Builds (without running) the session described by `args`, so callers
/// can attach observers — `trace` hangs a ring sink off the same
/// builder `run` uses, guaranteeing both see the identical workload.
fn build_session(
    args: &RunArgs,
    governor_name: &str,
) -> Result<eavs_core::session::SessionBuilder, String> {
    let duration = SimDuration::from_secs(args.duration_s.max(1));
    let manifest = match &args.abr {
        Some(_) => Manifest::standard_ladder(duration, args.fps.max(1)),
        None => Manifest::single(
            args.bitrate_kbps.max(1),
            args.width.max(16),
            args.height.max(16),
            duration,
            args.fps.max(1),
        ),
    };
    let network = build_network(&args.network, &manifest, duration, args.seed)?;
    let mut builder = StreamingSession::builder(build_governor(args, governor_name)?)
        .soc(build_soc(&args.soc)?)
        .content(build_content(&args.content)?)
        .manifest(manifest)
        .network(network)
        .radio(build_radio(&args.radio)?)
        .seed(args.seed)
        .cluster(match args.cluster.as_str() {
            "big" => ClusterSelect::Big,
            "little" => ClusterSelect::Little,
            "auto" => {
                if governor_name != "eavs" {
                    return Err("--cluster auto requires --governor eavs".to_owned());
                }
                ClusterSelect::Auto
            }
            other => return Err(format!("unknown cluster {other:?}")),
        });
    builder = builder.late_policy(match args.late_policy.as_str() {
        "stall" => eavs_video::display::LatePolicy::Stall,
        "drop" => eavs_video::display::LatePolicy::Drop,
        other => return Err(format!("unknown late policy {other:?}")),
    });
    if let Some(abr) = &args.abr {
        builder = builder.abr(build_abr(abr)?);
    }
    if let Some(plan) = build_faults(&args.faults)? {
        builder = builder.faults(plan);
    }
    if let Some(model) = build_power(&args.power)? {
        builder = builder.power(model);
    }
    if let Some(retry) = &args.retry {
        builder = builder.retry(build_retry(retry)?);
    }
    if args.profile {
        builder = builder.profile(true);
    }
    if let Some(path) = &args.prior {
        let store = eavs_fleet::prior::load(std::path::Path::new(path))?;
        // Project the store onto this workload's encode key — the same
        // key `TitleSpec::key()` produces fleet-side — so clips trained
        // in a campaign seed the matching single-session run. An absent
        // key projects the empty prior: byte-identical to a cold run.
        let key = format!(
            "{}kbps-{}x{}@{}",
            args.bitrate_kbps.max(1),
            args.width.max(16),
            args.height.max(16),
            args.fps.max(1),
        );
        builder = builder.prior(store.session_prior(&key, &args.content));
    }
    Ok(builder)
}

/// Runs one traced session and renders its timeline: JSONL by default,
/// Chrome trace-event JSON with `--chrome`. Without `--out` the dump
/// itself is the command output, so shell pipelines (and the CI
/// determinism gate's `cmp`) see the raw bytes.
///
/// # Errors
///
/// Propagates session-construction errors and dump-file I/O failures.
pub fn run_trace(args: &TraceArgs) -> Result<String, String> {
    let ring = eavs_obs::shared(eavs_obs::RingSink::new(args.events));
    let sink: eavs_obs::SharedSink = ring.clone();
    let report = build_session(&args.run, &args.run.governor)?
        .trace(sink)
        .run();
    let ring = ring.lock().expect("trace sink poisoned");
    let body = if args.chrome {
        ring.to_chrome_trace(&format!("eavsctl {}", report.governor))
    } else {
        ring.to_jsonl()
    };
    match &args.out {
        Some(path) => {
            write_output_file(path, &body)?;
            Ok(format!(
                "{} events recorded ({} dropped, ring {}); {} written to {path}\n",
                ring.total_recorded(),
                ring.dropped(),
                args.events,
                if args.chrome { "chrome trace" } else { "jsonl" },
            ))
        }
        None => Ok(body),
    }
}

/// Writes `contents` to `path`, creating parent directories as needed.
fn write_output_file(path: &str, contents: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// Executes a parsed command, writing human output to the returned string.
///
/// # Errors
///
/// Propagates session-construction errors.
pub fn execute(command: Command) -> Result<String, String> {
    match command {
        Command::Help => Ok(USAGE.to_owned()),
        Command::Fleet(args) => run_fleet(&args),
        Command::Trace(args) => run_trace(&args),
        Command::Submit(args) => run_submit(&args),
        Command::Status(args) => run_status(&args),
        Command::Cancel(args) => run_cancel(&args),
        Command::Daemon(args) => run_daemon_ctl(&args),
        Command::List => {
            let mut out = String::new();
            out.push_str("governors: eavs performance powersave userspace ondemand conservative interactive schedutil\n");
            out.push_str("predictors: last ewma window-max size-regression hybrid oracle\n");
            out.push_str("contents: animation film sport\n");
            out.push_str("socs: biglittle2013 flagship2016 midrange\n");
            out.push_str("networks: constant:<mbps> wifi_home lte_drive hspa_tram\n");
            out.push_str("radios: wifi lte 3g\n");
            out.push_str("abr: fixed rate buffer\n");
            out.push_str("faults: none storm light:<seed> heavy:<seed>\n");
            out.push_str("power: none phone phone:<brightness>\n");
            Ok(out)
        }
        Command::Run(args) => {
            let report = run_session(&args, &args.governor.clone())?;
            let mut out = format!("{report}\n");
            if args.faults != "none" {
                out.push_str(&format!(
                    "  faults: {} retries ({} timeouts, {} corrupt, {} abandoned), {} decode spikes, {} decoder stalls, {} panic races\n",
                    report.download_retries,
                    report.download_timeouts,
                    report.corrupt_downloads,
                    report.segments_abandoned,
                    report.decode_spikes,
                    report.decode_stalls,
                    report.panic_races,
                ));
            }
            if args.power != "none" {
                out.push_str(&format!(
                    "  device power: radio {:.2} J ({} promotions, tail {:.1} s), display {:.2} J, decoder {:.2} J, device total {:.2} J\n",
                    report.radio.energy_j,
                    report.radio.promotions,
                    report.radio.tail_time.as_secs_f64(),
                    report.power.display_j,
                    report.power.decoder_j,
                    report.radio.energy_j + report.power.total_j(),
                ));
            }
            if let Some(profile) = &report.profile {
                out.push_str(&format!("  profile: {}\n", profile.to_json()));
            }
            Ok(out)
        }
        Command::Compare(args, governors) => {
            let mut out = String::new();
            for name in &governors {
                let report = run_session(&args, name)?;
                out.push_str(&report.summary());
                out.push('\n');
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn run_defaults() {
        let cmd = parse(&argv("run")).unwrap();
        match cmd {
            Command::Run(args) => assert_eq!(args, RunArgs::default()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn run_with_flags() {
        let cmd = parse(&argv(
            "run --governor ondemand --content sport --bitrate 3000 --fps 60 --seed 7",
        ))
        .unwrap();
        let Command::Run(args) = cmd else {
            panic!("not a run")
        };
        assert_eq!(args.governor, "ondemand");
        assert_eq!(args.content, "sport");
        assert_eq!(args.bitrate_kbps, 3000);
        assert_eq!(args.fps, 60);
        assert_eq!(args.seed, 7);
    }

    #[test]
    fn compare_parses_governor_list() {
        let cmd = parse(&argv("compare ondemand,eavs --duration 5")).unwrap();
        let Command::Compare(args, governors) = cmd else {
            panic!("not a compare")
        };
        assert_eq!(governors, vec!["ondemand", "eavs"]);
        assert_eq!(args.duration_s, 5);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&argv("launch"))
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse(&argv("run --bitrate nope"))
            .unwrap_err()
            .contains("bad value"));
        assert!(parse(&argv("run --margin"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&argv("run --frobnicate 1"))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn execute_list_and_help() {
        let list = execute(Command::List).unwrap();
        assert!(list.contains("eavs"));
        assert!(list.contains("lte_drive"));
        let help = execute(Command::Help).unwrap();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn run_session_end_to_end() {
        let args = RunArgs {
            duration_s: 4,
            bitrate_kbps: 1_500,
            width: 854,
            height: 480,
            ..RunArgs::default()
        };
        let report = run_session(&args, "eavs").unwrap();
        assert_eq!(report.qoe.frames_displayed, report.qoe.total_frames);
        // Unknown names error out cleanly.
        assert!(run_session(&args, "warp").is_err());
        let bad = RunArgs {
            soc: "quantum".to_owned(),
            ..args.clone()
        };
        assert!(run_session(&bad, "eavs").is_err());
    }

    #[test]
    fn compare_executes_multiple() {
        let args = RunArgs {
            duration_s: 4,
            bitrate_kbps: 1_500,
            width: 854,
            height: 480,
            ..RunArgs::default()
        };
        let out = execute(Command::Compare(
            args,
            vec!["powersave".into(), "eavs".into()],
        ))
        .unwrap();
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("powersave"));
        assert!(out.contains("eavs/hybrid"));
    }

    #[test]
    fn cluster_auto_requires_eavs() {
        let args = RunArgs {
            cluster: "auto".to_owned(),
            duration_s: 4,
            bitrate_kbps: 1_500,
            width: 854,
            height: 480,
            ..RunArgs::default()
        };
        assert!(run_session(&args, "ondemand")
            .unwrap_err()
            .contains("requires --governor eavs"));
        let report = run_session(&args, "eavs").unwrap();
        assert_eq!(report.cluster, "auto");
    }

    #[test]
    fn late_policy_flag() {
        let cmd = parse(&argv("run --late-policy drop --duration 4")).unwrap();
        let Command::Run(args) = cmd else { panic!() };
        assert_eq!(args.late_policy, "drop");
        let bad = RunArgs {
            late_policy: "freeze".to_owned(),
            ..RunArgs::default()
        };
        assert!(run_session(&bad, "eavs")
            .unwrap_err()
            .contains("late policy"));
    }

    #[test]
    fn faults_flag_parses_and_injects() {
        let cmd = parse(&argv(
            "run --faults storm --retry balanced --panic --duration 4",
        ))
        .unwrap();
        let Command::Run(args) = cmd else { panic!() };
        assert_eq!(args.faults, "storm");
        assert_eq!(args.retry.as_deref(), Some("balanced"));
        assert!(args.panic_recovery);

        // A light randomized plan on a short clip injects at least one
        // fault counter or none — but must run to completion either way.
        let args = RunArgs {
            duration_s: 8,
            faults: "heavy:7".to_owned(),
            retry: Some("balanced".to_owned()),
            panic_recovery: true,
            ..RunArgs::default()
        };
        let report = run_session(&args, "eavs").unwrap();
        assert!(
            report.download_retries > 0
                || report.decode_spikes > 0
                || report.decode_stalls > 0
                || report.segments_abandoned > 0,
            "heavy faults on 8 s should trip at least one counter"
        );
    }

    #[test]
    fn faults_flag_rejects_garbage() {
        let args = RunArgs {
            faults: "hurricane".to_owned(),
            ..RunArgs::default()
        };
        assert!(run_session(&args, "eavs")
            .unwrap_err()
            .contains("unknown fault plan"));
        let args = RunArgs {
            retry: Some("1,2".to_owned()),
            ..RunArgs::default()
        };
        assert!(run_session(&args, "eavs")
            .unwrap_err()
            .contains("bad retry"));
        let args = RunArgs {
            panic_recovery: true,
            ..RunArgs::default()
        };
        assert!(run_session(&args, "ondemand")
            .unwrap_err()
            .contains("requires --governor eavs"));
    }

    #[test]
    fn power_flag_parses_and_accounts() {
        let cmd = parse(&argv("run --power phone:0.8 --duration 4")).unwrap();
        let Command::Run(args) = cmd else { panic!() };
        assert_eq!(args.power, "phone:0.8");

        let args = RunArgs {
            duration_s: 4,
            bitrate_kbps: 1_500,
            width: 854,
            height: 480,
            power: "phone:0.8".to_owned(),
            ..RunArgs::default()
        };
        let powered = run_session(&args, "eavs").unwrap();
        assert!(powered.power.total_j() > 0.0);
        assert!(powered.radio.promotions > 0);
        // The co-model is accounting-only: the identical session without
        // it decodes the same frames for the same CPU energy.
        let plain = run_session(
            &RunArgs {
                power: "none".to_owned(),
                ..args.clone()
            },
            "eavs",
        )
        .unwrap();
        assert_eq!(plain.cpu_joules().to_bits(), powered.cpu_joules().to_bits());
        assert_eq!(plain.frames_decoded, powered.frames_decoded);
        assert_eq!(plain.radio, powered.radio);
        assert_eq!(plain.power.total_j(), 0.0);

        let out = execute(Command::Run(args)).unwrap();
        assert!(out.contains("device power:"), "{out}");
    }

    #[test]
    fn power_flag_rejects_garbage() {
        let bad = |spec: &str| RunArgs {
            power: spec.to_owned(),
            ..RunArgs::default()
        };
        assert!(run_session(&bad("nuclear"), "eavs")
            .unwrap_err()
            .contains("unknown power model"));
        assert!(run_session(&bad("phone:dim"), "eavs")
            .unwrap_err()
            .contains("bad brightness"));
        assert!(run_session(&bad("phone:1.5"), "eavs")
            .unwrap_err()
            .contains("outside [0, 1]"));
    }

    #[test]
    fn retry_triple_parses() {
        let args = RunArgs {
            duration_s: 4,
            faults: "storm".to_owned(),
            retry: Some("2000,4,250".to_owned()),
            ..RunArgs::default()
        };
        // Storm faults sit mostly past 4 s, but the run must succeed.
        let report = run_session(&args, "eavs").unwrap();
        assert!(report.frames_decoded > 0);
    }

    #[test]
    fn execute_run_appends_fault_line() {
        let args = RunArgs {
            duration_s: 8,
            faults: "heavy:7".to_owned(),
            retry: Some("balanced".to_owned()),
            ..RunArgs::default()
        };
        let out = execute(Command::Run(args)).unwrap();
        assert!(out.contains("faults:"), "{out}");
    }

    #[test]
    fn non_finite_and_non_positive_constant_rates_are_errors_not_panics() {
        for rate in ["nan", "inf", "-inf", "0", "-3"] {
            let args = RunArgs {
                duration_s: 2,
                network: format!("constant:{rate}"),
                ..RunArgs::default()
            };
            let err = execute(Command::Run(args)).unwrap_err();
            assert!(
                err.contains("constant rate must be positive and finite"),
                "{rate}: {err}"
            );
        }
    }

    #[test]
    fn a_constant_rate_too_slow_for_the_clock_is_an_error_not_a_panic() {
        let run = |rate: &str| {
            execute(Command::Run(RunArgs {
                duration_s: 2,
                network: format!("constant:{rate}"),
                ..RunArgs::default()
            }))
        };
        let err = run("1e-300").unwrap_err();
        assert!(err.contains("within the simulation clock"), "{err}");
        // One bit per second still streams, if slowly.
        run("1e-6").unwrap();
    }

    #[test]
    fn fleet_parses_flags() {
        let cmd = parse(&argv(
            "fleet --campaign smoke --sessions 40 --seed 9 --shard-size 10 \
             --governors ondemand,eavs --checkpoint /tmp/x.ckpt --checkpoint-every 2 \
             --halt-after-shards 3 --out /tmp/x.csv --power phone \
             --emit-prior /tmp/x.prior --prior /tmp/warm.prior",
        ))
        .unwrap();
        let Command::Fleet(args) = cmd else {
            panic!("not a fleet")
        };
        assert_eq!(args.campaign, "smoke");
        assert_eq!(args.sessions, Some(40));
        assert_eq!(args.seed, Some(9));
        assert_eq!(args.shard_size, Some(10));
        assert_eq!(
            args.governors,
            Some(vec!["ondemand".to_owned(), "eavs".to_owned()])
        );
        assert_eq!(args.checkpoint.as_deref(), Some("/tmp/x.ckpt"));
        assert_eq!(args.checkpoint_every, 2);
        assert_eq!(args.halt_after_shards, Some(3));
        assert_eq!(args.out.as_deref(), Some("/tmp/x.csv"));
        assert_eq!(args.power.as_deref(), Some("phone"));
        assert_eq!(args.emit_prior.as_deref(), Some("/tmp/x.prior"));
        assert_eq!(args.prior.as_deref(), Some("/tmp/warm.prior"));

        assert_eq!(
            parse(&argv("fleet")).unwrap(),
            Command::Fleet(FleetArgs::default())
        );
        assert!(parse(&argv("fleet --sessions nope"))
            .unwrap_err()
            .contains("bad value"));
        assert!(parse(&argv("fleet --frobnicate"))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn fleet_executes_tiny_campaign() {
        let args = FleetArgs {
            sessions: Some(4),
            shard_size: Some(2),
            governors: Some(vec!["eavs".to_owned()]),
            ..FleetArgs::default()
        };
        let out = run_fleet(&args).unwrap();
        assert!(out.contains("2/2 shards done"), "{out}");
        assert!(out.contains("eavs"), "{out}");

        let bad = FleetArgs {
            campaign: "galactic".to_owned(),
            ..FleetArgs::default()
        };
        assert!(run_fleet(&bad).unwrap_err().contains("unknown campaign"));
        let bad = FleetArgs {
            power: Some("nuclear".to_owned()),
            ..args.clone()
        };
        assert!(run_fleet(&bad).unwrap_err().contains("unknown power model"));
        let bad = FleetArgs {
            governors: Some(vec!["warp".to_owned()]),
            ..args
        };
        assert!(run_fleet(&bad).unwrap_err().contains("unknown governor"));
    }

    #[test]
    fn submit_status_cancel_daemon_parse() {
        let cmd = parse(&argv(
            "submit --campaign smoke --sessions 40 --governors ondemand,eavs \
             --addr 127.0.0.1:9 --wait --out /tmp/f.csv",
        ))
        .unwrap();
        let Command::Submit(args) = cmd else {
            panic!("not a submit")
        };
        assert_eq!(args.fleet.campaign, "smoke");
        assert_eq!(args.fleet.sessions, Some(40));
        assert_eq!(args.addr.as_deref(), Some("127.0.0.1:9"));
        assert!(args.wait);
        assert_eq!(args.fleet.out.as_deref(), Some("/tmp/f.csv"));
        assert!(parse(&argv("submit --out /tmp/f.csv"))
            .unwrap_err()
            .contains("--out needs --wait"));
        assert!(parse(&argv("submit --checkpoint x"))
            .unwrap_err()
            .contains("unknown flag"));

        assert_eq!(
            parse(&argv("status")).unwrap(),
            Command::Status(StatusArgs::default())
        );
        let Command::Status(args) = parse(&argv("status abc123 --addr h:1")).unwrap() else {
            panic!("not a status")
        };
        assert_eq!(args.id.as_deref(), Some("abc123"));
        assert_eq!(args.addr.as_deref(), Some("h:1"));

        let Command::Cancel(args) = parse(&argv("cancel abc123")).unwrap() else {
            panic!("not a cancel")
        };
        assert_eq!(args.id, "abc123");
        assert!(parse(&argv("cancel"))
            .unwrap_err()
            .contains("needs a campaign id"));

        let Command::Daemon(args) = parse(&argv("daemon")).unwrap() else {
            panic!("not a daemon")
        };
        assert_eq!(args.action, "status");
        let Command::Daemon(args) = parse(&argv("daemon shutdown --addr h:2")).unwrap() else {
            panic!("not a daemon")
        };
        assert_eq!(args.action, "shutdown");
        assert_eq!(args.addr.as_deref(), Some("h:2"));
        assert!(parse(&argv("daemon explode"))
            .unwrap_err()
            .contains("unknown daemon action"));
    }

    #[test]
    fn daemon_clients_error_usefully_when_unreachable() {
        // Port 1 on loopback refuses connections; every client verb
        // must surface the address and a hint instead of a bare error.
        let addr = Some("127.0.0.1:1".to_owned());
        let e = run_status(&StatusArgs {
            id: None,
            addr: addr.clone(),
        })
        .unwrap_err();
        assert!(e.contains("cannot reach eavsd at 127.0.0.1:1"), "{e}");
        assert!(e.contains("is `eavsd` running?"), "{e}");
        assert!(run_cancel(&RemoteArgs {
            id: "f00".to_owned(),
            addr: addr.clone(),
        })
        .is_err());
        assert!(run_daemon_ctl(&DaemonArgs {
            action: "metrics".to_owned(),
            addr: addr.clone(),
        })
        .is_err());
        assert!(run_submit(&SubmitArgs {
            addr,
            ..SubmitArgs::default()
        })
        .is_err());
    }

    #[test]
    fn fleet_and_submit_build_the_same_spec() {
        let fleet = FleetArgs {
            sessions: Some(64),
            seed: Some(9),
            governors: Some(vec!["ondemand".to_owned(), "eavs".to_owned()]),
            power: Some("phone:0.5".to_owned()),
            ..FleetArgs::default()
        };
        let a = build_fleet_spec(&fleet).unwrap();
        let b = build_fleet_spec(&fleet).unwrap();
        assert_eq!(a.fingerprint().0, b.fingerprint().0);
        // The daemon wire codec preserves the fingerprint, so submit
        // lands on the same campaign id as a local fleet run.
        let wire = eavs_daemon::codec::encode_spec(&a);
        let decoded = eavs_daemon::codec::decode_spec(&wire).unwrap();
        assert_eq!(decoded.fingerprint().0, a.fingerprint().0);
    }

    #[test]
    fn help_documents_resilience_and_fleet() {
        for needle in [
            "--faults",
            "--retry",
            "--panic",
            "fleet",
            "EXAMPLES",
            "trace",
            "--chrome",
            "--profile",
            "--metrics-out",
            "--power",
            "submit",
            "--wait",
            "eavsd --worker",
            "EAVS_DAEMON_ADDR",
        ] {
            assert!(USAGE.contains(needle), "USAGE must mention {needle}");
        }
    }

    #[test]
    fn trace_parses_mixed_run_and_trace_flags() {
        let cmd = parse(&argv(
            "trace --governor ondemand --out /tmp/t.jsonl --duration 5 --chrome --events 128",
        ))
        .unwrap();
        let Command::Trace(args) = cmd else {
            panic!("not a trace")
        };
        assert_eq!(args.run.governor, "ondemand");
        assert_eq!(args.run.duration_s, 5);
        assert_eq!(args.out.as_deref(), Some("/tmp/t.jsonl"));
        assert!(args.chrome);
        assert_eq!(args.events, 128);

        assert_eq!(
            parse(&argv("trace")).unwrap(),
            Command::Trace(TraceArgs::default())
        );
        assert!(parse(&argv("trace --frobnicate 1"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&argv("trace --events nope"))
            .unwrap_err()
            .contains("bad value"));
    }

    #[test]
    fn trace_dumps_deterministic_jsonl_to_stdout() {
        let args = TraceArgs {
            run: RunArgs {
                duration_s: 4,
                bitrate_kbps: 1_500,
                width: 854,
                height: 480,
                ..RunArgs::default()
            },
            ..TraceArgs::default()
        };
        let a = run_trace(&args).unwrap();
        let b = run_trace(&args).unwrap();
        assert_eq!(a, b, "same seed must dump byte-identical JSONL");
        let first = a.lines().next().unwrap();
        assert!(first.starts_with("{\"seq\":0,"), "{first}");
        assert!(a.contains("\"ev\":\"playback_start\""));
        assert!(a.contains("\"ev\":\"governor_decision\""));
    }

    #[test]
    fn trace_chrome_dump_is_json_array() {
        let args = TraceArgs {
            run: RunArgs {
                duration_s: 4,
                bitrate_kbps: 1_500,
                width: 854,
                height: 480,
                ..RunArgs::default()
            },
            chrome: true,
            ..TraceArgs::default()
        };
        let dump = run_trace(&args).unwrap();
        assert!(dump.starts_with('['), "{dump}");
        assert!(dump.trim_end().ends_with(']'), "{dump}");
        assert!(dump.contains("\"ph\":\"M\""));
        assert!(dump.contains("cpu_freq_khz"));
    }

    #[test]
    fn run_profile_appends_phase_breakdown() {
        let args = RunArgs {
            duration_s: 4,
            bitrate_kbps: 1_500,
            width: 854,
            height: 480,
            profile: true,
            ..RunArgs::default()
        };
        let out = execute(Command::Run(args)).unwrap();
        assert!(out.contains("profile:"), "{out}");
        assert!(out.contains("\"download\""), "{out}");
        assert!(out.contains("\"governor\""), "{out}");
    }

    #[test]
    fn fleet_metrics_out_writes_prometheus_page() {
        let dir = std::env::temp_dir().join("eavs_cli_metrics_test");
        let path = dir.join("f26.prom");
        let args = FleetArgs {
            sessions: Some(4),
            shard_size: Some(2),
            governors: Some(vec!["eavs".to_owned()]),
            metrics_out: Some(path.to_string_lossy().into_owned()),
            ..FleetArgs::default()
        };
        let out = run_fleet(&args).unwrap();
        assert!(out.contains("[metrics written to"), "{out}");
        let page = std::fs::read_to_string(&path).unwrap();
        assert!(page.contains("# TYPE eavs_fleet_cpu_joules histogram"));
        assert!(page.contains("eavs_fleet_shards_done"));
        assert!(page.contains("eavs_session_cache_hits_total"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_emits_a_prior_and_run_seeds_from_it() {
        let dir = std::env::temp_dir().join("eavs_cli_prior_test");
        let path = dir.join("fleet.prior");
        let path_s = path.to_string_lossy().into_owned();
        let args = FleetArgs {
            sessions: Some(4),
            shard_size: Some(2),
            governors: Some(vec!["eavs".to_owned()]),
            emit_prior: Some(path_s.clone()),
            ..FleetArgs::default()
        };
        let out = run_fleet(&args).unwrap();
        assert!(out.contains("[prior written to"), "{out}");
        let store = eavs_fleet::prior::load(&path).unwrap();
        assert!(!store.is_empty());
        assert!(store.total_frames() > 0);

        // The emitted file warm-starts another campaign.
        let warm = FleetArgs {
            emit_prior: None,
            prior: Some(path_s.clone()),
            ..args.clone()
        };
        assert!(run_fleet(&warm).unwrap().contains("2/2 shards done"));

        // A run whose encode the fleet never saw projects the empty
        // prior — identical to the cold session, bit for bit.
        let run = RunArgs {
            duration_s: 4,
            bitrate_kbps: 1_234,
            width: 640,
            height: 360,
            ..RunArgs::default()
        };
        let cold = run_session(&run, "eavs").unwrap();
        let seeded = run_session(
            &RunArgs {
                prior: Some(path_s),
                ..run
            },
            "eavs",
        )
        .unwrap();
        assert_eq!(cold.cpu_joules().to_bits(), seeded.cpu_joules().to_bits());
        assert_eq!(cold.frames_decoded, seeded.frames_decoded);

        // Missing prior files fail with a useful message.
        let bad = RunArgs {
            prior: Some("/nonexistent/x.prior".to_owned()),
            ..RunArgs::default()
        };
        assert!(run_session(&bad, "eavs")
            .unwrap_err()
            .contains("cannot read prior"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abr_switches_to_ladder() {
        let args = RunArgs {
            duration_s: 6,
            abr: Some("buffer".to_owned()),
            ..RunArgs::default()
        };
        let report = run_session(&args, "eavs").unwrap();
        assert!(report.segments_downloaded >= 3);
    }
}
