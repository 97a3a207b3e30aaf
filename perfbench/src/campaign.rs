//! `campaign`: `eavs_bench::fleet::run_campaign`, the code path `eavsctl
//! fleet` runs, on the F26 `global` population with an added `eavs-panic`
//! lane, the `phone` power model and a checkpoint file, on the production
//! pooled, cached and batched runner.
//!
//! Like `eavsctl fleet`, every campaign runs in a fresh process, so each
//! starts with a cold session cache and does the same work: the loop
//! spawns this benchmark's own binary once per campaign (`--child`) and
//! waits for it before starting the next (one client, closed loop).

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use eavs_core::report::SessionReport;
use eavs_core::session::SessionBuilder;
use eavs_daemon::json::{self, Value};
use eavs_fleet::spec::NetworkChoice;
use eavs_fleet::{checkpoint, CampaignSpec, FleetAggregate, RunOptions};
use eavs_power::DevicePowerModel;
use eavs_sim::time::SimDuration;

use crate::report::{self, json_num, metric, mix, ms, Digest, Metric, Outcome, SpeedClock};

/// Sessions per campaign (× 6 governors = session-runs).
pub const SESSIONS: u64 = 1_000;
/// Sessions of the guard campaign the simulated metrics are taken over.
const GUARD_SESSIONS: u64 = 200;

/// The campaign every child of a run executes.
pub fn spec(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::global();
    spec.name = "perfbench-campaign".to_owned();
    spec.seed = mix(seed, 0xCA);
    spec.sessions = SESSIONS;
    spec.governors.push("eavs-panic".to_owned());
    spec.power = DevicePowerModel::phone();
    spec
}

/// Pre-generates every bandwidth trace the spec's draws can ask for, with
/// the exact `(profile, duration, seed)` keys `builder_for` uses, so trace
/// generation stays out of the timed phase.
pub fn pregenerate_traces(spec: &CampaignSpec) {
    for (network, _) in &spec.networks {
        let NetworkChoice::Profile(profile) = network else {
            continue;
        };
        for (title, _) in &spec.titles {
            for trace_seed in 0..spec.trace_pool {
                let duration = SimDuration::from_secs(title.duration_s) * 3;
                std::hint::black_box(profile.generate_shared(duration, trace_seed));
            }
        }
    }
}

/// Simulated CPU joules per session-run and the population deadline-miss
/// rate of a folded aggregate, over every governor lane.
pub fn simulated(agg: &FleetAggregate) -> (f64, f64) {
    let runs: u64 = agg.govs.iter().map(|g| g.sessions).sum();
    let cpu_j: f64 = agg.govs.iter().map(|g| g.cpu_j_sum.value()).sum();
    let missed: u64 = agg
        .govs
        .iter()
        .map(|g| g.late_vsyncs + g.frames_dropped)
        .sum();
    let ticks: u64 = agg.govs.iter().map(|g| g.frames_displayed).sum::<u64>() + missed;
    (
        cpu_j / runs.max(1) as f64,
        missed as f64 / ticks.max(1) as f64,
    )
}

/// One timed call of the production shard runner.
#[derive(Clone, Copy)]
pub struct RunnerCall {
    pub ms: f64,
    pub runs: usize,
    /// Engine events summed over the returned reports.
    pub events: u64,
}

/// The production pooled runner, with each call timed from outside.
pub fn timed_runner(
    calls: &RefCell<Vec<RunnerCall>>,
) -> impl Fn(Vec<(String, SessionBuilder)>) -> Vec<Arc<SessionReport>> + '_ {
    move |jobs| {
        let runs = jobs.len();
        let t = Instant::now();
        let reports = eavs_bench::fleet::pooled_runner(jobs);
        calls.borrow_mut().push(RunnerCall {
            ms: ms(t.elapsed()),
            runs,
            events: reports.iter().map(|r| r.events_processed).sum(),
        });
        reports
    }
}

/// `sim.events_per_run` over every report the runner calls returned.
pub fn events_per_run(calls: &[RunnerCall]) -> Metric {
    let events: u64 = calls.iter().map(|c| c.events).sum();
    let runs: usize = calls.iter().map(|c| c.runs).sum();
    metric(
        "sim.events_per_run",
        "count",
        events as f64 / runs.max(1) as f64,
    )
}

/// Process-wide cache, replay, batch and memo counters at one instant.
#[derive(Clone, Copy)]
pub struct Counters {
    hits: u64,
    misses: u64,
    replayed: u64,
    injected: u64,
    batched: u64,
    segment_misses: u64,
    trace_misses: u64,
}

impl Counters {
    pub fn now() -> Self {
        let cache = eavs_bench::cache::stats();
        Counters {
            hits: cache.hits,
            misses: cache.misses,
            replayed: eavs_core::session::replayed_sessions(),
            injected: eavs_core::session::injected_decisions(),
            batched: eavs_core::batch::batch_stats().sessions,
            segment_misses: eavs_trace::memo::segment_cache_stats().misses,
            trace_misses: eavs_trace::memo::trace_cache_stats().misses,
        }
    }

    /// Counter deltas since `self` as `cache.*`/`trace.*` layer metrics.
    /// Segment misses, replayed runs and injected decisions are samples,
    /// not counts: pool workers racing on one segment can both miss, and
    /// how much of a run replays depends on thread timing.
    pub fn layers_since(&self) -> Vec<Metric> {
        let now = Counters::now();
        let hits = now.hits - self.hits;
        let misses = now.misses - self.misses;
        let (replayed, batched) = (now.replayed - self.replayed, now.batched - self.batched);
        vec![
            metric("cache.hits", "count", hits as f64),
            metric("cache.misses", "count", misses as f64),
            metric(
                "cache.hit_rate",
                "ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            metric("cache.replayed_runs", "runs", replayed as f64),
            metric(
                "cache.injected_decisions",
                "decisions",
                (now.injected - self.injected) as f64,
            ),
            metric("cache.batched_runs", "count", batched as f64),
            metric(
                "cache.resident_mib",
                "MiB",
                eavs_bench::cache::stats().bytes as f64 / (1 << 20) as f64,
            ),
            metric(
                "trace.segment_misses",
                "misses",
                (now.segment_misses - self.segment_misses) as f64,
            ),
            metric(
                "trace.trace_misses",
                "count",
                (now.trace_misses - self.trace_misses) as f64,
            ),
        ]
    }
}

/// Layer probes of the shard, fold and checkpoint layers, timed from
/// outside on the finished campaign's own inputs: every shard re-run
/// through `run_shard` (the session cache now answers every run, so the
/// runner is cheap and the rest is draws, builders, fold and prior stats),
/// the merges, the checkpoint codec and one checkpoint write.
pub fn fleet_probes(spec: &CampaignSpec, agg: &FleetAggregate, dir: &Path) -> Vec<Metric> {
    let mut overhead = Vec::new();
    let mut partials = Vec::new();
    let mut peak_shard_bytes = 0;
    for shard in 0..spec.num_shards() {
        let calls = RefCell::new(Vec::new());
        let t = Instant::now();
        let out = eavs_fleet::run_shard(spec, shard, &timed_runner(&calls))
            .expect("shard of a campaign that just completed");
        let runner: f64 = calls.borrow().iter().map(|c| c.ms).sum();
        overhead.push(ms(t.elapsed()) - runner);
        peak_shard_bytes = peak_shard_bytes.max(out.shard_bytes);
        partials.push(out.partial);
    }
    let merge = report::median_us(5, || {
        let mut folded = FleetAggregate::new(spec);
        for p in &partials {
            folded.merge(p);
        }
        std::hint::black_box(folded);
    }) / partials.len() as f64;
    let text = checkpoint::encode(agg);
    let encode = report::median_us(9, || {
        std::hint::black_box(checkpoint::encode(agg));
    });
    let decode = report::median_us(9, || {
        std::hint::black_box(checkpoint::decode(&text).expect("own encoding decodes"));
    });
    let path = dir.join(format!("probe-{}.ckpt", std::process::id()));
    let save = report::median_us(5, || {
        checkpoint::save(&path, agg).expect("probe checkpoint write");
    }) / 1e3;
    let _ = std::fs::remove_file(&path);
    let (start, end) = spec.shard_range(0);
    let builders: Vec<SessionBuilder> = (start..end)
        .flat_map(|id| {
            let draw = eavs_fleet::campaign::draw_session(spec, id);
            spec.governors
                .iter()
                .map(move |g| eavs_fleet::campaign::builder_for(&draw, g).expect("known governor"))
        })
        .collect();
    let t = Instant::now();
    for b in &builders {
        std::hint::black_box(b.fingerprint());
    }
    let fingerprint = report::us(t.elapsed()) / builders.len().max(1) as f64;
    vec![
        metric("cache.fingerprint_us", "us", fingerprint),
        metric("fleet.shard_overhead_ms", "ms", report::median(&overhead)),
        metric("fleet.merge_us", "us", merge),
        metric("fleet.ckpt_encode_us", "us", encode),
        metric("fleet.ckpt_decode_us", "us", decode),
        metric("fleet.ckpt_save_ms", "ms", save),
        metric("fleet.ckpt_bytes", "count", text.len() as f64),
        metric(
            "fleet.peak_shard_kib",
            "KiB",
            peak_shard_bytes as f64 / 1024.0,
        ),
    ]
}

/// The production pooled runner with each call timed at reference speed
/// (`report::SpeedClock`): a calibration slice before the call closes the
/// interval since the previous one (the rest of `run_shard`, the fold and
/// the checkpoint write), and one after it closes the call. `wall_s` sums
/// every closed interval, so it leaves the slices out.
fn calibrated_runner<'a>(
    clock: &'a RefCell<SpeedClock>,
    wall_s: &'a RefCell<f64>,
    calls: &'a RefCell<Vec<RunnerCall>>,
) -> impl Fn(Vec<(String, SessionBuilder)>) -> Vec<Arc<SessionReport>> + 'a {
    move |jobs| {
        let runs = jobs.len();
        *wall_s.borrow_mut() += clock.borrow_mut().lap_s();
        let reports = eavs_bench::fleet::pooled_runner(jobs);
        let call_s = clock.borrow_mut().lap_s();
        *wall_s.borrow_mut() += call_s;
        calls.borrow_mut().push(RunnerCall {
            ms: call_s * 1e3,
            runs,
            events: reports.iter().map(|r| r.events_processed).sum(),
        });
        reports
    }
}

/// Where campaign checkpoints and probe files go, inside the checkout.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench").join("work");
    std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
    dir
}

/// The `--child` body: set up, run one campaign, check it, print one JSON
/// line for the parent.
pub fn child(seed: u64, traced: bool) {
    // Times are at reference speed (`report::SpeedClock`); the process is
    // pinned to one CPU with its parent, so the slices share its vCPU.
    let clock = RefCell::new(SpeedClock::start());
    eavs_bench::executor::pool();
    let spec = spec(seed);
    spec.validate().expect("benchmark spec is valid");
    pregenerate_traces(&spec);
    let dir = work_dir();
    let path = dir.join(format!("campaign-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let setup_s = clock.borrow_mut().lap_s();

    let calls = RefCell::new(Vec::new());
    let wall_s = RefCell::new(0.0);
    let before = Counters::now();
    let opts = RunOptions {
        checkpoint: Some(path.clone()),
        checkpoint_every: 1,
        ..RunOptions::default()
    };
    clock.borrow_mut().lap();
    let outcome =
        eavs_fleet::run_campaign(&spec, &opts, &calibrated_runner(&clock, &wall_s, &calls))
            .expect("benchmark campaign runs");
    let wall_s = wall_s.into_inner() + clock.borrow_mut().lap_s();

    let mut layers = before.layers_since();
    let csv = outcome.aggregate.table(&spec).to_csv();
    let ckpt = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    let checks_ok = outcome.status == eavs_fleet::CampaignStatus::Complete
        && ckpt == checkpoint::encode(&outcome.aggregate)
        && checkpoint::decode(&ckpt).as_ref() == Ok(&outcome.aggregate);
    let digest = Digest::new()
        .bytes(csv.as_bytes())
        .bytes(ckpt.as_bytes())
        .finish();
    let calls = calls.into_inner();
    let mut explained_ms = 0.0;
    if traced {
        layers.push(metric(
            "fleet.runner_ms",
            "ms",
            report::median(&calls.iter().map(|c| c.ms).collect::<Vec<_>>()),
        ));
        layers.push(events_per_run(&calls));
        let mut probes = fleet_probes(&spec, &outcome.aggregate, &dir);
        let (_, factor) = clock.borrow_mut().lap();
        report::rescale_times(&mut probes, factor);
        layers.extend(probes);
        // Per shard: the runner call, the rest of `run_shard`, the merge
        // into the running aggregate and the checkpoint write.
        let layer = |name: &str| {
            layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        explained_ms = calls.iter().map(|c| c.ms).sum::<f64>()
            + spec.num_shards() as f64
                * (layer("fleet.shard_overhead_ms")
                    + layer("fleet.merge_us") / 1e3
                    + layer("fleet.ckpt_save_ms"));
    }
    let list = |f: &dyn Fn(&RunnerCall) -> f64| {
        calls
            .iter()
            .map(|c| json_num(f(c)))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "{{\"setup_s\":{},\"wall_s\":{},\"runs\":{},\"digest\":\"{digest:016x}\",\
         \"checks_ok\":{checks_ok},\"runner_ms\":[{}],\"runner_runs\":[{}],\
         \"peak_rss_mib\":{},\
         \"explained_ms\":{},\"layers\":{}}}",
        json_num(setup_s),
        json_num(wall_s),
        outcome.session_runs,
        list(&|c| c.ms),
        list(&|c| c.runs as f64),
        json_num(report::peak_rss_mib()),
        json_num(explained_ms),
        report::metrics_json(&layers),
    );
}

/// One finished child, as the parent parsed it.
struct Child {
    setup_s: f64,
    wall_s: f64,
    runs: f64,
    digest: String,
    checks_ok: bool,
    run_ms: Vec<f64>,
    rss: f64,
    layers: Vec<Metric>,
    /// Campaign wall time the layer metrics attribute (traced only).
    explained_ms: f64,
}

/// Spawns one child campaign and waits for it. `scalar` forces the
/// unbatched execution path (`EAVS_BATCH=0`) for the reference run.
fn spawn(seed: u64, traced: bool, scalar: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "campaign", "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if scalar {
        cmd.env("EAVS_BATCH", "0");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn campaign child: {e}"))?;
    if !out.status.success() {
        return Err(format!("campaign child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("campaign child printed nothing")?;
    let v = json::parse(line)?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("child: no {k}"))
    };
    let list = |k: &str| -> Vec<f64> {
        v.get(k)
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_f64)
            .collect()
    };
    let per_run: Vec<f64> = list("runner_ms")
        .iter()
        .zip(list("runner_runs"))
        .map(|(ms, runs)| ms / runs.max(1.0))
        .collect();
    let layers = report::parse_metrics(v.get("layers").ok_or("child: no layers")?)?;
    Ok(Child {
        setup_s: num("setup_s")?,
        wall_s: num("wall_s")?,
        runs: num("runs")?,
        digest: v
            .get("digest")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned(),
        checks_ok: v.get("checks_ok").and_then(Value::as_bool) == Some(true),
        run_ms: per_run,
        rss: num("peak_rss_mib")?,
        layers,
        explained_ms: num("explained_ms")?,
    })
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome {
        pool_workers: eavs_bench::executor::pool().workers() as u64,
        ..Outcome::default()
    };
    let mut children = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || children.is_empty() {
        match spawn(seed, traced, false) {
            Ok(c) => children.push(c),
            Err(e) => {
                eprintln!("campaign: {e}");
                out.count(false);
                return out;
            }
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    let reference = spawn(seed, false, true);
    let expected = reference.as_ref().map(|r| r.digest.clone());
    if let Err(e) = &expected {
        eprintln!("campaign: reference run failed: {e}");
    }
    out.count(reference.as_ref().is_ok_and(|r| r.checks_ok));
    for c in &children {
        let ok = c.checks_ok && expected.as_ref().is_ok_and(|d| *d == c.digest);
        out.count(ok);
    }

    let mut guard = spec(report::GUARD_SEED);
    guard.sessions = GUARD_SESSIONS;
    let (cpu_j, miss) = match eavs_bench::fleet::run_campaign(&guard, &RunOptions::default()) {
        Ok(o) => simulated(&o.aggregate),
        Err(e) => {
            eprintln!("campaign: guard campaign failed: {e}");
            out.count(false);
            (0.0, 0.0)
        }
    };
    let col = |f: &dyn Fn(&Child) -> f64| children.iter().map(f).collect::<Vec<f64>>();
    let run_ms: Vec<f64> = children.iter().flat_map(|c| c.run_ms.clone()).collect();
    let first = &children[0];
    out.end_to_end = vec![
        metric("setup_s", "s", report::median(&col(&|c| c.setup_s))),
        metric(
            "runs_per_s",
            "1/s",
            report::median(&col(&|c| c.runs / c.wall_s)),
        ),
        metric("run_ms_p50", "ms", report::quantile(&run_ms, 0.5)),
        metric("run_ms_p90", "ms", report::quantile(&run_ms, 0.9)),
        // An alias of `runs_per_s` (every campaign has the same runs):
        // `BENCHMARK.json` wants every end-to-end metric from every workload.
        metric("time_to_result_s", "s", report::median(&col(&|c| c.wall_s))),
        metric("peak_rss_mib", "MiB", report::median(&col(&|c| c.rss))),
        metric("cpu_j_per_run", "J", cpu_j),
        metric("deadline_miss_rate", "ratio", miss),
    ];
    if traced {
        out.layers = first
            .layers
            .iter()
            .map(|m| {
                let values: Vec<f64> = children
                    .iter()
                    .filter_map(|c| c.layers.iter().find(|x| x.name == m.name))
                    .map(|x| x.value)
                    .collect();
                if m.unit == "count" && values.iter().any(|v| *v != m.value) {
                    out.notes.push(format!(
                        "{} differs between identical campaigns ({values:?}): a sample, not a count",
                        m.name
                    ));
                }
                metric(&m.name, &m.unit, report::median(&values))
            })
            .collect();
        out.explained_s = children.iter().map(|c| c.explained_ms / 1e3).sum();
        out.wall_s = children.iter().map(|c| c.wall_s).sum();
    }
    out
}
