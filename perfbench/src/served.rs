//! `served`: an in-process `eavs_daemon::Daemon` on loopback with the
//! shipped `DaemonOptions` except `workers: 0`. One worker thread speaks
//! the remote claim/upload protocol (`eavs_daemon::worker::run_worker`, as
//! `eavsd --worker` does); one client thread submits a fixed sequence of
//! `smoke`-preset campaigns with distinct seeds and small shards, scrapes
//! `/metrics` once per campaign, polls progress at the cadence of
//! `eavsctl submit --wait` and fetches each result. Closed loop: the next
//! campaign is submitted as soon as the previous result is in. At most two
//! connections are open at once.
//!
//! The daemon keeps every campaign it has held (`DELETE` only cancels),
//! and `/metrics` renders all of them under the registry lock, so a
//! daemon slows down with every campaign it serves. To give every run the
//! same daemon states whatever its length, one daemon serves a fixed
//! round of [`ROUND`] campaigns and a fresh one serves the next round.
//! The session cache is process-wide and stays warm across rounds.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eavs_core::report::SessionReport;
use eavs_core::session::SessionBuilder;
use eavs_daemon::http::client;
use eavs_daemon::json::{self, Value};
use eavs_daemon::registry::{campaign_id, Registry, RegistryConfig};
use eavs_daemon::worker::SharedRunner;
use eavs_daemon::{codec, Daemon, DaemonOptions};
use eavs_fleet::spec::CampaignSpec;
use eavs_fleet::{checkpoint, FleetAggregate, RunOptions};

use crate::campaign::{self, Counters, RunnerCall};
use crate::report::{self, metric, mix, ms, us, Outcome, SpeedClock};

/// Campaigns one daemon serves before a fresh daemon takes over. The
/// loop always finishes the round it is in, so every run holds whole
/// rounds. The counters and memory are taken over the first round (the
/// same work in every run of a seed).
const ROUND: u64 = 24;
/// Sessions per campaign (× 2 governors).
const SESSIONS: u64 = 200;
/// Sessions per shard: the preset's small shards, so per-shard
/// control-plane costs show.
const SHARD: u64 = 25;
/// Pause between progress polls: the cadence of the shipped client,
/// `eavsctl submit --wait` (`cmd_submit` in `src/cli.rs`).
const POLL: Duration = Duration::from_millis(50);
/// Processes [`setup_child`] runs in, one cold set-up each; the reported
/// `setup_s` is their median.
const SETUP_PROCESSES: usize = 15;
/// The worker's pause after a `204` claim, as in
/// `eavs_daemon::worker::run_worker`, for the traced replica.
const IDLE_POLL: Duration = Duration::from_millis(20);
/// How `run_worker` starts every line it logs: a claim or upload that
/// failed (non-2xx, transport error, bad body). It has no other way to
/// report one, so the parent process counts these lines on the phase's
/// standard error as failed operations (`main::spawn_phase`).
pub const WORKER_LOG_PREFIX: &str = "eavsd worker:";

/// Campaign `k` of the sequence for `seed`.
pub fn spec(seed: u64, k: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.name = format!("perfbench-served-{k}");
    spec.seed = mix(seed, 0x5E00 + k);
    spec.sessions = SESSIONS;
    spec.shard_size = SHARD;
    spec
}

/// The traced worker's time on one campaign.
#[derive(Default)]
struct WorkerParts {
    /// When the first granted claim came back.
    first_claim: Option<Instant>,
    /// When the last upload was acknowledged.
    last_upload: Option<Instant>,
    claims_after_first_ms: f64,
    run_shard_ms: f64,
    encode_ms: f64,
    upload_ms: f64,
}

/// What the worker side recorded.
#[derive(Default)]
struct WorkerLog {
    runner: Vec<RunnerCall>,
    claim_ms: Vec<f64>,
    upload_ms: Vec<f64>,
    run_shard_ms: Vec<f64>,
    encode_us: Vec<f64>,
    idle_claims: u64,
    requests: u64,
    non_2xx: u64,
    /// Per campaign id.
    campaigns: HashMap<String, WorkerParts>,
}

type Log = Arc<Mutex<WorkerLog>>;

fn lock(log: &Log) -> std::sync::MutexGuard<'_, WorkerLog> {
    log.lock()
        .expect("worker log poisoned by a panicking thread")
}

/// The production pooled runner, each call timed into `log`.
fn timed_runner(log: &Log) -> SharedRunner {
    let log = Arc::clone(log);
    Arc::new(
        move |jobs: Vec<(String, SessionBuilder)>| -> Vec<Arc<SessionReport>> {
            let runs = jobs.len();
            let t = Instant::now();
            let reports = eavs_bench::fleet::pooled_runner(jobs);
            lock(&log).runner.push(RunnerCall {
                ms: ms(t.elapsed()),
                runs,
                events: reports.iter().map(|r| r.events_processed).sum(),
            });
            reports
        },
    )
}

/// The traced worker: a step-for-step replica of `run_worker`'s claim →
/// `run_shard` → encode → upload loop, with each step timed.
fn traced_worker(addr: &str, runner: &SharedRunner, stop: &AtomicBool, log: &Log) {
    let mut specs: HashMap<String, Arc<CampaignSpec>> = HashMap::new();
    while !stop.load(Ordering::SeqCst) {
        let t = Instant::now();
        let claimed = client::request_text(addr, "POST", "/claim", "");
        let claim_ms = ms(t.elapsed());
        lock(log).requests += 1;
        let body = match claimed {
            Ok((200, body)) => body,
            Ok((204, _)) => {
                lock(log).idle_claims += 1;
                std::thread::sleep(IDLE_POLL);
                continue;
            }
            other => {
                // Same prefix as `run_worker`'s log lines, which the
                // parent process counts as failures.
                eprintln!("{WORKER_LOG_PREFIX} claim returned {other:?}");
                lock(log).non_2xx += 1;
                std::thread::sleep(Duration::from_millis(200));
                continue;
            }
        };
        let granted = Instant::now();
        let v = json::parse(&body).expect("claim body is JSON");
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .expect("claim id")
            .to_owned();
        let shard = v.get("shard").and_then(Value::as_u64).expect("claim shard");
        let spec = specs.entry(id.clone()).or_insert_with(|| {
            Arc::new(codec::decode_spec_value(v.get("spec").expect("claim spec")).expect("spec"))
        });
        let t = Instant::now();
        let out = eavs_fleet::run_shard(spec, shard, &**runner).expect("claimed shard runs");
        let run_shard_ms = ms(t.elapsed());
        let t = Instant::now();
        let partial = checkpoint::encode(&out.partial);
        let encode_us = us(t.elapsed());
        let t = Instant::now();
        let uploaded = client::request_text(
            addr,
            "POST",
            &format!("/campaigns/{id}/shards/{shard}"),
            &partial,
        );
        let upload_ms = ms(t.elapsed());
        let acked = Instant::now();
        let mut l = lock(log);
        l.requests += 1;
        l.claim_ms.push(claim_ms);
        l.run_shard_ms.push(run_shard_ms);
        l.encode_us.push(encode_us);
        l.upload_ms.push(upload_ms);
        if !matches!(uploaded, Ok((200, _))) {
            eprintln!("{WORKER_LOG_PREFIX} complete returned {uploaded:?}");
            l.non_2xx += 1;
        }
        let p = l.campaigns.entry(id).or_default();
        if p.first_claim.is_none() {
            p.first_claim = Some(granted);
        } else {
            p.claims_after_first_ms += claim_ms;
        }
        p.run_shard_ms += run_shard_ms;
        p.encode_ms += encode_us / 1e3;
        p.upload_ms += upload_ms;
        p.last_upload = Some(acked);
    }
}

/// A running daemon plus its worker thread.
struct Service {
    daemon: Daemon,
    worker: std::thread::JoinHandle<()>,
    stop: Arc<AtomicBool>,
    dir: PathBuf,
}

impl Service {
    fn start(dir: PathBuf, log: &Log, traced: bool) -> Result<Service, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let runner = timed_runner(log);
        let daemon = Daemon::start(
            DaemonOptions {
                workers: 0,
                ..DaemonOptions::new(dir.clone())
            },
            Arc::clone(&runner),
        )?;
        let addr = daemon.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let worker_stop = Arc::clone(&stop);
        let worker_log = Arc::clone(log);
        let worker = std::thread::Builder::new()
            .name("perfbench-worker".to_owned())
            .spawn(move || {
                if traced {
                    traced_worker(&addr, &runner, &worker_stop, &worker_log);
                } else {
                    eavs_daemon::worker::run_worker(&addr, &runner, &worker_stop);
                }
            })
            .map_err(|e| format!("spawn worker: {e}"))?;
        Ok(Service {
            daemon,
            worker,
            stop,
            dir,
        })
    }

    /// Checks `/healthz`.
    fn healthy(self) -> Result<Service, String> {
        match client::request_text(&self.daemon.addr(), "GET", "/healthz", "") {
            Ok((200, _)) => Ok(self),
            other => {
                let e = format!("daemon not healthy: {other:?}");
                self.stop();
                Err(e)
            }
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        if self.worker.join().is_err() {
            eprintln!("served: worker thread panicked");
        }
        self.daemon.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Client-side record of one campaign.
struct Served {
    spec: CampaignSpec,
    body: String,
    ttr_s: f64,
    submit_ms: f64,
    submit_ack: Instant,
    complete_seen: Instant,
    result_ms: f64,
}

/// Per-route client round trips, ms.
#[derive(Default)]
struct Routes {
    submit: Vec<f64>,
    poll: Vec<f64>,
    metrics: Vec<f64>,
    result: Vec<f64>,
}

/// Issues one client request, times it and counts it in `out`.
fn request(
    out: &mut Outcome,
    samples: &mut Vec<f64>,
    all: &mut Vec<f64>,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Option<String> {
    let t = Instant::now();
    let res = client::request_text(addr, method, path, body);
    let dt = ms(t.elapsed());
    samples.push(dt);
    all.push(dt);
    match res {
        Ok((status, text)) if (200..300).contains(&status) => {
            out.count(true);
            Some(text)
        }
        Ok((status, text)) => {
            eprintln!("served: {method} {path} returned {status}: {text}");
            out.count(false);
            None
        }
        Err(e) => {
            eprintln!("served: {method} {path}: {e}");
            out.count(false);
            None
        }
    }
}

/// Submits a campaign, scrapes `/metrics` once while it runs, follows it
/// to completion as `eavsctl submit --wait` does and fetches its result.
/// No shipped scraper has a cadence to copy; one scrape per campaign puts
/// the same read load beside every campaign's writes.
fn serve_one(
    out: &mut Outcome,
    routes: &mut Routes,
    all: &mut Vec<f64>,
    addr: &str,
    spec: CampaignSpec,
) -> Option<Served> {
    let id = campaign_id(&spec);
    let started = Instant::now();
    request(
        out,
        &mut routes.submit,
        all,
        addr,
        "POST",
        "/campaigns",
        &codec::encode_spec(&spec),
    )?;
    let submit_ack = Instant::now();
    let submit_ms = ms(submit_ack - started);
    let page = request(out, &mut routes.metrics, all, addr, "GET", "/metrics", "")?;
    if !page.contains("eavsd_campaigns") {
        eprintln!("served: /metrics page lacks eavsd_campaigns");
        out.count(false);
    }
    let progress = format!("/campaigns/{id}");
    let complete_seen = loop {
        let body = request(out, &mut routes.poll, all, addr, "GET", &progress, "")?;
        if body.contains("\"phase\":\"complete\"") {
            break Instant::now();
        }
        if !body.contains("\"phase\":\"running\"") {
            eprintln!("served: campaign {id} left the running phase: {body}");
            out.count(false);
            return None;
        }
        std::thread::sleep(POLL);
    };
    let result = format!("/campaigns/{id}/result");
    let body = request(out, &mut routes.result, all, addr, "GET", &result, "")?;
    let done = Instant::now();
    Some(Served {
        spec,
        body,
        ttr_s: (done - started).as_secs_f64(),
        submit_ms,
        submit_ack,
        complete_seen,
        result_ms: ms(done - complete_seen),
    })
}

/// The `--child served-inprocess` body: the first round run in-process
/// through `run_campaign` in a fresh process, for the served-vs-in-process
/// comparison. Prints one JSON line.
pub fn inprocess_child(seed: u64) {
    eavs_bench::executor::pool();
    campaign::pregenerate_traces(&spec(seed, 0));
    let dir = campaign::work_dir();
    let before = eavs_bench::cache::stats();
    let mut runs = 0;
    let mut wall = 0.0;
    for k in 0..ROUND {
        let path = dir.join(format!("inprocess-{}-{k}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = RunOptions {
            checkpoint: Some(path.clone()),
            checkpoint_every: DaemonOptions::new(".").checkpoint_every,
            ..RunOptions::default()
        };
        let t = Instant::now();
        let o = eavs_bench::fleet::run_campaign(&spec(seed, k), &opts).expect("spec runs");
        wall += t.elapsed().as_secs_f64();
        runs += o.session_runs;
        let _ = std::fs::remove_file(&path);
    }
    let after = eavs_bench::cache::stats();
    println!(
        "{{\"runs\":{runs},\"wall_s\":{},\"hits\":{},\"misses\":{}}}",
        report::json_num(wall),
        after.hits - before.hits,
        after.misses - before.misses
    );
}

/// The `--child served-setup` body: sets up the serving stack once, cold,
/// as the `served` phase does (the program's pool started, the input
/// traces generated, a daemon started), and prints the time that took at
/// reference speed (`report::SpeedClock`) as one JSON line.
///
/// The parent runs this process pinned to one CPU, so the pool has one
/// worker. Starting a daemon alone (five thread spawns, a directory and a
/// bind: about 0.1 ms) moved by up to 1.8× over a few minutes on the
/// reference host, pinned or not and in CPU time as in wall time, in
/// step with neither the sorting slice nor a slice of the same system
/// calls; the cold set-up, about 0.3 ms, moved by about 1.2×.
pub fn setup_child(seed: u64) {
    let state = campaign::work_dir().join(format!("setup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let mut clock = SpeedClock::start();
    eavs_bench::executor::pool();
    campaign::pregenerate_traces(&spec(seed, 0));
    let daemon = Daemon::start(
        DaemonOptions {
            workers: 0,
            ..DaemonOptions::new(state.clone())
        },
        Arc::new(eavs_bench::fleet::pooled_runner),
    )
    .expect("daemon starts");
    let setup_s = clock.lap_s();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
    println!("{{\"setup_s\":{}}}", report::json_num(setup_s));
}

/// Runs [`setup_child`] in [`SETUP_PROCESSES`] processes in turn, each
/// pinned to one CPU, and returns the median of their `setup_s`.
fn setup(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cpu = crate::one_cpu();
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROCESSES {
        let out = crate::command_on(cpu, exe.clone())
            .args(["--child", "served-setup", "--seed", &seed.to_string()])
            .stdin(std::process::Stdio::null())
            .output()
            .map_err(|e| format!("spawn set-up child: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up child exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let v = json::parse(
            stdout
                .lines()
                .last()
                .ok_or("set-up child printed nothing")?,
        )?;
        setups.push(
            v.get("setup_s")
                .and_then(Value::as_f64)
                .ok_or("set-up child: no setup_s")?,
        );
    }
    Ok(report::median(&setups))
}

/// Runs [`inprocess_child`] and returns (runs, wall s, hits, misses).
fn inprocess(seed: u64) -> Result<(f64, f64, f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--child", "served-inprocess", "--seed", &seed.to_string()])
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = json::parse(stdout.lines().last().ok_or("no output")?)?;
    let num = |k: &str| v.get(k).and_then(Value::as_f64).ok_or(format!("no {k}"));
    Ok((num("runs")?, num("wall_s")?, num("hits")?, num("misses")?))
}

/// `Registry::claim` and `Registry::complete` without HTTP, on a fresh
/// registry with the daemon's checkpoint cadence, over the partials of
/// `spec`'s shards. Returns median (claim µs, complete µs).
fn registry_probe(spec: &CampaignSpec, dir: PathBuf) -> (f64, f64) {
    let _ = std::fs::remove_dir_all(&dir);
    let defaults = DaemonOptions::new(dir.clone());
    let registry = Registry::open(RegistryConfig {
        state_dir: dir.clone(),
        checkpoint_every: defaults.checkpoint_every,
        lease: defaults.lease,
        prior_path: None,
    })
    .expect("probe registry opens");
    let partials: Vec<FleetAggregate> = (0..spec.num_shards())
        .map(|s| {
            eavs_fleet::run_shard(spec, s, &eavs_bench::fleet::pooled_runner)
                .expect("probe shard runs")
                .partial
        })
        .collect();
    let id = registry
        .submit(&codec::encode_spec(spec))
        .expect("probe submit")
        .id;
    let mut claim = Vec::new();
    let mut complete = Vec::new();
    for partial in partials {
        let t = Instant::now();
        let c = registry.claim().expect("probe claim");
        claim.push(us(t.elapsed()));
        let t = Instant::now();
        registry
            .complete(&id, c.shard, partial)
            .expect("probe complete");
        complete.push(us(t.elapsed()));
    }
    drop(registry);
    let _ = std::fs::remove_dir_all(&dir);
    (report::median(&claim), report::median(&complete))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome {
        pool_workers: eavs_bench::executor::pool().workers() as u64,
        ..Outcome::default()
    };
    let dir = campaign::work_dir();
    let log: Log = Arc::default();
    campaign::pregenerate_traces(&spec(seed, 0));
    let state_dir = |n: u64| dir.join(format!("served-{}-{n}", std::process::id()));
    let setup_s = match setup(seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("served: {e}");
            out.count(false);
            return out;
        }
    };
    let mut service = match Service::start(state_dir(0), &log, traced).and_then(Service::healthy) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("served: {e}");
            out.count(false);
            return out;
        }
    };
    *lock(&log) = WorkerLog::default();

    let mut routes = Routes::default();
    let mut all = Vec::new();
    let mut served = Vec::new();
    let mut round_layers = Vec::new();
    let mut round_runner_calls = 0;
    let mut campaign_calls = 0;
    let mut round_rss = 0.0;
    let before = Counters::now();
    let started = Instant::now();
    let mut k = 0;
    while started.elapsed().as_secs_f64() < seconds || k % ROUND != 0 {
        if k % ROUND == 0 && k > 0 {
            if let Some(s) = service.take() {
                s.stop();
            }
            match Service::start(state_dir(k / ROUND), &log, traced).and_then(Service::healthy) {
                Ok(s) => service = Some(s),
                Err(e) => {
                    eprintln!("served: {e}");
                    out.count(false);
                    return out;
                }
            }
        }
        let addr = service.as_ref().expect("a daemon is up").daemon.addr();
        match serve_one(&mut out, &mut routes, &mut all, &addr, spec(seed, k)) {
            Some(s) => served.push(s),
            None => break,
        }
        // One campaign is in flight at a time, so the runner calls since
        // the previous result are this campaign's shards. Each is one
        // claim → run → upload of the worker, counted as one operation;
        // its failures are counted from the worker's log lines.
        let l = lock(&log);
        out.attempted += (l.runner.len() - campaign_calls) as u64;
        campaign_calls = l.runner.len();
        drop(l);
        k += 1;
        if k == ROUND {
            round_layers = before.layers_since();
            round_runner_calls = lock(&log).runner.len();
            round_rss = report::peak_rss_mib();
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    if let Some(s) = service.take() {
        s.stop();
    }
    if served.len() % ROUND as usize != 0 || served.is_empty() {
        return out;
    }

    // Output check, after the timed phase: each served body must equal the
    // in-process aggregate of the same spec, byte for byte.
    for s in &served {
        let expected = eavs_bench::fleet::run_campaign(&s.spec, &RunOptions::default())
            .map(|o| checkpoint::encode(&o.aggregate));
        out.count(expected.as_deref() == Ok(s.body.as_str()));
    }

    let guard = spec(report::GUARD_SEED, 0);
    let (cpu_j, miss) = match eavs_bench::fleet::run_campaign(&guard, &RunOptions::default()) {
        Ok(o) => campaign::simulated(&o.aggregate),
        Err(e) => {
            eprintln!("served: guard campaign failed: {e}");
            out.count(false);
            (0.0, 0.0)
        }
    };
    let l = lock(&log);
    // Host time, not rescaled to a reference speed: a campaign's time is
    // mostly the client's and the worker's timed waits, which the host's
    // speed does not stretch.
    let runs = |s: &Served| (s.spec.sessions * s.spec.governors.len() as u64) as f64;
    let per_campaign: Vec<f64> = served.iter().map(|s| runs(s) / s.ttr_s).collect();
    let ms_per_run: Vec<f64> = served.iter().map(|s| s.ttr_s * 1e3 / runs(s)).collect();
    let ttr: Vec<f64> = served.iter().map(|s| s.ttr_s).collect();
    out.end_to_end = vec![
        metric("setup_s", "s", setup_s),
        // `runs_per_s` and `run_ms_*` restate `time_to_result_s` per
        // session-run (every campaign has the same runs): `BENCHMARK.json`
        // wants every end-to-end metric from every workload.
        metric("runs_per_s", "1/s", report::median(&per_campaign)),
        metric("run_ms_p50", "ms", report::median(&ms_per_run)),
        metric("run_ms_p90", "ms", report::quantile(&ms_per_run, 0.9)),
        metric("time_to_result_s", "s", report::median(&ttr)),
        metric("peak_rss_mib", "MiB", round_rss),
        metric("cpu_j_per_run", "J", cpu_j),
        metric("deadline_miss_rate", "ratio", miss),
    ];
    out.extra = vec![
        metric("request_ms_p50", "ms", report::quantile(&all, 0.5)),
        metric("request_ms_p90", "ms", report::quantile(&all, 0.9)),
    ];
    if traced {
        traced_report(&mut out, &l, &routes, &all, &served, seed, &dir);
        out.layers.extend(round_layers);
        out.layers
            .push(campaign::events_per_run(&l.runner[..round_runner_calls]));
        // A body that does not decode has already failed its output check.
        if let Ok(first) = checkpoint::decode(&served[0].body) {
            out.layers
                .extend(campaign::fleet_probes(&served[0].spec, &first, &dir));
        }
    }
    out
}

/// One campaign's time to result split into its serial steps, ms: the
/// submit round trip, the wait for the first granted claim, per shard the
/// run, the partial's encoding and its upload, the claims after the first,
/// the lag until the client sees `complete`, and the result fetch.
fn split(s: &Served, p: &WorkerParts) -> [(&'static str, f64); 8] {
    let since = |later: Instant, earlier: Option<Instant>| {
        earlier.map_or(0.0, |e| ms(later.saturating_duration_since(e)))
    };
    let first = p
        .first_claim
        .map_or(0.0, |f| ms(f.saturating_duration_since(s.submit_ack)));
    [
        ("submit round trip", s.submit_ms),
        ("wait for first claim", first),
        ("run_shard on the worker", p.run_shard_ms),
        ("partial encoding", p.encode_ms),
        ("upload round trips", p.upload_ms),
        ("claim round trips after the first", p.claims_after_first_ms),
        (
            "completion lag (client poll)",
            since(s.complete_seen, p.last_upload),
        ),
        ("result round trip", s.result_ms),
    ]
}

/// The traced run's daemon layer metrics and the split of
/// `time_to_result_s`, compared with the same campaigns in-process.
fn traced_report(
    out: &mut Outcome,
    l: &WorkerLog,
    routes: &Routes,
    all: &[f64],
    served: &[Served],
    seed: u64,
    dir: &std::path::Path,
) {
    let empty = WorkerParts::default();
    let splits: Vec<[(&str, f64); 8]> = served
        .iter()
        .map(|s| split(s, l.campaigns.get(&campaign_id(&s.spec)).unwrap_or(&empty)))
        .collect();
    let column = |i: usize, n: usize| splits[..n].iter().map(|p| p[i].1).collect::<Vec<f64>>();
    let campaigns = served.len() as f64;
    let (reg_claim, reg_complete) = registry_probe(&served[0].spec, dir.join("registry-probe"));
    let median = report::median;
    out.layers.extend([
        metric(
            "fleet.runner_ms",
            "ms",
            median(&l.runner.iter().map(|c| c.ms).collect::<Vec<_>>()),
        ),
        metric("daemon.submit_ms", "ms", median(&routes.submit)),
        metric("daemon.claim_ms", "ms", median(&l.claim_ms)),
        metric("daemon.upload_ms", "ms", median(&l.upload_ms)),
        metric("daemon.poll_ms", "ms", median(&routes.poll)),
        metric("daemon.metrics_ms", "ms", median(&routes.metrics)),
        metric("daemon.result_ms", "ms", median(&routes.result)),
        metric("daemon.registry_claim_us", "us", reg_claim),
        metric("daemon.registry_complete_us", "us", reg_complete),
        metric(
            "daemon.claim_wait_ms",
            "ms",
            median(&column(1, served.len())),
        ),
        metric(
            "daemon.idle_claims",
            "1/campaign",
            l.idle_claims as f64 / campaigns,
        ),
        metric(
            "daemon.completion_lag_ms",
            "ms",
            median(&column(6, served.len())),
        ),
        metric("daemon.worker_run_shard_ms", "ms", median(&l.run_shard_ms)),
        metric("daemon.worker_encode_us", "us", median(&l.encode_us)),
        metric(
            "daemon.requests",
            "1/campaign",
            (l.requests + all.len() as u64) as f64 / campaigns,
        ),
        metric("daemon.non_2xx", "count", l.non_2xx as f64),
    ]);

    let ttr_ms: f64 = served.iter().map(|s| s.ttr_s * 1e3).sum();
    let explained_ms: f64 = splits.iter().flatten().map(|(_, v)| v).sum();
    out.wall_s = ttr_ms / 1e3;
    out.explained_s = explained_ms / 1e3;
    let shares: Vec<String> = (0..8)
        .map(|i| {
            let part: f64 = column(i, served.len()).iter().sum();
            format!("{} {:.1}%", splits[0][i].0, 100.0 * part / ttr_ms)
        })
        .collect();
    out.notes.push(format!(
        "time_to_result_s over {} campaigns: {}; unexplained {:.1}%",
        served.len(),
        shares.join(", "),
        100.0 * (1.0 - explained_ms / ttr_ms)
    ));

    // The gap against the same first campaigns run in-process in a fresh
    // process: everything but `run_shard` is control plane.
    let n = ROUND as usize;
    let served_ms = served[..n].iter().map(|s| s.ttr_s * 1e3).sum::<f64>() / n as f64;
    match inprocess(seed) {
        Ok((runs, wall, hits, misses)) => {
            let inprocess_ms = wall * 1e3 / n as f64;
            let mean = |i: usize| report::mean(&column(i, n));
            let overhead = [
                ("wait for first claim (worker idle poll)", mean(1)),
                ("claim + upload round trips", mean(4) + mean(5)),
                ("completion lag (client poll)", mean(6)),
                ("partial encoding", mean(3)),
                ("submit + result round trips", mean(0) + mean(7)),
            ];
            let largest = overhead
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            let list: Vec<String> = overhead
                .iter()
                .map(|(name, v)| format!("{name} {v:.1} ms"))
                .collect();
            out.notes.push(format!(
                "first {n} campaigns: served {:.0} runs/s ({served_ms:.1} ms per campaign, \
                 run_shard {:.1} ms of it) vs in-process {:.0} runs/s ({inprocess_ms:.1} ms) \
                 in a fresh process with cache {hits} hits / {misses} misses; gap {:.1} ms per \
                 campaign: {}; largest: {}",
                (SESSIONS * 2) as f64 / served_ms * 1e3,
                mean(2),
                runs / wall,
                served_ms - inprocess_ms,
                list.join(", "),
                largest.0
            ));
        }
        Err(e) => out.notes.push(format!("in-process comparison failed: {e}")),
    }
}
