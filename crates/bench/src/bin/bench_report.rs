//! Machine-readable performance report for the simulator.
//!
//! Measures the headline numbers and writes them as `BENCH_sim.json`
//! under the results directory (also printed to stdout):
//!
//! * `events_per_sec`   — raw engine throughput on a 100k self-rescheduling
//!   event chain (same kernel as the `event_chain_100k` criterion bench).
//! * `sessions_per_sec` — full 1080p30 streaming sessions simulated per
//!   wall-clock second, fanned out through the shared work-stealing pool.
//!   Sessions here use distinct seeds and bypass the session cache so the
//!   number reflects simulation, not memoization. On a one-core host the
//!   pool number is scheduler-sensitive; `serial_sessions_per_sec` is the
//!   same workload run serially on one thread — the stable single-thread
//!   baseline.
//! * `allocations_per_session` — heap allocations per simulated session,
//!   counted by the binary's global allocator during the same run.
//! * `run_all_wall_s` / `run_all_warm_wall_s` — wall-clock seconds to
//!   regenerate the experiment suite cold (empty session cache) and again
//!   warm (every session memoized). A fixed subset runs in `--smoke` mode
//!   so CI stays under ~10 s.
//! * `session_cache` / `segment_cache` / `trace_cache` — hit/miss counters
//!   of the content-addressed caches after both passes.
//! * `fleet` — campaign throughput through the pooled, cached shard
//!   runner: session-runs/sec, the campaign's own cache hit rate, and the
//!   peak per-shard resident footprint (the O(shards) memory bound).
//! * `daemon` — the same fresh-seed campaign served end-to-end through a
//!   resident `eavsd` (HTTP submit, poll, result) vs run in-process, in
//!   session-runs/sec — the control-plane overhead of the fleet service.
//! * `prior` — fleet-prior training cost and benefit: wall-clock to
//!   train the 48-session clip-campaign prior, its catalog footprint,
//!   and the early-window MAPE cold vs warmed on the headline stream
//!   (the F30 claim as trendable numbers).
//! * `power` — whole-device energy counters of one phone-model LTE
//!   session (the F28 probe workload): per-component joules, RRC
//!   promotions, and the wall-clock cost of the powered run. Accounting
//!   is post-hoc, so this also keeps an eye on its overhead.
//!
//! `--smoke` writes `BENCH_sim.smoke.json` instead, so a quick CI pass
//! never clobbers the full-mode report.
//!
//! `--profile` additionally runs one profiled session and embeds its
//! per-phase (download/decode/display/governor) simulated-time and
//! wall-time breakdown as a `"profile"` object.
//!
//! `--budget-s N` enforces a wall-clock budget *after* the report is
//! written: if the whole run took longer than N seconds the process
//! exits 1. CI uses this instead of wrapping the command in `timeout`,
//! which could kill the process mid-write and leave a truncated report.
//!
//! Usage: `bench_report [--smoke] [--profile] [--budget-s N]`.
//! `EAVS_JOBS` sizes the pool as usual.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use eavs_bench::harness::{self, governor, manifest_1080p30, SEED};
use eavs_core::session::StreamingSession;
use eavs_sim::prelude::*;

/// System allocator wrapper that counts allocation calls, so the report
/// can state allocations-per-session for the hot path.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct PingPong {
    remaining: u64,
}

impl World for PingPong {
    type Event = ();
    fn handle(&mut self, sched: &mut Scheduler<()>, _: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_in(SimDuration::from_micros(10), ());
        }
    }
}

/// Events per second through the full Simulation/Scheduler kernel.
fn measure_events_per_sec(chain_len: u64, repeats: u32) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..repeats {
        let started = Instant::now();
        let mut sim = Simulation::new(PingPong {
            remaining: chain_len,
        });
        sim.scheduler().schedule_at(SimTime::ZERO, ());
        sim.run();
        std::hint::black_box(sim.now());
        best = best.min(started.elapsed().as_secs_f64());
    }
    // +1 for the kick-off event.
    (chain_len + 1) as f64 / best
}

/// Complete streaming sessions per second, run through the shared pool.
/// Deliberately uncached (distinct seeds, direct `.run()`) so it measures
/// simulation throughput; also returns allocations per session.
fn measure_sessions_per_sec(sessions: usize, secs_each: u64) -> (f64, f64) {
    let manifest = std::sync::Arc::new(manifest_1080p30(secs_each));
    // Pre-generate the shared segments so the allocation count reflects
    // the session hot path, not one-time trace generation.
    {
        let warmup = StreamingSession::builder(governor("eavs"))
            .manifest(std::sync::Arc::clone(&manifest))
            .seed(SEED)
            .run();
        std::hint::black_box(warmup.events_processed);
    }
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let started = Instant::now();
    let reports = harness::run_parallel_labeled(
        (0..sessions)
            .map(|i| {
                let manifest = std::sync::Arc::clone(&manifest);
                let job = move || {
                    StreamingSession::builder(governor("eavs"))
                        .manifest(manifest)
                        .seed(SEED + i as u64)
                        .run()
                };
                (format!("bench session {i}"), job)
            })
            .collect(),
    );
    let elapsed = started.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    assert_eq!(reports.len(), sessions);
    (sessions as f64 / elapsed, allocs as f64 / sessions as f64)
}

/// Wall-clock to regenerate experiments (all of them, or a smoke subset).
fn measure_run_all(smoke: bool) -> (f64, usize) {
    // f12 runs real sessions, so even the smoke report exercises (and
    // reports on) the session cache across the cold/warm passes.
    const SMOKE_IDS: &[&str] = &[
        "t1_opp_table",
        "f1_power_curve",
        "f3_workload_variability",
        "f12_residency",
    ];
    let jobs: Vec<_> = eavs_bench::all_experiments()
        .into_iter()
        .filter(|(id, _)| !smoke || SMOKE_IDS.contains(id))
        .map(|(id, f)| {
            let job = move || {
                let table = f();
                std::hint::black_box(table.to_csv().len())
            };
            (format!("bench_report {id}"), job)
        })
        .collect();
    let count = jobs.len();
    let started = Instant::now();
    harness::run_parallel_labeled(jobs);
    (started.elapsed().as_secs_f64(), count)
}

/// Fleet campaign stats through the pooled, cached runner: the smoke
/// campaign as-is in `--smoke` mode, scaled to 1 000 sessions in full
/// mode. Returns (session-runs/sec, campaign cache hit rate, outcome).
fn measure_fleet(smoke: bool) -> (f64, f64, eavs_fleet::CampaignOutcome) {
    let mut spec = eavs_fleet::CampaignSpec::smoke();
    // The resilient EAVS lane rides along, as in the `perfbench`
    // campaign workload.
    spec.governors.push("eavs-panic".to_owned());
    if !smoke {
        spec.name = "bench-report-fleet".to_owned();
        spec.sessions = 1_000;
        spec.shard_size = 50;
    }
    let before = eavs_bench::cache::stats();
    let outcome = eavs_bench::fleet::run_campaign(&spec, &eavs_fleet::RunOptions::default())
        .expect("fleet bench spec is valid");
    let after = eavs_bench::cache::stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    (
        outcome.session_runs as f64 / outcome.wall_s.max(1e-9),
        hit_rate,
        outcome,
    )
}

/// Control-plane overhead of the resident daemon: one fresh-seed
/// campaign served end-to-end over `eavsd`'s HTTP API (submit, poll,
/// result fetch) and a second, differently-seeded one run in-process —
/// session-runs/sec each. The seeds are distinct from each other and
/// from every other measurement in this report, so neither number is
/// inflated by session-cache hits the other one (or `measure_fleet`)
/// paid for. Returns (http runs/sec, in-process runs/sec, runs).
fn measure_daemon(smoke: bool) -> (f64, f64, u64) {
    let sessions = if smoke { 100 } else { 1_000 };
    let spec_with = |name: &str, seed: u64| {
        let mut spec = eavs_fleet::CampaignSpec::smoke();
        spec.name = name.to_owned();
        spec.seed = seed;
        spec.sessions = sessions;
        spec
    };

    let state = std::env::temp_dir().join(format!("eavsd-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let daemon = eavs_daemon::Daemon::start(
        eavs_daemon::DaemonOptions::new(state.clone()),
        std::sync::Arc::new(eavs_bench::fleet::pooled_runner),
    )
    .expect("daemon start");
    let addr = daemon.addr();
    let spec = spec_with("bench-daemon-http", 0xDAE0);
    let id = eavs_daemon::registry::campaign_id(&spec);
    let body = eavs_daemon::codec::encode_spec(&spec);
    let started = Instant::now();
    let (status, resp) =
        eavs_daemon::http::client::request_text(&addr, "POST", "/campaigns", &body)
            .expect("daemon submit");
    assert_eq!(status, 200, "daemon submit: {resp}");
    loop {
        let (_, progress) =
            eavs_daemon::http::client::request_text(&addr, "GET", &format!("/campaigns/{id}"), "")
                .expect("daemon poll");
        if progress.contains("\"phase\":\"complete\"") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let (status, _) = eavs_daemon::http::client::request_text(
        &addr,
        "GET",
        &format!("/campaigns/{id}/result"),
        "",
    )
    .expect("daemon result");
    assert_eq!(status, 200);
    let http_wall_s = started.elapsed().as_secs_f64();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);

    let spec = spec_with("bench-daemon-direct", 0xDAE1);
    let started = Instant::now();
    let outcome = eavs_bench::fleet::run_campaign(&spec, &eavs_fleet::RunOptions::default())
        .expect("daemon bench spec is valid");
    let direct_wall_s = started.elapsed().as_secs_f64();
    let runs = outcome.session_runs;
    (
        runs as f64 / http_wall_s.max(1e-9),
        runs as f64 / direct_wall_s.max(1e-9),
        runs,
    )
}

/// Single-threaded reference: the same sessions and seeds as
/// [`measure_sessions_per_sec`], run serially on the calling thread.
/// The pool-based number depends on how the OS interleaves the worker
/// thread with the helping caller (on a one-core box the split is
/// scheduler luck and the number swings 2-3x run to run), so this serial
/// figure is the stable single-thread baseline.
fn measure_scalar_reference(sessions: usize, secs_each: u64) -> f64 {
    let manifest = std::sync::Arc::new(manifest_1080p30(secs_each));
    let started = Instant::now();
    for i in 0..sessions {
        let report = StreamingSession::builder(governor("eavs"))
            .manifest(std::sync::Arc::clone(&manifest))
            .seed(SEED + i as u64)
            .run();
        std::hint::black_box(report.events_processed);
    }
    sessions as f64 / started.elapsed().as_secs_f64()
}

/// Fleet-prior block: wall-clock to train the 48-session clip-campaign
/// prior, the store's catalog footprint, and the early-window accuracy
/// gain it buys on the headline film stream (the F30 claim, as numbers
/// the CI trend can watch). Returns
/// (train wall s, catalog entries, trained frames, cold early MAPE,
/// warm early MAPE).
fn measure_prior() -> (f64, usize, u64, f64, f64) {
    use eavs_bench::prior as fp;
    let started = Instant::now();
    let store = fp::trained_store(SEED);
    let train_wall_s = started.elapsed().as_secs_f64();
    let film = eavs_trace::content::ContentProfile::Film;
    let cold = fp::replay(Default::default(), film);
    let warm = fp::replay(store.session_prior(fp::HEADLINE_KEY, film.name()), film);
    (
        train_wall_s,
        store.len(),
        store.total_frames(),
        cold.early_mape,
        warm.early_mape,
    )
}

/// One powered LTE session (the F28 probe workload, EAVS governor,
/// phone model) for the report's `power` counter block. Runs the
/// builder directly — no cache — so the wall time includes the post-hoc
/// device-power accounting it is meant to watch.
fn measure_power() -> (eavs_core::SessionReport, f64) {
    let started = Instant::now();
    let report = eavs_bench::device_power::powered_lte_session().run();
    (report, started.elapsed().as_secs_f64())
}

/// One profiled 1080p30 session; returns the phase-breakdown JSON.
fn measure_profile(secs: u64) -> String {
    let report = StreamingSession::builder(governor("eavs"))
        .manifest(manifest_1080p30(secs))
        .seed(SEED)
        .profile(true)
        .run();
    report
        .profile
        .expect("profiled run must carry a breakdown")
        .to_json()
}

fn main() {
    let started = Instant::now();
    let mut smoke = false;
    let mut profile = false;
    let mut budget_s: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--profile" => profile = true,
            "--budget-s" => {
                let raw = args.next().unwrap_or_default();
                match raw.parse::<f64>() {
                    Ok(n) if n > 0.0 => budget_s = Some(n),
                    _ => {
                        eprintln!("error: --budget-s needs a positive number, got {raw:?}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "error: unknown argument {other:?}\n\
                     usage: bench_report [--smoke] [--profile] [--budget-s N]"
                );
                std::process::exit(2);
            }
        }
    }
    let workers = eavs_bench::executor::pool().workers();

    let (chain, chain_reps, sessions, session_secs) = if smoke {
        (100_000u64, 2u32, workers.max(2), 10u64)
    } else {
        (100_000u64, 5u32, (workers * 4).max(8), 60u64)
    };

    eprintln!("bench_report: {workers} worker(s), smoke={smoke}");

    let events_per_sec = measure_events_per_sec(chain, chain_reps);
    eprintln!("  events/sec      {events_per_sec:.0}");

    let (sessions_per_sec, allocations_per_session) =
        measure_sessions_per_sec(sessions, session_secs);
    eprintln!("  sessions/sec    {sessions_per_sec:.2} ({sessions} x {session_secs} s sessions)");
    eprintln!("  allocs/session  {allocations_per_session:.0}");

    let serial_sessions_per_sec = measure_scalar_reference(sessions, session_secs);
    eprintln!("  serial/sec      {serial_sessions_per_sec:.2} (single thread)");

    let (run_all_wall_s, experiments) = measure_run_all(smoke);
    eprintln!("  run_all cold    {run_all_wall_s:.2} s ({experiments} experiments)");

    // Second pass over the same suite: every cacheable session is now
    // memoized, so this measures the warm-cache speedup.
    let (run_all_warm_wall_s, _) = measure_run_all(smoke);
    let warm_speedup = run_all_wall_s / run_all_warm_wall_s.max(1e-9);
    eprintln!("  run_all warm    {run_all_warm_wall_s:.2} s ({warm_speedup:.1}x)");

    let (fleet_sessions_per_sec, fleet_cache_hit_rate, fleet_outcome) = measure_fleet(smoke);
    let fleet_session_runs = fleet_outcome.session_runs;
    let fleet_peak_shard_bytes = fleet_outcome.peak_shard_bytes;
    eprintln!(
        "  fleet           {fleet_sessions_per_sec:.0} session-runs/sec \
         ({fleet_session_runs} runs, {:.0}% cache hits, peak shard {:.1} KiB)",
        fleet_cache_hit_rate * 100.0,
        fleet_peak_shard_bytes as f64 / 1024.0,
    );

    let (daemon_http_per_sec, daemon_direct_per_sec, daemon_session_runs) = measure_daemon(smoke);
    eprintln!(
        "  daemon          {daemon_http_per_sec:.0} session-runs/sec over HTTP vs \
         {daemon_direct_per_sec:.0} in-process ({daemon_session_runs} runs each)"
    );

    let (
        prior_train_wall_s,
        prior_catalog_entries,
        prior_trained_frames,
        prior_cold_early_mape,
        prior_warm_early_mape,
    ) = measure_prior();
    eprintln!(
        "  prior           trained {prior_trained_frames} frames over \
         {prior_catalog_entries} (title, content) entries in {prior_train_wall_s:.2} s; \
         early MAPE {:.1}% cold -> {:.1}% warm",
        prior_cold_early_mape * 100.0,
        prior_warm_early_mape * 100.0,
    );

    let (power_report, power_wall_s) = measure_power();
    let power = power_report.power;
    let power_device_j = power_report.cpu_joules() + power.total_j();
    eprintln!(
        "  power           radio {:.1} J ({} promos), display {:.1} J, decoder {:.1} J, \
         device {power_device_j:.1} J ({power_wall_s:.2} s wall)",
        power.radio_j, power.radio_promotions, power.display_j, power.decoder_j,
    );

    let session = eavs_bench::cache::stats();
    let segment = eavs_trace::memo::segment_cache_stats();
    let trace = eavs_trace::memo::trace_cache_stats();
    eprintln!(
        "  session cache   {} hits / {} misses / {} uncacheable / {} evicted \
         ({:.0}% hit, {:.1} MiB)",
        session.hits,
        session.misses,
        session.uncacheable,
        session.evictions,
        session.hit_rate() * 100.0,
        session.bytes as f64 / (1024.0 * 1024.0),
    );
    eprintln!(
        "  segment cache   {} hits / {} misses; trace cache {} hits / {} misses",
        segment.hits, segment.misses, trace.hits, trace.misses,
    );

    // Optional per-phase breakdown: one profiled session, reported as a
    // "profile" object (wall times are host-dependent by design).
    let profile_field = if profile {
        let breakdown = measure_profile(session_secs);
        eprintln!("  profile         {breakdown}");
        format!("  \"profile\": {breakdown},\n")
    } else {
        String::new()
    };

    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = format!(
        concat!(
            "{{\n",
            "  \"events_per_sec\": {events_per_sec:.0},\n",
            "  \"sessions_per_sec\": {sessions_per_sec:.3},\n",
            "  \"serial_sessions_per_sec\": {serial_sessions_per_sec:.3},\n",
            "  \"allocations_per_session\": {allocations_per_session:.0},\n",
            "  \"run_all_wall_s\": {run_all_wall_s:.3},\n",
            "  \"run_all_warm_wall_s\": {run_all_warm_wall_s:.3},\n",
            "  \"warm_speedup\": {warm_speedup:.2},\n",
            "  \"session_cache\": {{\n",
            "    \"hits\": {session_hits},\n",
            "    \"misses\": {session_misses},\n",
            "    \"uncacheable\": {session_uncacheable},\n",
            "    \"bytes\": {session_bytes},\n",
            "    \"evictions\": {session_evictions},\n",
            "    \"hit_rate\": {session_hit_rate:.4}\n",
            "  }},\n",
            "  \"segment_cache\": {{ \"hits\": {segment_hits}, \"misses\": {segment_misses} }},\n",
            "  \"trace_cache\": {{ \"hits\": {trace_hits}, \"misses\": {trace_misses} }},\n",
            "  \"power\": {{\n",
            "    \"radio_j\": {power_radio_j:.3},\n",
            "    \"radio_promotions\": {power_promotions},\n",
            "    \"display_j\": {power_display_j:.3},\n",
            "    \"decoder_j\": {power_decoder_j:.3},\n",
            "    \"device_j\": {power_device_j:.3},\n",
            "    \"session_wall_s\": {power_wall_s:.3}\n",
            "  }},\n",
            "  \"fleet\": {{\n",
            "    \"session_runs\": {fleet_session_runs},\n",
            "    \"sessions_per_sec\": {fleet_sessions_per_sec:.1},\n",
            "    \"cache_hit_rate\": {fleet_cache_hit_rate:.4},\n",
            "    \"peak_shard_bytes\": {fleet_peak_shard_bytes}\n",
            "  }},\n",
            "  \"daemon\": {{\n",
            "    \"session_runs\": {daemon_session_runs},\n",
            "    \"http_sessions_per_sec\": {daemon_http_per_sec:.1},\n",
            "    \"direct_sessions_per_sec\": {daemon_direct_per_sec:.1}\n",
            "  }},\n",
            "  \"prior\": {{\n",
            "    \"train_wall_s\": {prior_train_wall_s:.3},\n",
            "    \"catalog_entries\": {prior_catalog_entries},\n",
            "    \"trained_frames\": {prior_trained_frames},\n",
            "    \"cold_early_mape\": {prior_cold_early_mape:.4},\n",
            "    \"warm_early_mape\": {prior_warm_early_mape:.4}\n",
            "  }},\n",
            "{profile_field}",
            "  \"experiments\": {experiments},\n",
            "  \"workers\": {workers},\n",
            "  \"smoke\": {smoke},\n",
            "  \"unix_time\": {unix_time}\n",
            "}}\n",
        ),
        events_per_sec = events_per_sec,
        sessions_per_sec = sessions_per_sec,
        serial_sessions_per_sec = serial_sessions_per_sec,
        allocations_per_session = allocations_per_session,
        run_all_wall_s = run_all_wall_s,
        run_all_warm_wall_s = run_all_warm_wall_s,
        warm_speedup = warm_speedup,
        session_hits = session.hits,
        session_misses = session.misses,
        session_uncacheable = session.uncacheable,
        session_bytes = session.bytes,
        session_evictions = session.evictions,
        session_hit_rate = session.hit_rate(),
        segment_hits = segment.hits,
        segment_misses = segment.misses,
        trace_hits = trace.hits,
        trace_misses = trace.misses,
        power_radio_j = power.radio_j,
        power_promotions = power.radio_promotions,
        power_display_j = power.display_j,
        power_decoder_j = power.decoder_j,
        power_device_j = power_device_j,
        power_wall_s = power_wall_s,
        fleet_session_runs = fleet_session_runs,
        fleet_sessions_per_sec = fleet_sessions_per_sec,
        fleet_cache_hit_rate = fleet_cache_hit_rate,
        fleet_peak_shard_bytes = fleet_peak_shard_bytes,
        daemon_session_runs = daemon_session_runs,
        daemon_http_per_sec = daemon_http_per_sec,
        daemon_direct_per_sec = daemon_direct_per_sec,
        prior_train_wall_s = prior_train_wall_s,
        prior_catalog_entries = prior_catalog_entries,
        prior_trained_frames = prior_trained_frames,
        prior_cold_early_mape = prior_cold_early_mape,
        prior_warm_early_mape = prior_warm_early_mape,
        profile_field = profile_field,
        experiments = experiments,
        workers = workers,
        smoke = smoke,
        unix_time = unix_time,
    );
    println!("{json}");

    let dir = harness::results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    // Smoke runs get their own file so CI never clobbers the full report.
    let name = if smoke {
        "BENCH_sim.smoke.json"
    } else {
        "BENCH_sim.json"
    };
    let path = dir.join(name);
    std::fs::write(&path, &json).expect("write bench report");
    eprintln!("wrote {}", path.display());

    // Budget enforcement comes last so a slow run still leaves a
    // complete report behind for diagnosis.
    if let Some(budget) = budget_s {
        let took = started.elapsed().as_secs_f64();
        if took > budget {
            eprintln!("error: bench_report took {took:.2} s, over the --budget-s {budget} budget");
            std::process::exit(1);
        }
        eprintln!("within budget: {took:.2} s <= {budget} s");
    }
}
