//! `session`: headline streams run serially on one thread through the step
//! kernel, `SessionState::with_scratch` → `step()`* → `finish_into`,
//! exactly what `SessionBuilder::run` does. No session cache, pool, fleet
//! or daemon: the event engine, the EAVS decision and cluster accounting
//! are what run.
//!
//! The loop cycles a pool of [`POOL`] streams whose seeds come from
//! `--seed`, and set-up runs each of them once, so every timed run finds
//! its segments in the process-wide segment memo (`eavs_trace::memo`,
//! filled from inside `step()`): this workload measures the memo-hit step
//! loop. Fresh seeds per run would put segment generation into the loop,
//! but the memo keeps every segment for the life of the process and has no
//! public way to drop them, so a 30 s run (about 24,000 streams of 1,800
//! frames) would grow the process by well over a gigabyte. Segment
//! generation is measured on `campaign`, whose children start cold.

use std::sync::Arc;
use std::time::Instant;

use eavs_core::report::SessionReport;
use eavs_core::session::{SessionBuilder, SessionScratch, SessionState, StreamingSession};
use eavs_net::bandwidth::BandwidthTrace;
use eavs_net::radio::RadioModel;
use eavs_power::DevicePowerModel;
use eavs_sim::time::SimDuration;
use eavs_trace::content::ContentProfile;
use eavs_trace::net_gen::NetworkProfile;
use eavs_video::manifest::Manifest;

use crate::report::{self, metric, mix, Digest, Outcome, SpeedClock};

/// Distinct streams in the pool the loop cycles through; a multiple of
/// three so content rotates evenly.
const POOL: usize = 30;
/// Set-ups per run; the reported `setup_s` is their median.
const SETUPS: u64 = 9;
/// Stream length, seconds of 1080p30 at 6 Mbps.
const STREAM_S: u64 = 60;
/// Every this many pool passes of the traced loop run with the
/// `PhaseProfile` attached, for the phase shares.
const PROFILE_EVERY: usize = 4;

const CONTENTS: [ContentProfile; 3] = [
    ContentProfile::Film,
    ContentProfile::Animation,
    ContentProfile::Sport,
];

/// One pre-generated input stream and the reference result of its run.
struct Stream {
    seed: u64,
    content: ContentProfile,
    trace: Arc<BandwidthTrace>,
    digest: u64,
    cpu_j: f64,
    miss_rate: f64,
}

/// The F28 probe session (EAVS hybrid, default config and SoC, LTE drive
/// trace, LTE radio, phone power model) for one stream.
fn builder(manifest: &Arc<Manifest>, s: &Stream) -> SessionBuilder {
    StreamingSession::builder(eavs_bench::harness::eavs_default())
        .manifest(Arc::clone(manifest))
        .content(s.content)
        .network(Arc::clone(&s.trace))
        .radio(RadioModel::lte())
        .power(DevicePowerModel::phone())
        .seed(s.seed)
}

/// Per-run output digest: events, CPU-joule bits and deadline misses.
fn digest(r: &SessionReport) -> u64 {
    Digest::new()
        .u64(r.events_processed)
        .u64(r.cpu_joules().to_bits())
        .u64(r.qoe.late_vsyncs + r.qoe.frames_dropped)
        .finish()
}

/// Generates the stream pool for set-up round `round` and runs each stream
/// once through `SessionBuilder::run`, which records the reference result
/// the timed loop is checked against and fills the program's segment memo.
fn set_up(manifest: &Arc<Manifest>, seed: u64, round: u64) -> Vec<Stream> {
    (0..POOL)
        .map(|i| {
            let stream_seed = mix(seed, round * POOL as u64 + i as u64) | 1;
            let mut s = Stream {
                seed: stream_seed,
                content: CONTENTS[i % CONTENTS.len()],
                trace: Arc::new(
                    NetworkProfile::LteDrive
                        .generate(SimDuration::from_secs(STREAM_S) * 3, stream_seed),
                ),
                digest: 0,
                cpu_j: 0.0,
                miss_rate: 0.0,
            };
            let r = builder(manifest, &s).run();
            s.digest = digest(&r);
            s.cpu_j = r.cpu_joules();
            s.miss_rate = r.qoe.deadline_miss_rate();
            s
        })
        .collect()
}

/// Phase timings of one traced run, microseconds.
#[derive(Default)]
struct Traced {
    build: Vec<f64>,
    step: Vec<f64>,
    finish: Vec<f64>,
    ns_per_event: Vec<f64>,
    total: f64,
    explained: f64,
    /// Over the first pool pass, which is the same work in every run.
    first_pass_events: u64,
    first_pass_allocs: u64,
    first_pass_decisions: u64,
    /// Summed `PhaseProfile` wall time per phase: governor, decode,
    /// display, download, all.
    phase_ns: [u64; 5],
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let manifest = Arc::new(eavs_bench::harness::manifest_1080p30(STREAM_S));
    // Every timing is host time rescaled to the reference speed by the
    // calibration slices on either side of it (`report::SpeedClock`): one
    // after each set-up and after each pool pass of about 35 ms.
    let mut clock = SpeedClock::start();
    let mut setups = Vec::new();
    let mut pool = Vec::new();
    for round in 0..SETUPS {
        pool = set_up(&manifest, seed, round);
        setups.push(clock.lap_s());
    }

    let mut out = Outcome::default();
    // Each stream's run times, ms, in the order taken.
    let mut run_ms = vec![Vec::new(); POOL];
    let mut pass_rates = Vec::new();
    let mut tr = Traced::default();
    // One pass's per-stream host times, seconds (build, step, finish),
    // and engine events.
    let mut parts = Vec::with_capacity(POOL);
    let started = Instant::now();
    clock.lap();
    let mut pass = 0usize;
    while started.elapsed().as_secs_f64() < seconds {
        let profiled = traced && pass % PROFILE_EVERY == PROFILE_EVERY - 1;
        parts.clear();
        for s in &pool {
            let t0 = Instant::now();
            let b = builder(&manifest, s).profile(profiled);
            let allocs0 = crate::allocs();
            let mut scratch = SessionScratch::default();
            let mut state = SessionState::with_scratch(b, &mut scratch);
            let t1 = Instant::now();
            while state.step() {}
            let decisions = state.hot().decisions;
            let t2 = Instant::now();
            let r = state.finish_into(&mut scratch);
            let t3 = Instant::now();
            let allocs = crate::allocs() - allocs0;
            drop(scratch);
            out.count(digest(&r) == s.digest);
            let secs = |d: std::time::Duration| d.as_secs_f64();
            parts.push((
                [secs(t1 - t0), secs(t2 - t1), secs(t3 - t2)],
                r.events_processed,
            ));
            if profiled {
                if let Some(p) = &r.profile {
                    for (acc, phase) in tr.phase_ns.iter_mut().zip([
                        &p.governor,
                        &p.decode,
                        &p.display,
                        &p.download,
                    ]) {
                        *acc += phase.wall_ns;
                    }
                    tr.phase_ns[4] += p.total_wall_ns();
                }
            } else if traced && pass == 0 {
                tr.first_pass_events += r.events_processed;
                tr.first_pass_allocs += allocs;
                tr.first_pass_decisions += decisions;
            }
        }
        let (pass_s, factor) = clock.lap();
        pass += 1;
        if profiled {
            continue;
        }
        pass_rates.push(POOL as f64 / (pass_s * factor));
        for (i, (times, events)) in parts.iter().enumerate() {
            let [build, step, finish] = times.map(|s| s * factor);
            run_ms[i].push((build + step + finish) * 1e3);
            if traced {
                tr.build.push(build * 1e6);
                tr.step.push(step * 1e6);
                tr.finish.push(finish * 1e6);
                tr.ns_per_event.push(step * 1e9 / (*events).max(1) as f64);
                tr.explained += (build + step + finish) * 1e6;
            }
        }
        if traced {
            tr.total += pass_s * factor * 1e6;
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();

    let rss = report::peak_rss_mib();
    let guard = set_up(&manifest, report::GUARD_SEED, 0);
    let cpu_j: Vec<f64> = guard.iter().map(|s| s.cpu_j).collect();
    let miss: Vec<f64> = guard.iter().map(|s| s.miss_rate).collect();
    // Each stream's time is the median of its runs; the latency quantiles
    // are taken over the streams.
    let per_stream: Vec<f64> = run_ms.iter().map(|runs| report::median(runs)).collect();
    let p50 = report::median(&per_stream);
    out.end_to_end = vec![
        metric("setup_s", "s", report::median(&setups)),
        metric("runs_per_s", "1/s", report::median(&pass_rates)),
        metric("run_ms_p50", "ms", p50),
        metric("run_ms_p90", "ms", report::quantile(&per_stream, 0.9)),
        // An alias: `BENCHMARK.json` wants every end-to-end metric from
        // every workload, and one session's result takes one run.
        metric("time_to_result_s", "s", p50 / 1e3),
        metric("peak_rss_mib", "MiB", rss),
        metric("cpu_j_per_run", "J", report::mean(&cpu_j)),
        metric("deadline_miss_rate", "ratio", report::mean(&miss)),
    ];
    if traced {
        layer_table(&mut out, &tr);
    }
    out
}

fn layer_table(out: &mut Outcome, tr: &Traced) {
    let step_us = report::median(&tr.step);
    let share = |i: usize| tr.phase_ns[i] as f64 / tr.phase_ns[4].max(1) as f64;
    let first = POOL as f64;
    out.layers = vec![
        metric(
            "sim.events_per_run",
            "count",
            tr.first_pass_events as f64 / first,
        ),
        metric("sim.ns_per_event", "ns", report::median(&tr.ns_per_event)),
        metric("core.build_us", "us", report::median(&tr.build)),
        metric("core.step_us", "us", step_us),
        metric("core.finish_us", "us", report::median(&tr.finish)),
        metric(
            "core.allocs_per_run",
            "count",
            tr.first_pass_allocs as f64 / first,
        ),
        metric("core.governor_us", "us", share(0) * step_us),
        metric("core.decode_us", "us", share(1) * step_us),
        metric("core.display_us", "us", share(2) * step_us),
        metric("core.download_us", "us", share(3) * step_us),
        metric(
            "core.decisions_per_run",
            "count",
            tr.first_pass_decisions as f64 / first,
        ),
    ];
    out.explained_s = tr.explained / 1e6;
    out.wall_s = tr.total / 1e6;
    out.notes.push(format!(
        "phase shares of core.step_us (PhaseProfile on every {PROFILE_EVERY}th pool pass, \
         excluded from the step timings): governor {:.1}%, decode {:.1}%, display {:.1}%, \
         download {:.1}%, other {:.1}%",
        share(0) * 100.0,
        share(1) * 100.0,
        share(2) * 100.0,
        share(3) * 100.0,
        (1.0 - share(0) - share(1) - share(2) - share(3)) * 100.0,
    ));
}
