//! Repeatable benchmark of the EAVS simulator, fleet runner and daemon.
//!
//! ```text
//! perfbench --workload session|campaign|served --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload untraced for `S` seconds and prints every
//! end-to-end metric. `--trace 1` runs it twice in fresh processes, `S/2`
//! seconds untraced and `S/2` seconds with the layer calls timed from
//! outside, and prints the per-layer table, the tracing overhead and the
//! share of wall time the layers leave unexplained. The last line of
//! standard output is always one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md`.

mod campaign;
mod report;
mod served;
mod session;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use report::{metric, Metric, Outcome};

/// System allocator that counts allocation calls, for
/// `core.allocs_per_run`. One relaxed atomic add per allocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is delegated unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter only observes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["session", "campaign", "served"];

/// The end-to-end metrics every workload reports, with units, in
/// `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("time_to_result_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cpu_j_per_run", "J"),
    ("deadline_miss_rate", "ratio"),
];

/// The per-layer metrics of the traced run, with units, in
/// `BENCHMARK.json` order. A workload that never calls a layer reports its
/// metrics as 0. Unit `count` marks counts that repeat exactly.
const PER_LAYER: [(&str, &str); 45] = [
    ("sim.events_per_run", "count"),
    ("sim.ns_per_event", "ns"),
    ("core.build_us", "us"),
    ("core.step_us", "us"),
    ("core.finish_us", "us"),
    ("core.allocs_per_run", "count"),
    ("core.governor_us", "us"),
    ("core.decode_us", "us"),
    ("core.display_us", "us"),
    ("core.download_us", "us"),
    ("core.decisions_per_run", "count"),
    ("cache.fingerprint_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.replayed_runs", "runs"),
    ("cache.injected_decisions", "decisions"),
    ("cache.batched_runs", "count"),
    ("cache.resident_mib", "MiB"),
    ("trace.segment_misses", "misses"),
    ("trace.trace_misses", "count"),
    ("fleet.runner_ms", "ms"),
    ("fleet.shard_overhead_ms", "ms"),
    ("fleet.merge_us", "us"),
    ("fleet.ckpt_encode_us", "us"),
    ("fleet.ckpt_decode_us", "us"),
    ("fleet.ckpt_save_ms", "ms"),
    ("fleet.ckpt_bytes", "count"),
    ("fleet.peak_shard_kib", "KiB"),
    ("daemon.submit_ms", "ms"),
    ("daemon.claim_ms", "ms"),
    ("daemon.upload_ms", "ms"),
    ("daemon.poll_ms", "ms"),
    ("daemon.metrics_ms", "ms"),
    ("daemon.result_ms", "ms"),
    ("daemon.registry_claim_us", "us"),
    ("daemon.registry_complete_us", "us"),
    ("daemon.claim_wait_ms", "ms"),
    ("daemon.idle_claims", "1/campaign"),
    ("daemon.completion_lag_ms", "ms"),
    ("daemon.worker_run_shard_ms", "ms"),
    ("daemon.worker_encode_us", "us"),
    ("daemon.requests", "1/campaign"),
    ("daemon.non_2xx", "count"),
    ("residual_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one phase and print its outcome (`untraced`/`traced`).
    phase: Option<String>,
    /// Internal: run one campaign as a child process.
    child: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        phase: None,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an unsigned integer"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds needs a positive number"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--phase" => args.phase = Some(value()),
            "--child" => args.child = Some(value()),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if args.child.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        usage("--workload must name a workload");
    }
    args
}

/// Runs one phase of a workload in this process.
fn run_phase(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match workload {
        "session" => session::run(seed, seconds, traced),
        "campaign" => campaign::run(seed, seconds, traced),
        "served" => served::run(seed, seconds, traced),
        other => usage(&format!("unknown workload {other:?}")),
    }
}

/// One CPU to pin a process to: the last CPU this process may run on,
/// when `taskset` is available to pin with.
pub fn one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = allowed.trim().rsplit([',', '-']).next()?.parse().ok()?;
    let taskset = Command::new("taskset")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    taskset.is_ok_and(|s| s.success()).then_some(cpu)
}

/// A command running `exe`, pinned to `cpu` through `taskset` if given.
pub fn command_on(cpu: Option<usize>, exe: std::path::PathBuf) -> Command {
    match cpu {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.args(["-c", &cpu.to_string()]).arg(exe);
            cmd
        }
        None => Command::new(exe),
    }
}

/// The CPU a workload's phase process is pinned to, if any. `session`
/// and `campaign` are pinned, so that their work and the calibration
/// slices timed beside it (`report::SpeedClock`) share one vCPU, whose
/// speed the slices then track; the campaign children inherit the
/// pinning, and the program's pool sizes itself to the one CPU. `served`
/// is not pinned: its client, worker and daemon threads talk to each
/// other, and its time to result is mostly timed waits.
fn pinned_cpu(workload: &str) -> Option<usize> {
    if workload == "served" {
        None
    } else {
        one_cpu()
    }
}

/// Runs one phase in a fresh child process, so that every phase starts
/// from a cold process. The child's standard error is passed on, and each
/// line the daemon's remote worker logs (a failed claim or upload, which
/// it otherwise only retries) counts as a failed operation.
fn spawn_phase(args: &Args, cpu: Option<usize>, seconds: f64, traced: bool) -> Outcome {
    let spawned = std::env::current_exe()
        .and_then(|exe| {
            command_on(cpu, exe)
                .args(["--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .args(["--phase", if traced { "traced" } else { "untraced" }])
                .stdin(Stdio::null())
                .stderr(Stdio::piped())
                .output()
        })
        .map_err(|e| format!("spawn phase: {e}"));
    let parsed = spawned.and_then(|out| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        eprint!("{stderr}");
        if !out.status.success() {
            return Err(format!("phase exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut o = Outcome::from_json(stdout.lines().last().ok_or("phase printed nothing")?)?;
        o.failed += stderr
            .lines()
            .filter(|l| l.starts_with(served::WORKER_LOG_PREFIX))
            .count() as u64;
        Ok(o)
    });
    parsed.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The contract line: exactly `names`, taken from `from` (absent ones 0).
fn final_line(o: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<Metric> = names
        .iter()
        .map(|(name, unit)| metric(name, unit, o.get(name).unwrap_or(0.0)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        if o.attempted == 0 { 1 } else { o.failed },
        report::metrics_json(&metrics)
    )
}

fn main() {
    let args = parse_args();
    if let Some(kind) = &args.child {
        match kind.as_str() {
            "campaign" => campaign::child(args.seed, args.trace),
            "served-inprocess" => served::inprocess_child(args.seed),
            "served-setup" => served::setup_child(args.seed),
            other => usage(&format!("unknown child {other:?}")),
        }
        return;
    }
    if let Some(phase) = &args.phase {
        let o = run_phase(&args.workload, args.seed, args.seconds, phase == "traced");
        println!("{}", o.to_json());
        return;
    }

    let cpu = pinned_cpu(&args.workload);
    let mut o = if args.trace {
        let half = args.seconds / 2.0;
        let u = spawn_phase(&args, cpu, half, false);
        let t = spawn_phase(&args, cpu, half, true);
        print_metrics(
            &format!("{} untraced ({half} s)", args.workload),
            &u.end_to_end,
        );
        let overhead: Vec<Metric> = u
            .end_to_end
            .iter()
            .map(|m| metric(&m.name, &m.unit, t.get(&m.name).unwrap_or(0.0) - m.value))
            .collect();
        print_metrics("tracing overhead (traced minus untraced)", &overhead);
        let residual = 100.0 * (1.0 - t.explained_s / t.wall_s.max(1e-12));
        let mut layers = t.layers.clone();
        layers.push(metric("residual_pct", "%", residual));
        print_metrics(
            &format!("{} per-layer (traced, {half} s)", args.workload),
            &layers,
        );
        println!(
            "  layer times explain {:.3} s of {:.3} s traced wall time; residual {residual:.1}%",
            t.explained_s, t.wall_s
        );
        for note in &t.notes {
            println!("  note: {note}");
        }
        Outcome {
            attempted: u.attempted + t.attempted,
            failed: u.failed + t.failed,
            layers,
            pool_workers: t.pool_workers,
            ..Outcome::default()
        }
    } else {
        let o = spawn_phase(&args, cpu, args.seconds, false);
        print_metrics(&format!("{} end-to-end", args.workload), &o.end_to_end);
        print_metrics("workload-specific", &o.extra);
        for note in &o.notes {
            println!("  note: {note}");
        }
        o
    };
    o.extra.push(metric("error_rate", "ratio", o.error_rate()));
    println!(
        "  error_rate {:.6} ({} failed of {} attempted)",
        o.error_rate(),
        o.failed,
        o.attempted
    );
    println!(
        "record: {{\"provenance\": {}, \"outcome\": {}}}",
        report::provenance(
            &args.workload,
            args.seed,
            args.seconds as u64,
            args.trace,
            o.pool_workers,
            cpu
        ),
        o.to_json()
    );
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", final_line(&o, names));
}
