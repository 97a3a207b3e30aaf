//! Regenerates F27 (fleet throughput vs `EAVS_JOBS`; see DESIGN.md §12).
//!
//! The sweep pool is sized once per process, so the sweep cannot
//! vary `EAVS_JOBS` in-process: the parent re-executes *itself* with
//! `--child <csv>` under each jobs setting, times each child, and
//! asserts that every child's population CSV is byte-identical — the
//! determinism-across-parallelism guarantee, measured rather than
//! assumed. Timing rows land in `results/fleet/f27_fleet_scaling.csv`.

use eavs_fleet::{CampaignSpec, RunOptions};
use eavs_metrics::table::{fmt_f, Table};
use std::time::Instant;

/// The fixed workload both parent and children agree on.
fn scaling_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.name = "f27-scaling".to_owned();
    spec.sessions = 1_000;
    spec.shard_size = 50;
    spec
}

fn child(out_csv: &str) {
    let spec = scaling_spec();
    let outcome = eavs_bench::fleet::run_campaign(&spec, &RunOptions::default())
        .expect("scaling campaign spec is valid");
    std::fs::write(out_csv, outcome.aggregate.table(&spec).to_csv()).expect("write child csv");
    // The parent parses this line; keep it first on stdout.
    println!(
        "wall_s={} session_runs={}",
        outcome.wall_s, outcome.session_runs
    );
}

fn parent() {
    let exe = std::env::current_exe().expect("current_exe");
    let tmp = std::env::temp_dir().join(format!("eavs-f27-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let spec = scaling_spec();

    let mut table = Table::new(&[
        "jobs",
        "wall (s)",
        "session-runs",
        "sessions/sec",
        "speedup",
        "csv identical",
    ]);
    table.set_title(format!(
        "F27: fleet throughput vs EAVS_JOBS — campaign '{}', {} sessions × {} governors",
        spec.name,
        spec.sessions,
        spec.governors.len()
    ));

    let mut reference: Option<String> = None;
    let mut base_rate: Option<f64> = None;
    for jobs in [1u32, 2, 4, 8] {
        let csv_path = tmp.join(format!("jobs{jobs}.csv"));
        let started = Instant::now();
        let output = std::process::Command::new(&exe)
            .arg("--child")
            .arg(&csv_path)
            .env("EAVS_JOBS", jobs.to_string())
            .output()
            .expect("spawn child");
        let wall = started.elapsed().as_secs_f64();
        assert!(
            output.status.success(),
            "child (EAVS_JOBS={jobs}) failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        let session_runs: u64 = stdout
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("session_runs=")?.parse().ok())
            .expect("child reports session_runs");

        let csv = std::fs::read_to_string(&csv_path).expect("read child csv");
        let identical = match &reference {
            None => {
                reference = Some(csv);
                true
            }
            Some(r) => *r == csv,
        };
        assert!(
            identical,
            "EAVS_JOBS={jobs} produced a different population CSV — parallelism leaked into results"
        );

        let rate = session_runs as f64 / wall;
        let speedup = rate / *base_rate.get_or_insert(rate);
        table.row(&[
            &jobs.to_string(),
            &fmt_f(wall, 2),
            &session_runs.to_string(),
            &fmt_f(rate, 0),
            &fmt_f(speedup, 2),
            "yes",
        ]);
    }
    std::fs::remove_dir_all(&tmp).ok();

    println!("{}", table.render());
    let dir = eavs_bench::harness::results_dir().join("fleet");
    eavs_bench::harness::emit_into(&dir, "f27_fleet_scaling", &table);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--child") => child(args.get(2).expect("--child needs an output path")),
        _ => parent(),
    }
}
