//! Regenerates the tables and figures of the evaluation (DESIGN.md §4),
//! printing each and writing CSVs under `results/`.
//!
//! Usage: `run_all [--twice] [ID...]`. With no ids every registered
//! experiment runs; with ids only those do, still in presentation order
//! (see [`eavs_bench::select_experiments`]). An unknown id exits 2, lists
//! the valid ids and runs nothing.
//!
//! Experiments are submitted to the shared pool as one batch of top-level
//! jobs; each experiment's session batch fans out through the same pool, so
//! the whole suite interleaves without per-figure barriers. Results are
//! printed and written in presentation order regardless of completion order.
//!
//! `run_all --twice` regenerates the selection a second time in the same
//! process — the first pass fills the content-addressed session cache, the
//! second is served from it. The warm pass writes its CSVs under
//! `<results>/warm/` so CI can byte-compare cold against warm output, and
//! both wall times plus the speedup are printed for the record, each pass
//! with its own session-cache counts. The cold pass's lines (`cold pass
//! session cache: H hits / M misses / U uncacheable / E evictions`, then
//! `cold pass segment memo: H hits, M misses, E evictions` and the same
//! for the trace memo) come before the warm pass starts; CI compares the
//! session-cache miss count across `EAVS_JOBS` settings and requires
//! zero memo evictions, so the memo caps hold the whole suite.

use eavs_bench::cache::SessionCacheStats;
use eavs_bench::Experiment;

const USAGE: &str = "usage: run_all [--twice] [ID...]";

fn regenerate(experiments: &[Experiment]) -> Vec<(&'static str, eavs_metrics::table::Table)> {
    let jobs = experiments
        .iter()
        .map(|&(id, f)| {
            let job = move || {
                let table = f();
                eprintln!("== {id} done ==");
                (id, table)
            };
            (id.to_string(), job)
        })
        .collect();
    eavs_bench::harness::run_parallel_labeled(jobs)
}

/// The cache counters of one pass: `now` minus the counts at its start.
fn cache_counts(now: SessionCacheStats, start: SessionCacheStats) -> String {
    format!(
        "{} hits / {} misses / {} uncacheable / {} evictions",
        now.hits - start.hits,
        now.misses - start.misses,
        now.uncacheable - start.uncacheable,
        now.evictions - start.evictions,
    )
}

fn main() {
    let mut twice = false;
    let mut ids = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--twice" => twice = true,
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown argument {flag:?}\n{USAGE}");
                std::process::exit(2);
            }
            _ => ids.push(arg),
        }
    }
    let experiments = match eavs_bench::select_experiments(&ids) {
        Ok(experiments) => experiments,
        Err(unknown) => {
            eprintln!("error: unknown experiment {unknown:?}\n{USAGE}\nvalid ids:");
            for (id, _) in eavs_bench::all_experiments() {
                eprintln!("  {id}");
            }
            std::process::exit(2);
        }
    };

    let started = std::time::Instant::now();
    for (id, table) in regenerate(&experiments) {
        eavs_bench::harness::emit(id, &table);
    }
    let cold_s = started.elapsed().as_secs_f64();
    eprintln!(
        "{} experiment(s) regenerated in {cold_s:.1} s",
        experiments.len()
    );

    if twice {
        let cold = eavs_bench::cache::stats();
        eprintln!(
            "cold pass session cache: {}",
            cache_counts(cold, SessionCacheStats::default())
        );
        for (name, memo) in [
            ("segment", eavs_trace::memo::segment_cache_stats()),
            ("trace", eavs_trace::memo::trace_cache_stats()),
        ] {
            eprintln!(
                "cold pass {name} memo: {} hits, {} misses, {} evictions ({} resident bytes)",
                memo.hits, memo.misses, memo.evictions, memo.resident_bytes
            );
        }
        let warm_dir = eavs_bench::harness::results_dir().join("warm");
        let started = std::time::Instant::now();
        for (id, table) in regenerate(&experiments) {
            eavs_bench::harness::emit_into(&warm_dir, id, &table);
        }
        let warm_s = started.elapsed().as_secs_f64();
        eprintln!(
            "warm pass in {warm_s:.1} s ({:.1}x; session cache {})",
            cold_s / warm_s.max(1e-9),
            cache_counts(eavs_bench::cache::stats(), cold),
        );
    }
}
