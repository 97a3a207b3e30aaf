//! Regenerates the tables and figures of the evaluation (DESIGN.md §4),
//! printing each and writing CSVs under `results/`.
//!
//! Usage: `run_all [--twice] [ID...]`. With no ids every registered
//! experiment runs; with ids only those do, still in presentation order
//! (see [`eavs_bench::select_experiments`]). An unknown id exits 2, lists
//! the valid ids and runs nothing.
//!
//! Experiments are submitted to the shared work-stealing pool as top-level
//! jobs; each experiment's internal sweep fans out through the same pool, so
//! the whole suite interleaves without per-figure barriers. Results are
//! printed and written in presentation order regardless of completion order.
//!
//! `run_all --twice` regenerates the selection a second time in the same
//! process — the first pass fills the content-addressed session cache, the
//! second is served from it. The warm pass writes its CSVs under
//! `<results>/warm/` so CI can byte-compare cold against warm output, and
//! both wall times plus the speedup are printed for the record.

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
        let warm_dir = eavs_bench::harness::results_dir().join("warm");
        let started = std::time::Instant::now();
        for (id, table) in regenerate(&experiments) {
            eavs_bench::harness::emit_into(&warm_dir, id, &table);
        }
        let warm_s = started.elapsed().as_secs_f64();
        let stats = eavs_bench::cache::stats();
        eprintln!(
            "warm pass in {warm_s:.1} s ({:.1}x; session cache {} hits / {} misses / {} uncacheable)",
            cold_s / warm_s.max(1e-9),
            stats.hits,
            stats.misses,
            stats.uncacheable,
        );
    }
}
