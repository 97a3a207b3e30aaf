//! Offline drop-in subset of the [criterion](https://crates.io/crates/criterion)
//! benchmarking API.
//!
//! This workspace builds hermetically with no registry access, so the upstream
//! crate cannot be fetched. The shim keeps the same bench-source syntax
//! (`criterion_group!` / `criterion_main!`, `Criterion::bench_function`,
//! `black_box`) and implements a simple but honest measurement loop: a
//! warm-up to size the batch, then fixed-iteration timed batches, reporting
//! the mean and the best batch.
//!
//! Not implemented (not used in this repo): benchmark groups, throughput
//! units, statistical regression analysis, HTML reports, parameterised
//! benches, async benching.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock per measured batch.
const BATCH_TARGET: Duration = Duration::from_millis(80);
/// Warm-up budget per benchmark.
const WARMUP_TARGET: Duration = Duration::from_millis(60);

/// Drives individual timing loops inside a benchmark body.
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine`, calling it `self.iters` times back-to-back.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Top-level benchmark driver (shim for `criterion::Criterion`).
#[derive(Debug)]
pub struct Criterion {
    sample_count: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_count: 10 }
    }
}

impl Criterion {
    /// Run a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_bench(name, self.sample_count, f);
        self
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(name: &str, samples: usize, mut f: F) {
    // Warm-up: find an iteration count whose batch lands near BATCH_TARGET.
    let mut iters: u64 = 1;
    let warmup_start = Instant::now();
    let mut per_iter = Duration::from_nanos(1);
    loop {
        let mut b = Bencher {
            iters,
            ..Bencher::default()
        };
        f(&mut b);
        per_iter = b.elapsed.checked_div(iters as u32).unwrap_or(per_iter);
        if warmup_start.elapsed() >= WARMUP_TARGET || b.elapsed >= BATCH_TARGET {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    let per_iter_ns = per_iter.as_nanos().max(1);
    let batch_iters = (BATCH_TARGET.as_nanos() / per_iter_ns).clamp(1, u64::MAX as u128) as u64;

    // Measurement: `samples` batches of `batch_iters` iterations.
    let mut mean_ns = 0.0f64;
    let mut best_ns = f64::INFINITY;
    for _ in 0..samples {
        let mut b = Bencher {
            iters: batch_iters,
            ..Bencher::default()
        };
        f(&mut b);
        let ns = b.elapsed.as_nanos() as f64 / batch_iters as f64;
        mean_ns += ns / samples as f64;
        best_ns = best_ns.min(ns);
    }

    println!(
        "{name:<44} time: [{} mean, {} best] ({batch_iters} iters x {samples})",
        fmt_ns(mean_ns),
        fmt_ns(best_ns),
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Bundle bench functions into a named group runner (shim for upstream macro).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the listed groups (shim for upstream macro).
///
/// Ignores harness CLI arguments (`--bench`, filters) passed by `cargo bench`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
