//! Governor dispatch cost: dyn trait object vs devirtualized enum vs
//! the vectorized LUT column, at widths 1, 8 and 64.
//!
//! All three paths step the same [`DispatchLanes`] workload (every
//! baseline governor, deterministic load stream), so the comparison
//! isolates dispatch and frequency-selection strategy. `bench_report`
//! folds the same measurement into `BENCH_sim.json` as
//! `governor_dispatch`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use eavs_bench::dispatch::{DispatchLanes, WIDTHS};

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("governor_dispatch");
    for width in WIDTHS {
        group.throughput(Throughput::Elements(width as u64));
        let mut lanes = DispatchLanes::new(width);
        group.bench_function(&format!("dyn/w{width}"), |b| {
            b.iter(|| black_box(lanes.step_dyn()))
        });
        let mut lanes = DispatchLanes::new(width);
        group.bench_function(&format!("enum/w{width}"), |b| {
            b.iter(|| black_box(lanes.step_enum()))
        });
        let mut lanes = DispatchLanes::new(width);
        group.bench_function(&format!("lut/w{width}"), |b| {
            b.iter(|| black_box(lanes.step_lut()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
