//! Regression net over the whole experiment suite: every registered
//! experiment regenerates, produces rows, and round-trips through CSV.

use eavs_bench::all_experiments;

#[test]
fn every_experiment_produces_rows() {
    for (id, f) in all_experiments() {
        let table = f();
        assert!(table.num_rows() > 0, "{id}: empty table");
        let csv = table.to_csv();
        assert!(
            csv.lines().count() == table.num_rows() + 1,
            "{id}: csv mismatch"
        );
        let rendered = table.render();
        assert!(rendered.contains("=="), "{id}: missing title");
    }
}

#[test]
fn experiment_ids_are_unique_and_well_formed() {
    let mut ids: Vec<&str> = all_experiments().into_iter().map(|(id, _)| id).collect();
    assert!(ids.iter().all(|id| id
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')));
    let before = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), before, "duplicate experiment ids");
    assert_eq!(before, 32, "experiment count drifted; update docs");
}

#[test]
fn experiments_are_deterministic() {
    // Representative fast experiments rerun bit-identically.
    for id in ["f5_energy_by_governor", "f13_ablations", "t4_soc_matrix"] {
        let f = all_experiments()
            .into_iter()
            .find(|(i, _)| *i == id)
            .map(|(_, f)| f)
            .expect("registered");
        assert_eq!(f().to_csv(), f().to_csv(), "{id} not deterministic");
    }
}

#[test]
fn pool_execution_matches_serial() {
    // The shared pool must not change results: a sweep of sessions
    // run through `run_parallel_labeled` is byte-identical (Debug repr of
    // the full report) to the same sessions run serially, in the same order.
    use eavs_bench::harness::{governor, manifest_1080p30, run_parallel_labeled, SEED};
    use eavs_core::session::StreamingSession;
    use std::sync::Arc;

    let names = ["ondemand", "interactive", "schedutil", "eavs"];
    let manifest = Arc::new(manifest_1080p30(15));

    let run_one = |name: &str, seed: u64, manifest: Arc<_>| {
        StreamingSession::builder(governor(name))
            .manifest(manifest)
            .seed(seed)
            .run()
    };

    let serial: Vec<String> = names
        .iter()
        .flat_map(|&name| {
            let manifest = Arc::clone(&manifest);
            (0..3u64).map(move |k| format!("{:?}", run_one(name, SEED + k, Arc::clone(&manifest))))
        })
        .collect();

    let pooled: Vec<String> = run_parallel_labeled(
        names
            .iter()
            .flat_map(|&name| {
                let manifest = Arc::clone(&manifest);
                (0..3u64).map(move |k| {
                    let manifest = Arc::clone(&manifest);
                    let job = move || format!("{:?}", run_one(name, SEED + k, manifest));
                    (format!("determinism {name} seed {k}"), job)
                })
            })
            .collect(),
    );

    assert_eq!(serial, pooled, "pool execution changed session results");
}
