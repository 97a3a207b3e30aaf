//! Exact-count audit: every per-layer metric with unit `count` must repeat
//! exactly between two traced runs of the same workload and seed. A
//! counter that drifts is a sample and must carry another unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! from the repository root (debug builds work too, only slower).

use std::collections::BTreeMap;
use std::process::Command;

use eavs_daemon::json::{parse, Value};

/// Runs one small traced benchmark and returns its `count` metrics.
fn counts(workload: &str) -> BTreeMap<String, String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    assert_eq!(
        last.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: outputs failed their checks"
    );
    last.get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .filter(|(_, m)| m.get("unit").and_then(Value::as_str) == Some("count"))
        .map(|(name, m)| (name.clone(), m.get("value").expect("value").render()))
        .collect()
}

#[test]
fn counts_repeat_exactly() {
    for workload in ["session", "campaign", "served"] {
        let first = counts(workload);
        let second = counts(workload);
        assert!(!first.is_empty(), "{workload}: no count metrics");
        assert_eq!(first, second, "{workload}: a count drifted between runs");
    }
}
