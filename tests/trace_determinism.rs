//! Trace determinism: a seeded session's event timeline is a pure
//! function of the builder. The same builder traced twice — directly,
//! through the shared pool, or under any `EAVS_JOBS` — must dump
//! byte-identical JSONL. CI enforces the cross-process version of this
//! (same `eavsctl trace` under `EAVS_JOBS=1` vs `8`, `cmp`); these
//! tests pin the in-process contract the gate relies on.

use eavs::faults::FaultPlan;
use eavs::obs::{shared, RingSink};
use eavs::scaling::governor::{EavsConfig, EavsGovernor};
use eavs::scaling::predictor::predictor_by_name;
use eavs::scaling::session::{GovernorChoice, SessionBuilder, StreamingSession};
use eavs::sim::time::SimDuration;
use eavs::tracegen::content::ContentProfile;
use eavs::video::manifest::Manifest;
use eavs_governors::by_name;
use proptest::prelude::*;

fn governor(name: &str) -> GovernorChoice {
    if name == "eavs" {
        GovernorChoice::Eavs(EavsGovernor::new(
            predictor_by_name("hybrid").unwrap(),
            EavsConfig::default(),
        ))
    } else {
        GovernorChoice::Baseline(by_name(name).unwrap())
    }
}

fn base(gov: &str, seed: u64) -> SessionBuilder {
    StreamingSession::builder(governor(gov))
        .manifest(Manifest::single(
            3_000,
            1280,
            720,
            SimDuration::from_secs(8),
            30,
        ))
        .content(ContentProfile::Film)
        .seed(seed)
}

/// Runs `builder` with a fresh ring sink and returns the JSONL dump.
fn jsonl_of(builder: SessionBuilder) -> String {
    let ring = shared(RingSink::new(1 << 17));
    let sink: eavs::obs::SharedSink = ring.clone();
    builder.trace(sink).run();
    let ring = ring.lock().expect("trace sink poisoned");
    assert_eq!(ring.dropped(), 0, "ring must be large enough for the test");
    ring.to_jsonl()
}

#[test]
fn same_builder_dumps_identical_jsonl() {
    let a = jsonl_of(base("eavs", 7));
    let b = jsonl_of(base("eavs", 7));
    assert_eq!(a, b);
    assert!(!a.is_empty());
    // Different seeds must diverge (the dump actually depends on input).
    let c = jsonl_of(base("eavs", 8));
    assert_ne!(a, c);
}

#[test]
fn pooled_and_direct_traces_are_identical() {
    // The direct dump on this thread...
    let direct = jsonl_of(base("eavs", 13));
    // ...must match dumps produced inside the shared pool,
    // whatever worker (or helping caller) runs the job.
    let pooled = eavs_bench::executor::run_parallel(
        (0..4)
            .map(|_| || jsonl_of(base("eavs", 13)))
            .collect::<Vec<_>>(),
    );
    for dump in pooled {
        assert_eq!(direct, dump);
    }
}

#[test]
fn chrome_dump_is_deterministic_too() {
    let mk = || {
        let ring = shared(RingSink::new(1 << 17));
        let sink: eavs::obs::SharedSink = ring.clone();
        base("eavs", 19).trace(sink).run();
        let ring = ring.lock().expect("trace sink poisoned");
        ring.to_chrome_trace("trace-determinism")
    };
    assert_eq!(mk(), mk());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Byte-identical JSONL holds for any governor/fault/seed draw —
    /// fault-heavy timelines (retries, spikes, stalls) included.
    #[test]
    fn jsonl_is_deterministic_for_any_draw(
        gov_pick in 0u8..3,
        faulty in any::<bool>(),
        seed in 1u64..300,
    ) {
        let gov = ["ondemand", "schedutil", "eavs"][gov_pick as usize];
        let mk = || {
            let b = base(gov, seed);
            if faulty {
                b.faults(FaultPlan::standard_storm())
            } else {
                b
            }
        };
        prop_assert_eq!(jsonl_of(mk()), jsonl_of(mk()));
    }
}
