//! Integration tests for fleet campaigns: single-session equivalence
//! with the direct session path, and kill/resume byte-identity.

use eavs_fleet::campaign::{builder_for, draw_session};
use eavs_fleet::{CampaignSpec, CampaignStatus, FleetAggregate, RunOptions};

/// A 1-session fleet must reproduce exactly what running that session
/// directly produces: the campaign machinery (draws, shard loop, pool,
/// cache) adds nothing and loses nothing.
#[test]
fn one_session_fleet_reproduces_run_session() {
    let mut spec = CampaignSpec::smoke();
    spec.name = "one-session".to_owned();
    spec.sessions = 1;
    spec.shard_size = 1;

    let outcome = eavs_bench::fleet::run_campaign(&spec, &RunOptions::default()).unwrap();
    assert_eq!(outcome.status, CampaignStatus::Complete);
    assert_eq!(outcome.aggregate.sessions_done, 1);

    // Rebuild the same session by hand and fold its report directly.
    let draw = draw_session(&spec, 0);
    let mut direct = FleetAggregate::new(&spec);
    direct.observe_arrival(draw.arrival_s);
    for (gov_index, gov) in spec.governors.iter().enumerate() {
        let report = builder_for(&draw, gov).unwrap().run();
        direct.observe(gov_index, &report);
        if gov_index == 0 {
            // Mirror `run_shard`: the workload prior is fed from lane 0
            // only (decode cycles are governor-independent).
            direct.observe_prior(&draw.title.key(), draw.content.name(), &report.frame_cycles);
        }
        // Spot-check the raw scalars against the report, not just
        // aggregate-vs-aggregate: one session, so sums ARE the report.
        let lane = &outcome.aggregate.govs[gov_index];
        assert_eq!(lane.sessions, 1);
        assert_eq!(lane.cpu_j_min.to_bits(), report.cpu_joules().to_bits());
        assert_eq!(lane.cpu_j_max.to_bits(), report.cpu_joules().to_bits());
        assert_eq!(lane.total_frames, report.qoe.total_frames);
        assert_eq!(lane.transitions, report.transitions);
    }
    direct.shards_done = outcome.aggregate.shards_done;
    assert_eq!(outcome.aggregate, direct);
}

/// The production pooled, cached runner must be invisible in the
/// results: a campaign with an `eavs`/`eavs-panic` pair and repeated
/// draws folds to the byte-identical aggregate the uncached serial
/// reference runner produces.
#[test]
fn smoke_campaign_matches_the_serial_runner() {
    let mut spec = CampaignSpec::smoke();
    spec.name = "pooled-vs-serial-smoke".to_owned();
    spec.sessions = 12;
    spec.shard_size = 4;
    spec.governors.push("eavs-panic".to_owned());

    let pooled = eavs_bench::fleet::run_campaign(&spec, &RunOptions::default()).unwrap();
    let serial = eavs_fleet::run_campaign(
        &spec,
        &RunOptions::default(),
        &eavs_fleet::campaign::serial_runner,
    )
    .unwrap();
    assert_eq!(pooled.status, CampaignStatus::Complete);
    assert_eq!(pooled.session_runs, serial.session_runs);
    assert_eq!(
        pooled.aggregate.table(&spec).to_csv(),
        serial.aggregate.table(&spec).to_csv()
    );
    assert_eq!(
        eavs_fleet::checkpoint::encode(&pooled.aggregate),
        eavs_fleet::checkpoint::encode(&serial.aggregate)
    );
}

/// Killing a campaign mid-flight and resuming from its checkpoint must
/// yield the byte-identical population CSV of an uninterrupted run.
#[test]
fn kill_and_resume_is_byte_identical() {
    let mut spec = CampaignSpec::smoke();
    spec.name = "kill-resume".to_owned();
    spec.sessions = 20;
    spec.shard_size = 5; // 4 shards

    // Run powered, so the device-power counters cross the checkpoint
    // with real values and must round-trip bit-exactly.
    spec.power = eavs::power::DevicePowerModel::phone();

    // Uninterrupted reference run.
    let cold = eavs_bench::fleet::run_campaign(&spec, &RunOptions::default()).unwrap();
    assert_eq!(cold.status, CampaignStatus::Complete);
    for lane in &cold.aggregate.govs {
        assert!(lane.radio_j_sum.value() > 0.0);
        assert!(lane.device_display_j_sum.value() > 0.0);
        assert!(lane.device_decoder_j_sum.value() > 0.0);
        assert!(lane.radio_promotions > 0);
    }
    let reference_csv = cold.aggregate.table(&spec).to_csv();

    let dir = std::env::temp_dir().join(format!("eavs-fleet-resume-{}", std::process::id()));
    let ckpt = dir.join("kill-resume.ckpt");

    // "Kill" deterministically after 2 of 4 shards.
    let halted = eavs_bench::fleet::run_campaign(
        &spec,
        &RunOptions {
            checkpoint: Some(ckpt.clone()),
            checkpoint_every: 1,
            halt_after_shards: Some(2),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(halted.status, CampaignStatus::Halted);
    assert_eq!(halted.aggregate.shards_done, 2);

    // Resume: only the remaining shards run.
    let resumed = eavs_bench::fleet::run_campaign(
        &spec,
        &RunOptions {
            checkpoint: Some(ckpt.clone()),
            checkpoint_every: 1,
            halt_after_shards: None,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.status, CampaignStatus::Complete);
    assert!(
        resumed.session_runs < cold.session_runs,
        "resume must not re-run completed shards"
    );
    assert_eq!(resumed.aggregate.table(&spec).to_csv(), reference_csv);
    // Full aggregate equality, not just the rendered table: every
    // counter — including the device-power sums — survived the
    // checkpoint bit-exactly.
    assert_eq!(resumed.aggregate, cold.aggregate);

    // A different spec must refuse the checkpoint instead of merging junk.
    let mut changed = spec.clone();
    changed.seed += 1;
    let err = eavs_bench::fleet::run_campaign(
        &changed,
        &RunOptions {
            checkpoint: Some(ckpt),
            checkpoint_every: 1,
            halt_after_shards: None,
            ..RunOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("different campaign"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}
