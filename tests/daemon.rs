//! Integration tests for the `eavsd` fleet-campaign daemon: a campaign
//! served over the HTTP control plane must produce bytes identical to a
//! direct in-process `run_campaign` — at any worker count, across a
//! daemon kill/restart, and after a cancel/resubmit — and malformed
//! input must map to structured HTTP errors, never a crash or a silent
//! wrong answer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eavs::daemon::http::client;
use eavs::daemon::worker::{run_worker, SharedRunner};
use eavs::daemon::{codec, json, registry, Daemon, DaemonOptions};
use eavs_fleet::campaign::RunOptions;
use eavs_fleet::spec::NetworkChoice;
use eavs_fleet::{checkpoint, CampaignSpec};

fn pooled() -> SharedRunner {
    Arc::new(eavs_bench::fleet::pooled_runner)
}

/// The message [`panicking_on`]'s runner panics with.
const INJECTED_PANIC: &str = "injected session panic";

/// The pooled runner, except that it panics on any batch holding a
/// session of campaign `name`: a stand-in for a session that cannot run,
/// which `validate` keeps out of every accepted spec.
fn panicking_on(name: &str) -> SharedRunner {
    let prefix = format!("fleet {name} ");
    Arc::new(move |jobs| {
        if jobs.iter().any(|(label, _)| label.starts_with(&prefix)) {
            panic!("{INJECTED_PANIC}");
        }
        eavs_bench::fleet::pooled_runner(jobs)
    })
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("eavsd-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but real campaign: 3 shards, 2 governor lanes.
fn small_spec(name: &str) -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.name = name.to_owned();
    spec.sessions = 12;
    spec.shard_size = 4;
    spec
}

fn daemon_opts(tag: &str) -> DaemonOptions {
    let mut opts = DaemonOptions::new(temp_dir(tag));
    opts.checkpoint_every = 1;
    opts
}

/// The reference bytes: a direct, single-process run of the same spec,
/// encoded exactly as `GET /campaigns/{id}/result` serves them.
fn reference_bytes(spec: &CampaignSpec) -> String {
    let outcome = eavs_fleet::run_campaign(
        spec,
        &RunOptions::default(),
        &eavs_bench::fleet::pooled_runner,
    )
    .unwrap();
    checkpoint::encode(&outcome.aggregate)
}

/// Polls progress until the campaign leaves `running`; returns the
/// final phase name.
fn wait_terminal(addr: &str, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = client::request_text(addr, "GET", &format!("/campaigns/{id}"), "")
            .expect("progress poll");
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        let phase = v
            .get("phase")
            .and_then(json::Value::as_str)
            .unwrap()
            .to_owned();
        if phase != "running" {
            return phase;
        }
        assert!(Instant::now() < deadline, "campaign {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn http_campaign_matches_direct_run_bytes() {
    let spec = small_spec("daemon-direct");
    let expected = reference_bytes(&spec);

    let daemon = Daemon::start(daemon_opts("direct"), pooled()).unwrap();
    let addr = daemon.addr();

    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let id = v
        .get("id")
        .and_then(json::Value::as_str)
        .unwrap()
        .to_owned();
    assert_eq!(id, registry::campaign_id(&spec));
    assert_eq!(v.get("resumed").and_then(json::Value::as_bool), Some(false));

    assert_eq!(wait_terminal(&addr, &id), "complete");
    let (status, served) =
        client::request_text(&addr, "GET", &format!("/campaigns/{id}/result"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        served, expected,
        "HTTP result must be byte-identical to a direct run"
    );

    // The progress body reports real throughput and full lane snapshots.
    let (_, progress) =
        client::request_text(&addr, "GET", &format!("/campaigns/{id}"), "").unwrap();
    let v = json::parse(&progress).unwrap();
    assert_eq!(v.get("shards_done").and_then(json::Value::as_u64), Some(3));
    assert_eq!(
        v.get("sessions_done").and_then(json::Value::as_u64),
        Some(12)
    );
    let govs = v.get("govs").and_then(json::Value::as_arr).unwrap();
    assert_eq!(govs.len(), spec.governors.len());
    assert!(
        govs[0]
            .get("mean_cpu_j")
            .and_then(json::Value::as_f64)
            .unwrap()
            > 0.0
    );

    // /metrics serves the fleet families with the 0.0.4 content type,
    // scrape-conformant.
    let (status, content_type, page) = client::request_full(&addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(content_type, eavs_obs::TEXT_FORMAT);
    let page = String::from_utf8(page).unwrap();
    eavs_obs::check_conformance(&page).unwrap();
    assert!(
        page.contains(&format!("campaign=\"{}\"", spec.name)),
        "{page}"
    );

    let (status, body) = client::request_text(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // The completed campaign taught the daemon its workload prior:
    // GET /priors serves exactly the prior a direct run would train.
    let direct = eavs_fleet::run_campaign(
        &spec,
        &RunOptions::default(),
        &eavs_bench::fleet::pooled_runner,
    )
    .unwrap();
    let (status, served_prior) = client::request_text(&addr, "GET", "/priors", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        served_prior,
        eavs_fleet::prior::encode(&direct.aggregate.prior),
        "served prior must match the direct run's training bytes"
    );

    // POST /priors merges a document in and reports the new totals.
    let (status, body) = client::request_text(&addr, "POST", "/priors", &served_prior).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(
        v.get("frames").and_then(json::Value::as_u64),
        Some(2 * direct.aggregate.prior.total_frames()),
        "{body}"
    );
    let (status, body) = client::request_text(&addr, "POST", "/priors", "garbage").unwrap();
    assert_eq!(status, 400, "{body}");
    daemon.shutdown();
}

#[test]
fn two_http_workers_and_a_daemon_restart_stay_byte_identical() {
    let spec = small_spec("daemon-scaleout");
    let expected = reference_bytes(&spec);
    let state = temp_dir("scaleout");

    // Phase 1: coordinator with NO local workers; two remote workers
    // drive every shard over HTTP. Kill the coordinator mid-campaign.
    let first_id;
    {
        let mut opts = DaemonOptions::new(state.clone());
        opts.checkpoint_every = 1;
        opts.workers = 0;
        let daemon = Daemon::start(opts, pooled()).unwrap();
        let addr = daemon.addr();

        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || run_worker(&addr, &pooled(), &stop))
            })
            .collect();

        let (status, body) =
            client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
        assert_eq!(status, 200, "{body}");
        first_id = json::parse(&body)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_str)
            .unwrap()
            .to_owned();

        // Wait for at least one checkpointed shard, then tear the
        // coordinator down mid-campaign (workers and all).
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (_, body) =
                client::request_text(&addr, "GET", &format!("/campaigns/{first_id}"), "").unwrap();
            let v = json::parse(&body).unwrap();
            let done = v.get("shards_done").and_then(json::Value::as_u64).unwrap();
            let phase = v
                .get("phase")
                .and_then(json::Value::as_str)
                .unwrap()
                .to_owned();
            if done >= 1 || phase != "running" {
                break;
            }
            assert!(Instant::now() < deadline, "no shard ever completed");
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
        for w in workers {
            w.join().unwrap();
        }
        daemon.shutdown();
    }

    // Phase 2: a fresh daemon on the same state dir recovers the
    // campaign from its checkpoint; resubmitting the same spec is
    // idempotent and rides the resume. Local workers finish it.
    {
        let mut opts = DaemonOptions::new(state.clone());
        opts.checkpoint_every = 1;
        opts.workers = 2;
        let daemon = Daemon::start(opts, pooled()).unwrap();
        let addr = daemon.addr();

        let (status, body) =
            client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        assert_eq!(
            v.get("id").and_then(json::Value::as_str),
            Some(first_id.as_str()),
            "same spec, same id"
        );
        assert_eq!(v.get("resumed").and_then(json::Value::as_bool), Some(true));

        assert_eq!(wait_terminal(&addr, &first_id), "complete");
        let (status, served) =
            client::request_text(&addr, "GET", &format!("/campaigns/{first_id}/result"), "")
                .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            served, expected,
            "2 workers + kill/restart must not change a single byte"
        );
        daemon.shutdown();
    }
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn cancel_then_resubmit_resumes_to_identical_bytes() {
    let spec = small_spec("daemon-cancel");
    let expected = reference_bytes(&spec);

    // No local workers: the campaign sits claimable, so the cancel is
    // deterministic — nothing has run yet when it lands.
    let state = temp_dir("cancel");
    let mut opts = DaemonOptions::new(state.clone());
    opts.checkpoint_every = 1;
    opts.workers = 0;
    let daemon = Daemon::start(opts, pooled()).unwrap();
    let addr = daemon.addr();

    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
    assert_eq!(status, 200, "{body}");
    let id = json::parse(&body)
        .unwrap()
        .get("id")
        .and_then(json::Value::as_str)
        .unwrap()
        .to_owned();

    let (status, body) =
        client::request_text(&addr, "DELETE", &format!("/campaigns/{id}"), "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"phase\":\"cancelled\""), "{body}");

    // A cancelled campaign refuses its result with a structured 409…
    let (status, body) =
        client::request_text(&addr, "GET", &format!("/campaigns/{id}/result"), "").unwrap();
    assert_eq!(status, 409);
    assert!(body.contains("\"error\""), "{body}");
    daemon.shutdown();

    // …and a fresh daemon on the same state dir picks the campaign up
    // from its cancel checkpoint and runs it to the reference bytes.
    let mut opts = DaemonOptions::new(state.clone());
    opts.checkpoint_every = 1;
    let daemon = Daemon::start(opts, pooled()).unwrap();
    let addr = daemon.addr();
    assert_eq!(wait_terminal(&addr, &id), "complete");
    let (status, served) =
        client::request_text(&addr, "GET", &format!("/campaigns/{id}/result"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(served, expected);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn malformed_input_maps_to_structured_errors() {
    let daemon = Daemon::start(daemon_opts("errors"), pooled()).unwrap();
    let addr = daemon.addr();

    // Invalid JSON, wrong shape, unknown field, invalid spec → 400 with
    // a structured {"error", "detail"} body.
    for bad in [
        "{not json",
        "[]",
        "{\"name\":\"x\"}",
        &codec::encode_spec(&small_spec("bad")).replace("\"seed\"", "\"turbo\""),
    ] {
        let (status, body) = client::request_text(&addr, "POST", "/campaigns", bad).unwrap();
        assert_eq!(status, 400, "{bad:?} → {body}");
        let v = json::parse(&body).expect("error body is JSON");
        assert_eq!(
            v.get("error").and_then(json::Value::as_str),
            Some("invalid spec"),
            "{body}"
        );
        assert!(v.get("detail").is_some(), "{body}");
    }

    // Unknown ids and routes.
    let (status, body) = client::request_text(&addr, "GET", "/campaigns/deadbeef", "").unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, _) = client::request_text(&addr, "GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request_text(&addr, "DELETE", "/metrics", "").unwrap();
    assert_eq!(status, 405);

    // A shard partial for an unknown campaign, and garbage partials.
    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns/deadbeef/shards/0", "junk").unwrap();
    assert_eq!(status, 400, "{body}");

    // A shard failure for an unknown campaign, a bad shard index and the
    // wrong method.
    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns/deadbeef/shards/0/fail", "boom").unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns/deadbeef/shards/x/fail", "boom").unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, body) =
        client::request_text(&addr, "GET", "/campaigns/deadbeef/shards/0/fail", "").unwrap();
    assert_eq!(status, 405, "{body}");

    // Oversized bodies are refused from the Content-Length header
    // alone — the daemon never buffers the payload.
    let huge = "x".repeat(2 * 1024 * 1024);
    let (status, body) = client::request_text(&addr, "POST", "/campaigns", &huge).unwrap();
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"error\""), "{body}");
    daemon.shutdown();
}

#[test]
fn a_spec_with_a_power_radio_object_is_refused_naming_the_field() {
    let mut opts = daemon_opts("power-radio");
    opts.workers = 0;
    let daemon = Daemon::start(opts, pooled()).unwrap();
    let addr = daemon.addr();
    // The session's radio is a campaign's only radio: the power model
    // carries display and decoder, and a spec that still sends a
    // `power.radio` object is refused, not silently run without it.
    let mut spec = small_spec("power-radio");
    spec.power = eavs::power::DevicePowerModel::phone();
    let json = codec::encode_spec(&spec);
    let sent = json.replacen(
        "\"power\":{",
        "\"power\":{\"radio\":{\"tail_timer_ns\":10000000000},",
        1,
    );
    assert_ne!(sent, json);
    let (status, body) = client::request_text(&addr, "POST", "/campaigns", &sent).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("spec.power.radio: unknown field"), "{body}");
    let (status, body) = client::request_text(&addr, "POST", "/campaigns", &json).unwrap();
    assert_eq!(status, 200, "{body}");
    daemon.shutdown();
}

#[test]
fn a_prior_with_a_negative_cycle_sum_is_refused_and_the_store_is_unchanged() {
    let daemon = Daemon::start(daemon_opts("bad-prior"), pooled()).unwrap();
    let addr = daemon.addr();
    let mut tally = eavs::scaling::framestats::FrameCycleTally::default();
    for mc in [9.0, 11.0, 30.0] {
        tally.observe(
            eavs::video::frame::FrameType::I,
            eavs::cpu::freq::Cycles::from_mega(mc),
        );
    }
    let mut store = eavs_fleet::PriorStore::new();
    store.observe("3000kbps-1280x720@30", "film", &tally.finish());
    let good = eavs_fleet::prior::encode(&store);
    let (status, body) = client::request_text(&addr, "POST", "/priors", &good).unwrap();
    assert_eq!(status, 200, "{body}");
    let (_, before) = client::request_text(&addr, "GET", "/priors", "").unwrap();

    // Such a prior would panic the first EAVS session seeded from it.
    let line = good.lines().find(|l| l.starts_with("mc0 ")).unwrap();
    let bad = good.replacen(line, "mc0 -875206582137000 80", 1);
    let (status, body) = client::request_text(&addr, "POST", "/priors", &bad).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("negative mc0 sum"), "{body}");
    let (status, after) = client::request_text(&addr, "GET", "/priors", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(after, before);
    daemon.shutdown();
}

#[test]
fn a_shard_partial_with_a_huge_lane_count_is_refused_and_the_daemon_stays_up() {
    let daemon = Daemon::start(daemon_opts("huge-govs"), pooled()).unwrap();
    let addr = daemon.addr();
    // A well-formed partial whose lane count no allocation could hold,
    // followed by only two lanes. Decoding must fail on the missing
    // lines; sizing a vector from the count would abort the process.
    let partial = checkpoint::encode(&eavs_fleet::FleetAggregate::new(&small_spec("huge")));
    let huge = partial.replace("govs 2\n", "govs 1000000000\n");
    assert_ne!(huge, partial);
    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns/deadbeef/shards/0", &huge).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad shard partial"), "{body}");
    let (status, body) = client::request_text(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    daemon.shutdown();
}

#[test]
fn a_spec_with_a_bad_histogram_shape_is_refused_and_the_daemon_stays_up() {
    let mut opts = daemon_opts("bad-hist");
    opts.workers = 0;
    let daemon = Daemon::start(opts, pooled()).unwrap();
    let addr = daemon.addr();
    // Each shape would panic `Histogram::new` (or size a lane past the
    // bin cap) while the registry lock is held.
    for shape in [(30.0, 0.0, 60), (0.0, 30.0, 0), (0.0, 30.0, 1_000_000)] {
        let mut spec = small_spec("bad-hist");
        spec.energy_hist = shape;
        let (status, body) =
            client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
        assert_eq!(status, 400, "{shape:?} → {body}");
        assert!(body.contains("energy histogram"), "{body}");
    }
    let spec = small_spec("good-hist");
    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client::request_text(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    daemon.shutdown();
}

#[test]
fn a_spec_no_session_can_stream_is_refused_and_the_daemon_stays_up() {
    let mut opts = daemon_opts("zero-rate");
    opts.workers = 0;
    let daemon = Daemon::start(opts, pooled()).unwrap();
    let addr = daemon.addr();
    // Each rate would panic every session over it: zero never finishes
    // a download, and 1e-300 Mbps overflows the simulation clock.
    for mbps in [0.0, 1e-300] {
        let mut spec = small_spec("zero-rate");
        spec.networks = vec![(NetworkChoice::Constant(mbps), 1.0)];
        let (status, body) =
            client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
        assert_eq!(status, 400, "constant:{mbps} → {body}");
        assert!(body.contains("constant rate"), "{body}");
    }
    let (status, body) = client::request_text(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    daemon.shutdown();
}

#[test]
fn a_title_no_session_can_run_is_refused_and_the_daemon_serves_the_next() {
    // A one-worker daemon: an accepted spec whose title aborts the
    // process (a billion frames per second reserves 48 GB per segment)
    // would take the daemon and its worker down with it.
    let mut opts = daemon_opts("fps");
    opts.workers = 1;
    let daemon = Daemon::start(opts, pooled()).unwrap();
    let addr = daemon.addr();
    let mut spec = small_spec("fps-1e9");
    spec.titles = vec![(spec.titles[0].0, 1.0)];
    spec.titles[0].0.duration_s = 4;
    spec.titles[0].0.fps = 1_000_000_000;
    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("fps in 1..=1000"), "{body}");

    let spec = small_spec("after-fps");
    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
    assert_eq!(status, 200, "{body}");
    let id = registry::campaign_id(&spec);
    assert_eq!(wait_terminal(&addr, &id), "complete");
    let (status, served) =
        client::request_text(&addr, "GET", &format!("/campaigns/{id}/result"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(served, reference_bytes(&spec));
    daemon.shutdown();
}

#[test]
fn a_shard_partial_of_the_wrong_shape_is_refused_and_the_daemon_stays_up() {
    let spec = small_spec("daemon-shape");
    let expected = reference_bytes(&spec);
    // No local workers: nothing folds until the remote worker below
    // starts, so the bad uploads reach an untouched campaign.
    let mut opts = daemon_opts("shape");
    opts.workers = 0;
    let daemon = Daemon::start(opts, pooled()).unwrap();
    let addr = daemon.addr();
    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
    assert_eq!(status, 200, "{body}");
    let id = registry::campaign_id(&spec);

    // Partials that carry the right campaign digest and decode cleanly
    // but would trip `FleetAggregate::merge`'s asserts under the
    // registry lock.
    let empty = eavs_fleet::FleetAggregate::new(&spec);
    let mut one_lane = empty.clone();
    one_lane.govs.truncate(1);
    let mut swapped = empty.clone();
    swapped.govs.swap(0, 1);
    let mut wide = empty.clone();
    wide.govs[0].cpu_j = eavs_metrics::histogram::Histogram::new(0.0, 1.0, 3);
    for (partial, why) in [
        (one_lane, "governor lanes"),
        (swapped, "lane"),
        (wide, "cpu_j histogram layout"),
    ] {
        let (status, body) = client::request_text(
            &addr,
            "POST",
            &format!("/campaigns/{id}/shards/0"),
            &checkpoint::encode(&partial),
        )
        .unwrap();
        assert_eq!(status, 409, "{body}");
        assert!(body.contains(why), "{body}");
    }

    // A failure report for a shard the campaign does not have.
    let (status, body) = client::request_text(
        &addr,
        "POST",
        &format!("/campaigns/{id}/shards/99/fail"),
        "boom",
    )
    .unwrap();
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("out of range"), "{body}");

    // Every route that takes the registry lock still answers.
    let (status, body) = client::request_text(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) =
        client::request_text(&addr, "GET", &format!("/campaigns/{id}"), "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"shards_done\":0"), "{body}");
    let (status, page) = client::request_text(&addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    eavs_obs::check_conformance(&page).unwrap();

    // A good worker then finishes the campaign to the reference bytes.
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        std::thread::spawn(move || run_worker(&addr, &pooled(), &stop))
    };
    assert_eq!(wait_terminal(&addr, &id), "complete");
    stop.store(true, Ordering::SeqCst);
    worker.join().unwrap();
    let (status, served) =
        client::request_text(&addr, "GET", &format!("/campaigns/{id}/result"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(served, expected);
    daemon.shutdown();
}

#[test]
fn a_tampered_checkpoint_is_refused_on_restart() {
    let spec = small_spec("daemon-tamper");
    let state = temp_dir("tamper");

    // Run the campaign to completion so the state dir holds a spec and
    // checkpoint pair.
    let daemon = Daemon::start(
        {
            let mut opts = DaemonOptions::new(state.clone());
            opts.checkpoint_every = 1;
            opts
        },
        pooled(),
    )
    .unwrap();
    let addr = daemon.addr();
    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
    assert_eq!(status, 200, "{body}");
    let id = json::parse(&body)
        .unwrap()
        .get("id")
        .and_then(json::Value::as_str)
        .unwrap()
        .to_owned();
    assert_eq!(wait_terminal(&addr, &id), "complete");
    daemon.shutdown();

    // Swap the checkpoint for one belonging to a different campaign.
    let mut other = spec.clone();
    other.seed ^= 1;
    let foreign = eavs_fleet::FleetAggregate::new(&other);
    checkpoint::save(&state.join(format!("{id}.ckpt")), &foreign).unwrap();

    // The restarted daemon must refuse to open rather than resume into
    // a silently wrong aggregate.
    let err = Daemon::start(
        {
            let mut opts = DaemonOptions::new(state.clone());
            opts.checkpoint_every = 1;
            opts
        },
        pooled(),
    )
    .err()
    .expect("tampered checkpoint must refuse recovery");
    assert!(err.contains("CheckpointMismatch"), "{err}");
    let _ = std::fs::remove_dir_all(&state);
}

/// Submits a spec whose every shard panics (the shard runner is
/// [`panicking_on`]`(tag)`), which must end `failed` naming shard 0 and
/// the panic, then a valid spec, which must complete with the direct
/// run's bytes: the worker that met the panic lives on.
fn a_panicking_shard_fails_then_the_next_campaign_completes(addr: &str, tag: &str) {
    let submit = |spec: &CampaignSpec| {
        let (status, body) =
            client::request_text(addr, "POST", "/campaigns", &codec::encode_spec(spec)).unwrap();
        assert_eq!(status, 200, "{body}");
        registry::campaign_id(spec)
    };
    let id = submit(&small_spec(tag));
    assert_eq!(wait_terminal(addr, &id), "failed");
    let (_, progress) = client::request_text(addr, "GET", &format!("/campaigns/{id}"), "").unwrap();
    let v = json::parse(&progress).unwrap();
    let error = v.get("error").and_then(json::Value::as_str).unwrap();
    assert_eq!(
        error,
        format!("shard 0: a session panicked: {INJECTED_PANIC}")
    );

    let good = small_spec(&format!("after-{tag}"));
    let id = submit(&good);
    assert_eq!(wait_terminal(addr, &id), "complete");
    let (status, served) =
        client::request_text(addr, "GET", &format!("/campaigns/{id}/result"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(served, reference_bytes(&good));
}

#[test]
fn a_panicking_shard_fails_its_campaign_and_the_local_worker_serves_the_next() {
    // One local worker: if the panic ended its thread, nothing would run
    // the second campaign.
    let mut opts = daemon_opts("panic-shard");
    opts.workers = 1;
    let daemon = Daemon::start(opts, panicking_on("panic-shard")).unwrap();
    let addr = daemon.addr();
    a_panicking_shard_fails_then_the_next_campaign_completes(&addr, "panic-shard");
    let (status, body) = client::request_text(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    daemon.shutdown();
}

#[test]
fn a_panicking_shard_on_a_remote_worker_fails_its_campaign_and_the_worker_serves_the_next() {
    // No local workers: only the remote worker below runs shards. If it
    // died on the panic, or only logged it, the first campaign would stay
    // `running` and the second would never start.
    let mut opts = daemon_opts("remote-panic");
    opts.workers = 0;
    let daemon = Daemon::start(opts, pooled()).unwrap();
    let addr = daemon.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        std::thread::spawn(move || run_worker(&addr, &panicking_on("remote-panic"), &stop))
    };
    a_panicking_shard_fails_then_the_next_campaign_completes(&addr, "remote-panic");
    stop.store(true, Ordering::SeqCst);
    worker.join().unwrap();
    daemon.shutdown();
}
