//! Shard workers: local threads and the remote `--worker` loop.
//!
//! Both kinds execute the identical unit of work —
//! [`eavs_fleet::run_shard`] over a claimed `(spec, shard)`, with a
//! panic caught and turned into the shard's failure — and differ only
//! in transport: local workers call the [`Registry`] directly, remote
//! workers speak the same claim/complete/fail protocol over HTTP
//! (`POST /claim`, then `POST /campaigns/{id}/shards/{shard}` with the
//! partial in `eavs-fleet-checkpoint/v2` text, or
//! `POST /campaigns/{id}/shards/{shard}/fail` with the message). Because
//! a shard partial is a pure function of `(spec, shard)` and the
//! coordinator folds in shard order, worker count and placement cannot
//! change a single result bit.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use eavs_core::report::SessionReport;
use eavs_core::session::SessionBuilder;
use eavs_fleet::spec::CampaignSpec;
use eavs_fleet::{checkpoint, run_shard, FleetAggregate};

use crate::http::{client, panic_message};
use crate::json;
use crate::registry::Registry;

/// A shard runner shareable across worker threads (the engine —
/// `eavs-bench`'s pooled runner in production, a serial runner in
/// tests — is injected so this crate stays engine-agnostic, like
/// `eavs-fleet` itself).
pub type SharedRunner =
    Arc<dyn Fn(Vec<(String, SessionBuilder)>) -> Vec<Arc<SessionReport>> + Send + Sync>;

/// How long an idle worker sleeps between claim polls.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Spawns `n` local worker threads draining the registry until `stop`.
pub fn spawn_local_workers(
    registry: Arc<Registry>,
    runner: SharedRunner,
    n: usize,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    (0..n)
        .map(|i| {
            let registry = Arc::clone(&registry);
            let runner = Arc::clone(&runner);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("eavsd-worker-{i}"))
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let Some(claim) = registry.claim() else {
                            std::thread::sleep(IDLE_POLL);
                            continue;
                        };
                        match run_caught(&claim.spec, claim.shard, &runner) {
                            Ok(partial) => {
                                let _ = registry.complete(&claim.id, claim.shard, partial);
                            }
                            Err(e) => {
                                let _ = registry.fail(&claim.id, claim.shard, &e);
                            }
                        }
                    }
                })
                .expect("spawn local worker")
        })
        .collect()
}

/// Runs one claimed shard. A session that panics (a spec no session can
/// run) fails the shard like an `Err` does: unwinding would end the
/// worker and leave the shard to be reclaimed, and fail again, forever.
fn run_caught(
    spec: &CampaignSpec,
    shard: u64,
    runner: &SharedRunner,
) -> Result<FleetAggregate, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| run_shard(spec, shard, &**runner))) {
        Ok(ran) => ran.map(|out| out.partial),
        Err(payload) => {
            let message = panic_message(&*payload).unwrap_or("no message");
            Err(format!("a session panicked: {message}"))
        }
    }
}

/// The remote worker loop: polls `coordinator` (host:port) for claims,
/// executes each shard and ships the partial back. Transient HTTP
/// failures are retried after a short sleep — the coordinator's lease
/// reclaim covers anything lost in between — so the loop survives a
/// coordinator kill/restart. Runs until `stop`.
pub fn run_worker(coordinator: &str, runner: &SharedRunner, stop: &AtomicBool) {
    // Spec cache: claims for a known campaign skip re-decoding.
    let mut specs: HashMap<String, Arc<CampaignSpec>> = HashMap::new();
    while !stop.load(Ordering::SeqCst) {
        let claimed = match client::request_text(coordinator, "POST", "/claim", "") {
            Ok((200, body)) => body,
            Ok((204, _)) => {
                std::thread::sleep(IDLE_POLL);
                continue;
            }
            Ok((status, body)) => {
                eprintln!("eavsd worker: claim returned {status}: {body}");
                std::thread::sleep(Duration::from_millis(200));
                continue;
            }
            Err(_) => {
                // Coordinator unreachable (restarting?) — keep polling.
                std::thread::sleep(Duration::from_millis(200));
                continue;
            }
        };
        if let Err(e) = execute_claim(coordinator, &claimed, &mut specs, runner) {
            eprintln!("eavsd worker: {e}");
            std::thread::sleep(Duration::from_millis(200));
        }
    }
}

fn execute_claim(
    coordinator: &str,
    claimed: &str,
    specs: &mut HashMap<String, Arc<CampaignSpec>>,
    runner: &SharedRunner,
) -> Result<(), String> {
    let v = json::parse(claimed).map_err(|e| format!("claim body: {e}"))?;
    let id = v
        .get("id")
        .and_then(json::Value::as_str)
        .ok_or("claim body: missing id")?
        .to_owned();
    let shard = v
        .get("shard")
        .and_then(json::Value::as_u64)
        .ok_or("claim body: missing shard")?;
    let spec = match specs.get(&id) {
        Some(spec) => Arc::clone(spec),
        None => {
            let spec_value = v.get("spec").ok_or("claim body: missing spec")?;
            let spec = Arc::new(crate::codec::decode_spec_value(spec_value)?);
            specs.insert(id.clone(), Arc::clone(&spec));
            spec
        }
    };
    let (path, body) = match run_caught(&spec, shard, runner) {
        Ok(partial) => (
            format!("/campaigns/{id}/shards/{shard}"),
            checkpoint::encode(&partial),
        ),
        Err(message) => (format!("/campaigns/{id}/shards/{shard}/fail"), message),
    };
    let (status, response) = client::request_text(coordinator, "POST", &path, &body)?;
    if status != 200 {
        return Err(format!("POST {path} returned {status}: {response}"));
    }
    Ok(())
}
