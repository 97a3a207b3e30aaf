//! The campaign registry: the coordinator side of the daemon.
//!
//! One [`Registry`] owns every submitted campaign. Work is handed out
//! as **shard claims** (one shard = one `eavs_fleet::run_shard` call)
//! and collected as checkpoint-encoded partial aggregates; local worker
//! threads and remote `eavsd --worker` processes use the exact same
//! claim/complete protocol, so a campaign's result is byte-identical at
//! any worker count:
//!
//! - a shard partial is a pure function of `(spec, shard)` — the
//!   fleet's coordinate-keyed draws guarantee it;
//! - completed partials are buffered in a `BTreeMap` and folded
//!   **strictly in shard order** into the running aggregate, the same
//!   fold `run_campaign` performs, so the merged bits (and therefore
//!   the `eavs-fleet-checkpoint/v2` bytes) match a single-process run;
//! - the fold cursor is checkpointed every N shards to
//!   `<state_dir>/<id>.ckpt` with the spec JSON alongside, so a killed
//!   daemon resumes every in-flight campaign on restart.
//!
//! Claims carry a lease; a worker that dies mid-shard simply lets the
//! lease expire and the shard is re-handed to someone else (re-running
//! a shard is harmless — the fold ignores duplicates).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eavs_fleet::checkpoint;
use eavs_fleet::progress::ProgressSnapshot;
use eavs_fleet::spec::CampaignSpec;
use eavs_fleet::FleetAggregate;

use crate::codec::{decode_spec, encode_spec};
use crate::json::Value;

/// Coordinator knobs.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Directory holding `<id>.spec.json` + `<id>.ckpt` pairs.
    pub state_dir: PathBuf,
    /// Shards between checkpoint writes (0 behaves as 1).
    pub checkpoint_every: u64,
    /// How long a claimed shard may stay uncompleted before it is
    /// re-handed to another worker.
    pub lease: Duration,
    /// Where the fleet-wide workload prior (`eavs-prior/v1`) persists;
    /// `None` defaults to `<state_dir>/fleet.prior`.
    pub prior_path: Option<PathBuf>,
}

/// Where a campaign stands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Shards are being claimed and folded.
    Running,
    /// All shards folded; the result is final.
    Complete,
    /// Cancelled; no further claims. Completed shards stay checkpointed.
    Cancelled,
    /// A shard failed; the message explains why.
    Failed(String),
}

impl Phase {
    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Running => "running",
            Phase::Complete => "complete",
            Phase::Cancelled => "cancelled",
            Phase::Failed(_) => "failed",
        }
    }
}

struct CampaignState {
    spec: Arc<CampaignSpec>,
    spec_json: Arc<String>,
    aggregate: FleetAggregate,
    total_shards: u64,
    /// Completed partials waiting for their turn in the in-order fold.
    ready: BTreeMap<u64, FleetAggregate>,
    /// Next never-claimed shard index.
    next_unclaimed: u64,
    /// Outstanding claims: shard → lease expiry deadline.
    leases: BTreeMap<u64, Instant>,
    phase: Phase,
    /// Shards already folded when the campaign was (re)submitted —
    /// recovered from a checkpoint, not executed by this daemon.
    resumed_shards: u64,
    session_runs: u64,
    started: Instant,
    finished: Option<Instant>,
}

impl CampaignState {
    fn elapsed_s(&self) -> f64 {
        let end = self.finished.unwrap_or_else(Instant::now);
        end.duration_since(self.started).as_secs_f64()
    }
}

/// What `POST /campaigns` hands back.
#[derive(Clone, Debug)]
pub struct Submitted {
    /// Campaign id: the spec fingerprint as 32 hex digits.
    pub id: String,
    /// True when the campaign was already known (in memory or resumed
    /// from a checkpoint) rather than started from scratch.
    pub resumed: bool,
    /// Shards already folded at submit time.
    pub shards_done: u64,
    /// Shards in the plan.
    pub shards_total: u64,
}

/// A submit failure, tagged with the HTTP status it maps to.
#[derive(Clone, Debug)]
pub enum SubmitError {
    /// Malformed JSON / unknown fields / invalid spec → 400.
    BadSpec(String),
    /// A state-dir checkpoint exists but belongs to a different
    /// campaign → 409. Never silently re-run.
    CheckpointMismatch(String),
    /// State-dir I/O failed → 500.
    Io(String),
}

/// One claimed shard.
#[derive(Clone)]
pub struct Claim {
    /// Campaign id.
    pub id: String,
    /// Shard index to execute.
    pub shard: u64,
    /// The campaign spec (for local workers).
    pub spec: Arc<CampaignSpec>,
    /// The spec's canonical JSON (for remote workers).
    pub spec_json: Arc<String>,
}

/// The coordinator state shared by the HTTP handler and local workers.
pub struct Registry {
    config: RegistryConfig,
    campaigns: Mutex<BTreeMap<String, CampaignState>>,
    /// The resident fleet-wide workload prior: every campaign that
    /// completes here folds its trained prior in, and clients exchange
    /// it via `GET`/`POST /priors`. Locked strictly after `campaigns`.
    prior: Mutex<eavs_fleet::PriorStore>,
    /// The last `/metrics` page's length over the campaigns it held:
    /// the next page's buffer is sized from it (see
    /// [`metrics_page`](Self::metrics_page)).
    page_bytes_per_campaign: AtomicUsize,
}

/// Formats a campaign id from a spec fingerprint.
pub fn campaign_id(spec: &CampaignSpec) -> String {
    format!("{:032x}", spec.fingerprint().0)
}

impl Registry {
    /// Creates the registry and recovers every campaign whose spec is
    /// persisted in the state dir (resuming from checkpoints where they
    /// exist).
    ///
    /// # Errors
    ///
    /// Returns a message when the state dir cannot be created or a
    /// persisted spec/checkpoint pair is unreadable or inconsistent.
    pub fn open(config: RegistryConfig) -> Result<Registry, String> {
        std::fs::create_dir_all(&config.state_dir)
            .map_err(|e| format!("cannot create {}: {e}", config.state_dir.display()))?;
        let prior_file = config
            .prior_path
            .clone()
            .unwrap_or_else(|| config.state_dir.join("fleet.prior"));
        let prior = if prior_file.exists() {
            eavs_fleet::prior::load(&prior_file)?
        } else {
            eavs_fleet::PriorStore::new()
        };
        let registry = Registry {
            config,
            campaigns: Mutex::new(BTreeMap::new()),
            prior: Mutex::new(prior),
            page_bytes_per_campaign: AtomicUsize::new(0),
        };
        registry.recover()?;
        Ok(registry)
    }

    fn spec_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join(format!("{id}.spec.json"))
    }

    fn prior_file(&self) -> PathBuf {
        self.config
            .prior_path
            .clone()
            .unwrap_or_else(|| self.config.state_dir.join("fleet.prior"))
    }

    fn ckpt_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join(format!("{id}.ckpt"))
    }

    /// Re-admits every persisted campaign after a restart.
    fn recover(&self) -> Result<(), String> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&self.config.state_dir)
            .map_err(|e| format!("cannot read {}: {e}", self.config.state_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".spec.json"))
            })
            .collect();
        entries.sort();
        for path in entries {
            let json = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            self.submit(&json)
                .map_err(|e| format!("recovering {}: {e:?}", path.display()))?;
        }
        Ok(())
    }

    /// Admits (or re-attaches to) a campaign described by `spec_json`.
    /// Submission is idempotent: the id is the spec fingerprint, so the
    /// same spec always lands on the same campaign, riding any existing
    /// checkpoint instead of re-running finished shards.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(&self, spec_json: &str) -> Result<Submitted, SubmitError> {
        let spec = decode_spec(spec_json).map_err(SubmitError::BadSpec)?;
        spec.validate().map_err(SubmitError::BadSpec)?;
        let id = campaign_id(&spec);
        let fingerprint = spec.fingerprint().0;

        let mut campaigns = self.campaigns.lock().expect("registry lock");
        if let Some(existing) = campaigns.get(&id) {
            return Ok(Submitted {
                id,
                resumed: true,
                shards_done: existing.aggregate.shards_done,
                shards_total: existing.total_shards,
            });
        }

        let saved = checkpoint::load(&self.ckpt_path(&id)).map_err(SubmitError::Io)?;
        if let Some(saved) = &saved {
            if saved.campaign != fingerprint {
                return Err(SubmitError::CheckpointMismatch(format!(
                    "checkpoint {} belongs to campaign {:032x}, not {id} — refusing to resume",
                    self.ckpt_path(&id).display(),
                    saved.campaign,
                )));
            }
        }
        let resumed = saved.is_some();
        let aggregate = saved.unwrap_or_else(|| FleetAggregate::new(&spec));

        // Persist the canonical encoding (atomic rename) so recovery
        // after a kill re-derives the identical spec and id.
        let canonical = encode_spec(&spec);
        let spec_path = self.spec_path(&id);
        let tmp = spec_path.with_extension("tmp");
        std::fs::write(&tmp, &canonical)
            .and_then(|()| std::fs::rename(&tmp, &spec_path))
            .map_err(|e| SubmitError::Io(format!("persist {}: {e}", spec_path.display())))?;

        let total_shards = spec.num_shards();
        let shards_done = aggregate.shards_done;
        let phase = if shards_done >= total_shards {
            Phase::Complete
        } else {
            Phase::Running
        };
        let now = Instant::now();
        campaigns.insert(
            id.clone(),
            CampaignState {
                spec: Arc::new(spec),
                spec_json: Arc::new(canonical),
                aggregate,
                total_shards,
                ready: BTreeMap::new(),
                next_unclaimed: shards_done,
                leases: BTreeMap::new(),
                phase: phase.clone(),
                resumed_shards: shards_done,
                session_runs: 0,
                started: now,
                finished: (phase == Phase::Complete).then_some(now),
            },
        );
        Ok(Submitted {
            id,
            resumed,
            shards_done,
            shards_total: total_shards,
        })
    }

    /// Hands out the next shard of work, if any: expired leases first
    /// (dead-worker reclaim), then never-claimed shards, scanning
    /// campaigns in id order.
    pub fn claim(&self) -> Option<Claim> {
        let mut campaigns = self.campaigns.lock().expect("registry lock");
        let now = Instant::now();
        let lease = self.config.lease;
        for (id, c) in campaigns.iter_mut() {
            if c.phase != Phase::Running {
                continue;
            }
            // Reclaim the lowest expired lease, if any.
            let expired = c
                .leases
                .iter()
                .find(|(_, deadline)| **deadline <= now)
                .map(|(shard, _)| *shard);
            let shard = match expired {
                Some(shard) => shard,
                None if c.next_unclaimed < c.total_shards => {
                    let s = c.next_unclaimed;
                    c.next_unclaimed += 1;
                    s
                }
                None => continue,
            };
            c.leases.insert(shard, now + lease);
            return Some(Claim {
                id: id.clone(),
                shard,
                spec: Arc::clone(&c.spec),
                spec_json: Arc::clone(&c.spec_json),
            });
        }
        None
    }

    /// Accepts a completed shard partial and folds it in order.
    /// Duplicate completions (a reclaimed shard finishing twice) are
    /// ignored — the partial is a pure function of `(spec, shard)`, so
    /// every copy carries identical bits.
    ///
    /// # Errors
    ///
    /// `Err((status, message))` with 404 for an unknown campaign, 409
    /// for a partial that does not belong to this campaign, does not
    /// have its shape (lanes, histogram layouts) or names an
    /// out-of-range shard, 500 for checkpoint I/O failure.
    pub fn complete(
        &self,
        id: &str,
        shard: u64,
        partial: FleetAggregate,
    ) -> Result<u64, (u16, String)> {
        let mut campaigns = self.campaigns.lock().expect("registry lock");
        let c = campaigns
            .get_mut(id)
            .ok_or((404, format!("unknown campaign {id}")))?;
        if partial.campaign != c.aggregate.campaign {
            return Err((
                409,
                format!(
                    "partial belongs to campaign {:032x}, not {id}",
                    partial.campaign
                ),
            ));
        }
        if shard >= c.total_shards {
            return Err((
                409,
                format!("shard {shard} out of range ({} shards)", c.total_shards),
            ));
        }
        // The fold below asserts the shape; a worker's upload is checked
        // here, before it is queued, so a bad one never poisons the lock.
        c.aggregate
            .check_shape(&partial)
            .map_err(|e| (409, format!("partial does not fit campaign {id}: {e}")))?;
        c.leases.remove(&shard);
        if shard < c.aggregate.shards_done || c.ready.contains_key(&shard) {
            return Ok(c.aggregate.shards_done); // duplicate — already folded or queued
        }
        // Session-runs are derived, not reported: a shard's size is a
        // pure function of the spec, so the count stays exact however
        // the work was placed.
        let (start, end) = c.spec.shard_range(shard);
        c.session_runs += (end - start) * c.spec.governors.len() as u64;
        c.ready.insert(shard, partial);

        // Fold strictly in shard order — the exact `run_campaign` fold,
        // so the merged aggregate is bit-identical to a single-process
        // run regardless of completion order.
        let every = self.config.checkpoint_every.max(1);
        let mut folded_to_boundary = false;
        while let Some(partial) = c.ready.remove(&c.aggregate.shards_done) {
            c.aggregate.merge(&partial);
            c.aggregate.shards_done += 1;
            if c.aggregate.shards_done % every == 0 {
                folded_to_boundary = true;
            }
        }
        let done = c.aggregate.shards_done >= c.total_shards;
        if done && c.phase == Phase::Running {
            c.phase = Phase::Complete;
            c.finished = Some(Instant::now());
            // Completed campaigns teach the fleet: fold the campaign's
            // trained workload prior into the resident store and
            // persist it, so later sessions can warm-start from it.
            let mut prior = self.prior.lock().expect("prior lock");
            prior.merge(&c.aggregate.prior);
            eavs_fleet::prior::save(&self.prior_file(), &prior)
                .map_err(|e| (500, format!("prior write failed: {e}")))?;
        }
        if folded_to_boundary || done {
            checkpoint::save(&self.ckpt_path(id), &c.aggregate)
                .map_err(|e| (500, format!("checkpoint write failed: {e}")))?;
        }
        Ok(c.aggregate.shards_done)
    }

    /// Records a shard execution failure: the campaign stops handing
    /// out claims and reports the error. A campaign that already left
    /// `running` keeps its phase.
    ///
    /// # Errors
    ///
    /// 404 for an unknown campaign, 409 for an out-of-range shard.
    pub fn fail(&self, id: &str, shard: u64, message: &str) -> Result<(), (u16, String)> {
        let mut campaigns = self.campaigns.lock().expect("registry lock");
        let c = campaigns
            .get_mut(id)
            .ok_or((404, format!("unknown campaign {id}")))?;
        if shard >= c.total_shards {
            return Err((
                409,
                format!("shard {shard} out of range ({} shards)", c.total_shards),
            ));
        }
        c.leases.remove(&shard);
        if c.phase == Phase::Running {
            c.phase = Phase::Failed(format!("shard {shard}: {message}"));
            c.finished = Some(Instant::now());
        }
        Ok(())
    }

    /// Cancels a running campaign at the shard boundary: no further
    /// claims; completed shards stay checkpointed, so a later submit of
    /// the same spec resumes instead of restarting.
    ///
    /// Returns the progress body, or `None` for an unknown id.
    pub fn cancel(&self, id: &str) -> Option<String> {
        {
            let mut campaigns = self.campaigns.lock().expect("registry lock");
            let c = campaigns.get_mut(id)?;
            if c.phase == Phase::Running {
                c.phase = Phase::Cancelled;
                c.finished = Some(Instant::now());
                let _ = checkpoint::save(&self.ckpt_path(id), &c.aggregate);
            }
        }
        self.progress(id)
    }

    /// The progress body for `GET /campaigns/{id}`, or `None` for an
    /// unknown id.
    pub fn progress(&self, id: &str) -> Option<String> {
        let campaigns = self.campaigns.lock().expect("registry lock");
        let c = campaigns.get(id)?;
        Some(progress_json(id, c).render())
    }

    /// The campaign list for `GET /campaigns`.
    pub fn list(&self) -> String {
        let campaigns = self.campaigns.lock().expect("registry lock");
        Value::Arr(
            campaigns
                .iter()
                .map(|(id, c)| {
                    Value::Obj(vec![
                        ("id".into(), Value::str(id)),
                        ("name".into(), Value::str(&c.spec.name)),
                        ("phase".into(), Value::str(c.phase.name())),
                        ("shards_done".into(), Value::u64(c.aggregate.shards_done)),
                        ("shards_total".into(), Value::u64(c.total_shards)),
                    ])
                })
                .collect(),
        )
        .render()
    }

    /// The final result for `GET /campaigns/{id}/result`: the merged
    /// aggregate in `eavs-fleet-checkpoint/v2` text.
    ///
    /// # Errors
    ///
    /// `Err((status, message))`: 404 for an unknown id, 409 while the
    /// campaign is still running / cancelled / failed.
    pub fn result(&self, id: &str) -> Result<String, (u16, String)> {
        let campaigns = self.campaigns.lock().expect("registry lock");
        let c = campaigns
            .get(id)
            .ok_or((404, format!("unknown campaign {id}")))?;
        match &c.phase {
            Phase::Complete => Ok(checkpoint::encode(&c.aggregate)),
            Phase::Running => Err((
                409,
                format!(
                    "campaign {id} still running ({}/{} shards)",
                    c.aggregate.shards_done, c.total_shards
                ),
            )),
            Phase::Cancelled => Err((409, format!("campaign {id} was cancelled"))),
            Phase::Failed(e) => Err((409, format!("campaign {id} failed: {e}"))),
        }
    }

    /// The `/metrics` page: every campaign's fleet families (grouped so
    /// each family appears exactly once) plus daemon-level gauges.
    /// Scrape-conformant by construction — see
    /// [`eavs_obs::check_conformance`].
    ///
    /// The page is rendered into one buffer sized up front, with room
    /// for one campaign more than the last page held per campaign. A
    /// buffer that grows by doubling frees each smaller one, and freeing
    /// such large blocks raises the allocator's threshold for serving
    /// blocks from fresh mappings, which kept about 4 MiB more resident
    /// in a served round (DESIGN §13.4).
    pub fn metrics_page(&self) -> String {
        let campaigns = self.campaigns.lock().expect("registry lock");
        let held = campaigns.len();
        let per_campaign = self.page_bytes_per_campaign.load(Ordering::Relaxed);
        let mut w = eavs_obs::PromWriter::with_capacity(per_campaign * (held + 1));
        let pairs: Vec<(&FleetAggregate, &CampaignSpec)> = campaigns
            .values()
            .map(|c| (&c.aggregate, &*c.spec))
            .collect();
        eavs_fleet::prom::write_all_into(&mut w, &pairs);

        w.help(
            "eavsd_campaigns",
            "Campaigns known to the daemon, by phase.",
        )
        .type_("eavsd_campaigns", "gauge");
        for phase in ["running", "complete", "cancelled", "failed"] {
            let n = campaigns
                .values()
                .filter(|c| c.phase.name() == phase)
                .count();
            w.sample("eavsd_campaigns", &[("phase", phase)], n as f64);
        }
        w.help(
            "eavsd_session_runs_total",
            "Session-runs executed by this daemon (resumed shards excluded).",
        )
        .type_("eavsd_session_runs_total", "counter");
        let runs: u64 = campaigns.values().map(|c| c.session_runs).sum();
        w.sample("eavsd_session_runs_total", &[], runs as f64);
        drop(campaigns);
        w.help(
            "eavsd_prior_entries",
            "Catalog entries (title x content) in the resident fleet prior.",
        )
        .type_("eavsd_prior_entries", "gauge");
        let prior = self.prior.lock().expect("prior lock");
        w.sample("eavsd_prior_entries", &[], prior.len() as f64);
        let page = w.finish();
        self.page_bytes_per_campaign
            .store(page.len() / held.max(1), Ordering::Relaxed);
        page
    }

    /// The resident fleet prior as standalone `eavs-prior/v1` text —
    /// the `GET /priors` body. An empty store encodes (and serves) too,
    /// so a fresh daemon answers with a valid, mergeable document.
    pub fn prior_text(&self) -> String {
        eavs_fleet::prior::encode(&self.prior.lock().expect("prior lock"))
    }

    /// Merges an `eavs-prior/v1` document into the resident store and
    /// persists the result — the `POST /priors` body. Merging is the
    /// same order-free fixed-point fold campaigns use, so pushing the
    /// same document twice is *not* idempotent (evidence accumulates);
    /// it is the caller's contract to push each training run once.
    ///
    /// Returns `(catalog entries, total frames)` after the merge.
    ///
    /// # Errors
    ///
    /// Returns a message for a corrupt/incompatible document or a
    /// persistence failure.
    pub fn merge_prior(&self, text: &str) -> Result<(usize, u64), String> {
        let incoming = eavs_fleet::prior::decode(text)?;
        let mut prior = self.prior.lock().expect("prior lock");
        prior.merge(&incoming);
        eavs_fleet::prior::save(&self.prior_file(), &prior)?;
        Ok((prior.len(), prior.total_frames()))
    }

    /// True when any campaign still has claimable or in-flight work.
    pub fn has_open_work(&self) -> bool {
        let campaigns = self.campaigns.lock().expect("registry lock");
        campaigns.values().any(|c| c.phase == Phase::Running)
    }
}

fn progress_json(id: &str, c: &CampaignState) -> Value {
    let snapshot = ProgressSnapshot::capture(&c.spec, &c.aggregate);
    let elapsed = c.elapsed_s();
    let rate = if elapsed > 0.0 {
        c.session_runs as f64 / elapsed
    } else {
        0.0
    };
    let (phase, error) = match &c.phase {
        Phase::Failed(e) => ("failed", Value::str(e.as_str())),
        other => (other.name(), Value::Null),
    };
    Value::Obj(vec![
        ("id".into(), Value::str(id)),
        ("name".into(), Value::str(&c.spec.name)),
        ("phase".into(), Value::str(phase)),
        ("error".into(), error),
        ("shards_done".into(), Value::u64(snapshot.shards_done)),
        ("shards_total".into(), Value::u64(snapshot.shards_total)),
        ("sessions_done".into(), Value::u64(snapshot.sessions_done)),
        ("sessions_total".into(), Value::u64(snapshot.sessions_total)),
        ("resumed_shards".into(), Value::u64(c.resumed_shards)),
        ("session_runs".into(), Value::u64(c.session_runs)),
        ("elapsed_s".into(), Value::f64(elapsed)),
        ("sessions_per_sec".into(), Value::f64(rate)),
        (
            "govs".into(),
            Value::Arr(
                snapshot
                    .govs
                    .iter()
                    .map(|g| {
                        Value::Obj(vec![
                            ("governor".into(), Value::str(&g.governor)),
                            ("sessions".into(), Value::u64(g.sessions)),
                            ("mean_cpu_j".into(), Value::f64(g.mean_cpu_j)),
                            ("mean_device_j".into(), Value::f64(g.mean_device_j)),
                            ("mean_qoe".into(), Value::f64(g.mean_qoe)),
                            ("rebuffer_events".into(), Value::u64(g.rebuffer_events)),
                            ("miss_rate".into(), Value::f64(g.miss_rate)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_fleet::campaign::{serial_runner, RunOptions};
    use eavs_fleet::{run_campaign, run_shard};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eavsd-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(tag: &str) -> RegistryConfig {
        RegistryConfig {
            state_dir: temp_dir(tag),
            checkpoint_every: 2,
            lease: Duration::from_secs(60),
            prior_path: None,
        }
    }

    fn smoke_json() -> String {
        crate::codec::encode_spec(&CampaignSpec::smoke())
    }

    /// Drains every claim through `run_shard`, completing out of order
    /// where possible, and returns the result text.
    fn drain(registry: &Registry) -> String {
        let mut claims = Vec::new();
        while let Some(claim) = registry.claim() {
            claims.push(claim);
        }
        claims.reverse(); // complete in descending shard order
        let id = claims[0].id.clone();
        for claim in claims {
            let out = run_shard(&claim.spec, claim.shard, &serial_runner).unwrap();
            registry
                .complete(&claim.id, claim.shard, out.partial)
                .unwrap();
        }
        registry.result(&id).unwrap()
    }

    #[test]
    fn claimed_shards_fold_to_the_single_process_bytes() {
        let registry = Registry::open(config("fold")).unwrap();
        let submitted = registry.submit(&smoke_json()).unwrap();
        assert!(!submitted.resumed);
        assert_eq!(submitted.shards_done, 0);

        let served = drain(&registry);
        let spec = CampaignSpec::smoke();
        let direct = run_campaign(&spec, &RunOptions::default(), &serial_runner).unwrap();
        assert_eq!(served, checkpoint::encode(&direct.aggregate));
    }

    #[test]
    fn completed_campaigns_fold_into_the_resident_prior() {
        let cfg = config("prior");
        let registry = Registry::open(cfg.clone()).unwrap();
        assert!(eavs_fleet::prior::decode(&registry.prior_text())
            .unwrap()
            .is_empty());
        registry.submit(&smoke_json()).unwrap();
        drain(&registry);
        let spec = CampaignSpec::smoke();
        let direct = run_campaign(&spec, &RunOptions::default(), &serial_runner).unwrap();
        let served = eavs_fleet::prior::decode(&registry.prior_text()).unwrap();
        assert_eq!(served, direct.aggregate.prior);
        assert!(!served.is_empty());
        // It persisted: a restarted daemon serves the same bytes.
        drop(registry);
        let reopened = Registry::open(cfg).unwrap();
        assert_eq!(
            eavs_fleet::prior::decode(&reopened.prior_text()).unwrap(),
            served
        );
    }

    #[test]
    fn merge_prior_accumulates_and_rejects_garbage() {
        let registry = Registry::open(config("prior-merge")).unwrap();
        let spec = CampaignSpec::smoke();
        let out = run_shard(&spec, 0, &serial_runner).unwrap();
        let doc = eavs_fleet::prior::encode(&out.partial.prior);
        let (entries, frames) = registry.merge_prior(&doc).unwrap();
        assert_eq!(entries, out.partial.prior.len());
        assert_eq!(frames, out.partial.prior.total_frames());
        // Merging again accumulates evidence (documented non-idempotence).
        let (_, frames_again) = registry.merge_prior(&doc).unwrap();
        assert_eq!(frames_again, 2 * frames);
        assert!(registry.merge_prior("not a prior").is_err());
    }

    #[test]
    fn submit_is_idempotent_and_duplicates_fold_once() {
        let registry = Registry::open(config("idem")).unwrap();
        let first = registry.submit(&smoke_json()).unwrap();
        let again = registry.submit(&smoke_json()).unwrap();
        assert_eq!(first.id, again.id);
        assert!(again.resumed);

        let claim = registry.claim().unwrap();
        let out = run_shard(&claim.spec, claim.shard, &serial_runner).unwrap();
        let done_once = registry
            .complete(&claim.id, claim.shard, out.partial.clone())
            .unwrap();
        let done_twice = registry
            .complete(&claim.id, claim.shard, out.partial)
            .unwrap();
        assert_eq!(done_once, done_twice, "duplicate completion is a no-op");

        let progress = registry.progress(&claim.id).unwrap();
        assert!(progress.contains("\"shards_done\":1"), "{progress}");
    }

    #[test]
    fn expired_leases_are_reclaimed_before_fresh_shards() {
        let mut cfg = config("lease");
        cfg.lease = Duration::from_millis(0); // every claim expires at once
        let registry = Registry::open(cfg).unwrap();
        registry.submit(&smoke_json()).unwrap();
        let first = registry.claim().unwrap();
        let second = registry.claim().unwrap();
        assert_eq!(
            first.shard, second.shard,
            "an expired lease is re-handed before a new shard"
        );
    }

    #[test]
    fn wrong_campaign_partial_and_out_of_range_shard_are_rejected() {
        let registry = Registry::open(config("reject")).unwrap();
        let submitted = registry.submit(&smoke_json()).unwrap();

        let mut other = CampaignSpec::smoke();
        other.seed ^= 1;
        let foreign = FleetAggregate::new(&other);
        let (status, _) = registry.complete(&submitted.id, 0, foreign).unwrap_err();
        assert_eq!(status, 409);

        let own = FleetAggregate::new(&CampaignSpec::smoke());
        let (status, _) = registry
            .complete(&submitted.id, submitted.shards_total, own)
            .unwrap_err();
        assert_eq!(status, 409);

        let own = FleetAggregate::new(&CampaignSpec::smoke());
        let (status, _) = registry.complete("ffff", 0, own).unwrap_err();
        assert_eq!(status, 404);
    }

    #[test]
    fn a_restarted_registry_resumes_from_its_checkpoints() {
        let cfg = config("recover");
        let expected = {
            let registry = Registry::open(cfg.clone()).unwrap();
            registry.submit(&smoke_json()).unwrap();
            // Complete exactly the first two shards (one checkpoint
            // boundary with checkpoint_every=2), then drop the registry
            // as a simulated kill.
            for _ in 0..2 {
                let claim = registry.claim().unwrap();
                let out = run_shard(&claim.spec, claim.shard, &serial_runner).unwrap();
                registry
                    .complete(&claim.id, claim.shard, out.partial)
                    .unwrap();
            }
            let spec = CampaignSpec::smoke();
            let direct = run_campaign(&spec, &RunOptions::default(), &serial_runner).unwrap();
            checkpoint::encode(&direct.aggregate)
        };

        let registry = Registry::open(cfg).unwrap();
        let resumed = registry.submit(&smoke_json()).unwrap();
        assert!(resumed.resumed);
        assert_eq!(resumed.shards_done, 2, "recovered at the checkpoint");
        assert_eq!(drain(&registry), expected, "resume is bit-exact");
    }

    #[test]
    fn a_foreign_checkpoint_is_refused_not_resumed() {
        let cfg = config("mismatch");
        let registry = Registry::open(cfg.clone()).unwrap();
        let submitted = registry.submit(&smoke_json()).unwrap();
        drop(registry);

        // Overwrite the checkpoint with one from a different campaign.
        let mut other = CampaignSpec::smoke();
        other.seed ^= 1;
        let foreign = FleetAggregate::new(&other);
        checkpoint::save(
            &cfg.state_dir.join(format!("{}.ckpt", submitted.id)),
            &foreign,
        )
        .unwrap();

        match Registry::open(cfg) {
            Err(message) => assert!(message.contains("CheckpointMismatch"), "{message}"),
            Ok(_) => panic!("foreign checkpoint must be refused"),
        }
    }

    #[test]
    fn cancel_stops_claims_and_keeps_the_checkpoint() {
        let registry = Registry::open(config("cancel")).unwrap();
        let submitted = registry.submit(&smoke_json()).unwrap();
        let claim = registry.claim().unwrap();
        let out = run_shard(&claim.spec, claim.shard, &serial_runner).unwrap();
        registry
            .complete(&claim.id, claim.shard, out.partial)
            .unwrap();

        let progress = registry.cancel(&submitted.id).unwrap();
        assert!(progress.contains("\"phase\":\"cancelled\""), "{progress}");
        assert!(
            registry.claim().is_none(),
            "cancelled campaigns hand out nothing"
        );
        let (status, _) = registry.result(&submitted.id).unwrap_err();
        assert_eq!(status, 409);
        assert!(!registry.has_open_work());
    }

    #[test]
    fn malformed_and_invalid_specs_are_bad_requests() {
        let registry = Registry::open(config("badspec")).unwrap();
        for body in ["{", "[]", "{\"name\":\"x\"}"] {
            match registry.submit(body) {
                Err(SubmitError::BadSpec(_)) => {}
                other => panic!("{body:?} should be BadSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn metrics_page_is_scrape_conformant_with_campaigns_resident() {
        let registry = Registry::open(config("metrics")).unwrap();
        registry.submit(&smoke_json()).unwrap();
        drain(&registry);
        let page = registry.metrics_page();
        eavs_obs::check_conformance(&page).unwrap();
        assert!(
            page.contains("eavsd_campaigns{phase=\"complete\"} 1"),
            "{page}"
        );
        assert!(page.contains("eavsd_session_runs_total"), "{page}");
    }
}
