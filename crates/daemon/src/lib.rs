//! `eavs-daemon`: resident fleet-campaign service (`eavsd`).
//!
//! The fleet layer (`eavs-fleet`) runs a campaign as one foreground
//! process: shard, fold, checkpoint, exit. This crate keeps that exact
//! engine resident behind a small HTTP/JSON control plane so campaigns
//! can be submitted, watched, cancelled and scaled out without
//! restarting the process:
//!
//! * [`http`] — a hand-rolled, bounded HTTP/1.1 server on
//!   `std::net::TcpListener` (the workspace is offline; no tokio, no
//!   hyper). Oversized bodies are refused from the `Content-Length`
//!   header alone.
//! * [`json`] — a minimal JSON codec that keeps raw number lexemes so
//!   `u64` seeds and shortest-round-trip `f64`s survive a round trip
//!   bit-exactly; spec fingerprints are stable across the wire.
//! * [`codec`] — `CampaignSpec` ⇄ JSON, strict about unknown fields.
//! * [`registry`] — the coordinator: campaign table, shard leases,
//!   in-order fold, periodic `eavs-fleet-checkpoint/v2` persistence and
//!   crash recovery from the state directory.
//! * [`worker`] — shard execution, as in-process threads or as a
//!   remote `eavsd --worker` loop speaking the same claim protocol.
//! * [`routes`] — URL dispatch tying the above together.
//!
//! Determinism contract: a shard partial is a pure function of
//! `(spec, shard)` and the coordinator folds partials strictly in
//! shard order, so the result served by `GET /campaigns/{id}/result`
//! is byte-identical to a single-process `run_campaign` — at any
//! worker count, across kill/restart, and under duplicate deliveries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod http;
pub mod json;
pub mod registry;
pub mod routes;
pub mod worker;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use http::Server;
use registry::{Registry, RegistryConfig};
use worker::SharedRunner;

/// Everything needed to start a daemon.
pub struct DaemonOptions {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// HTTP serving threads.
    pub http_threads: usize,
    /// Directory for campaign specs and checkpoints.
    pub state_dir: PathBuf,
    /// Checkpoint cadence in shards.
    pub checkpoint_every: u64,
    /// In-process shard workers (0 = coordinator only; shards are then
    /// executed solely by remote `eavsd --worker` processes).
    pub workers: usize,
    /// Shard lease duration before an unfinished claim is handed out
    /// again.
    pub lease: Duration,
    /// Fleet-prior file override (`None` = `<state_dir>/fleet.prior`).
    pub prior_path: Option<PathBuf>,
}

impl DaemonOptions {
    /// Defaults matching `eavsd` flag defaults: loopback on an
    /// ephemeral port, 4 HTTP threads, one local worker, checkpoint
    /// every 8 shards, 60 s leases.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            http_threads: 4,
            state_dir: state_dir.into(),
            checkpoint_every: 8,
            workers: 1,
            lease: Duration::from_secs(60),
            prior_path: None,
        }
    }
}

/// A running daemon: HTTP server + registry + local workers.
pub struct Daemon {
    registry: Arc<Registry>,
    server: Server,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds, recovers persisted campaigns, and spawns local workers.
    pub fn start(opts: DaemonOptions, runner: SharedRunner) -> Result<Self, String> {
        let registry = Arc::new(Registry::open(RegistryConfig {
            state_dir: opts.state_dir,
            checkpoint_every: opts.checkpoint_every,
            lease: opts.lease,
            prior_path: opts.prior_path,
        })?);
        let stop = Arc::new(AtomicBool::new(false));
        let handler_registry = Arc::clone(&registry);
        let handler_stop = Arc::clone(&stop);
        let server = Server::bind(
            &opts.addr,
            opts.http_threads,
            Arc::new(move |req| routes::handle(&handler_registry, &handler_stop, req)),
        )?;
        let workers = worker::spawn_local_workers(
            Arc::clone(&registry),
            runner,
            opts.workers,
            Arc::clone(&stop),
        );
        Ok(Self {
            registry,
            server,
            stop,
            workers,
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> String {
        self.server.addr().to_string()
    }

    /// The coordinator, for in-process inspection (tests, eavsd main).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// True once `POST /shutdown` was received (or [`Daemon::shutdown`]
    /// began).
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// True while any resident campaign still has shards to fold.
    pub fn has_open_work(&self) -> bool {
        self.registry.has_open_work()
    }

    /// Stops local workers at their next shard boundary, then the HTTP
    /// server. Campaign state stays on disk; a restarted daemon resumes
    /// from the last checkpoint.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        for handle in self.workers {
            let _ = handle.join();
        }
        self.server.shutdown();
    }
}
