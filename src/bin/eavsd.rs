//! `eavsd` — resident fleet-campaign daemon.
//!
//! Coordinator mode (default) serves the HTTP/JSON control plane and
//! runs shards on in-process workers; `--worker <addr>` turns the
//! process into a remote shard worker for a coordinator elsewhere.
//! Either way the shards run on the same pooled, cached runner as
//! `eavsctl fleet`, so results are byte-identical to a local run.

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use eavs::daemon::worker::run_worker;
use eavs::daemon::{Daemon, DaemonOptions};

const USAGE: &str = "\
eavsd — resident fleet-campaign daemon (see `eavsctl help` for clients)

USAGE:
  eavsd [OPTIONS]                    serve campaigns until POST /shutdown
  eavsd --worker HOST:PORT           run shards for a coordinator elsewhere

OPTIONS (with defaults):
  --addr 127.0.0.1:7026   listen address ($EAVS_DAEMON_ADDR overrides the
                          default; port 0 picks a free port)
  --state-dir eavsd-state campaign specs + checkpoints live here; a killed
                          daemon restarted on the same dir resumes every
                          in-flight campaign from its last checkpoint
  --threads 4             HTTP serving threads
  --workers 1             in-process shard workers (0 = coordinator only,
                          shards then run on remote --worker processes)
  --checkpoint-every 8    shards between checkpoint writes
  --lease-secs 60         claimed-shard lease before re-handout
  --prior-path FILE       fleet workload-prior file (default
                          <state-dir>/fleet.prior); every campaign
                          completing here folds its trained prior in

ENDPOINTS:
  POST   /campaigns                submit a CampaignSpec JSON
  GET    /campaigns                list campaigns
  GET    /campaigns/{id}           live progress (shards, sessions/sec, lanes)
  GET    /campaigns/{id}/result    final aggregate (eavs-fleet-checkpoint/v2)
  DELETE /campaigns/{id}           cancel at the next shard boundary
  GET    /priors                   resident fleet prior (eavs-prior/v1 text)
  POST   /priors                   merge an eavs-prior/v1 document in
  GET    /metrics                  Prometheus text (0.0.4), all campaigns
  GET    /healthz                  liveness
  POST   /claim                    worker protocol: claim a shard (204 idle)
  POST   /campaigns/{id}/shards/{n}  worker protocol: deliver a partial
  POST   /shutdown                 graceful stop (state survives on disk)
";

struct Flags {
    opts: DaemonOptions,
    worker: Option<String>,
}

fn parse(args: &[String]) -> Result<Option<Flags>, String> {
    let mut opts = DaemonOptions::new("eavsd-state");
    opts.addr = eavs::bench::executor::daemon_addr().unwrap_or_else(|| "127.0.0.1:7026".to_owned());
    let mut worker = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("--{name} needs a value"))
        };
        match flag.as_str() {
            "--help" | "-h" | "help" => return Ok(None),
            "--addr" => opts.addr = value("addr")?.clone(),
            "--state-dir" => opts.state_dir = value("state-dir")?.into(),
            "--threads" => opts.http_threads = num(value("threads")?, "threads")?,
            "--workers" => opts.workers = num(value("workers")?, "workers")?,
            "--checkpoint-every" => {
                opts.checkpoint_every = num(value("checkpoint-every")?, "checkpoint-every")?;
            }
            "--lease-secs" => {
                opts.lease = Duration::from_secs(num(value("lease-secs")?, "lease-secs")?);
            }
            "--prior-path" => opts.prior_path = Some(value("prior-path")?.into()),
            "--worker" => worker = Some(value("worker")?.clone()),
            other => return Err(format!("unknown flag {other:?}; try `eavsd --help`")),
        }
    }
    Ok(Some(Flags { opts, worker }))
}

fn num<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String> {
    raw.parse::<T>()
        .map_err(|_| format!("bad value {raw:?} for --{name}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse(&args) {
        Ok(Some(flags)) => flags,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("eavsd: {message}");
            return ExitCode::FAILURE;
        }
    };
    let runner: eavs::daemon::worker::SharedRunner = Arc::new(eavs::bench::fleet::pooled_runner);

    if let Some(coordinator) = flags.worker {
        println!("eavsd worker: executing shards for {coordinator}");
        // Runs until the process is killed; a shard lost to a kill is
        // re-leased by the coordinator and re-run elsewhere.
        run_worker(&coordinator, &runner, &AtomicBool::new(false));
        return ExitCode::SUCCESS;
    }

    let daemon = match Daemon::start(flags.opts, runner) {
        Ok(daemon) => daemon,
        Err(message) => {
            eprintln!("eavsd: {message}");
            return ExitCode::FAILURE;
        }
    };
    println!("eavsd listening on {}", daemon.addr());
    while !daemon.stop_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("eavsd: shutdown requested, draining");
    daemon.shutdown();
    ExitCode::SUCCESS
}
