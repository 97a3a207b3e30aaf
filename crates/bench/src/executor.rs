//! Bounded work-stealing executor shared by every experiment sweep.
//!
//! One process-wide pool of worker threads (sized by `EAVS_JOBS`, default =
//! available cores) services every [`run_parallel`] /
//! [`run_parallel_labeled`] call, so nested sweeps and back-to-back figures
//! fan out through the same queues without per-figure thread churn or
//! barriers. Each worker owns a deque: it pops its own work from the front
//! and steals from other workers when idle. Callers waiting on results help
//! execute queued jobs instead of blocking, which both keeps cores busy and
//! makes nested `run_parallel` calls deadlock-free even on a single-worker
//! pool.
//!
//! Results are always returned in input order, and every job is
//! deterministic, so sweep parallelism never changes experiment output.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// One deque per worker. The owner pops from the front; thieves (other
    /// workers and helping callers) steal from the back.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs submitted but not yet taken by anyone.
    queued: AtomicUsize,
    /// Round-robin cursor for spreading submissions across deques.
    submit_cursor: AtomicUsize,
    /// Parking lot for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    /// Take one queued job, preferring deque `start`. Used by workers (their
    /// own deque first) and by helping callers.
    fn take(&self, start: usize) -> Option<Job> {
        let n = self.queues.len();
        for k in 0..n {
            let i = (start + k) % n;
            let job = {
                let mut q = self.queues[i].lock().expect("executor queue poisoned");
                if k == 0 {
                    q.pop_front()
                } else {
                    q.pop_back()
                }
            };
            if let Some(job) = job {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }

    fn submit(&self, job: Job) {
        let i = self.submit_cursor.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[i]
            .lock()
            .expect("executor queue poisoned")
            .push_back(job);
        self.queued.fetch_add(1, Ordering::SeqCst);
        // Notify under the idle lock so a worker checking `queued == 0`
        // cannot miss the wakeup between its check and its wait.
        let _guard = self.idle.lock().expect("executor idle lock poisoned");
        self.wake.notify_all();
    }
}

/// The process-wide sweep executor.
pub struct Executor {
    shared: Arc<Shared>,
    workers: usize,
}

impl Executor {
    fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            submit_cursor: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("eavs-worker-{i}"))
                .spawn(move || worker_loop(&shared, i))
                .expect("spawn executor worker");
        }
        Executor { shared, workers }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        match shared.take(me) {
            Some(job) => job(),
            None => {
                let guard = shared.idle.lock().expect("executor idle lock poisoned");
                if shared.queued.load(Ordering::SeqCst) == 0 {
                    // Timed wait purely as a belt-and-braces against a missed
                    // notify; correctness comes from checking under the lock.
                    let _ = shared
                        .wake
                        .wait_timeout(guard, Duration::from_millis(100))
                        .expect("executor idle lock poisoned");
                }
            }
        }
    }
}

/// Reads a numeric knob from the environment: `Some(n)` when `name` is
/// set and parses, `None` (after a warning on garbage) otherwise.
///
/// Every `EAVS_*` tuning variable — `EAVS_JOBS` here, `EAVS_CHAOS_CASES`
/// in the chaos fuzz, the fleet campaign knobs, the daemon knobs
/// (`EAVS_DAEMON_ADDR`, `EAVS_DAEMON_THREADS`, `EAVS_CHECKPOINT_EVERY`),
/// the fleet-prior file (`EAVS_PRIOR_PATH`) and the golden-pass trace
/// sink (`EAVS_NULL_TRACE`) —
/// goes through this one helper so they all share the trim/parse/warn
/// behavior. The warning is emitted once per variable name: sweeps
/// consult knobs per job, and a malformed value must not flood stderr
/// thousands of times. [`REGISTERED_KNOBS`] is the authoritative list.
pub fn env_knob<T: std::str::FromStr>(name: &str) -> Option<T> {
    let v = std::env::var(name).ok()?;
    match v.trim().parse::<T>() {
        Ok(n) => Some(n),
        Err(_) => {
            if first_warning_for(name) {
                eprintln!("warning: ignoring unparsable {name}={v:?}");
            }
            None
        }
    }
}

/// Every `EAVS_*` tuning variable read through [`env_knob`],
/// registered in one place so the warn-once contract can be proven for
/// each of them (a malformed value warns exactly once per variable, no
/// matter how many jobs consult it).
pub const REGISTERED_KNOBS: [&str; 9] = [
    "EAVS_JOBS",
    "EAVS_CHAOS_CASES",
    "EAVS_SESSION_CACHE_MB",
    "EAVS_POWER_TAIL_MS",
    "EAVS_DAEMON_ADDR",
    "EAVS_DAEMON_THREADS",
    "EAVS_CHECKPOINT_EVERY",
    "EAVS_PRIOR_PATH",
    "EAVS_NULL_TRACE",
];

/// Default `eavsd` listen/connect address from `EAVS_DAEMON_ADDR`
/// (host:port). Consulted by `eavsd` when `--addr` is absent and by the
/// `eavsctl` daemon-client subcommands when `--addr` is absent, so one
/// exported variable points a whole shell session at the same daemon.
pub fn daemon_addr() -> Option<String> {
    // `String::from_str` is infallible, so the warn-once path of
    // `env_knob` never triggers here; it is still routed through the
    // helper to keep every registered knob on one code path.
    env_knob::<String>("EAVS_DAEMON_ADDR").filter(|s| !s.is_empty())
}

/// `eavsd` HTTP thread-pool size from `EAVS_DAEMON_THREADS`.
pub fn daemon_threads() -> Option<usize> {
    env_knob::<usize>("EAVS_DAEMON_THREADS")
}

/// Checkpoint cadence (shards between writes) from
/// `EAVS_CHECKPOINT_EVERY`. Read by `eavsd` when `--checkpoint-every`
/// is absent; `eavsctl fleet` keeps its explicit flag.
pub fn checkpoint_every() -> Option<u64> {
    env_knob::<u64>("EAVS_CHECKPOINT_EVERY")
}

/// Radio tail-timer override from `EAVS_POWER_TAIL_MS`, milliseconds.
///
/// Consulted by `eavsctl`'s `--power` presets when building a
/// [`eavs_power::DevicePowerModel`], so a fleet operator can sweep the
/// RRC inactivity timer without touching the spec. Goes through
/// [`env_knob`], so a malformed value warns once and falls back to the
/// preset's timer.
pub fn power_tail_ms() -> Option<u64> {
    env_knob::<u64>("EAVS_POWER_TAIL_MS")
}

/// Fleet-prior file location from `EAVS_PRIOR_PATH`.
///
/// Consulted by `eavsd` for where to persist (and serve) the fleet
/// prior store when `--prior-path` is absent, so one exported variable
/// points the daemon and `eavsctl` scripts at the same
/// `eavs-prior/v1` file.
pub fn prior_path() -> Option<String> {
    env_knob::<String>("EAVS_PRIOR_PATH").filter(|s| !s.is_empty())
}

/// Records that `name` warned; `true` only on the first call per name.
fn first_warning_for(name: &str) -> bool {
    static WARNED: OnceLock<Mutex<std::collections::BTreeSet<String>>> = OnceLock::new();
    WARNED
        .get_or_init(|| Mutex::new(std::collections::BTreeSet::new()))
        .lock()
        .expect("env knob warning set poisoned")
        .insert(name.to_string())
}

/// Pool size: `EAVS_JOBS` if set (clamped to ≥ 1), else available cores.
fn configured_workers() -> usize {
    if let Some(n) = env_knob::<usize>("EAVS_JOBS") {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// The shared pool, created on first use.
pub fn pool() -> &'static Executor {
    static POOL: OnceLock<Executor> = OnceLock::new();
    POOL.get_or_init(|| Executor::with_workers(configured_workers()))
}

/// Runs independent labeled jobs on the shared pool and returns their results
/// in input order. If a job panics, the panic is re-raised on the caller with
/// the job's label in the message.
///
/// Each simulation job is single-threaded and deterministic, so the sweep
/// parallelism never changes results — only wall-clock.
pub fn run_parallel_labeled<T, F>(jobs: Vec<(String, F)>) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let executor = pool();
    let (tx, rx) = channel::<(usize, std::thread::Result<T>)>();
    let mut labels = Vec::with_capacity(n);
    for (index, (label, job)) in jobs.into_iter().enumerate() {
        labels.push(label);
        let tx = tx.clone();
        executor.shared.submit(Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(job));
            // The receiver may have bailed after an earlier panic.
            let _ = tx.send((index, outcome));
        }));
    }
    drop(tx);

    let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
    let mut received = 0;
    while received < n {
        match rx.try_recv() {
            Ok((index, outcome)) => {
                slots[index] = Some(outcome);
                received += 1;
            }
            Err(TryRecvError::Empty) => {
                // Help drain the pool instead of blocking: this may well run
                // one of our own jobs, and is what makes nested calls safe.
                if let Some(job) = executor.shared.take(0) {
                    job();
                } else {
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok((index, outcome)) => {
                            slots[index] = Some(outcome);
                            received += 1;
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
            Err(TryRecvError::Disconnected) => break,
        }
    }

    slots
        .into_iter()
        .zip(labels)
        .map(|(slot, label)| {
            match slot.unwrap_or_else(|| panic!("job '{label}' was dropped by the executor")) {
                Ok(value) => value,
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    panic!("experiment job '{label}' panicked: {msg}");
                }
            }
        })
        .collect()
}

/// [`run_parallel_labeled`] with positional labels (`job 0`, `job 1`, ...).
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    run_parallel_labeled(
        jobs.into_iter()
            .enumerate()
            .map(|(i, job)| (format!("job {i}"), job))
            .collect(),
    )
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knob_parses_trims_and_rejects() {
        // Unique variable names so parallel tests cannot race on them.
        std::env::set_var("EAVS_TEST_KNOB_OK", " 12 ");
        assert_eq!(env_knob::<u64>("EAVS_TEST_KNOB_OK"), Some(12));
        std::env::set_var("EAVS_TEST_KNOB_BAD", "twelve");
        assert_eq!(env_knob::<u64>("EAVS_TEST_KNOB_BAD"), None);
        assert_eq!(env_knob::<u64>("EAVS_TEST_KNOB_UNSET"), None);
    }

    #[test]
    fn malformed_knob_warns_only_once() {
        // The warning itself goes to stderr; the once-per-name latch is
        // what we can observe directly.
        assert!(first_warning_for("EAVS_TEST_KNOB_ONCE"));
        assert!(!first_warning_for("EAVS_TEST_KNOB_ONCE"));
        assert!(!first_warning_for("EAVS_TEST_KNOB_ONCE"));
        // A different name gets its own first warning.
        assert!(first_warning_for("EAVS_TEST_KNOB_ONCE_B"));
        // And a malformed knob still parses as None every time.
        std::env::set_var("EAVS_TEST_KNOB_ONCE_C", "not-a-number");
        assert_eq!(env_knob::<u64>("EAVS_TEST_KNOB_ONCE_C"), None);
        assert_eq!(env_knob::<u64>("EAVS_TEST_KNOB_ONCE_C"), None);
    }

    #[test]
    fn knob_registry_matches_the_documented_list() {
        // The docs (env_knob's rustdoc and the README knob table)
        // enumerate exactly these variables; a knob added to the
        // code without updating the registry — or vice versa — must fail
        // here, not silently drift.
        let documented = [
            "EAVS_JOBS",
            "EAVS_CHAOS_CASES",
            "EAVS_SESSION_CACHE_MB",
            "EAVS_POWER_TAIL_MS",
            "EAVS_DAEMON_ADDR",
            "EAVS_DAEMON_THREADS",
            "EAVS_CHECKPOINT_EVERY",
            "EAVS_PRIOR_PATH",
            "EAVS_NULL_TRACE",
        ];
        assert_eq!(REGISTERED_KNOBS, documented);
        // Registry hygiene: EAVS_-prefixed and duplicate-free.
        let unique: std::collections::BTreeSet<&str> = REGISTERED_KNOBS.into_iter().collect();
        assert_eq!(unique.len(), REGISTERED_KNOBS.len());
        for name in REGISTERED_KNOBS {
            assert!(name.starts_with("EAVS_"), "{name} must be EAVS_-prefixed");
        }
    }

    #[test]
    fn every_registered_knob_warns_once() {
        // The once-per-name latch must hold for every registered knob —
        // including the power tail-timer override — so a sweep that
        // consults a malformed knob per job emits one warning, not
        // thousands. The latch is exercised directly (setting the real
        // variables would race with parallel tests that read them).
        for name in REGISTERED_KNOBS {
            let latch = format!("{name}_WARN_ONCE_TEST");
            assert!(first_warning_for(&latch), "{name}: first call must warn");
            assert!(
                !first_warning_for(&latch),
                "{name}: second call must be silent"
            );
            assert!(
                !first_warning_for(&latch),
                "{name}: later calls must stay silent"
            );
        }
        // The knobs are distinct names, so each got its own first warning
        // above; a repeat sweep over all of them stays silent.
        for name in REGISTERED_KNOBS {
            assert!(!first_warning_for(&format!("{name}_WARN_ONCE_TEST")));
        }
    }

    #[test]
    fn empty_job_list() {
        let out: Vec<u32> = run_parallel(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn results_in_input_order_at_scale() {
        let jobs: Vec<_> = (0..200usize).map(|i| move || i * 3).collect();
        assert_eq!(
            run_parallel(jobs),
            (0..200).map(|i| i * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_run_parallel_does_not_deadlock() {
        let jobs: Vec<_> = (0..4usize)
            .map(|outer| {
                move || {
                    let inner: Vec<_> = (0..4usize).map(|i| move || outer * 10 + i).collect();
                    run_parallel(inner).into_iter().sum::<usize>()
                }
            })
            .collect();
        let sums = run_parallel(jobs);
        assert_eq!(sums, vec![6, 46, 86, 126]);
    }

    #[test]
    fn panic_carries_job_label() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_parallel_labeled(vec![
                (
                    "fine".to_string(),
                    Box::new(|| 1u32) as Box<dyn FnOnce() -> u32 + Send>,
                ),
                (
                    "governor eavs @ 60fps".to_string(),
                    Box::new(|| -> u32 { panic!("boom") }) as Box<dyn FnOnce() -> u32 + Send>,
                ),
            ]);
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = panic_message(payload.as_ref());
        assert!(
            msg.contains("governor eavs @ 60fps") && msg.contains("boom"),
            "panic message should name the job and cause, got: {msg}"
        );
    }
}
