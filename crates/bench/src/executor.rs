//! The one job queue every experiment sweep, figure batch and fleet shard
//! runs on: a `Mutex<VecDeque<Job>>` and a `Condvar` ([`pool`], sized by
//! `EAVS_JOBS`, default = available cores). `EAVS_JOBS − 1` background
//! threads pop it; the N-th worker is whichever caller waits on a
//! [`Batch`], which runs queued jobs (its own or anyone's) until its
//! results are in and parks only while the queue is empty. That keeps
//! nested batches deadlock-free at any pool size.
//!
//! [`Batch::spawn`] streams one job at a time and [`Batch::join`] returns
//! the results in spawn order. A spawn that finds one unrun job queued per
//! background thread runs its job inline instead, so a caller never
//! buffers a batch and a one-worker pool runs every job inline, in order.
//! Jobs are deterministic: the worker count changes wall-clock, never
//! output.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Threads parked in [`Executor::help_until`].
    parked: usize,
}

/// A job queue with its background threads; see the module docs.
pub struct Executor {
    queue: Mutex<Queue>,
    wake: Condvar,
    background: usize,
}

impl Executor {
    /// An executor with `workers` threads that run jobs (at least one):
    /// `workers − 1` background threads plus whichever caller waits on a
    /// batch. It lives, threads and all, as long as the process.
    fn with_workers(workers: usize) -> &'static Executor {
        let executor: &'static Executor = Box::leak(Box::new(Executor {
            queue: Mutex::default(),
            wake: Condvar::new(),
            background: workers.max(1) - 1,
        }));
        for i in 0..executor.background {
            std::thread::Builder::new()
                .name(format!("eavs-worker-{i}"))
                .spawn(move || executor.help_until(|| None::<()>))
                .expect("spawn executor worker");
        }
        executor
    }

    /// Number of threads that run jobs, the waiting caller included.
    pub fn workers(&self) -> usize {
        self.background + 1
    }

    /// An empty batch on this executor.
    pub fn batch<T: Send + 'static>(&'static self) -> Batch<T> {
        Batch {
            executor: self,
            labels: Vec::new(),
            done: Arc::new(Done {
                slots: Mutex::new(Vec::new()),
                pending: AtomicUsize::new(0),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("executor queue poisoned")
    }

    /// Runs queued jobs on the calling thread until `poll` yields a value,
    /// parking while the queue is empty. `poll` runs under the queue lock
    /// and again after every job finishes anywhere in the pool, so it may
    /// wait on anything a job makes true, but must not wait on the pool.
    pub(crate) fn help_until<R>(&self, mut poll: impl FnMut() -> Option<R>) -> R {
        let mut queue = self.lock();
        loop {
            if let Some(value) = poll() {
                return value;
            }
            if let Some(job) = queue.jobs.pop_front() {
                drop(queue);
                job();
                queue = self.lock();
                self.wake_parked(&queue);
            } else {
                queue.parked += 1;
                queue = self.wake.wait(queue).expect("executor queue poisoned");
                queue.parked -= 1;
            }
        }
    }

    fn wake_parked(&self, queue: &Queue) {
        if queue.parked > 0 {
            self.wake.notify_all();
        }
    }
}

/// The results of a batch's jobs by spawn index, and how many are unrun.
struct Done<T> {
    slots: Mutex<Vec<Option<std::thread::Result<T>>>>,
    pending: AtomicUsize,
}

/// A streamed batch of labeled jobs: [`Batch::spawn`] each one, then
/// [`Batch::join`] for the results in spawn order.
pub struct Batch<T> {
    executor: &'static Executor,
    labels: Vec<String>,
    done: Arc<Done<T>>,
}

impl<T: Send + 'static> Batch<T> {
    /// Hands `job` to the pool and returns its index in the batch. When
    /// the queue already holds one unrun job per background thread, `job`
    /// runs here before `spawn` returns.
    pub fn spawn<F>(&mut self, label: String, job: F) -> usize
    where
        F: FnOnce() -> T + Send + 'static,
    {
        let index = self.labels.len();
        self.labels.push(label);
        self.done
            .slots
            .lock()
            .expect("batch results poisoned")
            .push(None);
        self.done.pending.fetch_add(1, Ordering::AcqRel);
        let done = Arc::clone(&self.done);
        let run = move || {
            let outcome = catch_unwind(AssertUnwindSafe(job));
            done.slots.lock().expect("batch results poisoned")[index] = Some(outcome);
            done.pending.fetch_sub(1, Ordering::AcqRel);
        };
        let executor = self.executor;
        let mut queue = executor.lock();
        if queue.jobs.len() < executor.background {
            queue.jobs.push_back(Box::new(run));
            executor.wake_parked(&queue);
        } else {
            drop(queue);
            run();
            executor.wake_parked(&executor.lock());
        }
        index
    }

    /// Helps the pool until every job of the batch has finished, then
    /// returns their results in spawn order. If a job panicked, the first
    /// such panic is re-raised here with the job's label.
    pub fn join(self) -> Vec<T> {
        let done = &self.done;
        self.executor
            .help_until(|| (done.pending.load(Ordering::Acquire) == 0).then_some(()));
        let slots = std::mem::take(&mut *done.slots.lock().expect("batch results poisoned"));
        slots
            .into_iter()
            .zip(self.labels)
            .map(
                |(slot, label)| match slot.expect("a finished job stored its result") {
                    Ok(value) => value,
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        panic!("experiment job '{label}' panicked: {msg}");
                    }
                },
            )
            .collect()
    }
}

/// Reads a numeric knob from the environment: `Some(n)` when `name` is
/// set and parses, `None` (after a warning on garbage) otherwise.
///
/// Every `EAVS_*` tuning variable — `EAVS_JOBS` here, `EAVS_CHAOS_CASES`
/// in the chaos fuzz, the daemon address (`EAVS_DAEMON_ADDR`), the
/// golden-pass trace sink (`EAVS_NULL_TRACE`) and the experiment output
/// directory (`EAVS_RESULTS_DIR`) — goes through this one helper so they
/// all share the trim/parse/warn behavior. The warning is emitted once
/// per variable name: sweeps consult knobs per job, and a malformed
/// value must not flood stderr thousands of times. [`REGISTERED_KNOBS`]
/// is the authoritative list.
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
pub const REGISTERED_KNOBS: [&str; 5] = [
    "EAVS_JOBS",
    "EAVS_CHAOS_CASES",
    "EAVS_DAEMON_ADDR",
    "EAVS_NULL_TRACE",
    "EAVS_RESULTS_DIR",
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

/// Records that `name` warned; `true` only on the first call per name.
fn first_warning_for(name: &str) -> bool {
    static WARNED: OnceLock<Mutex<std::collections::BTreeSet<String>>> = OnceLock::new();
    WARNED
        .get_or_init(|| Mutex::new(std::collections::BTreeSet::new()))
        .lock()
        .expect("env knob warning set poisoned")
        .insert(name.to_string())
}

/// Threads that run jobs, the waiting caller included: `EAVS_JOBS` if
/// set (clamped to ≥ 1), else available cores.
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
    static POOL: OnceLock<&'static Executor> = OnceLock::new();
    POOL.get_or_init(|| Executor::with_workers(configured_workers()))
}

/// Runs independent labeled jobs as one batch on the shared pool and
/// returns their results in input order. If a job panics, the panic is
/// re-raised on the caller with the job's label in the message, once the
/// rest of the batch has finished.
pub fn run_parallel_labeled<T, F>(jobs: Vec<(String, F)>) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let mut batch = pool().batch();
    for (label, job) in jobs {
        batch.spawn(label, job);
    }
    batch.join()
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
    use std::collections::BTreeSet;
    use std::time::Duration;

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

    /// Collects every `"EAVS_…"` literal passed to `env_knob` or
    /// `std::env::var` in the `.rs` files under `dir`, skipping
    /// `target/` and hidden directories and the `EAVS_TEST_*` fixtures.
    fn scan_knob_reads(dir: &std::path::Path, found: &mut BTreeSet<String>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .expect("readable source dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    scan_knob_reads(&path, found);
                }
            } else if name.ends_with(".rs") {
                let text = std::fs::read_to_string(&path).expect("utf-8 source");
                for (at, _) in text.match_indices("\"EAVS_") {
                    let literal = &text[at + 1..];
                    let knob = &literal[..literal.find('"').expect("closed literal")];
                    let Some(callee) = text[..at].trim_end().strip_suffix('(') else {
                        continue;
                    };
                    let callee = callee.trim_end();
                    // `env_knob::<T>(…)`: drop the turbofish.
                    let callee = match callee.strip_suffix('>') {
                        Some(c) => &c[..c.rfind("::<").unwrap_or(c.len())],
                        None => callee,
                    };
                    let reads = ["env_knob", "env::var"];
                    if reads.iter().any(|r| callee.ends_with(r)) && !knob.starts_with("EAVS_TEST_")
                    {
                        found.insert(knob.to_owned());
                    }
                }
            }
        }
    }

    #[test]
    fn knob_registry_matches_the_source_and_the_readme() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let registered: BTreeSet<String> = REGISTERED_KNOBS.map(str::to_owned).into();
        assert_eq!(registered.len(), REGISTERED_KNOBS.len(), "duplicate knob");
        // Every `EAVS_*` variable the code reads is registered, and every
        // registered name is read somewhere.
        let mut read = BTreeSet::new();
        scan_knob_reads(&root, &mut read);
        assert_eq!(
            read, registered,
            "knobs read by the source vs REGISTERED_KNOBS"
        );
        // The README's knob table rows are exactly the registry.
        let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
        let documented: BTreeSet<String> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| `EAVS_"))
            .map(|rest| {
                format!(
                    "EAVS_{}",
                    &rest[..rest.find('`').expect("closed code span")]
                )
            })
            .collect();
        assert_eq!(
            documented, registered,
            "README knob table vs REGISTERED_KNOBS"
        );
    }

    #[test]
    fn every_registered_knob_warns_once() {
        // The once-per-name latch must hold for every registered knob, so
        // a sweep that consults a malformed knob per job emits one
        // warning, not thousands. The latch is exercised directly
        // (setting the real variables would race with parallel tests that
        // read them).
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

    /// Counts live instances, so a test can see how many jobs a caller
    /// holds unrun.
    struct Payload(Arc<AtomicUsize>);

    impl Payload {
        fn new(live: &Arc<AtomicUsize>) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Payload(Arc::clone(live))
        }
    }

    impl Drop for Payload {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn one_worker_runs_each_job_inline_in_input_order() {
        let executor = Executor::with_workers(1);
        assert_eq!(executor.workers(), 1);
        let caller = std::thread::current().id();
        let live = Arc::new(AtomicUsize::new(0));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut batch = executor.batch();
        for i in 0..50usize {
            let payload = Payload::new(&live);
            assert_eq!(live.load(Ordering::SeqCst), 1, "job {i}: one unrun job");
            let order = Arc::clone(&order);
            batch.spawn(format!("job {i}"), move || {
                let _payload = payload;
                assert_eq!(std::thread::current().id(), caller, "job {i} ran inline");
                order.lock().unwrap().push(i);
                i * 3
            });
            assert_eq!(
                live.load(Ordering::SeqCst),
                0,
                "job {i} ran before spawn returned"
            );
        }
        assert_eq!(batch.join(), (0..50).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(*order.lock().unwrap(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn a_spawn_never_queues_more_jobs_than_background_threads() {
        // Two workers: one background thread, so at most one job waits in
        // the queue; with one running on it and one being built, three
        // payloads are alive at most.
        let executor = Executor::with_workers(2);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut batch = executor.batch();
        for i in 0..40usize {
            let payload = Payload::new(&live);
            peak.fetch_max(live.load(Ordering::SeqCst), Ordering::SeqCst);
            batch.spawn(format!("job {i}"), move || {
                let _payload = payload;
                std::thread::sleep(Duration::from_micros(200));
                i
            });
        }
        assert_eq!(batch.join(), (0..40).collect::<Vec<_>>());
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {peak:?}");
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn nested_batches_finish_on_one_and_two_threads() {
        for workers in [1, 2] {
            let executor = Executor::with_workers(workers);
            let mut outer = executor.batch();
            for o in 0..4usize {
                outer.spawn(format!("outer {o}"), move || {
                    let mut inner = executor.batch();
                    for i in 0..4usize {
                        inner.spawn(format!("inner {o}.{i}"), move || o * 10 + i);
                    }
                    inner.join().into_iter().sum::<usize>()
                });
            }
            assert_eq!(outer.join(), vec![6, 46, 86, 126], "{workers} worker(s)");
        }
    }

    #[test]
    fn a_panic_is_raised_with_its_label_after_the_rest_of_the_batch() {
        for workers in [1, 2, 4] {
            let executor = Executor::with_workers(workers);
            let finished = Arc::new(AtomicUsize::new(0));
            let mut batch = executor.batch();
            batch.spawn("governor eavs @ 60fps".to_string(), || -> usize {
                panic!("boom")
            });
            for i in 0..8usize {
                let finished = Arc::clone(&finished);
                batch.spawn(format!("job {i}"), move || {
                    std::thread::sleep(Duration::from_millis(2));
                    finished.fetch_add(1, Ordering::SeqCst);
                    i
                });
            }
            let payload =
                catch_unwind(AssertUnwindSafe(|| batch.join())).expect_err("panic must propagate");
            assert_eq!(finished.load(Ordering::SeqCst), 8, "{workers} worker(s)");
            let msg = panic_message(payload.as_ref());
            assert!(
                msg.contains("governor eavs @ 60fps") && msg.contains("boom"),
                "panic message should name the job and cause, got: {msg}"
            );
        }
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
