//! Shared plumbing: metric records, sample statistics, digests, process
//! memory, provenance and the JSON the benchmark prints.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use eavs_daemon::json::{parse, Value};

/// Seed of the fixed guard populations the two simulated metrics
/// (`cpu_j_per_run`, `deadline_miss_rate`) are taken over. They guard the
/// paper's own quantities against behaviour changes, so they must repeat
/// exactly and must not move with `--seed`.
pub const GUARD_SEED: u64 = 0x6A7D;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Builds a [`Metric`].
pub fn metric(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit: unit.to_owned(),
        value,
    }
}

/// What one workload phase measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (session runs, campaigns, HTTP requests plus
    /// output checks — whatever the workload's loop issues).
    pub attempted: u64,
    /// Operations that failed: transport errors, non-2xx answers and
    /// output-check mismatches.
    pub failed: u64,
    /// The gated end-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// End-to-end metrics only some workloads have (printed, not gated).
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced phase only).
    pub layers: Vec<Metric>,
    /// Wall time of the measured loop, seconds.
    pub wall_s: f64,
    /// Wall time the layer metrics attribute, seconds (traced phase only).
    pub explained_s: f64,
    /// Human-readable findings printed with the layer table.
    pub notes: Vec<String>,
    /// Workers of the program's thread pool in the phase process (0 when
    /// the workload does not use the pool), for the provenance record.
    pub pool_workers: u64,
}

impl Outcome {
    /// Records one operation and whether it succeeded.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One-line JSON form, for handing an outcome from a child process to
    /// its parent.
    pub fn to_json(&self) -> String {
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"pool_workers\": {}, \"wall_s\": {}, \
             \"explained_s\": {}, \"end_to_end\": {}, \"extra\": {}, \"layers\": {}, \
             \"notes\": [{}]}}",
            self.attempted,
            self.failed,
            self.pool_workers,
            json_num(self.wall_s),
            json_num(self.explained_s),
            metrics_json(&self.end_to_end),
            metrics_json(&self.extra),
            metrics_json(&self.layers),
            notes.join(", "),
        )
    }

    /// Parses [`Outcome::to_json`] output.
    pub fn from_json(text: &str) -> Result<Outcome, String> {
        let v = parse(text)?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("missing {key}"))
        };
        let metrics = |key: &str| parse_metrics(v.get(key).ok_or(format!("missing {key}"))?);
        Ok(Outcome {
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            pool_workers: num("pool_workers")? as u64,
            wall_s: num("wall_s")?,
            explained_s: num("explained_s")?,
            end_to_end: metrics("end_to_end")?,
            extra: metrics("extra")?,
            layers: metrics("layers")?,
            notes: v
                .get("notes")
                .and_then(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|n| n.as_str().map(str::to_owned))
                .collect(),
        })
    }

    /// The value of a metric this outcome holds, in any of its lists.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.extra)
            .chain(&self.layers)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Words one calibration slice sorts.
const CAL_WORDS: usize = 4096;
/// Sorts per calibration slice: about 1 ms on the reference host when its
/// vCPU runs at full speed.
const CAL_SORTS: usize = 26;
/// What one calibration slice takes at reference speed, ms.
pub const CAL_REF_MS: f64 = 1.0;

/// One calibration slice: sorts the same [`CAL_WORDS`] pseudo-random words
/// [`CAL_SORTS`] times. It is the benchmark's own code, so no change to
/// the program moves it; only the host's speed does.
fn calibration_slice() -> f64 {
    static WORDS: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    let words = WORDS.get_or_init(|| (0..CAL_WORDS as u64).map(|i| mix(0xCA1, i)).collect());
    let mut v = words.clone();
    let t = Instant::now();
    for _ in 0..CAL_SORTS {
        v.copy_from_slice(words);
        v.sort_unstable();
        std::hint::black_box(&v);
    }
    ms(t.elapsed())
}

/// Host time rescaled to a reference speed.
///
/// The reference host is a 2-vCPU VM. Each vCPU, on its own, switches
/// between full speed and about 1.5× slower in spells of a fraction of a
/// second to minutes, while steal time stays near zero: the contention is
/// below the guest (a busy sibling hyperthread fits). A median over a run
/// then reports how much of the run fell into slow spells. So the measured
/// work is interleaved with calibration slices on the same thread, pinned
/// to one CPU where the workload allows (`main::phase_command`), and each
/// interval's host time is multiplied by `CAL_REF_MS / slice ms`, taking
/// the mean of the factors of the slices on either side. The slice's
/// sorting slows down with the host much as the simulator does (about
/// 1.5× against 1.55× in a slow spell), so what is left is the program's
/// own speed, in ms at the speed where one slice takes [`CAL_REF_MS`].
pub struct SpeedClock {
    /// Factor of the last slice.
    factor: f64,
    /// When the last slice ended.
    mark: Instant,
}

impl SpeedClock {
    /// Runs a first slice; the first interval starts when it ends.
    pub fn start() -> Self {
        let factor = CAL_REF_MS / calibration_slice();
        SpeedClock {
            factor,
            mark: Instant::now(),
        }
    }

    /// Ends the interval since the last slice and runs the next one.
    /// Returns the interval's host seconds and the factor that rescales
    /// them to the reference speed.
    pub fn lap(&mut self) -> (f64, f64) {
        let host_s = self.mark.elapsed().as_secs_f64();
        let next = CAL_REF_MS / calibration_slice();
        let factor = (self.factor + next) / 2.0;
        self.factor = next;
        self.mark = Instant::now();
        (host_s, factor)
    }

    /// [`SpeedClock::lap`] as reference-speed seconds.
    pub fn lap_s(&mut self) -> f64 {
        let (host_s, factor) = self.lap();
        host_s * factor
    }
}

/// Multiplies every timing among `metrics` (unit `ms` or `us`) by
/// `factor`, for layer probes timed in one stretch between two slices.
pub fn rescale_times(metrics: &mut [Metric], factor: f64) {
    for m in metrics
        .iter_mut()
        .filter(|m| m.unit == "ms" || m.unit == "us")
    {
        m.value *= factor;
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a 64: a stable digest for output checks (not a security hash).
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `f` `reps` times and returns the median wall time per call in
/// microseconds. For layer probes that take microseconds, where one
/// sample would be clock noise.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            us(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Parses a [`metrics_json`] object.
pub fn parse_metrics(v: &Value) -> Result<Vec<Metric>, String> {
    v.as_obj()
        .ok_or("metrics are not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok(metric(name, unit, value)),
                _ => Err(format!("malformed metric {name}")),
            }
        })
        .collect()
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Runs a command and returns its trimmed stdout, if it ran and succeeded.
/// `GIT_DIR` keeps git to the working directory's own `.git`, so a
/// checkout that is not a repository reads as unknown instead of git
/// searching the directories above it.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// What machine, toolchain, revision and settings produced a result, as a
/// JSON object.
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    pool_workers: u64,
    pinned_cpu: Option<usize>,
) -> String {
    let rev = command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match command_output("git", &["status", "--porcelain"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "null".to_owned(),
    };
    let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut knobs: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("EAVS_"))
        .collect();
    knobs.sort();
    let knobs: Vec<String> = knobs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"git_rev\": {}, \"git_dirty\": {dirty}, \"rustc\": {}, \"nproc\": {nproc}, \
         \"pool_workers\": {pool_workers}, \"pinned_cpu\": {}, \"eavs_knobs\": {{{}}}, \
         \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"unix_time\": {unix_time}}}",
        json_str(&rev),
        json_str(&rustc),
        pinned_cpu.map_or("null".to_owned(), |c| c.to_string()),
        knobs.join(", "),
        json_str(workload),
    )
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
