//! The fleet-level workload knowledge store.
//!
//! Campaigns fold every session's per-frame-type decode-cost summary
//! ([`FrameCycleStats`]) into a [`PriorStore`] keyed by *(title encode,
//! content profile)*. The store obeys the same bit-exact associativity
//! contract as `GovAggregate` — fixed-point sums and integer histogram
//! bins merge order-free — so the trained prior is byte-identical across
//! shard orderings and `EAVS_JOBS` settings.
//!
//! A store persists standalone in the versioned `eavs-prior/v1` line
//! format (same exact-roundtrip conventions as the campaign checkpoint:
//! floats as hex bit patterns, sums as raw fixed-point integers) and also
//! rides inside `eavs-fleet-checkpoint/v2`, so a killed campaign resumes
//! its knowledge along with its aggregates.
//!
//! [`PriorStore::session_prior`] projects the population posterior for
//! one key into the [`SessionPrior`] a session seeds its predictor with:
//! per frame type, the population mean cost plus a capped pseudo-count
//! evidence weight.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use eavs_core::framestats::{
    DenseTypeStats, FrameCycleStats, FrameCycleTally, PRIOR_HIST_BINS, PRIOR_HIST_HI_MCYCLES,
};
use eavs_core::predictor::SessionPrior;
use eavs_metrics::stats::ExactSum;
use eavs_video::frame::FrameType;

use crate::checkpoint::{push_hist_parts, push_sum, Lines};

/// Per-frame-type line keys of an entry, indexed like [`FrameCycleStats`].
const MC_KEYS: [&str; 3] = ["mc0", "mc1", "mc2"];
const MCSQ_KEYS: [&str; 3] = ["mcsq0", "mcsq1", "mcsq2"];
const HIST_KEYS: [&str; 3] = ["hist0", "hist1", "hist2"];

/// Format magic + version line of the standalone prior file.
pub const PRIOR_MAGIC: &str = "eavs-prior/v1";

/// Evidence-weight cap for [`PriorStore::session_prior`]: the prior acts
/// like at most this many local observations, so population knowledge
/// accelerates cold start without drowning out per-session evidence.
pub const PRIOR_WEIGHT_CAP: f64 = 8.0;

/// Mergeable per-(title, content) decode-cost knowledge.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PriorStore {
    /// `(title_key, content_name)` → summary. A `BTreeMap` so encoding
    /// order (and thus the persisted bytes) is canonical regardless of
    /// observation order.
    entries: BTreeMap<(String, String), FrameCycleStats>,
}

impl PriorStore {
    /// An empty store.
    pub fn new() -> Self {
        PriorStore::default()
    }

    /// Folds one session's frame statistics into the key's summary.
    pub fn observe(&mut self, title_key: &str, content: &str, stats: &FrameCycleStats) {
        if stats.is_empty() {
            return;
        }
        self.entries
            .entry((title_key.to_owned(), content.to_owned()))
            .or_default()
            .merge(stats);
    }

    /// Merges another store in. Order-free per key.
    pub fn merge(&mut self, other: &PriorStore) {
        for ((title, content), stats) in &other.entries {
            self.entries
                .entry((title.clone(), content.clone()))
                .or_default()
                .merge(stats);
        }
    }

    /// Number of (title, content) keys with evidence.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no key carries evidence.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total frames observed across all keys.
    pub fn total_frames(&self) -> u64 {
        self.entries
            .values()
            .map(FrameCycleStats::total_frames)
            .sum()
    }

    /// The keys and summaries, in canonical (sorted) order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str, &FrameCycleStats)> {
        self.entries
            .iter()
            .map(|((t, c), s)| (t.as_str(), c.as_str(), s))
    }

    /// The summary for one key, if any evidence exists.
    pub fn get(&self, title_key: &str, content: &str) -> Option<&FrameCycleStats> {
        self.entries
            .get(&(title_key.to_owned(), content.to_owned()))
    }

    /// Projects the population posterior for one key into the prior a
    /// session seeds its predictor with: per frame type, the population
    /// mean cost in cycles and an evidence weight of
    /// `min(count, PRIOR_WEIGHT_CAP)`. Unknown keys yield the empty
    /// prior (≡ no prior at all).
    pub fn session_prior(&self, title_key: &str, content: &str) -> SessionPrior {
        let Some(stats) = self.get(title_key, content) else {
            return SessionPrior::default();
        };
        let mut prior = SessionPrior::default();
        for t in FrameType::ALL {
            if let Some(mean_mc) = stats.mean_mcycles(t) {
                let weight = (stats.count(t) as f64).min(PRIOR_WEIGHT_CAP);
                prior.types[t.index()] = Some((mean_mc * 1e6, weight));
            }
        }
        prior
    }

    /// Approximate heap footprint in bytes. Grows with the *catalog*
    /// (distinct title × content keys), never with session count.
    pub fn approx_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|((t, c), s)| {
                (t.len() + c.len() + std::mem::size_of_val(s) + s.heap_bytes()) as u64
            })
            .sum()
    }
}

/// Appends the store's body lines (`prior N` + entries) to `out` — the
/// shared section format of the standalone file and the campaign
/// checkpoint.
pub(crate) fn encode_body(out: &mut String, store: &PriorStore) {
    let _ = writeln!(out, "prior {}", store.entries.len());
    for ((title, content), stats) in &store.entries {
        let _ = writeln!(out, "key {title} {content}");
        for ft in FrameType::ALL {
            let t = ft.index();
            push_sum(out, MC_KEYS[t], &stats.mcycles(ft));
            push_sum(out, MCSQ_KEYS[t], &stats.mcycles_sq(ft));
            push_hist_parts(
                out,
                HIST_KEYS[t],
                (0.0, PRIOR_HIST_HI_MCYCLES),
                (stats.underflow(ft), stats.overflow(ft)),
                (0..PRIOR_HIST_BINS).map(|i| stats.bin_count(ft, i)),
            );
        }
    }
}

/// Decodes the store's body after its `prior N` header line was consumed.
pub(crate) fn decode_body(lines: &mut Lines<'_>, entries: usize) -> Result<PriorStore, String> {
    let mut store = PriorStore::new();
    for _ in 0..entries {
        let key = lines.field("key")?;
        let (title, content) = key
            .split_once(' ')
            .ok_or(format!("prior: bad key line {key:?}"))?;
        let mut types: [DenseTypeStats; 3] = Default::default();
        for (t, ty) in types.iter_mut().enumerate() {
            let mcycles = cycle_sum(lines, MC_KEYS[t])?;
            let mcycles_sq = cycle_sum(lines, MCSQ_KEYS[t])?;
            let hist = lines.hist_parts(HIST_KEYS[t])?;
            // A summary has one fixed layout, so decoding is the one way
            // another could be offered.
            let bins = match <[u64; PRIOR_HIST_BINS]>::try_from(hist.bins.as_slice()) {
                Ok(bins)
                    if hist.lo.to_bits() == 0f64.to_bits()
                        && hist.hi.to_bits() == PRIOR_HIST_HI_MCYCLES.to_bits() =>
                {
                    bins
                }
                _ => {
                    return Err(format!(
                        "prior: {} layout [{}, {}) x{} is not [0, {PRIOR_HIST_HI_MCYCLES}) x{PRIOR_HIST_BINS}",
                        HIST_KEYS[t],
                        hist.lo,
                        hist.hi,
                        hist.bins.len()
                    ))
                }
            };
            *ty = DenseTypeStats {
                mcycles,
                mcycles_sq,
                underflow: hist.underflow,
                overflow: hist.overflow,
                bins,
            };
        }
        let stats = FrameCycleTally::from_types(types)
            .map_err(|e| format!("prior: key {title:?} {content:?}: {e}"))?
            .finish();
        if store
            .entries
            .insert((title.to_owned(), content.to_owned()), stats)
            .is_some()
        {
            return Err(format!("prior: duplicate key {title:?} {content:?}"));
        }
    }
    Ok(store)
}

/// Reads a cycle (or squared-cycle) sum. Frame costs are never negative,
/// so neither is an honest sum; a negative one would seed a predictor
/// with a negative cycle count.
fn cycle_sum(lines: &mut Lines<'_>, key: &str) -> Result<ExactSum, String> {
    let sum = lines.sum(key)?;
    if sum.raw().0 < 0 {
        return Err(format!("prior: negative {key} sum"));
    }
    Ok(sum)
}

/// Encodes a store as standalone `eavs-prior/v1` text.
pub fn encode(store: &PriorStore) -> String {
    let mut out = String::new();
    out.push_str(PRIOR_MAGIC);
    out.push('\n');
    encode_body(&mut out, store);
    out.push_str("end\n");
    out
}

/// Decodes standalone `eavs-prior/v1` text.
///
/// # Errors
///
/// Returns a message on version mismatch, truncation or malformed values.
pub fn decode(text: &str) -> Result<PriorStore, String> {
    let mut lines = Lines::new(text);
    let magic = lines.next()?;
    if magic != PRIOR_MAGIC {
        return Err(format!(
            "unsupported prior format {magic:?} (want {PRIOR_MAGIC:?})"
        ));
    }
    let entries: usize = lines.parse("prior")?;
    let store = decode_body(&mut lines, entries)?;
    lines.field("end")?;
    Ok(store)
}

/// Writes a prior file atomically (temp file + rename).
///
/// # Errors
///
/// Returns a message on I/O failure.
pub fn save(path: &Path, store: &PriorStore) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, encode(store))
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} to {}: {e}", tmp.display(), path.display()))
}

/// Loads a prior file.
///
/// # Errors
///
/// Returns a message on I/O failure or a corrupt/incompatible file.
pub fn load(path: &Path) -> Result<PriorStore, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read prior {}: {e}", path.display()))?;
    decode(&text).map_err(|e| format!("corrupt prior {} ({e})", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_core::framestats::FrameCycleTally;
    use eavs_cpu::freq::Cycles;

    fn stats(base_mc: f64, frames: u64) -> FrameCycleStats {
        let mut s = FrameCycleTally::default();
        for i in 0..frames {
            let t = FrameType::ALL[(i % 3) as usize];
            s.observe(t, Cycles::from_mega(base_mc + (i % 7) as f64));
        }
        s.finish()
    }

    fn populated() -> PriorStore {
        let mut store = PriorStore::new();
        store.observe("6000kbps-1920x1080@30", "film", &stats(20.0, 90));
        store.observe("6000kbps-1920x1080@30", "sport", &stats(26.0, 45));
        store.observe("3000kbps-1280x720@30", "film", &stats(9.0, 60));
        store
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let store = populated();
        let decoded = decode(&encode(&store)).unwrap();
        assert_eq!(decoded, store);
        assert_eq!(encode(&decoded), encode(&store));
        // Empty stores roundtrip too.
        let empty = PriorStore::new();
        assert_eq!(decode(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn negative_cycle_sums_are_rejected() {
        let text = encode(&populated());
        for key in ["mc0", "mcsq2"] {
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("{key} ")))
                .unwrap();
            let bad = text.replacen(line, &format!("{key} -875206582137000 80"), 1);
            let err = decode(&bad).unwrap_err();
            assert!(err.contains(&format!("negative {key} sum")), "{err}");
        }
    }

    #[test]
    fn foreign_histogram_layouts_are_errors_not_panics() {
        let text = encode(&populated());
        let line = text.lines().find(|l| l.starts_with("hist1 ")).unwrap();
        let fields: Vec<&str> = line.split(' ').collect();
        let (lo, hi) = (fields[1], fields[2]);
        let mut fewer_bins = fields.clone();
        fewer_bins.pop();
        let mut more_bins = fields.clone();
        more_bins.push("0");
        let wider = format!("{:016x}", 512f64.to_bits());
        let shifted = format!("{:016x}", 1f64.to_bits());
        let hostile: [(Vec<&str>, &str); 6] = [
            (fewer_bins, "layout"),
            (more_bins, "layout"),
            (
                [&fields[..2], &[wider.as_str()], &fields[3..]].concat(),
                "layout",
            ),
            (
                [&fields[..1], &[shifted.as_str()], &fields[2..]].concat(),
                "layout",
            ),
            ([&fields[..1], &[hi, lo], &fields[3..]].concat(), "range"),
            (
                [&fields[..1], &["7ff8000000000000", hi], &fields[3..]].concat(),
                "range",
            ),
        ];
        for (bad_line, why) in hostile {
            let bad = text.replacen(line, &bad_line.join(" "), 1);
            assert_ne!(bad, text);
            let err = decode(&bad).unwrap_err();
            assert!(err.contains("hist1") && err.contains(why), "{err}");
        }
    }

    #[test]
    fn a_type_whose_two_sums_disagree_on_count_is_refused() {
        let text = encode(&populated());
        let line = text.lines().find(|l| l.starts_with("mcsq1 ")).unwrap();
        let (nanos, count) = line["mcsq1 ".len()..].split_once(' ').unwrap();
        let count: u64 = count.parse().unwrap();
        let bad = text.replacen(line, &format!("mcsq1 {nanos} {}", count + 1), 1);
        let err = decode(&bad).unwrap_err();
        assert!(
            err.contains("P-frame") && err.contains("square sum"),
            "{err}"
        );
    }

    #[test]
    fn encoding_is_canonical_across_observation_order() {
        let a = populated();
        let mut b = PriorStore::new();
        b.observe("3000kbps-1280x720@30", "film", &stats(9.0, 60));
        b.observe("6000kbps-1920x1080@30", "sport", &stats(26.0, 45));
        b.observe("6000kbps-1920x1080@30", "film", &stats(20.0, 90));
        assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn session_prior_projects_means_and_caps_weight() {
        let store = populated();
        let prior = store.session_prior("6000kbps-1920x1080@30", "film");
        assert!(!prior.is_empty());
        let entry = store.get("6000kbps-1920x1080@30", "film").unwrap();
        for t in FrameType::ALL {
            let (mean, weight) = prior.types[t.index()].unwrap();
            assert_eq!(mean, entry.mean_mcycles(t).unwrap() * 1e6);
            assert_eq!(weight, PRIOR_WEIGHT_CAP);
        }
        // Unknown keys yield the empty prior.
        assert!(store
            .session_prior("8000kbps-3840x2160@60", "film")
            .is_empty());
        // Sparse evidence keeps its true count as the weight.
        let mut sparse = PriorStore::new();
        let mut s = FrameCycleTally::default();
        s.observe(FrameType::I, Cycles::from_mega(40.0));
        sparse.observe("t", "c", &s.finish());
        let p = sparse.session_prior("t", "c");
        assert_eq!(p.types[FrameType::I.index()], Some((40.0 * 1e6, 1.0)));
        assert_eq!(p.types[FrameType::P.index()], None);
    }

    #[test]
    fn merge_matches_sequential_fold() {
        let mut whole = PriorStore::new();
        whole.observe("t1", "film", &stats(20.0, 30));
        whole.observe("t1", "film", &stats(22.0, 30));
        whole.observe("t2", "sport", &stats(8.0, 15));

        let mut a = PriorStore::new();
        a.observe("t1", "film", &stats(20.0, 30));
        let mut b = PriorStore::new();
        b.observe("t1", "film", &stats(22.0, 30));
        b.observe("t2", "sport", &stats(8.0, 15));
        // Reverse merge order: must be bit-identical.
        let mut folded = PriorStore::new();
        folded.merge(&b);
        folded.merge(&a);
        assert_eq!(folded, whole);
        assert_eq!(encode(&folded), encode(&whole));
    }

    #[test]
    fn save_load_roundtrips() {
        let store = populated();
        let dir = std::env::temp_dir().join(format!("eavs-prior-{}", std::process::id()));
        let path = dir.join("store.prior");
        save(&path, &store).unwrap();
        assert_eq!(load(&path).unwrap(), store);
        assert!(load(&dir.join("absent.prior")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_priors_are_rejected() {
        assert!(decode("not a prior").unwrap_err().contains("unsupported"));
        let text = encode(&populated());
        let cut = &text[..text.len() / 2];
        assert!(decode(cut).is_err());
        let bad = text.replace("prior 3", "prior banana");
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn footprint_grows_with_catalog_not_sessions() {
        let mut store = PriorStore::new();
        store.observe("t1", "film", &stats(20.0, 30));
        let after_one_key = store.approx_bytes();
        store.observe("t1", "film", &stats(20.0, 3_000));
        assert_eq!(store.approx_bytes(), after_one_key, "same key, same bytes");
        store.observe("t2", "film", &stats(20.0, 30));
        assert!(store.approx_bytes() > after_one_key, "new key grows it");
    }
}
