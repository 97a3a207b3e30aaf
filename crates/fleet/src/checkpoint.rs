//! Checkpoint serialization: merged aggregates + shard cursor.
//!
//! The format is a versioned, line-oriented text file. Every value
//! roundtrips exactly — floats are serialized as hexadecimal bit
//! patterns, sums as their raw fixed-point integers — so a resumed
//! campaign continues from *bit-identical* state and the final output is
//! byte-for-byte the same as an uninterrupted run. Writes go through a
//! temp file + rename, so a kill mid-write leaves the previous
//! checkpoint intact.

use std::fmt::Write as _;
use std::path::Path;

use eavs_metrics::histogram::Histogram;
use eavs_metrics::stats::ExactSum;
use eavs_sim::fingerprint::parse_fixed_hex;

use crate::aggregate::{FleetAggregate, GovAggregate};

/// Format magic + version line.
const MAGIC: &str = "eavs-fleet-checkpoint/v2";

// Every line is written straight into the output buffer: `write!` into
// a `String` formats in place, so encoding allocates only as the buffer
// grows. The result route and every worker upload encode a checkpoint.

pub(crate) fn push_hist(out: &mut String, key: &str, h: &Histogram) {
    push_hist_parts(
        out,
        key,
        (h.lo(), h.hi()),
        (h.underflow(), h.overflow()),
        (0..h.num_bins()).map(|i| h.bin_count(i)),
    );
}

/// Writes one histogram line from its parts: the range, the under- and
/// overflow counts, then every bin's count.
pub(crate) fn push_hist_parts(
    out: &mut String,
    key: &str,
    (lo, hi): (f64, f64),
    (underflow, overflow): (u64, u64),
    bins: impl Iterator<Item = u64>,
) {
    let _ = write!(
        out,
        "{key} {:016x} {:016x} {underflow} {overflow}",
        lo.to_bits(),
        hi.to_bits(),
    );
    for count in bins {
        let _ = write!(out, " {count}");
    }
    out.push('\n');
}

pub(crate) fn push_sum(out: &mut String, key: &str, s: &ExactSum) {
    let (nanos, count) = s.raw();
    let _ = writeln!(out, "{key} {nanos} {count}");
}

fn push_f64_bits(out: &mut String, key: &str, v: f64) {
    let _ = writeln!(out, "{key} {:016x}", v.to_bits());
}

fn push_u64(out: &mut String, key: &str, v: u64) {
    let _ = writeln!(out, "{key} {v}");
}

/// Encodes an aggregate as checkpoint text.
pub fn encode(agg: &FleetAggregate) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    let _ = writeln!(out, "campaign {:032x}", agg.campaign);
    push_u64(&mut out, "shards_done", agg.shards_done);
    push_u64(&mut out, "sessions_done", agg.sessions_done);
    push_hist(&mut out, "arrivals", &agg.arrivals);
    push_u64(&mut out, "govs", agg.govs.len() as u64);
    for g in &agg.govs {
        let _ = writeln!(out, "gov {}", g.name);
        push_u64(&mut out, "sessions", g.sessions);
        push_hist(&mut out, "cpu_j", &g.cpu_j);
        push_sum(&mut out, "cpu_j_sum", &g.cpu_j_sum);
        push_f64_bits(&mut out, "cpu_j_min", g.cpu_j_min);
        push_f64_bits(&mut out, "cpu_j_max", g.cpu_j_max);
        push_sum(&mut out, "radio_j_sum", &g.radio_j_sum);
        push_sum(&mut out, "device_display_j_sum", &g.device_display_j_sum);
        push_sum(&mut out, "device_decoder_j_sum", &g.device_decoder_j_sum);
        push_u64(&mut out, "radio_promotions", g.radio_promotions);
        push_hist(&mut out, "qoe", &g.qoe);
        push_sum(&mut out, "qoe_sum", &g.qoe_sum);
        push_hist(&mut out, "startup_ms", &g.startup_ms);
        push_sum(&mut out, "startup_ms_sum", &g.startup_ms_sum);
        push_u64(&mut out, "rebuffer_events", g.rebuffer_events);
        push_sum(&mut out, "rebuffer_secs", &g.rebuffer_secs);
        push_u64(&mut out, "late_vsyncs", g.late_vsyncs);
        push_u64(&mut out, "frames_dropped", g.frames_dropped);
        push_u64(&mut out, "frames_displayed", g.frames_displayed);
        push_u64(&mut out, "total_frames", g.total_frames);
        push_u64(&mut out, "transitions", g.transitions);
        push_sum(&mut out, "mean_freq_mhz_sum", &g.mean_freq_mhz_sum);
        push_sum(&mut out, "bitrate_kbps_sum", &g.bitrate_kbps_sum);
        push_sum(&mut out, "session_secs", &g.session_secs);
        push_u64(&mut out, "perfect_sessions", g.perfect_sessions);
        push_u64(&mut out, "panic_races", g.panic_races);
        push_u64(&mut out, "download_retries", g.download_retries);
    }
    // The workload-prior section rides between the governor lanes and the
    // terminator. An empty store still writes its `prior 0` header, but
    // decode tolerates checkpoints written before the section existed.
    crate::prior::encode_body(&mut out, &agg.prior);
    out.push_str("end\n");
    out
}

/// Line cursor with keyed-field helpers for decoding (shared with the
/// prior codec in [`crate::prior`]).
pub(crate) struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Lines {
            iter: text.lines(),
            line_no: 0,
        }
    }

    pub(crate) fn next(&mut self) -> Result<&'a str, String> {
        self.line_no += 1;
        self.iter
            .next()
            .ok_or(format!("checkpoint truncated at line {}", self.line_no))
    }

    /// Next line, which must start with `key `; returns the rest.
    pub(crate) fn field(&mut self, key: &str) -> Result<&'a str, String> {
        let line = self.next()?;
        line.strip_prefix(key)
            .and_then(|rest| {
                rest.strip_prefix(' ')
                    .or(Some(rest).filter(|r| r.is_empty()))
            })
            .ok_or(format!(
                "checkpoint line {}: expected {key:?}, got {line:?}",
                self.line_no
            ))
    }

    pub(crate) fn parse<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        let raw = self.field(key)?;
        raw.parse()
            .map_err(|_| format!("checkpoint: bad {key} value {raw:?}"))
    }

    fn f64_bits(&mut self, key: &str) -> Result<f64, String> {
        let raw = self.field(key)?;
        parse_fixed_hex(raw, 16, false)
            .map(|v| f64::from_bits(v as u64))
            .ok_or(format!("checkpoint: bad {key} bits {raw:?}"))
    }

    pub(crate) fn sum(&mut self, key: &str) -> Result<ExactSum, String> {
        let raw = self.field(key)?;
        let mut parts = raw.split(' ');
        let nanos: i128 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or(format!("checkpoint: bad {key} sum"))?;
        let count: u64 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or(format!("checkpoint: bad {key} count"))?;
        Ok(ExactSum::from_raw(nanos, count))
    }

    pub(crate) fn hist(&mut self, key: &str) -> Result<Histogram, String> {
        let h = self.hist_parts(key)?;
        Ok(Histogram::from_parts(
            h.lo,
            h.hi,
            &h.bins,
            h.underflow,
            h.overflow,
        ))
    }

    /// A histogram line's parts, with its range checked finite and
    /// non-empty and at least one bin.
    pub(crate) fn hist_parts(&mut self, key: &str) -> Result<HistParts, String> {
        let raw = self.field(key)?;
        let mut parts = raw.split(' ');
        let mut bits = |what: &str| -> Result<f64, String> {
            parts
                .next()
                .and_then(|p| parse_fixed_hex(p, 16, false))
                .map(|v| f64::from_bits(v as u64))
                .ok_or(format!("checkpoint: bad {key} {what}"))
        };
        let lo = bits("lo")?;
        let hi = bits("hi")?;
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(format!(
                "checkpoint: {key} range [{lo}, {hi}) is not finite and non-empty"
            ));
        }
        let mut ints = parts.map(|p| {
            p.parse::<u64>()
                .map_err(|_| format!("checkpoint: bad {key} count {p:?}"))
        });
        let underflow = ints
            .next()
            .ok_or(format!("checkpoint: {key} truncated"))??;
        let overflow = ints
            .next()
            .ok_or(format!("checkpoint: {key} truncated"))??;
        let bins = ints.collect::<Result<Vec<u64>, String>>()?;
        if bins.is_empty() {
            return Err(format!("checkpoint: {key} has no bins"));
        }
        Ok(HistParts {
            lo,
            hi,
            underflow,
            overflow,
            bins,
        })
    }
}

/// A decoded histogram line, dense.
pub(crate) struct HistParts {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    pub(crate) underflow: u64,
    pub(crate) overflow: u64,
    pub(crate) bins: Vec<u64>,
}

/// Decodes checkpoint text.
///
/// # Errors
///
/// Returns a message on version mismatch, truncation or malformed values.
pub fn decode(text: &str) -> Result<FleetAggregate, String> {
    let mut lines = Lines::new(text);
    let magic = lines.next()?;
    if magic != MAGIC {
        return Err(format!(
            "unsupported checkpoint format {magic:?} (want {MAGIC:?})"
        ));
    }
    let campaign = {
        let raw = lines.field("campaign")?;
        parse_fixed_hex(raw, 32, false).ok_or(format!("bad campaign fingerprint {raw:?}"))?
    };
    let shards_done = lines.parse("shards_done")?;
    let sessions_done = lines.parse("sessions_done")?;
    let arrivals = lines.hist("arrivals")?;
    // The count is untrusted input: lanes are pushed as they parse, so a
    // huge count fails on the missing lines instead of allocating.
    let gov_count: usize = lines.parse("govs")?;
    let mut govs = Vec::new();
    for _ in 0..gov_count {
        let name = lines.field("gov")?.to_owned();
        let sessions = lines.parse("sessions")?;
        let cpu_j = lines.hist("cpu_j")?;
        let cpu_j_sum = lines.sum("cpu_j_sum")?;
        let cpu_j_min = lines.f64_bits("cpu_j_min")?;
        let cpu_j_max = lines.f64_bits("cpu_j_max")?;
        let radio_j_sum = lines.sum("radio_j_sum")?;
        let device_display_j_sum = lines.sum("device_display_j_sum")?;
        let device_decoder_j_sum = lines.sum("device_decoder_j_sum")?;
        let radio_promotions = lines.parse("radio_promotions")?;
        let qoe = lines.hist("qoe")?;
        let qoe_sum = lines.sum("qoe_sum")?;
        let startup_ms = lines.hist("startup_ms")?;
        let startup_ms_sum = lines.sum("startup_ms_sum")?;
        let rebuffer_events = lines.parse("rebuffer_events")?;
        let rebuffer_secs = lines.sum("rebuffer_secs")?;
        let late_vsyncs = lines.parse("late_vsyncs")?;
        let frames_dropped = lines.parse("frames_dropped")?;
        let frames_displayed = lines.parse("frames_displayed")?;
        let total_frames = lines.parse("total_frames")?;
        let transitions = lines.parse("transitions")?;
        let mean_freq_mhz_sum = lines.sum("mean_freq_mhz_sum")?;
        let bitrate_kbps_sum = lines.sum("bitrate_kbps_sum")?;
        let session_secs = lines.sum("session_secs")?;
        let perfect_sessions = lines.parse("perfect_sessions")?;
        let panic_races = lines.parse("panic_races")?;
        let download_retries = lines.parse("download_retries")?;
        govs.push(GovAggregate {
            name,
            sessions,
            cpu_j,
            cpu_j_sum,
            cpu_j_min,
            cpu_j_max,
            radio_j_sum,
            device_display_j_sum,
            device_decoder_j_sum,
            radio_promotions,
            qoe,
            qoe_sum,
            startup_ms,
            startup_ms_sum,
            rebuffer_events,
            rebuffer_secs,
            late_vsyncs,
            frames_dropped,
            frames_displayed,
            total_frames,
            transitions,
            mean_freq_mhz_sum,
            bitrate_kbps_sum,
            session_secs,
            perfect_sessions,
            panic_races,
            download_retries,
        });
    }
    // Tolerant prior section: same-version checkpoints written before the
    // fleet knowledge store existed end right after the governor lanes,
    // and decode as an empty store.
    let line = lines.next()?;
    let prior = match line.strip_prefix("prior ") {
        Some(raw) => {
            let entries: usize = raw
                .parse()
                .map_err(|_| format!("checkpoint: bad prior count {raw:?}"))?;
            let store = crate::prior::decode_body(&mut lines, entries)?;
            lines.field("end")?;
            store
        }
        None if line == "end" => crate::prior::PriorStore::new(),
        None => {
            return Err(format!(
                "checkpoint: expected \"prior\" or \"end\", got {line:?}"
            ))
        }
    };
    Ok(FleetAggregate {
        campaign,
        shards_done,
        sessions_done,
        arrivals,
        govs,
        prior,
    })
}

/// Writes a checkpoint atomically (temp file in the same directory, then
/// rename).
///
/// # Errors
///
/// Returns a message on I/O failure.
pub fn save(path: &Path, agg: &FleetAggregate) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, encode(agg))
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} to {}: {e}", tmp.display(), path.display()))
}

/// Loads a checkpoint, `Ok(None)` when the file does not exist.
///
/// # Errors
///
/// Returns a message on I/O failure or a corrupt/incompatible file.
pub fn load(path: &Path) -> Result<Option<FleetAggregate>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    decode(&text).map(Some).map_err(|e| {
        format!(
            "corrupt checkpoint {} ({e}); delete it to restart the campaign",
            path.display()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{builder_for, draw_session};
    use crate::spec::CampaignSpec;

    fn populated_aggregate() -> (CampaignSpec, FleetAggregate) {
        // A powered spec, so the device-power sums round-trip with real
        // (non-zero) values rather than the trivial empty ones.
        let mut spec = CampaignSpec::smoke();
        spec.power = eavs_power::DevicePowerModel::phone();
        let mut agg = FleetAggregate::new(&spec);
        for id in 0..3 {
            let draw = draw_session(&spec, id);
            agg.observe_arrival(draw.arrival_s);
            for (gov_index, gov) in spec.governors.iter().enumerate() {
                let report = builder_for(&draw, gov).unwrap().run();
                agg.observe(gov_index, &report);
            }
        }
        agg.shards_done = 1;
        (spec, agg)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let (_, agg) = populated_aggregate();
        assert!(agg.govs[0].device_display_j_sum.value() > 0.0);
        assert!(agg.govs[0].radio_promotions > 0);
        let decoded = decode(&encode(&agg)).unwrap();
        assert_eq!(decoded, agg);
        // Including the empty-lane sentinels.
        let empty = FleetAggregate::new(&CampaignSpec::smoke());
        let decoded = decode(&encode(&empty)).unwrap();
        assert_eq!(decoded, empty);
        assert!(decoded.govs[0].cpu_j_min.is_infinite());
    }

    #[test]
    fn save_load_roundtrips_and_missing_is_none() {
        let (_, agg) = populated_aggregate();
        let dir = std::env::temp_dir().join(format!("eavs-fleet-ckpt-{}", std::process::id()));
        let path = dir.join("smoke.ckpt");
        save(&path, &agg).unwrap();
        assert_eq!(load(&path).unwrap().unwrap(), agg);
        assert!(load(&dir.join("absent.ckpt")).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prior_section_roundtrips_through_the_checkpoint() {
        let (spec, mut agg) = populated_aggregate();
        let draw = draw_session(&spec, 0);
        let report = builder_for(&draw, &spec.governors[0]).unwrap().run();
        agg.observe_prior(&draw.title.key(), draw.content.name(), &report.frame_cycles);
        assert!(!agg.prior.is_empty());
        let decoded = decode(&encode(&agg)).unwrap();
        assert_eq!(decoded, agg);
        assert_eq!(decoded.prior.total_frames(), agg.prior.total_frames());
    }

    #[test]
    fn checkpoints_without_a_prior_section_decode_to_an_empty_store() {
        // Pre-prior checkpoints end right after the governor lanes; they
        // must keep resuming (to an empty fleet prior), not be rejected.
        let (_, agg) = populated_aggregate();
        let text = encode(&agg);
        let legacy = text.replace("prior 0\n", "");
        assert_ne!(legacy, text);
        let decoded = decode(&legacy).unwrap();
        assert_eq!(decoded, agg);
        assert!(decoded.prior.is_empty());
    }

    #[test]
    fn a_v1_checkpoint_is_refused_naming_both_versions() {
        let (_, agg) = populated_aggregate();
        let v1 = encode(&agg).replacen(MAGIC, "eavs-fleet-checkpoint/v1", 1);
        let err = decode(&v1).unwrap_err();
        assert!(
            err.contains("eavs-fleet-checkpoint/v1") && err.contains("eavs-fleet-checkpoint/v2"),
            "{err}"
        );
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        assert!(decode("not a checkpoint")
            .unwrap_err()
            .contains("unsupported"));
        let (_, agg) = populated_aggregate();
        let text = encode(&agg);
        // Truncation.
        let cut = &text[..text.len() / 2];
        assert!(decode(cut).is_err());
        // Field corruption.
        let bad = text.replace("shards_done 1", "shards_done banana");
        assert!(decode(&bad).unwrap_err().contains("shards_done"));
    }

    /// Replaces the `lo`/`hi` fields of the first line starting with
    /// `key ` by the given bit patterns.
    fn with_range(text: &str, key: &str, lo: u64, hi: u64) -> String {
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("{key} ")))
            .unwrap();
        let mut fields: Vec<String> = line.split(' ').map(str::to_owned).collect();
        fields[1] = format!("{lo:016x}");
        fields[2] = format!("{hi:016x}");
        text.replacen(line, &fields.join(" "), 1)
    }

    #[test]
    fn hostile_histogram_ranges_are_errors_not_panics() {
        let (_, agg) = populated_aggregate();
        let text = encode(&agg);
        let (one, two) = (1f64.to_bits(), 2f64.to_bits());
        for key in ["arrivals", "cpu_j", "startup_ms"] {
            for (lo, hi) in [
                (two, one),
                (one, one),
                (f64::NAN.to_bits(), two),
                (one, f64::NAN.to_bits()),
                (f64::NEG_INFINITY.to_bits(), two),
                (one, f64::INFINITY.to_bits()),
            ] {
                let bad = with_range(&text, key, lo, hi);
                assert_ne!(bad, text);
                let err = decode(&bad).unwrap_err();
                assert!(err.contains(key) && err.contains("range"), "{err}");
            }
        }
    }

    const SMOKE: &str = include_str!("../../../results/fleet/smoke.ckpt");

    #[test]
    fn the_committed_smoke_checkpoint_reencodes_byte_identical() {
        assert_eq!(encode(&decode(SMOKE).unwrap()), SMOKE);
    }

    #[test]
    fn hex_fields_accept_only_the_writers_spelling() {
        for (from, to) in [
            // A sign `from_str_radix` would accept, changing the bits.
            ("cpu_j_min 3ff7be7449096881", "cpu_j_min +ff7be7449096881"),
            ("cpu_j_min 3ff7be7449096881", "cpu_j_min 3FF7BE7449096881"),
            ("cpu_j_min 3ff7be7449096881", "cpu_j_min 3ff7be744909688"),
            ("cpu_j_min 3ff7be7449096881", "cpu_j_min 03ff7be7449096881"),
            ("arrivals 0000000000000000", "arrivals +000000000000000"),
            (
                "arrivals 0000000000000000 40ac2",
                "arrivals 0000000000000000 40AC2",
            ),
            ("campaign 24d501282eae84d1", "campaign +4d501282eae84d1"),
            ("campaign 24d501282eae84d1", "campaign 24D501282EAE84D1"),
        ] {
            let bad = SMOKE.replacen(from, to, 1);
            assert_ne!(bad, SMOKE, "{from:?} not in the smoke checkpoint");
            assert!(decode(&bad).is_err(), "{to:?} decoded");
        }
    }

    #[test]
    fn a_huge_lane_count_is_an_error_not_an_allocation() {
        let (spec, agg) = populated_aggregate();
        assert_eq!(spec.governors.len(), 2);
        let text = encode(&agg);
        let huge = text.replace("govs 2\n", "govs 1000000000\n");
        assert_ne!(huge, text);
        assert!(decode(&huge).is_err());
    }
}
