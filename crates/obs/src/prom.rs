//! Prometheus text-exposition rendering.
//!
//! [`PromWriter`] builds a metrics page in the Prometheus text format
//! (version 0.0.4) without any HTTP machinery — callers write the
//! string to a file (`eavsctl fleet --metrics-out metrics.prom`) for a
//! node-exporter-style textfile collector to pick up, or serve it
//! however they like.
//!
//! Formatting rules that keep output deterministic:
//!
//! - Metrics appear in the order they were added; no sorting happens
//!   behind the caller's back.
//! - Values render via Rust's shortest-round-trip float `Display`, so
//!   the same numbers always produce the same bytes.
//! - Histograms follow the Prometheus convention: cumulative `le`
//!   buckets (including everything below the histogram's range in the
//!   first bucket), a `+Inf` bucket, then `_count` and `_sum` samples.

use std::fmt::Write as _;

use eavs_metrics::histogram::Histogram;

/// The `Content-Type` an HTTP scrape endpoint must declare for pages
/// produced here — Prometheus text exposition format, version 0.0.4.
pub const TEXT_FORMAT: &str = "text/plain; version=0.0.4";

/// Checks a finished page for scrape conformance: every sample's family
/// must have exactly one `# HELP` and one `# TYPE` line, both appearing
/// before the family's first sample. Histogram series
/// (`_bucket`/`_count`/`_sum`) resolve to their base family when that
/// family is typed `histogram`.
///
/// [`PromWriter`] itself never enforces this — ad-hoc pages without
/// headers are legal — but anything served at a `/metrics` endpoint
/// should pass.
///
/// # Errors
///
/// Returns a message naming the first offending family or line.
pub fn check_conformance(page: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    // family -> (occurrences, first line index)
    let mut help: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    // family -> (kind, occurrences, first line index)
    let mut types: BTreeMap<&str, (&str, usize, usize)> = BTreeMap::new();
    for (i, line) in page.lines().enumerate() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            help.entry(name).or_insert((0, i)).0 += 1;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            types.entry(name).or_insert((kind, 0, i)).1 += 1;
        }
    }
    for (name, (_, n, _)) in &types {
        if *n != 1 {
            return Err(format!("{n} TYPE lines for family {name}"));
        }
    }
    for (name, (n, _)) in &help {
        if *n != 1 {
            return Err(format!("{n} HELP lines for family {name}"));
        }
    }
    for (i, line) in page.lines().enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let name = line.split(['{', ' ']).next().unwrap_or("");
        if name.is_empty() {
            return Err(format!("line {}: unparseable sample {line:?}", i + 1));
        }
        let family = ["_bucket", "_count", "_sum"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                matches!(types.get(base), Some(("histogram", _, _))).then_some(base)
            })
            .unwrap_or(name);
        let (_, h_line) = help
            .get(family)
            .ok_or_else(|| format!("sample family {family} has no # HELP line"))?;
        let (_, _, t_line) = types
            .get(family)
            .ok_or_else(|| format!("sample family {family} has no # TYPE line"))?;
        if *h_line > i || *t_line > i {
            return Err(format!(
                "family {family}: headers appear after its first sample"
            ));
        }
    }
    Ok(())
}

/// Builds a Prometheus text-exposition page.
///
/// Every line is written straight into the page: label values are
/// escaped in place, counts are formatted in place, and a histogram
/// series renders its label prefix once and reuses it on every bucket
/// line. Bucket edges are rendered once per histogram layout (range and
/// bin count) for the life of the writer, since a page repeats the same
/// few layouts across every campaign and governor.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
    /// The current histogram series' `name_bucket{labels,le="` prefix,
    /// kept so its allocation is reused from series to series.
    prefix: String,
    /// Rendered bucket edges, one table per layout seen so far.
    edges: Vec<EdgeTable>,
}

/// The `le` edges of one histogram layout, rendered once.
#[derive(Debug)]
struct EdgeTable {
    /// `lo` bits, `hi` bits and bin count: the layout's identity, the
    /// same inputs [`Histogram::bin_edges`] computes from.
    layout: (u64, u64, usize),
    /// Each bin's upper edge followed by `"} `, back to back.
    text: String,
    /// End offset of each bin's fragment in `text`.
    ends: Vec<usize>,
}

impl EdgeTable {
    fn new(h: &Histogram) -> Self {
        let mut text = String::new();
        let mut ends = Vec::with_capacity(h.num_bins());
        for i in 0..h.num_bins() {
            push_num(&mut text, h.bin_edges(i).1);
            text.push_str("\"} ");
            ends.push(text.len());
        }
        EdgeTable {
            layout: layout_of(h),
            text,
            ends,
        }
    }
}

fn layout_of(h: &Histogram) -> (u64, u64, usize) {
    (h.lo().to_bits(), h.hi().to_bits(), h.num_bins())
}

impl PromWriter {
    /// Creates an empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty page with room for `bytes` of text, so a caller
    /// that knows roughly how large the page will be renders it into one
    /// allocation.
    pub fn with_capacity(bytes: usize) -> Self {
        PromWriter {
            out: String::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Adds a `# HELP` line for `name`.
    pub fn help(&mut self, name: &str, text: &str) -> &mut Self {
        for part in ["# HELP ", name, " ", text, "\n"] {
            self.out.push_str(part);
        }
        self
    }

    /// Adds a `# TYPE` line for `name` (`counter`, `gauge`, `histogram`...).
    pub fn type_(&mut self, name: &str, kind: &str) -> &mut Self {
        for part in ["# TYPE ", name, " ", kind, "\n"] {
            self.out.push_str(part);
        }
        self
    }

    /// Adds one sample line: `name{labels} value`.
    ///
    /// `labels` are `(key, value)` pairs; pass `&[]` for none. Label
    /// values are escaped per the exposition format.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        let out = &mut self.out;
        out.push_str(name);
        if !labels.is_empty() {
            out.push('{');
            push_labels(out, labels);
            out.pop(); // the last label's separator
            out.push('}');
        }
        out.push(' ');
        push_num(out, value);
        out.push('\n');
        self
    }

    /// Adds a whole histogram in the standard exposition shape:
    /// cumulative `le` buckets, `+Inf`, `_count`, `_sum`.
    ///
    /// `sum` is supplied by the caller because [`Histogram`] stores
    /// counts only; fleet aggregates carry the matching exact sums.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        h: &Histogram,
        sum: f64,
    ) -> &mut Self {
        let PromWriter { out, prefix, edges } = self;
        prefix.clear();
        prefix.push_str(name);
        prefix.push_str("_bucket{");
        let labels_at = prefix.len();
        push_labels(prefix, labels);
        let labels_end = prefix.len();
        prefix.push_str("le=\"");

        let layout = layout_of(h);
        let table = match edges.iter().position(|t| t.layout == layout) {
            Some(i) => &edges[i],
            None => {
                edges.push(EdgeTable::new(h));
                &edges[edges.len() - 1]
            }
        };
        let mut cumulative = h.underflow();
        let mut start = 0;
        for (i, &end) in table.ends.iter().enumerate() {
            cumulative += h.bin_count(i);
            out.push_str(prefix);
            out.push_str(&table.text[start..end]);
            push_u64(out, cumulative);
            out.push('\n');
            start = end;
        }
        cumulative += h.overflow();
        out.push_str(prefix);
        out.push_str("+Inf\"} ");
        push_u64(out, cumulative);
        out.push('\n');

        // `_count` and `_sum` carry the same labels without `le`.
        let labels = prefix[labels_at..labels_end].strip_suffix(',');
        push_series(out, name, "_count", labels);
        push_u64(out, h.total());
        out.push('\n');
        push_series(out, name, "_sum", labels);
        push_num(out, sum);
        out.push('\n');
        self
    }

    /// The finished page.
    pub fn finish(self) -> String {
        self.out
    }

    /// Borrowed view of the page so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }
}

/// Appends `name` + `suffix`, the already escaped `labels` in braces if
/// there are any, and the space before the value.
fn push_series(out: &mut String, name: &str, suffix: &str, labels: Option<&str>) {
    out.push_str(name);
    out.push_str(suffix);
    if let Some(labels) = labels {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
}

/// Appends `key="value",` for every label, escaping each value.
fn push_labels(out: &mut String, labels: &[(&str, &str)]) {
    for (k, v) in labels {
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(out, v);
        out.push_str("\",");
    }
}

/// Appends a label value with `\`, `"` and newline escaped per the
/// exposition format. All three are ASCII, so the value is copied in
/// runs between them.
fn push_escaped(out: &mut String, mut v: &str) {
    while let Some(i) = v.find(['\\', '"', '\n']) {
        out.push_str(&v[..i]);
        out.push_str(match v.as_bytes()[i] {
            b'\\' => "\\\\",
            b'"' => "\\\"",
            _ => "\\n",
        });
        v = &v[i + 1..];
    }
    out.push_str(v);
}

/// Appends a count in decimal.
fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Appends a float the Prometheus way: integers without a trailing
/// `.0`, everything else via shortest-round-trip `Display`.
fn push_num(out: &mut String, v: f64) {
    if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else if v.is_nan() {
        out.push_str("NaN");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// The writer as it was before series prefixes and edge tables: every
/// line formatted on its own, through temporary strings. Kept as the
/// byte-identity oracle for [`PromWriter`].
#[cfg(test)]
mod reference {
    use std::fmt::Write as _;

    use eavs_metrics::histogram::Histogram;

    pub fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
        out.push_str(name);
        write_labels(out, labels);
        let _ = writeln!(out, " {}", PromNum(value));
    }

    pub fn histogram(
        out: &mut String,
        name: &str,
        labels: &[(&str, &str)],
        h: &Histogram,
        sum: f64,
    ) {
        let mut cumulative = h.underflow();
        for i in 0..h.num_bins() {
            cumulative += h.bin_count(i);
            let (_, hi) = h.bin_edges(i);
            out.push_str(name);
            out.push_str("_bucket");
            write_labels_with_le(out, labels, &PromNum(hi).to_string());
            let _ = writeln!(out, " {cumulative}");
        }
        cumulative += h.overflow();
        out.push_str(name);
        out.push_str("_bucket");
        write_labels_with_le(out, labels, "+Inf");
        let _ = writeln!(out, " {cumulative}");

        out.push_str(name);
        out.push_str("_count");
        write_labels(out, labels);
        let _ = writeln!(out, " {}", h.total());

        out.push_str(name);
        out.push_str("_sum");
        write_labels(out, labels);
        let _ = writeln!(out, " {}", PromNum(sum));
    }

    struct PromNum(f64);

    impl std::fmt::Display for PromNum {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let v = self.0;
            if v.is_infinite() {
                return f.write_str(if v > 0.0 { "+Inf" } else { "-Inf" });
            }
            if v.is_nan() {
                return f.write_str("NaN");
            }
            if v == v.trunc() && v.abs() < 1e15 {
                write!(f, "{}", v as i64)
            } else {
                write!(f, "{v}")
            }
        }
    }

    fn write_labels(out: &mut String, labels: &[(&str, &str)]) {
        if labels.is_empty() {
            return;
        }
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        out.push('}');
    }

    fn write_labels_with_le(out: &mut String, labels: &[(&str, &str)], le: &str) {
        out.push('{');
        for (k, v) in labels {
            let _ = write!(out, "{k}=\"{}\",", escape_label(v));
        }
        let _ = write!(out, "le=\"{le}\"");
        out.push('}');
    }

    fn escape_label(v: &str) -> String {
        let mut out = String::with_capacity(v.len());
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn samples_and_headers_render() {
        let mut w = PromWriter::new();
        w.help("eavs_sessions_total", "Sessions completed.")
            .type_("eavs_sessions_total", "counter")
            .sample("eavs_sessions_total", &[("governor", "eavs")], 42.0)
            .sample("eavs_wall_seconds", &[], 1.5);
        let page = w.finish();
        assert_eq!(
            page,
            "# HELP eavs_sessions_total Sessions completed.\n\
             # TYPE eavs_sessions_total counter\n\
             eavs_sessions_total{governor=\"eavs\"} 42\n\
             eavs_wall_seconds 1.5\n"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(-1.0); // underflow
        h.record(1.0); // bin 0
        h.record(6.0); // bin 1
        h.record(6.5); // bin 1
        h.record(99.0); // overflow
        let mut w = PromWriter::new();
        w.histogram("eavs_energy_j", &[("governor", "eavs")], &h, 111.5);
        let page = w.finish();
        assert_eq!(
            page,
            "eavs_energy_j_bucket{governor=\"eavs\",le=\"5\"} 2\n\
             eavs_energy_j_bucket{governor=\"eavs\",le=\"10\"} 4\n\
             eavs_energy_j_bucket{governor=\"eavs\",le=\"+Inf\"} 5\n\
             eavs_energy_j_count{governor=\"eavs\"} 5\n\
             eavs_energy_j_sum{governor=\"eavs\"} 111.5\n"
        );
    }

    #[test]
    fn label_values_escape() {
        let mut w = PromWriter::new();
        w.sample("m", &[("k", "a\"b\\c\nd")], 1.0);
        assert_eq!(w.as_str(), "m{k=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn numbers_render_deterministically() {
        let num = |v: f64| {
            let mut s = String::new();
            push_num(&mut s, v);
            s
        };
        assert_eq!(num(3.0), "3");
        assert_eq!(num(0.1), "0.1");
        assert_eq!(num(f64::INFINITY), "+Inf");
        assert_eq!(num(-0.0), "0");
    }

    #[test]
    fn conformance_accepts_headed_families() {
        let mut w = PromWriter::new();
        w.help("eavs_a", "A.")
            .type_("eavs_a", "counter")
            .sample("eavs_a", &[("g", "x")], 1.0)
            .sample("eavs_a", &[("g", "y")], 2.0);
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(1.0);
        w.help("eavs_h", "H.")
            .type_("eavs_h", "histogram")
            .histogram("eavs_h", &[], &h, 1.0);
        check_conformance(w.as_str()).unwrap();
    }

    #[test]
    fn conformance_rejects_headerless_duplicated_or_late_headers() {
        let mut w = PromWriter::new();
        w.sample("eavs_naked", &[], 1.0);
        assert!(check_conformance(w.as_str()).unwrap_err().contains("HELP"));

        let mut w = PromWriter::new();
        w.help("eavs_a", "A.")
            .help("eavs_a", "A again.")
            .type_("eavs_a", "counter")
            .sample("eavs_a", &[], 1.0);
        assert!(check_conformance(w.as_str())
            .unwrap_err()
            .contains("2 HELP"));

        let mut w = PromWriter::new();
        w.sample("eavs_a", &[], 1.0)
            .help("eavs_a", "A.")
            .type_("eavs_a", "counter");
        assert!(check_conformance(w.as_str())
            .unwrap_err()
            .contains("after its first sample"));

        // A `_count` suffix only folds into the base family when the
        // base is a histogram; otherwise it is its own (headerless) one.
        let mut w = PromWriter::new();
        w.help("eavs_n", "N.")
            .type_("eavs_n", "counter")
            .sample("eavs_n_count", &[], 1.0);
        assert!(check_conformance(w.as_str())
            .unwrap_err()
            .contains("eavs_n_count"));
    }

    /// A histogram over `[lo, lo + width)` with one observation at
    /// `lo + u * width` per `u`, so `u < 0` underflows and `u >= 1`
    /// overflows.
    fn filled(lo: f64, width: f64, bins: usize, us: &[f64]) -> Histogram {
        let mut h = Histogram::new(lo, lo + width, bins);
        for u in us {
            h.record(lo + u * width);
        }
        h
    }

    /// Label values mix plain text with every escaped character and
    /// non-ASCII text.
    const LABEL_VALUE: &str = "[a-z\\\"\n é漢]{0,8}";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn writer_matches_the_per_line_reference(
            lo in prop_oneof![-1e3f64..1e3, Just(0.0), 1e14f64..1e17],
            rel in prop_oneof![1e-3f64..10.0, Just(10.0)],
            shift in prop_oneof![-5.5f64..5.5, Just(0.5)],
            bins in 1usize..40,
            us_a in collection::vec(-0.5f64..1.5, 0..40),
            us_b in collection::vec(prop_oneof![-0.5f64..1.5, Just(0.25)], 0..40),
            labels in collection::vec(("[a-z_]{1,6}", LABEL_VALUE), 0..3),
            sums in (
                prop_oneof![
                    -1e6f64..1e6,
                    Just(f64::INFINITY),
                    Just(f64::NEG_INFINITY),
                    Just(f64::NAN),
                    Just(42.0),
                ],
                prop_oneof![-1e20f64..1e20, Just(f64::NAN), Just(-0.0)],
            ),
        ) {
            let width = f64::abs(lo).max(1.0) * rel;
            // Two layouts with the same bin count and different ranges,
            // rendered interleaved through one writer's edge tables.
            let a = filled(lo, width, bins, &us_a);
            let b = filled(lo + shift * width, width * 0.75, bins, &us_b);
            let labels: Vec<(&str, &str)> =
                labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            let mut w = PromWriter::new();
            let mut want = String::new();
            for (name, h, sum) in [("m_a", &a, sums.0), ("m_b", &b, sums.1), ("m_a", &a, sums.1)] {
                w.histogram(name, &labels, h, sum);
                reference::histogram(&mut want, name, &labels, h, sum);
                w.histogram(name, &[], h, sum);
                reference::histogram(&mut want, name, &[], h, sum);
                w.sample(name, &labels, sum);
                reference::sample(&mut want, name, &labels, sum);
                w.sample(name, &[], lo);
                reference::sample(&mut want, name, &[], lo);
            }
            prop_assert_eq!(w.as_str(), want.as_str());
        }
    }
}
