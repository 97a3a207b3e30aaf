//! Plain-text trace formats.
//!
//! Human-inspectable line formats for exchanging workloads between the
//! generator, the bench harness and external tools — and for replaying a
//! captured workload bit-for-bit. Two formats:
//!
//! **Video trace** (`.vtrace`):
//! ```text
//! # comments and blank lines ignored
//! video <fps> <frames_per_segment> <num_segments>
//! rep <id> <bitrate_kbps> <width> <height>
//! frame <rep_id> <index> <I|P|B> <size_bytes> <decode_cycles>
//! ```
//!
//! A frame's `size_bytes` is below 2^30 (1 GiB), the segment record's
//! limit ([`MAX_FRAME_BYTES`]).
//!
//! **Bandwidth trace** (`.btrace`):
//! ```text
//! bw <time_ns> <bits_per_second>
//! ```

use eavs_cpu::freq::Cycles;
use eavs_net::bandwidth::BandwidthTrace;
use eavs_sim::time::{SimDuration, SimTime};
use eavs_video::frame::{Frame, FrameType};
use eavs_video::manifest::{Manifest, Representation};
use eavs_video::segment::{Segment, MAX_FRAME_BYTES};
use std::fmt;

/// A parsed video trace: a manifest plus every frame of every rung.
#[derive(Clone, PartialEq, Debug)]
pub struct VideoTrace {
    /// The manifest.
    pub manifest: Manifest,
    /// `frames[rep_id]` holds the full stream at that rung.
    pub frames: Vec<Vec<Frame>>,
}

impl VideoTrace {
    /// Reassembles segment `index` at `rep_id`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn segment(&self, index: u64, rep_id: usize) -> Segment {
        let fps = self.manifest.frames_per_segment;
        let start = (index * fps) as usize;
        let end = start + fps as usize;
        Segment::new(
            index,
            rep_id,
            self.frames[rep_id][start..end].iter().copied(),
        )
    }
}

/// A parse error with its line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Serializes a video trace.
pub fn write_video_trace(manifest: &Manifest, frames_by_rep: &[Vec<Frame>]) -> String {
    let mut out = String::new();
    out.push_str("# eavs video trace v1\n");
    out.push_str(&format!(
        "video {} {} {}\n",
        manifest.fps, manifest.frames_per_segment, manifest.num_segments
    ));
    for rep in manifest.representations() {
        out.push_str(&format!(
            "rep {} {} {} {}\n",
            rep.id, rep.bitrate_kbps, rep.width, rep.height
        ));
    }
    for (rep_id, frames) in frames_by_rep.iter().enumerate() {
        for f in frames {
            out.push_str(&format!(
                "frame {} {} {} {} {:.0}\n",
                rep_id,
                f.index,
                f.frame_type,
                f.size_bytes,
                f.decode_cycles.get()
            ));
        }
    }
    out
}

/// Parses a video trace.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse_video_trace(text: &str) -> Result<VideoTrace, ParseError> {
    let mut header: Option<(u32, u64, u64)> = None;
    let mut reps: Vec<Representation> = Vec::new();
    let mut frames: Vec<Vec<Frame>> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("non-empty line");
        let rest: Vec<&str> = parts.collect();
        match tag {
            "video" => {
                if header.is_some() {
                    return Err(err(lineno, "duplicate video header"));
                }
                if rest.len() != 3 {
                    return Err(err(
                        lineno,
                        "video needs: fps frames_per_segment num_segments",
                    ));
                }
                // Each must be positive: fps divides the frame duration
                // and the manifest needs a non-empty stream.
                let fps: u32 = rest[0]
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err(lineno, "bad fps"))?;
                let fseg: u64 = rest[1]
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err(lineno, "bad frames_per_segment"))?;
                let nseg: u64 = rest[2]
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err(lineno, "bad num_segments"))?;
                if fseg.checked_mul(nseg).is_none() {
                    return Err(err(lineno, "frames_per_segment × num_segments overflows"));
                }
                header = Some((fps, fseg, nseg));
            }
            "rep" => {
                if rest.len() != 4 {
                    return Err(err(lineno, "rep needs: id bitrate width height"));
                }
                let id: usize = rest[0].parse().map_err(|_| err(lineno, "bad rep id"))?;
                if id != reps.len() {
                    return Err(err(
                        lineno,
                        format!("rep ids must be dense, expected {}", reps.len()),
                    ));
                }
                let bitrate_kbps = rest[1].parse().map_err(|_| err(lineno, "bad bitrate"))?;
                if reps.last().is_some_and(|r| bitrate_kbps <= r.bitrate_kbps) {
                    return Err(err(lineno, "ladder bitrates must strictly increase"));
                }
                reps.push(Representation {
                    id,
                    bitrate_kbps,
                    width: rest[2].parse().map_err(|_| err(lineno, "bad width"))?,
                    height: rest[3].parse().map_err(|_| err(lineno, "bad height"))?,
                });
                frames.push(Vec::new());
            }
            "frame" => {
                let (fps, _, _) = header.ok_or_else(|| err(lineno, "frame before video header"))?;
                if rest.len() != 5 {
                    return Err(err(lineno, "frame needs: rep_id index type size cycles"));
                }
                let rep_id: usize = rest[0].parse().map_err(|_| err(lineno, "bad rep id"))?;
                if rep_id >= frames.len() {
                    return Err(err(lineno, "frame references unknown rep"));
                }
                let index: u64 = rest[1].parse().map_err(|_| err(lineno, "bad index"))?;
                let frame_type = match rest[2] {
                    "I" => FrameType::I,
                    "P" => FrameType::P,
                    "B" => FrameType::B,
                    other => return Err(err(lineno, format!("bad frame type {other:?}"))),
                };
                let size_bytes: u32 = rest[3].parse().map_err(|_| err(lineno, "bad size"))?;
                if size_bytes > MAX_FRAME_BYTES {
                    return Err(err(
                        lineno,
                        format!("frame size {size_bytes} over the {MAX_FRAME_BYTES}-byte limit"),
                    ));
                }
                let cycles: f64 = rest[4].parse().map_err(|_| err(lineno, "bad cycles"))?;
                if !cycles.is_finite() || cycles < 0.0 {
                    return Err(err(lineno, "bad cycles"));
                }
                frames[rep_id].push(Frame {
                    index,
                    frame_type,
                    size_bytes,
                    decode_cycles: Cycles::new(cycles),
                    duration: SimDuration::from_nanos(
                        (1_000_000_000 + u64::from(fps) / 2) / u64::from(fps),
                    ),
                });
            }
            other => return Err(err(lineno, format!("unknown record {other:?}"))),
        }
    }

    let (fps, fseg, nseg) = header.ok_or_else(|| err(0, "missing video header"))?;
    if reps.is_empty() {
        return Err(err(0, "no representations"));
    }
    // The header checks make `Manifest::new` infallible here: non-zero
    // fps and counts, dense ids, strictly increasing bitrates.
    let expected = fseg * nseg;
    for (rep_id, fs) in frames.iter().enumerate() {
        if fs.len() as u64 != expected {
            return Err(err(
                0,
                format!(
                    "rep {rep_id}: expected {expected} frames, found {}",
                    fs.len()
                ),
            ));
        }
        for (j, f) in fs.iter().enumerate() {
            if f.index != j as u64 {
                return Err(err(
                    0,
                    format!("rep {rep_id}: frame indices not dense at {j}"),
                ));
            }
        }
    }
    Ok(VideoTrace {
        manifest: Manifest::new(reps, fseg, nseg, fps),
        frames,
    })
}

/// Serializes a bandwidth trace.
pub fn write_bandwidth_trace(trace: &BandwidthTrace) -> String {
    let mut out = String::new();
    out.push_str("# eavs bandwidth trace v1\n");
    for &(t, bps) in trace.points() {
        out.push_str(&format!("bw {} {:.3}\n", t.as_nanos(), bps));
    }
    out
}

/// Parses a bandwidth trace.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse_bandwidth_trace(text: &str) -> Result<BandwidthTrace, ParseError> {
    let mut points = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 3 || parts[0] != "bw" {
            return Err(err(lineno, "expected: bw <time_ns> <bps>"));
        }
        let t: u64 = parts[1].parse().map_err(|_| err(lineno, "bad time"))?;
        let bps: f64 = parts[2].parse().map_err(|_| err(lineno, "bad rate"))?;
        if !bps.is_finite() || bps < 0.0 {
            return Err(err(lineno, "bad rate"));
        }
        let t = SimTime::from_nanos(t);
        match points.last() {
            None if t != SimTime::ZERO => return Err(err(lineno, "trace must start at time 0")),
            Some(&(prev, _)) if t <= prev => {
                return Err(err(lineno, "times must strictly increase"))
            }
            _ => {}
        }
        points.push((t, bps));
    }
    if points.is_empty() {
        return Err(err(0, "empty bandwidth trace"));
    }
    Ok(BandwidthTrace::from_points(points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ContentProfile;
    use crate::video_gen::VideoGenerator;

    #[test]
    fn video_trace_roundtrip() {
        let manifest = Manifest::single(1_000, 640, 360, SimDuration::from_secs(4), 30);
        let gen = VideoGenerator::new(manifest.clone(), ContentProfile::Film, 9);
        let frames: Vec<Vec<Frame>> = vec![gen
            .all_segments(0)
            .into_iter()
            .flat_map(Segment::into_frames)
            .collect()];
        let text = write_video_trace(&manifest, &frames);
        let parsed = parse_video_trace(&text).unwrap();
        assert_eq!(parsed.manifest, manifest);
        assert_eq!(parsed.frames.len(), 1);
        assert_eq!(parsed.frames[0].len(), frames[0].len());
        // Sizes and types survive exactly; cycles to the nearest cycle.
        for (a, b) in parsed.frames[0].iter().zip(&frames[0]) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.frame_type, b.frame_type);
            assert_eq!(a.size_bytes, b.size_bytes);
            assert!((a.decode_cycles.get() - b.decode_cycles.get()).abs() < 1.0);
        }
        // Segments reassemble.
        let seg = parsed.segment(1, 0);
        assert_eq!(seg.first_frame_index(), 60);
        assert_eq!(seg.num_frames(), 60);
    }

    #[test]
    fn bandwidth_trace_roundtrip() {
        let tr = BandwidthTrace::from_mbps_steps(&[(0, 5.0), (10, 1.0), (20, 8.0)]);
        let text = write_bandwidth_trace(&tr);
        let parsed = parse_bandwidth_trace(&text).unwrap();
        assert_eq!(parsed.points().len(), 3);
        assert_eq!(parsed.rate_at(SimTime::from_secs(15)), 1e6);
    }

    #[test]
    fn parse_errors_name_lines() {
        let bad = "video 30 60 2\nrep 0 1000 640 360\nfranme 0 0 I 10 10\n";
        let e = parse_video_trace(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("unknown record"));

        let e = parse_video_trace("rep 0 1000 640 360\nframe 0 0 I 1 1\n").unwrap_err();
        assert!(e.message.contains("before video header"));

        let e = parse_bandwidth_trace("bw abc 5\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(parse_bandwidth_trace("# only comments\n").is_err());
    }

    #[test]
    fn missing_frames_detected() {
        let text = "video 30 60 2\nrep 0 1000 640 360\n";
        let e = parse_video_trace(text).unwrap_err();
        assert!(e.message.contains("expected 120 frames"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let tr =
            parse_bandwidth_trace("# header\n\nbw 0 1000000.0\n  \nbw 1000000000 2e6\n").unwrap();
        assert_eq!(tr.points().len(), 2);
    }
}
