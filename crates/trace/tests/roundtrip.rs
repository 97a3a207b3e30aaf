//! Disk round-trip tests for the trace formats, property-based fuzzing
//! of the parsers (arbitrary text, and mutations of valid encodings,
//! which reach past the header checks), and the segment's frame packing.

use eavs_cpu::freq::Cycles;
use eavs_net::bandwidth::BandwidthTrace;
use eavs_sim::time::{SimDuration, SimTime};
use eavs_trace::content::ContentProfile;
use eavs_trace::format::{
    parse_bandwidth_trace, parse_video_trace, write_bandwidth_trace, write_video_trace, VideoTrace,
};
use eavs_trace::net_gen::NetworkProfile;
use eavs_trace::video_gen::VideoGenerator;
use eavs_video::frame::{Frame, FrameType};
use eavs_video::manifest::{Manifest, Representation};
use eavs_video::segment::{Segment, MAX_FRAME_BYTES};
use proptest::prelude::*;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("eavs-trace-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn video_trace_survives_disk() {
    let manifest = Manifest::single(3_000, 1280, 720, SimDuration::from_secs(6), 30);
    let gen = VideoGenerator::new(manifest.clone(), ContentProfile::Sport, 77);
    let frames = vec![gen
        .all_segments(0)
        .into_iter()
        .flat_map(Segment::into_frames)
        .collect::<Vec<_>>()];
    let text = write_video_trace(&manifest, &frames);

    let path = scratch("roundtrip.vtrace");
    std::fs::write(&path, &text).expect("write");
    let back = std::fs::read_to_string(&path).expect("read");
    let parsed = parse_video_trace(&back).expect("parse");
    assert_eq!(parsed.manifest, manifest);
    assert_eq!(parsed.frames[0].len(), frames[0].len());
    for (a, b) in parsed.frames[0].iter().zip(&frames[0]) {
        assert_eq!(a.size_bytes, b.size_bytes);
        assert_eq!(a.frame_type, b.frame_type);
    }
}

#[test]
fn bandwidth_trace_survives_disk() {
    let trace = NetworkProfile::LteDrive.generate(SimDuration::from_secs(120), 5);
    let path = scratch("roundtrip.btrace");
    std::fs::write(&path, write_bandwidth_trace(&trace)).expect("write");
    let back = std::fs::read_to_string(&path).expect("read");
    let parsed = parse_bandwidth_trace(&back).expect("parse");
    assert_eq!(parsed.points().len(), trace.points().len());
    for t in [0u64, 30, 60, 119] {
        let at = SimTime::from_secs(t);
        let diff = (parsed.rate_at(at) - trace.rate_at(at)).abs();
        assert!(diff < 1.0, "rate differs at {t}s by {diff}");
    }
}

proptest! {
    /// The parsers never panic on arbitrary input.
    #[test]
    fn parsers_never_panic(text in ".{0,400}") {
        let _ = parse_video_trace(&text);
        let _ = parse_bandwidth_trace(&text);
    }

    /// Generated bandwidth traces always round-trip through text.
    #[test]
    fn bandwidth_roundtrip_any_seed(seed in any::<u64>(), profile in 0u8..3) {
        let profile = NetworkProfile::ALL[profile as usize];
        let trace = profile.generate(SimDuration::from_secs(30), seed);
        let parsed = parse_bandwidth_trace(&write_bandwidth_trace(&trace)).unwrap();
        prop_assert_eq!(parsed.points().len(), trace.points().len());
    }

    /// Hand-built step traces round-trip exactly at change points.
    #[test]
    fn step_trace_roundtrip(steps in proptest::collection::vec((0u64..1000, 0.0f64..1e8), 1..20)) {
        let mut points = Vec::new();
        let mut t = 0u64;
        for (i, &(dt, rate)) in steps.iter().enumerate() {
            t += if i == 0 { 0 } else { dt.max(1) };
            points.push((SimTime::from_secs(t), rate));
        }
        // Dedup equal times (construction requires strictly increasing).
        points.dedup_by_key(|(time, _)| *time);
        let trace = BandwidthTrace::from_points(points);
        let parsed = parse_bandwidth_trace(&write_bandwidth_trace(&trace)).unwrap();
        for (a, b) in parsed.points().iter().zip(trace.points()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert!((a.1 - b.1).abs() < 0.01);
        }
    }
}

/// A small valid video trace: `reps` rungs of `fseg × nseg` frames with
/// integral cycle counts (the text format writes cycles to the cycle).
fn small_video(
    seed: u64,
    fps: u32,
    fseg: u64,
    nseg: u64,
    reps: usize,
) -> (Manifest, Vec<Vec<Frame>>) {
    let ladder = (0..reps)
        .map(|id| Representation {
            id,
            bitrate_kbps: 500 * (id as u32 + 1),
            width: 640,
            height: 360,
        })
        .collect();
    let manifest = Manifest::new(ladder, fseg, nseg, fps);
    let duration = manifest.frame_duration();
    let frames = (0..reps as u64)
        .map(|rep| {
            (0..fseg * nseg)
                .map(|index| {
                    let h =
                        (seed ^ rep.wrapping_mul(0x9E37_79B9) ^ index.wrapping_mul(0x85EB_CA6B))
                            .wrapping_mul(0xC2B2_AE35);
                    Frame {
                        index,
                        frame_type: FrameType::ALL[(h % 3) as usize],
                        size_bytes: (h >> 8) as u32 % 100_000,
                        decode_cycles: Cycles::new(((h >> 20) % 50_000_000) as f64),
                        duration,
                    }
                })
                .collect()
        })
        .collect();
    (manifest, frames)
}

/// Replaces whitespace-separated field `field` of line `line` (both
/// wrapped modulo their counts) with `value`.
fn replace_field(text: &str, line: usize, field: usize, value: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let line = line % lines.len();
    lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            if i != line {
                return (*l).to_owned();
            }
            let mut parts: Vec<&str> = l.split_whitespace().collect();
            if !parts.is_empty() {
                let f = field % parts.len();
                parts[f] = value;
            }
            parts.join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Values a hostile or corrupted field may hold.
const HOSTILE: [&str; 10] = [
    "0",
    "18446744073709551615",
    "18446744073709551616",
    "4294967295",
    "-1",
    "NaN",
    "inf",
    "1e308",
    "x",
    "",
];

#[test]
fn every_header_field_swept_to_zero_and_max_never_panics() {
    let (manifest, frames) = small_video(1, 30, 4, 2, 2);
    let video = write_video_trace(&manifest, &frames);
    let bw = write_bandwidth_trace(&BandwidthTrace::from_mbps_steps(&[(0, 5.0), (1, 2.0)]));
    // Line 0 is the comment; the header, both rungs and the first frame
    // carry every kind of field the video format has.
    for (line, fields) in [(1, 4), (2, 5), (3, 5), (4, 6)] {
        for field in 1..fields {
            for value in ["0", "18446744073709551615"] {
                let _ = parse_video_trace(&replace_field(&video, line, field, value));
            }
        }
    }
    for line in [1, 2] {
        for field in 1..3 {
            for value in ["0", "18446744073709551615"] {
                let _ = parse_bandwidth_trace(&replace_field(&bw, line, field, value));
            }
        }
    }
}

#[test]
fn hostile_headers_are_errors_naming_their_line() {
    let body = "rep 0 1000 640 360\n";
    for (text, line) in [
        (format!("video 0 2 1\n{body}"), 1),
        (format!("video 30 0 1\n{body}"), 1),
        (format!("video 30 2 0\n{body}"), 1),
        (format!("video 30 4294967296 4294967296\n{body}"), 1),
        (
            "video 30 2 1\nrep 0 1000 640 360\nrep 1 1000 1280 720\n".to_owned(),
            3,
        ),
    ] {
        let e = parse_video_trace(&text).expect_err(&text);
        assert_eq!(e.line, line, "{text:?}: {e}");
    }
    for (text, line) in [
        ("bw 5 1000\nbw 10 2000\n", 1),
        ("bw 0 1000\nbw 10 2000\nbw 10 3000\n", 3),
    ] {
        let e = parse_bandwidth_trace(text).expect_err(text);
        assert_eq!(e.line, line, "{text:?}: {e}");
    }
}

proptest! {
    /// Single-line mutations and truncations of valid encodings never
    /// panic: each field of any line replaced by a hostile value, a line
    /// dropped or repeated, or the text cut anywhere.
    #[test]
    fn mutated_and_truncated_encodings_never_panic(
        seed in any::<u64>(),
        line in any::<usize>(),
        field in any::<usize>(),
        value in 0usize..HOSTILE.len(),
        cut in any::<usize>(),
    ) {
        let (manifest, frames) = small_video(seed, 30, 3, 2, 2);
        let video = write_video_trace(&manifest, &frames);
        let bw = write_bandwidth_trace(&NetworkProfile::ALL[seed as usize % 3]
            .generate(SimDuration::from_secs(5), seed));
        for text in [&video, &bw] {
            let lines: Vec<&str> = text.lines().collect();
            let at = line % lines.len();
            let mut dropped = lines.clone();
            dropped.remove(at);
            let mut repeated = lines.clone();
            repeated.insert(at, lines[at]);
            let cut = text.floor_char_boundary(cut % (text.len() + 1));
            for mutated in [
                replace_field(text, line, field, HOSTILE[value]),
                dropped.join("\n"),
                repeated.join("\n"),
                text[..cut].to_owned(),
            ] {
                let _ = parse_video_trace(&mutated);
                let _ = parse_bandwidth_trace(&mutated);
            }
        }
    }

    /// Writing then parsing a video trace is the identity.
    #[test]
    fn video_write_then_parse_is_identity(
        seed in any::<u64>(),
        fps in 1u32..241,
        fseg in 1u64..8,
        nseg in 1u64..5,
        reps in 1usize..4,
    ) {
        let (manifest, frames) = small_video(seed, fps, fseg, nseg, reps);
        let parsed = parse_video_trace(&write_video_trace(&manifest, &frames)).unwrap();
        prop_assert_eq!(parsed, VideoTrace { manifest, frames });
    }

    /// Writing then parsing a bandwidth trace is the identity for rates
    /// the three-decimal text form holds exactly.
    #[test]
    fn bandwidth_write_then_parse_is_identity(
        steps in proptest::collection::vec((1u64..1_000_000_000, 0u32..100_000_000), 1..20),
    ) {
        let mut t = 0;
        let points: Vec<(SimTime, f64)> = steps
            .iter()
            .enumerate()
            .map(|(i, &(dt, rate))| {
                if i > 0 {
                    t += dt;
                }
                (SimTime::from_nanos(t), f64::from(rate))
            })
            .collect();
        let trace = BandwidthTrace::from_points(points);
        let parsed = parse_bandwidth_trace(&write_bandwidth_trace(&trace)).unwrap();
        prop_assert_eq!(parsed, trace);
    }

    /// A segment hands back exactly the frames it was built from, decode
    /// cycles to the bit, with the same size, duration and first index,
    /// for every size the record holds (`0..2^30`).
    #[test]
    fn segment_packing_preserves_every_frame(
        first in 0u64..1 << 40,
        duration_ns in 1u64..1_000_000_000,
        raw in proptest::collection::vec((0u8..3, 0u32..MAX_FRAME_BYTES + 1, any::<u64>()), 1..200),
    ) {
        let frames: Vec<Frame> = raw
            .iter()
            .enumerate()
            .map(|(i, &(ty, size, bits))| Frame {
                index: first + i as u64,
                frame_type: FrameType::ALL[ty as usize],
                size_bytes: size,
                // Any non-negative bit pattern, infinities and NaNs clamped.
                decode_cycles: Cycles::new(f64::from_bits(bits & (u64::MAX >> 1)).min(f64::MAX)),
                duration: SimDuration::from_nanos(duration_ns),
            })
            .collect();
        let segment = Segment::new(7, 1, frames.clone());
        prop_assert_eq!(segment.num_frames(), frames.len());
        prop_assert_eq!(segment.frames().len(), frames.len());
        for (got, want) in segment.frames().zip(&frames) {
            prop_assert_eq!(got.index, want.index);
            prop_assert_eq!(got.frame_type, want.frame_type);
            prop_assert_eq!(got.size_bytes, want.size_bytes);
            prop_assert_eq!(got.decode_cycles.get().to_bits(), want.decode_cycles.get().to_bits());
            prop_assert_eq!(got.duration, want.duration);
        }
        prop_assert_eq!(
            segment.size_bytes(),
            frames.iter().map(|f| u64::from(f.size_bytes)).sum::<u64>()
        );
        prop_assert_eq!(segment.duration(), frames.iter().map(|f| f.duration).sum::<SimDuration>());
        prop_assert_eq!(segment.first_frame_index(), first);
        prop_assert_eq!(segment.into_frames(), frames);
    }
}

/// One P frame of `size` bytes at index `index`.
fn frame_of(index: u64, size: u32) -> Frame {
    Frame {
        index,
        frame_type: FrameType::P,
        size_bytes: size,
        decode_cycles: Cycles::new(1e6),
        duration: SimDuration::from_nanos(33_333_333),
    }
}

#[test]
fn the_largest_frame_the_record_holds_round_trips_at_every_type() {
    assert_eq!(MAX_FRAME_BYTES, (1 << 30) - 1);
    let frames: Vec<Frame> = FrameType::ALL
        .into_iter()
        .zip(0..)
        .map(|(frame_type, i)| Frame {
            frame_type,
            ..frame_of(i, MAX_FRAME_BYTES)
        })
        .collect();
    let segment = Segment::new(0, 0, frames.clone());
    assert_eq!(segment.size_bytes(), 3 * u64::from(MAX_FRAME_BYTES));
    assert_eq!(segment.frames().collect::<Vec<_>>(), frames);
}

#[test]
#[should_panic(expected = "record limit")]
fn a_frame_of_two_to_the_thirty_bytes_panics_in_segment_new() {
    Segment::new(0, 0, vec![frame_of(0, 1 << 30)]);
}

#[test]
fn a_trace_frame_of_two_to_the_thirty_bytes_is_a_parse_error_naming_its_line() {
    let (manifest, frames) = small_video(3, 30, 2, 1, 1);
    let video = write_video_trace(&manifest, &frames);
    // Line 0 is the comment, 1 the header, 2 the rung, 3 the first frame.
    for (size, refused) in [(MAX_FRAME_BYTES, false), (1 << 30, true), (u32::MAX, true)] {
        let text = replace_field(&video, 3, 4, &size.to_string());
        match parse_video_trace(&text) {
            Ok(trace) => {
                assert!(!refused, "{size} accepted");
                assert_eq!(
                    trace.segment(0, 0).frames().next().unwrap().size_bytes,
                    size
                );
            }
            Err(e) => {
                assert!(refused, "{size} refused: {e}");
                assert_eq!(e.line, 4, "{e}");
                assert!(e.message.contains("limit"), "{e}");
            }
        }
    }
}
