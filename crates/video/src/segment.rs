//! Media segments: the unit of download.
//!
//! A [`Segment`] keeps each frame in a 12-byte record (decode cycles, and
//! the size and type in one word), so frame sizes are limited to
//! [`MAX_FRAME_BYTES`] (2^30 − 1 B).

use crate::frame::{Frame, FrameType};
use eavs_cpu::freq::Cycles;
use eavs_sim::time::SimDuration;

/// Largest frame size a segment stores, bytes: `2^30 − 1`. The record
/// keeps a frame's size in 30 bits beside its type.
pub const MAX_FRAME_BYTES: u32 = (1 << TYPE_SHIFT) - 1;

/// Bit position of the frame type in [`PackedFrame::size_and_type`].
const TYPE_SHIFT: u32 = 30;

/// The per-frame part of a [`Frame`]: what differs from one frame of a
/// segment to the next. 12 bytes, against a `Frame`'s 32: the decode
/// cost, then one word with the size in its low 30 bits and the type
/// ([`FrameType::index`]) in its top 2.
#[derive(Clone, Copy, PartialEq, Debug)]
#[repr(C, packed(4))]
struct PackedFrame {
    decode_cycles: Cycles,
    size_and_type: u32,
}

const _: () = assert!(std::mem::size_of::<PackedFrame>() == 12);

impl PackedFrame {
    fn frame_type(self) -> FrameType {
        match self.size_and_type >> TYPE_SHIFT {
            0 => FrameType::I,
            1 => FrameType::P,
            _ => FrameType::B,
        }
    }

    fn size_bytes(self) -> u32 {
        self.size_and_type & MAX_FRAME_BYTES
    }
}

/// One downloadable media segment: an ordered run of frames at one
/// representation.
///
/// Frames of a segment have consecutive indices and one duration (1/fps),
/// so the segment stores the first index and the duration once and keeps
/// only each frame's type, size and decode cost. Generated segments stay
/// resident in the process-wide memo (`eavs_trace::memo`) for the whole
/// run, which is why the per-frame record is kept small.
#[derive(Clone, PartialEq, Debug)]
pub struct Segment {
    /// Segment index within the stream.
    pub index: u64,
    /// Ladder index this segment was encoded at.
    pub representation_id: usize,
    first_frame_index: u64,
    frame_duration: SimDuration,
    frames: Box<[PackedFrame]>,
}

impl Segment {
    /// Builds a segment from its frames in decode order.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty, frame indices are not consecutive,
    /// frame durations differ, or a frame is larger than
    /// [`MAX_FRAME_BYTES`].
    pub fn new(
        index: u64,
        representation_id: usize,
        frames: impl IntoIterator<Item = Frame>,
    ) -> Self {
        let mut frames = frames.into_iter().peekable();
        let first = *frames
            .peek()
            .unwrap_or_else(|| panic!("segment {index} has no frames"));
        let frames = frames
            .zip(first.index..)
            .map(|(f, expected)| {
                assert_eq!(
                    f.index, expected,
                    "segment {index}: frame indices must be consecutive"
                );
                assert_eq!(
                    f.duration, first.duration,
                    "segment {index}: frame durations differ"
                );
                assert!(
                    f.size_bytes <= MAX_FRAME_BYTES,
                    "segment {index}: frame {} is {} bytes, over the {MAX_FRAME_BYTES}-byte record limit",
                    f.index,
                    f.size_bytes
                );
                PackedFrame {
                    decode_cycles: f.decode_cycles,
                    size_and_type: f.size_bytes | (f.frame_type.index() as u32) << TYPE_SHIFT,
                }
            })
            .collect();
        Segment {
            index,
            representation_id,
            first_frame_index: first.index,
            frame_duration: first.duration,
            frames,
        }
    }

    /// The frames in decode order.
    pub fn frames(&self) -> impl ExactSizeIterator<Item = Frame> + '_ {
        self.frames.iter().enumerate().map(|(i, &p)| Frame {
            index: self.first_frame_index + i as u64,
            frame_type: p.frame_type(),
            size_bytes: p.size_bytes(),
            decode_cycles: p.decode_cycles,
            duration: self.frame_duration,
        })
    }

    /// Consumes the segment, yielding its frames.
    pub fn into_frames(self) -> Vec<Frame> {
        self.frames().collect()
    }

    /// Number of frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Total coded size in bytes (what the downloader must transfer).
    pub fn size_bytes(&self) -> u64 {
        self.frames.iter().map(|f| u64::from(f.size_bytes())).sum()
    }

    /// Media duration of the segment.
    pub fn duration(&self) -> SimDuration {
        self.frame_duration * self.frames.len() as u64
    }

    /// Global index of the first frame.
    pub fn first_frame_index(&self) -> u64 {
        self.first_frame_index
    }

    /// Inline plus heap bytes this segment holds.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Segment>() + std::mem::size_of_val(&*self.frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(index: u64, size: u32) -> Frame {
        Frame {
            index,
            frame_type: FrameType::P,
            size_bytes: size,
            decode_cycles: Cycles::from_mega(4.0),
            duration: SimDuration::from_nanos(33_333_333),
        }
    }

    #[test]
    fn aggregates_size_and_duration() {
        let s = Segment::new(0, 1, vec![frame(0, 100), frame(1, 200), frame(2, 300)]);
        assert_eq!(s.num_frames(), 3);
        assert_eq!(s.size_bytes(), 600);
        assert_eq!(s.duration(), SimDuration::from_nanos(3 * 33_333_333));
        assert_eq!(s.first_frame_index(), 0);
        assert_eq!(s.representation_id, 1);
    }

    #[test]
    fn into_frames_preserves_order() {
        let s = Segment::new(2, 0, vec![frame(60, 10), frame(61, 20)]);
        let frames = s.into_frames();
        assert_eq!(frames[0].index, 60);
        assert_eq!(frames[1].index, 61);
    }

    #[test]
    fn packed_frames_are_12_bytes() {
        let s = Segment::new(0, 0, (0..60).map(|i| frame(i, 1)));
        assert_eq!(s.approx_bytes(), std::mem::size_of::<Segment>() + 60 * 12);
    }

    #[test]
    #[should_panic(expected = "no frames")]
    fn empty_segment_rejected() {
        Segment::new(0, 0, vec![]);
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn gap_in_frames_rejected() {
        Segment::new(0, 0, vec![frame(0, 1), frame(2, 1)]);
    }

    #[test]
    #[should_panic(expected = "durations differ")]
    fn mixed_durations_rejected() {
        let mut second = frame(1, 1);
        second.duration = SimDuration::from_nanos(16_666_667);
        Segment::new(0, 0, vec![frame(0, 1), second]);
    }
}
