//! Synthetic video workload generation.
//!
//! Produces [`Segment`]s with per-frame coded sizes and ground-truth decode
//! cycles. The statistical structure matters more than absolute values:
//!
//! * per-type multipliers (I ≫ P > B) on both size and cost;
//! * lognormal within-type variation (content-dependent CV);
//! * GOP-correlated scene changes that inflate whole GOPs;
//! * decode cost scaling with resolution (cycles/pixel) plus a bitrate
//!   term (entropy decoding scales with bits).
//!
//! Generation is *position-addressable*: segment `k` at rung `r` is the
//! same bytes/cycles no matter what the ABR did before it, because each
//! (segment, rung) pair forks its own RNG stream. This keeps comparisons
//! between governors workload-identical even when buffer dynamics shift
//! download order.
//!
//! Generation fills the segment memo (`crate::memo`), so every
//! never-seen stream pays for it. Only the draws are per frame: the
//! scene-change draw is taken once per GOP (keyed by the GOP's first
//! frame, which may lie in an earlier segment), the size distributions
//! once per segment (three frame types × scene change or not), and the
//! lognormal shapes and the size normalization are fixed by the
//! profile and GOP. Frame sizes saturate at the segment record's limit,
//! [`MAX_FRAME_BYTES`] (2^30 − 1).

use std::sync::Arc;

use crate::content::ContentProfile;
use eavs_cpu::freq::Cycles;
use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::rng::{LogNormalCv, SimRng};
use eavs_video::frame::{Frame, FrameType};
use eavs_video::gop::GopStructure;
use eavs_video::manifest::{Manifest, Representation};
use eavs_video::segment::{Segment, MAX_FRAME_BYTES};

/// Mean decode cycles per pixel for film content at 1.0 complexity.
/// ≈ 9.5 cycles/pixel puts 1080p30 software decode around 20 Mcycles per
/// frame — a realistic load for phone-class cores.
const CYCLES_PER_PIXEL: f64 = 9.5;

/// Additional decode cycles per coded byte (entropy decode).
const CYCLES_PER_BYTE: f64 = 8.0;

/// Per-type size multipliers (relative to the stream mean).
fn size_factor(t: FrameType) -> f64 {
    match t {
        FrameType::I => 4.0,
        FrameType::P => 1.2,
        FrameType::B => 0.55,
    }
}

/// Per-type decode-cost multipliers (costs vary less than sizes).
fn cycle_factor(t: FrameType) -> f64 {
    match t {
        FrameType::I => 1.8,
        FrameType::P => 1.1,
        FrameType::B => 0.75,
    }
}

/// Normalization so that the type-mix-weighted size equals the mean.
fn size_norm(gop: GopStructure) -> f64 {
    let mix = gop.type_mix();
    let weighted = mix[FrameType::I.index()] * size_factor(FrameType::I)
        + mix[FrameType::P.index()] * size_factor(FrameType::P)
        + mix[FrameType::B.index()] * size_factor(FrameType::B);
    1.0 / weighted
}

/// Deterministic synthetic video source for one title.
///
/// The manifest is held behind an [`Arc`] so parallel sweeps can share one
/// allocation across hundreds of sessions instead of deep-cloning the ladder
/// per job.
#[derive(Clone, Debug)]
pub struct VideoGenerator {
    manifest: Arc<Manifest>,
    profile: ContentProfile,
    gop: GopStructure,
    root: SimRng,
    seed: u64,
    /// Normalization so that the type-mix-weighted size equals the mean.
    size_norm: f64,
    /// Digest of (manifest contents, profile, gop, seed): the identity
    /// under which [`VideoGenerator::shared_segment`] memoizes.
    memo_key: u128,
}

impl VideoGenerator {
    /// Creates a generator for `manifest` with the given content profile
    /// and seed. Accepts either an owned `Manifest` or a shared
    /// `Arc<Manifest>`.
    pub fn new(manifest: impl Into<Arc<Manifest>>, profile: ContentProfile, seed: u64) -> Self {
        let root = SimRng::new(seed).fork("video-gen");
        let gop = GopStructure::streaming_default();
        let mut gen = VideoGenerator {
            manifest: manifest.into(),
            profile,
            gop,
            root,
            seed,
            size_norm: size_norm(gop),
            memo_key: 0,
        };
        gen.rekey();
        gen
    }

    /// Overrides the GOP structure.
    pub fn with_gop(mut self, gop: GopStructure) -> Self {
        self.gop = gop;
        self.size_norm = size_norm(gop);
        self.rekey();
        self
    }

    /// Recomputes the memoization key from the generator's inputs. The
    /// manifest is hashed by content, so two generators over separately
    /// allocated but identical ladders share cache entries.
    fn rekey(&mut self) {
        let mut fp = Fingerprinter::new("eavs-video-gen/v1");
        self.manifest.fingerprint(&mut fp);
        fp.write_str(self.profile.name());
        fp.write_u32(self.gop.gop_length());
        for mix in self.gop.type_mix() {
            fp.write_f64(mix);
        }
        fp.write_u64(self.seed);
        self.memo_key = fp.finish().expect("no opaque inputs").0;
    }

    /// The manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The content profile.
    pub fn profile(&self) -> ContentProfile {
        self.profile
    }

    /// Mean coded bytes per frame at `rep`, before type multipliers.
    fn mean_frame_bytes(&self, rep: Representation) -> f64 {
        f64::from(rep.bitrate_kbps) * 1000.0 / 8.0 / f64::from(self.manifest.fps)
    }

    /// Whether the GOP starting at global frame `gop_start` is a scene
    /// change (deterministic per position).
    fn is_scene_change(&self, gop_start: u64) -> bool {
        let mut rng = self.root.fork(&format!("scene-{gop_start}"));
        rng.bernoulli(self.profile.scene_change_prob())
    }

    /// Generates segment `index` encoded at ladder rung `rep_id`.
    ///
    /// Deterministic in `(seed, index, rep_id)`. Frame sizes saturate at
    /// [`MAX_FRAME_BYTES`], the segment record's limit.
    ///
    /// # Panics
    ///
    /// Panics if `index` or `rep_id` is out of range for the manifest.
    pub fn segment(&self, index: u64, rep_id: usize) -> Segment {
        assert!(index < self.manifest.num_segments, "segment out of range");
        let rep = self.manifest.representation(rep_id);
        let mut rng = self.root.fork(&format!("seg-{index}-rep-{rep_id}"));
        let frames_per_seg = self.manifest.frames_per_segment;
        let first = index * frames_per_seg;
        let mean_bytes = self.mean_frame_bytes(rep) * self.size_norm;
        let frame_duration = self.manifest.frame_duration();
        let gop_len = u64::from(self.gop.gop_length());

        // Everything below but the draws is fixed for the segment: per
        // frame type (and scene change), the size distribution and the
        // resolution part of the decode cost.
        let boosts = [1.0, self.profile.scene_change_boost()];
        let size_shape = LogNormalCv::new(self.profile.size_cv());
        let cycle_shape = LogNormalCv::new(self.profile.cycle_cv());
        let size_dist = boosts.map(|boost| {
            FrameType::ALL.map(|t| size_shape.with_mean(mean_bytes * size_factor(t) * boost))
        });
        let pixel_cycles = FrameType::ALL.map(|t| {
            CYCLES_PER_PIXEL * self.profile.complexity() * rep.pixels() as f64 * cycle_factor(t)
        });
        // The scene draw of the GOP the last frame fell in. A GOP may
        // start before the segment's first frame, so it is keyed by the
        // GOP's first frame, not by the segment.
        let mut scene: Option<(u64, usize)> = None;

        let frames = (first..first + frames_per_seg).map(|global| {
            let ftype = self.gop.frame_type_at(global);
            let gop_start = global - global % gop_len;
            let scene_change = match scene {
                Some((start, change)) if start == gop_start => change,
                _ => {
                    let change = usize::from(self.is_scene_change(gop_start));
                    scene = Some((gop_start, change));
                    change
                }
            };
            let t = ftype.index();
            let size = size_dist[scene_change][t].sample(&mut rng).max(64.0);
            let cycle_mean = (pixel_cycles[t] + CYCLES_PER_BYTE * size) * boosts[scene_change];
            let cycles = rng.lognormal_cv(cycle_mean, &cycle_shape).max(10_000.0);
            Frame {
                index: global,
                frame_type: ftype,
                size_bytes: size.round().min(f64::from(MAX_FRAME_BYTES)) as u32,
                decode_cycles: Cycles::new(cycles),
                duration: frame_duration,
            }
        });
        Segment::new(index, rep_id, frames)
    }

    /// Memoized [`segment`](Self::segment): identical `(manifest,
    /// profile, gop, seed, index, rep_id)` tuples are generated once per
    /// process and shared as an `Arc`.
    ///
    /// # Panics
    ///
    /// Panics if `index` or `rep_id` is out of range for the manifest.
    pub fn shared_segment(&self, index: u64, rep_id: usize) -> Arc<Segment> {
        crate::memo::shared_segment((self.memo_key, index, rep_id), || {
            self.segment(index, rep_id)
        })
    }

    /// Generates the whole stream at a fixed rung (analysis figures).
    pub fn all_segments(&self, rep_id: usize) -> Vec<Segment> {
        (0..self.manifest.num_segments)
            .map(|i| self.segment(i, rep_id))
            .collect()
    }

    /// Mean decode cycles per frame at a rung, estimated over the stream
    /// (used to size experiments).
    pub fn mean_cycles_per_frame(&self, rep_id: usize) -> f64 {
        let mut total = 0.0;
        let mut n = 0u64;
        for seg in self.all_segments(rep_id) {
            for f in seg.frames() {
                total += f.decode_cycles.get();
                n += 1;
            }
        }
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_sim::time::SimDuration;

    fn generator(profile: ContentProfile) -> VideoGenerator {
        let manifest = Manifest::standard_ladder(SimDuration::from_secs(20), 30);
        VideoGenerator::new(manifest, profile, 42)
    }

    #[test]
    fn deterministic_and_abr_path_independent() {
        let g1 = generator(ContentProfile::Film);
        let g2 = generator(ContentProfile::Film);
        // Same (segment, rung) twice, and regardless of generation order.
        let a = g2.segment(5, 2);
        let _ = g2.segment(0, 0);
        let b = g1.segment(5, 2);
        assert_eq!(a, b);
        // Different rungs differ.
        assert_ne!(g1.segment(5, 2), g1.segment(5, 3));
    }

    #[test]
    fn segment_size_tracks_bitrate() {
        let g = generator(ContentProfile::Film);
        let m = g.manifest().clone();
        for rep in m.representations() {
            let total: u64 = (0..m.num_segments)
                .map(|i| g.segment(i, rep.id).size_bytes())
                .sum();
            let expected = rep.bytes_per_segment(SimDuration::from_secs(2)) * m.num_segments;
            let ratio = total as f64 / expected as f64;
            assert!(
                (0.75..1.35).contains(&ratio),
                "{rep}: generated/nominal = {ratio:.2}"
            );
        }
    }

    #[test]
    fn i_frames_dominate_sizes_and_cycles() {
        let g = generator(ContentProfile::Film);
        let mut sums = [0.0f64; 3];
        let mut counts = [0u64; 3];
        let mut cyc = [0.0f64; 3];
        for seg in g.all_segments(3) {
            for f in seg.frames() {
                sums[f.frame_type.index()] += f64::from(f.size_bytes);
                cyc[f.frame_type.index()] += f.decode_cycles.get();
                counts[f.frame_type.index()] += 1;
            }
        }
        let mean = |v: f64, c: u64| v / c as f64;
        let (i_sz, p_sz, b_sz) = (
            mean(sums[0], counts[0]),
            mean(sums[1], counts[1]),
            mean(sums[2], counts[2]),
        );
        assert!(i_sz > 2.0 * p_sz, "I frames much larger than P");
        assert!(p_sz > b_sz, "P larger than B");
        let (i_cy, p_cy, b_cy) = (
            mean(cyc[0], counts[0]),
            mean(cyc[1], counts[1]),
            mean(cyc[2], counts[2]),
        );
        assert!(i_cy > p_cy && p_cy > b_cy, "cost ordering I > P > B");
    }

    #[test]
    fn cycles_scale_with_resolution() {
        let g = generator(ContentProfile::Film);
        let low = g.mean_cycles_per_frame(0); // 360p
        let high = g.mean_cycles_per_frame(3); // 1080p
        assert!(
            high > 3.0 * low,
            "1080p should cost ≫ 360p: {high:.0} vs {low:.0}"
        );
    }

    #[test]
    fn realistic_decode_budget_at_1080p() {
        // ~20 Mcycles/frame at 1080p film: feasible on a ~900 MHz core at
        // 30 fps (22 ms < 33 ms) but not on a 307 MHz core.
        let g = generator(ContentProfile::Film);
        let mean = g.mean_cycles_per_frame(3);
        assert!(
            (12e6..40e6).contains(&mean),
            "1080p mean cycles/frame {mean:.3e} outside plausible band"
        );
    }

    #[test]
    fn sport_is_harder_and_burstier_than_animation() {
        let sport = generator(ContentProfile::Sport);
        let anim = generator(ContentProfile::Animation);
        assert!(sport.mean_cycles_per_frame(3) > 1.4 * anim.mean_cycles_per_frame(3));
        // Burstiness: compare per-frame cycle CV at the same rung.
        let cv = |g: &VideoGenerator| {
            let mut xs = Vec::new();
            for seg in g.all_segments(3) {
                xs.extend(seg.frames().map(|f| f.decode_cycles.get()));
            }
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            var.sqrt() / mean
        };
        assert!(cv(&sport) > cv(&anim), "sport must be burstier");
    }

    #[test]
    fn a_title_at_the_largest_bitrate_saturates_its_frames_at_the_record_limit() {
        let manifest = Manifest::single(u32::MAX, 3840, 2160, SimDuration::from_secs(4), 30);
        let g = VideoGenerator::new(manifest, ContentProfile::Sport, 9);
        for seg in g.all_segments(0) {
            for f in seg.frames() {
                assert!(f.size_bytes <= MAX_FRAME_BYTES, "{f:?}");
                assert!(f.decode_cycles.get().is_finite());
            }
            // Every mean frame is far past the limit, so every frame sits on it.
            assert_eq!(
                seg.size_bytes(),
                seg.num_frames() as u64 * u64::from(MAX_FRAME_BYTES)
            );
        }
    }

    #[test]
    fn frame_indices_are_globally_consecutive() {
        let g = generator(ContentProfile::Film);
        let m = g.manifest().clone();
        let mut expected = 0u64;
        for i in 0..m.num_segments {
            let seg = g.segment(i, 1);
            for f in seg.frames() {
                assert_eq!(f.index, expected);
                expected += 1;
            }
        }
        assert_eq!(expected, m.total_frames());
    }

    mod equivalence {
        use super::super::*;
        use eavs_sim::time::SimDuration;
        use proptest::prelude::*;

        /// The per-frame loop `segment` replaced, kept as its oracle: it
        /// re-derives the scene draw, both lognormal shapes, `ln(mean)`
        /// and the size normalization for every frame.
        fn reference_segment(g: &VideoGenerator, index: u64, rep_id: usize) -> Vec<Frame> {
            let rep = g.manifest.representation(rep_id);
            let mut rng = g.root.fork(&format!("seg-{index}-rep-{rep_id}"));
            let frames_per_seg = g.manifest.frames_per_segment;
            let first = index * frames_per_seg;
            let mean_bytes = g.mean_frame_bytes(rep) * size_norm(g.gop);
            let frame_duration = g.manifest.frame_duration();
            let gop_len = u64::from(g.gop.gop_length());
            (first..first + frames_per_seg)
                .map(|global| {
                    let ftype = g.gop.frame_type_at(global);
                    let gop_start = global - global % gop_len;
                    let boost = if g.is_scene_change(gop_start) {
                        g.profile.scene_change_boost()
                    } else {
                        1.0
                    };
                    let size_mean = mean_bytes * size_factor(ftype) * boost;
                    let size = rng
                        .lognormal_mean_cv(size_mean, g.profile.size_cv())
                        .max(64.0);
                    let cycle_mean = (CYCLES_PER_PIXEL
                        * g.profile.complexity()
                        * rep.pixels() as f64
                        * cycle_factor(ftype)
                        + CYCLES_PER_BYTE * size)
                        * boost;
                    let cycles = rng
                        .lognormal_mean_cv(cycle_mean, g.profile.cycle_cv())
                        .max(10_000.0);
                    Frame {
                        index: global,
                        frame_type: ftype,
                        size_bytes: size.round() as u32,
                        decode_cycles: Cycles::new(cycles),
                        duration: frame_duration,
                    }
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(300))]

            /// Every frame of every segment equals the oracle's, decode
            /// cycles to the bit: standard ladders and single rungs, fps
            /// and segment lengths that make GOPs straddle segments, and
            /// GOP structures other than the default.
            #[test]
            fn segment_equals_the_per_frame_loop(
                profile in 0usize..3,
                seed in any::<u64>(),
                single in any::<bool>(),
                fps in 1u32..61,
                fseg in 1u64..150,
                nseg in 1u64..6,
                gop in (0u32..3, 1u32..130, 0u32..4),
                picks in (any::<u64>(), any::<usize>()),
            ) {
                let ladder = if single {
                    Manifest::single(2_500, 1280, 720, SimDuration::from_secs(2), fps)
                } else {
                    Manifest::standard_ladder(SimDuration::from_secs(2), fps)
                };
                let manifest = Manifest::new(ladder.representations().to_vec(), fseg, nseg, fps);
                let mut g = VideoGenerator::new(manifest, ContentProfile::ALL[profile], seed);
                // One case in three keeps the streaming default GOP.
                if gop.0 > 0 {
                    g = g.with_gop(GopStructure::new(gop.1, gop.2));
                }
                let index = picks.0 % nseg;
                let rep_id = picks.1 % g.manifest().num_representations();
                let want = reference_segment(&g, index, rep_id);
                let got = g.segment(index, rep_id).into_frames();
                prop_assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(&want) {
                    prop_assert_eq!(a.decode_cycles.get().to_bits(), b.decode_cycles.get().to_bits());
                    prop_assert_eq!(a, b);
                }
            }
        }
    }
}
