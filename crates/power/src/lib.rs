//! Whole-device energy co-model: display and decoder power.
//!
//! The paper charges only the CPU for streaming, but on real devices the
//! network interface, panel, and decoder dominate the budget. The radio
//! is the session's own `eavs_net::radio::RadioModel`
//! (`SessionBuilder::radio`); this crate adds the other two components
//! behind one [`DevicePowerModel`]:
//!
//! - **Display** ([`DisplayModel`]): panel power keyed on brightness with
//!   an EVSO-style per-segment frame-similarity discount. Similarity is a
//!   coordinate-keyed draw on `(seed, segment)` — like `RandomFaults`,
//!   it is a pure function of stable coordinates, never of event order.
//! - **Decoder** ([`DecoderModel`]): decode cycles charged per megapixel
//!   of the chosen representation, plus an upscale-energy term for the
//!   pixels the panel must synthesize when decode resolution is below
//!   display resolution (Herglotz-style spatial-scaling trade-off).
//!
//! Accounting is *post-hoc*: [`DevicePowerModel::account`] is a pure
//! function of the session's chosen bitrates, manifest, seed, and
//! length. It schedules no events and draws nothing from the session
//! RNG, so attaching any model — including [`DevicePowerModel::none`],
//! the zero-power default — cannot perturb the simulation by
//! construction. The no-op contract is still proven by test
//! (`tests/attachments.rs`), not by this argument alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::time::SimDuration;
use eavs_video::manifest::Manifest;

/// Decision domain for the coordinate-keyed frame-similarity draw,
/// disjoint from the fault-injection domains by convention (they mix a
/// different subsystem tag into the seed anyway).
const DOMAIN_SIMILARITY: u64 = 0x51;

/// Mix a seed with a (domain, a, b) coordinate into a 64-bit hash.
/// SplitMix64-style finalization: order-free, avalanche on every input —
/// the same scheme `eavs-faults` uses for coordinate-keyed draws.
fn coordinate_hash(seed: u64, domain: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        .wrapping_add(domain.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The per-segment frame-similarity factor in `[0, 1)`: a pure function
/// of `(seed, segment)`, independent of governor, thread count and
/// execution order.
pub fn segment_similarity(seed: u64, segment: u64) -> f64 {
    let h = coordinate_hash(seed, DOMAIN_SIMILARITY, segment, 0);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Panel power keyed on brightness with an EVSO-style per-segment
/// frame-similarity discount.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DisplayModel {
    /// Backlight/OLED drive level in `[0, 1]`.
    pub brightness: f64,
    /// Panel power at zero brightness (controller + always-on), watts.
    pub base_power_w: f64,
    /// Additional power at full brightness, watts.
    pub full_power_w: f64,
    /// Fraction of the brightness-dependent power saved when consecutive
    /// frames are fully similar (EVSO dims imperceptibly on static
    /// content); scaled by each segment's similarity factor.
    pub similarity_gain: f64,
}

impl DisplayModel {
    /// A phone-class panel: ~0.35 W base, up to ~1.1 W more at full
    /// brightness, 30 % ceiling on the similarity discount.
    pub fn phone(brightness: f64) -> Self {
        DisplayModel {
            brightness,
            base_power_w: 0.35,
            full_power_w: 1.1,
            similarity_gain: 0.3,
        }
    }

    /// Panel power while displaying segment `seg` of a `seed`-keyed
    /// session, watts.
    pub fn segment_power_w(&self, seed: u64, seg: u64) -> f64 {
        let discount = 1.0 - self.similarity_gain * segment_similarity(seed, seg);
        self.base_power_w + self.brightness * self.full_power_w * discount
    }

    /// Integrates panel power over the session: the wall clock is cut on
    /// the manifest's segment grid, each slice billed at that segment's
    /// similarity-discounted power (slices past the last content segment
    /// hold its factor — the panel keeps showing the final frames).
    /// Summation order is the fixed segment order, so the result is
    /// bit-stable.
    pub fn account(&self, seed: u64, manifest: &Manifest, session_len: SimDuration) -> f64 {
        let seg_ns = manifest.segment_duration().as_nanos();
        let total_ns = session_len.as_nanos();
        let mut energy = 0.0;
        let mut t = 0u64;
        let mut idx = 0u64;
        while t < total_ns {
            let slice = seg_ns.min(total_ns - t);
            let seg = idx.min(manifest.num_segments.saturating_sub(1));
            energy += self.segment_power_w(seed, seg) * slice as f64 / 1e9;
            t += slice;
            idx += 1;
        }
        energy
    }

    /// Hashes every parameter into `fp`.
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_f64(self.brightness);
        fp.write_f64(self.base_power_w);
        fp.write_f64(self.full_power_w);
        fp.write_f64(self.similarity_gain);
    }
}

/// Decoder energy charged by decode resolution, with an upscale term for
/// the pixels the display pipeline synthesizes when decoding below panel
/// resolution.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DecoderModel {
    /// Decode energy per megapixel decoded, joules.
    pub decode_j_per_mpx: f64,
    /// Upscale energy per megapixel of display-resolution deficit, joules.
    pub upscale_j_per_mpx: f64,
    /// Panel width the decoded frames are scaled to, pixels.
    pub display_width: u32,
    /// Panel height the decoded frames are scaled to, pixels.
    pub display_height: u32,
}

impl DecoderModel {
    /// A phone-class hardware decoder driving a 1080p panel.
    pub fn phone_1080p() -> Self {
        DecoderModel {
            decode_j_per_mpx: 0.0020,
            upscale_j_per_mpx: 0.0008,
            display_width: 1920,
            display_height: 1080,
        }
    }

    /// Panel pixels per frame.
    fn display_pixels(&self) -> f64 {
        f64::from(self.display_width) * f64::from(self.display_height)
    }

    /// Charges every downloaded segment's frames at its chosen
    /// representation's resolution (looked up by bitrate in the
    /// manifest's ladder), plus the upscale deficit to panel resolution.
    /// Summation order is the fixed segment order, so the result is
    /// bit-stable.
    pub fn account(&self, bitrates: &[u32], manifest: &Manifest) -> f64 {
        let display_px = self.display_pixels();
        let frames = manifest.frames_per_segment as f64;
        let mut energy = 0.0;
        for &kbps in bitrates {
            let rep = manifest
                .representations()
                .iter()
                .find(|r| r.bitrate_kbps == kbps)
                .copied()
                .unwrap_or_else(|| manifest.representation(0));
            let px = rep.pixels() as f64;
            energy += frames * px / 1e6 * self.decode_j_per_mpx;
            if px < display_px {
                energy += frames * (display_px - px) / 1e6 * self.upscale_j_per_mpx;
            }
        }
        energy
    }

    /// Hashes every parameter into `fp`.
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_f64(self.decode_j_per_mpx);
        fp.write_f64(self.upscale_j_per_mpx);
        fp.write_u32(self.display_width);
        fp.write_u32(self.display_height);
    }
}

/// The whole-device co-model: any subset of display and decoder.
///
/// The default ([`DevicePowerModel::none`]) has every component absent
/// and accounts to an all-zero [`DevicePowerReport`] — the zero-power
/// no-op every committed figure runs under.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct DevicePowerModel {
    /// Display component, if modeled.
    pub display: Option<DisplayModel>,
    /// Decoder component, if modeled.
    pub decoder: Option<DecoderModel>,
}

impl DevicePowerModel {
    /// The zero-power no-op: no components, all-zero report.
    pub fn none() -> Self {
        DevicePowerModel::default()
    }

    /// True when no component is modeled (the no-op).
    pub fn is_none(&self) -> bool {
        self.display.is_none() && self.decoder.is_none()
    }

    /// A phone-class device: 60 % brightness panel, hardware decoder
    /// driving a 1080p display.
    pub fn phone() -> Self {
        DevicePowerModel::phone_with_brightness(0.6)
    }

    /// [`DevicePowerModel::phone`] at an explicit brightness.
    pub fn phone_with_brightness(brightness: f64) -> Self {
        DevicePowerModel {
            display: Some(DisplayModel::phone(brightness)),
            decoder: Some(DecoderModel::phone_1080p()),
        }
    }

    /// Accounts the modeled components for one finished session: a pure
    /// function of the chosen per-segment bitrates, the manifest, the
    /// session seed, and the session length.
    /// No event-loop state is read, so the computation cannot perturb
    /// the simulation it describes.
    pub fn account(
        &self,
        seed: u64,
        bitrates: &[u32],
        manifest: &Manifest,
        session_len: SimDuration,
    ) -> DevicePowerReport {
        let mut report = DevicePowerReport::default();
        if let Some(display) = &self.display {
            report.display_j = display.account(seed, manifest, session_len);
        }
        if let Some(decoder) = &self.decoder {
            report.decoder_j = decoder.account(bitrates, manifest);
        }
        report
    }

    /// Hashes the model into `fp`: one presence byte per component, then
    /// its parameters. [`DevicePowerModel::none`] hashes as two zero
    /// bytes — callers that want none-equals-absent must tag at their
    /// own layer (the session builder does).
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        match &self.display {
            Some(d) => {
                fp.write_u8(1);
                d.fingerprint(fp);
            }
            None => fp.write_u8(0),
        }
        match &self.decoder {
            Some(d) => {
                fp.write_u8(1);
                d.fingerprint(fp);
            }
            None => fp.write_u8(0),
        }
    }
}

/// Per-component whole-device energy counters for one session. The
/// default is all-zero — what every session reports when the model is
/// [`DevicePowerModel::none`].
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct DevicePowerReport {
    /// Display energy, joules.
    pub display_j: f64,
    /// Decoder energy, joules.
    pub decoder_j: f64,
}

impl DevicePowerReport {
    /// Total energy across the modeled components, joules.
    pub fn total_j(&self) -> f64 {
        self.display_j + self.decoder_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_metrics::stats::ExactSum;
    use proptest::prelude::*;

    #[test]
    fn none_model_reports_all_zeros() {
        let m = DevicePowerModel::none();
        assert!(m.is_none());
        let manifest = Manifest::standard_ladder(SimDuration::from_secs(10), 30);
        let r = m.account(7, &[700, 1_500], &manifest, SimDuration::from_secs(10));
        assert_eq!(r, DevicePowerReport::default());
        assert_eq!(r.total_j(), 0.0);
    }

    #[test]
    fn similarity_is_coordinate_keyed_and_in_range() {
        for seed in [0u64, 1, 42, u64::MAX] {
            for seg in 0..64u64 {
                let s = segment_similarity(seed, seg);
                assert!((0.0..1.0).contains(&s), "similarity {s} out of range");
                assert_eq!(s, segment_similarity(seed, seg), "must be pure");
            }
        }
        assert_ne!(segment_similarity(1, 0), segment_similarity(2, 0));
        assert_ne!(segment_similarity(1, 0), segment_similarity(1, 1));
    }

    #[test]
    fn display_energy_scales_with_brightness_and_session_length() {
        let manifest = Manifest::standard_ladder(SimDuration::from_secs(60), 30);
        let dim = DisplayModel::phone(0.2);
        let bright = DisplayModel::phone(1.0);
        let len = SimDuration::from_secs(60);
        assert!(bright.account(42, &manifest, len) > dim.account(42, &manifest, len));
        assert!(
            bright.account(42, &manifest, SimDuration::from_secs(30))
                < bright.account(42, &manifest, len)
        );
    }

    #[test]
    fn decoder_charges_upscale_below_panel_resolution() {
        let manifest = Manifest::standard_ladder(SimDuration::from_secs(10), 30);
        let d = DecoderModel::phone_1080p();
        let low = d.account(&[700, 700], &manifest); // 360p: big upscale deficit
        let native = d.account(&[6_000, 6_000], &manifest); // 1080p: no deficit
        let high = d.account(&[10_000, 10_000], &manifest); // 1440p: no deficit
        assert!(low > 0.0);
        assert!(native < high, "more pixels decoded must cost more");
        // The 1080p rungs pay no upscale term.
        let native_only =
            2.0 * manifest.frames_per_segment as f64 * 2_073_600.0 / 1e6 * d.decode_j_per_mpx;
        assert!((native - native_only).abs() < 1e-12);
    }

    #[test]
    fn phone_preset_fingerprint_distinguishes_parameters() {
        let digest = |m: &DevicePowerModel| {
            let mut fp = Fingerprinter::new("power-test/v1");
            m.fingerprint(&mut fp);
            fp.finish()
        };
        let a = digest(&DevicePowerModel::phone());
        let b = digest(&DevicePowerModel::phone_with_brightness(0.61));
        let mut no_decoder = DevicePowerModel::phone();
        no_decoder.decoder = None;
        let c = digest(&no_decoder);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, digest(&DevicePowerModel::none()));
    }

    proptest! {
        /// Component energies fold into [`ExactSum`] with the bit-exact
        /// shard-split/merge property fleet aggregation relies on: any
        /// partition of the reports, merged in any grouping, yields the
        /// identical raw accumulator.
        #[test]
        fn component_energies_are_exactsum_mergeable(
            seeds in proptest::collection::vec(0u64..1_000, 1..24),
            cut in 0usize..24,
        ) {
            let manifest = Manifest::standard_ladder(SimDuration::from_secs(8), 30);
            let model = DevicePowerModel::phone();
            let reports: Vec<DevicePowerReport> = seeds
                .iter()
                .map(|&seed| {
                    model.account(
                        seed,
                        &[700, if seed % 2 == 0 { 3_000 } else { 1_500 }],
                        &manifest,
                        SimDuration::from_secs(8 + seed % 5),
                    )
                })
                .collect();
            let fold = |rs: &[DevicePowerReport]| {
                let mut s = ExactSum::new();
                for r in rs {
                    s.add(r.display_j);
                    s.add(r.decoder_j);
                }
                s
            };
            let whole = fold(&reports);
            let cut = cut % reports.len().max(1);
            let mut left = fold(&reports[..cut]);
            let right = fold(&reports[cut..]);
            left.merge(&right);
            prop_assert_eq!(left.raw(), whole.raw());
        }
    }
}
