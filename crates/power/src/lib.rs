//! Whole-device energy co-model: radio RRC, display, and decoder power.
//!
//! The paper charges only the CPU for streaming, but on real devices the
//! network interface, panel, and decoder dominate the budget. This crate
//! adds the three missing components behind one [`DevicePowerModel`]:
//!
//! - **Radio** ([`RrcRadioModel`]): an explicit RRC-style state machine
//!   (IDLE → PROMO → ACTIVE → TAIL) walked over the merged download
//!   activity intervals the session already produces. Promotion latency
//!   and the demotion tail timer are both configurable, so the F29
//!   tail-timer sweep is a one-field change.
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
//! function of the session's download timeline, chosen bitrates,
//! manifest, seed, and length. It schedules no events and draws nothing
//! from the session RNG, so attaching any model — including
//! [`DevicePowerModel::none`], the zero-power default — cannot perturb
//! the simulation by construction. The no-op contract is still proven by
//! test (`tests/attachments.rs`), not by this argument alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eavs_net::radio::{merge_intervals, ActivityInterval};
use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::time::{SimDuration, SimTime};
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

/// An RRC-style radio state machine with a single configurable tail
/// timer and promotion latency.
///
/// Unlike [`eavs_net::radio::RadioModel`] (two fixed tail phases,
/// promotion charged as a lump of energy), this machine walks the four
/// states explicitly and reports per-state residency, which is what the
/// F28 breakdown and the F29 tail sweep plot.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RrcRadioModel {
    /// Camped-idle power, watts.
    pub idle_power_w: f64,
    /// Power while signaling an IDLE→ACTIVE promotion, watts.
    pub promo_power_w: f64,
    /// Power while actively transferring, watts.
    pub active_power_w: f64,
    /// Power during the inactivity tail, watts.
    pub tail_power_w: f64,
    /// Duration of promotion signaling at the head of a transfer that
    /// finds the radio idle.
    pub promotion_latency: SimDuration,
    /// Inactivity timer: how long the radio holds the tail state after
    /// the last transfer before demoting to idle.
    pub tail_timer: SimDuration,
}

impl RrcRadioModel {
    /// LTE-flavored defaults: ~1.1 W connected, ~0.6 W tail for 10 s,
    /// 260 ms promotion at ~1.3 W signaling power.
    pub fn lte() -> Self {
        RrcRadioModel {
            idle_power_w: 0.015,
            promo_power_w: 1.3,
            active_power_w: 1.1,
            tail_power_w: 0.6,
            promotion_latency: SimDuration::from_millis(260),
            tail_timer: SimDuration::from_secs(10),
        }
    }

    /// 3G-flavored defaults: slow 1.5 s promotion, long 12 s tail.
    pub fn umts_3g() -> Self {
        RrcRadioModel {
            idle_power_w: 0.02,
            promo_power_w: 1.2,
            active_power_w: 1.2,
            tail_power_w: 0.7,
            promotion_latency: SimDuration::from_millis(1500),
            tail_timer: SimDuration::from_secs(12),
        }
    }

    /// The same machine with a different tail timer — the F29 sweep knob.
    pub fn with_tail_timer(self, tail_timer: SimDuration) -> Self {
        RrcRadioModel { tail_timer, ..self }
    }

    /// Walks IDLE/PROMO/ACTIVE/TAIL over the session's activity
    /// intervals (merged internally) and returns the per-state residency
    /// and energy.
    ///
    /// A promotion is charged whenever a transfer begins while the radio
    /// is idle: at session start, or after a gap longer than
    /// `tail_timer`. Promotion signaling occupies the head of the
    /// transfer interval (clipped to the interval length), the remainder
    /// is ACTIVE; after the interval the radio holds TAIL for up to
    /// `tail_timer`, truncated by the next transfer or session end, then
    /// demotes to IDLE. The four residencies partition `session_len`
    /// exactly.
    pub fn account(&self, activity: Vec<ActivityInterval>, session_len: SimDuration) -> RrcReport {
        let end = SimTime::ZERO + session_len;
        let merged = merge_intervals(activity);
        let mut r = RrcReport::default();
        let mut prev_end: Option<SimTime> = None;
        for (i, iv) in merged.iter().enumerate() {
            let iv_end = iv.end.min(end);
            let iv_start = iv.start.min(iv_end);
            if iv_end <= iv_start {
                continue;
            }
            let promoted = match prev_end {
                None => true,
                Some(pe) => iv_start.saturating_duration_since(pe) > self.tail_timer,
            };
            let len = iv_end - iv_start;
            if promoted {
                r.promotions += 1;
                let promo = len.min(self.promotion_latency);
                r.promo_time += promo;
                r.active_time += len.saturating_sub(promo);
            } else {
                r.active_time += len;
            }
            let next_start = merged
                .get(i + 1)
                .map(|n| n.start)
                .unwrap_or(SimTime::MAX)
                .min(end);
            let gap = next_start.saturating_duration_since(iv_end);
            r.tail_time += gap.min(self.tail_timer);
            prev_end = Some(iv_end);
        }
        r.idle_time = session_len
            .saturating_sub(r.active_time)
            .saturating_sub(r.promo_time)
            .saturating_sub(r.tail_time);
        r.energy_j = self.idle_power_w * r.idle_time.as_secs_f64()
            + self.promo_power_w * r.promo_time.as_secs_f64()
            + self.active_power_w * r.active_time.as_secs_f64()
            + self.tail_power_w * r.tail_time.as_secs_f64();
        r
    }

    /// Hashes every parameter into `fp`.
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_f64(self.idle_power_w);
        fp.write_f64(self.promo_power_w);
        fp.write_f64(self.active_power_w);
        fp.write_f64(self.tail_power_w);
        fp.write_u64(self.promotion_latency.as_nanos());
        fp.write_u64(self.tail_timer.as_nanos());
    }
}

/// Per-state residency and energy of one [`RrcRadioModel`] walk.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct RrcReport {
    /// Time camped idle.
    pub idle_time: SimDuration,
    /// Time spent in promotion signaling.
    pub promo_time: SimDuration,
    /// Time actively transferring.
    pub active_time: SimDuration,
    /// Time in the inactivity tail.
    pub tail_time: SimDuration,
    /// IDLE→ACTIVE promotions charged.
    pub promotions: u32,
    /// Total radio energy, joules.
    pub energy_j: f64,
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

/// The whole-device co-model: any subset of radio, display, and decoder.
///
/// The default ([`DevicePowerModel::none`]) has every component absent
/// and accounts to an all-zero [`DevicePowerReport`] — the zero-power
/// no-op every committed figure runs under.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct DevicePowerModel {
    /// RRC radio component, if modeled.
    pub radio: Option<RrcRadioModel>,
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
        self.radio.is_none() && self.display.is_none() && self.decoder.is_none()
    }

    /// A phone-class device: LTE radio, 60 % brightness panel, hardware
    /// decoder driving a 1080p display.
    pub fn phone() -> Self {
        DevicePowerModel::phone_with_brightness(0.6)
    }

    /// [`DevicePowerModel::phone`] at an explicit brightness.
    pub fn phone_with_brightness(brightness: f64) -> Self {
        DevicePowerModel {
            radio: Some(RrcRadioModel::lte()),
            display: Some(DisplayModel::phone(brightness)),
            decoder: Some(DecoderModel::phone_1080p()),
        }
    }

    /// Accounts the whole device for one finished session: a pure
    /// function of the download timeline, the chosen per-segment
    /// bitrates, the manifest, the session seed, and the session length.
    /// No event-loop state is read, so the computation cannot perturb
    /// the simulation it describes.
    pub fn account(
        &self,
        seed: u64,
        activity: Vec<ActivityInterval>,
        bitrates: &[u32],
        manifest: &Manifest,
        session_len: SimDuration,
    ) -> DevicePowerReport {
        let mut report = DevicePowerReport::default();
        if let Some(radio) = &self.radio {
            let rrc = radio.account(activity, session_len);
            report.radio_j = rrc.energy_j;
            report.radio_idle_time = rrc.idle_time;
            report.radio_promo_time = rrc.promo_time;
            report.radio_active_time = rrc.active_time;
            report.radio_tail_time = rrc.tail_time;
            report.radio_promotions = rrc.promotions;
        }
        if let Some(display) = &self.display {
            report.display_j = display.account(seed, manifest, session_len);
        }
        if let Some(decoder) = &self.decoder {
            report.decoder_j = decoder.account(bitrates, manifest);
        }
        report
    }

    /// Hashes the model into `fp`: one presence byte per component, then
    /// its parameters. [`DevicePowerModel::none`] hashes as three zero
    /// bytes — callers that want none-equals-absent must tag at their
    /// own layer (the session builder does).
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        match &self.radio {
            Some(r) => {
                fp.write_u8(1);
                r.fingerprint(fp);
            }
            None => fp.write_u8(0),
        }
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
    /// Radio energy, joules.
    pub radio_j: f64,
    /// Display energy, joules.
    pub display_j: f64,
    /// Decoder energy, joules.
    pub decoder_j: f64,
    /// Radio time camped idle.
    pub radio_idle_time: SimDuration,
    /// Radio time in promotion signaling.
    pub radio_promo_time: SimDuration,
    /// Radio time actively transferring.
    pub radio_active_time: SimDuration,
    /// Radio time in the inactivity tail.
    pub radio_tail_time: SimDuration,
    /// Radio IDLE→ACTIVE promotions.
    pub radio_promotions: u32,
}

impl DevicePowerReport {
    /// Total whole-device energy across modeled components, joules.
    pub fn total_j(&self) -> f64 {
        self.radio_j + self.display_j + self.decoder_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_metrics::stats::ExactSum;
    use proptest::prelude::*;

    fn iv(s_ms: u64, e_ms: u64) -> ActivityInterval {
        ActivityInterval {
            start: SimTime::ZERO + SimDuration::from_millis(s_ms),
            end: SimTime::ZERO + SimDuration::from_millis(e_ms),
        }
    }

    #[test]
    fn none_model_reports_all_zeros() {
        let m = DevicePowerModel::none();
        assert!(m.is_none());
        let manifest = Manifest::standard_ladder(SimDuration::from_secs(10), 30);
        let r = m.account(
            7,
            vec![iv(0, 2_000)],
            &[700, 1_500],
            &manifest,
            SimDuration::from_secs(10),
        );
        assert_eq!(r, DevicePowerReport::default());
        assert_eq!(r.total_j(), 0.0);
    }

    #[test]
    fn rrc_states_partition_the_session() {
        let m = RrcRadioModel::lte();
        let r = m.account(
            vec![iv(0, 3_000), iv(20_000, 23_000)],
            SimDuration::from_secs(60),
        );
        assert_eq!(
            r.idle_time + r.promo_time + r.active_time + r.tail_time,
            SimDuration::from_secs(60)
        );
        // Two transfers separated by 17 s > 10 s tail: two promotions.
        assert_eq!(r.promotions, 2);
        assert!(r.energy_j > 0.0);
    }

    #[test]
    fn close_transfers_skip_the_second_promotion() {
        let m = RrcRadioModel::lte();
        let r = m.account(
            vec![iv(0, 3_000), iv(5_000, 8_000)],
            SimDuration::from_secs(30),
        );
        assert_eq!(r.promotions, 1);
        // One 260 ms promotion, the rest of both transfers active.
        assert_eq!(r.promo_time, SimDuration::from_millis(260));
        assert_eq!(r.active_time, SimDuration::from_millis(5_740));
    }

    #[test]
    fn longer_tail_timer_costs_more_energy() {
        let activity = vec![iv(0, 2_000), iv(30_000, 32_000)];
        let len = SimDuration::from_secs(60);
        let short = RrcRadioModel::lte()
            .with_tail_timer(SimDuration::from_secs(1))
            .account(activity.clone(), len);
        let long = RrcRadioModel::lte()
            .with_tail_timer(SimDuration::from_secs(20))
            .account(activity, len);
        assert!(long.tail_time > short.tail_time);
        assert!(long.energy_j > short.energy_j);
        // The short timer demotes to idle in the gap; the long one also
        // avoids the second promotion once the timer covers the gap.
        assert_eq!(short.promotions, 2);
    }

    #[test]
    fn activity_clipped_to_session_end() {
        let m = RrcRadioModel::lte();
        let r = m.account(
            vec![iv(0, 5_000), iv(8_000, 20_000)],
            SimDuration::from_secs(6),
        );
        assert_eq!(
            r.idle_time + r.promo_time + r.active_time + r.tail_time,
            SimDuration::from_secs(6)
        );
        // The second interval starts after session end: never counted.
        assert_eq!(r.promotions, 1);
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
        let mut tail = DevicePowerModel::phone();
        tail.radio = tail
            .radio
            .map(|r| r.with_tail_timer(SimDuration::from_secs(3)));
        let c = digest(&tail);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, digest(&DevicePowerModel::none()));
    }

    proptest! {
        /// The radio walk is a pure function of the *timeline*, not of
        /// how the caller sliced or ordered the intervals: shuffling the
        /// list and splitting any interval in two leave the report
        /// bit-identical, and the state residencies always partition the
        /// session exactly.
        #[test]
        fn rrc_walk_is_a_pure_function_of_the_timeline(
            raw in proptest::collection::vec((0u64..120_000, 0u64..8_000), 0..12),
            session_ms in 1_000u64..180_000,
            tail_ms in 0u64..30_000,
            split_idx in 0usize..12,
            split_frac in 0.0f64..1.0,
            swap in proptest::collection::vec((0usize..12, 0usize..12), 0..6),
        ) {
            let model = RrcRadioModel::lte()
                .with_tail_timer(SimDuration::from_millis(tail_ms));
            let session = SimDuration::from_millis(session_ms);
            let intervals: Vec<ActivityInterval> = raw
                .iter()
                .map(|&(s, len)| iv(s, s + len))
                .collect();
            let base = model.account(intervals.clone(), session);

            // Shuffled order: identical report.
            let mut shuffled = intervals.clone();
            for &(a, b) in &swap {
                if a < shuffled.len() && b < shuffled.len() {
                    shuffled.swap(a, b);
                }
            }
            prop_assert_eq!(model.account(shuffled, session), base);

            // Splitting one interval into two touching halves: identical.
            let mut split = intervals.clone();
            let at = split_idx % split.len().max(1);
            if let Some(victim) = split.get(at).copied() {
                let len = victim.end.saturating_duration_since(victim.start);
                let cut = victim.start
                    + SimDuration::from_nanos((len.as_nanos() as f64 * split_frac) as u64);
                split[at] = ActivityInterval {
                    start: victim.start,
                    end: cut,
                };
                split.push(ActivityInterval { start: cut, end: victim.end });
                prop_assert_eq!(model.account(split, session), base);
            }

            // Residency partition is exact.
            prop_assert_eq!(
                base.idle_time + base.promo_time + base.active_time + base.tail_time,
                session
            );
            prop_assert!(base.energy_j.is_finite() && base.energy_j >= 0.0);
        }

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
                        vec![iv(0, 500 + seed % 3_000)],
                        &[700, 3_000],
                        &manifest,
                        SimDuration::from_secs(8),
                    )
                })
                .collect();
            let fold = |rs: &[DevicePowerReport]| {
                let mut s = ExactSum::new();
                for r in rs {
                    s.add(r.radio_j);
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
