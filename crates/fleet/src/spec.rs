//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] describes a *population*: weighted mixes of devices,
//! networks, content, titles and ABR policies, a governor matrix, an
//! arrival window and the histogram shapes the aggregates use. The spec is
//! plain data with a stable fingerprint, so a campaign is reproducible
//! from its spec alone and a checkpoint can refuse to resume against a
//! different spec.

use std::sync::Arc;

use eavs_core::session::default_horizon;
use eavs_cpu::soc::SocModel;
use eavs_net::bandwidth::check_constant_rate;
use eavs_power::DevicePowerModel;
use eavs_sim::fingerprint::{Fingerprint, Fingerprinter};
use eavs_sim::names;
use eavs_sim::time::NANOS_PER_SEC;
use eavs_trace::content::ContentProfile;
use eavs_trace::net_gen::NetworkProfile;
use eavs_video::manifest::Manifest;

/// A network condition drawn for one session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetworkChoice {
    /// Constant bandwidth in Mbit/s (the lab-conditions baseline).
    Constant(f64),
    /// A generated trace from one of the measurement-derived profiles;
    /// the per-session trace seed comes from the campaign's trace pool.
    Profile(NetworkProfile),
}

impl NetworkChoice {
    /// Short stable name, used in fingerprints and labels.
    pub fn name(&self) -> String {
        match self {
            NetworkChoice::Constant(mbps) => format!("constant:{mbps}"),
            NetworkChoice::Profile(p) => p.name().to_owned(),
        }
    }

    /// Checks that a session over this network can stream `manifest`: a
    /// constant rate must pass [`check_constant_rate`], a profile always can.
    ///
    /// # Errors
    ///
    /// A message naming the network and why no session streams over it.
    pub fn check_streams(&self, manifest: &Manifest) -> Result<(), String> {
        match self {
            NetworkChoice::Constant(mbps) => check_constant_rate(mbps * 1e6, manifest)
                .map_err(|e| format!("network {}: {e}", self.name())),
            NetworkChoice::Profile(_) => Ok(()),
        }
    }
}

impl std::str::FromStr for NetworkChoice {
    type Err = String;

    /// `constant:<mbps>` with the rate in any `f64` spelling, so
    /// [`NetworkChoice::name`] parses back to its value, or a profile.
    fn from_str(name: &str) -> Result<Self, String> {
        if let Some(mbps) = name.strip_prefix("constant:") {
            return mbps
                .parse()
                .map(NetworkChoice::Constant)
                .map_err(|_| format!("bad constant rate {name:?}; want constant:<mbps>"));
        }
        let valid = names::join(&NetworkProfile::ALL, NetworkProfile::name);
        name.parse()
            .map(NetworkChoice::Profile)
            .map_err(|_| format!("unknown network {name:?}; valid: constant:<mbps> {valid}"))
    }
}

/// The ABR policy a session streams under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbrChoice {
    /// Fixed single-representation manifest at the title's bitrate.
    Fixed,
    /// Throughput-based ABR over the standard ladder.
    Rate,
    /// Buffer-based ABR over the standard ladder.
    Buffer,
}

impl AbrChoice {
    /// All policies.
    pub const ALL: [AbrChoice; 3] = [AbrChoice::Fixed, AbrChoice::Rate, AbrChoice::Buffer];

    /// Short stable name, used in fingerprints and labels.
    pub fn name(self) -> &'static str {
        match self {
            AbrChoice::Fixed => "fixed",
            AbrChoice::Rate => "rate",
            AbrChoice::Buffer => "buffer",
        }
    }
}

eavs_sim::from_name!("abr", AbrChoice);

/// One title in the content catalog: the encode a session streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TitleSpec {
    /// Bitrate of the (single-representation) encode, kbps.
    pub bitrate_kbps: u32,
    /// Luma width.
    pub width: u32,
    /// Luma height.
    pub height: u32,
    /// Stream length in seconds.
    pub duration_s: u64,
    /// Frames per second.
    pub fps: u32,
}

impl TitleSpec {
    /// Highest frame rate: a session reserves a segment's frames up
    /// front and sizes its buffer in whole frames.
    pub const MAX_FPS: u32 = 1_000;
    /// Largest width or height: decode time grows with the frame area.
    pub const MAX_SIDE: u32 = 16_384;

    /// Stable encode key for prior aggregation: everything that shapes
    /// per-frame decode cost (bitrate, resolution, fps) — but not the
    /// stream length, so priors learned on clips transfer to full
    /// titles of the same encode. Whitespace-free for line formats.
    pub fn key(&self) -> String {
        format!(
            "{}kbps-{}x{}@{}",
            self.bitrate_kbps, self.width, self.height, self.fps
        )
    }

    /// The title rule: [`crate::campaign::manifest_for`]`(self, abr)`
    /// once the title has a positive bitrate and duration, an fps in
    /// `1..=MAX_FPS`, sides in `1..=MAX_SIDE` and a default session
    /// horizon (six lengths plus a minute) that fits the clock.
    ///
    /// # Errors
    ///
    /// A message naming the title and the bound it breaks.
    pub fn manifest(&self, abr: AbrChoice) -> Result<Arc<Manifest>, String> {
        let refuse = |why: String| Err(format!("title {} {why}", self.key()));
        // A zero mean frame size panics the generator's lognormal draw.
        if self.bitrate_kbps == 0 || self.duration_s == 0 {
            return refuse("needs a positive bitrate and duration".to_owned());
        }
        let (rates, sides) = (1..=Self::MAX_FPS, 1..=Self::MAX_SIDE);
        if !rates.contains(&self.fps) {
            return refuse(format!("needs an fps in {rates:?}"));
        }
        if !(sides.contains(&self.width) && sides.contains(&self.height)) {
            return refuse(format!("needs a width and height in {sides:?}"));
        }
        let too_long = || refuse("is longer than a session can stream".to_owned());
        if self.duration_s.checked_mul(NANOS_PER_SEC).is_none() {
            return too_long();
        }
        let manifest = crate::campaign::manifest_for(self, abr);
        if default_horizon(&manifest).is_none() {
            return too_long();
        }
        Ok(manifest)
    }
}

/// Histogram shape: `(lo, hi, bins)` for one aggregated metric.
pub type HistShape = (f64, f64, usize);

/// Most bins a campaign histogram may have (the presets use at most
/// 120; every bin is resident in every lane and checkpoint).
pub const MAX_HIST_BINS: usize = 4096;

/// A declarative fleet campaign.
///
/// All mixes are weighted; weights need not sum to 1 (they are
/// normalized at draw time). Every session runs once under *each*
/// governor in `governors` — a paired population, so per-governor
/// distributions are directly comparable.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (labels, table titles, CSV ids).
    pub name: String,
    /// Master seed: every per-session draw is keyed on
    /// `(seed, session_id)` coordinates.
    pub seed: u64,
    /// Number of sessions in the population.
    pub sessions: u64,
    /// Sessions per shard (the unit of scheduling, checkpointing and
    /// memory accounting).
    pub shard_size: u64,
    /// Governor matrix: each session runs under every listed governor.
    /// Names are the baseline set plus `eavs` and `eavs-panic`.
    pub governors: Vec<String>,
    /// Device mix.
    pub devices: Vec<(SocModel, f64)>,
    /// Network mix.
    pub networks: Vec<(NetworkChoice, f64)>,
    /// Content-profile mix (decode statistics).
    pub contents: Vec<(ContentProfile, f64)>,
    /// Title catalog (encodes).
    pub titles: Vec<(TitleSpec, f64)>,
    /// ABR mix.
    pub abrs: Vec<(AbrChoice, f64)>,
    /// Distinct trace seeds per network profile. A small pool means many
    /// sessions share a trace, which both mirrors reality (popular
    /// routes) and lets the content-addressed session cache deduplicate.
    pub trace_pool: u64,
    /// Distinct workload seeds. Same dedup logic as `trace_pool`.
    pub seed_pool: u64,
    /// Arrival window in seconds: sessions arrive uniformly over
    /// `[0, span)` (a Poisson process conditioned on N).
    pub arrival_span_s: u64,
    /// Whole-device power model attached to every session of the
    /// population. Accounting is post-hoc, so any model leaves the
    /// simulated timelines untouched; the default [`DevicePowerModel::none`]
    /// additionally leaves every report byte-identical.
    pub power: DevicePowerModel,
    /// Histogram shape for CPU energy (joules).
    pub energy_hist: HistShape,
    /// Histogram shape for the composite QoE score.
    pub qoe_hist: HistShape,
    /// Histogram shape for startup delay (milliseconds).
    pub startup_hist_ms: HistShape,
}

impl CampaignSpec {
    /// The small CI campaign: 200 sessions of short clips under
    /// `ondemand` vs `eavs`, sized to finish in seconds.
    pub fn smoke() -> Self {
        CampaignSpec {
            name: "smoke".to_owned(),
            seed: 42,
            sessions: 200,
            shard_size: 25,
            governors: vec!["ondemand".to_owned(), "eavs".to_owned()],
            devices: vec![
                (SocModel::Flagship2016, 0.6),
                (SocModel::MidRange, 0.3),
                (SocModel::BigLittle2013, 0.1),
            ],
            networks: vec![
                (NetworkChoice::Constant(20.0), 0.5),
                (NetworkChoice::Profile(NetworkProfile::WifiHome), 0.3),
                (NetworkChoice::Profile(NetworkProfile::LteDrive), 0.2),
            ],
            contents: vec![
                (ContentProfile::Film, 0.5),
                (ContentProfile::Animation, 0.3),
                (ContentProfile::Sport, 0.2),
            ],
            titles: vec![
                (
                    TitleSpec {
                        bitrate_kbps: 6_000,
                        width: 1920,
                        height: 1080,
                        duration_s: 10,
                        fps: 30,
                    },
                    0.7,
                ),
                (
                    TitleSpec {
                        bitrate_kbps: 3_000,
                        width: 1280,
                        height: 720,
                        duration_s: 10,
                        fps: 30,
                    },
                    0.3,
                ),
            ],
            abrs: vec![(AbrChoice::Fixed, 0.7), (AbrChoice::Buffer, 0.3)],
            trace_pool: 4,
            seed_pool: 8,
            arrival_span_s: 3_600,
            power: DevicePowerModel::none(),
            energy_hist: (0.0, 30.0, 60),
            qoe_hist: (-100.0, 10.0, 110),
            startup_hist_ms: (0.0, 5_000.0, 100),
        }
    }

    /// The population campaign behind F26: a heterogeneous 2016-era
    /// fleet (three SoC tiers, wifi/LTE/HSPA mix, full content catalog)
    /// streaming 30 s clips under the headline governor comparison.
    pub fn global() -> Self {
        CampaignSpec {
            name: "global".to_owned(),
            seed: 42,
            sessions: 10_000,
            shard_size: 250,
            governors: vec![
                "performance".to_owned(),
                "ondemand".to_owned(),
                "interactive".to_owned(),
                "schedutil".to_owned(),
                "eavs".to_owned(),
            ],
            devices: vec![
                (SocModel::Flagship2016, 0.35),
                (SocModel::MidRange, 0.45),
                (SocModel::BigLittle2013, 0.20),
            ],
            networks: vec![
                (NetworkChoice::Constant(20.0), 0.30),
                (NetworkChoice::Profile(NetworkProfile::WifiHome), 0.30),
                (NetworkChoice::Profile(NetworkProfile::LteDrive), 0.25),
                (NetworkChoice::Profile(NetworkProfile::HspaTram), 0.15),
            ],
            contents: vec![
                (ContentProfile::Film, 0.45),
                (ContentProfile::Animation, 0.30),
                (ContentProfile::Sport, 0.25),
            ],
            titles: vec![
                (
                    TitleSpec {
                        bitrate_kbps: 6_000,
                        width: 1920,
                        height: 1080,
                        duration_s: 30,
                        fps: 30,
                    },
                    0.5,
                ),
                (
                    TitleSpec {
                        bitrate_kbps: 3_000,
                        width: 1280,
                        height: 720,
                        duration_s: 30,
                        fps: 30,
                    },
                    0.35,
                ),
                (
                    TitleSpec {
                        bitrate_kbps: 1_500,
                        width: 854,
                        height: 480,
                        duration_s: 30,
                        fps: 30,
                    },
                    0.15,
                ),
            ],
            abrs: vec![(AbrChoice::Fixed, 0.6), (AbrChoice::Buffer, 0.4)],
            trace_pool: 4,
            seed_pool: 8,
            arrival_span_s: 3_600,
            power: DevicePowerModel::none(),
            energy_hist: (0.0, 60.0, 120),
            qoe_hist: (-100.0, 10.0, 110),
            startup_hist_ms: (0.0, 5_000.0, 100),
        }
    }

    /// Looks up a named preset.
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "global" => Some(Self::global()),
            _ => None,
        }
    }

    /// Number of shards the population splits into.
    pub fn num_shards(&self) -> u64 {
        self.sessions.div_ceil(self.shard_size)
    }

    /// The session-id range `[start, end)` of shard `index`.
    pub fn shard_range(&self, index: u64) -> (u64, u64) {
        let start = index * self.shard_size;
        (
            start,
            start.saturating_add(self.shard_size).min(self.sessions),
        )
    }

    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on empty mixes, bad weights,
    /// degenerate sizes, a title [`TitleSpec::manifest`] refuses, a
    /// network [`NetworkChoice::check_streams`] refuses, or histogram
    /// shapes that are not finite, not ordered, or outside
    /// `1..=MAX_HIST_BINS` bins.
    pub fn validate(&self) -> Result<(), String> {
        if self.sessions == 0 {
            return Err("campaign needs at least one session".to_owned());
        }
        if self.shard_size == 0 {
            return Err("shard size must be positive".to_owned());
        }
        if self.governors.is_empty() {
            return Err("campaign needs at least one governor".to_owned());
        }
        for name in &self.governors {
            crate::campaign::governor_choice(name)?;
        }
        fn check_mix<T>(what: &str, mix: &[(T, f64)]) -> Result<(), String> {
            if mix.is_empty() {
                return Err(format!("empty {what} mix"));
            }
            let total: f64 = mix.iter().map(|(_, w)| *w).sum();
            if mix.iter().any(|(_, w)| !w.is_finite() || *w < 0.0) || total <= 0.0 {
                return Err(format!(
                    "{what} mix weights must be non-negative with a positive sum"
                ));
            }
            Ok(())
        }
        check_mix("device", &self.devices)?;
        check_mix("network", &self.networks)?;
        check_mix("content", &self.contents)?;
        check_mix("title", &self.titles)?;
        check_mix("abr", &self.abrs)?;
        // A manifest the slowest rate carries, every faster rate carries
        // too, so only the slowest network is checked against each one; a
        // rate that is not positive and finite ranks slowest, to be refused.
        let pace = |net: &NetworkChoice| match *net {
            NetworkChoice::Constant(mbps) if (mbps * 1e6).is_finite() && mbps > 0.0 => mbps,
            NetworkChoice::Constant(_) => f64::NEG_INFINITY,
            NetworkChoice::Profile(_) => f64::INFINITY,
        };
        let slowest = self
            .networks
            .iter()
            .map(|(net, _)| net)
            .min_by(|a, b| pace(a).total_cmp(&pace(b)))
            .expect("mix checked non-empty");
        for (title, _) in &self.titles {
            for (abr, _) in &self.abrs {
                let manifest = title.manifest(*abr)?;
                slowest
                    .check_streams(&manifest)
                    .map_err(|e| format!("{e} (title {})", title.key()))?;
            }
        }
        if self.trace_pool == 0 || self.seed_pool == 0 {
            return Err("trace and seed pools must be positive".to_owned());
        }
        if self.arrival_span_s == 0 {
            return Err("arrival span must be positive".to_owned());
        }
        for (what, (lo, hi, bins)) in [
            ("energy", self.energy_hist),
            ("qoe", self.qoe_hist),
            ("startup", self.startup_hist_ms),
        ] {
            if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                return Err(format!(
                    "{what} histogram needs finite bounds with lo < hi, got [{lo}, {hi})"
                ));
            }
            if !(1..=MAX_HIST_BINS).contains(&bins) {
                return Err(format!(
                    "{what} histogram needs 1..={MAX_HIST_BINS} bins, got {bins}"
                ));
            }
        }
        Ok(())
    }

    /// A stable 128-bit digest of every campaign input. Checkpoints embed
    /// it so a resume against a different spec is rejected instead of
    /// silently merging incompatible aggregates.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new("eavs-fleet-campaign/v1");
        fp.write_str(&self.name);
        fp.write_u64(self.seed);
        fp.write_u64(self.sessions);
        fp.write_u64(self.shard_size);
        fp.write_usize(self.governors.len());
        for g in &self.governors {
            fp.write_str(g);
        }
        fp.write_usize(self.devices.len());
        for (soc, w) in &self.devices {
            fp.write_str(soc.name());
            fp.write_f64(*w);
        }
        fp.write_usize(self.networks.len());
        for (net, w) in &self.networks {
            fp.write_str(&net.name());
            fp.write_f64(*w);
        }
        fp.write_usize(self.contents.len());
        for (c, w) in &self.contents {
            fp.write_str(c.name());
            fp.write_f64(*w);
        }
        fp.write_usize(self.titles.len());
        for (t, w) in &self.titles {
            fp.write_u32(t.bitrate_kbps);
            fp.write_u32(t.width);
            fp.write_u32(t.height);
            fp.write_u64(t.duration_s);
            fp.write_u32(t.fps);
            fp.write_f64(*w);
        }
        fp.write_usize(self.abrs.len());
        for (a, w) in &self.abrs {
            fp.write_str(a.name());
            fp.write_f64(*w);
        }
        fp.write_u64(self.trace_pool);
        fp.write_u64(self.seed_pool);
        fp.write_u64(self.arrival_span_s);
        // Same tag convention as the session fingerprint: the none()
        // model digests like no model at all (the zero-power no-op), any
        // modeled component splits the campaign.
        if self.power.is_none() {
            fp.write_u8(0);
        } else {
            fp.write_u8(1);
            self.power.fingerprint(&mut fp);
        }
        for (lo, hi, bins) in [self.energy_hist, self.qoe_hist, self.startup_hist_ms] {
            fp.write_f64(lo);
            fp.write_f64(hi);
            fp.write_usize(bins);
        }
        fp.finish().expect("campaign specs are never opaque")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for name in ["smoke", "global"] {
            let spec = CampaignSpec::preset(name).unwrap();
            spec.validate().unwrap();
            assert!(spec.num_shards() >= 1);
        }
        assert!(CampaignSpec::preset("galactic").is_none());
    }

    #[test]
    fn shard_ranges_partition_sessions() {
        let mut spec = CampaignSpec::smoke();
        spec.sessions = 103;
        spec.shard_size = 25;
        assert_eq!(spec.num_shards(), 5);
        let mut covered = 0;
        for i in 0..spec.num_shards() {
            let (start, end) = spec.shard_range(i);
            assert_eq!(start, covered);
            covered = end;
        }
        assert_eq!(covered, 103);
        // The last shard of the largest population ends at its tail.
        spec.sessions = u64::MAX;
        spec.shard_size = 12;
        let last = spec.num_shards() - 1;
        assert_eq!(spec.shard_range(last), (last * 12, u64::MAX));
    }

    #[test]
    fn fingerprint_is_sensitive_to_inputs() {
        let a = CampaignSpec::smoke();
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.seed = 43;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.governors.push("performance".to_owned());
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.energy_hist = (0.0, 31.0, 60);
        assert_ne!(a.fingerprint(), d.fingerprint());
        // A powered campaign is a different campaign; the explicit
        // none() model is the same one.
        let mut e = a.clone();
        e.power = DevicePowerModel::phone();
        assert_ne!(a.fingerprint(), e.fingerprint());
        let mut f = a.clone();
        f.power = DevicePowerModel::none();
        assert_eq!(a.fingerprint(), f.fingerprint());
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let mut s = CampaignSpec::smoke();
        s.sessions = 0;
        assert!(s.validate().is_err());
        let mut s = CampaignSpec::smoke();
        s.governors = vec!["warp-speed".to_owned()];
        assert!(s.validate().unwrap_err().contains("unknown governor"));
        let mut s = CampaignSpec::smoke();
        s.devices.clear();
        assert!(s.validate().unwrap_err().contains("device"));
        let mut s = CampaignSpec::smoke();
        s.networks[0].1 = -1.0;
        s.networks.truncate(1);
        assert!(s.validate().is_err());
        // No session streams over these within the simulation clock.
        for mbps in [-1.0, f64::NAN, f64::INFINITY, 0.0, -0.0, 1e-300, f64::MAX] {
            let mut s = CampaignSpec::smoke();
            s.networks[0].0 = NetworkChoice::Constant(mbps);
            let err = s.validate().unwrap_err();
            assert!(err.contains("constant rate"), "{mbps}: {err}");
        }
        let mut s = CampaignSpec::smoke();
        s.networks[0].0 = NetworkChoice::Constant(1e-6);
        s.validate().unwrap();
        let mut s = CampaignSpec::smoke();
        s.titles[0].0.bitrate_kbps = 0;
        assert!(s.validate().unwrap_err().contains("positive bitrate"));
    }

    #[test]
    fn validate_bounds_titles_by_the_session_horizon() {
        let with_title = |duration_s, fps| {
            let mut s = CampaignSpec::smoke();
            s.networks = vec![(NetworkChoice::Constant(20.0), 1.0)];
            s.titles.truncate(1);
            s.titles[0].0.duration_s = duration_s;
            s.titles[0].0.fps = fps;
            s.validate()
        };
        // 2 s segments at 30 fps are 1,999,999,980 ns long: the longest
        // title is the last whole segment whose six lengths plus a
        // minute fit the clock.
        let segments = (u64::MAX - 60 * NANOS_PER_SEC) / 6 / 1_999_999_980;
        let longest = segments * 2;
        with_title(longest, 30).unwrap();
        let err = with_title(longest + 1, 30).unwrap_err();
        assert!(err.contains("longer than a session can stream"), "{err}");
        // At 7 fps a segment is 2,000,000,002 ns, so the same title no
        // longer fits.
        assert!(with_title(longest, 7).is_err());
        assert!(with_title(u64::MAX, 30).is_err());
    }

    #[test]
    fn validate_names_the_slowest_constant_network() {
        let mut s = CampaignSpec::smoke();
        s.networks = vec![
            (NetworkChoice::Constant(20.0), 1.0),
            (NetworkChoice::Constant(1e-300), 1.0),
            (NetworkChoice::Constant(5.0), 1.0),
        ];
        let err = s.validate().unwrap_err();
        assert!(err.starts_with("network constant:0.0"), "{err}");
        assert!(err.contains("within the simulation clock"), "{err}");
        // A fast rate beside a non-finite one is no excuse.
        s.networks[1].0 = NetworkChoice::Constant(f64::MAX);
        let err = s.validate().unwrap_err();
        assert!(err.contains("positive and finite"), "{err}");
    }

    /// The smoke preset's first title with `edit` applied, through the
    /// title rule under every ABR: `Ok` only if all three accept it.
    fn title_rule(edit: impl Fn(&mut TitleSpec)) -> Result<(), String> {
        let mut title = CampaignSpec::smoke().titles[0].0;
        edit(&mut title);
        AbrChoice::ALL
            .into_iter()
            .try_for_each(|abr| title.manifest(abr).map(drop))
    }

    #[test]
    fn titles_need_a_positive_bitrate_and_duration() {
        for (bitrate, ok) in [(0, false), (1, true), (u32::MAX, true)] {
            let res = title_rule(|t| t.bitrate_kbps = bitrate);
            assert_eq!(res.is_ok(), ok, "{bitrate}: {res:?}");
        }
        let err = title_rule(|t| t.duration_s = 0).unwrap_err();
        assert!(err.contains("positive bitrate and duration"), "{err}");
        title_rule(|t| t.duration_s = 1).unwrap();
    }

    #[test]
    fn titles_need_an_fps_in_1_to_1000() {
        for (fps, ok) in [
            (0, false),
            (1, true),
            (TitleSpec::MAX_FPS, true),
            (TitleSpec::MAX_FPS + 1, false),
            (1_000_000_000, false),
            (u32::MAX, false),
        ] {
            let res = title_rule(|t| t.fps = fps);
            assert_eq!(res.is_ok(), ok, "{fps}: {res:?}");
            if let Err(e) = res {
                assert!(e.contains("fps in 1..=1000"), "{e}");
            }
        }
    }

    #[test]
    fn titles_need_a_width_and_height_in_1_to_16384() {
        for (side, ok) in [
            (0, false),
            (1, true),
            (TitleSpec::MAX_SIDE, true),
            (TitleSpec::MAX_SIDE + 1, false),
            (u32::MAX, false),
        ] {
            for res in [
                title_rule(|t| t.width = side),
                title_rule(|t| t.height = side),
            ] {
                assert_eq!(res.is_ok(), ok, "{side}: {res:?}");
                if let Err(e) = res {
                    assert!(e.contains("width and height in 1..=16384"), "{e}");
                }
            }
        }
    }

    #[test]
    fn validate_applies_the_title_rule() {
        let mut s = CampaignSpec::smoke();
        s.titles[1].0.fps = 1_000_000_000;
        let err = s.validate().unwrap_err();
        assert!(
            err.starts_with("title 3000kbps-1280x720@1000000000 "),
            "{err}"
        );
        let mut s = CampaignSpec::smoke();
        s.titles[0].0.width = 0;
        assert!(s.validate().unwrap_err().contains("width and height"));
    }

    #[test]
    fn every_name_parses_back_to_its_value() {
        for abr in AbrChoice::ALL {
            assert_eq!(abr.name().parse(), Ok(abr));
        }
        for mbps in [20.0, 1.0 / 3.0, 1e-300, -0.0, f64::MAX, f64::INFINITY] {
            let net = NetworkChoice::Constant(mbps);
            assert_eq!(net.name().parse(), Ok(net));
        }
        for profile in NetworkProfile::ALL {
            let net = NetworkChoice::Profile(profile);
            assert_eq!(net.name().parse(), Ok(net));
        }
        assert_eq!(
            "fast".parse::<AbrChoice>(),
            Err("unknown abr \"fast\"; valid: fixed rate buffer".to_owned())
        );
        assert_eq!(
            "wifi".parse::<NetworkChoice>(),
            Err(
                "unknown network \"wifi\"; valid: constant:<mbps> wifi_home lte_drive hspa_tram"
                    .to_owned()
            )
        );
        assert!("constant:"
            .parse::<NetworkChoice>()
            .unwrap_err()
            .contains("bad constant rate"));
    }

    fn with_energy_hist(shape: HistShape) -> Result<(), String> {
        let mut s = CampaignSpec::smoke();
        s.energy_hist = shape;
        s.validate()
    }

    #[test]
    fn validate_rejects_non_finite_histogram_bounds() {
        for shape in [
            (f64::NAN, 30.0, 60),
            (0.0, f64::NAN, 60),
            (f64::NEG_INFINITY, 30.0, 60),
            (0.0, f64::INFINITY, 60),
        ] {
            let err = with_energy_hist(shape).unwrap_err();
            assert!(err.contains("energy histogram"), "{shape:?}: {err}");
        }
        let mut s = CampaignSpec::smoke();
        s.startup_hist_ms.1 = f64::NAN;
        assert!(s.validate().unwrap_err().contains("startup histogram"));
    }

    #[test]
    fn validate_rejects_empty_histogram_ranges() {
        assert!(with_energy_hist((30.0, 30.0, 60)).is_err());
        assert!(with_energy_hist((30.0, 0.0, 60)).is_err());
        let mut s = CampaignSpec::smoke();
        s.qoe_hist = (10.0, -100.0, 110);
        assert!(s.validate().unwrap_err().contains("qoe histogram"));
    }

    #[test]
    fn validate_rejects_histogram_bin_counts_outside_the_cap() {
        assert!(with_energy_hist((0.0, 30.0, 0)).is_err());
        assert!(with_energy_hist((0.0, 30.0, MAX_HIST_BINS + 1)).is_err());
        assert!(with_energy_hist((0.0, 30.0, usize::MAX)).is_err());
        with_energy_hist((0.0, 30.0, 1)).unwrap();
        with_energy_hist((0.0, 30.0, MAX_HIST_BINS)).unwrap();
    }
}
