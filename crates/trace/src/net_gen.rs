//! Synthetic bandwidth-trace generation.
//!
//! Markov-modulated rate processes shaped after public cellular/WiFi
//! throughput traces: a small set of rate states with sticky transitions,
//! lognormal within-state variation, and (for cellular) occasional
//! outages. Each preset is deterministic in the seed.

use eavs_net::bandwidth::BandwidthTrace;
use eavs_net::radio::RadioModel;
use eavs_sim::rng::SimRng;
use eavs_sim::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Network environment presets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetworkProfile {
    /// Home WiFi: high, stable (40 Mbps ±).
    WifiHome,
    /// LTE while driving: 1–30 Mbps, sticky states, rare outages.
    LteDrive,
    /// HSPA on a tram: 0.3–6 Mbps, frequent dips.
    HspaTram,
}

eavs_sim::from_name!("network profile", NetworkProfile);

impl NetworkProfile {
    /// All presets.
    pub const ALL: [NetworkProfile; 3] = [
        NetworkProfile::WifiHome,
        NetworkProfile::LteDrive,
        NetworkProfile::HspaTram,
    ];

    /// Identifier for tables and files.
    pub fn name(self) -> &'static str {
        match self {
            NetworkProfile::WifiHome => "wifi_home",
            NetworkProfile::LteDrive => "lte_drive",
            NetworkProfile::HspaTram => "hspa_tram",
        }
    }

    /// The radio a session over this network streams through.
    pub fn radio(self) -> RadioModel {
        match self {
            NetworkProfile::WifiHome => RadioModel::wifi(),
            NetworkProfile::LteDrive => RadioModel::lte(),
            NetworkProfile::HspaTram => RadioModel::umts_3g(),
        }
    }

    /// State mean rates in Mbps.
    fn state_means(self) -> &'static [f64] {
        match self {
            NetworkProfile::WifiHome => &[35.0, 45.0, 50.0],
            NetworkProfile::LteDrive => &[1.5, 8.0, 18.0, 30.0],
            NetworkProfile::HspaTram => &[0.4, 1.5, 4.0, 6.0],
        }
    }

    /// Probability of staying in the current state each step.
    fn stickiness(self) -> f64 {
        match self {
            NetworkProfile::WifiHome => 0.95,
            NetworkProfile::LteDrive => 0.85,
            NetworkProfile::HspaTram => 0.75,
        }
    }

    /// Within-state coefficient of variation.
    fn cv(self) -> f64 {
        match self {
            NetworkProfile::WifiHome => 0.08,
            NetworkProfile::LteDrive => 0.25,
            NetworkProfile::HspaTram => 0.35,
        }
    }

    /// Per-step outage probability (rate pinned to near zero).
    fn outage_prob(self) -> f64 {
        match self {
            NetworkProfile::WifiHome => 0.0,
            NetworkProfile::LteDrive => 0.01,
            NetworkProfile::HspaTram => 0.02,
        }
    }

    /// Generates a trace of `duration` with 1-second steps.
    pub fn generate(self, duration: SimDuration, seed: u64) -> BandwidthTrace {
        self.generate_with_step(duration, SimDuration::from_secs(1), seed)
    }

    /// Memoized [`generate`](Self::generate): identical `(profile,
    /// duration, seed)` inputs are generated once per process and shared
    /// as an `Arc`.
    pub fn generate_shared(self, duration: SimDuration, seed: u64) -> Arc<BandwidthTrace> {
        self.generate_with_step_shared(duration, SimDuration::from_secs(1), seed)
    }

    /// Memoized [`generate_with_step`](Self::generate_with_step).
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn generate_with_step_shared(
        self,
        duration: SimDuration,
        step: SimDuration,
        seed: u64,
    ) -> Arc<BandwidthTrace> {
        crate::memo::shared_trace(
            (self.name(), duration.as_nanos(), step.as_nanos(), seed),
            || self.generate_with_step(duration, step, seed),
        )
    }

    /// Generates a trace with an explicit step length.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn generate_with_step(
        self,
        duration: SimDuration,
        step: SimDuration,
        seed: u64,
    ) -> BandwidthTrace {
        assert!(!step.is_zero(), "zero trace step");
        let mut rng = SimRng::new(seed).fork(self.name());
        let means = self.state_means();
        let mut state = means.len() / 2;
        let mut points = Vec::new();
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + duration;
        while t < end {
            if !rng.bernoulli(self.stickiness()) {
                // Move to a uniformly chosen different state (nearest-biased
                // walk: step ±1 with prob 0.7).
                state = if rng.bernoulli(0.7) {
                    if rng.bernoulli(0.5) && state > 0 {
                        state - 1
                    } else {
                        (state + 1).min(means.len() - 1)
                    }
                } else {
                    rng.uniform_u64(0, means.len() as u64) as usize
                };
            }
            let rate_mbps = if rng.bernoulli(self.outage_prob()) {
                0.02 // near-outage, keeps transfers finite
            } else {
                rng.lognormal_mean_cv(means[state], self.cv())
            };
            points.push((t, rate_mbps * 1e6));
            t += step;
        }
        BandwidthTrace::from_points(points)
    }
}

impl std::fmt::Display for NetworkProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = NetworkProfile::LteDrive.generate(SimDuration::from_secs(60), 7);
        let b = NetworkProfile::LteDrive.generate(SimDuration::from_secs(60), 7);
        assert_eq!(a, b);
        let c = NetworkProfile::LteDrive.generate(SimDuration::from_secs(60), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn wifi_faster_and_steadier_than_hspa() {
        let dur = SimDuration::from_secs(300);
        let wifi = NetworkProfile::WifiHome.generate(dur, 1);
        let hspa = NetworkProfile::HspaTram.generate(dur, 1);
        let end = SimTime::ZERO + dur;
        let wifi_mean = wifi.mean_rate(SimTime::ZERO, end);
        let hspa_mean = hspa.mean_rate(SimTime::ZERO, end);
        assert!(wifi_mean > 25e6, "wifi mean {wifi_mean:.2e}");
        assert!(hspa_mean < 8e6, "hspa mean {hspa_mean:.2e}");
        // Relative variation.
        let cv = |tr: &BandwidthTrace| {
            let rates: Vec<f64> = tr.points().iter().map(|&(_, r)| r).collect();
            let mean = rates.iter().sum::<f64>() / rates.len() as f64;
            let var = rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rates.len() as f64;
            var.sqrt() / mean
        };
        assert!(cv(&hspa) > cv(&wifi));
    }

    #[test]
    fn step_count_matches_duration() {
        let tr = NetworkProfile::WifiHome.generate_with_step(
            SimDuration::from_secs(10),
            SimDuration::from_secs(2),
            3,
        );
        assert_eq!(tr.points().len(), 5);
    }

    #[test]
    fn lte_rates_in_plausible_band() {
        let tr = NetworkProfile::LteDrive.generate(SimDuration::from_secs(600), 11);
        for &(_, bps) in tr.points() {
            assert!((0.0..80e6).contains(&bps), "rate {bps:.2e} implausible");
        }
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = NetworkProfile::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3);
    }
}
