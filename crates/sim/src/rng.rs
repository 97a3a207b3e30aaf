//! Deterministic random number generation for simulations.
//!
//! Every experiment in EAVS derives all of its randomness from a single
//! `u64` seed so that runs are reproducible. [`SimRng`] wraps a counter-less
//! xoshiro256++ generator (implemented here to avoid external non-approved
//! crates) and layers the distributions the workload generators need:
//! uniform, normal, lognormal, exponential, Pareto and Bernoulli.
//!
//! Independent deterministic streams (e.g. "video workload" vs "network
//! trace") are derived with [`SimRng::fork`], which mixes a stream label
//! into the seed with SplitMix64 so streams don't correlate.
//!
//! ```
//! use eavs_sim::rng::SimRng;
//!
//! let mut a = SimRng::new(42).fork("net");
//! let mut b = SimRng::new(42).fork("net");
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed + label => same stream
//! ```

/// SplitMix64 step; used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable random number generator with the simulation's
/// standard distributions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second Box-Muller variate.
    gauss_spare: Option<u64>,
}

impl SimRng {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent stream labeled `label`. Deterministic: the
    /// same parent seed and label always produce the same stream.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        SimRng::new(self.s[0] ^ h.rotate_left(17))
    }

    /// The next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad uniform range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform integer in `[lo, hi)` using rejection-free Lemire mapping.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "bad uniform_u64 range [{lo}, {hi})");
        let span = hi - lo;
        lo + (((self.next_u64() as u128 * span as u128) >> 64) as u64)
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// A standard normal variate via Box–Muller (with caching of the pair).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(bits) = self.gauss_spare.take() {
            return f64::from_bits(bits);
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some((r * theta.sin()).to_bits());
        r * theta.cos()
    }

    /// A normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative std dev {std_dev}");
        mean + std_dev * self.standard_normal()
    }

    /// A lognormal variate: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// A lognormal variate parameterized by the *target* mean and coefficient
    /// of variation of the lognormal itself (often more convenient than
    /// (mu, sigma) of the underlying normal).
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0` and `cv >= 0`.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        assert!(mean > 0.0 && cv >= 0.0, "bad lognormal mean={mean} cv={cv}");
        self.lognormal_cv(mean, &LogNormalCv::new(cv))
    }

    /// [`lognormal_mean_cv`](Self::lognormal_mean_cv) with the shape
    /// precomputed: the same value, and the same draws, for the same
    /// mean and CV.
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0`.
    pub fn lognormal_cv(&mut self, mean: f64, shape: &LogNormalCv) -> f64 {
        shape.with_mean(mean).sample(self)
    }

    /// An exponential variate with the given rate (events per unit).
    ///
    /// # Panics
    ///
    /// Panics unless `rate > 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "non-positive exponential rate {rate}");
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// A Pareto variate with the given scale (minimum) and shape.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive.
    pub fn pareto(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(
            scale > 0.0 && shape > 0.0,
            "bad pareto scale={scale} shape={shape}"
        );
        scale / (1.0 - self.next_f64()).powf(1.0 / shape)
    }

    /// Picks an index in `[0, weights.len())` proportionally to `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative value, or sums to 0.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "empty weight vector");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "weights sum to zero");
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_u64(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The shape of a lognormal fixed by its coefficient of variation:
/// `σ² = ln(1 + cv²)` and `σ`, computed once for every draw that
/// shares the CV.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LogNormalCv {
    cv: f64,
    half_sigma2: f64,
    sigma: f64,
}

impl LogNormalCv {
    /// The shape for coefficient of variation `cv`.
    ///
    /// # Panics
    ///
    /// Panics unless `cv >= 0`.
    pub fn new(cv: f64) -> Self {
        assert!(cv >= 0.0, "bad lognormal cv={cv}");
        let sigma2 = (1.0 + cv * cv).ln();
        LogNormalCv {
            cv,
            half_sigma2: sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// The lognormal of this shape whose own mean is `mean`. Build it once
    /// where the mean repeats, to take `ln(mean)` once.
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0`.
    pub fn with_mean(&self, mean: f64) -> LogNormal {
        assert!(mean > 0.0, "bad lognormal mean={mean} cv={}", self.cv);
        LogNormal {
            mean,
            mu: mean.ln() - self.half_sigma2,
            sigma: self.sigma,
            degenerate: self.cv == 0.0,
        }
    }
}

/// A lognormal fully specified by its mean and [`LogNormalCv`] shape.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LogNormal {
    mean: f64,
    mu: f64,
    sigma: f64,
    /// `cv == 0`: every draw is the mean and consumes no randomness.
    degenerate: bool,
}

impl LogNormal {
    /// One variate: `exp(N(mu, sigma))`, or the mean itself when the CV
    /// is 0.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.degenerate {
            return self.mean;
        }
        rng.lognormal(self.mu, self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams with different seeds should diverge");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let root = SimRng::new(99);
        let mut x1 = root.fork("video");
        let mut x2 = root.fork("video");
        let mut y = root.fork("net");
        assert_eq!(x1.next_u64(), x2.next_u64());
        // Not a strict independence test, just divergence.
        let mut x3 = root.fork("video");
        let same = (0..64).filter(|_| x3.next_u64() == y.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let v = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
            let n = r.uniform_u64(10, 20);
            assert!((10..20).contains(&n));
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(11);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let v = r.normal(5.0, 2.0);
            sum += v;
            sum2 += v * v;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_mean_cv_hits_target_mean() {
        let mut r = SimRng::new(13);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.lognormal_mean_cv(3.0, 0.4)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert_eq!(r.lognormal_mean_cv(2.0, 0.0), 2.0);
    }

    #[test]
    fn lognormal_cv_matches_mean_cv_draw_for_draw() {
        for cv in [0.0, 1e-300, 0.1, 0.35, 2.0] {
            let shape = LogNormalCv::new(cv);
            let mut a = SimRng::new(41);
            let mut b = SimRng::new(41);
            for mean in [1e-9, 0.5, 3.0, 64.0, 2.5e7] {
                let dist = shape.with_mean(mean);
                for _ in 0..3 {
                    let want = a.lognormal_mean_cv(mean, cv).to_bits();
                    assert_eq!(b.lognormal_cv(mean, &shape).to_bits(), want, "cv {cv}");
                    assert_eq!(
                        dist.sample(&mut b).to_bits(),
                        a.lognormal_mean_cv(mean, cv).to_bits()
                    );
                }
            }
            // Both paths consumed the same draws.
            assert_eq!(a, b);
        }
        // A zero CV returns the mean and draws nothing.
        let mut r = SimRng::new(43);
        let before = r.clone();
        assert_eq!(r.lognormal_cv(2.0, &LogNormalCv::new(0.0)), 2.0);
        assert_eq!(r, before);
    }

    #[test]
    #[should_panic(expected = "bad lognormal mean")]
    fn lognormal_cv_rejects_a_non_positive_mean() {
        SimRng::new(1).lognormal_cv(0.0, &LogNormalCv::new(0.2));
    }

    #[test]
    #[should_panic(expected = "bad lognormal cv")]
    fn lognormal_shape_rejects_a_negative_cv() {
        LogNormalCv::new(-0.1);
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut r = SimRng::new(19);
        for _ in 0..10_000 {
            assert!(r.pareto(1.5, 2.5) >= 1.5);
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SimRng::new(23);
        assert!((0..100).all(|_| !r.bernoulli(0.0)));
        assert!((0..100).all(|_| r.bernoulli(1.0)));
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = SimRng::new(29);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.weighted_index(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let p2 = counts[2] as f64 / 30_000.0;
        assert!((p2 - 0.7).abs() < 0.02, "p2 {p2}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(31);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(37);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
