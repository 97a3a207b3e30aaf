//! Exact quantile estimation over stored samples.

/// Exact quantiles over a stored sample set.
///
/// Stores all observations; suitable for per-run experiment metrics
/// (thousands to millions of points), not unbounded streams.
///
/// ```
/// use eavs_metrics::quantile::Quantiles;
///
/// let mut q: Quantiles = (1..=100).map(f64::from).collect();
/// assert_eq!(q.quantile(0.0), 1.0);
/// assert_eq!(q.quantile(1.0), 100.0);
/// assert!((q.quantile(0.5) - 50.5).abs() < 1.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Quantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Quantiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between
    /// order statistics (type-7, the R/numpy default).
    ///
    /// # Panics
    ///
    /// Panics if empty or `q` is outside [0, 1].
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(!self.is_empty(), "quantile of empty sample set");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN crept in"));
            self.sorted = true;
        }
        let n = self.samples.len();
        if n == 1 {
            return self.samples[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
    }

    /// Convenience: the median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Convenience: common percentiles (p50, p90, p95, p99).
    pub fn standard_percentiles(&mut self) -> [f64; 4] {
        [
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.95),
            self.quantile(0.99),
        ]
    }
}

impl Extend<f64> for Quantiles {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Quantiles {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut q = Quantiles::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles_of_uniform_ramp() {
        let mut q: Quantiles = (0..=1000).map(f64::from).collect();
        assert_eq!(q.quantile(0.0), 0.0);
        assert_eq!(q.quantile(1.0), 1000.0);
        assert_eq!(q.quantile(0.5), 500.0);
        assert_eq!(q.quantile(0.25), 250.0);
        assert_eq!(q.median(), 500.0);
    }

    #[test]
    fn interpolates_between_order_statistics() {
        let mut q: Quantiles = [10.0, 20.0].into_iter().collect();
        assert_eq!(q.quantile(0.5), 15.0);
        assert!((q.quantile(0.75) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let mut q: Quantiles = [42.0].into_iter().collect();
        assert_eq!(q.quantile(0.0), 42.0);
        assert_eq!(q.quantile(0.37), 42.0);
        assert_eq!(q.quantile(1.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_quantile_panics() {
        Quantiles::new().quantile(0.5);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_q_panics() {
        let mut q: Quantiles = [1.0].into_iter().collect();
        q.quantile(1.5);
    }

    #[test]
    fn standard_percentiles_ordering() {
        let mut q: Quantiles = (0..10_000).map(|i| (i as f64).powf(1.3)).collect();
        let [p50, p90, p95, p99] = q.standard_percentiles();
        assert!(p50 <= p90 && p90 <= p95 && p95 <= p99);
    }
}
