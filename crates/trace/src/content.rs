//! Content profiles.
//!
//! Different content classes stress a video-aware governor differently:
//! animation decodes cheaply and predictably, film sits in the middle, and
//! sport combines high complexity with frequent scene changes (heavy-
//! tailed frame costs). The profiles parameterize the synthetic workload
//! generator; their constants are chosen to reproduce the qualitative
//! structure of published decode-cost characterizations (I ≫ P > B,
//! content-dependent variance), not any specific clip.

/// A content class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ContentProfile {
    /// Flat-shaded animation: cheap, low variance.
    Animation,
    /// Live-action film: moderate complexity and variance.
    Film,
    /// Sports: high complexity, frequent scene changes, heavy tails.
    Sport,
}

eavs_sim::from_name!("content", ContentProfile);

impl ContentProfile {
    /// All profiles (for sweeps).
    pub const ALL: [ContentProfile; 3] = [
        ContentProfile::Animation,
        ContentProfile::Film,
        ContentProfile::Sport,
    ];

    /// Identifier for tables and CSV files.
    pub fn name(self) -> &'static str {
        match self {
            ContentProfile::Animation => "animation",
            ContentProfile::Film => "film",
            ContentProfile::Sport => "sport",
        }
    }

    /// Multiplier on mean decode cycles per pixel.
    pub fn complexity(self) -> f64 {
        match self {
            ContentProfile::Animation => 0.7,
            ContentProfile::Film => 1.0,
            ContentProfile::Sport => 1.3,
        }
    }

    /// Coefficient of variation of per-frame decode cycles (within type).
    pub fn cycle_cv(self) -> f64 {
        match self {
            ContentProfile::Animation => 0.10,
            ContentProfile::Film => 0.18,
            ContentProfile::Sport => 0.30,
        }
    }

    /// Coefficient of variation of per-frame coded sizes (within type).
    pub fn size_cv(self) -> f64 {
        match self {
            ContentProfile::Animation => 0.20,
            ContentProfile::Film => 0.35,
            ContentProfile::Sport => 0.50,
        }
    }

    /// Probability that any given GOP starts a new scene (which inflates
    /// its frames' sizes and costs).
    pub fn scene_change_prob(self) -> f64 {
        match self {
            ContentProfile::Animation => 0.05,
            ContentProfile::Film => 0.15,
            ContentProfile::Sport => 0.35,
        }
    }

    /// Multiplier applied to a scene-change GOP.
    pub fn scene_change_boost(self) -> f64 {
        match self {
            ContentProfile::Animation => 1.3,
            ContentProfile::Film => 1.5,
            ContentProfile::Sport => 1.7,
        }
    }
}

impl std::fmt::Display for ContentProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_of_difficulty() {
        assert!(ContentProfile::Sport.complexity() > ContentProfile::Film.complexity());
        assert!(ContentProfile::Film.complexity() > ContentProfile::Animation.complexity());
        assert!(ContentProfile::Sport.cycle_cv() > ContentProfile::Animation.cycle_cv());
        assert!(
            ContentProfile::Sport.scene_change_prob() > ContentProfile::Film.scene_change_prob()
        );
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = ContentProfile::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3);
        assert_eq!(ContentProfile::Film.to_string(), "film");
    }
}
