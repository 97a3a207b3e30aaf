//! # eavs-governors — Linux cpufreq baseline governors
//!
//! Faithful re-implementations of the governors the paper compares
//! against, with kernel-default tunables:
//!
//! | governor | policy |
//! |---|---|
//! | [`Performance`] | pin max |
//! | [`Powersave`] | pin min |
//! | [`Userspace`] | hold the externally set speed |
//! | [`Ondemand`] | jump to max above 95% load, else ∝ load |
//! | [`Conservative`] | step ±5% of max between 20%/80% thresholds |
//! | [`Interactive`] | Android burst-to-hispeed + target-load scaling |
//! | [`Schedutil`] | 1.25 × frequency-invariant utilization |
//!
//! All of them observe only [`LoadSample`](eavs_cpu::load::LoadSample)s —
//! the same information their kernel counterparts have. The video-aware
//! governor that exploits pipeline knowledge lives in `eavs-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conservative;
pub mod governor;
pub mod interactive;
pub mod ondemand;
pub mod schedutil;
pub mod static_govs;

pub use conservative::{Conservative, ConservativeTunables};
pub use governor::CpufreqGovernor;
pub use interactive::{Interactive, InteractiveTunables};
pub use ondemand::{Ondemand, OndemandTunables};
pub use schedutil::{Schedutil, SchedutilTunables};
pub use static_govs::{Performance, Powersave, Userspace};

/// Constructs a baseline governor by sysfs name.
///
/// Returns `None` for unknown names (including `"eavs"`, which is not a
/// baseline — construct it from `eavs-core`).
pub fn by_name(name: &str) -> Option<Box<dyn CpufreqGovernor>> {
    Some(match name {
        "performance" => Box::new(Performance),
        "powersave" => Box::new(Powersave),
        "userspace" => Box::new(Userspace::new(0)),
        "ondemand" => Box::new(Ondemand::new()),
        "conservative" => Box::new(Conservative::new()),
        "interactive" => Box::new(Interactive::new()),
        "schedutil" => Box::new(Schedutil::new()),
        _ => return None,
    })
}

/// The names of all baseline governors, in comparison order.
pub const BASELINE_NAMES: [&str; 7] = [
    "performance",
    "powersave",
    "userspace",
    "ondemand",
    "conservative",
    "interactive",
    "schedutil",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_constructs_all_baselines() {
        for name in BASELINE_NAMES {
            let g = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(g.name(), name);
        }
        assert!(by_name("eavs").is_none());
        assert!(by_name("bogus").is_none());
    }
}
