//! F30/F31: fleet workload priors.
//!
//! F30 compares cold-start prediction and session outcomes against the
//! same predictor seeded from a fleet-trained [`PriorStore`]: the prior
//! must strictly improve early-window accuracy at equal-or-better
//! energy/QoE. F31 stresses the hand-off policy with stale priors
//! (different training population, wrong encode, wrong content): a bad
//! prior may cost accuracy in the early window, but local evidence must
//! bound the damage.
//!
//! Training goes through the real fleet path (`run_campaign` →
//! per-session `frame_cycles` → `FleetAggregate::observe_prior`), so
//! these figures also regression-test the end-to-end pipeline.

use std::sync::Arc;

use crate::harness::{
    eavs_default, headline_session, manifest_1080p30, run_parallel_labeled, run_sessions, SEED,
};
use eavs_core::predictor::{predictor_by_name, FleetPrior, FrameMeta, SessionPrior};
use eavs_core::session::SessionBuilder;
use eavs_fleet::{CampaignSpec, PriorStore, RunOptions};
use eavs_metrics::table::Table;
use eavs_trace::content::ContentProfile;
use eavs_trace::video_gen::VideoGenerator;

/// Prior key of the headline encode: [`manifest_1080p30`] and the smoke
/// campaign's lead title are the same encode, so clips trained in the
/// fleet transfer to the 120 s figure stream.
pub const HEADLINE_KEY: &str = "6000kbps-1920x1080@30";

/// The other smoke-campaign encode — F31's "wrong title" prior.
pub const OFF_TITLE_KEY: &str = "3000kbps-1280x720@30";

/// Frames scored as the "early window": roughly the pre-hand-off span
/// (30 observations per frame type, see
/// [`eavs_core::predictor::PRIOR_HANDOFF_OBS`]) where the prior is the
/// dominant evidence.
pub const EARLY_FRAMES: u64 = 90;

/// Trains a fleet prior on a small clip campaign (the smoke population,
/// EAVS lane only) keyed on `seed`. Different seeds draw different
/// workload-seed populations — F31's "stale training run".
pub fn trained_store(seed: u64) -> PriorStore {
    let mut spec = CampaignSpec::smoke();
    spec.name = format!("prior-train-{seed}");
    spec.seed = seed;
    spec.sessions = 48;
    spec.shard_size = 12;
    spec.governors = vec!["eavs".to_owned()];
    let outcome = crate::fleet::run_campaign(&spec, &RunOptions::default())
        .expect("prior training campaign is valid");
    outcome.aggregate.prior
}

/// Accuracy of one prior over an online F4-style replay.
pub struct PriorReplay {
    /// MAPE over the first [`EARLY_FRAMES`] frames — where the prior acts.
    pub early_mape: f64,
    /// MAPE over the whole 120 s stream.
    pub mape: f64,
    /// Fraction of frames whose cost was underestimated.
    pub underestimate_rate: f64,
}

/// Replays 120 s of the headline stream with a hybrid predictor seeded
/// from `prior`, predicting each frame before observing it. An empty
/// prior is the cold baseline: [`FleetPrior`] then delegates every call
/// to the inner predictor.
pub fn replay(prior: SessionPrior, content: ContentProfile) -> PriorReplay {
    let generator = VideoGenerator::new(Arc::new(manifest_1080p30(120)), content, SEED);
    let inner = predictor_by_name("hybrid").expect("known predictor");
    let mut predictor = FleetPrior::new(inner, prior);
    let mut early_sum = 0.0;
    let mut ape_sum = 0.0;
    let mut under = 0u64;
    let mut n = 0u64;
    for segment in generator.all_segments(0) {
        for frame in segment.frames() {
            let meta = FrameMeta::from(&frame);
            let predicted = eavs_core::predictor::WorkloadPredictor::predict(&predictor, meta);
            let actual = frame.decode_cycles.get();
            let e = ((predicted.get() - actual) / actual).abs();
            if n < EARLY_FRAMES {
                early_sum += e;
            }
            ape_sum += e;
            if predicted.get() < actual {
                under += 1;
            }
            n += 1;
            eavs_core::predictor::WorkloadPredictor::observe(
                &mut predictor,
                meta,
                frame.decode_cycles,
            );
        }
    }
    PriorReplay {
        early_mape: early_sum / EARLY_FRAMES.min(n) as f64,
        mape: ape_sum / n as f64,
        underestimate_rate: under as f64 / n as f64,
    }
}

/// One 60 s headline session under default EAVS with `prior` attached.
/// The empty prior is the byte-exact cold baseline (tag-0 no-op), so
/// cold rows share cache entries with every other figure.
pub fn session(prior: SessionPrior, content: ContentProfile) -> SessionBuilder {
    headline_session(eavs_default())
        .content(content)
        .prior(prior)
}

/// F30: cold-start vs fleet-warmed prediction accuracy and session
/// outcomes, per content profile.
pub fn f30_prior_coldstart() -> Table {
    let mut t = Table::new(&[
        "content",
        "early MAPE cold %",
        "early MAPE warm %",
        "MAPE cold %",
        "MAPE warm %",
        "CPU J cold",
        "CPU J warm",
        "QoE cold",
        "QoE warm",
    ]);
    t.set_title(
        "F30: cold-start vs fleet-warmed hybrid predictor (48-session clip campaign \
         prior, 120 s @1080p30 replay + 60 s session)",
    );
    let store = trained_store(SEED);
    // Per content: the cold (empty) prior, then the fleet-warmed one.
    let priors: Vec<(ContentProfile, [SessionPrior; 2])> = ContentProfile::ALL
        .into_iter()
        .map(|c| {
            let warm = store.session_prior(HEADLINE_KEY, c.name());
            (c, [SessionPrior::default(), warm])
        })
        .collect();
    let replays = run_parallel_labeled(
        priors
            .iter()
            .map(|&(content, pair)| {
                let job = move || pair.map(|prior| replay(prior, content));
                (format!("f30 replay {}", content.name()), job)
            })
            .collect(),
    );
    let runs = run_sessions(
        priors
            .iter()
            .flat_map(|&(content, pair)| {
                pair.map(|prior| (format!("f30 {}", content.name()), session(prior, content)))
            })
            .collect(),
    );
    for (((content, _), [cold, warm]), run) in priors.iter().zip(replays).zip(runs.chunks(2)) {
        let (cold_run, warm_run) = (&run[0], &run[1]);
        t.row(&[
            content.name(),
            &format!("{:.2}", cold.early_mape * 100.0),
            &format!("{:.2}", warm.early_mape * 100.0),
            &format!("{:.2}", cold.mape * 100.0),
            &format!("{:.2}", warm.mape * 100.0),
            &format!("{:.3}", cold_run.cpu_joules()),
            &format!("{:.3}", warm_run.cpu_joules()),
            &format!("{:.2}", cold_run.qoe.score()),
            &format!("{:.2}", warm_run.qoe.score()),
        ]);
    }
    t
}

/// F31's prior variants, in presentation order.
fn staleness_variants(fresh: &PriorStore, stale: &PriorStore) -> Vec<(&'static str, SessionPrior)> {
    let content = ContentProfile::Film;
    vec![
        ("cold", SessionPrior::default()),
        ("fresh", fresh.session_prior(HEADLINE_KEY, content.name())),
        (
            "stale-population",
            stale.session_prior(HEADLINE_KEY, content.name()),
        ),
        (
            "wrong-title",
            fresh.session_prior(OFF_TITLE_KEY, content.name()),
        ),
        (
            "wrong-content",
            fresh.session_prior(HEADLINE_KEY, ContentProfile::Sport.name()),
        ),
        ("unknown-key", fresh.session_prior("unseen-encode", "film")),
    ]
}

/// F31: prior-staleness sensitivity on the Film headline stream. The
/// `unknown-key` row projects an empty prior and must match `cold`
/// exactly — the graceful-degradation floor.
pub fn f31_prior_staleness() -> Table {
    let mut t = Table::new(&[
        "prior",
        "early MAPE %",
        "MAPE %",
        "underest %",
        "CPU J",
        "QoE",
    ]);
    t.set_title(
        "F31: prior staleness on 120 s film @1080p30 — hand-off bounds the damage of a \
         wrong prior to the early window",
    );
    let fresh = trained_store(SEED);
    let stale = trained_store(SEED + 4200);
    let variants = staleness_variants(&fresh, &stale);
    let replays = run_parallel_labeled(
        variants
            .iter()
            .map(|&(label, prior)| {
                let job = move || replay(prior, ContentProfile::Film);
                (format!("f31 replay {label}"), job)
            })
            .collect(),
    );
    let runs = run_sessions(
        variants
            .iter()
            .map(|&(label, prior)| (format!("f31 {label}"), session(prior, ContentProfile::Film)))
            .collect(),
    );
    for (((label, _), r), run) in variants.iter().zip(replays).zip(&runs) {
        t.row(&[
            label,
            &format!("{:.2}", r.early_mape * 100.0),
            &format!("{:.2}", r.mape * 100.0),
            &format!("{:.1}", r.underestimate_rate * 100.0),
            &format!("{:.3}", run.cpu_joules()),
            &format!("{:.2}", run.qoe.score()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmed_prior_beats_cold_start_in_the_early_window() {
        // The acceptance bar: strictly better early accuracy under a
        // fresh prior, for every content profile, at equal-or-better
        // energy and QoE.
        let store = trained_store(SEED);
        for content in ContentProfile::ALL {
            let warm_prior = store.session_prior(HEADLINE_KEY, content.name());
            assert!(!warm_prior.is_empty(), "{}: trained prior", content.name());
            let cold = replay(SessionPrior::default(), content);
            let warm = replay(warm_prior, content);
            assert!(
                warm.early_mape < cold.early_mape,
                "{}: warm early MAPE {:.4} must beat cold {:.4}",
                content.name(),
                warm.early_mape,
                cold.early_mape
            );
            let runs = run_sessions(vec![
                ("cold".into(), session(SessionPrior::default(), content)),
                ("warm".into(), session(warm_prior, content)),
            ]);
            let (cold_run, warm_run) = (&runs[0], &runs[1]);
            assert!(
                warm_run.cpu_joules() <= cold_run.cpu_joules(),
                "{}: warm energy {:.3} J must not exceed cold {:.3} J",
                content.name(),
                warm_run.cpu_joules(),
                cold_run.cpu_joules()
            );
            assert!(
                warm_run.qoe.score() >= cold_run.qoe.score(),
                "{}: warm QoE must not regress",
                content.name()
            );
        }
    }

    #[test]
    fn unknown_key_projects_the_cold_baseline_exactly() {
        let store = trained_store(SEED);
        let unknown = store.session_prior("unseen-encode", "film");
        assert!(unknown.is_empty());
        let cold = session(SessionPrior::default(), ContentProfile::Film);
        let via_unknown = session(unknown, ContentProfile::Film);
        let runs = run_sessions(vec![("cold".into(), cold), ("unknown".into(), via_unknown)]);
        // Same fingerprint (tag-0), so both rows share one report.
        assert!(Arc::ptr_eq(&runs[0], &runs[1]));
    }

    #[test]
    fn training_is_deterministic() {
        let a = trained_store(SEED);
        let b = trained_store(SEED);
        assert_eq!(eavs_fleet::prior::encode(&a), eavs_fleet::prior::encode(&b));
        assert!(a.get(HEADLINE_KEY, "film").is_some());
        assert!(a.get(OFF_TITLE_KEY, "film").is_some());
    }
}
