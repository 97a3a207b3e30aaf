//! F4: workload-prediction accuracy.

use std::sync::Arc;

use crate::harness::{manifest_1080p30, run_parallel_labeled, SEED};
use eavs_core::predictor::{predictor_by_name, FrameMeta, PREDICTOR_NAMES};
use eavs_metrics::quantile::Quantiles;
use eavs_metrics::table::Table;
use eavs_trace::content::ContentProfile;
use eavs_trace::video_gen::VideoGenerator;
use eavs_video::manifest::Manifest;

/// Per-(predictor, content) accuracy over a sequential replay of the
/// decode stream: each frame is predicted *before* its actual cost is
/// observed, exactly as the governor experiences it online.
pub struct PredictionRun {
    /// Predictor name.
    pub predictor: &'static str,
    /// Content streamed.
    pub content: ContentProfile,
    /// Mean absolute percentage error.
    pub mape: f64,
    /// 95th percentile absolute percentage error.
    pub p95_ape: f64,
    /// Fraction of frames whose cost was *underestimated* (the dangerous
    /// direction: may cause a deadline miss if the margin cannot absorb
    /// it).
    pub underestimate_rate: f64,
    /// Mean of `(actual − predicted)/actual` over underestimated frames.
    pub mean_underestimate: f64,
}

/// Replays one (predictor, content) pair over 120 s of 1080p30.
pub fn replay(predictor_name: &'static str, content: ContentProfile) -> PredictionRun {
    replay_with(Arc::new(manifest_1080p30(120)), predictor_name, content)
}

/// [`replay`] against a shared manifest, so sweeps reference one allocation.
pub fn replay_with(
    manifest: Arc<Manifest>,
    predictor_name: &'static str,
    content: ContentProfile,
) -> PredictionRun {
    let generator = VideoGenerator::new(manifest, content, SEED);
    let mut predictor = predictor_by_name(predictor_name).expect("known predictor");
    let mut ape = Quantiles::new();
    let mut ape_sum = 0.0;
    let mut under = 0u64;
    let mut under_sum = 0.0;
    let mut n = 0u64;
    for segment in generator.all_segments(0) {
        for frame in segment.frames() {
            let meta = FrameMeta::from(&frame);
            let predicted = predictor.predict(meta).get();
            let actual = frame.decode_cycles.get();
            let e = ((predicted - actual) / actual).abs();
            ape.push(e);
            ape_sum += e;
            if predicted < actual {
                under += 1;
                under_sum += (actual - predicted) / actual;
            }
            n += 1;
            predictor.observe(meta, frame.decode_cycles);
        }
    }
    PredictionRun {
        predictor: predictor_name,
        content,
        mape: ape_sum / n as f64,
        p95_ape: ape.quantile(0.95),
        underestimate_rate: under as f64 / n as f64,
        mean_underestimate: if under > 0 {
            under_sum / under as f64
        } else {
            0.0
        },
    }
}

/// F4: the accuracy table across predictors and contents.
pub fn f4_prediction() -> Table {
    let mut t = Table::new(&[
        "predictor",
        "content",
        "MAPE %",
        "P95 APE %",
        "underest %",
        "mean underest %",
    ]);
    t.set_title("F4: per-frame decode-cost prediction accuracy (online replay, 120 s @1080p30)");
    let manifest = Arc::new(manifest_1080p30(120));
    let jobs = PREDICTOR_NAMES
        .iter()
        .flat_map(|&name| {
            let manifest = Arc::clone(&manifest);
            ContentProfile::ALL.into_iter().map(move |content| {
                let manifest = Arc::clone(&manifest);
                let job = move || replay_with(manifest, name, content);
                (format!("f4 {name} {}", content.name()), job)
            })
        })
        .collect();
    for run in run_parallel_labeled(jobs) {
        t.row(&[
            run.predictor,
            run.content.name(),
            &format!("{:.2}", run.mape * 100.0),
            &format!("{:.2}", run.p95_ape * 100.0),
            &format!("{:.1}", run.underestimate_rate * 100.0),
            &format!("{:.2}", run.mean_underestimate * 100.0),
        ]);
    }
    t
}
