//! Live progress snapshots of a running campaign.
//!
//! A snapshot is a cheap, pure projection of the merged
//! [`FleetAggregate`] — a handful of per-lane means and counters rather
//! than the full histogram state — taken at shard boundaries so a
//! control plane (the `eavsd` daemon's `GET /campaigns/{id}`) can report
//! where a campaign stands without touching the hot path. Because it is
//! derived from the same bit-exact aggregate the checkpoint serializes,
//! a snapshot is deterministic for a given `(spec, shards_done)` however
//! the campaign is parallelized or resumed.

use crate::aggregate::{FleetAggregate, GovAggregate};
use crate::spec::CampaignSpec;

/// Per-governor summary statistics at a point in the campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct GovSnapshot {
    /// Governor name (the spec's label).
    pub governor: String,
    /// Sessions folded into the lane so far.
    pub sessions: u64,
    /// Mean per-session CPU energy, joules (0 when empty).
    pub mean_cpu_j: f64,
    /// Mean whole-device energy (CPU + radio + display + decoder),
    /// joules (0 when empty), as in `SessionReport::device_joules`.
    pub mean_device_j: f64,
    /// Mean composite QoE score (0 when empty).
    pub mean_qoe: f64,
    /// Rebuffer events across the lane population.
    pub rebuffer_events: u64,
    /// Population deadline-miss rate.
    pub miss_rate: f64,
}

impl GovSnapshot {
    fn capture(g: &GovAggregate) -> Self {
        let mean = |sum: f64| {
            if g.sessions == 0 {
                0.0
            } else {
                sum / g.sessions as f64
            }
        };
        let device_j = g.cpu_j_sum.value()
            + g.radio_j_sum.value()
            + g.device_display_j_sum.value()
            + g.device_decoder_j_sum.value();
        GovSnapshot {
            governor: g.name.clone(),
            sessions: g.sessions,
            mean_cpu_j: mean(g.cpu_j_sum.value()),
            mean_device_j: mean(device_j),
            mean_qoe: mean(g.qoe_sum.value()),
            rebuffer_events: g.rebuffer_events,
            miss_rate: g.miss_rate(),
        }
    }
}

/// Where a campaign stands: shard/session cursors plus one
/// [`GovSnapshot`] per lane, in spec order.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgressSnapshot {
    /// Fingerprint of the spec (matches [`FleetAggregate::campaign`]).
    pub campaign: u128,
    /// Shards fully folded in.
    pub shards_done: u64,
    /// Shards in the campaign plan.
    pub shards_total: u64,
    /// Sessions folded in (counted once, not per lane).
    pub sessions_done: u64,
    /// Sessions in the campaign plan.
    pub sessions_total: u64,
    /// Per-governor lane summaries.
    pub govs: Vec<GovSnapshot>,
}

impl ProgressSnapshot {
    /// Projects the aggregate's current state. O(governors), no
    /// histogram walks.
    pub fn capture(spec: &CampaignSpec, agg: &FleetAggregate) -> Self {
        ProgressSnapshot {
            campaign: agg.campaign,
            shards_done: agg.shards_done,
            shards_total: spec.num_shards(),
            sessions_done: agg.sessions_done,
            sessions_total: spec.sessions,
            govs: agg.govs.iter().map(GovSnapshot::capture).collect(),
        }
    }

    /// Completed fraction in [0, 1] by shards.
    pub fn fraction_done(&self) -> f64 {
        if self.shards_total == 0 {
            1.0
        } else {
            self.shards_done as f64 / self.shards_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{builder_for, draw_session, run_campaign, serial_runner, RunOptions};
    use eavs_power::DevicePowerModel;

    #[test]
    fn snapshot_tracks_the_aggregate() {
        let mut spec = CampaignSpec::smoke();
        spec.sessions = 4;
        spec.shard_size = 2;
        let empty = ProgressSnapshot::capture(&spec, &FleetAggregate::new(&spec));
        assert_eq!(empty.shards_done, 0);
        assert_eq!(empty.shards_total, 2);
        assert_eq!(empty.sessions_total, 4);
        assert_eq!(empty.fraction_done(), 0.0);
        for g in &empty.govs {
            assert_eq!(g.sessions, 0);
            assert_eq!(g.mean_cpu_j, 0.0);
        }

        for power in [DevicePowerModel::none(), DevicePowerModel::phone()] {
            spec.power = power;
            let out = run_campaign(&spec, &RunOptions::default(), &serial_runner).unwrap();
            let done = ProgressSnapshot::capture(&spec, &out.aggregate);
            assert_eq!(done.shards_done, 2);
            assert_eq!(done.sessions_done, 4);
            assert_eq!(done.fraction_done(), 1.0);
            assert_eq!(done.govs.len(), spec.governors.len());
            for (g, name) in done.govs.iter().zip(&spec.governors) {
                assert_eq!(&g.governor, name);
                assert_eq!(g.sessions, 4);
                assert!(g.mean_cpu_j > 0.0);
                // The lane mean of `device_joules`, up to `ExactSum`'s 1 nJ
                // rounding of each of four summed components per session.
                let run = |id| builder_for(&draw_session(&spec, id), name).unwrap().run();
                let mean = (0..4).map(|id| run(id).device_joules()).sum::<f64>() / 4.0;
                assert!((g.mean_device_j - mean).abs() <= 2e-9, "{power:?} {g:?}");
            }
            // Pure projection: capturing twice is identical.
            assert_eq!(done, ProgressSnapshot::capture(&spec, &out.aggregate));
        }
    }
}
