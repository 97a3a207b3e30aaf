//! Fleet campaigns on the bench infrastructure (F26/F27).
//!
//! `eavs-fleet` is engine-agnostic: it asks its caller for a shard
//! runner. This module supplies the production one: every session goes
//! through the content-addressed cache ([`crate::cache`]), whose misses
//! stream one by one onto the shared job queue ([`crate::executor`]) as
//! a shard's jobs are fingerprinted, so no second copy of the shard's
//! builders is held. Campaign specs draw from small trace/seed pools, so
//! identical builders recur across the population and the cache turns
//! most session-runs into lookups.

use std::sync::Arc;

use eavs_core::report::SessionReport;
use eavs_core::session::SessionBuilder;
use eavs_fleet::{CampaignOutcome, CampaignSpec, RunOptions};
use eavs_metrics::table::Table;

/// The production shard runner: labeled jobs go through
/// [`crate::cache::run_sessions`], which dedupes them against the session
/// cache and streams the misses onto the shared pool.
pub fn pooled_runner(jobs: Vec<(String, SessionBuilder)>) -> Vec<Arc<SessionReport>> {
    crate::cache::run_sessions(jobs)
}

/// Runs (or resumes) a campaign on the pooled, cached runner.
///
/// # Errors
///
/// Propagates [`eavs_fleet::run_campaign`] errors (invalid spec,
/// incompatible or corrupt checkpoint, checkpoint I/O).
pub fn run_campaign(spec: &CampaignSpec, opts: &RunOptions) -> Result<CampaignOutcome, String> {
    eavs_fleet::run_campaign(spec, opts, &pooled_runner)
}

/// F26: population energy/QoE distributions per governor — the global
/// campaign (10k sessions × 5 governors) folded into one table.
///
/// Not registered in [`crate::all_experiments`]: fleet figures land
/// under `results/fleet/` on their own cadence, not in the per-figure
/// golden set.
pub fn f26_fleet_population() -> Table {
    let spec = CampaignSpec::global();
    let outcome =
        run_campaign(&spec, &RunOptions::default()).expect("global campaign spec is valid");
    outcome.aggregate.table(&spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_fleet::CampaignStatus;

    #[test]
    fn pooled_campaign_matches_serial_campaign() {
        let mut spec = CampaignSpec::smoke();
        spec.name = "pooled-vs-serial".to_owned();
        spec.sessions = 6;
        spec.shard_size = 2;
        let pooled = run_campaign(&spec, &RunOptions::default()).unwrap();
        let serial = eavs_fleet::run_campaign(
            &spec,
            &RunOptions::default(),
            &eavs_fleet::campaign::serial_runner,
        )
        .unwrap();
        assert_eq!(pooled.status, CampaignStatus::Complete);
        assert_eq!(pooled.aggregate, serial.aggregate);
        assert_eq!(
            pooled.aggregate.table(&spec).to_csv(),
            serial.aggregate.table(&spec).to_csv()
        );
    }
}
