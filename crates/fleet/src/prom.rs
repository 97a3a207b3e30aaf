//! Prometheus text-exposition export of a campaign aggregate.
//!
//! `eavsctl fleet --metrics-out metrics.prom` writes the page produced
//! here so a node-exporter textfile collector (or anything that speaks
//! the 0.0.4 text format) can scrape fleet campaigns: shard progress,
//! per-governor energy/QoE histograms, and the population fault
//! counters. Rendering goes through [`eavs_obs::PromWriter`], so the
//! page is deterministic: the same aggregate always produces the same
//! bytes, regardless of `EAVS_JOBS`, sharding or resume splits.

use eavs_obs::PromWriter;
pub use eavs_obs::{check_conformance, TEXT_FORMAT};

use crate::aggregate::{FleetAggregate, GovAggregate};
use crate::spec::CampaignSpec;

/// One per-lane scalar family: metric name, help text, lane accessor.
type CounterFamily = (&'static str, &'static str, fn(&GovAggregate) -> f64);

/// One per-lane histogram family: the accessor also supplies the exact
/// sum [`eavs_obs::PromWriter::histogram`] needs.
type HistFamily = (
    &'static str,
    &'static str,
    fn(&GovAggregate) -> (&eavs_metrics::histogram::Histogram, f64),
);

/// Renders the full campaign page.
pub fn render(agg: &FleetAggregate, spec: &CampaignSpec) -> String {
    let mut w = PromWriter::new();
    write_into(&mut w, agg, spec);
    w.finish()
}

/// Writes the campaign families into an existing page, so callers can
/// append process-local extras (e.g. the bench session-cache counters)
/// after the campaign block.
pub fn write_into(w: &mut PromWriter, agg: &FleetAggregate, spec: &CampaignSpec) {
    write_all_into(w, &[(agg, spec)]);
}

/// Writes the campaign families for *several* campaigns on one page —
/// the daemon's `/metrics` endpoint serves every resident campaign.
/// Each family's HELP/TYPE appears exactly once with the samples of all
/// campaigns grouped under it, as the exposition format requires; for a
/// single campaign the output is byte-identical to [`write_into`].
pub fn write_all_into(w: &mut PromWriter, campaigns: &[(&FleetAggregate, &CampaignSpec)]) {
    w.help(
        "eavs_fleet_shards_done",
        "Shards fully folded into the aggregate.",
    )
    .type_("eavs_fleet_shards_done", "gauge");
    for (agg, spec) in campaigns {
        w.sample(
            "eavs_fleet_shards_done",
            &[("campaign", spec.name.as_str())],
            agg.shards_done as f64,
        );
    }
    w.help("eavs_fleet_shards_total", "Shards in the campaign plan.")
        .type_("eavs_fleet_shards_total", "gauge");
    for (_, spec) in campaigns {
        w.sample(
            "eavs_fleet_shards_total",
            &[("campaign", spec.name.as_str())],
            spec.num_shards() as f64,
        );
    }
    w.help(
        "eavs_fleet_sessions_done",
        "Sessions folded in (counted once, not per lane).",
    )
    .type_("eavs_fleet_sessions_done", "counter");
    for (agg, spec) in campaigns {
        w.sample(
            "eavs_fleet_sessions_done",
            &[("campaign", spec.name.as_str())],
            agg.sessions_done as f64,
        );
    }

    // Per-lane counter families: HELP/TYPE once, then one sample per
    // campaign × governor so every family stays contiguous as the
    // format requires.
    let counters: &[CounterFamily] = &[
        (
            "eavs_fleet_lane_sessions",
            "Sessions folded into this governor lane.",
            |g| g.sessions as f64,
        ),
        (
            "eavs_fleet_rebuffer_events_total",
            "Rebuffer events across the lane population.",
            |g| g.rebuffer_events as f64,
        ),
        (
            "eavs_fleet_rebuffer_seconds_total",
            "Total rebuffering time across the lane, seconds.",
            |g| g.rebuffer_secs.value(),
        ),
        (
            "eavs_fleet_download_retries_total",
            "Segment downloads re-attempted after a timeout or corruption.",
            |g| g.download_retries as f64,
        ),
        (
            "eavs_fleet_panic_races_total",
            "EAVS panic re-races triggered across the lane.",
            |g| g.panic_races as f64,
        ),
        (
            "eavs_fleet_transitions_total",
            "CPU frequency transitions across the lane.",
            |g| g.transitions as f64,
        ),
        (
            "eavs_fleet_perfect_sessions_total",
            "Sessions with no deadline misses and no rebuffering.",
            |g| g.perfect_sessions as f64,
        ),
    ];
    for (name, help, get) in counters {
        w.help(name, help).type_(name, "counter");
        for (agg, spec) in campaigns {
            for g in &agg.govs {
                w.sample(
                    name,
                    &[("campaign", spec.name.as_str()), ("governor", &g.name)],
                    get(g),
                );
            }
        }
    }

    w.help(
        "eavs_fleet_deadline_miss_ratio",
        "Late plus dropped frames over offered vsync ticks.",
    )
    .type_("eavs_fleet_deadline_miss_ratio", "gauge");
    for (agg, spec) in campaigns {
        for g in &agg.govs {
            w.sample(
                "eavs_fleet_deadline_miss_ratio",
                &[("campaign", spec.name.as_str()), ("governor", &g.name)],
                g.miss_rate(),
            );
        }
    }

    // Distribution families: per-governor histograms with the matching
    // exact sums the aggregate already carries.
    let hists: &[HistFamily] = &[
        (
            "eavs_fleet_cpu_joules",
            "Per-session CPU energy, joules.",
            |g| (&g.cpu_j, g.cpu_j_sum.value()),
        ),
        (
            "eavs_fleet_qoe_score",
            "Per-session composite QoE score.",
            |g| (&g.qoe, g.qoe_sum.value()),
        ),
        (
            "eavs_fleet_startup_milliseconds",
            "Per-session startup delay, milliseconds.",
            |g| (&g.startup_ms, g.startup_ms_sum.value()),
        ),
    ];
    for (name, help, get) in hists {
        w.help(name, help).type_(name, "histogram");
        for (agg, spec) in campaigns {
            for g in &agg.govs {
                let (h, sum) = get(g);
                w.histogram(
                    name,
                    &[("campaign", spec.name.as_str()), ("governor", &g.name)],
                    h,
                    sum,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{builder_for, draw_session};

    fn small_aggregate() -> (FleetAggregate, CampaignSpec) {
        let spec = CampaignSpec::smoke();
        let mut agg = FleetAggregate::new(&spec);
        for id in 0..3u64 {
            let draw = draw_session(&spec, id);
            let report = builder_for(&draw, "eavs").unwrap().run();
            agg.observe_arrival(id as f64 * 7.0);
            agg.observe(0, &report);
            agg.observe(1, &report);
        }
        agg.shards_done = 2;
        (agg, spec)
    }

    #[test]
    fn page_has_every_family_once_and_each_lane() {
        let (agg, spec) = small_aggregate();
        let page = render(&agg, &spec);
        for family in [
            "eavs_fleet_shards_done",
            "eavs_fleet_sessions_done",
            "eavs_fleet_lane_sessions",
            "eavs_fleet_deadline_miss_ratio",
            "eavs_fleet_cpu_joules",
            "eavs_fleet_qoe_score",
            "eavs_fleet_startup_milliseconds",
        ] {
            let type_lines = page
                .lines()
                .filter(|l| l.starts_with("# TYPE ") && l.split(' ').nth(2) == Some(family))
                .count();
            assert_eq!(type_lines, 1, "one TYPE line for {family}\n{page}");
        }
        for gov in &spec.governors {
            assert!(
                page.contains(&format!("governor=\"{gov}\"")),
                "lane {gov} missing\n{page}"
            );
        }
        assert!(page.contains("eavs_fleet_cpu_joules_bucket"));
        assert!(page.contains("le=\"+Inf\""));
    }

    #[test]
    fn rendering_is_deterministic() {
        let (agg, spec) = small_aggregate();
        assert_eq!(render(&agg, &spec), render(&agg, &spec));
    }

    #[test]
    fn campaign_page_is_scrape_conformant() {
        let (agg, spec) = small_aggregate();
        let mut w = PromWriter::new();
        write_into(&mut w, &agg, &spec);
        check_conformance(w.as_str()).unwrap();
        assert_eq!(TEXT_FORMAT, "text/plain; version=0.0.4");
    }

    #[test]
    fn multi_campaign_page_groups_families_once() {
        let (agg_a, spec_a) = small_aggregate();
        let mut spec_b = CampaignSpec::smoke();
        spec_b.name = "second".to_owned();
        let agg_b = FleetAggregate::new(&spec_b);
        let mut w = PromWriter::new();
        write_all_into(&mut w, &[(&agg_a, &spec_a), (&agg_b, &spec_b)]);
        let page = w.finish();
        check_conformance(&page).unwrap();
        assert!(page.contains("campaign=\"smoke\""));
        assert!(page.contains("campaign=\"second\""));
        let shards_type_lines = page
            .lines()
            .filter(|l| l.starts_with("# TYPE eavs_fleet_shards_done "))
            .count();
        assert_eq!(shards_type_lines, 1, "family header must appear once");
    }

    #[test]
    fn write_into_appends_after_existing_content() {
        let (agg, spec) = small_aggregate();
        let mut w = PromWriter::new();
        w.sample("eavs_custom_preamble", &[], 1.0);
        write_into(&mut w, &agg, &spec);
        let page = w.finish();
        assert!(page.starts_with("eavs_custom_preamble 1\n"));
        assert!(page.contains("eavs_fleet_shards_done"));
    }
}
