//! Property-based tests for the network substrate.

use eavs_net::bandwidth::BandwidthTrace;
use eavs_net::radio::{merge_intervals, ActivityInterval, RadioModel, RadioReport};
use eavs_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn trace_from(steps: &[(u64, f64)]) -> BandwidthTrace {
    let mut points = vec![(SimTime::ZERO, steps.first().map_or(1e6, |&(_, r)| r))];
    let mut t = 0;
    for &(dt, rate) in steps {
        t += dt;
        points.push((SimTime::from_secs(t), rate));
    }
    BandwidthTrace::from_points(points)
}

/// Reference walkers: verbatim copies of the two radio walkers the
/// unified `RadioModel::account` replaced, kept as oracles.
mod reference {
    use eavs_net::radio::{ActivityInterval, RadioModel};
    use eavs_sim::time::{SimDuration, SimTime};

    /// The interval merge both walkers used (stable sort, copy out).
    pub fn merge_intervals(mut intervals: Vec<ActivityInterval>) -> Vec<ActivityInterval> {
        intervals.retain(|iv| iv.end > iv.start);
        intervals.sort_by_key(|iv| iv.start);
        let mut merged: Vec<ActivityInterval> = Vec::with_capacity(intervals.len());
        for iv in intervals {
            match merged.last_mut() {
                Some(last) if iv.start <= last.end => {
                    last.end = last.end.max(iv.end);
                }
                _ => merged.push(iv),
            }
        }
        merged
    }

    /// Active, tail and idle time and energy of the two-tail walker
    /// (lump promotion energy; promotion latency never entered it).
    pub fn two_tail(
        m: &RadioModel,
        activity: Vec<ActivityInterval>,
        session_len: SimDuration,
    ) -> (SimDuration, SimDuration, SimDuration, f64) {
        let end_of_session = SimTime::ZERO + session_len;
        let merged = merge_intervals(activity);
        let (mut active_time, mut tail_time, mut energy_j) =
            (SimDuration::ZERO, SimDuration::ZERO, 0.0);
        let full_tail = m.tail1 + m.tail2;

        let mut promotions = 0u32;
        let mut prev_end: Option<SimTime> = None;
        for iv in &merged {
            let iv_end = iv.end.min(end_of_session);
            let iv_start = iv.start.min(iv_end);
            let promoted = match prev_end {
                None => true,
                Some(pe) => iv_start.saturating_duration_since(pe) > full_tail,
            };
            if promoted {
                promotions += 1;
            }
            active_time += iv_end - iv_start;
            let next_start = merged
                .iter()
                .map(|n| n.start)
                .find(|&s| s >= iv.end)
                .unwrap_or(SimTime::MAX)
                .min(end_of_session);
            let gap = next_start.saturating_duration_since(iv_end);
            let t1 = gap.min(m.tail1);
            let t2 = gap.saturating_sub(m.tail1).min(m.tail2);
            tail_time += t1 + t2;
            energy_j += m.tail1_power_w * t1.as_secs_f64() + m.tail2_power_w * t2.as_secs_f64();
            prev_end = Some(iv_end);
        }

        energy_j += m.active_power_w * active_time.as_secs_f64();
        energy_j += m.promotion_energy_j * f64::from(promotions);
        let idle_time = session_len
            .saturating_sub(active_time)
            .saturating_sub(tail_time);
        energy_j += m.idle_power_w * idle_time.as_secs_f64();
        (active_time, tail_time, idle_time, energy_j)
    }

    /// The one-tail RRC machine's parameters (its LTE preset).
    pub struct Rrc {
        pub idle_power_w: f64,
        pub promo_power_w: f64,
        pub active_power_w: f64,
        pub tail_power_w: f64,
        pub promotion_latency: SimDuration,
        pub tail_timer: SimDuration,
    }

    impl Rrc {
        pub fn lte(tail_timer: SimDuration) -> Self {
            Rrc {
                idle_power_w: 0.015,
                promo_power_w: 1.3,
                active_power_w: 1.1,
                tail_power_w: 0.6,
                promotion_latency: SimDuration::from_millis(260),
                tail_timer,
            }
        }
    }

    /// Idle, promo, active and tail time, promotions and energy of the
    /// one-tail walker (timed promotion, no lump).
    pub fn one_tail(
        m: &Rrc,
        activity: Vec<ActivityInterval>,
        session_len: SimDuration,
    ) -> ([SimDuration; 4], u32, f64) {
        let end = SimTime::ZERO + session_len;
        let merged = merge_intervals(activity);
        let (mut promo_t, mut active, mut tail) =
            (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO);
        let mut promotions = 0u32;
        let mut prev_end: Option<SimTime> = None;
        for (i, iv) in merged.iter().enumerate() {
            let iv_end = iv.end.min(end);
            let iv_start = iv.start.min(iv_end);
            if iv_end <= iv_start {
                continue;
            }
            let promoted = match prev_end {
                None => true,
                Some(pe) => iv_start.saturating_duration_since(pe) > m.tail_timer,
            };
            let len = iv_end - iv_start;
            if promoted {
                promotions += 1;
                let promo = len.min(m.promotion_latency);
                promo_t += promo;
                active += len.saturating_sub(promo);
            } else {
                active += len;
            }
            let next_start = merged
                .get(i + 1)
                .map(|n| n.start)
                .unwrap_or(SimTime::MAX)
                .min(end);
            let gap = next_start.saturating_duration_since(iv_end);
            tail += gap.min(m.tail_timer);
            prev_end = Some(iv_end);
        }
        let idle = session_len
            .saturating_sub(active)
            .saturating_sub(promo_t)
            .saturating_sub(tail);
        let energy_j = m.idle_power_w * idle.as_secs_f64()
            + m.promo_power_w * promo_t.as_secs_f64()
            + m.active_power_w * active.as_secs_f64()
            + m.tail_power_w * tail.as_secs_f64();
        ([idle, promo_t, active, tail], promotions, energy_j)
    }
}

/// Intervals from `(start_ns, len_ns)` pairs.
fn intervals_ns(raw: &[(u64, u64)]) -> Vec<ActivityInterval> {
    raw.iter()
        .map(|&(s, len)| ActivityInterval {
            start: SimTime::ZERO + SimDuration::from_nanos(s),
            end: SimTime::ZERO + SimDuration::from_nanos(s + len),
        })
        .collect()
}

/// Every radio preset: the three two-tail ones and the one-tail LTE.
fn presets() -> [RadioModel; 4] {
    [
        RadioModel::wifi(),
        RadioModel::lte(),
        RadioModel::umts_3g(),
        RadioModel::lte_rrc(),
    ]
}

fn iv_ms(s_ms: u64, e_ms: u64) -> ActivityInterval {
    ActivityInterval {
        start: SimTime::ZERO + SimDuration::from_millis(s_ms),
        end: SimTime::ZERO + SimDuration::from_millis(e_ms),
    }
}

fn residency(r: &RadioReport) -> SimDuration {
    r.idle_time + r.promo_time + r.active_time + r.tail_time
}

#[test]
fn one_tail_states_partition_the_session() {
    let r = RadioModel::lte_rrc().account(
        vec![iv_ms(0, 3_000), iv_ms(20_000, 23_000)],
        SimDuration::from_secs(60),
    );
    assert_eq!(residency(&r), SimDuration::from_secs(60));
    // Two transfers separated by 17 s > 10 s tail: two promotions.
    assert_eq!(r.promotions, 2);
    assert!(r.energy_j > 0.0);
}

#[test]
fn close_transfers_skip_the_second_promotion() {
    let r = RadioModel::lte_rrc().account(
        vec![iv_ms(0, 3_000), iv_ms(5_000, 8_000)],
        SimDuration::from_secs(30),
    );
    assert_eq!(r.promotions, 1);
    // One 260 ms promotion, the rest of both transfers active.
    assert_eq!(r.promo_time, SimDuration::from_millis(260));
    assert_eq!(r.active_time, SimDuration::from_millis(5_740));
}

#[test]
fn longer_tail_timer_costs_more_energy() {
    let activity = vec![iv_ms(0, 2_000), iv_ms(30_000, 32_000)];
    let len = SimDuration::from_secs(60);
    let short = RadioModel::lte_rrc()
        .with_tail_timer(SimDuration::from_secs(1))
        .account(activity.clone(), len);
    let long = RadioModel::lte_rrc()
        .with_tail_timer(SimDuration::from_secs(20))
        .account(activity, len);
    assert!(long.tail_time > short.tail_time);
    assert!(long.energy_j > short.energy_j);
    // The short timer demotes to idle in the gap.
    assert_eq!(short.promotions, 2);
}

#[test]
fn activity_clipped_to_session_end() {
    for model in presets() {
        let r = model.account(
            vec![iv_ms(0, 5_000), iv_ms(8_000, 20_000), iv_ms(60_000, 61_000)],
            SimDuration::from_secs(6),
        );
        assert_eq!(residency(&r), SimDuration::from_secs(6));
        // The later transfers start after session end: never counted,
        // not even as a promotion.
        assert_eq!(r.promotions, 1, "{model:?}");
    }
}

proptest! {
    /// completion_time is the inverse of bytes_between: transferring
    /// exactly the bytes available over a window completes at (or within
    /// a microsecond of) the window's end.
    #[test]
    fn completion_inverts_integral(
        steps in proptest::collection::vec((1u64..20, 0.5f64..50.0), 1..10),
        start in 0u64..30,
        span in 1u64..60,
    ) {
        let tr = trace_from(&steps.iter().map(|&(dt, mbps)| (dt, mbps * 1e6)).collect::<Vec<_>>());
        let from = SimTime::from_secs(start);
        let to = SimTime::from_secs(start + span);
        let bytes = tr.bytes_between(from, to);
        prop_assume!(bytes > 1.0);
        let done = tr.completion_time(from, bytes).expect("positive rates");
        let diff = if done > to { done - to } else { to - done };
        prop_assert!(
            diff <= SimDuration::from_micros(10),
            "done {done} vs window end {to}"
        );
    }

    /// bytes_between is additive over adjacent windows.
    #[test]
    fn integral_additive(
        steps in proptest::collection::vec((1u64..20, 0.0f64..50.0), 1..10),
        a in 0u64..40,
        b in 0u64..40,
        c in 0u64..40,
    ) {
        let tr = trace_from(&steps.iter().map(|&(dt, mbps)| (dt, mbps * 1e6)).collect::<Vec<_>>());
        let mut cuts = [a, a + b, a + b + c];
        cuts.sort_unstable();
        let (t0, t1, t2) = (
            SimTime::from_secs(cuts[0]),
            SimTime::from_secs(cuts[1]),
            SimTime::from_secs(cuts[2]),
        );
        let whole = tr.bytes_between(t0, t2);
        let parts = tr.bytes_between(t0, t1) + tr.bytes_between(t1, t2);
        prop_assert!((whole - parts).abs() < 1e-6 * (1.0 + whole));
    }

    /// merge_intervals yields sorted, disjoint intervals covering exactly
    /// the union.
    #[test]
    fn merge_produces_disjoint_cover(
        intervals in proptest::collection::vec((0u64..100, 0u64..20), 0..30),
    ) {
        let input: Vec<ActivityInterval> = intervals
            .iter()
            .map(|&(s, len)| ActivityInterval {
                start: SimTime::from_secs(s),
                end: SimTime::from_secs(s + len),
            })
            .collect();
        let merged = merge_intervals(input.clone());
        // Sorted and disjoint (strictly separated).
        for w in merged.windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }
        // Same union: check per-second membership.
        for sec in 0..130u64 {
            let t = SimTime::from_secs(sec);
            let in_input = input
                .iter()
                .any(|iv| iv.start <= t && t < iv.end);
            let in_merged = merged
                .iter()
                .any(|iv| iv.start <= t && t < iv.end);
            prop_assert_eq!(in_input, in_merged, "coverage differs at {}s", sec);
        }
    }

    /// Radio accounting always partitions the session and yields finite,
    /// non-negative energy, for any radio model and activity set.
    #[test]
    fn radio_partitions_session(
        intervals in proptest::collection::vec((0u64..200, 1u64..30), 0..20),
        session_extra in 0u64..100,
        model_pick in 0u8..3,
    ) {
        let model = match model_pick {
            0 => RadioModel::umts_3g(),
            1 => RadioModel::lte(),
            _ => RadioModel::wifi(),
        };
        let activity: Vec<ActivityInterval> = intervals
            .iter()
            .map(|&(s, len)| ActivityInterval {
                start: SimTime::from_secs(s),
                end: SimTime::from_secs(s + len),
            })
            .collect();
        let latest_end = activity.iter().map(|iv| iv.end.as_nanos()).max().unwrap_or(0);
        let session = SimDuration::from_nanos(latest_end) + SimDuration::from_secs(session_extra);
        prop_assume!(!session.is_zero());
        let report = model.account(activity, session);
        prop_assert_eq!(
            report.active_time + report.promo_time + report.tail_time + report.idle_time,
            session
        );
        prop_assert!(report.energy_j.is_finite() && report.energy_j >= 0.0);
        // Energy at least idle-floor, at most all-active + promotions.
        let floor = model.idle_power_w * session.as_secs_f64();
        prop_assert!(report.energy_j >= floor - 1e-9);
    }

    /// More activity never reduces radio energy (monotonicity).
    #[test]
    fn radio_energy_monotone_in_activity(
        base in proptest::collection::vec((0u64..100, 1u64..10), 0..10),
        extra_start in 0u64..100,
        extra_len in 1u64..10,
    ) {
        let to_iv = |&(s, len): &(u64, u64)| ActivityInterval {
            start: SimTime::from_secs(s),
            end: SimTime::from_secs(s + len),
        };
        let model = RadioModel::lte();
        let session = SimDuration::from_secs(250);
        let a: Vec<_> = base.iter().map(to_iv).collect();
        let mut b = a.clone();
        b.push(ActivityInterval {
            start: SimTime::from_secs(extra_start),
            end: SimTime::from_secs(extra_start + extra_len),
        });
        let ra = model.account(a, session);
        let rb = model.account(b, session);
        prop_assert!(rb.energy_j >= ra.energy_j - 1e-9);
    }

    /// The two-tail presets reproduce the two-tail reference walker bit
    /// for bit: energy bits and residencies, over any interval list and
    /// session length. The reference charged a promotion for a transfer
    /// that starts at or after the session end; the unified walker
    /// charges nothing for it, so the reference sees only the transfers
    /// that start inside the session. (Sessions never produce the
    /// others: `Downloader::activity(end)` clips at `end`.)
    #[test]
    fn two_tail_presets_match_the_reference_walker(
        raw in proptest::collection::vec((0u64..120_000_000_000, 0u64..8_000_000_000), 0..16),
        session_ns in 1_000_000_000u64..180_000_000_000,
        pick in 0usize..3,
    ) {
        let model = presets()[pick];
        let session = SimDuration::from_nanos(session_ns);
        let end = SimTime::ZERO + session;
        let intervals = intervals_ns(&raw);
        let in_session: Vec<ActivityInterval> =
            intervals.iter().copied().filter(|iv| iv.start < end).collect();
        let r = model.account(intervals, session);
        let (active, tail, idle, energy) = reference::two_tail(&model, in_session, session);
        prop_assert_eq!(r.energy_j.to_bits(), energy.to_bits(), "{:?}", model);
        prop_assert_eq!((r.active_time, r.tail_time, r.idle_time), (active, tail, idle));
        prop_assert_eq!(r.promo_time, SimDuration::ZERO);
    }

    /// The one-tail LTE preset under any tail timer matches the one-tail
    /// reference walker: residencies and promotions exactly, energy to
    /// 1e-12 relative (the two sum their terms in different orders).
    #[test]
    fn one_tail_preset_matches_the_reference_walker(
        raw in proptest::collection::vec((0u64..120_000_000_000, 0u64..8_000_000_000), 0..16),
        session_ns in 1_000_000_000u64..180_000_000_000,
        tail_ns in 0u64..30_000_000_000,
    ) {
        let tail = SimDuration::from_nanos(tail_ns);
        let model = RadioModel::lte_rrc().with_tail_timer(tail);
        let session = SimDuration::from_nanos(session_ns);
        let intervals = intervals_ns(&raw);
        let r = model.account(intervals.clone(), session);
        let (times, promotions, energy) =
            reference::one_tail(&reference::Rrc::lte(tail), intervals, session);
        prop_assert_eq!([r.idle_time, r.promo_time, r.active_time, r.tail_time], times);
        prop_assert_eq!(r.promotions, promotions);
        prop_assert!(
            (r.energy_j - energy).abs() <= 1e-12 * energy.abs(),
            "{} vs {}", r.energy_j, energy
        );
    }

    /// The radio walk is a pure function of the *timeline*, not of how
    /// the caller sliced or ordered the intervals: shuffling the list and
    /// splitting any interval in two leave the report bit-identical, and
    /// the four residencies always partition the session exactly — for
    /// every preset, the one-tail one under any tail timer.
    #[test]
    fn radio_walk_is_a_pure_function_of_the_timeline(
        raw in proptest::collection::vec((0u64..120_000, 0u64..8_000), 0..12),
        session_ms in 1_000u64..180_000,
        tail_ms in 0u64..30_000,
        pick in 0usize..4,
        split_idx in 0usize..12,
        split_frac in 0.0f64..1.0,
        swap in proptest::collection::vec((0usize..12, 0usize..12), 0..6),
    ) {
        let mut model = presets()[pick];
        if pick == 3 {
            model = model.with_tail_timer(SimDuration::from_millis(tail_ms));
        }
        let session = SimDuration::from_millis(session_ms);
        let intervals: Vec<ActivityInterval> = raw
            .iter()
            .map(|&(s, len)| iv_ms(s, s + len))
            .collect();
        let base = model.account(intervals.clone(), session);

        // Shuffled order: identical report.
        let mut shuffled = intervals.clone();
        for &(a, b) in &swap {
            if a < shuffled.len() && b < shuffled.len() {
                shuffled.swap(a, b);
            }
        }
        prop_assert_eq!(model.account(shuffled, session), base);

        // Splitting one interval into two touching halves: identical.
        let mut split = intervals.clone();
        let at = split_idx % split.len().max(1);
        if let Some(victim) = split.get(at).copied() {
            let len = victim.end.saturating_duration_since(victim.start);
            let cut = victim.start
                + SimDuration::from_nanos((len.as_nanos() as f64 * split_frac) as u64);
            split[at] = ActivityInterval {
                start: victim.start,
                end: cut,
            };
            split.push(ActivityInterval { start: cut, end: victim.end });
            prop_assert_eq!(model.account(split, session), base);
        }

        // Residency partition is exact.
        prop_assert_eq!(residency(&base), session);
        prop_assert!(base.energy_j.is_finite() && base.energy_j >= 0.0);
    }
}
