//! Radio power-state accounting: one RRC state machine for every radio.
//!
//! A session's modem walks IDLE → PROMO → ACTIVE → TAIL₁ → TAIL₂ → IDLE
//! over the session's traffic activity intervals. The same machine models
//! 3G UMTS (DCH/FACH with the T1/T2 inactivity timers), LTE
//! (CONNECTED with continuous-reception and DRX tail phases) and WiFi
//! PSM: a preset is a set of state powers and timers. Promotion can be
//! charged as timed signalling (a latency at a power), as a lump of
//! energy, or both; a one-tail machine sets TAIL₂ to zero. The report
//! gives the time in each state and the resulting energy — the "radio"
//! component of whole-device energy (F9, F28, F29, the fleet's radio
//! sums).
//!
//! State powers and timer values follow the published measurements the
//! paper's group used (Huang et al. 4G LTE characterization; the TPDS'14
//! web-browsing paper's UMTS numbers).

use eavs_sim::fingerprint::Fingerprinter;
use eavs_sim::time::{SimDuration, SimTime};

/// A half-open interval of network activity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ActivityInterval {
    /// Transfer start.
    pub start: SimTime,
    /// Transfer end.
    pub end: SimTime,
}

/// Merges possibly-overlapping activity intervals into a sorted disjoint
/// list, in place: touching intervals merge too, so consecutive results
/// are strictly separated.
pub fn merge_intervals(mut intervals: Vec<ActivityInterval>) -> Vec<ActivityInterval> {
    intervals.retain(|iv| iv.end > iv.start);
    // Intervals sharing a start merge into one whatever their order, so
    // an unstable (allocation-free) sort gives the same result.
    intervals.sort_unstable_by_key(|iv| iv.start);
    intervals.dedup_by(|next, last| {
        let overlaps = next.start <= last.end;
        if overlaps {
            last.end = last.end.max(next.end);
        }
        overlaps
    });
    intervals
}

/// Radio energy/time breakdown. The four residencies partition the
/// session exactly.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct RadioReport {
    /// Time actively transferring (high-power state).
    pub active_time: SimDuration,
    /// Time in the inactivity tail phases (both of them).
    pub tail_time: SimDuration,
    /// Time fully idle.
    pub idle_time: SimDuration,
    /// Time spent in promotion signalling.
    pub promo_time: SimDuration,
    /// IDLE→ACTIVE promotions charged.
    pub promotions: u32,
    /// Total radio energy, joules.
    pub energy_j: f64,
}

/// A radio technology's state machine parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RadioModel {
    /// Power while actively transferring (DCH / CONNECTED-RX), watts.
    pub active_power_w: f64,
    /// Power during the first tail phase (FACH / short-DRX), watts.
    pub tail1_power_w: f64,
    /// Duration of the first tail phase after last activity.
    pub tail1: SimDuration,
    /// Power during the second tail phase (PCH / long-DRX), watts.
    pub tail2_power_w: f64,
    /// Duration of the second tail phase (zero for a one-tail machine).
    pub tail2: SimDuration,
    /// Idle (camped) power, watts.
    pub idle_power_w: f64,
    /// Energy charged as a lump per IDLE→ACTIVE promotion, joules.
    pub promotion_energy_j: f64,
    /// Power while signalling a promotion, watts.
    pub promo_power_w: f64,
    /// Duration of promotion signalling at the head of a transfer that
    /// finds the radio idle (zero when promotion is charged as a lump).
    pub promotion_latency: SimDuration,
}

impl RadioModel {
    /// 3G UMTS numbers: DCH ≈ 1.2 W, FACH ≈ 0.6 W with T1 = 4 s demotion
    /// to FACH and T2 = 15 s to IDLE (T-Mobile UMTS as measured in the
    /// group's prior work).
    pub fn umts_3g() -> Self {
        RadioModel {
            active_power_w: 1.2,
            tail1_power_w: 1.2, // DCH tail until T1
            tail1: SimDuration::from_secs(4),
            tail2_power_w: 0.6, // FACH until T2
            tail2: SimDuration::from_secs(15),
            idle_power_w: 0.02,
            promotion_energy_j: 1.8, // ~1.5 s of signaling at ~1.2 W
            promo_power_w: 0.0,
            promotion_latency: SimDuration::ZERO,
        }
    }

    /// LTE numbers: CONNECTED ≈ 1.1 W, short-DRX tail ≈ 1.0 W for 1 s,
    /// long-DRX ≈ 0.5 W for ~10 s, fast promotion.
    pub fn lte() -> Self {
        RadioModel {
            active_power_w: 1.1,
            tail1_power_w: 1.0,
            tail1: SimDuration::from_secs(1),
            tail2_power_w: 0.5,
            tail2: SimDuration::from_secs(10),
            idle_power_w: 0.015,
            promotion_energy_j: 0.35,
            promo_power_w: 0.0,
            promotion_latency: SimDuration::ZERO,
        }
    }

    /// WiFi with PSM: cheap active power, tiny tail.
    pub fn wifi() -> Self {
        RadioModel {
            active_power_w: 0.7,
            tail1_power_w: 0.25,
            tail1: SimDuration::from_millis(200),
            tail2_power_w: 0.05,
            tail2: SimDuration::from_millis(800),
            idle_power_w: 0.01,
            promotion_energy_j: 0.01,
            promo_power_w: 0.0,
            promotion_latency: SimDuration::ZERO,
        }
    }

    /// LTE as one inactivity tail with timed promotion (the F28/F29
    /// radio): ~1.1 W connected, ~0.6 W tail for 10 s, 260 ms promotion
    /// at ~1.3 W signalling power.
    pub fn lte_rrc() -> Self {
        RadioModel {
            active_power_w: 1.1,
            tail1_power_w: 0.6,
            tail1: SimDuration::from_secs(10),
            tail2_power_w: 0.0,
            tail2: SimDuration::ZERO,
            idle_power_w: 0.015,
            promotion_energy_j: 0.0,
            promo_power_w: 1.3,
            promotion_latency: SimDuration::from_millis(260),
        }
    }

    /// The same machine with a single inactivity tail of `tail_timer`
    /// (the first tail phase, the second removed) — the F29 sweep knob.
    pub fn with_tail_timer(self, tail_timer: SimDuration) -> Self {
        RadioModel {
            tail1: tail_timer,
            tail2: SimDuration::ZERO,
            ..self
        }
    }

    /// Walks IDLE/PROMO/ACTIVE/TAIL₁/TAIL₂ over a session of
    /// `session_len` whose traffic occupied `activity` (merged
    /// internally) and returns the per-state residency and energy.
    ///
    /// A promotion is charged whenever a transfer begins while the radio
    /// is idle: at the first transfer, or after a gap longer than
    /// `tail1 + tail2`. Promotion signalling occupies the head of that
    /// transfer (clipped to its length), the rest is ACTIVE. After each
    /// transfer the radio holds TAIL₁, then TAIL₂, truncated by the next
    /// transfer or session end, then demotes to IDLE. Transfers are
    /// clipped to the session; one that begins at or after its end is not
    /// charged. IDLE is the remainder, so the four residencies partition
    /// `session_len` exactly.
    ///
    /// Energy is summed in a fixed order: each gap's tail terms, then
    /// ACTIVE, the lump promotion energy and IDLE, then the timed
    /// promotion term.
    pub fn account(
        &self,
        activity: Vec<ActivityInterval>,
        session_len: SimDuration,
    ) -> RadioReport {
        let end = SimTime::ZERO + session_len;
        let merged = merge_intervals(activity);
        let full_tail = self.tail1 + self.tail2;
        let mut r = RadioReport::default();
        let mut prev_end: Option<SimTime> = None;
        for (i, iv) in merged.iter().enumerate() {
            // Sorted: once a transfer starts at the session's end, so do
            // all the rest.
            if iv.start >= end {
                break;
            }
            let iv_end = iv.end.min(end);
            let len = iv_end - iv.start;
            let promoted = match prev_end {
                None => true,
                Some(pe) => iv.start.saturating_duration_since(pe) > full_tail,
            };
            if promoted {
                r.promotions += 1;
                let promo = len.min(self.promotion_latency);
                r.promo_time += promo;
                r.active_time += len - promo;
            } else {
                r.active_time += len;
            }
            let next_start = merged.get(i + 1).map_or(end, |n| n.start.min(end));
            let gap = next_start.saturating_duration_since(iv_end);
            let t1 = gap.min(self.tail1);
            let t2 = gap.saturating_sub(self.tail1).min(self.tail2);
            r.tail_time += t1 + t2;
            r.energy_j +=
                self.tail1_power_w * t1.as_secs_f64() + self.tail2_power_w * t2.as_secs_f64();
            prev_end = Some(iv_end);
        }
        r.energy_j += self.active_power_w * r.active_time.as_secs_f64();
        r.energy_j += self.promotion_energy_j * f64::from(r.promotions);
        r.idle_time = session_len
            .saturating_sub(r.active_time)
            .saturating_sub(r.promo_time)
            .saturating_sub(r.tail_time);
        r.energy_j += self.idle_power_w * r.idle_time.as_secs_f64();
        r.energy_j += self.promo_power_w * r.promo_time.as_secs_f64();
        r
    }

    /// Hashes every parameter into `fp`.
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_f64(self.active_power_w);
        fp.write_f64(self.tail1_power_w);
        fp.write_u64(self.tail1.as_nanos());
        fp.write_f64(self.tail2_power_w);
        fp.write_u64(self.tail2.as_nanos());
        fp.write_f64(self.idle_power_w);
        fp.write_f64(self.promotion_energy_j);
        fp.write_f64(self.promo_power_w);
        fp.write_u64(self.promotion_latency.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64) -> ActivityInterval {
        ActivityInterval {
            start: SimTime::from_secs(s),
            end: SimTime::from_secs(e),
        }
    }

    #[test]
    fn merge_overlaps_and_drops_empties() {
        let merged = merge_intervals(vec![iv(5, 7), iv(0, 2), iv(1, 3), iv(4, 4)]);
        assert_eq!(merged, vec![iv(0, 3), iv(5, 7)]);
    }

    #[test]
    fn single_burst_accounting() {
        let m = RadioModel::umts_3g();
        // 10 s transfer, then 30 s silence: full 4 s DCH-tail + 15 s FACH.
        let r = m.account(vec![iv(0, 10)], SimDuration::from_secs(40));
        assert_eq!(r.active_time, SimDuration::from_secs(10));
        assert_eq!(r.tail_time, SimDuration::from_secs(19));
        assert_eq!(r.idle_time, SimDuration::from_secs(11));
        let expected = 1.2 * 10.0 + 1.2 * 4.0 + 0.6 * 15.0 + 0.02 * 11.0 + 1.8;
        assert!((r.energy_j - expected).abs() < 1e-9, "got {}", r.energy_j);
    }

    #[test]
    fn close_bursts_share_tail_without_new_promotion() {
        let m = RadioModel::lte();
        // Gap of 2 s < tail (11 s): no second promotion; tail truncated.
        let r = m.account(vec![iv(0, 5), iv(7, 10)], SimDuration::from_secs(30));
        assert_eq!(r.active_time, SimDuration::from_secs(8));
        // First tail truncated to 2 s (1 s short-DRX + 1 s long-DRX), second
        // tail full 11 s.
        assert_eq!(r.tail_time, SimDuration::from_secs(13));
        // Promotions: just one.
        let one_promotion = m.promotion_energy_j;
        let energy_lower_bound = 1.1 * 8.0 + one_promotion;
        assert!(r.energy_j > energy_lower_bound);
        let r2 = m.account(vec![iv(0, 5), iv(25, 28)], SimDuration::from_secs(40));
        // Far-apart bursts: two promotions, two full tails.
        assert_eq!(r2.tail_time, SimDuration::from_secs(22));
    }

    #[test]
    fn tail_truncated_by_session_end() {
        let m = RadioModel::lte();
        let r = m.account(vec![iv(0, 5)], SimDuration::from_secs(6));
        assert_eq!(r.tail_time, SimDuration::from_secs(1));
        assert_eq!(r.idle_time, SimDuration::ZERO);
    }

    #[test]
    fn continuous_activity_has_no_tail() {
        let m = RadioModel::umts_3g();
        let r = m.account(vec![iv(0, 20)], SimDuration::from_secs(20));
        assert_eq!(r.active_time, SimDuration::from_secs(20));
        assert_eq!(r.tail_time, SimDuration::ZERO);
        assert_eq!(r.idle_time, SimDuration::ZERO);
    }

    #[test]
    fn no_activity_is_all_idle() {
        let m = RadioModel::wifi();
        let r = m.account(vec![], SimDuration::from_secs(100));
        assert_eq!(r.active_time, SimDuration::ZERO);
        assert_eq!(r.idle_time, SimDuration::from_secs(100));
        assert!((r.energy_j - 0.01 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn wifi_cheaper_than_lte_for_bursty_traffic() {
        let activity = vec![iv(0, 2), iv(20, 22), iv(40, 42)];
        let len = SimDuration::from_secs(60);
        let wifi = RadioModel::wifi().account(activity.clone(), len);
        let lte = RadioModel::lte().account(activity, len);
        assert!(wifi.energy_j < lte.energy_j / 2.0);
    }

    #[test]
    fn times_partition_session() {
        let m = RadioModel::umts_3g();
        let r = m.account(vec![iv(3, 8), iv(30, 31)], SimDuration::from_secs(60));
        let total = r.active_time + r.promo_time + r.tail_time + r.idle_time;
        assert_eq!(total, SimDuration::from_secs(60));
        assert_eq!(r.promotions, 2);
    }
}
