//! Time-in-state accounting.
//!
//! Tracks how long a component spends in each of a set of discrete states —
//! exactly the quantity Linux exposes as
//! `/sys/.../cpufreq/stats/time_in_state` and the paper's frequency-residency
//! figure (F12) plots.

use eavs_sim::time::{SimDuration, SimTime};

/// Tracks residency over states identified by dense indices.
///
/// ```
/// use eavs_metrics::residency::ResidencyTracker;
/// use eavs_sim::time::{SimDuration, SimTime};
///
/// let mut r = ResidencyTracker::new(3, 0, SimTime::ZERO);
/// r.switch_to(1, SimTime::from_secs(2));
/// r.switch_to(2, SimTime::from_secs(3));
/// let res = r.snapshot(SimTime::from_secs(10));
/// assert_eq!(res[0], SimDuration::from_secs(2));
/// assert_eq!(res[1], SimDuration::from_secs(1));
/// assert_eq!(res[2], SimDuration::from_secs(7));
/// ```
#[derive(Clone, Debug)]
pub struct ResidencyTracker {
    times: Vec<SimDuration>,
    current: usize,
    since: SimTime,
    transitions: u64,
}

impl ResidencyTracker {
    /// Creates a tracker over `num_states` states, starting in
    /// `initial_state` at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_state >= num_states` or `num_states == 0`.
    pub fn new(num_states: usize, initial_state: usize, start: SimTime) -> Self {
        assert!(num_states > 0, "tracker needs at least one state");
        assert!(
            initial_state < num_states,
            "initial state {initial_state} out of range {num_states}"
        );
        ResidencyTracker {
            times: vec![SimDuration::ZERO; num_states],
            current: initial_state,
            since: start,
            transitions: 0,
        }
    }

    /// Number of state *changes* recorded (self-transitions don't count).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Switches to `state` at time `now`, attributing the elapsed interval
    /// to the previous state. Switching to the current state is a no-op
    /// apart from advancing the accounting point.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range or `now` precedes the last update.
    pub fn switch_to(&mut self, state: usize, now: SimTime) {
        assert!(state < self.times.len(), "state {state} out of range");
        let elapsed = now
            .checked_duration_since(self.since)
            .expect("residency clock went backwards");
        self.times[self.current] += elapsed;
        if state != self.current {
            self.transitions += 1;
            self.current = state;
        }
        self.since = now;
    }

    /// Returns per-state residency including the open interval up to `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update.
    pub fn snapshot(&self, now: SimTime) -> Vec<SimDuration> {
        let mut times = Vec::with_capacity(self.times.len());
        self.snapshot_into(now, &mut times);
        times
    }

    /// Fills `out` with per-state residency (see [`snapshot`](Self::snapshot)),
    /// reusing the vector's capacity.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update.
    pub fn snapshot_into(&self, now: SimTime, out: &mut Vec<SimDuration>) {
        out.clear();
        out.extend_from_slice(&self.times);
        let open = now
            .checked_duration_since(self.since)
            .expect("residency clock went backwards");
        out[self.current] += open;
    }

    /// Total tracked time up to `now` (sum of all states).
    pub fn total(&self, now: SimTime) -> SimDuration {
        self.snapshot(now).into_iter().sum()
    }

    /// Fraction of time in `state` up to `now` (0 if no time has elapsed).
    pub fn fraction(&self, state: usize, now: SimTime) -> f64 {
        let snap = self.snapshot(now);
        let total: SimDuration = snap.iter().copied().sum();
        if total.is_zero() {
            0.0
        } else {
            snap[state].ratio(total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> SimTime {
        SimTime::from_secs(n)
    }

    #[test]
    fn attributes_intervals_to_previous_state() {
        let mut r = ResidencyTracker::new(2, 0, s(0));
        r.switch_to(1, s(5));
        r.switch_to(0, s(7));
        let snap = r.snapshot(s(10));
        assert_eq!(snap[0], SimDuration::from_secs(8));
        assert_eq!(snap[1], SimDuration::from_secs(2));
        assert_eq!(r.transitions(), 2);
    }

    #[test]
    fn self_transition_is_not_counted() {
        let mut r = ResidencyTracker::new(2, 0, s(0));
        r.switch_to(0, s(3));
        assert_eq!(r.transitions(), 0);
        assert_eq!(r.snapshot(s(4))[0], SimDuration::from_secs(4));
    }

    #[test]
    fn snapshot_total_equals_elapsed() {
        let mut r = ResidencyTracker::new(3, 1, s(2));
        r.switch_to(2, s(4));
        r.switch_to(0, s(9));
        assert_eq!(r.total(s(20)), SimDuration::from_secs(18));
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut r = ResidencyTracker::new(3, 0, s(0));
        r.switch_to(1, s(1));
        r.switch_to(2, s(4));
        let total: f64 = (0..3).map(|st| r.fraction(st, s(10))).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((r.fraction(2, s(10)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_fraction_is_zero() {
        let r = ResidencyTracker::new(2, 0, s(5));
        assert_eq!(r.fraction(0, s(5)), 0.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_going_backwards_panics() {
        let mut r = ResidencyTracker::new(2, 0, s(5));
        r.switch_to(1, s(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_state_panics() {
        let mut r = ResidencyTracker::new(2, 0, s(0));
        r.switch_to(2, s(1));
    }
}
