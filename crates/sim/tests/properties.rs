//! Property-based tests for the simulation kernel.

use eavs_sim::prelude::*;
use eavs_sim::time::{round_i128, round_u64};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The libm-free rounding helpers equal `f64::round` followed by the
    /// saturating cast, over uniformly random bit patterns (every
    /// exponent, sign, NaN payload and subnormal alike).
    #[test]
    fn rounding_helpers_match_std_on_random_bits(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(round_u64(x), x.round() as u64);
        prop_assert_eq!(round_i128(x), x.round() as i128);
    }

    /// ... and over the magnitudes the clock actually rounds, where the
    /// fractional part decides: random integers plus random fractions,
    /// half-way points included.
    #[test]
    fn rounding_helpers_match_std_near_halves(
        k in 0u64..1 << 54,
        frac in prop_oneof![Just(0.5), Just(0.0), 0.0f64..1.0],
        negate in any::<bool>(),
    ) {
        let x: f64 = k as f64 + frac;
        let x = if negate { -x } else { x };
        prop_assert_eq!(round_u64(x), x.round() as u64);
        prop_assert_eq!(round_i128(x), x.round() as i128);
    }
}

proptest! {
    /// Instant/duration arithmetic round-trips.
    #[test]
    fn time_add_then_sub_roundtrips(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(base);
        let d = SimDuration::from_nanos(delta);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
    }

    /// Duration addition is commutative and associative (absent overflow).
    #[test]
    fn duration_monoid(a in 0u64..1u64 << 60, b in 0u64..1u64 << 60, c in 0u64..1u64 << 60) {
        let (a, b, c) = (
            SimDuration::from_nanos(a >> 2),
            SimDuration::from_nanos(b >> 2),
            SimDuration::from_nanos(c >> 2),
        );
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + SimDuration::ZERO, a);
    }

    /// Popping the queue yields events in non-decreasing time order, and
    /// same-time events preserve insertion order.
    #[test]
    fn queue_pop_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated for same-time events");
                }
            }
            last = Some((t, i));
        }
    }

    /// Cancelled events never pop; exactly the survivors pop.
    #[test]
    fn queue_cancellation(
        times in proptest::collection::vec(0u64..100, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(SimTime::from_nanos(t), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
            } else {
                expected.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            popped.push(i);
        }
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    /// The engine's clock never moves backwards regardless of scheduling
    /// pattern, and processes exactly the scheduled number of events.
    #[test]
    fn engine_clock_monotone(delays in proptest::collection::vec(0u64..10_000, 1..100)) {
        struct Chain {
            remaining: Vec<u64>,
            observed: Vec<SimTime>,
        }
        impl World for Chain {
            type Event = ();
            fn handle(&mut self, sched: &mut Scheduler<()>, _: ()) {
                self.observed.push(sched.now());
                if let Some(d) = self.remaining.pop() {
                    sched.schedule_in(SimDuration::from_nanos(d), ());
                }
            }
        }
        let n = delays.len();
        let mut sim = Simulation::new(Chain { remaining: delays, observed: Vec::new() });
        sim.scheduler().schedule_at(SimTime::ZERO, ());
        sim.run();
        let observed = &sim.world().observed;
        prop_assert_eq!(observed.len(), n + 1);
        for w in observed.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    /// Forked RNG streams are reproducible.
    #[test]
    fn rng_fork_reproducible(seed in any::<u64>(), label in "[a-z]{1,8}") {
        let mut a = SimRng::new(seed).fork(&label);
        let mut b = SimRng::new(seed).fork(&label);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// uniform_u64 stays within bounds for arbitrary ranges.
    #[test]
    fn rng_uniform_u64_in_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut r = SimRng::new(seed);
        for _ in 0..64 {
            let v = r.uniform_u64(lo, lo + span);
            prop_assert!(v >= lo && v < lo + span);
        }
    }

    /// The queue agrees with a naive reference model under arbitrary
    /// interleavings of push, cancel, pop, `pop_until` and `contains`,
    /// including FIFO order among same-instant events, the horizon rule,
    /// `is_empty`/`len` bookkeeping, and ids that stay dead once their
    /// event was popped or cancelled.
    #[test]
    fn queue_matches_naive_model(ops in proptest::collection::vec((0u8..6, 0u64..16, 0u64..1 << 32), 1..300)) {
        // Model entry: (time, insertion seq, id). Kept unsorted; the model
        // "pops" by scanning for the (time, seq) minimum, which is the
        // contract the queue must match exactly. Payloads are the seq.
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64, EventId)> = Vec::new();
        let mut retired: Vec<EventId> = Vec::new();
        let mut next_seq = 0u64;
        for &(op, time, sel) in &ops {
            let earliest = model
                .iter()
                .enumerate()
                .min_by_key(|(_, &(t, s, _))| (t, s))
                .map(|(i, &(t, s, _))| (i, t, s));
            match op {
                // Push. Times are drawn from a tiny range so same-instant
                // collisions are common, exercising the FIFO tiebreak.
                0 | 1 => {
                    let id = q.push(SimTime::from_nanos(time), next_seq);
                    prop_assert!(q.contains(id));
                    model.push((time, next_seq, id));
                    next_seq += 1;
                }
                // Cancel a pseudo-random live event.
                2 => {
                    if !model.is_empty() {
                        let (_, _, id) = model.swap_remove(sel as usize % model.len());
                        prop_assert!(q.cancel(id), "live handle must cancel");
                        prop_assert!(!q.cancel(id), "double cancel must fail");
                        retired.push(id);
                    }
                }
                // Pop and compare against the model minimum.
                3 => match (q.pop(), earliest) {
                    (None, None) => {}
                    (Some((qt, qp)), Some((i, mt, ms))) => {
                        prop_assert_eq!((qt.as_nanos(), qp), (mt, ms));
                        retired.push(model.remove(i).2);
                    }
                    (got, want) => {
                        return Err(TestCaseError::fail(format!(
                            "pop mismatch: queue={got:?} model={want:?}"
                        )));
                    }
                },
                // Pop up to a horizon: an event at or before it pops, a
                // later one stays queued and its time is reported.
                4 => match (q.pop_until(SimTime::from_nanos(time)), earliest) {
                    (Err(None), None) => {}
                    (Ok((qt, qp)), Some((i, mt, ms))) if mt <= time => {
                        prop_assert_eq!((qt.as_nanos(), qp), (mt, ms));
                        retired.push(model.remove(i).2);
                    }
                    (Err(Some(qt)), Some((_, mt, _))) if mt > time => {
                        prop_assert_eq!(qt.as_nanos(), mt);
                    }
                    (got, want) => {
                        return Err(TestCaseError::fail(format!(
                            "pop_until({time}) mismatch: queue={got:?} model={want:?}"
                        )));
                    }
                },
                // A retired id is neither pending nor cancellable, however
                // many events were pushed after it.
                _ => {
                    if !retired.is_empty() {
                        let old = retired[sel as usize % retired.len()];
                        prop_assert!(!q.contains(old), "retired id {old} resurrected");
                        prop_assert!(!q.cancel(old), "retired id {old} cancelled an event");
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            for &(_, _, id) in &model {
                prop_assert!(q.contains(id), "live id {id} not pending");
            }
        }
        // Drain: remaining events come out in exact (time, seq) order.
        model.sort_unstable_by_key(|&(t, s, _)| (t, s));
        for &(t, s, _) in &model {
            let (qt, qp) = q.pop().expect("queue drained early");
            prop_assert_eq!((qt.as_nanos(), qp), (t, s));
        }
        prop_assert!(q.pop().is_none());
    }

    /// Once an event has been popped or cancelled, its `EventId` stays
    /// dead forever, no matter how many events are pushed after it.
    #[test]
    fn queue_retired_ids_stay_dead(ops in proptest::collection::vec((0u8..3, 0u64..8), 1..200)) {
        let mut q = EventQueue::new();
        let mut live: Vec<EventId> = Vec::new();
        let mut retired: Vec<EventId> = Vec::new();
        for (i, &(op, time)) in ops.iter().enumerate() {
            match op {
                0 => live.push(q.push(SimTime::from_nanos(time), i)),
                1 => {
                    if !live.is_empty() {
                        let id = live.swap_remove(time as usize % live.len());
                        prop_assert!(q.cancel(id));
                        retired.push(id);
                    }
                }
                _ => {
                    if q.pop().is_some() {
                        // Some live handle was popped; `contains` finds it
                        // without disturbing the survivors.
                        live.retain(|&id| {
                            let alive = q.contains(id);
                            if !alive {
                                retired.push(id);
                            }
                            alive
                        });
                    }
                }
            }
            // No retired handle may be visible or cancellable.
            for &old in &retired {
                prop_assert!(!q.contains(old), "retired id {old} resurrected");
            }
        }
        for old in retired {
            prop_assert!(!q.cancel(old), "retired id {old} cancelled a live event");
        }
    }
}
