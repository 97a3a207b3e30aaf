//! The pending-event queue.
//!
//! One unordered `Vec` of live events, each keyed `time << 64 | seq`, where
//! `seq` counts every push over the queue's lifetime. Events pop in key
//! order, so events scheduled for the same instant pop in FIFO order — a
//! property several state machines in the simulator rely on (e.g.
//! "frequency applied" must be observed before a decode-completion check
//! scheduled afterwards at the same instant).
//!
//! Every operation is O(live): `pop` is a scan for the minimum key plus a
//! `swap_remove`, `cancel` and `contains` a scan for the seq. A session
//! holds at most one pending event per kind (nine kinds) plus its scripted
//! ambient steps — about three on average — so a scan over a few cache
//! lines beats any heap. A queue holding thousands of live events wants a
//! different structure.
//!
//! [`EventId`] is the event's `seq`. No two pushes share a seq, so an id
//! whose event already fired or was cancelled can never name a later one.

use std::fmt;

use crate::time::SimTime;

/// A handle identifying a scheduled event, usable for cancellation.
///
/// Ids are never reused: a stale id stays stale forever.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    /// The raw sequence number. Mostly useful for logging.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev#{}", self.0)
    }
}

/// A time-ordered queue of pending simulation events.
///
/// ```
/// use eavs_sim::queue::EventQueue;
/// use eavs_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// let a = q.push(SimTime::from_millis(5), "late");
/// let _b = q.push(SimTime::from_millis(1), "early");
/// q.cancel(a);
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(1), "early"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Live events keyed `time << 64 | seq`, in no particular order.
    live: Vec<(u128, E)>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            live: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `time`, returning its id.
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = (time.as_nanos() as u128) << 64 | seq as u128;
        self.live.push((key, event));
        EventId(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.position(id) {
            Some(i) => {
                self.live.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// `true` if `id` still names a pending (not fired, not cancelled)
    /// event.
    pub fn contains(&self, id: EventId) -> bool {
        self.position(id).is_some()
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX).ok()
    }

    /// Removes and returns the earliest pending event if it is due at or
    /// before `horizon`. Otherwise the queue is left as it was and the
    /// error holds the earliest pending time, or `None` if the queue is
    /// empty.
    pub fn pop_until(&mut self, horizon: SimTime) -> Result<(SimTime, E), Option<SimTime>> {
        let Some(i) = self.min_index() else {
            return Err(None);
        };
        let time = SimTime::from_nanos((self.live[i].0 >> 64) as u64);
        if time > horizon {
            return Err(Some(time));
        }
        Ok((time, self.live.swap_remove(i).1))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    fn min_index(&self) -> Option<usize> {
        let mut keys = self.live.iter().map(|&(key, _)| key).enumerate();
        let (mut best, mut min) = keys.next()?;
        for (i, key) in keys {
            if key < min {
                best = i;
                min = key;
            }
        }
        Some(best)
    }

    fn position(&self, id: EventId) -> Option<usize> {
        self.live.iter().position(|&(key, _)| key as u64 == id.0)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.live.len())
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 'c');
        q.push(t(10), 'a');
        q.push(t(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_pending() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        let b = q.push(t(2), 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel must report false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), 'b')));
        assert!(!q.cancel(b), "cancel after pop must report false");
    }

    #[test]
    fn pop_until_reports_the_earliest_uncancelled_time() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        q.push(t(2), 'b');
        q.cancel(a);
        assert_eq!(q.pop_until(t(1)), Err(Some(t(2))));
    }

    #[test]
    fn pop_until_dispatches_at_horizon_and_keeps_later_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop_until(t(5)), Err(None));
        q.push(t(5), 'a');
        q.push(t(6), 'b');
        assert_eq!(q.pop_until(t(5)), Ok((t(5), 'a')));
        assert_eq!(q.pop_until(t(5)), Err(Some(t(6))));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_until(t(6)), Ok((t(6), 'b')));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        let id = q.push(t(1), ());
        assert_eq!(q.len(), 1);
        q.cancel(id);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_cancel() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..50u64 {
            ids.push(q.push(t(i % 7), i));
        }
        for id in ids.iter().step_by(3) {
            q.cancel(*id);
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0;
        while let Some((time, v)) = q.pop() {
            assert!(time >= last);
            last = time;
            assert!(v % 3 != 0, "cancelled event {v} popped");
            seen += 1;
        }
        assert_eq!(seen, 50 - ids.iter().step_by(3).count());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut q = EventQueue::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0..100u64 {
            let id = q.push(t(i % 3), i);
            assert!(seen.insert(id), "id {id} handed out twice");
            match i % 3 {
                0 => assert!(q.cancel(id)),
                1 => assert!(q.pop().is_some()),
                _ => {}
            }
        }
    }

    #[test]
    fn cancelled_id_cannot_cancel_a_later_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "old");
        assert!(q.cancel(a));
        let b = q.push(t(1), "new");
        assert_ne!(a, b);
        assert!(!q.cancel(a), "stale id cancelled a later event");
        assert!(!q.contains(a));
        assert_eq!(q.pop(), Some((t(1), "new")));
    }

    #[test]
    fn popped_id_cannot_cancel_a_later_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1u32);
        assert_eq!(q.pop(), Some((t(1), 1)));
        let b = q.push(t(2), 2u32);
        assert!(!q.cancel(a), "id of a popped event cancelled its successor");
        assert!(q.contains(b));
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn memory_follows_peak_live_count() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            let ids: Vec<_> = (0..8).map(|i| q.push(t(round * 10 + i), i)).collect();
            for id in ids {
                q.cancel(id);
            }
        }
        // 80 events total but never more than 8 alive at once.
        let capacity = q.live.capacity();
        assert!(capacity <= 8, "grew to {capacity} entries");
        assert!(q.is_empty());
    }
}
