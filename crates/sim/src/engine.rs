//! The discrete-event simulation engine.
//!
//! A simulation couples a user-defined *world* (all mutable model state)
//! with an [`EventQueue`]. The world implements [`World`] and receives each
//! popped event together with a [`Scheduler`] through which it can schedule
//! or cancel further events and request that the run stop.
//!
//! ```
//! use eavs_sim::engine::{Simulation, Scheduler, World};
//! use eavs_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick }
//!
//! struct Counter { ticks: u32 }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, sched: &mut Scheduler<Ev>, _ev: Ev) {
//!         self.ticks += 1;
//!         if self.ticks < 5 {
//!             sched.schedule_in(SimDuration::from_millis(10), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { ticks: 0 });
//! sim.scheduler().schedule_at(SimTime::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.world().ticks, 5);
//! assert_eq!(sim.now(), SimTime::from_millis(40));
//! ```

use std::fmt;

use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// Model state driven by the simulation loop.
pub trait World {
    /// The event type the world exchanges with the scheduler.
    type Event;

    /// Handles one event at the scheduler's current time.
    fn handle(&mut self, sched: &mut Scheduler<Self::Event>, event: Self::Event);
}

/// A pre-dispatch observer: invoked with each popped event immediately
/// before the world's handler runs, at the event's own timestamp.
///
/// Taps observe; they get no scheduler access and cannot influence the
/// run. Attaching or removing a tap must never change simulation
/// outcomes — this is the engine-level hook the observability layer
/// (`eavs-obs`) hangs session timelines on.
pub type DispatchTap<E> = Box<dyn FnMut(SimTime, &E) + Send>;

/// The clock plus pending-event queue, handed to event handlers.
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
    stop_requested: bool,
    processed: u64,
    tap: Option<DispatchTap<E>>,
}

impl<E: fmt::Debug> fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("queue", &self.queue)
            .field("stop_requested", &self.stop_requested)
            .field("processed", &self.processed)
            .field("tap", &self.tap.as_ref().map(|_| "FnMut(..)"))
            .finish()
    }
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            stop_requested: false,
            processed: 0,
            tap: None,
        }
    }

    /// Installs a dispatch tap, replacing any existing one.
    pub fn set_tap(&mut self, tap: DispatchTap<E>) {
        self.tap = Some(tap);
    }

    /// Removes the dispatch tap, returning it if one was installed.
    pub fn clear_tap(&mut self) -> Option<DispatchTap<E>> {
        self.tap.take()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, event)
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.push(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `false` if it already fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Requests that the run loop return after the current handler.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }

    /// Number of events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Time of the next pending event.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Whether a handler has requested the run loop stop. Cleared at the
    /// start of every [`Simulation::run_until`] call; incremental drivers
    /// built on [`Simulation::step_until`] observe it through the
    /// [`StepOutcome`] instead.
    pub fn stop_requested(&self) -> bool {
        self.stop_requested
    }
}

/// Outcome of a [`Simulation::run_until`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    QueueEmpty,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// A handler called [`Scheduler::stop`].
    Stopped,
}

/// Outcome of a single [`Simulation::step_until`] call.
///
/// `Progressed` means exactly one event was handled and the run may
/// continue; the three terminal variants mirror [`RunOutcome`] so
/// `run_until` is precisely a loop over `step_until`. External drivers
/// (the session step kernel) advance a simulation one event per call and
/// stop on its first terminal outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// One event was handled; more work may remain.
    Progressed,
    /// The event queue drained before the horizon.
    QueueEmpty,
    /// The next event lies past the horizon; the clock was advanced to it.
    HorizonReached,
    /// The handler of the event just dispatched called [`Scheduler::stop`].
    Stopped,
}

impl StepOutcome {
    /// Folds a terminal step outcome into the equivalent run outcome.
    ///
    /// # Panics
    ///
    /// Panics on [`StepOutcome::Progressed`], which is not terminal.
    pub fn into_run_outcome(self) -> RunOutcome {
        match self {
            StepOutcome::Progressed => panic!("Progressed is not a terminal outcome"),
            StepOutcome::QueueEmpty => RunOutcome::QueueEmpty,
            StepOutcome::HorizonReached => RunOutcome::HorizonReached,
            StepOutcome::Stopped => RunOutcome::Stopped,
        }
    }
}

/// A discrete-event simulation: a [`World`] plus its [`Scheduler`].
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero with an empty queue.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// The scheduler, for seeding initial events or inspecting the queue.
    pub fn scheduler(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.sched
    }

    /// Handles a single event if one is pending. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        match self.sched.queue.pop() {
            Some((time, event)) => {
                debug_assert!(time >= self.sched.now, "event queue went backwards");
                self.sched.now = time;
                self.sched.processed += 1;
                if let Some(tap) = self.sched.tap.as_mut() {
                    tap(time, &event);
                }
                self.world.handle(&mut self.sched, event);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue is empty or a handler calls stop.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs until `horizon` (inclusive of events *at* the horizon), the
    /// queue drains, or a handler calls stop. The clock is advanced to
    /// `horizon` when it is reached with no earlier events, so that
    /// time-integrated accounting can use `now()` afterwards.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.sched.stop_requested = false;
        loop {
            match self.step_until(horizon) {
                StepOutcome::Progressed => {}
                terminal => return terminal.into_run_outcome(),
            }
        }
    }

    /// Advances the simulation by at most one event, honouring `horizon`
    /// exactly as [`Simulation::run_until`] does: an event *at* the
    /// horizon is dispatched, the first event *past* it advances the
    /// clock to the horizon and terminates. Unlike `run_until`, a prior
    /// stop request is not cleared — callers that resume after
    /// [`StepOutcome::Stopped`] reset it via [`Scheduler::stop`]'s
    /// counterpart semantics in `run_until`, or simply treat the lane as
    /// retired (the session kernel does the latter).
    pub fn step_until(&mut self, horizon: SimTime) -> StepOutcome {
        match self.sched.queue.peek_time() {
            None => StepOutcome::QueueEmpty,
            Some(t) if t > horizon => {
                self.sched.now = horizon.max(self.sched.now);
                StepOutcome::HorizonReached
            }
            Some(_) => {
                self.step();
                if self.sched.stop_requested {
                    StepOutcome::Stopped
                } else {
                    StepOutcome::Progressed
                }
            }
        }
    }

    /// Runs for `span` of simulated time past the current clock.
    pub fn run_for(&mut self, span: SimDuration) -> RunOutcome {
        let horizon = self.sched.now + span;
        self.run_until(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ev {
        Tick,
        Boom,
    }

    struct Recorder {
        log: Vec<(SimTime, Ev)>,
        cancel_target: Option<EventId>,
        stop_after: Option<usize>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                log: Vec::new(),
                cancel_target: None,
                stop_after: None,
            }
        }
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
            self.log.push((sched.now(), ev));
            if let Some(id) = self.cancel_target.take() {
                sched.cancel(id);
            }
            if let Some(n) = self.stop_after {
                if self.log.len() >= n {
                    sched.stop();
                }
            }
        }
    }

    #[test]
    fn runs_events_in_order_and_advances_clock() {
        let mut sim = Simulation::new(Recorder::new());
        sim.scheduler()
            .schedule_at(SimTime::from_millis(20), Ev::Boom);
        sim.scheduler()
            .schedule_at(SimTime::from_millis(10), Ev::Tick);
        assert_eq!(sim.run(), RunOutcome::QueueEmpty);
        assert_eq!(
            sim.world().log,
            vec![
                (SimTime::from_millis(10), Ev::Tick),
                (SimTime::from_millis(20), Ev::Boom)
            ]
        );
        assert_eq!(sim.now(), SimTime::from_millis(20));
    }

    #[test]
    fn run_until_respects_horizon_and_advances_clock_to_it() {
        let mut sim = Simulation::new(Recorder::new());
        sim.scheduler().schedule_at(SimTime::from_secs(1), Ev::Tick);
        sim.scheduler().schedule_at(SimTime::from_secs(5), Ev::Boom);
        let out = sim.run_until(SimTime::from_secs(2));
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(sim.world().log.len(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        // The remaining event still fires on a later run.
        assert_eq!(sim.run(), RunOutcome::QueueEmpty);
        assert_eq!(sim.world().log.len(), 2);
    }

    #[test]
    fn events_at_horizon_inclusive() {
        let mut sim = Simulation::new(Recorder::new());
        sim.scheduler().schedule_at(SimTime::from_secs(2), Ev::Tick);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.world().log.len(), 1);
    }

    #[test]
    fn stop_requested_mid_run() {
        let mut sim = Simulation::new(Recorder::new());
        sim.world_mut().stop_after = Some(2);
        for i in 1..=5 {
            sim.scheduler().schedule_at(SimTime::from_secs(i), Ev::Tick);
        }
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(sim.world().log.len(), 2);
        assert_eq!(sim.scheduler().pending(), 3);
    }

    #[test]
    fn handler_can_cancel_future_event() {
        let mut sim = Simulation::new(Recorder::new());
        sim.scheduler().schedule_at(SimTime::from_secs(1), Ev::Tick);
        let doomed = sim.scheduler().schedule_at(SimTime::from_secs(2), Ev::Boom);
        sim.world_mut().cancel_target = Some(doomed);
        sim.run();
        assert_eq!(sim.world().log, vec![(SimTime::from_secs(1), Ev::Tick)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, sched: &mut Scheduler<()>, _: ()) {
                sched.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.scheduler().schedule_at(SimTime::from_secs(1), ());
        sim.run();
    }

    #[test]
    fn run_for_is_relative() {
        let mut sim = Simulation::new(Recorder::new());
        sim.scheduler().schedule_at(SimTime::from_secs(1), Ev::Tick);
        sim.scheduler().schedule_at(SimTime::from_secs(3), Ev::Tick);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.now(), SimTime::from_secs(2));
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.world().log.len(), 2);
    }

    #[test]
    fn tap_sees_every_dispatch_before_the_handler() {
        use std::sync::{Arc, Mutex};
        let mut sim = Simulation::new(Recorder::new());
        let seen: Arc<Mutex<Vec<(SimTime, Ev)>>> = Arc::new(Mutex::new(Vec::new()));
        let tap_log = Arc::clone(&seen);
        sim.scheduler().set_tap(Box::new(move |at, ev: &Ev| {
            tap_log.lock().unwrap().push((at, *ev));
        }));
        sim.scheduler().schedule_at(SimTime::from_secs(2), Ev::Boom);
        sim.scheduler().schedule_at(SimTime::from_secs(1), Ev::Tick);
        sim.run();
        let tapped = seen.lock().unwrap().clone();
        // The tap saw the same ordered stream the world handled.
        assert_eq!(tapped, sim.world().log);
        assert_eq!(tapped.len(), 2);
        // Removing the tap returns it and stops observation.
        assert!(sim.scheduler().clear_tap().is_some());
        sim.scheduler().schedule_at(SimTime::from_secs(3), Ev::Tick);
        sim.run();
        assert_eq!(seen.lock().unwrap().len(), 2);
        assert_eq!(sim.world().log.len(), 3);
    }

    #[test]
    fn step_until_matches_run_until_event_for_event() {
        let mut stepped = Simulation::new(Recorder::new());
        let mut ran = Simulation::new(Recorder::new());
        for sim in [&mut stepped, &mut ran] {
            sim.scheduler().schedule_at(SimTime::from_secs(1), Ev::Tick);
            sim.scheduler().schedule_at(SimTime::from_secs(2), Ev::Boom);
            sim.scheduler().schedule_at(SimTime::from_secs(5), Ev::Tick);
        }
        let horizon = SimTime::from_secs(3);
        let run = ran.run_until(horizon);
        let mut last = StepOutcome::Progressed;
        while last == StepOutcome::Progressed {
            last = stepped.step_until(horizon);
        }
        assert_eq!(last.into_run_outcome(), run);
        assert_eq!(stepped.world().log, ran.world().log);
        assert_eq!(stepped.now(), ran.now());
        assert_eq!(
            stepped.scheduler().events_processed(),
            ran.scheduler().events_processed()
        );
    }

    #[test]
    fn step_until_reports_stop_and_queue_empty() {
        let mut sim = Simulation::new(Recorder::new());
        sim.world_mut().stop_after = Some(1);
        sim.scheduler().schedule_at(SimTime::from_secs(1), Ev::Tick);
        sim.scheduler().schedule_at(SimTime::from_secs(2), Ev::Tick);
        assert_eq!(sim.step_until(SimTime::MAX), StepOutcome::Stopped);
        assert!(sim.scheduler().stop_requested());
        // A drained queue reports QueueEmpty without advancing the clock.
        let mut empty = Simulation::new(Recorder::new());
        assert_eq!(
            empty.step_until(SimTime::from_secs(9)),
            StepOutcome::QueueEmpty
        );
        assert_eq!(empty.now(), SimTime::ZERO);
    }

    #[test]
    fn events_processed_counter() {
        let mut sim = Simulation::new(Recorder::new());
        for i in 0..10 {
            sim.scheduler()
                .schedule_at(SimTime::from_millis(i), Ev::Tick);
        }
        sim.run();
        assert_eq!(sim.scheduler().events_processed(), 10);
    }
}
