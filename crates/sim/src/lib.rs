//! # eavs-sim — deterministic discrete-event simulation kernel
//!
//! The simulation substrate underneath the EAVS reproduction of
//! *Energy-Aware CPU Frequency Scaling for Mobile Video Streaming*
//! (ICDCS 2017). All higher layers — the CPU/DVFS model, video pipeline,
//! network and governors — are passive state machines advanced by a single
//! event loop built from these pieces:
//!
//! * [`time`] — integer-nanosecond [`time::SimTime`] /
//!   [`time::SimDuration`] clock types.
//! * [`queue`] — a live-list event queue with stable FIFO ordering for
//!   same-instant events; O(live) per operation.
//! * [`engine`] — the [`engine::Simulation`] loop driving a
//!   user [`engine::World`].
//! * [`rng`] — seedable, forkable deterministic randomness with the
//!   distributions used by the workload generators.
//! * [`fingerprint`] — stable 128-bit content fingerprints used as
//!   memoization keys.
//!
//! Determinism is a design requirement: given the same seed and
//! configuration, every experiment in the repository reproduces
//! bit-identically.
//!
//! ## Example
//!
//! ```
//! use eavs_sim::prelude::*;
//!
//! struct Pinger { count: u32 }
//! impl World for Pinger {
//!     type Event = ();
//!     fn handle(&mut self, sched: &mut Scheduler<()>, _: ()) {
//!         self.count += 1;
//!         if self.count < 3 {
//!             sched.schedule_in(SimDuration::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Pinger { count: 0 });
//! sim.scheduler().schedule_at(SimTime::ZERO, ());
//! sim.run();
//! assert_eq!(sim.world().count, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fingerprint;
pub mod queue;
pub mod rng;
pub mod time;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::engine::{RunOutcome, Scheduler, Simulation, StepOutcome, World};
    pub use crate::fingerprint::{Fingerprint, Fingerprinter};
    pub use crate::queue::{EventId, EventQueue};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime};
}

pub use engine::{RunOutcome, Scheduler, Simulation, StepOutcome, World};
pub use fingerprint::{Fingerprint, Fingerprinter};
pub use queue::{EventId, EventQueue};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
