//! # ecolb-simcore
//!
//! Deterministic discrete-event simulation core for the `ecolb` suite — the
//! reproduction of *"Energy-aware Load Balancing Policies for the Cloud
//! Ecosystem"* (Paya & Marinescu, 2014).
//!
//! The crate provides the primitives every experiment builds on:
//!
//! * [`time`] — fixed-point simulated time ([`SimTime`], [`SimDuration`]);
//! * [`rng`]/[`dist`] — a self-contained, seedable xoshiro256++ generator
//!   and the distributions used by the workload models;
//! * [`event`]/[`engine`] — a deterministic pending-event set (a monotone
//!   radix queue, two 4 096-slot timing wheels in front of binary radix
//!   buckets, whose same-instant events fire in insertion order) and the
//!   run-loop, whose clock never runs backwards;
//! * [`par`] — order-preserving `std::thread` fan-out for experiment
//!   matrices (bit-identical at any thread count);
//! * [`proptest_lite`] — a shrink-free, seed-replayable property harness.
//!
//! Everything is seed-reproducible: the same seed produces bit-identical
//! results on every platform, which is what lets the benchmark harness pin
//! the paper's tables as regression tests.
//!
//! ```
//! use ecolb_simcore::prelude::*;
//!
//! let mut engine: Engine<u32> = Engine::new();
//! engine.schedule_at(SimTime::ZERO, 0);
//! let mut fired = 0u32;
//! let outcome = engine.run(&mut fired, |fired, sched, _ev| {
//!     *fired += 1;
//!     if *fired < 6 {
//!         sched.schedule_in(SimDuration::from_secs(1), *fired);
//!     }
//!     Control::Continue
//! });
//! assert_eq!(outcome, RunOutcome::Drained);
//! assert_eq!(fired, 6); // t = 0,1,2,3,4,5
//! assert_eq!(engine.now(), SimTime::from_secs(5));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod engine;
pub mod event;
pub mod par;
pub mod proptest_lite;
pub mod rng;
pub mod time;

/// One-stop imports for simulation authors.
pub mod prelude {
    pub use crate::dist::{Distribution, Normal, Pareto, Poisson, Zipf};
    pub use crate::engine::{Control, Engine, RunOutcome, Scheduler};
    pub use crate::event::EventQueue;
    pub use crate::rng::Rng;
    pub use crate::time::{SimDuration, SimTime};
}

pub use dist::Distribution;
pub use engine::{Control, Engine, RunOutcome, Scheduler};
pub use event::EventQueue;
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
