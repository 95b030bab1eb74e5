//! Chaos testing for the ecolb cluster: randomized fault-plan fuzzing, a
//! runtime invariant checker, and minimal-reproducer shrinking.
//!
//! The crate closes the loop the deterministic fault layer
//! ([`ecolb_faults`]) opened. That layer can replay *one* scripted
//! failure schedule bit-for-bit; this one asks the adversarial question —
//! *across thousands of schedules, does the cluster ever reach a state
//! the paper's model forbids?* Three pieces answer it:
//!
//! * **[`gen`]** — the fault-plan fuzzer. [`gen::generate_plan`] expands a
//!   `(seed, plan index, scenario)` triple into a [`FaultPlan`]: crash
//!   bursts (crash-stop and crash-recover), leader-targeted crashes,
//!   correlated link loss/delay and wake failures, all scaled by a single
//!   `intensity` knob. Every draw comes from the keyed RNG-stream
//!   discipline, so a failing schedule replays exactly from its triple.
//! * **Invariant checking** — [`InvariantChecker`] (re-exported from
//!   [`ecolb_trace`]) rides the sealed `Tracer` seam and validates every
//!   reallocation interval: VM conservation, leader uniqueness,
//!   sleep/wake state-machine legality, monotone energy/SLA accounting
//!   and monotone simulated time. It costs nothing when absent.
//! * **[`shrink`](mod@shrink)** — the delta-debugging shrinker. Given a violating
//!   plan it drops fault events, zeroes stochastic families, shortens the
//!   horizon and halves the cluster until the reproducer is minimal;
//!   [`artifact`] serialises the result as a deterministic JSON document
//!   that replays from the embedded seed.
//!
//! [`harness::sweep`] ties the pieces into the CI entry point: a bounded
//! multi-seed sweep over the intensity grid that must find zero
//! violations on a healthy tree. [`serve_axis`] points the same fuzzer
//! at the request-level co-simulation, where the checker additionally
//! validates the resilience invariants (`retry_budget`,
//! `breaker_routing`, `shed_accounting`) against real retries, breaker
//! trips and sheds.
//!
//! [`FaultPlan`]: ecolb_faults::plan::FaultPlan

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod gen;
pub mod harness;
pub mod serve_axis;
pub mod shrink;

pub use artifact::ReproArtifact;
pub use ecolb_trace::{InvariantChecker, Violation, CLUSTER_WIDE};
pub use gen::{generate_plan, intensity_grid, ChaosScenario, FleetKind};
pub use harness::{run_plan, sweep, ChaosOutcome, SweepSummary};
pub use serve_axis::{run_serve_plan, serve_chaos_config, serve_sweep, ServeChaosOutcome};
pub use shrink::{shrink, ShrinkOutcome};
