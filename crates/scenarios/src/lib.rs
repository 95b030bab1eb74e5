//! # ecolb-scenarios
//!
//! Declarative scenario model and tournament harness for the `ecolb`
//! suite. A [`ScenarioSpec`] names one deterministic world — fleet
//! composition (heterogeneous Koomey classes), workload band, arrival
//! modulation (flash crowds, correlated diurnal waves), SLA mix and
//! spot/preemptible reclaims — and *compiles* to a
//! [`ServeConfig`](ecolb_serve::sim::ServeConfig) for the request-level
//! co-simulation. Nothing in a spec draws randomness at build time: all
//! stochastic structure is keyed off the run seed inside the simulators,
//! so a `(scenario, policy, seed)` cell replays byte-identically.
//!
//! The [`tournament`] module runs every policy of a roster through
//! every scenario of a [`catalog`](fn@catalog) and scores the cells on five
//! objectives — total energy, gold violation-seconds, bronze
//! violation-seconds, p99 latency and failed requests — reducing each
//! scenario to its Pareto-dominant policy set. The point of the frontier is that the
//! ranking is *scenario-dependent*: consolidation that wins the energy
//! axis on a steady heterogeneous fleet loses the SLA axes under a
//! flash crowd, and the frontier makes that trade visible instead of
//! averaging it away.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod spec;
pub mod tournament;

pub use catalog::catalog;
pub use spec::{FleetSpec, ResilienceSpec, ScenarioSpec, SlaSpec, SpotSpec};
pub use tournament::{dominates, pareto_front, policy_roster, run_cell, CellOutcome, PolicySpec};
