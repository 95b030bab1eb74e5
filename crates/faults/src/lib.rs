//! # ecolb-faults
//!
//! Deterministic fault injection and failure-recovery experiments for the
//! ecolb reproduction of *"Energy-aware Load Balancing Policies for the
//! Cloud Ecosystem"* (Paya & Marinescu, 2014).
//!
//! The paper's cluster is leader-mediated: one server brokers every
//! consolidation decision over a star topology. That makes the obvious
//! systems question — *what happens when machines and links fail* — a
//! first-class experiment, and this crate supplies the harness:
//!
//! * [`plan`] — [`FaultPlan`]: a pure, seedable description of server
//!   crashes (crash-stop and crash-recover), leader failure, per-link
//!   message loss/delay and wake-transition failures. Every stochastic
//!   draw comes from an RNG stream keyed by `(seed, fault kind, server)`,
//!   so plans replay byte-identically and never perturb the workload.
//! * [`inject`] — [`FaultInjector`]: evaluates the plan at the cluster's
//!   `FaultHooks` seam (report loss, wake failures, and the wire delay the
//!   timed loop applies through the engine's interceptor).
//! * [`sim`] — [`FaultyClusterSim`]: an adapter that runs the plan on the
//!   timed cluster simulation's one event loop (`TimedClusterSim::run_with`);
//!   drives heartbeat-timeout failover, directory rebuild and orphan
//!   re-admission in `ecolb-cluster`.
//! * [`report`] — [`FaultyRunReport`], [`FaultImpact`] and the
//!   [`CompareWithFaulty`] seam for faulty-vs-fault-free diffs.
//!
//! An **empty plan is a no-op**: the run is byte-identical to the plain
//! timed simulation (the workspace determinism suite pins this at 1, 2
//! and 8 threads).
//!
//! Crash the leader mid-run and watch the protocol recover:
//!
//! ```
//! use ecolb_cluster::cluster::ClusterConfig;
//! use ecolb_faults::{FaultPlan, FaultyClusterSim};
//! use ecolb_simcore::time::SimTime;
//! use ecolb_workload::generator::WorkloadSpec;
//!
//! let config = ClusterConfig::paper(40, WorkloadSpec::paper_low_load());
//! let plan = FaultPlan::empty(7).with_leader_crash(SimTime::from_secs(900), None);
//! let report = FaultyClusterSim::new(config, 42, 10, plan).run();
//!
//! // The heartbeat timeout detected the dead leader and elected the
//! // lowest-id live server; the crashed host costs availability.
//! assert!(report.recovery.failovers >= 1);
//! assert!(report.leader_epoch >= 1);
//! assert!(report.degradation.availability < 1.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod inject;
pub mod plan;
pub mod report;
pub mod sim;

pub use inject::{FaultInjector, InjectionStats};
pub use plan::{fault_stream, FaultEvent, FaultEventKind, FaultKind, FaultPlan};
pub use report::{CompareWithFaulty, FaultImpact, FaultyRunReport};
pub use sim::FaultyClusterSim;
