//! # ecolb-serve
//!
//! The request-level serving seam: the paper's energy-aware cluster
//! behind a sans-io `Discover`/`LoadBalance` front end.
//!
//! The §4 protocol decides *migrations and sleeps*; what a user of the
//! cloud sees is *request latency*. This crate closes that gap with
//! five pieces, shaped like the loadbalance module of a production RPC
//! stack but fully deterministic and I/O-free:
//!
//! * [`discover`] — [`Discover`]: the live instance
//!   set as canonical snapshots plus [`Change`]
//!   notifications diffed from cluster events (wake/sleep/crash/
//!   migration);
//! * [`picker`] — [`Picker`]: deterministic routing
//!   strategies — round-robin, least-loaded, power-of-two-choices
//!   (keyed per request id) and the paper-native
//!   [`RegimeAware`] router;
//! * [`queue`] — per-instance FIFO service queues in integer tick
//!   arithmetic;
//! * [`resilience`] — the request-level resilience layer: SLA-class
//!   deadlines, budgeted retries with keyed backoff jitter, gold-class
//!   hedging, per-instance circuit breakers and bronze-first load
//!   shedding ([`ResiliencePolicy`]).
//!   Each mechanism is an `Option`, off when `None`; `disabled()`
//!   (all `None`) is a structural no-op;
//! * [`sim`] — [`ServeSim`]: one engine co-simulating
//!   open-loop request traffic with the reallocation protocol, so
//!   energy decisions and routing decisions interact and a picker
//!   comparison yields an energy-vs-p99 frontier (EXPERIMENTS.md "RQ").
//!   Each server keeps a FIFO ledger of its queued attempts and a crash
//!   epoch, so a completion event names only the server and the epoch
//!   it was queued in.
//!
//! Everything is a pure function of `(config, seed)`: replaying a run
//! byte-identically reproduces its [`ServeReport`].
//! A future live backend replaces the discovery source and the clock —
//! the pickers, queues and reports are backend-agnostic.
//!
//! ```
//! use ecolb_cluster::cluster::ClusterConfig;
//! use ecolb_serve::picker::PickerKind;
//! use ecolb_serve::sim::{ServeConfig, ServeSim};
//! use ecolb_workload::generator::WorkloadSpec;
//!
//! let cluster = ClusterConfig::paper(20, WorkloadSpec::paper_low_load());
//! let config = ServeConfig::paper(cluster, PickerKind::RegimeAware, 3);
//! let report = ServeSim::new(config, 7).run();
//! assert_eq!(report.picker, "regime_aware");
//! assert_eq!(
//!     report.requests_admitted,
//!     report.requests_completed + report.requests_rejected
//! );
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod discover;
mod handoff;
pub mod picker;
pub mod queue;
pub mod resilience;
pub mod sim;

pub use discover::{diff_into, Change, ClusterDiscover, Discover, InstanceSet};
pub use picker::{LeastLoaded, Picker, PickerKind, PowerOfTwo, RegimeAware, RoundRobin};
pub use queue::{QueueModel, QueueView};
pub use resilience::{
    BackoffSchedule, BreakerBank, BreakerPolicy, HedgePolicy, ResiliencePolicy, RetryBudget,
    RetryBudgetSpec, RetryPolicy, ShedPolicy,
};
pub use sim::{regime_energy_multiplier, ServeConfig, ServeEvent, ServeReport, ServeSim};

/// A process-wide unique identity for one state of an [`InstanceSet`] or
/// a [`QueueModel`], keying the pickers' horizon index. Stamps are only
/// ever compared for equality and never reach a report, so the thread
/// interleaving that orders them cannot leak into any output; `Relaxed`
/// suffices because a stamp publishes no data.
pub(crate) fn next_stamp() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}
