//! # ecolb-trace
//!
//! Deterministic, sim-time-stamped structured tracing for the `ecolb`
//! simulator — the observability layer behind every "which decision
//! produced this number?" question the end-of-run aggregates cannot
//! answer.
//!
//! Three primitives, all timestamped in **simulated microseconds** (never
//! wall clock — the workspace `no-wallclock` lint applies to this crate
//! like any other):
//!
//! * **events** — a bounded ring-buffer log of [`TraceEvent`]s drawn from
//!   a closed taxonomy ([`TraceEventKind`]): engine dispatch outcomes,
//!   regime samples, scaling decisions, migrations, sleep/wake
//!   transitions, leader liveness, and fault injections;
//! * **spans** — enter/exit pairs ([`SpanKind`]) whose simulated duration
//!   is aggregated per kind;
//! * **monotonic counters** — cheap named tallies for the hot paths where
//!   one event per occurrence would be noise (engine scheduling ops,
//!   report deliveries).
//!
//! The seam is the sealed [`Tracer`] trait. Simulation code is generic
//! over it (or takes `&mut dyn Tracer` on cold paths); the default
//! [`NoTrace`] implementation is a zero-sized type whose inlined empty
//! methods compile to nothing, so the untraced path is *structurally*
//! identical to the pre-trace code — reports stay byte-identical, which
//! the workspace golden-trace and determinism suites assert.
//!
//! Everything a [`RingTracer`] collects renders deterministically:
//! [`TraceSnapshot`] serializes through `ecolb_metrics::json` (sorted
//! counter keys, integer microsecond timestamps, stable sequence
//! numbers), so a seed fully determines the trace bytes at any thread
//! count.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod event;
pub mod ring;
pub mod timeline;
pub mod tracer;

pub use check::{InvariantChecker, Violation, CLUSTER_WIDE, HEARTBEAT_TIMEOUT_INTERVALS};
pub use event::{TraceEvent, TraceEventKind};
pub use ring::{RingTracer, SpanStat, TraceSnapshot};
pub use timeline::{DecisionLedgerView, RegimeTimeline};
pub use tracer::{NoTrace, SpanKind, Tracer};

/// Simulated-time ticks per second — must agree with
/// `ecolb_simcore::time::TICKS_PER_SECOND` (asserted by a simcore test;
/// duplicated here so the tracer does not depend on the engine crate it
/// instruments).
pub const TICKS_PER_SECOND: u64 = 1_000_000;
