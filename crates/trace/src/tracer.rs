//! The sealed [`Tracer`] seam, its structural no-op implementation, and
//! the [`StateDigest`] record the seam hands to tracers that ask for one.
//!
//! Simulation code is generic over `T: Tracer` on hot paths (the engine
//! run loop monomorphizes the [`NoTrace`] case away entirely) and takes
//! `&mut dyn Tracer` on cold, once-per-interval paths. The trait is
//! sealed: the only implementations are [`NoTrace`] here and
//! [`RingTracer`](crate::RingTracer), so the "disabled tracing is a
//! structural no-op" guarantee cannot be eroded from outside the crate.

use crate::event::TraceEventKind;

mod sealed {
    /// Seals [`super::Tracer`]: only this crate can implement it.
    pub trait Sealed {}
    impl Sealed for super::NoTrace {}
    impl Sealed for crate::ring::RingTracer {}
    impl Sealed for crate::check::InvariantChecker {}
}

/// A span kind — a named region of simulated time whose duration is
/// aggregated per kind by the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One full engine run (`Engine::run*` entry to exit).
    Engine,
    /// One reallocation interval (`Cluster::run_interval*`).
    Interval,
    /// One leader balance round within an interval.
    Balance,
}

impl SpanKind {
    /// Stable snake_case label used in events and span aggregates.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Engine => "engine",
            SpanKind::Interval => "interval",
            SpanKind::Balance => "balance",
        }
    }
}

/// The tracing seam. All methods take the current simulated time in
/// ticks (microseconds) — implementations never consult a clock of
/// their own, wall or simulated.
pub trait Tracer: sealed::Sealed {
    /// Records one structured event at the given simulated instant.
    fn event(&mut self, at_ticks: u64, kind: TraceEventKind);

    /// Opens a span of the given kind.
    fn span_enter(&mut self, at_ticks: u64, span: SpanKind);

    /// Closes the most recently opened span of the given kind.
    fn span_exit(&mut self, at_ticks: u64, span: SpanKind);

    /// Adds `delta` to the named monotonic counter.
    fn counter(&mut self, name: &'static str, delta: u64);

    /// `true` if the tracer wants the engine to stop the run early
    /// (e.g. the invariant checker found a violation and further
    /// simulation would only bury the evidence). The engine polls this
    /// once per dispatched event; the default `false` lets the
    /// `NoTrace` path monomorphize the poll away entirely.
    fn abort_requested(&self) -> bool {
        false
    }

    /// `true` if the tracer wants a per-interval [`StateDigest`] through
    /// [`Tracer::digest`]. A digest walks every server and every hosted
    /// VM, so emission sites skip building one unless asked: untraced and
    /// ring-traced runs never pay for it.
    fn wants_digest(&self) -> bool {
        false
    }

    /// Receives the end-of-interval state digest at the given simulated
    /// instant. Digests are not events: they never enter an event log or
    /// a violation window. Called only when [`Tracer::wants_digest`]
    /// answers `true`; the default drops it.
    fn digest(&mut self, _at_ticks: u64, _digest: &StateDigest) {}
}

/// End-of-interval global state digest: the cluster's VM ledger, its
/// server power-state census and its leader view. The invariant checker
/// validates one per interval; see DESIGN.md "Invariant model".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StateDigest {
    /// 0-based interval index the digest closes.
    pub interval: u64,
    /// VMs currently hosted across all servers.
    pub hosted: u64,
    /// Application ids hosted on more than one server (must be 0).
    pub dup_hosted: u64,
    /// VMs waiting in the admission queue.
    pub queued: u64,
    /// VMs ever created (admission allocations).
    pub created: u64,
    /// VMs retired after completing their work.
    pub retired: u64,
    /// VMs destroyed by server crashes (later re-admitted as new ids).
    pub orphaned: u64,
    /// VMs imported from outside the cluster (federation placements).
    pub imported: u64,
    /// VMs exported out of the cluster (federation withdrawals).
    pub exported: u64,
    /// Servers awake (C0).
    pub awake: u32,
    /// Servers asleep or waking (C3/C6/booting).
    pub sleeping: u32,
    /// Servers crash-stopped.
    pub crashed: u32,
    /// Non-awake servers still hosting VMs (must be 0).
    pub sleeping_hosting: u32,
    /// Current leader host id.
    pub leader: u32,
    /// Whether the current leader host is crash-stopped.
    pub leader_crashed: bool,
    /// Leader election epoch.
    pub epoch: u64,
    /// Cumulative cluster energy drawn so far, joules.
    pub energy_j: f64,
    /// Cumulative energy drawn by volume-class servers, joules.
    pub energy_volume_j: f64,
    /// Cumulative energy drawn by mid-range-class servers, joules.
    pub energy_midrange_j: f64,
    /// Cumulative energy drawn by high-end-class servers, joules.
    pub energy_highend_j: f64,
    /// Cumulative migration transfer energy, joules (the remainder of
    /// `energy_j` after the three class totals).
    pub energy_migration_j: f64,
    /// Cumulative saturation (SLA) violation count.
    pub saturation: u64,
}

/// The disabled tracer: a zero-sized type whose inlined empty methods
/// compile to nothing. `Scheduler` defaults its tracer parameter to
/// this, so an untraced handler need not name a tracer and pays nothing
/// for the seam.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn event(&mut self, _at_ticks: u64, _kind: TraceEventKind) {}

    #[inline(always)]
    fn span_enter(&mut self, _at_ticks: u64, _span: SpanKind) {}

    #[inline(always)]
    fn span_exit(&mut self, _at_ticks: u64, _span: SpanKind) {}

    #[inline(always)]
    fn counter(&mut self, _name: &'static str, _delta: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trace_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoTrace>(), 0);
    }

    #[test]
    fn no_trace_absorbs_all_calls() {
        let mut t = NoTrace;
        t.event(0, TraceEventKind::EngineStarted);
        t.span_enter(0, SpanKind::Engine);
        t.span_exit(5, SpanKind::Engine);
        t.counter("engine.scheduled", 3);
        assert_eq!(t, NoTrace);
    }

    #[test]
    fn span_labels_are_distinct() {
        let labels = [
            SpanKind::Engine.label(),
            SpanKind::Interval.label(),
            SpanKind::Balance.label(),
        ];
        let unique: std::collections::BTreeSet<&str> = labels.iter().copied().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
