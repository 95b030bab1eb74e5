//! The runtime invariant checker: a third sealed [`Tracer`] that
//! validates global protocol invariants from the event stream.
//!
//! The checker consumes the same events a [`RingTracer`] would record
//! (and keeps the trailing few in one, as violation context), plus the
//! per-interval [`StateDigest`] it requests via [`Tracer::wants_digest`]
//! and receives through [`Tracer::digest`]. It never touches cluster
//! internals — everything it knows arrives through the trace seam, so
//! "checker attached" and "checker absent" runs are structurally
//! identical apart from digest emission.
//!
//! Checked invariants (see DESIGN.md "Invariant model" for the paper
//! justification of each):
//!
//! * `vm_conservation` — `created + imported == hosted + retired +
//!   orphaned + exported`, and no application id hosted on two servers.
//! * `sleep_wake_fsm` — per-server power-state machine legality: no
//!   migration touches a non-C0 server, no sleeping (C3/C6) server
//!   hosts VMs, sleep/wake/crash/recover transitions follow the
//!   protocol's state machine.
//! * `leader_uniqueness` — one leader at a time; the leader changes
//!   only through a `Failover` event and the election epoch advances by
//!   exactly one per failover.
//! * `leader_liveness` — a cluster with at least one non-crashed server
//!   is not leaderless for more than [`HEARTBEAT_TIMEOUT_INTERVALS`].
//! * `energy_accounting` — cumulative energy is finite, non-negative
//!   and monotone non-decreasing.
//! * `sla_accounting` — the saturation-violation count is monotone.
//! * `time_monotone` — digest timestamps strictly increase, interval
//!   indices are gap-free, and no event is stamped before the digest
//!   that precedes it.
//! * `server_census` — every digest accounts for exactly the configured
//!   number of servers.
//! * `retry_budget` — retry attempts per request are gap-free ordinals
//!   (1, 2, 3, …) and no retry is issued after the request settled
//!   (completed or rejected): a budget can deny a retry but can never
//!   mint one out of order or resurrect a finished request.
//! * `breaker_routing` — no request is routed (or hedged) to a server
//!   whose circuit breaker is open, and per-server open/close events
//!   strictly alternate.
//! * `shed_accounting` — every `request_shed` is balanced by a
//!   `request_reject` for the same request before the interval closes,
//!   and a shed request never routes or completes afterwards.
//!
//! On the first violation the checker (by default) raises
//! [`Tracer::abort_requested`], which the engine polls once per
//! dispatched event — the run stops before further simulation can bury
//! the evidence. Each recorded [`Violation`] carries the sim-time, the
//! implicated server and the window of trace events leading up to it
//! (events only: digests never enter the window).

use std::collections::{BTreeMap, BTreeSet};

use ecolb_metrics::json::{ObjectWriter, ToJson};

use crate::event::{TraceEvent, TraceEventKind};
use crate::ring::RingTracer;
use crate::tracer::{SpanKind, StateDigest, Tracer};

/// Server id used in violations that implicate the whole cluster
/// rather than one server.
pub const CLUSTER_WIDE: u32 = u32::MAX;

/// Consecutive reallocation intervals without a leader heartbeat before
/// the survivors elect a successor. The cluster's failover fires on it,
/// and `leader_liveness` allows a live cluster that many leaderless
/// intervals.
pub const HEARTBEAT_TIMEOUT_INTERVALS: u32 = 2;

/// Default number of trailing events kept as violation context.
const DEFAULT_WINDOW: usize = 16;

/// Default cap on fully-recorded violations (further ones are counted
/// but carry no event window).
const DEFAULT_MAX_VIOLATIONS: usize = 64;

/// Per-server power/liveness state as reconstructed from the event
/// stream. Servers start [`PowerState::Awake`] (C0), matching
/// `Cluster::new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PowerState {
    Awake,
    Asleep,
    Waking,
    Crashed,
}

/// One detected invariant violation with its evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Simulated instant of the violating event, microseconds.
    pub at_us: u64,
    /// Stable invariant identifier (`"vm_conservation"`, …).
    pub invariant: &'static str,
    /// Implicated server, or [`CLUSTER_WIDE`].
    pub server: u32,
    /// Human-readable one-liner with the offending values.
    pub detail: String,
    /// The trace events leading up to (and including) the trigger.
    pub window: Vec<TraceEvent>,
}

impl ToJson for Violation {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("at_us", &self.at_us)
            .field("invariant", &self.invariant)
            .field("server", &self.server)
            .field("detail", &self.detail)
            .field("window", &self.window)
            .finish();
    }
}

/// The invariant checker. Construct with the cluster's server count,
/// attach as the tracer of a traced run, then inspect
/// [`InvariantChecker::ok`] and [`InvariantChecker::first_violation`].
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    total_servers: u32,
    abort_on_violation: bool,
    max_violations: usize,
    /// The trailing events kept as violation context.
    window: RingTracer,
    states: Vec<PowerState>,
    leader: Option<u32>,
    epoch: Option<u64>,
    /// Failover targets seen since the last digest.
    failovers_since_digest: Vec<u32>,
    leaderless_streak: u32,
    /// The previous digest and its instant, for monotonicity checks.
    last_digest: Option<(u64, StateDigest)>,
    digests_checked: u64,
    violations: Vec<Violation>,
    total_violations: u64,
    /// Per-server breaker state reconstructed from open/close events.
    open_breakers: Vec<bool>,
    /// Last retry ordinal seen per request. Only retried requests are
    /// tracked, so memory is bounded by the retry count, not traffic.
    retry_attempts: BTreeMap<u64, u32>,
    /// Retried requests that have since completed or been rejected.
    retry_settled: BTreeSet<u64>,
    /// Shed requests still awaiting their paired `request_reject`.
    shed_pending: BTreeSet<u64>,
    /// Every request ever shed (must never route or complete).
    shed: BTreeSet<u64>,
}

impl InvariantChecker {
    /// A checker for a cluster of `total_servers` servers, aborting the
    /// run on the first violation.
    pub fn new(total_servers: u32) -> Self {
        InvariantChecker {
            total_servers,
            abort_on_violation: true,
            max_violations: DEFAULT_MAX_VIOLATIONS,
            window: RingTracer::with_capacity(DEFAULT_WINDOW),
            states: vec![PowerState::Awake; total_servers as usize],
            leader: None,
            epoch: None,
            failovers_since_digest: Vec::new(),
            leaderless_streak: 0,
            last_digest: None,
            digests_checked: 0,
            violations: Vec::new(),
            total_violations: 0,
            open_breakers: vec![false; total_servers as usize],
            retry_attempts: BTreeMap::new(),
            retry_settled: BTreeSet::new(),
            shed_pending: BTreeSet::new(),
            shed: BTreeSet::new(),
        }
    }

    /// Keep simulating after a violation instead of requesting an
    /// engine abort — useful for counting all violations in a sweep.
    pub fn keep_running(mut self) -> Self {
        self.abort_on_violation = false;
        self
    }

    /// `true` if no invariant has been violated so far.
    pub fn ok(&self) -> bool {
        self.total_violations == 0
    }

    /// The first recorded violation, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Consumes the checker and returns the recorded violations — the
    /// hand-off the chaos harness uses to package a run's evidence.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }

    /// State digests validated so far.
    pub fn digests_checked(&self) -> u64 {
        self.digests_checked
    }

    fn breaker_open(&self, server: u32) -> bool {
        self.open_breakers
            .get(server as usize)
            .copied()
            .unwrap_or(false)
    }

    fn set_breaker(&mut self, server: u32, open: bool) {
        if let Some(slot) = self.open_breakers.get_mut(server as usize) {
            *slot = open;
        }
    }

    /// Marks a retried/shed request as finished; later retries or
    /// completions for it are violations.
    fn settle_request(&mut self, request: u64) {
        if self.retry_attempts.remove(&request).is_some() {
            self.retry_settled.insert(request);
        }
        self.shed_pending.remove(&request);
    }

    fn state(&self, server: u32) -> PowerState {
        self.states
            .get(server as usize)
            .copied()
            .unwrap_or(PowerState::Awake)
    }

    fn set_state(&mut self, server: u32, s: PowerState) {
        if let Some(slot) = self.states.get_mut(server as usize) {
            *slot = s;
        }
    }

    fn report(&mut self, at_us: u64, invariant: &'static str, server: u32, detail: String) {
        self.total_violations += 1;
        if self.violations.len() < self.max_violations {
            let window: Vec<TraceEvent> = self.window.events().cloned().collect();
            self.violations.push(Violation {
                at_us,
                invariant,
                server,
                detail,
                window,
            });
        }
        // Leave a marker in the context window so later violations show
        // earlier ones in their lead-up.
        self.window.event(
            at_us,
            TraceEventKind::InvariantViolated { invariant, server },
        );
    }

    fn check_digest(&mut self, at: u64, d: &StateDigest) {
        self.digests_checked += 1;

        // -- shed_accounting (balance at interval close) ------------------
        // A shed and its paired reject are adjacent events, so no shed
        // may still be waiting for its reject when an interval closes.
        if let Some(&request) = self.shed_pending.iter().next() {
            self.report(
                at,
                "shed_accounting",
                CLUSTER_WIDE,
                format!(
                    "{} shed request(s) (first: {request}) never rejected",
                    self.shed_pending.len()
                ),
            );
            self.shed_pending.clear();
        }

        // -- time_monotone ------------------------------------------------
        if let Some((prev_at, prev)) = self.last_digest {
            if at <= prev_at {
                self.report(
                    at,
                    "time_monotone",
                    CLUSTER_WIDE,
                    format!("digest at {at}us not after previous at {prev_at}us"),
                );
            }
            if d.interval != prev.interval + 1 {
                self.report(
                    at,
                    "time_monotone",
                    CLUSTER_WIDE,
                    format!(
                        "interval index {} does not follow {}",
                        d.interval, prev.interval
                    ),
                );
            }
        }

        // -- vm_conservation ----------------------------------------------
        let sources = d.created + d.imported;
        let sinks = d.hosted + d.retired + d.orphaned + d.exported;
        if sources != sinks {
            self.report(
                at,
                "vm_conservation",
                CLUSTER_WIDE,
                format!(
                    "created {} + imported {} != hosted {} + retired {} \
                     + orphaned {} + exported {}",
                    d.created, d.imported, d.hosted, d.retired, d.orphaned, d.exported
                ),
            );
        }
        if d.dup_hosted != 0 {
            self.report(
                at,
                "vm_conservation",
                CLUSTER_WIDE,
                format!(
                    "{} application id(s) hosted on more than one server",
                    d.dup_hosted
                ),
            );
        }

        // -- sleep_wake_fsm (global census side) --------------------------
        if d.sleeping_hosting != 0 {
            self.report(
                at,
                "sleep_wake_fsm",
                CLUSTER_WIDE,
                format!(
                    "{} non-awake server(s) still hosting VMs",
                    d.sleeping_hosting
                ),
            );
        }

        // -- server_census ------------------------------------------------
        let accounted = d.awake as u64 + d.sleeping as u64 + d.crashed as u64;
        if accounted != self.total_servers as u64 {
            self.report(
                at,
                "server_census",
                CLUSTER_WIDE,
                format!(
                    "digest accounts for {accounted} servers, cluster has {}",
                    self.total_servers
                ),
            );
        }

        // -- energy_accounting / sla_accounting ---------------------------
        let energy_j = d.energy_j;
        if !energy_j.is_finite() || energy_j < 0.0 {
            self.report(
                at,
                "energy_accounting",
                CLUSTER_WIDE,
                format!("cumulative energy {energy_j} J is negative or non-finite"),
            );
        }
        // Class-aware accounting: each Koomey-class total (plus the
        // migration remainder) must itself be a well-formed cumulative
        // meter, and the four components must re-sum to the fleet total
        // (up to float re-association noise).
        let class_labels = ["volume", "mid_range", "high_end", "migration"];
        let components = energy_components(d);
        for (label, value) in class_labels.iter().zip(components) {
            if !value.is_finite() || value < 0.0 {
                self.report(
                    at,
                    "energy_accounting",
                    CLUSTER_WIDE,
                    format!("{label} energy {value} J is negative or non-finite"),
                );
            }
        }
        let class_sum: f64 = components.iter().sum();
        if (class_sum - energy_j).abs() > 1e-6 * energy_j.abs().max(1.0) {
            self.report(
                at,
                "energy_accounting",
                CLUSTER_WIDE,
                format!(
                    "per-class energy sums to {class_sum} J but the fleet \
                     total is {energy_j} J"
                ),
            );
        }
        if let Some((_, prev)) = self.last_digest {
            if energy_j < prev.energy_j {
                self.report(
                    at,
                    "energy_accounting",
                    CLUSTER_WIDE,
                    format!(
                        "cumulative energy fell from {} to {energy_j} J",
                        prev.energy_j
                    ),
                );
            }
            for ((label, value), prev_value) in class_labels
                .iter()
                .zip(components)
                .zip(energy_components(&prev))
            {
                if value < prev_value {
                    self.report(
                        at,
                        "energy_accounting",
                        CLUSTER_WIDE,
                        format!("{label} energy fell from {prev_value} to {value} J"),
                    );
                }
            }
            if d.saturation < prev.saturation {
                self.report(
                    at,
                    "sla_accounting",
                    CLUSTER_WIDE,
                    format!(
                        "saturation count fell from {} to {}",
                        prev.saturation, d.saturation
                    ),
                );
            }
        }

        // -- leader_uniqueness --------------------------------------------
        let leader = d.leader;
        if let Some(known) = self.epoch {
            if d.epoch != known {
                self.report(
                    at,
                    "leader_uniqueness",
                    leader,
                    format!(
                        "digest epoch {} disagrees with failover-derived {known}",
                        d.epoch
                    ),
                );
            }
        }
        if let Some((_, prev)) = self.last_digest {
            if leader != prev.leader && !self.failovers_since_digest.contains(&leader) {
                self.report(
                    at,
                    "leader_uniqueness",
                    leader,
                    format!(
                        "leader changed {} -> {leader} without a failover event",
                        prev.leader
                    ),
                );
            }
        }
        self.leader = Some(leader);
        self.epoch = Some(d.epoch);
        self.failovers_since_digest.clear();

        // -- leader_liveness ----------------------------------------------
        if d.leader_crashed && d.crashed < self.total_servers {
            self.leaderless_streak += 1;
            if self.leaderless_streak > HEARTBEAT_TIMEOUT_INTERVALS {
                self.report(
                    at,
                    "leader_liveness",
                    leader,
                    format!(
                        "leaderless for {} intervals with {} live server(s)",
                        self.leaderless_streak,
                        self.total_servers - d.crashed
                    ),
                );
            }
        } else {
            self.leaderless_streak = 0;
        }

        self.last_digest = Some((at, *d));
    }

    fn check_event(&mut self, at: u64, kind: &TraceEventKind) {
        // Any event stamped before the digest that closed the previous
        // interval would mean sim time ran backwards.
        if let Some((prev_at, _)) = self.last_digest {
            if at < prev_at {
                self.report(
                    at,
                    "time_monotone",
                    CLUSTER_WIDE,
                    format!(
                        "event `{}` at {at}us predates last digest at {prev_at}us",
                        kind.name()
                    ),
                );
            }
        }

        match *kind {
            TraceEventKind::Migration { from, to, app, .. } => {
                if self.state(from) != PowerState::Awake {
                    self.report(
                        at,
                        "sleep_wake_fsm",
                        from,
                        format!("migration of app {app} out of non-awake server {from}"),
                    );
                }
                if self.state(to) != PowerState::Awake {
                    self.report(
                        at,
                        "sleep_wake_fsm",
                        to,
                        format!("migration of app {app} into non-awake server {to}"),
                    );
                }
            }
            TraceEventKind::SleepEntered { server, .. } => {
                if self.state(server) != PowerState::Awake {
                    self.report(
                        at,
                        "sleep_wake_fsm",
                        server,
                        format!("sleep ordered for server {server} that is not awake"),
                    );
                }
                self.set_state(server, PowerState::Asleep);
            }
            TraceEventKind::WakeOrdered { server } => {
                match self.state(server) {
                    PowerState::Awake => self.report(
                        at,
                        "sleep_wake_fsm",
                        server,
                        format!("wake ordered for already-awake server {server}"),
                    ),
                    PowerState::Crashed => self.report(
                        at,
                        "sleep_wake_fsm",
                        server,
                        format!("wake ordered for crashed server {server}"),
                    ),
                    PowerState::Asleep | PowerState::Waking => {}
                }
                self.set_state(server, PowerState::Waking);
            }
            TraceEventKind::WakeFailed { server } => {
                // A failed wake leaves the server asleep; legal from
                // Asleep or Waking.
                if self.state(server) == PowerState::Crashed {
                    self.report(
                        at,
                        "sleep_wake_fsm",
                        server,
                        format!("wake failure reported for crashed server {server}"),
                    );
                } else {
                    self.set_state(server, PowerState::Asleep);
                }
            }
            TraceEventKind::WakeCompleted { server } => {
                // Asleep -> Awake is legal too: failover and admission
                // wakes begin without a WakeOrdered event.
                match self.state(server) {
                    PowerState::Awake => self.report(
                        at,
                        "sleep_wake_fsm",
                        server,
                        format!("wake completed for already-awake server {server}"),
                    ),
                    PowerState::Crashed => self.report(
                        at,
                        "sleep_wake_fsm",
                        server,
                        format!("wake completed for crashed server {server}"),
                    ),
                    PowerState::Asleep | PowerState::Waking => {}
                }
                self.set_state(server, PowerState::Awake);
            }
            TraceEventKind::ServerCrashed { server } => {
                if self.state(server) == PowerState::Crashed {
                    self.report(
                        at,
                        "sleep_wake_fsm",
                        server,
                        format!("crash reported for already-crashed server {server}"),
                    );
                }
                self.set_state(server, PowerState::Crashed);
            }
            TraceEventKind::ServerRecovered { server } => {
                if self.state(server) != PowerState::Crashed {
                    self.report(
                        at,
                        "sleep_wake_fsm",
                        server,
                        format!("recovery reported for non-crashed server {server}"),
                    );
                }
                self.set_state(server, PowerState::Waking);
            }
            TraceEventKind::HeartbeatSent { leader } => {
                if self.state(leader) == PowerState::Crashed {
                    self.report(
                        at,
                        "leader_liveness",
                        leader,
                        format!("heartbeat from crashed leader {leader}"),
                    );
                }
                match self.leader {
                    None => self.leader = Some(leader),
                    Some(known) if known != leader => self.report(
                        at,
                        "leader_uniqueness",
                        leader,
                        format!("heartbeat from {leader} while {known} is leader"),
                    ),
                    Some(_) => {}
                }
            }
            TraceEventKind::Failover { new_leader, epoch } => {
                if let Some(known) = self.epoch {
                    if epoch != known + 1 {
                        self.report(
                            at,
                            "leader_uniqueness",
                            new_leader,
                            format!("failover epoch {epoch} does not follow {known}"),
                        );
                    }
                }
                if self.state(new_leader) == PowerState::Crashed {
                    self.report(
                        at,
                        "leader_uniqueness",
                        new_leader,
                        format!("failover elected crashed server {new_leader}"),
                    );
                }
                self.leader = Some(new_leader);
                self.epoch = Some(epoch);
                self.failovers_since_digest.push(new_leader);
                self.leaderless_streak = 0;
            }
            TraceEventKind::BreakerOpened { server } => {
                if self.breaker_open(server) {
                    self.report(
                        at,
                        "breaker_routing",
                        server,
                        format!("breaker opened for server {server} while already open"),
                    );
                }
                self.set_breaker(server, true);
            }
            TraceEventKind::BreakerClosed { server } => {
                if !self.breaker_open(server) {
                    self.report(
                        at,
                        "breaker_routing",
                        server,
                        format!("breaker closed for server {server} that was not open"),
                    );
                }
                self.set_breaker(server, false);
            }
            TraceEventKind::RequestRouted { request, server } => {
                if self.breaker_open(server) {
                    self.report(
                        at,
                        "breaker_routing",
                        server,
                        format!("request {request} routed to open-breaker server {server}"),
                    );
                }
                if self.shed.contains(&request) {
                    self.report(
                        at,
                        "shed_accounting",
                        server,
                        format!("shed request {request} was routed afterwards"),
                    );
                }
            }
            TraceEventKind::RequestHedge { request, server } if self.breaker_open(server) => {
                self.report(
                    at,
                    "breaker_routing",
                    server,
                    format!("request {request} hedged to open-breaker server {server}"),
                );
            }
            TraceEventKind::RequestRetry {
                request, attempt, ..
            } => {
                if self.retry_settled.contains(&request) {
                    self.report(
                        at,
                        "retry_budget",
                        CLUSTER_WIDE,
                        format!("retry attempt {attempt} for already-settled request {request}"),
                    );
                } else {
                    let expected = self.retry_attempts.get(&request).map_or(1, |a| a + 1);
                    if attempt != expected {
                        self.report(
                            at,
                            "retry_budget",
                            CLUSTER_WIDE,
                            format!(
                                "request {request} retry attempt {attempt}, expected {expected}"
                            ),
                        );
                    }
                    self.retry_attempts.insert(request, attempt.max(expected));
                }
            }
            TraceEventKind::RequestShed { request, .. } => {
                if !self.shed.insert(request) {
                    self.report(
                        at,
                        "shed_accounting",
                        CLUSTER_WIDE,
                        format!("request {request} shed twice"),
                    );
                }
                self.shed_pending.insert(request);
            }
            TraceEventKind::RequestCompleted {
                request, server, ..
            } => {
                if self.shed.contains(&request) {
                    self.report(
                        at,
                        "shed_accounting",
                        server,
                        format!("shed request {request} completed on server {server}"),
                    );
                }
                self.settle_request(request);
            }
            TraceEventKind::RequestRejected { request, .. } => {
                self.settle_request(request);
            }
            _ => {}
        }
    }
}

impl Tracer for InvariantChecker {
    fn event(&mut self, at_ticks: u64, kind: TraceEventKind) {
        self.window.event(at_ticks, kind.clone());
        self.check_event(at_ticks, &kind);
    }

    fn span_enter(&mut self, at_ticks: u64, span: SpanKind) {
        self.window.span_enter(at_ticks, span);
    }

    fn span_exit(&mut self, at_ticks: u64, span: SpanKind) {
        self.window.span_exit(at_ticks, span);
    }

    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    fn abort_requested(&self) -> bool {
        self.abort_on_violation && self.total_violations > 0
    }

    fn wants_digest(&self) -> bool {
        true
    }

    fn digest(&mut self, at_ticks: u64, digest: &StateDigest) {
        self.check_digest(at_ticks, digest);
    }
}

/// A digest's energy split: the three Koomey-class meters and the
/// migration remainder, in that order.
fn energy_components(d: &StateDigest) -> [f64; 4] {
    [
        d.energy_volume_j,
        d.energy_midrange_j,
        d.energy_highend_j,
        d.energy_migration_j,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A consistent digest closing `interval`: 10 VMs on 4 awake
    /// servers and `energy_j` joules drawn, all by the volume class.
    fn metered(interval: u64, energy_j: f64) -> StateDigest {
        StateDigest {
            interval,
            hosted: 10,
            created: 10,
            awake: 4,
            energy_j,
            energy_volume_j: energy_j,
            ..StateDigest::default()
        }
    }

    /// [`metered`] with one joule per microsecond of `at`.
    fn digest(interval: u64, at: u64) -> StateDigest {
        metered(interval, at as f64)
    }

    #[test]
    fn clean_digest_stream_passes() {
        let mut c = InvariantChecker::new(4);
        for i in 0..5u64 {
            c.digest((i + 1) * 100, &digest(i, (i + 1) * 100));
        }
        assert!(c.ok());
        assert_eq!(c.digests_checked(), 5);
        assert!(!c.abort_requested());
    }

    #[test]
    fn lost_vm_breaks_conservation() {
        let mut c = InvariantChecker::new(4);
        // One VM vanished: created 10 but only 9 accounted for.
        c.digest(
            100,
            &StateDigest {
                hosted: 9,
                ..digest(0, 100)
            },
        );
        assert!(!c.ok());
        let v = c.first_violation().unwrap();
        assert_eq!(v.invariant, "vm_conservation");
        assert_eq!(v.server, CLUSTER_WIDE);
        assert!(c.abort_requested());
    }

    #[test]
    fn duplicate_hosting_is_flagged() {
        let mut c = InvariantChecker::new(4);
        c.digest(
            100,
            &StateDigest {
                dup_hosted: 1,
                ..digest(0, 100)
            },
        );
        assert_eq!(c.first_violation().unwrap().invariant, "vm_conservation");
    }

    #[test]
    fn sleeping_server_hosting_vms_is_flagged() {
        let mut c = InvariantChecker::new(4);
        let d = StateDigest {
            awake: 3,
            sleeping: 1,
            sleeping_hosting: 1,
            ..digest(0, 100)
        };
        c.digest(100, &d);
        assert_eq!(c.first_violation().unwrap().invariant, "sleep_wake_fsm");
    }

    #[test]
    fn fsm_catches_migration_to_sleeping_server() {
        let mut c = InvariantChecker::new(4);
        c.event(
            50,
            TraceEventKind::SleepEntered {
                server: 2,
                cstate: "C6",
            },
        );
        c.event(
            60,
            TraceEventKind::Migration {
                from: 0,
                to: 2,
                app: 7,
                demand: 0.1,
            },
        );
        let v = c.first_violation().unwrap();
        assert_eq!(v.invariant, "sleep_wake_fsm");
        assert_eq!(v.server, 2);
        assert!(v.detail.contains("into non-awake server 2"));
    }

    #[test]
    fn fsm_allows_order_fail_reorder_complete_cycle() {
        let mut c = InvariantChecker::new(4);
        c.event(
            10,
            TraceEventKind::SleepEntered {
                server: 1,
                cstate: "C3",
            },
        );
        c.event(20, TraceEventKind::WakeOrdered { server: 1 });
        c.event(20, TraceEventKind::WakeFailed { server: 1 });
        c.event(30, TraceEventKind::WakeOrdered { server: 1 });
        c.event(40, TraceEventKind::WakeCompleted { server: 1 });
        assert!(c.ok(), "{:?}", c.first_violation());
    }

    #[test]
    fn double_wake_is_flagged() {
        let mut c = InvariantChecker::new(4);
        c.event(10, TraceEventKind::WakeCompleted { server: 3 });
        let v = c.first_violation().unwrap();
        assert_eq!(v.invariant, "sleep_wake_fsm");
        assert!(v.detail.contains("already-awake"));
    }

    #[test]
    fn crash_then_recover_then_wake_is_legal() {
        let mut c = InvariantChecker::new(4);
        c.event(10, TraceEventKind::ServerCrashed { server: 2 });
        c.event(20, TraceEventKind::ServerRecovered { server: 2 });
        c.event(30, TraceEventKind::WakeCompleted { server: 2 });
        assert!(c.ok(), "{:?}", c.first_violation());
    }

    #[test]
    fn leader_change_without_failover_is_flagged() {
        let mut c = InvariantChecker::new(4);
        c.digest(100, &digest(0, 100));
        c.digest(
            200,
            &StateDigest {
                leader: 3,
                ..digest(1, 200)
            },
        );
        assert_eq!(c.first_violation().unwrap().invariant, "leader_uniqueness");
    }

    #[test]
    fn failover_makes_leader_change_legal_and_epoch_must_step() {
        let mut c = InvariantChecker::new(4);
        c.digest(100, &digest(0, 100));
        c.event(150, TraceEventKind::ServerCrashed { server: 0 });
        c.event(
            200,
            TraceEventKind::Failover {
                new_leader: 1,
                epoch: 1,
            },
        );
        assert!(c.ok(), "{:?}", c.first_violation());
        c.event(
            300,
            TraceEventKind::Failover {
                new_leader: 2,
                epoch: 5, // skipped epochs
            },
        );
        assert_eq!(c.first_violation().unwrap().invariant, "leader_uniqueness");
    }

    #[test]
    fn stuck_leaderless_cluster_is_flagged() {
        let mut c = InvariantChecker::new(4).keep_running();
        c.event(50, TraceEventKind::ServerCrashed { server: 0 });
        for i in 0..4u64 {
            let d = StateDigest {
                awake: 3,
                crashed: 1,
                leader_crashed: true,
                ..metered(i, (i + 1) as f64)
            };
            c.digest((i + 1) * 100, &d);
        }
        let v = c.first_violation().unwrap();
        assert_eq!(v.invariant, "leader_liveness");
        assert_eq!(v.at_us, 300, "fires on the digest past the timeout");
    }

    #[test]
    fn time_regression_is_flagged() {
        let mut c = InvariantChecker::new(4);
        c.digest(100, &digest(0, 100));
        c.event(50, TraceEventKind::WakeOrdered { server: 9 });
        assert_eq!(c.first_violation().unwrap().invariant, "time_monotone");
    }

    #[test]
    fn back_in_time_digest_is_one_violation() {
        let mut c = InvariantChecker::new(4).keep_running();
        c.digest(200, &digest(0, 200));
        // Stamped before its predecessor while the interval index, the
        // energy meters and the counts all still advance.
        c.digest(100, &metered(1, 300.0));
        assert_eq!(c.total_violations, 1);
        let v = c.first_violation().unwrap();
        assert_eq!(v.invariant, "time_monotone");
        assert!(v.detail.contains("not after previous"), "{}", v.detail);
    }

    #[test]
    fn energy_regression_is_flagged() {
        let mut c = InvariantChecker::new(4);
        c.digest(100, &digest(0, 100));
        // Below the 100.0 J of digest 0.
        c.digest(200, &metered(1, 10.0));
        assert_eq!(c.first_violation().unwrap().invariant, "energy_accounting");
    }

    #[test]
    fn class_energy_must_sum_to_the_fleet_total() {
        let mut c = InvariantChecker::new(4);
        // 100 J total but the classes only account for 60 J.
        c.digest(
            100,
            &StateDigest {
                energy_volume_j: 40.0,
                energy_midrange_j: 20.0,
                ..digest(0, 100)
            },
        );
        let v = c.first_violation().unwrap();
        assert_eq!(v.invariant, "energy_accounting");
        assert!(
            v.detail.contains("per-class energy sums to"),
            "{}",
            v.detail
        );
    }

    #[test]
    fn class_energy_split_including_migration_passes() {
        let mut c = InvariantChecker::new(4);
        c.digest(
            100,
            &StateDigest {
                energy_volume_j: 50.0,
                energy_midrange_j: 30.0,
                energy_highend_j: 15.0,
                energy_migration_j: 5.0,
                ..digest(0, 100)
            },
        );
        assert!(c.ok(), "{:?}", c.first_violation());
    }

    #[test]
    fn class_energy_regression_is_flagged_per_class() {
        let mut c = InvariantChecker::new(4).keep_running();
        c.digest(
            100,
            &StateDigest {
                energy_volume_j: 60.0,
                energy_midrange_j: 40.0,
                ..digest(0, 100)
            },
        );
        // Fleet total grows, but the mid-range meter runs backwards —
        // energy silently re-booked between classes.
        c.digest(
            200,
            &StateDigest {
                energy_volume_j: 170.0,
                energy_midrange_j: 30.0,
                ..digest(1, 200)
            },
        );
        let v = c.first_violation().unwrap();
        assert_eq!(v.invariant, "energy_accounting");
        assert!(
            v.detail.contains("mid_range energy fell"),
            "detail: {}",
            v.detail
        );
    }

    #[test]
    fn negative_class_energy_is_flagged() {
        let mut c = InvariantChecker::new(4).keep_running();
        c.digest(
            100,
            &StateDigest {
                energy_volume_j: 110.0,
                energy_midrange_j: -10.0,
                ..digest(0, 100)
            },
        );
        let v = c.first_violation().unwrap();
        assert_eq!(v.invariant, "energy_accounting");
        assert!(v.detail.contains("mid_range energy"), "{}", v.detail);
    }

    #[test]
    fn violation_carries_the_event_window() {
        let mut c = InvariantChecker::new(4);
        c.event(
            10,
            TraceEventKind::SleepEntered {
                server: 1,
                cstate: "C6",
            },
        );
        c.event(
            20,
            TraceEventKind::Migration {
                from: 1,
                to: 0,
                app: 3,
                demand: 0.2,
            },
        );
        let v = c.first_violation().unwrap();
        assert_eq!(v.window.len(), 2);
        assert!(matches!(
            v.window[0].kind,
            TraceEventKind::SleepEntered { server: 1, .. }
        ));
        let json = v.to_json();
        assert!(json.contains(r#""invariant":"sleep_wake_fsm""#));
        assert!(json.contains(r#""window":[{"#));
    }

    #[test]
    fn routing_to_open_breaker_is_flagged_and_close_readmits() {
        let mut c = InvariantChecker::new(4).keep_running();
        c.event(10, TraceEventKind::BreakerOpened { server: 2 });
        c.event(
            20,
            TraceEventKind::RequestRouted {
                request: 7,
                server: 2,
            },
        );
        let v = c.first_violation().unwrap();
        assert_eq!(v.invariant, "breaker_routing");
        assert_eq!(v.server, 2);
        c.event(30, TraceEventKind::BreakerClosed { server: 2 });
        c.event(
            40,
            TraceEventKind::RequestRouted {
                request: 8,
                server: 2,
            },
        );
        assert_eq!(c.total_violations, 1, "closed breaker routes legally");
    }

    #[test]
    fn hedge_to_open_breaker_and_double_open_are_flagged() {
        let mut c = InvariantChecker::new(4).keep_running();
        c.event(10, TraceEventKind::BreakerOpened { server: 1 });
        c.event(
            20,
            TraceEventKind::RequestHedge {
                request: 3,
                server: 1,
            },
        );
        assert_eq!(c.first_violation().unwrap().invariant, "breaker_routing");
        c.event(30, TraceEventKind::BreakerOpened { server: 1 });
        assert_eq!(c.total_violations, 2, "double open flagged");
        let mut c = InvariantChecker::new(4);
        c.event(10, TraceEventKind::BreakerClosed { server: 0 });
        assert_eq!(c.first_violation().unwrap().invariant, "breaker_routing");
    }

    #[test]
    fn retry_ordinals_must_be_gap_free_and_stop_at_settle() {
        let mut c = InvariantChecker::new(4);
        c.event(
            10,
            TraceEventKind::RequestRetry {
                request: 5,
                attempt: 1,
                delay_us: 100,
            },
        );
        c.event(
            20,
            TraceEventKind::RequestRetry {
                request: 5,
                attempt: 2,
                delay_us: 200,
            },
        );
        assert!(c.ok());
        // Skipping ordinal 3 means an attempt was minted out of order.
        c.event(
            30,
            TraceEventKind::RequestRetry {
                request: 5,
                attempt: 4,
                delay_us: 400,
            },
        );
        assert_eq!(c.first_violation().unwrap().invariant, "retry_budget");

        let mut c = InvariantChecker::new(4);
        c.event(
            10,
            TraceEventKind::RequestRetry {
                request: 9,
                attempt: 1,
                delay_us: 100,
            },
        );
        c.event(
            20,
            TraceEventKind::RequestCompleted {
                request: 9,
                server: 0,
                latency_us: 10,
            },
        );
        c.event(
            30,
            TraceEventKind::RequestRetry {
                request: 9,
                attempt: 2,
                delay_us: 200,
            },
        );
        let v = c.first_violation().unwrap();
        assert_eq!(v.invariant, "retry_budget");
        assert!(v.detail.contains("already-settled"), "{}", v.detail);
    }

    #[test]
    fn shed_must_pair_with_reject_before_the_digest() {
        let mut c = InvariantChecker::new(4);
        c.event(
            10,
            TraceEventKind::RequestShed {
                request: 4,
                class: 1,
            },
        );
        c.event(
            10,
            TraceEventKind::RequestRejected {
                request: 4,
                reason: "shed",
            },
        );
        c.digest(100, &digest(0, 100));
        assert!(c.ok(), "{:?}", c.first_violation());

        let mut c = InvariantChecker::new(4);
        c.event(
            10,
            TraceEventKind::RequestShed {
                request: 4,
                class: 0,
            },
        );
        c.digest(100, &digest(0, 100));
        assert_eq!(c.first_violation().unwrap().invariant, "shed_accounting");
    }

    #[test]
    fn shed_request_must_never_complete() {
        let mut c = InvariantChecker::new(4);
        c.event(
            10,
            TraceEventKind::RequestShed {
                request: 6,
                class: 1,
            },
        );
        c.event(
            10,
            TraceEventKind::RequestRejected {
                request: 6,
                reason: "shed",
            },
        );
        c.event(
            50,
            TraceEventKind::RequestCompleted {
                request: 6,
                server: 1,
                latency_us: 40,
            },
        );
        let v = c.first_violation().unwrap();
        assert_eq!(v.invariant, "shed_accounting");
        assert!(v.detail.contains("completed"), "{}", v.detail);
    }

    #[test]
    fn checker_wants_digests_and_aborts_only_when_told() {
        let c = InvariantChecker::new(2);
        assert!(c.wants_digest());
        let mut quiet = InvariantChecker::new(2).keep_running();
        quiet.event(10, TraceEventKind::WakeCompleted { server: 0 });
        assert!(!quiet.ok());
        assert!(!quiet.abort_requested());
    }
}
