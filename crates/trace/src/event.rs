//! The trace event taxonomy and its deterministic JSON rendering.
//!
//! Events carry only primitives (`u32` server ids, `&'static str`
//! labels) so the tracer crate sits *below* the crates it instruments in
//! the dependency graph. Timestamps are integer simulated microseconds —
//! no float formatting ambiguity, no wall clock.

use ecolb_metrics::json::{ObjectWriter, ToJson};

/// One structured trace event: a sequence number (assigned by the
/// collector, total order of emission), a simulated timestamp in
/// microseconds, and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Emission order, 0-based, gap-free within one collector.
    pub seq: u64,
    /// Simulated instant, microseconds since the run started.
    pub at_us: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The closed event taxonomy. One variant per observable state change;
/// see DESIGN.md "Trace model" for the emission sites.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// The engine run-loop started.
    EngineStarted,
    /// The engine run-loop ended with the given outcome label.
    EngineFinished {
        /// `"drained"`, `"budget"` or `"stopped"`.
        outcome: &'static str,
        /// Total events the engine has processed (lifetime counter).
        events: u64,
    },
    /// The engine's wire delay requeued an event instead of delivering it.
    EventDelayed {
        /// Injected delay, microseconds.
        delay_us: u64,
    },
    /// A reallocation interval began (clock already advanced by τ).
    IntervalStarted {
        /// 0-based interval index.
        index: u64,
    },
    /// A reallocation interval closed with its decision counts.
    IntervalClosed {
        /// 0-based interval index.
        index: u64,
        /// Local vertical-scaling decisions this interval.
        local: u64,
        /// In-cluster horizontal-scaling decisions this interval.
        in_cluster: u64,
        /// Deferred growth requests this interval.
        deferred: u64,
    },
    /// One scaling decision was recorded in the ledger.
    Decision {
        /// `"local_vertical"`, `"in_cluster_horizontal"` or `"deferred"`.
        decision: &'static str,
    },
    /// Per-server regime classification at the end of an interval
    /// (awake servers only; sleeping/crashed servers emit nothing).
    RegimeSample {
        /// Sampled server.
        server: u32,
        /// Regime as 1..=5 (R1..R5).
        regime: u8,
        /// Load fraction at sample time.
        load: f64,
    },
    /// A server asked the leader for assistance.
    AssistanceRequested {
        /// Requesting server.
        server: u32,
        /// Its regime as 1..=5.
        regime: u8,
    },
    /// A VM migration was committed.
    Migration {
        /// Donor server.
        from: u32,
        /// Receiving server.
        to: u32,
        /// Application id.
        app: u64,
        /// Demand at transfer time.
        demand: f64,
    },
    /// A drained server entered a sleep state.
    SleepEntered {
        /// The server going to sleep.
        server: u32,
        /// Chosen C-state label (`"C3"`, `"C6"`, …).
        cstate: &'static str,
    },
    /// The leader ordered a sleeping server awake.
    WakeOrdered {
        /// The ordered server.
        server: u32,
    },
    /// A wake order was lost to an injected transition fault.
    WakeFailed {
        /// The server that stayed asleep.
        server: u32,
    },
    /// A pending wake matured: the server reached C0.
    WakeCompleted {
        /// The server that finished waking.
        server: u32,
    },
    /// The live leader beaconed its heartbeat.
    HeartbeatSent {
        /// Current leader host.
        leader: u32,
    },
    /// An interval elapsed without a leader heartbeat.
    HeartbeatMissed {
        /// Consecutive misses so far.
        consecutive: u32,
    },
    /// The heartbeat timeout elected a successor leader.
    Failover {
        /// The new leader host.
        new_leader: u32,
        /// The new election epoch.
        epoch: u64,
    },
    /// A fault-injection crash-stopped a server.
    ServerCrashed {
        /// The crashed server.
        server: u32,
    },
    /// A crashed server was repaired and began its reboot.
    ServerRecovered {
        /// The recovering server.
        server: u32,
    },
    /// A scheduled fault from the plan was applied.
    FaultInjected {
        /// Fault family label (`"server_crash"`, `"leader_crash"`, …).
        fault: &'static str,
        /// The targeted server.
        server: u32,
    },
    /// The runtime invariant checker detected a violation.
    InvariantViolated {
        /// Stable invariant identifier (`"vm_conservation"`, …).
        invariant: &'static str,
        /// The implicated server (or `u32::MAX` for cluster-global).
        server: u32,
    },
    /// A regime report exhausted its retry budget and was abandoned;
    /// the leader never saw this server's state this interval.
    ReportRetriesExhausted {
        /// The server whose report was lost.
        server: u32,
        /// Delivery attempts made before giving up.
        attempts: u32,
    },
    /// A synthetic user request entered the serving layer (open-loop
    /// arrival, before any routing decision).
    RequestAdmitted {
        /// Request id, gap-free in admission order.
        request: u64,
        /// Application (traffic source) the request belongs to.
        app: u64,
        /// SLA class index (0 = gold, 1 = bronze).
        class: u8,
    },
    /// The load balancer routed a request to an instance.
    RequestRouted {
        /// The routed request.
        request: u64,
        /// The chosen server instance.
        server: u32,
    },
    /// A request finished service and its latency sample was recorded.
    RequestCompleted {
        /// The completed request.
        request: u64,
        /// The server that served it.
        server: u32,
        /// End-to-end latency (queueing + service), microseconds.
        latency_us: u64,
    },
    /// The serving layer rejected a request (no awake instance, or the
    /// least-bad backlog exceeded the admission bound).
    RequestRejected {
        /// The rejected request.
        request: u64,
        /// Rejection cause label (`"no_instance"`, `"backlog"`).
        reason: &'static str,
    },
    /// The resilience layer scheduled a retry attempt for a request
    /// whose previous attempt failed (crash kill or predicted deadline
    /// miss), after the retry budget granted a token.
    RequestRetry {
        /// The retried request.
        request: u64,
        /// Attempt ordinal being scheduled (1 = first retry).
        attempt: u32,
        /// Backoff delay until the retry dispatches, microseconds.
        delay_us: u64,
    },
    /// The resilience layer issued a hedged (duplicate) attempt for a
    /// gold request; the primary route is the preceding
    /// `request_route`.
    RequestHedge {
        /// The hedged request.
        request: u64,
        /// The alternate server the hedge was sent to.
        server: u32,
    },
    /// Admission control shed a request: the chosen server's backlog
    /// exceeded the class watermark. Always paired with a
    /// `request_reject` for the same request.
    RequestShed {
        /// The shed request.
        request: u64,
        /// SLA class index (0 = gold, 1 = bronze).
        class: u8,
    },
    /// An instance circuit breaker tripped: the server leaves the
    /// routable set until its open window elapses.
    BreakerOpened {
        /// The ejected server.
        server: u32,
    },
    /// An instance circuit breaker left the open state (half-open probe
    /// window or rejoin reset): the server is routable again.
    BreakerClosed {
        /// The readmitted server.
        server: u32,
    },
    /// A span opened (also aggregated; kept in the log so event order
    /// alone reconstructs the span tree).
    SpanEnter {
        /// Span kind label.
        span: &'static str,
    },
    /// A span closed.
    SpanExit {
        /// Span kind label.
        span: &'static str,
    },
}

impl TraceEventKind {
    /// Stable snake_case discriminant used as the JSON `"kind"` field.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::EngineStarted => "engine_started",
            TraceEventKind::EngineFinished { .. } => "engine_finished",
            TraceEventKind::EventDelayed { .. } => "event_delayed",
            TraceEventKind::IntervalStarted { .. } => "interval_started",
            TraceEventKind::IntervalClosed { .. } => "interval_closed",
            TraceEventKind::Decision { .. } => "decision",
            TraceEventKind::RegimeSample { .. } => "regime_sample",
            TraceEventKind::AssistanceRequested { .. } => "assistance_requested",
            TraceEventKind::Migration { .. } => "migration",
            TraceEventKind::SleepEntered { .. } => "sleep_entered",
            TraceEventKind::WakeOrdered { .. } => "wake_ordered",
            TraceEventKind::WakeFailed { .. } => "wake_failed",
            TraceEventKind::WakeCompleted { .. } => "wake_completed",
            TraceEventKind::HeartbeatSent { .. } => "heartbeat_sent",
            TraceEventKind::HeartbeatMissed { .. } => "heartbeat_missed",
            TraceEventKind::Failover { .. } => "failover",
            TraceEventKind::ServerCrashed { .. } => "server_crashed",
            TraceEventKind::ServerRecovered { .. } => "server_recovered",
            TraceEventKind::FaultInjected { .. } => "fault_injected",
            TraceEventKind::InvariantViolated { .. } => "invariant_violated",
            TraceEventKind::ReportRetriesExhausted { .. } => "report_retries_exhausted",
            TraceEventKind::RequestAdmitted { .. } => "request_admit",
            TraceEventKind::RequestRouted { .. } => "request_route",
            TraceEventKind::RequestCompleted { .. } => "request_complete",
            TraceEventKind::RequestRejected { .. } => "request_reject",
            TraceEventKind::RequestRetry { .. } => "request_retry",
            TraceEventKind::RequestHedge { .. } => "request_hedge",
            TraceEventKind::RequestShed { .. } => "request_shed",
            TraceEventKind::BreakerOpened { .. } => "breaker_open",
            TraceEventKind::BreakerClosed { .. } => "breaker_close",
            TraceEventKind::SpanEnter { .. } => "span_enter",
            TraceEventKind::SpanExit { .. } => "span_exit",
        }
    }

    /// Appends the variant's payload fields to an open object writer.
    fn write_fields<'a>(&self, w: ObjectWriter<'a>) -> ObjectWriter<'a> {
        match *self {
            TraceEventKind::EngineStarted => w,
            TraceEventKind::EngineFinished { outcome, events } => {
                w.field("outcome", &outcome).field("events", &events)
            }
            TraceEventKind::EventDelayed { delay_us } => w.field("delay_us", &delay_us),
            TraceEventKind::IntervalStarted { index } => w.field("index", &index),
            TraceEventKind::IntervalClosed {
                index,
                local,
                in_cluster,
                deferred,
            } => w
                .field("index", &index)
                .field("local", &local)
                .field("in_cluster", &in_cluster)
                .field("deferred", &deferred),
            TraceEventKind::Decision { decision } => w.field("decision", &decision),
            TraceEventKind::RegimeSample {
                server,
                regime,
                load,
            } => w
                .field("server", &server)
                .field("regime", &regime)
                .field("load", &load),
            TraceEventKind::AssistanceRequested { server, regime } => {
                w.field("server", &server).field("regime", &regime)
            }
            TraceEventKind::Migration {
                from,
                to,
                app,
                demand,
            } => w
                .field("from", &from)
                .field("to", &to)
                .field("app", &app)
                .field("demand", &demand),
            TraceEventKind::SleepEntered { server, cstate } => {
                w.field("server", &server).field("cstate", &cstate)
            }
            TraceEventKind::WakeOrdered { server }
            | TraceEventKind::WakeFailed { server }
            | TraceEventKind::WakeCompleted { server }
            | TraceEventKind::ServerCrashed { server }
            | TraceEventKind::ServerRecovered { server } => w.field("server", &server),
            TraceEventKind::HeartbeatSent { leader } => w.field("leader", &leader),
            TraceEventKind::HeartbeatMissed { consecutive } => w.field("consecutive", &consecutive),
            TraceEventKind::Failover { new_leader, epoch } => {
                w.field("new_leader", &new_leader).field("epoch", &epoch)
            }
            TraceEventKind::FaultInjected { fault, server } => {
                w.field("fault", &fault).field("server", &server)
            }
            TraceEventKind::InvariantViolated { invariant, server } => {
                w.field("invariant", &invariant).field("server", &server)
            }
            TraceEventKind::ReportRetriesExhausted { server, attempts } => {
                w.field("server", &server).field("attempts", &attempts)
            }
            TraceEventKind::RequestAdmitted {
                request,
                app,
                class,
            } => w
                .field("request", &request)
                .field("app", &app)
                .field("class", &class),
            TraceEventKind::RequestRouted { request, server } => {
                w.field("request", &request).field("server", &server)
            }
            TraceEventKind::RequestCompleted {
                request,
                server,
                latency_us,
            } => w
                .field("request", &request)
                .field("server", &server)
                .field("latency_us", &latency_us),
            TraceEventKind::RequestRejected { request, reason } => {
                w.field("request", &request).field("reason", &reason)
            }
            TraceEventKind::RequestRetry {
                request,
                attempt,
                delay_us,
            } => w
                .field("request", &request)
                .field("attempt", &attempt)
                .field("delay_us", &delay_us),
            TraceEventKind::RequestHedge { request, server } => {
                w.field("request", &request).field("server", &server)
            }
            TraceEventKind::RequestShed { request, class } => {
                w.field("request", &request).field("class", &class)
            }
            TraceEventKind::BreakerOpened { server } | TraceEventKind::BreakerClosed { server } => {
                w.field("server", &server)
            }
            TraceEventKind::SpanEnter { span } | TraceEventKind::SpanExit { span } => {
                w.field("span", &span)
            }
        }
    }
}

impl ToJson for TraceEvent {
    fn write_json(&self, out: &mut String) {
        let w = ObjectWriter::new(out)
            .field("seq", &self.seq)
            .field("at_us", &self.at_us)
            .field("kind", &self.kind.name());
        self.kind.write_fields(w).finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_compact_deterministic_json() {
        let ev = TraceEvent {
            seq: 3,
            at_us: 600_000_000,
            kind: TraceEventKind::Migration {
                from: 1,
                to: 2,
                app: 40,
                demand: 0.125,
            },
        };
        assert_eq!(
            ev.to_json(),
            r#"{"seq":3,"at_us":600000000,"kind":"migration","from":1,"to":2,"app":40,"demand":0.125}"#
        );
    }

    #[test]
    fn payload_free_events_render_without_trailing_fields() {
        let ev = TraceEvent {
            seq: 0,
            at_us: 0,
            kind: TraceEventKind::EngineStarted,
        };
        assert_eq!(
            ev.to_json(),
            r#"{"seq":0,"at_us":0,"kind":"engine_started"}"#
        );
    }

    #[test]
    fn events_stay_small() {
        // Every trace copies, clones and windows events by value, so one
        // bulky variant taxes them all; bulky records travel elsewhere
        // (the state digest goes through `Tracer::digest`).
        assert!(std::mem::size_of::<TraceEventKind>() <= 40);
        assert!(std::mem::size_of::<TraceEvent>() <= 56);
    }

    #[test]
    fn every_variant_has_a_unique_name() {
        let names = [
            TraceEventKind::EngineStarted.name(),
            TraceEventKind::EngineFinished {
                outcome: "drained",
                events: 0,
            }
            .name(),
            TraceEventKind::EventDelayed { delay_us: 1 }.name(),
            TraceEventKind::IntervalStarted { index: 0 }.name(),
            TraceEventKind::IntervalClosed {
                index: 0,
                local: 0,
                in_cluster: 0,
                deferred: 0,
            }
            .name(),
            TraceEventKind::Decision {
                decision: "deferred",
            }
            .name(),
            TraceEventKind::RegimeSample {
                server: 0,
                regime: 1,
                load: 0.0,
            }
            .name(),
            TraceEventKind::AssistanceRequested {
                server: 0,
                regime: 1,
            }
            .name(),
            TraceEventKind::Migration {
                from: 0,
                to: 0,
                app: 0,
                demand: 0.0,
            }
            .name(),
            TraceEventKind::SleepEntered {
                server: 0,
                cstate: "C6",
            }
            .name(),
            TraceEventKind::WakeOrdered { server: 0 }.name(),
            TraceEventKind::WakeFailed { server: 0 }.name(),
            TraceEventKind::WakeCompleted { server: 0 }.name(),
            TraceEventKind::HeartbeatSent { leader: 0 }.name(),
            TraceEventKind::HeartbeatMissed { consecutive: 1 }.name(),
            TraceEventKind::Failover {
                new_leader: 0,
                epoch: 1,
            }
            .name(),
            TraceEventKind::ServerCrashed { server: 0 }.name(),
            TraceEventKind::ServerRecovered { server: 0 }.name(),
            TraceEventKind::FaultInjected {
                fault: "server_crash",
                server: 0,
            }
            .name(),
            TraceEventKind::InvariantViolated {
                invariant: "vm_conservation",
                server: 0,
            }
            .name(),
            TraceEventKind::ReportRetriesExhausted {
                server: 0,
                attempts: 3,
            }
            .name(),
            TraceEventKind::RequestAdmitted {
                request: 0,
                app: 0,
                class: 0,
            }
            .name(),
            TraceEventKind::RequestRouted {
                request: 0,
                server: 0,
            }
            .name(),
            TraceEventKind::RequestCompleted {
                request: 0,
                server: 0,
                latency_us: 0,
            }
            .name(),
            TraceEventKind::RequestRejected {
                request: 0,
                reason: "backlog",
            }
            .name(),
            TraceEventKind::RequestRetry {
                request: 0,
                attempt: 1,
                delay_us: 0,
            }
            .name(),
            TraceEventKind::RequestHedge {
                request: 0,
                server: 0,
            }
            .name(),
            TraceEventKind::RequestShed {
                request: 0,
                class: 1,
            }
            .name(),
            TraceEventKind::BreakerOpened { server: 0 }.name(),
            TraceEventKind::BreakerClosed { server: 0 }.name(),
            TraceEventKind::SpanEnter { span: "interval" }.name(),
            TraceEventKind::SpanExit { span: "interval" }.name(),
        ];
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
    }
}
