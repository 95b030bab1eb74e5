//! Failure-recovery protocol: fault hooks and accounting.
//!
//! The paper's star-shaped cluster silently assumes the leader never dies
//! and messages never drop. This module defines the seam through which a
//! fault-injection layer (the `ecolb-faults` crate) perturbs the protocol,
//! plus the recovery bookkeeping the cluster keeps while it heals:
//! heartbeat-timeout failover, directory rebuild, bounded retry-with-backoff
//! for lost reports, and wake orders that fail outright.
//!
//! The hook trait defaults to "nothing ever fails", and the no-fault
//! implementation [`NoFaults`] is a zero-sized type whose methods are
//! trivially inlined — the plain entry points pass `NoFaults` through the
//! same hooked code, and it changes nothing.
//!
//! Scheduled faults ([`FaultEventKind`]) are what the timed driver
//! applies at their fire time; the injection crate builds plans of them.

use crate::server::ServerId;
use ecolb_simcore::time::SimDuration;

/// What a scheduled fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// Crash a specific host. `recover_after: None` is crash-stop; with a
    /// duration the host reboots that long after the crash.
    ServerCrash {
        /// The host to crash.
        server: ServerId,
        /// Crash-recover delay, or `None` for crash-stop.
        recover_after: Option<SimDuration>,
    },
    /// Reboot a crashed host (scheduled internally by crash-recover, but
    /// also available for scripting exact repair times).
    ServerRecover {
        /// The host to reboot.
        server: ServerId,
    },
    /// Crash whichever host carries the leader role *at fire time* — this
    /// is what exercises the heartbeat-timeout failover path.
    LeaderCrash {
        /// Crash-recover delay, or `None` for crash-stop.
        recover_after: Option<SimDuration>,
    },
}

impl FaultEventKind {
    /// Stable snake_case discriminant used as the JSON `"kind"` field.
    pub fn name(&self) -> &'static str {
        match self {
            FaultEventKind::ServerCrash { .. } => "server_crash",
            FaultEventKind::ServerRecover { .. } => "server_recover",
            FaultEventKind::LeaderCrash { .. } => "leader_crash",
        }
    }
}

/// Decision points a fault injector may perturb. Every method has a
/// "nothing fails" default so implementors only override the faults they
/// model. Implementations own their randomness (keyed RNG streams), which
/// keeps the cluster's RNG untouched and no-fault runs byte-identical.
pub trait FaultHooks {
    /// Called once per delivery attempt of a server → leader regime
    /// report. Return `true` to drop this attempt on the floor.
    fn report_lost(&mut self, from: ServerId, attempt: u32) -> bool {
        let _ = (from, attempt);
        false
    }

    /// Called when the leader issues a wake order. Return `true` to make
    /// the sleep → C0 transition fail: the order is lost and the server
    /// stays asleep.
    fn wake_fails(&mut self, server: ServerId) -> bool {
        let _ = server;
        false
    }

    /// Called by the timed driver's engine interceptor when a migrated
    /// VM image is about to arrive at `to`: how much longer it stays on
    /// the wire, zero to deliver it now. The cluster never observes the
    /// delay.
    fn arrival_delay(&mut self, to: ServerId) -> SimDuration {
        let _ = to;
        SimDuration::ZERO
    }
}

/// The trivial injector: no message is ever lost, no transition ever
/// fails. Used by the plain (fault-free) cluster entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultHooks for NoFaults {}

/// Counters describing how much recovery work a run performed. Kept
/// separate from [`crate::messages::MessageStats`] so the fault-free
/// report layout is untouched.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryStats {
    /// Heartbeats the live leader sent (one per interval).
    pub heartbeats_sent: u64,
    /// Intervals in which the expected heartbeat never arrived.
    pub heartbeats_missed: u64,
    /// Completed leader failovers (epoch bumps).
    pub failovers: u64,
    /// Intervals spent with no live leader — no balancing happens.
    pub leaderless_intervals: u64,
    /// Consolidation opportunities missed while leaderless: awake servers
    /// in an undesirable regime during a leaderless interval.
    pub failed_consolidations: u64,
    /// Report delivery attempts dropped by the injector.
    pub reports_lost: u64,
    /// Retries performed after a lost report.
    pub report_retries: u64,
    /// Reports abandoned after exhausting the retry budget (the leader
    /// works from a stale directory entry until the next sweep).
    pub reports_abandoned: u64,
    /// Total simulated seconds spent in retry backoff.
    pub retry_backoff_seconds: f64,
    /// Wake orders that failed (server stayed asleep).
    pub wake_failures: u64,
    /// Orphaned VMs re-admitted after their host crashed.
    pub orphans_readmitted: u64,
    /// Server crash events applied.
    pub servers_crashed: u64,
    /// Server recovery events applied.
    pub servers_recovered: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_never_drops_anything() {
        let mut h = NoFaults;
        for attempt in 1..=5 {
            assert!(!h.report_lost(ServerId(0), attempt));
        }
        assert!(!h.wake_fails(ServerId(3)));
        assert_eq!(h.arrival_delay(ServerId(1)), SimDuration::ZERO);
    }

    #[test]
    fn stats_default_to_zero() {
        let s = RecoveryStats::default();
        assert_eq!(s.failovers, 0);
        assert_eq!(s.retry_backoff_seconds, 0.0);
    }
}
