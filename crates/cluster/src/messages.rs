//! Leader ↔ server message accounting and retry policy.
//!
//! The paper's cluster is organised as a **star topology**: every server is
//! connected to the leader, reports its regime periodically, and the leader
//! brokers load-balancing partners (§4). The leader counts the messages of
//! that protocol by kind ([`MessageStats`]); `REPORT_MAX_ATTEMPTS` and
//! `backoff_before` bound the resends of a report lost on a faulty link.

use ecolb_simcore::time::SimDuration;

/// Cluster-wide message statistics kept by the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageStats {
    /// Regime reports received.
    pub regime_reports: u64,
    /// Assistance requests received.
    pub assistance_requests: u64,
    /// Partner lists sent.
    pub partner_lists: u64,
    /// Wake orders issued.
    pub wake_orders: u64,
    /// Liveness beacons sent by the leader.
    pub heartbeats: u64,
    /// Leader-election announcements observed.
    pub elections: u64,
}

/// Delivery attempts a report makes, the first included. Attempt `n`
/// waits [`backoff_before`]`(n)`, so the first attempt is immediate and
/// each retry doubles the wait. After the last failed attempt the report
/// is abandoned and the leader works from stale state until the next
/// reporting interval.
pub(crate) const REPORT_MAX_ATTEMPTS: u32 = 3;

/// Backoff before the first retry; doubles on each further retry.
const REPORT_BASE_BACKOFF: SimDuration = SimDuration::from_millis(100);

/// Backoff waited *before* the given 1-based attempt: zero for the first
/// attempt, `REPORT_BASE_BACKOFF × 2^(attempt−2)` afterwards (saturating
/// on overflow).
pub(crate) fn backoff_before(attempt: u32) -> SimDuration {
    if attempt <= 1 {
        return SimDuration::ZERO;
    }
    let doublings = attempt - 2;
    let factor = if doublings >= 63 {
        u64::MAX
    } else {
        1u64 << doublings
    };
    SimDuration::from_ticks(REPORT_BASE_BACKOFF.ticks().saturating_mul(factor))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_doubles_after_immediate_first_attempt() {
        assert_eq!(backoff_before(1), SimDuration::ZERO);
        assert_eq!(backoff_before(2), SimDuration::from_millis(100));
        assert_eq!(backoff_before(3), SimDuration::from_millis(200));
        assert_eq!(backoff_before(4), SimDuration::from_millis(400));
        assert_eq!(backoff_before(0), SimDuration::ZERO);
    }

    #[test]
    fn retry_backoff_saturates_instead_of_overflowing() {
        let huge = backoff_before(200);
        assert_eq!(huge, SimDuration::from_ticks(u64::MAX));
    }
}
