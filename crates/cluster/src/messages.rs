//! Leader ↔ server message accounting and retry policy.
//!
//! The paper's cluster is organised as a **star topology**: every server is
//! connected to the leader, reports its regime periodically, and the leader
//! brokers load-balancing partners (§4). The leader counts the messages of
//! that protocol by kind ([`MessageStats`]); [`RetryPolicy`] bounds the
//! resends of a message lost on a faulty link.

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

/// Bounded retry-with-backoff policy for messages lost on a faulty link.
///
/// The sender makes up to `max_attempts` tries; attempt `n` (1-based)
/// waits `base_backoff × 2^(n−2)` before resending, i.e. the first
/// attempt is immediate and each retry doubles the wait. After the last
/// failed attempt the message is abandoned and the receiver simply works
/// from stale state until the next reporting interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum delivery attempts (including the first). 0 is treated as 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub base_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Backoff waited *before* the given 1-based attempt: zero for the
    /// first attempt, `base × 2^(attempt−2)` afterwards (saturating on
    /// overflow).
    pub fn backoff_before(&self, attempt: u32) -> SimDuration {
        if attempt <= 1 {
            return SimDuration::ZERO;
        }
        let doublings = attempt - 2;
        let factor = if doublings >= 63 {
            u64::MAX
        } else {
            1u64 << doublings
        };
        SimDuration::from_ticks(self.base_backoff.ticks().saturating_mul(factor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_doubles_after_immediate_first_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_before(1), SimDuration::ZERO);
        assert_eq!(p.backoff_before(2), SimDuration::from_millis(100));
        assert_eq!(p.backoff_before(3), SimDuration::from_millis(200));
        assert_eq!(p.backoff_before(4), SimDuration::from_millis(400));
        assert_eq!(p.backoff_before(0), SimDuration::ZERO);
    }

    #[test]
    fn retry_backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: SimDuration::from_secs(1),
        };
        let huge = p.backoff_before(200);
        assert_eq!(huge, SimDuration::from_ticks(u64::MAX));
    }
}
