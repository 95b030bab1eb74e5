//! Resilience accounting for the serving layer.
//!
//! The resilience stack in `ecolb-serve` (deadlines, retries, hedging,
//! circuit breaking, load shedding) needs its own counters: how many
//! attempts were retried or denied by the retry budget, how many gold
//! requests were hedged, how many requests each SLA class shed or lost
//! outright to a crash, and how often instance breakers tripped.
//! [`ResilienceCounters`] is the compact answer, mirroring the
//! [`DegradationSummary`](crate::degradation::DegradationSummary) idiom:
//! `Copy`, all-zero by default, serialisable through [`ToJson`].

use crate::json::{ObjectWriter, ToJson};

/// Number of SLA classes tracked (gold, bronze) — kept in lockstep with
/// [`SlaClassCounters`](crate::latency::SlaClassCounters).
const SLA_CLASSES: usize = 2;

/// Everything the resilience layer counts over one serving run. A run
/// with the policy disabled (or one that never needed it) is all-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceCounters {
    /// Retry attempts actually scheduled (budget granted).
    pub retries: u64,
    /// Retry attempts denied by an exhausted retry budget.
    pub retries_denied: u64,
    /// Hedged (duplicate) attempts issued for gold traffic.
    pub hedges: u64,
    /// Requests shed by admission control, per class (0 = gold,
    /// 1 = bronze).
    pub shed: [u64; SLA_CLASSES],
    /// Requests lost to an instance crash with no retry left, per class.
    pub failed: [u64; SLA_CLASSES],
    /// Closed→open (or half-open→open) breaker transitions.
    pub breaker_opens: u64,
    /// Open→half-open breaker transitions (probe window reopened).
    pub breaker_closes: u64,
    /// Attempts refused at dispatch because the predicted latency
    /// already exceeded the request's deadline.
    pub deadline_misses: u64,
}

impl ResilienceCounters {
    /// Total requests lost outright (crash-killed, all classes).
    pub fn total_failed(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// Total requests shed by admission control (all classes).
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// True when any resilience mechanism left a trace in this run.
    pub fn is_active(&self) -> bool {
        *self != ResilienceCounters::default()
    }

    /// Records a crash-killed request of the given class.
    pub fn record_failed(&mut self, class: usize) {
        self.failed[class.min(SLA_CLASSES - 1)] += 1;
    }

    /// Records a shed request of the given class.
    pub fn record_shed(&mut self, class: usize) {
        self.shed[class.min(SLA_CLASSES - 1)] += 1;
    }
}

impl ToJson for ResilienceCounters {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("retries", &self.retries)
            .field("retries_denied", &self.retries_denied)
            .field("hedges", &self.hedges)
            .field("shed_gold", &self.shed[0])
            .field("shed_bronze", &self.shed[1])
            .field("failed_gold", &self.failed[0])
            .field("failed_bronze", &self.failed[1])
            .field("breaker_opens", &self.breaker_opens)
            .field("breaker_closes", &self.breaker_closes)
            .field("deadline_misses", &self.deadline_misses)
            .finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inactive_and_all_zero() {
        let c = ResilienceCounters::default();
        assert!(!c.is_active());
        assert_eq!(c.total_failed(), 0);
        assert_eq!(c.total_shed(), 0);
    }

    #[test]
    fn any_nonzero_field_marks_activity() {
        let c = ResilienceCounters {
            retries: 1,
            ..ResilienceCounters::default()
        };
        assert!(c.is_active());
        let mut c = ResilienceCounters::default();
        c.record_failed(0);
        assert!(c.is_active());
        assert_eq!(c.total_failed(), 1);
        let mut c = ResilienceCounters::default();
        c.record_shed(1);
        assert!(c.is_active());
        assert_eq!(c.total_shed(), 1);
    }

    #[test]
    fn class_indices_are_clamped() {
        let mut c = ResilienceCounters::default();
        c.record_failed(9);
        c.record_shed(9);
        assert_eq!(c.failed, [0, 1]);
        assert_eq!(c.shed, [0, 1]);
    }

    #[test]
    fn serialises_through_to_json() {
        let c = ResilienceCounters {
            retries: 5,
            retries_denied: 1,
            hedges: 2,
            shed: [0, 3],
            failed: [1, 4],
            breaker_opens: 2,
            breaker_closes: 2,
            deadline_misses: 6,
        };
        assert_eq!(
            c.to_json(),
            r#"{"retries":5,"retries_denied":1,"hedges":2,"shed_gold":0,"shed_bronze":3,"failed_gold":1,"failed_bronze":4,"breaker_opens":2,"breaker_closes":2,"deadline_misses":6}"#
        );
    }
}
