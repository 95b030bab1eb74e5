//! Degradation accounting for faulty runs.
//!
//! When infrastructure faults are injected (server crashes, leader
//! failure, message loss) the interesting question is *how much of the
//! energy-aware policy's value survives*. [`DegradationSummary`] is the
//! compact answer: availability, SLA-violation time, missed consolidation
//! opportunities, and the energy wasted while the cluster was degraded —
//! all serialisable through the standard [`ToJson`] report path.

use crate::json::{ObjectWriter, ToJson};

/// How degraded a (possibly faulty) run was. A fault-free run is
/// `availability = 1.0` with every other field zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegradationSummary {
    /// Fraction of server-time the cluster's hosts were in service:
    /// `1 − crashed-server-seconds / (n × elapsed)`. 1.0 when nothing
    /// ever crashed.
    pub availability: f64,
    /// Seconds of SLA violation: saturated server-intervals plus the time
    /// orphaned VMs spent waiting for re-admission.
    pub sla_violation_seconds: f64,
    /// Consolidation opportunities the cluster missed while leaderless
    /// (awake servers stuck in an undesirable regime with no broker).
    pub failed_consolidations: u64,
    /// Energy burned while the cluster was degraded — leaderless
    /// intervals and aborted wake transitions — Joules.
    pub wasted_energy_j: f64,
    /// Regime reports that exhausted their retry budget and never
    /// reached the leader (the directory balanced that interval on a
    /// stale entry). Previously this exhaustion was silent.
    pub lost_reports: u64,
}

impl DegradationSummary {
    /// True when any degradation at all was recorded.
    pub fn is_degraded(&self) -> bool {
        self.availability < 1.0
            || self.sla_violation_seconds > 0.0
            || self.failed_consolidations > 0
            || self.wasted_energy_j > 0.0
            || self.lost_reports > 0
    }
}

impl ToJson for DegradationSummary {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("availability", &self.availability)
            .field("sla_violation_seconds", &self.sla_violation_seconds)
            .field("failed_consolidations", &self.failed_consolidations)
            .field("wasted_energy_j", &self.wasted_energy_j)
            .field("lost_reports", &self.lost_reports)
            .finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DegradationSummary {
        /// The summary of a run with no faults at all.
        fn fault_free() -> Self {
            DegradationSummary {
                availability: 1.0,
                ..DegradationSummary::default()
            }
        }
    }

    #[test]
    fn fault_free_summary_is_not_degraded() {
        let s = DegradationSummary::fault_free();
        assert_eq!(s.availability, 1.0);
        assert!(!s.is_degraded());
    }

    #[test]
    fn any_nonzero_field_marks_degradation() {
        let mut s = DegradationSummary::fault_free();
        s.failed_consolidations = 1;
        assert!(s.is_degraded());
        let mut s = DegradationSummary::fault_free();
        s.availability = 0.99;
        assert!(s.is_degraded());
        let mut s = DegradationSummary::fault_free();
        s.sla_violation_seconds = 30.0;
        assert!(s.is_degraded());
        let mut s = DegradationSummary::fault_free();
        s.wasted_energy_j = 5.0;
        assert!(s.is_degraded());
        let mut s = DegradationSummary::fault_free();
        s.lost_reports = 2;
        assert!(s.is_degraded());
    }

    #[test]
    fn serialises_through_to_json() {
        let s = DegradationSummary {
            availability: 0.875,
            sla_violation_seconds: 600.0,
            failed_consolidations: 4,
            wasted_energy_j: 123.5,
            lost_reports: 2,
        };
        assert_eq!(
            s.to_json(),
            r#"{"availability":0.875,"sla_violation_seconds":600,"failed_consolidations":4,"wasted_energy_j":123.5,"lost_reports":2}"#
        );
    }
}
