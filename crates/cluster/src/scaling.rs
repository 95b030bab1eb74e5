//! Scaling decisions and the in-cluster/local decision ledger.
//!
//! §5 of the paper distinguishes **vertical scaling** — a VM acquires more
//! resources from its current host, low cost `p_k`, only feasible with
//! local free capacity — from **horizontal scaling** — creating/moving VMs
//! on other servers, high cost `q_k` (leader communication plus image
//! transport). The evaluation's headline series (Figure 3, Table 2) is the
//! per-interval **ratio of in-cluster (high-cost) to local (low-cost)
//! decisions**; [`DecisionLedger`] records it.

use ecolb_metrics::timeseries::TimeSeries;

/// The kind of a scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionKind {
    /// Vertical scaling served locally (cost `p_k`).
    LocalVertical,
    /// Horizontal scaling — a VM migrated inside the cluster (cost `q_k`
    /// plus leader communication `j_k`).
    InClusterHorizontal,
    /// A growth request that could be satisfied neither locally nor in the
    /// cluster this interval (demand deferred; counted separately, not in
    /// the ratio).
    Deferred,
}

impl DecisionKind {
    /// Stable snake_case label used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            DecisionKind::LocalVertical => "local_vertical",
            DecisionKind::InClusterHorizontal => "in_cluster_horizontal",
            DecisionKind::Deferred => "deferred",
        }
    }
}

/// Per-interval decision counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalCounts {
    /// Local vertical-scaling decisions.
    pub local: u64,
    /// In-cluster horizontal-scaling decisions (migrations).
    pub in_cluster: u64,
    /// Deferred growth requests.
    pub deferred: u64,
}

impl IntervalCounts {
    /// The in-cluster/local ratio for this interval. When no local
    /// decision occurred the denominator is taken as 1 (the paper's plots
    /// never divide by zero because vertical actions dominate, but early
    /// intervals of small clusters can be degenerate).
    pub fn ratio(&self) -> f64 {
        self.in_cluster as f64 / (self.local.max(1)) as f64
    }

    /// Total decisions counted in the ratio.
    pub fn total(&self) -> u64 {
        self.local + self.in_cluster
    }
}

/// Accumulates decisions over a run, closing one [`IntervalCounts`] per
/// reallocation interval.
#[derive(Debug, Clone, Default)]
pub struct DecisionLedger {
    current: IntervalCounts,
    closed: Vec<IntervalCounts>,
}

impl DecisionLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decision in the open interval.
    pub fn record(&mut self, kind: DecisionKind) {
        match kind {
            DecisionKind::LocalVertical => self.current.local += 1,
            DecisionKind::InClusterHorizontal => self.current.in_cluster += 1,
            DecisionKind::Deferred => self.current.deferred += 1,
        }
    }

    /// Closes the open interval and starts the next one, returning the
    /// closed counts.
    pub fn close_interval(&mut self) -> IntervalCounts {
        let done = std::mem::take(&mut self.current);
        self.closed.push(done);
        done
    }

    /// All closed intervals in order.
    pub fn intervals(&self) -> &[IntervalCounts] {
        &self.closed
    }

    /// The Figure 3 series: per-interval in-cluster/local ratios.
    pub fn ratio_series(&self) -> TimeSeries {
        TimeSeries::from_values(
            "in_cluster_to_local_ratio",
            self.closed.iter().map(|c| c.ratio()).collect(),
        )
    }

    /// Lifetime totals across closed intervals.
    pub fn totals(&self) -> IntervalCounts {
        let mut t = IntervalCounts::default();
        for c in &self.closed {
            t.local += c.local;
            t.in_cluster += c.in_cluster;
            t.deferred += c.deferred;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_open_interval() {
        let mut l = DecisionLedger::new();
        l.record(DecisionKind::LocalVertical);
        l.record(DecisionKind::LocalVertical);
        l.record(DecisionKind::InClusterHorizontal);
        let open = l.current;
        assert_eq!(open.local, 2);
        assert_eq!(open.in_cluster, 1);
        assert_eq!(open.total(), 3);
    }

    #[test]
    fn close_interval_resets_and_stores() {
        let mut l = DecisionLedger::new();
        l.record(DecisionKind::InClusterHorizontal);
        let c = l.close_interval();
        assert_eq!(c.in_cluster, 1);
        assert_eq!(l.current, IntervalCounts::default());
        assert_eq!(l.intervals().len(), 1);
    }

    #[test]
    fn ratio_with_and_without_locals() {
        let c = IntervalCounts {
            local: 4,
            in_cluster: 2,
            deferred: 0,
        };
        assert!((c.ratio() - 0.5).abs() < 1e-12);
        let degenerate = IntervalCounts {
            local: 0,
            in_cluster: 3,
            deferred: 0,
        };
        assert_eq!(degenerate.ratio(), 3.0, "denominator floors at 1");
    }

    #[test]
    fn deferred_does_not_enter_ratio() {
        let c = IntervalCounts {
            local: 2,
            in_cluster: 2,
            deferred: 100,
        };
        assert!((c.ratio() - 1.0).abs() < 1e-12);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn ratio_series_matches_intervals() {
        let mut l = DecisionLedger::new();
        l.record(DecisionKind::InClusterHorizontal);
        l.record(DecisionKind::LocalVertical);
        l.close_interval(); // ratio 1.0
        l.record(DecisionKind::LocalVertical);
        l.record(DecisionKind::LocalVertical);
        l.record(DecisionKind::InClusterHorizontal);
        l.close_interval(); // ratio 0.5
        let ts = l.ratio_series();
        assert_eq!(ts.values(), &[1.0, 0.5]);
    }

    #[test]
    fn totals_sum_closed_intervals() {
        let mut l = DecisionLedger::new();
        l.record(DecisionKind::LocalVertical);
        l.close_interval();
        l.record(DecisionKind::InClusterHorizontal);
        l.record(DecisionKind::Deferred);
        l.close_interval();
        // Open-interval records are not in totals.
        l.record(DecisionKind::LocalVertical);
        let t = l.totals();
        assert_eq!(t.local, 1);
        assert_eq!(t.in_cluster, 1);
        assert_eq!(t.deferred, 1);
    }
}
