//! Request-latency accounting for the serving layer.
//!
//! [`LatencyRecorder`] bundles the streaming machinery a per-picker
//! latency profile needs: moments ([`OnlineStats`]), the three SLA tail
//! quantiles via P² ([`P2Quantile`]), and a fixed-bin [`Histogram`] for
//! distribution plots. [`SlaClassCounters`] keeps per-class served /
//! violated totals so a gold/bronze SLA split costs two array slots, not
//! a map. Both are plain data: no clocks, no RNG, deterministic
//! `PartialEq` so whole serving reports can be byte-compared.

use crate::histogram::Histogram;
use crate::quantile::P2Quantile;
use crate::summary::OnlineStats;

/// Number of SLA classes the serving layer distinguishes.
pub const SLA_CLASSES: usize = 2;

/// Streaming latency profile: moments, P² tails, histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRecorder {
    stats: OnlineStats,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
    histogram: Histogram,
}

impl LatencyRecorder {
    /// Creates a recorder whose histogram spans `[0, hi_seconds)` with
    /// `bins` uniform buckets (observations beyond `hi_seconds` land in
    /// the overflow counter, never dropped).
    pub fn new(hi_seconds: f64, bins: usize) -> Self {
        LatencyRecorder {
            stats: OnlineStats::new(),
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
            histogram: Histogram::new(0.0, hi_seconds, bins),
        }
    }

    /// Records one latency sample, seconds.
    pub fn record(&mut self, seconds: f64) {
        self.stats.push(seconds);
        self.p50.push(seconds);
        self.p95.push(seconds);
        self.p99.push(seconds);
        self.histogram.record(seconds);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean latency, seconds; 0.0 for an empty recorder.
    pub fn mean(&self) -> f64 {
        if self.stats.count() == 0 {
            0.0
        } else {
            self.stats.mean()
        }
    }

    /// Maximum latency observed, seconds; 0.0 for an empty recorder.
    pub fn max(&self) -> f64 {
        if self.stats.count() == 0 {
            0.0
        } else {
            self.stats.max()
        }
    }

    /// P² estimate of the median, seconds; 0.0 for an empty recorder.
    pub fn p50(&self) -> f64 {
        self.p50.estimate().unwrap_or(0.0)
    }

    /// P² estimate of the 99th percentile, seconds; 0.0 when empty.
    pub fn p99(&self) -> f64 {
        self.p99.estimate().unwrap_or(0.0)
    }

    /// The underlying moment accumulator.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }
}

/// Per-SLA-class served/violated counters.
///
/// Class indices are fixed (0 = gold, 1 = bronze) so the structure is a
/// pair of arrays rather than a map — `ecolb-metrics` stays a leaf crate
/// and the counters stay `Copy`-cheap and deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlaClassCounters {
    served: [u64; SLA_CLASSES],
    violated: [u64; SLA_CLASSES],
    rejected: [u64; SLA_CLASSES],
}

impl SlaClassCounters {
    /// An all-zero counter set.
    pub fn new() -> Self {
        SlaClassCounters::default()
    }

    /// Records a completed request of `class`; `violated` marks a sample
    /// over the class's latency objective. Out-of-range classes are
    /// clamped to the last class rather than dropped.
    pub fn record(&mut self, class: usize, violated: bool) {
        let c = class.min(SLA_CLASSES - 1);
        self.served[c] += 1;
        if violated {
            self.violated[c] += 1;
        }
    }

    /// Records a rejected request of `class`.
    pub fn record_rejected(&mut self, class: usize) {
        let c = class.min(SLA_CLASSES - 1);
        self.rejected[c] += 1;
    }

    /// Objective violations in `class` (clamped).
    pub fn violated(&self, class: usize) -> u64 {
        self.violated[class.min(SLA_CLASSES - 1)]
    }

    /// Violation fraction for `class`: violated / served, a defined 0.0
    /// when the class served nothing.
    pub fn violation_fraction(&self, class: usize) -> f64 {
        let c = class.min(SLA_CLASSES - 1);
        if self.served[c] == 0 {
            0.0
        } else {
            self.violated[c] as f64 / self.served[c] as f64
        }
    }

    /// Total requests served across classes.
    pub fn total_served(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Total objective violations across classes.
    pub fn total_violated(&self) -> u64 {
        self.violated.iter().sum()
    }

    /// Total rejections across classes.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// P² estimate of the 95th percentile; 0.0 when empty.
    fn p95(r: &LatencyRecorder) -> f64 {
        r.p95.estimate().unwrap_or(0.0)
    }

    #[test]
    fn empty_recorder_reports_zeros_not_nan() {
        let r = LatencyRecorder::new(10.0, 32);
        for v in [r.mean(), r.max(), r.p50(), p95(&r), r.p99()] {
            assert_eq!(v, 0.0);
        }
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn recorder_tracks_tail_above_median() {
        let mut r = LatencyRecorder::new(10.0, 32);
        for i in 0..1000 {
            r.record((i % 100) as f64 / 100.0);
        }
        assert_eq!(r.count(), 1000);
        assert!(r.p99() > p95(&r));
        assert!(p95(&r) > r.p50());
        assert!((r.mean() - 0.495).abs() < 1e-9);
        assert_eq!(r.histogram.total(), 1000);
    }

    #[test]
    fn recorder_equality_is_structural() {
        let mut a = LatencyRecorder::new(5.0, 16);
        let mut b = LatencyRecorder::new(5.0, 16);
        for x in [0.1, 0.4, 2.2, 0.9] {
            a.record(x);
            b.record(x);
        }
        assert_eq!(a, b);
        b.record(0.5);
        assert_ne!(a, b);
    }

    #[test]
    fn sla_counters_split_by_class_and_guard_zero() {
        let mut c = SlaClassCounters::new();
        assert_eq!(c.violation_fraction(0), 0.0);
        c.record(0, false);
        c.record(0, true);
        c.record(1, false);
        c.record_rejected(1);
        assert_eq!(c.served[0], 2);
        assert_eq!(c.violated(0), 1);
        assert_eq!(c.served[1], 1);
        assert_eq!(c.rejected[1], 1);
        assert_eq!(c.total_served(), 3);
        assert_eq!(c.total_violated(), 1);
        assert_eq!(c.total_rejected(), 1);
        assert!((c.violation_fraction(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_class_clamps_to_last() {
        let mut c = SlaClassCounters::new();
        c.record(99, true);
        c.record_rejected(99);
        assert_eq!(c.served[SLA_CLASSES - 1], 1);
        assert_eq!(c.rejected[SLA_CLASSES - 1], 1);
    }
}
