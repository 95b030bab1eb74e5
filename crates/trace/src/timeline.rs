//! Human-readable views derived from an event log: a per-server regime
//! timeline and the vertical-vs-horizontal decision ledger (the metric
//! behind the paper's Fig. 4).

use std::collections::BTreeMap;

use ecolb_metrics::histogram::Histogram;

use crate::event::{TraceEvent, TraceEventKind};

/// Per-server regime classification over intervals, reconstructed from
/// `interval_started` / `regime_sample` events.
///
/// Rendered as one row per server, one column per interval: `1`–`5` for
/// the sampled regime, `.` where the server emitted no sample that
/// interval (asleep, crashed, or evicted from the ring).
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeTimeline {
    intervals: u64,
    /// `server id -> interval index -> regime (1..=5)`.
    samples: BTreeMap<u32, BTreeMap<u64, u8>>,
}

impl RegimeTimeline {
    /// Reconstructs the timeline from an event log in emission order.
    pub fn from_events(events: &[TraceEvent]) -> RegimeTimeline {
        let mut intervals = 0u64;
        let mut current: Option<u64> = None;
        let mut samples: BTreeMap<u32, BTreeMap<u64, u8>> = BTreeMap::new();
        for ev in events {
            match ev.kind {
                TraceEventKind::IntervalStarted { index } => {
                    current = Some(index);
                    intervals = intervals.max(index + 1);
                }
                TraceEventKind::RegimeSample { server, regime, .. } => {
                    if let Some(interval) = current {
                        samples.entry(server).or_default().insert(interval, regime);
                    }
                }
                _ => {}
            }
        }
        RegimeTimeline { intervals, samples }
    }

    /// Number of intervals the log covers.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Number of servers that emitted at least one sample.
    pub fn servers(&self) -> usize {
        self.samples.len()
    }

    /// The sampled regime for `server` in `interval`, if any.
    pub fn regime(&self, server: u32, interval: u64) -> Option<u8> {
        self.samples.get(&server)?.get(&interval).copied()
    }

    /// Renders at most `max_rows` server rows as an ASCII timeline.
    pub fn render(&self, max_rows: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "regime timeline  ({} servers x {} intervals; 1-5 = R1-R5, . = no sample)\n",
            self.samples.len(),
            self.intervals
        ));
        for (server, row) in self.samples.iter().take(max_rows) {
            out.push_str(&format!("  s{server:04} "));
            for interval in 0..self.intervals {
                out.push(match row.get(&interval) {
                    Some(&r) => char::from(b'0' + r.min(9)),
                    None => '.',
                });
            }
            out.push('\n');
        }
        let hidden = self.samples.len().saturating_sub(max_rows);
        if hidden > 0 {
            out.push_str(&format!("  … {hidden} more servers\n"));
        }
        out
    }
}

/// One closed interval's scaling-decision counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerRow {
    /// 0-based interval index.
    pub interval: u64,
    /// Local vertical-scaling decisions.
    pub local: u64,
    /// In-cluster horizontal-scaling decisions.
    pub in_cluster: u64,
    /// Deferred growth requests.
    pub deferred: u64,
}

impl LedgerRow {
    /// Horizontal/vertical ratio for this interval (the paper's Fig. 4
    /// metric), with the vertical count clamped to at least 1.
    pub fn ratio(&self) -> f64 {
        self.in_cluster as f64 / (self.local.max(1)) as f64
    }
}

/// The decision ledger reconstructed from `interval_closed` events:
/// per-interval vertical vs. horizontal scaling counts plus summary
/// quantiles of the per-interval ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionLedgerView {
    rows: Vec<LedgerRow>,
}

impl DecisionLedgerView {
    /// Reconstructs the ledger from an event log in emission order.
    pub fn from_events(events: &[TraceEvent]) -> DecisionLedgerView {
        let rows = events
            .iter()
            .filter_map(|ev| match ev.kind {
                TraceEventKind::IntervalClosed {
                    index,
                    local,
                    in_cluster,
                    deferred,
                } => Some(LedgerRow {
                    interval: index,
                    local,
                    in_cluster,
                    deferred,
                }),
                _ => None,
            })
            .collect();
        DecisionLedgerView { rows }
    }

    /// Totals over all intervals: `(local, in_cluster, deferred)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.rows.iter().fold((0, 0, 0), |(l, h, d), r| {
            (l + r.local, h + r.in_cluster, d + r.deferred)
        })
    }

    /// Histogram-backed quantile of the per-interval ratio, or `None`
    /// when the log holds no closed intervals.
    pub fn ratio_quantile(&self, q: f64) -> Option<f64> {
        if self.rows.is_empty() {
            return None;
        }
        let hi = self
            .rows
            .iter()
            .map(|r| r.ratio())
            .fold(0.0f64, f64::max)
            .max(1.0);
        let mut h = Histogram::new(0.0, hi * (1.0 + 1e-9), 64);
        for r in &self.rows {
            h.record(r.ratio());
        }
        h.quantile(q)
    }

    /// Renders the ledger as an ASCII table followed by the ratio
    /// quantile summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("decision ledger  (in-cluster horizontal vs. local vertical, per interval)\n");
        out.push_str("  interval  local  in_cluster  deferred  ratio\n");
        for r in &self.rows {
            out.push_str(&format!(
                "  {:>8}  {:>5}  {:>10}  {:>8}  {:>5.2}\n",
                r.interval,
                r.local,
                r.in_cluster,
                r.deferred,
                r.ratio()
            ));
        }
        let (l, h, d) = self.totals();
        out.push_str(&format!(
            "  totals: local={l} in_cluster={h} deferred={d}\n"
        ));
        if let (Some(p10), Some(p50), Some(p90)) = (
            self.ratio_quantile(0.10),
            self.ratio_quantile(0.50),
            self.ratio_quantile(0.90),
        ) {
            out.push_str(&format!(
                "  ratio quantiles: p10={p10:.2} p50={p50:.2} p90={p90:.2}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            seq,
            at_us: seq * 1_000_000,
            kind,
        }
    }

    #[test]
    fn timeline_reconstructs_per_server_regimes() {
        let log = vec![
            ev(0, TraceEventKind::IntervalStarted { index: 0 }),
            ev(
                1,
                TraceEventKind::RegimeSample {
                    server: 0,
                    regime: 2,
                    load: 0.3,
                },
            ),
            ev(
                2,
                TraceEventKind::RegimeSample {
                    server: 1,
                    regime: 4,
                    load: 0.8,
                },
            ),
            ev(3, TraceEventKind::IntervalStarted { index: 1 }),
            ev(
                4,
                TraceEventKind::RegimeSample {
                    server: 0,
                    regime: 3,
                    load: 0.5,
                },
            ),
        ];
        let tl = RegimeTimeline::from_events(&log);
        assert_eq!(tl.intervals(), 2);
        assert_eq!(tl.servers(), 2);
        assert_eq!(tl.regime(0, 0), Some(2));
        assert_eq!(tl.regime(0, 1), Some(3));
        assert_eq!(tl.regime(1, 0), Some(4));
        assert_eq!(tl.regime(1, 1), None, "server 1 slept in interval 1");
        let render = tl.render(10);
        assert!(render.contains("s0000 23"));
        assert!(render.contains("s0001 4."));
    }

    #[test]
    fn timeline_render_caps_rows() {
        let mut log = vec![ev(0, TraceEventKind::IntervalStarted { index: 0 })];
        for s in 0..5u32 {
            log.push(ev(
                1 + s as u64,
                TraceEventKind::RegimeSample {
                    server: s,
                    regime: 1,
                    load: 0.1,
                },
            ));
        }
        let render = RegimeTimeline::from_events(&log).render(2);
        assert!(render.contains("… 3 more servers"));
    }

    #[test]
    fn ledger_rows_totals_and_ratio() {
        let log = vec![
            ev(
                0,
                TraceEventKind::IntervalClosed {
                    index: 0,
                    local: 4,
                    in_cluster: 6,
                    deferred: 1,
                },
            ),
            ev(
                1,
                TraceEventKind::IntervalClosed {
                    index: 1,
                    local: 0,
                    in_cluster: 3,
                    deferred: 0,
                },
            ),
        ];
        let view = DecisionLedgerView::from_events(&log);
        assert_eq!(view.rows.len(), 2);
        assert_eq!(view.totals(), (4, 9, 1));
        assert!((view.rows[0].ratio() - 1.5).abs() < 1e-12);
        assert!(
            (view.rows[1].ratio() - 3.0).abs() < 1e-12,
            "zero vertical count clamps to 1"
        );
        let render = view.render();
        assert!(render.contains("totals: local=4 in_cluster=9 deferred=1"));
        assert!(render.contains("ratio quantiles:"));
    }

    #[test]
    fn empty_ledger_has_no_quantiles() {
        let view = DecisionLedgerView::from_events(&[]);
        assert_eq!(view.ratio_quantile(0.5), None);
        assert_eq!(view.totals(), (0, 0, 0));
    }
}
