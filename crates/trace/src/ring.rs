//! The enabled collector: a bounded ring-buffer event log plus counter
//! and span aggregates, snapshotted into a deterministic JSON document.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use ecolb_metrics::json::{ObjectWriter, ToJson};

use crate::event::{TraceEvent, TraceEventKind};
use crate::tracer::{SpanKind, Tracer};

/// Default ring capacity: 65 536 events.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// The recording tracer. Holds the newest `capacity` events (older ones
/// are evicted and tallied in `dropped`), monotonic counters keyed by
/// static name, and per-kind span duration aggregates.
///
/// Never panics: a `span_exit` with no matching open span increments the
/// `unbalanced_span_exits` diagnostic instead.
#[derive(Debug, Clone, Default)]
pub struct RingTracer {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    events: VecDeque<TraceEvent>,
    counters: BTreeMap<&'static str, u64>,
    open_spans: Vec<(SpanKind, u64)>,
    span_stats: BTreeMap<&'static str, (u64, u64)>,
    unbalanced_span_exits: u64,
}

impl RingTracer {
    /// A tracer with the default 65 536-event ring.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A tracer whose ring holds at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        RingTracer {
            capacity: capacity.max(1),
            ..RingTracer::default()
        }
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// The current value of a named counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Freezes the collected state into a serializable snapshot. `id`
    /// names the run (it becomes the document's `"id"` field) and
    /// `seed` records the RNG seed that produced it.
    pub fn snapshot(&self, id: &str, seed: u64) -> TraceSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect();
        let spans = self
            .span_stats
            .iter()
            .map(|(name, (count, total_ticks))| SpanStat {
                name: (*name).to_string(),
                count: *count,
                total_us: *total_ticks,
            })
            .collect();
        TraceSnapshot {
            id: id.to_string(),
            seed,
            capacity: self.capacity as u64,
            recorded: self.next_seq,
            dropped: self.dropped,
            unbalanced_span_exits: self.unbalanced_span_exits,
            counters,
            spans,
            events: self.events.iter().cloned().collect(),
        }
    }
}

impl Tracer for RingTracer {
    fn event(&mut self, at_ticks: u64, kind: TraceEventKind) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            seq: self.next_seq,
            at_us: at_ticks,
            kind,
        });
        self.next_seq += 1;
    }

    fn span_enter(&mut self, at_ticks: u64, span: SpanKind) {
        self.open_spans.push((span, at_ticks));
        self.event(at_ticks, TraceEventKind::SpanEnter { span: span.label() });
    }

    fn span_exit(&mut self, at_ticks: u64, span: SpanKind) {
        let matched = self.open_spans.iter().rposition(|(kind, _)| *kind == span);
        match matched {
            Some(i) => {
                let (_, entered) = self.open_spans.remove(i);
                let slot = self.span_stats.entry(span.label()).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += at_ticks.saturating_sub(entered);
            }
            None => self.unbalanced_span_exits += 1,
        }
        self.event(at_ticks, TraceEventKind::SpanExit { span: span.label() });
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }
}

/// Per-kind span duration aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Span kind label.
    pub name: String,
    /// Completed spans of this kind.
    pub count: u64,
    /// Total simulated microseconds spent inside them.
    pub total_us: u64,
}

impl ToJson for SpanStat {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("name", &self.name)
            .field("count", &self.count)
            .field("total_us", &self.total_us)
            .finish();
    }
}

/// A frozen, serializable view of everything a [`RingTracer`] collected.
/// Rendering is fully deterministic: sorted counter keys, stable span
/// order, events in emission order with gap-free `seq` (modulo ring
/// eviction, which is itself deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// Run identifier (becomes the JSON `"id"` field).
    pub id: String,
    /// RNG seed that produced the traced run.
    pub seed: u64,
    /// Ring capacity the run was traced with.
    pub capacity: u64,
    /// Total events recorded, including evicted ones.
    pub recorded: u64,
    /// Events evicted from the ring.
    pub dropped: u64,
    /// `span_exit` calls that found no matching open span.
    pub unbalanced_span_exits: u64,
    /// Monotonic counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Span duration aggregates, sorted by name.
    pub spans: Vec<SpanStat>,
    /// The retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl ToJson for TraceSnapshot {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("id", &self.id)
            .field("seed", &self.seed)
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded)
            .field("dropped", &self.dropped)
            .field("unbalanced_span_exits", &self.unbalanced_span_exits)
            .field("counters", &self.counters)
            .field("spans", &self.spans)
            .field("events", &self.events)
            .finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = RingTracer::with_capacity(2);
        for i in 0..5u64 {
            t.event(i, TraceEventKind::IntervalStarted { index: i });
        }
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped, 3);
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4], "newest two retained, seq gap-free");
    }

    #[test]
    fn spans_aggregate_sim_time_and_nest() {
        let mut t = RingTracer::new();
        t.span_enter(0, SpanKind::Engine);
        t.span_enter(10, SpanKind::Interval);
        t.span_exit(40, SpanKind::Interval);
        t.span_enter(40, SpanKind::Interval);
        t.span_exit(70, SpanKind::Interval);
        t.span_exit(100, SpanKind::Engine);
        let snap = t.snapshot("spans", 0);
        assert_eq!(
            snap.spans,
            vec![
                SpanStat {
                    name: "engine".to_string(),
                    count: 1,
                    total_us: 100,
                },
                SpanStat {
                    name: "interval".to_string(),
                    count: 2,
                    total_us: 60,
                },
            ]
        );
        assert_eq!(snap.unbalanced_span_exits, 0);
    }

    #[test]
    fn unmatched_span_exit_is_counted_not_fatal() {
        let mut t = RingTracer::new();
        t.span_exit(5, SpanKind::Balance);
        assert_eq!(t.unbalanced_span_exits, 1);
        assert_eq!(t.snapshot("x", 0).spans, vec![]);
    }

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let mut t = RingTracer::new();
        t.counter("engine.scheduled", 2);
        t.counter("balance.reports_delivered", 1);
        t.counter("engine.scheduled", 3);
        let snap = t.snapshot("run", 42);
        let json = snap.to_json();
        let counters_at = json.find("\"counters\"").unwrap();
        assert!(
            json[counters_at..]
                .starts_with(r#""counters":{"balance.reports_delivered":1,"engine.scheduled":5}"#),
            "sorted keys, summed deltas: {json}"
        );
    }

    #[test]
    fn snapshot_json_shape_is_stable() {
        let mut t = RingTracer::with_capacity(8);
        t.event(1_000_000, TraceEventKind::IntervalStarted { index: 0 });
        let json = t.snapshot("golden", 20140109).to_json();
        assert_eq!(
            json,
            r#"{"id":"golden","seed":20140109,"capacity":8,"recorded":1,"dropped":0,"unbalanced_span_exits":0,"counters":{},"spans":[],"events":[{"seq":0,"at_us":1000000,"kind":"interval_started","index":0}]}"#
        );
    }
}
