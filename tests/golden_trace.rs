//! Golden-trace regression: the full event log of a reference run is
//! pinned byte-for-byte.
//!
//! The trace layer's determinism contract is stronger than "same report
//! bytes": the *order* of every event, the sim-time stamp on each, and
//! the counter/span aggregates must all replay identically — at any
//! `par` fan-out width, since traces are recorded per-run and never
//! shared across workers. The golden file lives at
//! `tests/golden/trace_seed20140109.json`; regenerate it deliberately
//! with:
//!
//! ```text
//! ECOLB_BLESS=1 cargo test --test golden_trace
//! ```

mod common;

use ecolb_bench::DEFAULT_SEED;
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::sim::TimedClusterSim;
use ecolb_metrics::json::ToJson;
use ecolb_trace::{NoTrace, RingTracer, TraceSnapshot};
use ecolb_workload::generator::WorkloadSpec;

const SERVERS: usize = 24;
const INTERVALS: u64 = 6;
const GOLDEN_PATH: &str = "tests/golden/trace_seed20140109.json";

fn config() -> ClusterConfig {
    ClusterConfig::paper(SERVERS, WorkloadSpec::paper_low_load())
}

fn traced_snapshot(seed: u64) -> TraceSnapshot {
    let mut tracer = RingTracer::new();
    let _ = TimedClusterSim::new(config(), seed, INTERVALS).run_traced(&mut tracer);
    tracer.snapshot("golden", seed)
}

#[test]
fn golden_trace_is_byte_identical_at_any_thread_count() {
    common::assert_golden("golden_trace", [GOLDEN_PATH], || {
        [traced_snapshot(DEFAULT_SEED).to_json()]
    });
}

#[test]
fn tracing_does_not_perturb_the_report() {
    // Structural no-op contract, end to end: the report of a traced run
    // equals the untraced one bit for bit — with the sealed `NoTrace`
    // *and* with a recording `RingTracer` (observation must not steer).
    let plain = TimedClusterSim::new(config(), DEFAULT_SEED, INTERVALS).run();
    let with_notrace =
        TimedClusterSim::new(config(), DEFAULT_SEED, INTERVALS).run_traced(&mut NoTrace);
    assert_eq!(plain, with_notrace, "NoTrace changed the report");

    let mut tracer = RingTracer::new();
    let with_ring = TimedClusterSim::new(config(), DEFAULT_SEED, INTERVALS).run_traced(&mut tracer);
    assert_eq!(plain, with_ring, "RingTracer changed the report");
    assert!(tracer.recorded() > 0, "the ring actually recorded events");
}

#[test]
fn golden_comparison_catches_a_single_event_reorder() {
    // The golden check must be order-sensitive, not just set-sensitive:
    // swapping one adjacent pair of events (keeping their payloads and
    // timestamps intact) has to break the byte comparison.
    let mut snapshot = traced_snapshot(DEFAULT_SEED);
    assert!(
        snapshot.events.len() >= 2,
        "need at least two events to reorder"
    );
    let mid = snapshot.events.len() / 2;
    snapshot.events.swap(mid - 1, mid);
    let mutated = snapshot.to_json();
    assert_ne!(
        mutated,
        common::golden("golden_trace", GOLDEN_PATH),
        "golden comparison failed to detect an event reorder"
    );
}
