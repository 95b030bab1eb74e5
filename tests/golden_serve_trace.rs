//! Golden serve-trace regression: the request-path event taxonomy
//! (`request_admit` / `request_route` / `request_complete` /
//! `request_reject`) is pinned byte-for-byte through a full `ServeSim`
//! run, and verified at 1/2/8 `par` threads. The golden file lives at
//! `tests/golden/serve_trace_seed20140109.json`; regenerate it
//! deliberately with:
//!
//! ```text
//! ECOLB_BLESS=1 cargo test --test golden_serve_trace
//! ```

mod common;

use ecolb_bench::DEFAULT_SEED;
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_metrics::json::ToJson;
use ecolb_serve::picker::PickerKind;
use ecolb_serve::sim::{ServeConfig, ServeSim};
use ecolb_trace::{NoTrace, RingTracer, TraceSnapshot};
use ecolb_workload::generator::WorkloadSpec;

const SERVERS: usize = 3;
const INTERVALS: u64 = 2;
const GOLDEN_PATH: &str = "tests/golden/serve_trace_seed20140109.json";

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::paper(
        ClusterConfig::paper(SERVERS, WorkloadSpec::paper_low_load()),
        PickerKind::RegimeAware,
        INTERVALS,
    );
    // Keep the golden file small: a thin request stream still exercises
    // the full admit/route/complete taxonomy.
    cfg.load.requests_per_demand = 0.25;
    cfg
}

fn traced_snapshot(seed: u64) -> TraceSnapshot {
    let mut tracer = RingTracer::new();
    let _ = ServeSim::new(config(), seed).run_traced(&mut tracer);
    tracer.snapshot("golden_serve", seed)
}

#[test]
fn golden_serve_trace_is_byte_identical_at_any_thread_count() {
    common::assert_golden("golden_serve_trace", [GOLDEN_PATH], || {
        [traced_snapshot(DEFAULT_SEED).to_json()]
    });
}

#[test]
fn serve_trace_contains_the_request_path_taxonomy() {
    let snapshot = traced_snapshot(DEFAULT_SEED);
    let names: Vec<&str> = snapshot.events.iter().map(|e| e.kind.name()).collect();
    for required in ["request_admit", "request_route", "request_complete"] {
        assert!(
            names.contains(&required),
            "golden serve run never emitted `{required}`"
        );
    }
}

#[test]
fn serve_tracing_does_not_perturb_the_report() {
    let plain = ServeSim::new(config(), DEFAULT_SEED).run();
    let with_notrace = ServeSim::new(config(), DEFAULT_SEED).run_traced(&mut NoTrace);
    assert_eq!(plain, with_notrace, "NoTrace changed the serve report");

    let mut tracer = RingTracer::new();
    let with_ring = ServeSim::new(config(), DEFAULT_SEED).run_traced(&mut tracer);
    assert_eq!(plain, with_ring, "RingTracer changed the serve report");
    assert!(tracer.recorded() > 0, "the ring actually recorded events");
}
