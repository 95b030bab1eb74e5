//! Golden resilience-trace regression: the full resilience event
//! taxonomy (`request_retry` / `request_hedge` / `request_shed` /
//! `breaker_open` / `breaker_close`) is pinned byte-for-byte through a
//! `ServeSim` run with the full policy stack and a mid-run crash, and
//! verified at 1/2/8 `par` threads. The golden file lives at
//! `tests/golden/resilience_trace_seed20140109.json`; regenerate it
//! deliberately with:
//!
//! ```text
//! ECOLB_BLESS=1 cargo test --test golden_resilience_trace
//! ```

mod common;

use ecolb_bench::DEFAULT_SEED;
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::server::ServerId;
use ecolb_faults::plan::FaultPlan;
use ecolb_metrics::json::ToJson;
use ecolb_serve::picker::PickerKind;
use ecolb_serve::resilience::{HedgePolicy, ResiliencePolicy, ShedPolicy};
use ecolb_serve::sim::{ServeConfig, ServeSim};
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_trace::{NoTrace, RingTracer, TraceSnapshot};
use ecolb_workload::generator::WorkloadSpec;

const SERVERS: usize = 3;
const INTERVALS: u64 = 2;
const GOLDEN_PATH: &str = "tests/golden/resilience_trace_seed20140109.json";

/// The full stack with thresholds tightened so a tiny two-interval run
/// still drives every mechanism: hedges fire on ordinary gold service
/// times, sheds on modest backlog, and the mid-run crash (recovering
/// within the horizon) trips and later clears a breaker while killing
/// enough in-flight work to start the retry ladder.
fn config() -> ServeConfig {
    let mut cfg = ServeConfig::paper(
        ClusterConfig::paper(SERVERS, WorkloadSpec::paper_low_load()),
        PickerKind::RegimeAware,
        INTERVALS,
    );
    // Keep the golden file small but the queues non-trivial.
    cfg.load.requests_per_demand = 1.0;
    cfg.faults = Some(FaultPlan::empty(DEFAULT_SEED).with_server_crash(
        SimTime::from_secs(150),
        ServerId(1),
        Some(SimDuration::from_secs(150)),
    ));
    cfg.resilience = ResiliencePolicy {
        hedge: Some(HedgePolicy { threshold_s: 0.1 }),
        shed: Some(ShedPolicy {
            bronze_watermark_s: 0.15,
            gold_watermark_s: 0.3,
        }),
        ..ResiliencePolicy::full()
    };
    cfg
}

fn traced_snapshot(seed: u64) -> TraceSnapshot {
    let mut tracer = RingTracer::new();
    let _ = ServeSim::new(config(), seed).run_traced(&mut tracer);
    tracer.snapshot("golden_resilience", seed)
}

#[test]
fn golden_resilience_trace_is_byte_identical_at_any_thread_count() {
    common::assert_golden("golden_resilience_trace", [GOLDEN_PATH], || {
        [traced_snapshot(DEFAULT_SEED).to_json()]
    });
}

#[test]
fn resilience_trace_contains_the_full_event_taxonomy() {
    let snapshot = traced_snapshot(DEFAULT_SEED);
    let names: Vec<&str> = snapshot.events.iter().map(|e| e.kind.name()).collect();
    for required in [
        "request_admit",
        "request_route",
        "request_complete",
        "request_retry",
        "request_hedge",
        "request_shed",
        "breaker_open",
        "breaker_close",
    ] {
        assert!(
            names.contains(&required),
            "golden resilience run never emitted `{required}`"
        );
    }
}

#[test]
fn resilience_tracing_does_not_perturb_the_report() {
    let plain = ServeSim::new(config(), DEFAULT_SEED).run();
    let with_notrace = ServeSim::new(config(), DEFAULT_SEED).run_traced(&mut NoTrace);
    assert_eq!(plain, with_notrace, "NoTrace changed the serve report");

    let mut tracer = RingTracer::new();
    let with_ring = ServeSim::new(config(), DEFAULT_SEED).run_traced(&mut tracer);
    assert_eq!(plain, with_ring, "RingTracer changed the serve report");
    assert!(tracer.recorded() > 0, "the ring actually recorded events");
}
