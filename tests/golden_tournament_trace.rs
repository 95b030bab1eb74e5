//! Golden tournament-trace regression: a scenario-compiled serving run
//! — heterogeneous enterprise fleet plus a flash crowd — is pinned
//! byte-for-byte through `RingTracer`, and verified at 1/2/8 `par`
//! threads. This freezes the scenario compiler's output end to end:
//! fleet mix, arrival modulation, SLA split, and the request-path event
//! stream they induce. The golden file lives at
//! `tests/golden/tournament_trace_seed20140109.json`; regenerate it
//! deliberately with:
//!
//! ```text
//! ECOLB_BLESS=1 cargo test --test golden_tournament_trace
//! ```

mod common;

use ecolb_bench::DEFAULT_SEED;
use ecolb_metrics::json::ToJson;
use ecolb_scenarios::tournament::PolicySpec;
use ecolb_scenarios::{FleetSpec, ResilienceSpec, ScenarioSpec, SlaSpec};
use ecolb_serve::sim::{ServeConfig, ServeSim};
use ecolb_trace::{NoTrace, RingTracer, TraceSnapshot};
use ecolb_workload::generator::WorkloadSpec;
use ecolb_workload::processes::{FlashCrowdSpec, RateModulation};
use ecolb_workload::requests::RequestLoadSpec;

const GOLDEN_PATH: &str = "tests/golden/tournament_trace_seed20140109.json";

/// A deliberately tiny scenario that still crosses both tournament
/// axes the plain serve golden never sees: a Koomey-mixed fleet and a
/// non-flat arrival process.
fn scenario() -> ScenarioSpec {
    ScenarioSpec {
        name: "golden_tournament",
        fleet: FleetSpec::enterprise(3),
        workload: WorkloadSpec::paper_low_load(),
        load: RequestLoadSpec {
            // Keep the golden file small: a thin request stream still
            // exercises the full admit/route/complete taxonomy.
            requests_per_demand: 0.25,
            ..RequestLoadSpec::moderate()
        },
        sla: SlaSpec::moderate(),
        modulation: RateModulation::FlashCrowd(FlashCrowdSpec {
            intensity: 1.0,
            onset_s: 60.0,
            ramp_s: 30.0,
            decay_s: 90.0,
            peak_multiplier: 6.0,
            participation: 0.6,
        }),
        spot: None,
        resilience: ResilienceSpec::Off,
        intervals: 2,
    }
}

fn config() -> ServeConfig {
    let policy = PolicySpec::paper();
    scenario().compile(policy.picker, policy.consolidate, DEFAULT_SEED)
}

fn traced_snapshot(seed: u64) -> TraceSnapshot {
    let mut tracer = RingTracer::new();
    let _ = ServeSim::new(config(), seed).run_traced(&mut tracer);
    tracer.snapshot("golden_tournament", seed)
}

#[test]
fn golden_tournament_trace_is_byte_identical_at_any_thread_count() {
    common::assert_golden("golden_tournament_trace", [GOLDEN_PATH], || {
        [traced_snapshot(DEFAULT_SEED).to_json()]
    });
}

#[test]
fn tournament_trace_contains_the_request_path_taxonomy() {
    let snapshot = traced_snapshot(DEFAULT_SEED);
    let names: Vec<&str> = snapshot.events.iter().map(|e| e.kind.name()).collect();
    for required in ["request_admit", "request_route", "request_complete"] {
        assert!(
            names.contains(&required),
            "golden tournament run never emitted `{required}`"
        );
    }
}

#[test]
fn tournament_tracing_does_not_perturb_the_report() {
    let plain = ServeSim::new(config(), DEFAULT_SEED).run();
    let with_notrace = ServeSim::new(config(), DEFAULT_SEED).run_traced(&mut NoTrace);
    assert_eq!(plain, with_notrace, "NoTrace changed the serve report");

    let mut tracer = RingTracer::new();
    let with_ring = ServeSim::new(config(), DEFAULT_SEED).run_traced(&mut tracer);
    assert_eq!(plain, with_ring, "RingTracer changed the serve report");
    assert!(tracer.recorded() > 0, "the ring actually recorded events");
}
