//! The repository benchmark's largest serve cell under the invariant
//! checker: `serve_spot_resilient` — an 800-server enterprise fleet × 12
//! intervals, 100 spot reclaims, power-of-two routing and the full
//! resilience stack — built from the same `ScenarioSpec` the benchmark
//! compiles, at seed 7.
//!
//! The checker sees every request-path event, so `breaker_routing`
//! covers both primary routes and hedge twins while hundreds of breakers
//! open and close. The run must be clean, and tracing must not change
//! its report.
//!
//! ```text
//! cargo test -p ecolb-bench --release --test serve_spot_invariants -- --ignored
//! ```

use ecolb_scenarios::{FleetSpec, ResilienceSpec, ScenarioSpec, SlaSpec, SpotSpec};
use ecolb_serve::picker::PickerKind;
use ecolb_serve::sim::{ServeConfig, ServeSim};
use ecolb_trace::InvariantChecker;
use ecolb_workload::generator::WorkloadSpec;
use ecolb_workload::processes::RateModulation;
use ecolb_workload::requests::RequestLoadSpec;

const SERVERS: usize = 800;
const INTERVALS: u64 = 12;
const SEED: u64 = 7;

fn serve_spot_resilient(seed: u64) -> ServeConfig {
    ScenarioSpec {
        name: "serve_spot_resilient",
        fleet: FleetSpec::enterprise(SERVERS),
        workload: WorkloadSpec::paper_low_load(),
        load: RequestLoadSpec::moderate(),
        sla: SlaSpec::moderate(),
        modulation: RateModulation::Flat,
        spot: Some(SpotSpec {
            count: 100,
            first_reclaim_s: 600.0,
            spacing_s: 20.0,
            recover_after_s: Some(900.0),
        }),
        resilience: ResilienceSpec::Full,
        intervals: INTERVALS,
    }
    .compile(PickerKind::PowerOfTwo, true, seed)
}

#[test]
#[ignore = "release-mode scale check"]
fn serve_spot_resilient_is_clean_under_the_invariant_checker() {
    let untraced = ServeSim::new(serve_spot_resilient(SEED), SEED).run();
    let mut checker = InvariantChecker::new(SERVERS as u32);
    let traced = ServeSim::new(serve_spot_resilient(SEED), SEED).run_traced(&mut checker);
    let digests = checker.digests_checked();
    let violations = checker.into_violations();
    assert!(violations.is_empty(), "violations: {violations:?}");
    assert_eq!(digests, INTERVALS, "one digest per interval");
    assert_eq!(traced, untraced, "the checker perturbed the run");
    let res = &traced.resilience;
    assert!(
        res.breaker_opens > 0 && res.breaker_closes > 0 && res.hedges > 0,
        "the run never exercised breakers and hedges: {res:?}"
    );
}
