//! Perf smoke: the scenario harness is a compile-time veneer, not a
//! runtime layer.
//!
//! A [`ScenarioSpec`] compiles to a plain `ServeConfig` before the
//! simulator starts, so a tournament cell must cost the same as the
//! hand-built run it describes. The probe pairs two runs of the *same*
//! physics on the same seeds — a directly-constructed paper config
//! against the neutral scenario (uniform fleet, flat modulation, no
//! spot reclaims) compiled per round — and budgets the robust overhead
//! at < 10 %. A structural `assert_eq!` on the two configs pins the
//! claim that the pair differs only in who wrote the config down.
//!
//! Emits `BENCH_perf_tournament.json` through the standard report path.
//!
//! ```text
//! cargo test -p ecolb-bench --release -- --ignored perf_tournament
//! ```

use ecolb_bench::perf::emit;
use ecolb_bench::{paired_overhead, DEFAULT_SEED};
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_metrics::report::Report;
use ecolb_scenarios::spec::{FleetSpec, ResilienceSpec, ScenarioSpec, SlaSpec};
use ecolb_serve::picker::PickerKind;
use ecolb_serve::sim::{ServeConfig, ServeSim};
use ecolb_workload::generator::WorkloadSpec;
use ecolb_workload::processes::RateModulation;
use ecolb_workload::requests::RequestLoadSpec;

const SIZE: usize = 120;
const INTERVALS: u64 = 8;
const ROUNDS: u32 = 9;

/// The neutral scenario: every axis at its paper default, so the
/// compiled config must equal the hand-built one structurally.
fn scenario() -> ScenarioSpec {
    ScenarioSpec {
        name: "perf_neutral",
        fleet: FleetSpec::uniform(SIZE),
        workload: WorkloadSpec::paper_low_load(),
        load: RequestLoadSpec::moderate(),
        sla: SlaSpec::moderate(),
        modulation: RateModulation::Flat,
        spot: None,
        resilience: ResilienceSpec::Off,
        intervals: INTERVALS,
    }
}

fn direct_config() -> ServeConfig {
    ServeConfig::paper(
        ClusterConfig::paper(SIZE, WorkloadSpec::paper_low_load()),
        PickerKind::RegimeAware,
        INTERVALS,
    )
}

#[test]
#[ignore = "perf smoke"]
fn perf_tournament_overhead() {
    // The neutral scenario and the hand-built config describe the same
    // run — anything else and the probe below compares different physics.
    assert_eq!(
        scenario().compile(PickerKind::RegimeAware, true, DEFAULT_SEED),
        direct_config(),
        "neutral scenario must compile to the hand-built paper config"
    );

    let cost = paired_overhead(
        ROUNDS,
        DEFAULT_SEED,
        |seed| {
            ServeSim::new(direct_config(), seed).run();
        },
        |seed| {
            // The candidate re-compiles the spec every round, so the
            // probe charges the scenario layer for everything it adds.
            let cfg = scenario().compile(PickerKind::RegimeAware, true, seed);
            ServeSim::new(cfg, seed).run();
        },
    );
    let overhead = cost.robust_overhead();
    println!(
        "perf tournament: direct {:.3} ms, scenario-compiled {:.3} ms, overhead {:+.2}% \
         (budget < 10%)",
        cost.baseline_seconds * 1e3,
        cost.candidate_seconds * 1e3,
        overhead * 100.0
    );

    let mut report = Report::new("BENCH_perf_tournament", DEFAULT_SEED);
    report
        .scalar("direct_seconds", cost.baseline_seconds)
        .scalar("scenario_seconds", cost.candidate_seconds)
        .scalar("scenario_overhead_fraction", overhead)
        .scalar("size", SIZE as f64)
        .scalar("intervals", INTERVALS as f64)
        .scalar("rounds", f64::from(ROUNDS));
    emit(&report).expect("emit BENCH_perf_tournament.json");

    assert!(
        overhead < 0.10,
        "scenario compilation costs {:.2}% over the direct run (budget 10%)",
        overhead * 100.0
    );
}
