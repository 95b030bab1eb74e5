//! Perf smoke: what the resilience layer costs, idle and firing.
//!
//! Two paired cells, each running baseline and candidate on the same
//! seeds:
//!
//! * **Armed idle.** The disabled policy — the structural no-op the
//!   golden traces pin byte-for-byte — against the full stack *armed but
//!   never firing* (every mechanism enabled, every threshold unreachable)
//!   on a fault-free run. A report `assert_eq!` pins the claim that the
//!   pair differs only in the bookkeeping carried per request — budget
//!   deposits, deadline and watermark comparisons, hedge predicates and
//!   success recording — and that cost is budgeted at < 5 %. No breaker
//!   opens here, so no expiry poll runs.
//! * **Firing.** A spot-reclaim scenario — enterprise fleet, 400 servers
//!   × 8 intervals, 100 reclaims from 600 s every 20 s, power-of-two
//!   routing — with resilience off against the full stack. The candidate
//!   does real extra work (retries, hedge twins, breaker trips and expiry
//!   polls), so this bound is not an idle cost: it catches per-dispatch
//!   work that grows with the fleet, such as an expiry poll or a hedge
//!   alternate that scans every server while breakers are open.
//!
//! Emits `BENCH_resilience.json` through the standard report path.
//!
//! ```text
//! cargo test -p ecolb-bench --release -- --ignored perf_resilience
//! ```

use ecolb_bench::perf::emit;
use ecolb_bench::{paired_overhead, DEFAULT_SEED};
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_metrics::report::Report;
use ecolb_scenarios::{FleetSpec, ResilienceSpec, ScenarioSpec, SlaSpec, SpotSpec};
use ecolb_serve::picker::PickerKind;
use ecolb_serve::resilience::{HedgePolicy, ResiliencePolicy, ShedPolicy};
use ecolb_serve::sim::{ServeConfig, ServeSim};
use ecolb_workload::generator::WorkloadSpec;
use ecolb_workload::processes::RateModulation;
use ecolb_workload::requests::RequestLoadSpec;

const SIZE: usize = 120;
const INTERVALS: u64 = 8;
const ROUNDS: u32 = 9;

const SPOT_SIZE: usize = 400;
const SPOT_INTERVALS: u64 = 8;
const SPOT_ROUNDS: u32 = 7;
/// Bound on the firing cell's overhead: above the +18.9 .. +22.2 % read
/// over 13 runs with the watermarked expiry poll and the indexed hedge
/// alternate, below the +67 .. +77 % of 7 runs with the per-dispatch
/// fleet scans they replaced (2-vCPU host). The serve loop's helper
/// thread then made the resilience-off run cheaper, and the hedge
/// tracks moved from a map to slots the hedged attempts carry: 8
/// alternating runs read a median +25.9 % (+16.7 .. +31.8 %) against
/// +32.3 % (+16.1 .. +36.4 %) for the tree before both changes.
const SPOT_BOUND: f64 = 0.35;

/// The full stack with every trigger pushed out of reach: deadlines,
/// hedges and sheds can never fire on a fault-free run, so the candidate
/// run does all the per-request bookkeeping and none of the physics.
fn armed_idle_policy() -> ResiliencePolicy {
    ResiliencePolicy {
        deadline: Some(1e9),
        hedge: Some(HedgePolicy {
            threshold_s: f64::INFINITY,
        }),
        shed: Some(ShedPolicy {
            bronze_watermark_s: f64::INFINITY,
            gold_watermark_s: f64::INFINITY,
        }),
        ..ResiliencePolicy::full()
    }
}

fn config(policy: ResiliencePolicy) -> ServeConfig {
    let mut cfg = ServeConfig::paper(
        ClusterConfig::paper(SIZE, WorkloadSpec::paper_low_load()),
        PickerKind::RegimeAware,
        INTERVALS,
    );
    cfg.resilience = policy;
    cfg
}

/// The firing cell's scenario: `serve_spot_resilient` of the repository
/// benchmark at half the fleet and two thirds of the horizon.
fn spot_config(resilience: ResilienceSpec, seed: u64) -> ServeConfig {
    ScenarioSpec {
        name: "perf_resilience_spot",
        fleet: FleetSpec::enterprise(SPOT_SIZE),
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
        resilience,
        intervals: SPOT_INTERVALS,
    }
    .compile(PickerKind::PowerOfTwo, true, seed)
}

fn spot_run(resilience: ResilienceSpec, seed: u64) {
    ServeSim::new(spot_config(resilience, seed), seed).run();
}

#[test]
#[ignore = "perf smoke"]
fn perf_resilience_overhead() {
    // The armed-idle stack and the disabled policy must describe the
    // same run — anything else and the probe compares different physics.
    let disabled = ServeSim::new(config(ResiliencePolicy::disabled()), DEFAULT_SEED).run();
    let armed = ServeSim::new(config(armed_idle_policy()), DEFAULT_SEED).run();
    assert_eq!(
        disabled, armed,
        "the armed-idle stack changed the run it was supposed to only observe"
    );
    // The firing cell must fire: breakers open and close, gold hedges.
    let full = ServeSim::new(
        spot_config(ResilienceSpec::Full, DEFAULT_SEED),
        DEFAULT_SEED,
    )
    .run();
    assert!(
        full.resilience.breaker_closes > 0 && full.resilience.hedges > 0,
        "the spot cell never exercised the failure path: {:?}",
        full.resilience
    );

    let cost = paired_overhead(
        ROUNDS,
        DEFAULT_SEED,
        |seed| {
            ServeSim::new(config(ResiliencePolicy::disabled()), seed).run();
        },
        |seed| {
            ServeSim::new(config(armed_idle_policy()), seed).run();
        },
    );
    let overhead = cost.robust_overhead();
    println!(
        "perf resilience: disabled {:.3} ms, armed-idle {:.3} ms, overhead {:+.2}% \
         (budget < 5%)",
        cost.baseline_seconds * 1e3,
        cost.candidate_seconds * 1e3,
        overhead * 100.0
    );

    let spot = paired_overhead(
        SPOT_ROUNDS,
        DEFAULT_SEED,
        |seed| spot_run(ResilienceSpec::Off, seed),
        |seed| spot_run(ResilienceSpec::Full, seed),
    );
    let spot_overhead = spot.robust_overhead();
    println!(
        "perf resilience spot: off {:.3} ms, full {:.3} ms, overhead {:+.2}% \
         (bound < {:.0}%)",
        spot.baseline_seconds * 1e3,
        spot.candidate_seconds * 1e3,
        spot_overhead * 100.0,
        SPOT_BOUND * 100.0
    );

    let mut report = Report::new("BENCH_resilience", DEFAULT_SEED);
    report
        .scalar("disabled_seconds", cost.baseline_seconds)
        .scalar("armed_idle_seconds", cost.candidate_seconds)
        .scalar("resilience_overhead_fraction", overhead)
        .scalar("size", SIZE as f64)
        .scalar("intervals", INTERVALS as f64)
        .scalar("rounds", f64::from(ROUNDS))
        .scalar("spot_off_seconds", spot.baseline_seconds)
        .scalar("spot_full_seconds", spot.candidate_seconds)
        .scalar("spot_overhead_fraction", spot_overhead)
        .scalar("spot_size", SPOT_SIZE as f64)
        .scalar("spot_intervals", SPOT_INTERVALS as f64)
        .scalar("spot_rounds", f64::from(SPOT_ROUNDS));
    emit(&report).expect("emit BENCH_resilience.json");

    assert!(
        overhead < 0.05,
        "the armed-idle resilience stack costs {:.2}% over the disabled policy (budget 5%)",
        overhead * 100.0
    );
    assert!(
        spot_overhead < SPOT_BOUND,
        "the firing resilience stack costs {:.2}% over resilience off on the spot cell \
         (bound {:.0}%)",
        spot_overhead * 100.0,
        SPOT_BOUND * 100.0
    );
}
