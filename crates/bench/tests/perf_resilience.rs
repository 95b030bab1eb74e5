//! Perf smoke: the resilience layer must be (nearly) free when it has
//! nothing to do.
//!
//! The probe pairs two runs of the *same* fault-free physics on the
//! same seeds: the disabled policy — the structural no-op the golden
//! traces pin byte-for-byte — against the full stack *armed but never
//! firing* (every mechanism enabled, every threshold unreachable). A
//! report `assert_eq!` pins the claim that the pair differs only in the
//! bookkeeping carried per request — budget deposits, deadline and
//! watermark comparisons, hedge predicates, breaker polls and success
//! recording — and that cost is budgeted at < 5 %.
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
use ecolb_serve::picker::PickerKind;
use ecolb_serve::resilience::{HedgePolicy, ResiliencePolicy, ShedPolicy};
use ecolb_serve::sim::{ServeConfig, ServeSim};
use ecolb_workload::generator::WorkloadSpec;

const SIZE: usize = 120;
const INTERVALS: u64 = 8;
const ROUNDS: u32 = 9;

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

    let mut report = Report::new("BENCH_resilience", DEFAULT_SEED);
    report
        .scalar("disabled_seconds", cost.baseline_seconds)
        .scalar("armed_idle_seconds", cost.candidate_seconds)
        .scalar("resilience_overhead_fraction", overhead)
        .scalar("size", SIZE as f64)
        .scalar("intervals", INTERVALS as f64)
        .scalar("rounds", f64::from(ROUNDS));
    emit(&report).expect("emit BENCH_resilience.json");

    assert!(
        overhead < 0.05,
        "the armed-idle resilience stack costs {:.2}% over the disabled policy (budget 5%)",
        overhead * 100.0
    );
}
