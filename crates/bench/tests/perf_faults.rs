//! Perf smoke: the fault-injection seams must be free when unused.
//!
//! `FaultyClusterSim` with an **empty** plan routes every reallocation
//! tick through the hooked balance round and every engine event through
//! the interceptor. This smoke test times that against the plain
//! `TimedClusterSim` on the same seeds and asserts the overhead stays
//! under the budget (target < 2 %, asserted at < 5 % to keep the smoke
//! test robust on noisy CI hosts), then emits `BENCH_faults.json`
//! through the standard report path.
//!
//! ```text
//! cargo test -p ecolb-bench --release -- --ignored perf_faults
//! ```

use ecolb_bench::perf::emit;
use ecolb_bench::{paired_overhead, DEFAULT_SEED};
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::sim::TimedClusterSim;
use ecolb_faults::{FaultPlan, FaultyClusterSim};
use ecolb_metrics::report::Report;
use ecolb_workload::generator::WorkloadSpec;

const SIZE: usize = 400;
const INTERVALS: u64 = 40;
const ROUNDS: u32 = 9;

fn config() -> ClusterConfig {
    ClusterConfig::paper(SIZE, WorkloadSpec::paper_low_load())
}

#[test]
#[ignore = "perf smoke"]
fn perf_faults_empty_plan_overhead() {
    let measured = paired_overhead(
        ROUNDS,
        DEFAULT_SEED,
        |seed| TimedClusterSim::new(config(), seed, INTERVALS).run(),
        |seed| FaultyClusterSim::new(config(), seed, INTERVALS, FaultPlan::empty(seed)).run(),
    );
    let (plain_s, hooked_s) = (measured.baseline_seconds, measured.candidate_seconds);
    let overhead = measured.robust_overhead();
    println!(
        "perf faults/empty-plan: plain {:.3} ms, hooked {:.3} ms, overhead {:+.2}% \
         (minima {:+.2}%, median {:+.2}%; target < 2%, budget < 5%)",
        plain_s * 1e3,
        hooked_s * 1e3,
        overhead * 100.0,
        measured.overhead * 100.0,
        measured.median_overhead * 100.0
    );

    let mut report = Report::new("BENCH_faults", DEFAULT_SEED);
    report
        .scalar("plain_seconds", plain_s)
        .scalar("hooked_seconds", hooked_s)
        .scalar("overhead_fraction", overhead)
        .scalar("minima_overhead_fraction", measured.overhead)
        .scalar("median_overhead_fraction", measured.median_overhead)
        .scalar("size", SIZE as f64)
        .scalar("intervals", INTERVALS as f64)
        .scalar("rounds", f64::from(ROUNDS));
    emit(&report).expect("emit BENCH_faults.json");

    assert!(
        overhead < 0.05,
        "empty-plan fault hooks cost {:.2}% (> 5% budget)",
        overhead * 100.0
    );
}
