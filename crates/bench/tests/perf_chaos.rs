//! Perf smoke: the invariant checker must be cheap enough to leave on.
//!
//! The checker rides the tracer seam, so a checked run pays for (a) the
//! per-interval state digest the cluster builds and hands over through
//! `Tracer::digest` and (b) the checker's own bookkeeping. This smoke
//! test times a checked fault-free run against the plain
//! `TimedClusterSim` on the same seeds with the paired-median probe and
//! asserts the overhead stays under the 8 % budget, then emits
//! `BENCH_chaos.json` through the standard report path. On a 2-vCPU
//! x86-64 host the paired statistic read a median +9.5 % over 20 runs
//! (+2.4 to +13.0 %), and 15 of the 20 runs missed the budget: the
//! checker's per-event work (a window clone for every regime sample) is
//! still open (ROADMAP item 2).
//!
//! ```text
//! cargo test -p ecolb-bench --release -- --ignored perf_chaos
//! ```

use ecolb_bench::perf::emit;
use ecolb_bench::{paired_overhead, DEFAULT_SEED};
use ecolb_chaos::InvariantChecker;
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::sim::TimedClusterSim;
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
fn perf_chaos_checker_overhead() {
    let measured = paired_overhead(
        ROUNDS,
        DEFAULT_SEED,
        |seed| TimedClusterSim::new(config(), seed, INTERVALS).run(),
        |seed| {
            let mut checker = InvariantChecker::new(SIZE as u32);
            let report = TimedClusterSim::new(config(), seed, INTERVALS).run_traced(&mut checker);
            assert!(checker.ok(), "fault-free run violated an invariant");
            assert_eq!(checker.digests_checked(), INTERVALS);
            report
        },
    );
    let (plain_s, checked_s) = (measured.baseline_seconds, measured.candidate_seconds);
    let overhead = measured.robust_overhead();
    println!(
        "perf chaos/checker: plain {:.3} ms, checked {:.3} ms, overhead {:+.2}% \
         (minima {:+.2}%, median {:+.2}%; budget < 8%)",
        plain_s * 1e3,
        checked_s * 1e3,
        overhead * 100.0,
        measured.overhead * 100.0,
        measured.median_overhead * 100.0
    );

    let mut report = Report::new("BENCH_chaos", DEFAULT_SEED);
    report
        .scalar("plain_seconds", plain_s)
        .scalar("checked_seconds", checked_s)
        .scalar("overhead_fraction", overhead)
        .scalar("minima_overhead_fraction", measured.overhead)
        .scalar("median_overhead_fraction", measured.median_overhead)
        .scalar("size", SIZE as f64)
        .scalar("intervals", INTERVALS as f64)
        .scalar("rounds", f64::from(ROUNDS));
    emit(&report).expect("emit BENCH_chaos.json");

    assert!(
        overhead < 0.08,
        "invariant checker costs {:.2}% (budget 8%)",
        overhead * 100.0
    );
}
