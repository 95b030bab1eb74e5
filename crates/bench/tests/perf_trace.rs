//! Perf smoke: tracing must be cheap when enabled and free when absent.
//!
//! The disabled path is structural — `run()` delegates through `NoTrace`,
//! whose methods are empty `#[inline(always)]` bodies, so there is
//! nothing to time. What this smoke test bounds is the **enabled** cost:
//! a `RingTracer` on the same seeds must stay within the overhead budget
//! of 10 %. On a 2-vCPU x86-64 host the paired statistic read a median
//! +7.6 % on the 400-server run over 38 runs (−0.5 to +16.9 %, 12 of them
//! over budget); most of what is left is the per-event ring push for
//! every regime sample and the string-keyed counter map (ROADMAP item 2).
//! `BENCH_trace.json` goes through the standard report path.
//!
//! ```text
//! cargo test -p ecolb-bench --release -- --ignored perf_trace
//! ```

use ecolb_bench::perf::emit;
use ecolb_bench::{paired_overhead, DEFAULT_SEED};
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::sim::TimedClusterSim;
use ecolb_metrics::report::Report;
use ecolb_trace::RingTracer;
use ecolb_workload::generator::WorkloadSpec;

const SIZE: usize = 400;
const INTERVALS: u64 = 40;
const ROUNDS: u32 = 9;

fn config() -> ClusterConfig {
    ClusterConfig::paper(SIZE, WorkloadSpec::paper_low_load())
}

#[test]
#[ignore = "perf smoke"]
fn perf_trace_ring_tracer_overhead() {
    let measured = paired_overhead(
        ROUNDS,
        DEFAULT_SEED,
        |seed| TimedClusterSim::new(config(), seed, INTERVALS).run(),
        |seed| {
            let mut tracer = RingTracer::new();
            let report = TimedClusterSim::new(config(), seed, INTERVALS).run_traced(&mut tracer);
            (report, tracer.recorded())
        },
    );
    let (plain_s, traced_s) = (measured.baseline_seconds, measured.candidate_seconds);
    let overhead = measured.robust_overhead();
    println!(
        "perf trace/ring-tracer: plain {:.3} ms, traced {:.3} ms, overhead {:+.2}% \
         (minima {:+.2}%, median {:+.2}%; budget < 10%)",
        plain_s * 1e3,
        traced_s * 1e3,
        overhead * 100.0,
        measured.overhead * 100.0,
        measured.median_overhead * 100.0
    );

    let mut report = Report::new("BENCH_trace", DEFAULT_SEED);
    report
        .scalar("plain_seconds", plain_s)
        .scalar("traced_seconds", traced_s)
        .scalar("overhead_fraction", overhead)
        .scalar("minima_overhead_fraction", measured.overhead)
        .scalar("median_overhead_fraction", measured.median_overhead)
        .scalar("size", SIZE as f64)
        .scalar("intervals", INTERVALS as f64)
        .scalar("rounds", f64::from(ROUNDS));
    emit(&report).expect("emit BENCH_trace.json");

    assert!(
        overhead < 0.10,
        "ring tracer costs {:.2}% (> 10% budget)",
        overhead * 100.0
    );
}
