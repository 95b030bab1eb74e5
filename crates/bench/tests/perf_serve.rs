//! Perf smoke: regime-aware routing must cost no more than the plain
//! least-loaded pick it structurally matches.
//!
//! Two paired-median probes on the same seeds:
//!
//! 1. **regime-scoring overhead** — `ServeSim` with `RegimeAware` vs
//!    `ServeSim` with `LeastLoaded`. Both pickers are the same horizon
//!    index (an O(log n) argmin per request): one bucket for
//!    least-loaded, one per regime penalty for regime-aware. The pair
//!    isolates the cost of the extra buckets, asserted < 25 % so only a
//!    real regression — not a noisy host window — fails it.
//! 2. **serving-layer cost** — `ServeSim` vs the plain `TimedClusterSim`
//!    on the same cluster config, reported as scalars only: the request
//!    loop legitimately dwarfs the interval loop (hundreds of thousands
//!    of arrivals against a handful of reallocation ticks), so a ratio
//!    budget would gate on traffic volume, not on a code regression.
//!
//! It also records the regime-aware run's request count at the default
//! seed and its throughput (admitted requests over the best of
//! [`ROUNDS`] run times). Emits `BENCH_serve.json` through the standard
//! report path.
//!
//! ```text
//! cargo test -p ecolb-bench --release -- --ignored perf_serve
//! ```

use std::hint::black_box;
use std::time::Instant;

use ecolb_bench::perf::emit;
use ecolb_bench::{paired_overhead, DEFAULT_SEED};
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::sim::TimedClusterSim;
use ecolb_metrics::report::Report;
use ecolb_serve::picker::PickerKind;
use ecolb_serve::sim::{ServeConfig, ServeSim};
use ecolb_workload::generator::WorkloadSpec;

const SIZE: usize = 200;
const INTERVALS: u64 = 10;
const ROUNDS: u32 = 9;

fn cluster() -> ClusterConfig {
    ClusterConfig::paper(SIZE, WorkloadSpec::paper_low_load())
}

fn serve(picker: PickerKind) -> ServeConfig {
    ServeConfig::paper(cluster(), picker, INTERVALS)
}

#[test]
#[ignore = "perf smoke"]
fn perf_serve_overhead() {
    let picker_cost = paired_overhead(
        ROUNDS,
        DEFAULT_SEED,
        |seed| ServeSim::new(serve(PickerKind::LeastLoaded), seed).run(),
        |seed| ServeSim::new(serve(PickerKind::RegimeAware), seed).run(),
    );
    let layer_cost = paired_overhead(
        ROUNDS,
        DEFAULT_SEED,
        |seed| {
            TimedClusterSim::new(cluster(), seed, INTERVALS).run();
        },
        |seed| {
            ServeSim::new(serve(PickerKind::LeastLoaded), seed).run();
        },
    );
    let scoring_overhead = picker_cost.robust_overhead();
    let regime_run = || ServeSim::new(serve(PickerKind::RegimeAware), DEFAULT_SEED).run();
    let requests_admitted = regime_run().requests_admitted;
    let best_run_s = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            black_box(regime_run());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let requests_per_s = requests_admitted as f64 / best_run_s;
    println!(
        "perf serve/scoring: least_loaded {:.3} ms, regime_aware {:.3} ms, overhead {:+.2}% \
         (budget < 25%)",
        picker_cost.baseline_seconds * 1e3,
        picker_cost.candidate_seconds * 1e3,
        scoring_overhead * 100.0
    );
    println!(
        "perf serve/layer: cluster-only {:.3} ms, serving {:.3} ms (informational)",
        layer_cost.baseline_seconds * 1e3,
        layer_cost.candidate_seconds * 1e3,
    );
    println!(
        "perf serve/throughput: regime_aware {requests_admitted} requests, \
         {requests_per_s:.0} requests/s (informational)"
    );

    let mut report = Report::new("BENCH_serve", DEFAULT_SEED);
    report
        .scalar("least_loaded_seconds", picker_cost.baseline_seconds)
        .scalar("regime_aware_seconds", picker_cost.candidate_seconds)
        .scalar("scoring_overhead_fraction", scoring_overhead)
        .scalar("cluster_only_seconds", layer_cost.baseline_seconds)
        .scalar("serving_seconds", layer_cost.candidate_seconds)
        .scalar("requests_admitted", requests_admitted as f64)
        .scalar("requests_per_s", requests_per_s)
        .scalar("size", SIZE as f64)
        .scalar("intervals", INTERVALS as f64)
        .scalar("rounds", f64::from(ROUNDS));
    emit(&report).expect("emit BENCH_serve.json");

    assert!(
        scoring_overhead < 0.25,
        "regime scoring costs {:.2}% over the least-loaded scan (budget 25%)",
        scoring_overhead * 100.0
    );
}
