//! Experiment SC: engine throughput over a cluster-size × horizon grid,
//! with a CI-ratcheted regression gate.
//!
//! Each grid cell times a full `TimedClusterSim` run (best of a few
//! repetitions) and reports **events/sec** (engine dispatch throughput)
//! and **intervals/sec** (end-to-end simulation throughput). The numbers
//! land in `results/perf/BENCH_scale.json`.
//!
//! The **ratchet** gates the smallest cell (400 servers × 40 intervals)
//! in CI. Asserting on raw wall-clock would tie the budget to one host's
//! speed, so the cell is paired (interleaved, via [`paired_overhead`])
//! against a *fixed-work* LCG baseline: both legs scale with host speed,
//! their ratio does not. The budget sits well above the measured clean
//! ratio — far enough that single-core CI noise cannot trip it, close
//! enough that a 2× throughput regression in the simulation fails the
//! assert (verified by injecting a doubled-work candidate when tuning;
//! see [`RATCHET_BUDGET`]).
//!
//! A second gate bounds how cost grows with cluster size: the scaling
//! exponent between the 400×40 and 4000×40 cells must stay at or under
//! [`SCALING_EXPONENT_BUDGET`]. It is a ratio of two timings on one
//! host, so it too is host-independent.
//!
//! ```text
//! cargo test -p ecolb-bench --release -- --ignored perf_scale
//! ```

use ecolb_bench::perf::emit;
use ecolb_bench::{paired_overhead, DEFAULT_SEED};
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::sim::TimedClusterSim;
use ecolb_cluster::sim::TimedRunReport;
use ecolb_metrics::report::Report;
use ecolb_workload::generator::WorkloadSpec;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The size × horizon grid: (servers, intervals, timing repetitions).
/// Repetitions shrink as cells grow — the large cells are long enough
/// that one run is already a stable measurement.
const GRID: [(usize, u64, u32); 4] = [(400, 40, 5), (400, 400, 3), (4_000, 40, 2), (4_000, 400, 1)];

/// Fixed-work baseline for the ratchet: this many LCG steps take somewhat
/// longer than the 400×40 cell on a contemporary core, so the paired
/// ratio sits a little below 1 and host-speed changes cancel out of it.
/// Re-tune it whenever the cell itself gets much faster or slower: the
/// budget only catches a 2× slowdown while the clean ratio stays near
/// −0.4.
const LCG_ITERS: u64 = 4_000_000;

/// Ratchet budget on `sim_seconds / lcg_seconds - 1` for the 400×40
/// cell. Against the 4 M-step baseline the clean ratio measured −0.43 to
/// −0.16 across repeat runs on a shared 2-vCPU VM, so +0.10 leaves ≥ 25
/// points of headroom against single-core noise. An injected 2× slowdown
/// (the candidate closure running the cell twice, second run on a
/// shifted seed so it cannot reuse warm state) measured +0.14 to +0.63
/// across four runs and failed the assert every time. That is the
/// regression shape this gate exists to catch.
const RATCHET_BUDGET: f64 = 0.10;

/// Ceiling on the size-scaling exponent between the 400×40 and 4000×40
/// cells, `ln(t4000 / t400) / ln 10`. Both cells run on the same host, so
/// the exponent is host-independent. It read ~2.3 while each drain
/// candidate re-sorted every receiver and 1.06–1.27 once the balance round's
/// partner searches became incremental. A return of a per-candidate O(n)
/// pass pushes it back past this ceiling.
const SCALING_EXPONENT_BUDGET: f64 = 1.7;

/// Interleaved rounds for the ratchet measurement.
const RATCHET_ROUNDS: u32 = 9;

fn config(size: usize) -> ClusterConfig {
    ClusterConfig::paper(size, WorkloadSpec::paper_low_load())
}

fn run_cell(size: usize, intervals: u64, seed: u64) -> TimedRunReport {
    TimedClusterSim::new(config(size), seed, intervals).run()
}

/// The fixed-work leg: a multiply-add dependency chain the optimizer
/// cannot shorten, pinned by `black_box`.
fn lcg(iters: u64) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
    }
    black_box(acc)
}

#[test]
#[ignore = "perf smoke"]
fn perf_scale_grid() {
    let mut report = Report::new("BENCH_scale", DEFAULT_SEED);

    // Throughput curve over the grid.
    let mut best_seconds = BTreeMap::new();
    for (size, intervals, reps) in GRID {
        let mut best = f64::INFINITY;
        let mut events = 0u64;
        for rep in 0..reps.max(1) {
            let start = Instant::now();
            let cell = black_box(run_cell(size, intervals, DEFAULT_SEED + u64::from(rep)));
            best = best.min(start.elapsed().as_secs_f64());
            events = cell.events_processed;
        }
        let events_per_sec = events as f64 / best;
        let intervals_per_sec = intervals as f64 / best;
        println!(
            "perf scale/{size}x{intervals}: {:.3} ms best-of-{reps}, {events} events, \
             {events_per_sec:.0} events/s, {intervals_per_sec:.1} intervals/s",
            best * 1e3,
        );
        let key = format!("s{size}x{intervals}");
        report
            .scalar(format!("{key}_seconds"), best)
            .scalar(format!("{key}_events"), events as f64)
            .scalar(format!("{key}_events_per_sec"), events_per_sec)
            .scalar(format!("{key}_intervals_per_sec"), intervals_per_sec);
        best_seconds.insert((size, intervals), best);
    }

    // Size-scaling exponent at the 40-interval horizon.
    let exponent = (best_seconds[&(4_000, 40)] / best_seconds[&(400, 40)]).ln() / 10f64.ln();
    println!(
        "perf scale/exponent: 4000x40 over 400x40 = {exponent:.2} (budget <= {SCALING_EXPONENT_BUDGET:.1})"
    );
    report
        .scalar("scaling_exponent_4000_over_400_x40", exponent)
        .scalar("scaling_exponent_budget", SCALING_EXPONENT_BUDGET);

    // Ratchet: the smallest cell against the fixed-work baseline.
    let measured = paired_overhead(
        RATCHET_ROUNDS,
        DEFAULT_SEED,
        |_| lcg(LCG_ITERS),
        |seed| run_cell(400, 40, seed),
    );
    let ratio = measured.robust_overhead();
    println!(
        "perf scale/ratchet: lcg {:.3} ms, sim 400x40 {:.3} ms, ratio {:+.2}% \
         (minima {:+.2}%, median {:+.2}%; budget < {:+.0}%)",
        measured.baseline_seconds * 1e3,
        measured.candidate_seconds * 1e3,
        ratio * 100.0,
        measured.overhead * 100.0,
        measured.median_overhead * 100.0,
        RATCHET_BUDGET * 100.0
    );
    report
        .scalar("ratchet_lcg_iters", LCG_ITERS as f64)
        .scalar("ratchet_lcg_seconds", measured.baseline_seconds)
        .scalar("ratchet_sim_seconds", measured.candidate_seconds)
        .scalar("ratchet_ratio_overhead", ratio)
        .scalar("ratchet_budget", RATCHET_BUDGET)
        .scalar("ratchet_rounds", f64::from(RATCHET_ROUNDS));

    emit(&report).expect("emit BENCH_scale.json");

    assert!(
        ratio < RATCHET_BUDGET,
        "400x40 throughput ratchet: sim/lcg ratio {:.2} exceeds budget {:.2} — \
         the engine hot path regressed",
        ratio + 1.0,
        RATCHET_BUDGET + 1.0
    );
    assert!(
        exponent <= SCALING_EXPONENT_BUDGET,
        "size-scaling exponent {exponent:.2} exceeds {SCALING_EXPONENT_BUDGET:.1} — \
         per-interval work grew super-linearly in servers"
    );
}
