//! The chaos sweep: fuzz randomized fault plans across an intensity grid
//! and fail loudly if any run violates a cluster invariant.
//!
//! Every `(sweep seed, intensity, plan index)` cell expands to a
//! deterministic [`FaultPlan`](ecolb_faults::FaultPlan) and runs under
//! the [`InvariantChecker`](ecolb_chaos::InvariantChecker); a violating
//! cell prints its replay triple so the failure reproduces standalone.
//! On a healthy tree the violations column is all zeroes — that is the
//! CI gate (`--ci` exits non-zero on any violation).
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin chaos_sweep -- [--ci] [--seed N]... [--plans 4] [--servers 30] [--intervals 8] [--threads N]
//! ```

use ecolb_bench::Args;
use ecolb_chaos::{intensity_grid, run_plan, sweep, ChaosScenario, FleetKind, SweepSummary};
use ecolb_metrics::table::{fmt_f, Table};
use ecolb_simcore::par::default_threads;

/// Both plan families: the paper's homogeneous fleet, and the
/// Koomey-mixed fleet with scheduled spot reclaims on top.
const FLEETS: [FleetKind; 2] = [FleetKind::Uniform, FleetKind::MixedSpot];

/// Documented CI seed set; override with repeated `--seed N`.
const CI_SEEDS: [u64; 3] = [20140109, 7, 42];
/// Intensity grid steps: 0, 0.25, 0.5, 0.75, 1.
const GRID_STEPS: usize = 4;

fn main() {
    let mut args = Args::new(
        "chaos_sweep [--ci] [--seed N]... [--plans 4] [--servers 30] [--intervals 8] [--threads N]",
    );
    let ci = args.switch("--ci");
    let mut seeds: Vec<u64> = args.values("--seed");
    let plans_per_cell = args.value("--plans").unwrap_or(4u64).max(1);
    let servers = args.value("--servers").unwrap_or(30usize).max(2);
    let intervals = args.value("--intervals").unwrap_or(8u64).max(1);
    let threads = args
        .value("--threads")
        .unwrap_or_else(default_threads)
        .max(1);
    args.finish();
    if seeds.is_empty() {
        seeds = CI_SEEDS.to_vec();
    }

    let grid = intensity_grid(GRID_STEPS);
    let total_plans = grid.len() as u64 * seeds.len() as u64 * plans_per_cell * FLEETS.len() as u64;
    let mut table = Table::new([
        "Fleet",
        "Intensity",
        "Plans",
        "Fault events",
        "Digests checked",
        "Violating plans",
        "Violations",
    ])
    .with_title(format!(
        "Chaos sweep: {servers} servers, {intervals} intervals, seeds {seeds:?}, \
         {total_plans} plans"
    ));

    let mut grand_total = SweepSummary::default();
    for fleet in FLEETS {
        for &intensity in &grid {
            let scenario = ChaosScenario::new(servers, intervals, intensity).with_fleet(fleet);
            let mut row_summary = SweepSummary::default();
            for &seed in &seeds {
                let outcomes = sweep(&scenario, seed, plans_per_cell, threads, run_plan);
                for (index, outcome) in outcomes.iter().enumerate() {
                    for v in &outcome.violations {
                        eprintln!(
                            "VIOLATION fleet {} seed {seed} intensity {intensity} plan \
                             {index}: `{}` at {} µs (server {}): {}",
                            fleet.label(),
                            v.invariant,
                            v.at_us,
                            v.server,
                            v.detail
                        );
                    }
                }
                let s = SweepSummary::of(&outcomes);
                row_summary.plans += s.plans;
                row_summary.violating_plans += s.violating_plans;
                row_summary.violations += s.violations;
                row_summary.events_injected += s.events_injected;
                row_summary.digests_checked += s.digests_checked;
            }
            table.row([
                fleet.label().to_string(),
                fmt_f(intensity, 2),
                row_summary.plans.to_string(),
                row_summary.events_injected.to_string(),
                row_summary.digests_checked.to_string(),
                row_summary.violating_plans.to_string(),
                row_summary.violations.to_string(),
            ]);
            grand_total.plans += row_summary.plans;
            grand_total.violating_plans += row_summary.violating_plans;
            grand_total.violations += row_summary.violations;
            grand_total.events_injected += row_summary.events_injected;
            grand_total.digests_checked += row_summary.digests_checked;
        }
    }
    print!("{table}");
    eprintln!(
        "chaos sweep: {} plans, {} fault events injected, {} digests checked, \
         {} violations",
        grand_total.plans,
        grand_total.events_injected,
        grand_total.digests_checked,
        grand_total.violations
    );

    if !grand_total.clean() {
        eprintln!("replay any failure with its (seed, intensity, plan index) triple above");
        if ci {
            std::process::exit(1);
        }
    } else if ci {
        eprintln!("chaos sweep clean");
    }
}
