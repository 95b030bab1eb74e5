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
//! cargo run --release -p ecolb-bench --bin chaos_sweep [--ci]
//!     [--seed N]... [--plans N] [--servers N] [--intervals N] [--threads N]
//! ```

use ecolb_chaos::{
    generate_plan, intensity_grid, run_plan, ChaosScenario, FleetKind, SweepSummary,
};
use ecolb_metrics::table::{fmt_f, Table};
use ecolb_simcore::par::{default_threads, map_indexed};

/// Both plan families: the paper's homogeneous fleet, and the
/// Koomey-mixed fleet with scheduled spot reclaims on top.
const FLEETS: [FleetKind; 2] = [FleetKind::Uniform, FleetKind::MixedSpot];

/// Documented CI seed set; override with repeated `--seed N`.
const CI_SEEDS: [u64; 3] = [20140109, 7, 42];
/// Intensity grid steps: 0, 0.25, 0.5, 0.75, 1.
const GRID_STEPS: usize = 4;

fn main() {
    let mut seeds: Vec<u64> = Vec::new();
    let mut plans_per_cell: u64 = 4;
    let mut servers: usize = 30;
    let mut intervals: u64 = 8;
    let mut threads = default_threads();
    let mut ci = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs an unsigned integer"))
        };
        match arg.as_str() {
            "--ci" => ci = true,
            "--seed" => seeds.push(num("--seed")),
            "--plans" => plans_per_cell = num("--plans").max(1),
            "--servers" => servers = num("--servers").max(2) as usize,
            "--intervals" => intervals = num("--intervals").max(1),
            "--threads" => threads = num("--threads").max(1) as usize,
            other => panic!(
                "unknown argument {other:?} (supported: --ci --seed N --plans N \
                 --servers N --intervals N --threads N)"
            ),
        }
    }
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
    let mut failures: Vec<(u64, f64, u64)> = Vec::new();
    for fleet in FLEETS {
        for &intensity in &grid {
            let scenario = ChaosScenario::new(servers, intervals, intensity).with_fleet(fleet);
            let mut row_summary = SweepSummary::default();
            for &seed in &seeds {
                let indices: Vec<u64> = (0..plans_per_cell).collect();
                let outcomes = map_indexed(indices, threads, |_, index| {
                    let plan = generate_plan(seed, index, &scenario);
                    (index, run_plan(&scenario, &plan))
                });
                for (index, outcome) in &outcomes {
                    if !outcome.ok() {
                        failures.push((seed, intensity, *index));
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
                }
                let flat: Vec<_> = outcomes.into_iter().map(|(_, o)| o).collect();
                let s = SweepSummary::of(&flat);
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
