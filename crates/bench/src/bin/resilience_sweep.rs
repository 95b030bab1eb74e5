//! The resilience sweep (EXPERIMENTS.md "RS"): what does the
//! request-level resilience stack buy under faults, and what does it
//! cost?
//!
//! For each fault intensity on the chaos grid, the same generated
//! plans run through the serving co-simulation three times — no
//! resilience, budgeted retries only, and the full stack (deadlines,
//! retries, gold hedging, breakers, bronze-first shedding). Every run
//! is traced by the [`InvariantChecker`](ecolb_trace::InvariantChecker),
//! so the sweep doubles as the serve-axis chaos gate: the resilience invariants (`retry_budget`,
//! `breaker_routing`, `shed_accounting`) must hold with zero violations
//! while the mechanisms actually fire.
//!
//! The headline claim (`--ci` gates on it): at every nonzero intensity
//! the full stack strictly reduces both gold violation-seconds and
//! failed requests vs the no-resilience baseline, and the table reports
//! the energy cost of that rescue honestly alongside.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin resilience_sweep -- [--ci] [--seed N]... [--plans 3] [--servers 30] [--intervals 8] [--threads N] [--csv DIR]
//! ```

use ecolb_bench::{write_file, Args};
use ecolb_chaos::{intensity_grid, run_serve_plan, sweep, ChaosScenario, FleetKind};
use ecolb_metrics::table::{fmt_f, Table};
use ecolb_scenarios::ResilienceSpec;
use ecolb_simcore::par::default_threads;

/// Documented CI seed set; override with repeated `--seed N`.
const CI_SEEDS: [u64; 2] = [20140109, 7];
/// Intensity grid steps: 0, 0.25, 0.5, 0.75, 1.
const GRID_STEPS: usize = 4;
/// The three columns of the RS table.
const LEVELS: [ResilienceSpec; 3] = [
    ResilienceSpec::Off,
    ResilienceSpec::RetryOnly,
    ResilienceSpec::Full,
];

/// Aggregated metrics of one `(intensity, level)` row.
#[derive(Debug, Clone, Copy, Default)]
struct RowStats {
    gold_violation_s: f64,
    bronze_violation_s: f64,
    failed: u64,
    rejected: u64,
    retries: u64,
    hedges: u64,
    shed: u64,
    total_energy_kj: f64,
    violations: u64,
}

fn main() {
    let mut args = Args::new(
        "resilience_sweep [--ci] [--seed N]... [--plans 3] [--servers 30] [--intervals 8] \
         [--threads N] [--csv DIR]",
    );
    let ci = args.switch("--ci");
    let mut seeds: Vec<u64> = args.values("--seed");
    let plans_per_cell = args.value("--plans").unwrap_or(3u64).max(1);
    let servers = args.value("--servers").unwrap_or(30usize).max(2);
    let intervals = args.value("--intervals").unwrap_or(8u64).max(1);
    let threads = args
        .value("--threads")
        .unwrap_or_else(default_threads)
        .max(1);
    let csv_dir: Option<String> = args.value("--csv");
    args.finish();
    if seeds.is_empty() {
        seeds = CI_SEEDS.to_vec();
    }

    let grid = intensity_grid(GRID_STEPS);
    let mut table = Table::new([
        "Intensity",
        "Level",
        "Gold viol (s)",
        "Bronze viol (s)",
        "Failed",
        "Rejected",
        "Retries",
        "Hedges",
        "Shed",
        "Energy (kJ)",
        "Invariant viol",
    ])
    .with_title(format!(
        "RS: resilience level vs fault intensity — {servers} servers, {intervals} intervals, \
         seeds {seeds:?}, {plans_per_cell} plans/cell, mixed-spot fleet"
    ));
    let mut csv = String::from(
        "intensity,level,gold_violation_s,bronze_violation_s,failed,rejected,retries,\
         hedges,shed,total_energy_kj,invariant_violations\n",
    );

    // rows[(intensity index, level index)] — filled level-major so the
    // dominance check below can pair columns at each intensity.
    let mut rows: Vec<Vec<RowStats>> = Vec::new();
    let mut invariant_violations = 0u64;
    for &intensity in &grid {
        // The mixed-spot fleet guarantees at least one scheduled reclaim
        // at every nonzero intensity, so the comparison is never vacuous.
        let scenario =
            ChaosScenario::new(servers, intervals, intensity).with_fleet(FleetKind::MixedSpot);
        let mut level_rows = Vec::new();
        for level in LEVELS {
            let policy = level.policy();
            let mut stats = RowStats::default();
            for &seed in &seeds {
                let run = |s: &_, plan: &_| run_serve_plan(s, plan, policy);
                for o in &sweep(&scenario, seed, plans_per_cell, threads, run) {
                    let r = &o.report;
                    stats.gold_violation_s += r.violation_seconds[0];
                    stats.bronze_violation_s += r.violation_seconds[1];
                    stats.failed += r.requests_failed;
                    stats.rejected += r.requests_rejected;
                    stats.retries += r.resilience.retries;
                    stats.hedges += r.resilience.hedges;
                    stats.shed += r.resilience.total_shed();
                    stats.total_energy_kj += r.total_energy_j() / 1e3;
                    stats.violations += o.violations.len() as u64;
                    for v in &o.violations {
                        eprintln!(
                            "VIOLATION level {} seed {seed} intensity {intensity}: `{}` at \
                             {} µs (server {}): {}",
                            level.label(),
                            v.invariant,
                            v.at_us,
                            v.server,
                            v.detail
                        );
                    }
                }
            }
            invariant_violations += stats.violations;
            table.row([
                fmt_f(intensity, 2),
                level.label().to_string(),
                fmt_f(stats.gold_violation_s, 1),
                fmt_f(stats.bronze_violation_s, 1),
                stats.failed.to_string(),
                stats.rejected.to_string(),
                stats.retries.to_string(),
                stats.hedges.to_string(),
                stats.shed.to_string(),
                fmt_f(stats.total_energy_kj, 1),
                stats.violations.to_string(),
            ]);
            csv.push_str(&format!(
                "{intensity},{},{:.3},{:.3},{},{},{},{},{},{:.3},{}\n",
                level.label(),
                stats.gold_violation_s,
                stats.bronze_violation_s,
                stats.failed,
                stats.rejected,
                stats.retries,
                stats.hedges,
                stats.shed,
                stats.total_energy_kj,
                stats.violations
            ));
            level_rows.push(stats);
        }
        rows.push(level_rows);
    }
    print!("{table}");

    // The headline claim, stated per intensity with the energy bill.
    let mut dominated = true;
    for (i, &intensity) in grid.iter().enumerate() {
        let (off, full) = (rows[i][0], rows[i][2]);
        if intensity <= 0.0 {
            eprintln!(
                "intensity 0.00: structural no-op band — full stack {:+.2}% energy",
                (full.total_energy_kj / off.total_energy_kj - 1.0) * 100.0
            );
            continue;
        }
        let better = full.gold_violation_s < off.gold_violation_s && full.failed < off.failed;
        dominated &= better;
        eprintln!(
            "intensity {intensity:.2}: gold viol {:.1} → {:.1} s, failed {} → {}, \
             energy {:+.2}%{}",
            off.gold_violation_s,
            full.gold_violation_s,
            off.failed,
            full.failed,
            (full.total_energy_kj / off.total_energy_kj - 1.0) * 100.0,
            if better {
                ""
            } else {
                " — NOT strictly better"
            }
        );
    }

    if let Some(dir) = csv_dir {
        let path = format!("{dir}/resilience_sweep.csv");
        write_file(&path, &csv);
        eprintln!("wrote {path}");
    }

    let clean = invariant_violations == 0;
    if !clean {
        eprintln!("serve-axis chaos: {invariant_violations} invariant violations");
    }
    if !dominated {
        eprintln!("full stack failed to dominate the no-resilience baseline somewhere");
    }
    if ci {
        if !(clean && dominated) {
            std::process::exit(1);
        }
        eprintln!("resilience sweep clean: full stack dominates at every nonzero intensity");
    }
}
