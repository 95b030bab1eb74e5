//! The scenario tournament (EXPERIMENTS.md "TN"): every policy of the
//! roster through every scenario of the catalog, reduced per scenario
//! to the Pareto-dominant set over (total kJ, gold violation-seconds,
//! bronze violation-seconds, p99).
//!
//! The output JSON is a pure function of `(catalog, roster, seed)` —
//! no timings, no host state — so CI runs it at two thread counts and
//! compares the files byte for byte.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin tournament -- [--seed N] [--threads N] [--out results/perf/BENCH_tournament.json]
//! ```

use ecolb_bench::{write_file, Args, DEFAULT_SEED};
use ecolb_metrics::json::{ObjectWriter, ToJson};
use ecolb_metrics::table::{fmt_f, Table};
use ecolb_scenarios::tournament::{dominates, pareto_front, policy_roster, run_cell, CellOutcome};
use ecolb_scenarios::{catalog, PolicySpec, ScenarioSpec};
use ecolb_simcore::par::{default_threads, map_indexed};

/// One scenario's scored column: its cells (roster order) and the
/// labels of the Pareto-dominant policies.
struct ScenarioResult {
    name: &'static str,
    cells: Vec<CellOutcome>,
    frontier: Vec<&'static str>,
}

impl ToJson for ScenarioResult {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("name", &self.name)
            .field("cells", &self.cells)
            .field("pareto", &self.frontier)
            .finish();
    }
}

fn main() {
    let mut args =
        Args::new("tournament [--seed N] [--threads N] [--out results/perf/BENCH_tournament.json]");
    let seed = args.value("--seed").unwrap_or(DEFAULT_SEED);
    let threads = args
        .value("--threads")
        .unwrap_or_else(default_threads)
        .max(1);
    let out_path: String = args
        .value("--out")
        .unwrap_or_else(|| "results/perf/BENCH_tournament.json".into());
    args.finish();

    let scenarios = catalog();
    let roster = policy_roster();
    let cells: Vec<(usize, usize)> = (0..scenarios.len())
        .flat_map(|s| (0..roster.len()).map(move |p| (s, p)))
        .collect();
    let outcomes: Vec<CellOutcome> = map_indexed(cells, threads, |_, (s, p)| {
        run_cell(&scenarios[s], &roster[p], seed)
    });

    let results: Vec<ScenarioResult> = scenarios
        .iter()
        .enumerate()
        .map(|(s, spec)| {
            let cells: Vec<CellOutcome> = outcomes
                .iter()
                .filter(|c| c.scenario == spec.name)
                .cloned()
                .collect();
            let frontier: Vec<&'static str> = pareto_front(&cells)
                .into_iter()
                .map(|i| cells[i].policy)
                .collect();
            let _ = s;
            ScenarioResult {
                name: spec.name,
                cells,
                frontier,
            }
        })
        .collect();

    print_table(&scenarios, &roster, &results, seed);
    let (dominated_in, frontier_in) = paper_summary(&results);
    eprintln!(
        "paper_reactive on the frontier in {}/{} scenarios ({}); dominated in {} ({})",
        frontier_in.len(),
        results.len(),
        frontier_in.join(", "),
        dominated_in.len(),
        dominated_in.join(", ")
    );

    let mut json = String::new();
    ObjectWriter::new(&mut json)
        .field("id", &"BENCH_tournament")
        .field("seed", &seed)
        .field(
            "objectives",
            &vec![
                "total_energy_kj",
                "gold_violation_s",
                "bronze_violation_s",
                "p99_s",
            ],
        )
        .field(
            "policies",
            &roster.iter().map(|p| p.label).collect::<Vec<_>>(),
        )
        .field("scenarios", &results)
        .field("paper_on_frontier_in", &frontier_in)
        .field("paper_dominated_in", &dominated_in)
        .finish();
    json.push('\n');
    write_file(&out_path, &json);
    eprintln!("wrote {out_path}");
}

/// Scenario lists where the paper policy is strictly dominated by some
/// other cell, and where it sits on the Pareto frontier.
fn paper_summary(results: &[ScenarioResult]) -> (Vec<&'static str>, Vec<&'static str>) {
    let mut dominated_in = Vec::new();
    let mut frontier_in = Vec::new();
    for r in results {
        if r.frontier.contains(&"paper_reactive") {
            frontier_in.push(r.name);
        }
        let paper = r
            .cells
            .iter()
            .find(|c| c.policy == "paper_reactive")
            .expect("paper cell ran");
        if r.cells.iter().any(|c| dominates(c, paper)) {
            dominated_in.push(r.name);
        }
    }
    (dominated_in, frontier_in)
}

fn print_table(
    scenarios: &[ScenarioSpec],
    roster: &[PolicySpec],
    results: &[ScenarioResult],
    seed: u64,
) {
    let mut table = Table::new([
        "Scenario",
        "Policy",
        "Total (kJ)",
        "Gold viol (s)",
        "Bronze viol (s)",
        "p99 (s)",
        "Rejected",
        "Pareto",
    ])
    .with_title(format!(
        "TN: scenario tournament — {} scenarios x {} policies, seed {seed}",
        scenarios.len(),
        roster.len()
    ));
    for r in results {
        for c in &r.cells {
            table.row([
                r.name.to_string(),
                c.policy.to_string(),
                fmt_f(c.total_energy_kj, 1),
                fmt_f(c.gold_violation_s, 1),
                fmt_f(c.bronze_violation_s, 1),
                fmt_f(c.p99_s, 3),
                c.rejected.to_string(),
                if r.frontier.contains(&c.policy) {
                    "*".to_string()
                } else {
                    String::new()
                },
            ]);
        }
    }
    print!("{table}");
}
