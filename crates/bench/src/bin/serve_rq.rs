//! The serving research question (EXPERIMENTS.md "RQ"): does routing
//! requests by operating regime buy latency, energy, or both, compared
//! to regime-blind pickers?
//!
//! For each `(scenario, picker)` cell, one [`ServeSim`] co-simulates the
//! open-loop request stream with the §4 reallocation protocol. The
//! cluster decision stream is identical across pickers (the serving
//! layer never touches cluster state or RNG), so the columns differ only
//! in *where requests went*: total energy (cluster + serve + deferred
//! sleeps), p99 latency, SLA violation fraction, and rejects.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin serve_rq -- [--seed N] [--servers 60] [--intervals 12] [--threads N] [--csv DIR]
//! ```

use ecolb_bench::{write_file, Args, DEFAULT_SEED};
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_metrics::table::{fmt_f, Table};
use ecolb_serve::picker::PickerKind;
use ecolb_serve::sim::{ServeConfig, ServeReport, ServeSim};
use ecolb_simcore::par::{default_threads, map_indexed};
use ecolb_workload::generator::WorkloadSpec;

/// One workload scenario of the RQ sweep.
struct Scenario {
    name: &'static str,
    workload: fn() -> WorkloadSpec,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "low-load",
        workload: WorkloadSpec::paper_low_load,
    },
    Scenario {
        name: "high-load",
        workload: WorkloadSpec::paper_high_load,
    },
    Scenario {
        name: "full-range",
        workload: WorkloadSpec::paper_full_range,
    },
];

/// Overall SLA violation fraction across both classes (0.0 when idle).
fn overall_violation_fraction(r: &ServeReport) -> f64 {
    let served = r.sla.total_served();
    if served == 0 {
        0.0
    } else {
        r.sla.total_violated() as f64 / served as f64
    }
}

fn main() {
    let mut args =
        Args::new("serve_rq [--seed N] [--servers 60] [--intervals 12] [--threads N] [--csv DIR]");
    let seed = args.value("--seed").unwrap_or(DEFAULT_SEED);
    let servers = args.value("--servers").unwrap_or(60usize).max(2);
    let intervals = args.value("--intervals").unwrap_or(12u64).max(1);
    let threads = args
        .value("--threads")
        .unwrap_or_else(default_threads)
        .max(1);
    let csv_dir: Option<String> = args.value("--csv");
    args.finish();

    let cells: Vec<(usize, PickerKind)> = (0..SCENARIOS.len())
        .flat_map(|s| PickerKind::all().into_iter().map(move |p| (s, p)))
        .collect();
    let reports: Vec<(usize, PickerKind, ServeReport)> =
        map_indexed(cells, threads, |_, (scenario, picker)| {
            let cluster = ClusterConfig::paper(servers, (SCENARIOS[scenario].workload)());
            let config = ServeConfig::paper(cluster, picker, intervals);
            (scenario, picker, ServeSim::new(config, seed).run())
        });

    let mut table = Table::new([
        "Scenario",
        "Picker",
        "Admitted",
        "Rejected %",
        "p99 (s)",
        "SLA viol %",
        "Serve (kJ)",
        "Deferred (kJ)",
        "Total (kJ)",
    ])
    .with_title(format!(
        "RQ: energy vs p99 per picker — {servers} servers, {intervals} intervals, seed {seed}"
    ));
    let mut csv = String::from(
        "scenario,picker,admitted,completed,rejected,reject_fraction,p99_s,\
         sla_violation_fraction,serve_energy_j,deferral_energy_j,total_energy_j\n",
    );
    for (scenario, picker, r) in &reports {
        let name = SCENARIOS[*scenario].name;
        table.row([
            name.to_string(),
            picker.label().to_string(),
            r.requests_admitted.to_string(),
            fmt_f(r.reject_fraction() * 100.0, 2),
            fmt_f(r.p99_s(), 3),
            fmt_f(overall_violation_fraction(r) * 100.0, 2),
            fmt_f(r.serve_energy_j / 1e3, 1),
            fmt_f(r.sleep_deferral_energy_j / 1e3, 1),
            fmt_f(r.total_energy_j() / 1e3, 1),
        ]);
        csv.push_str(&format!(
            "{name},{},{},{},{},{:.6},{:.6},{:.6},{:.3},{:.3},{:.3}\n",
            picker.label(),
            r.requests_admitted,
            r.requests_completed,
            r.requests_rejected,
            r.reject_fraction(),
            r.p99_s(),
            overall_violation_fraction(r),
            r.serve_energy_j,
            r.sleep_deferral_energy_j,
            r.total_energy_j()
        ));
    }
    print!("{table}");

    // The headline claim: regime-aware routing dominates round-robin
    // (no worse on both axes, strictly better on one) somewhere.
    let mut dominated = 0usize;
    for (scenario, spec) in SCENARIOS.iter().enumerate() {
        let find = |kind: PickerKind| {
            reports
                .iter()
                .find(|(s, p, _)| *s == scenario && *p == kind)
                .map(|(_, _, r)| r)
                .expect("cell ran")
        };
        let ra = find(PickerKind::RegimeAware);
        let rr = find(PickerKind::RoundRobin);
        let energy = (ra.total_energy_j(), rr.total_energy_j());
        let p99 = (ra.p99_s(), rr.p99_s());
        let dominates =
            energy.0 <= energy.1 && p99.0 <= p99.1 && (energy.0 < energy.1 || p99.0 < p99.1);
        if dominates {
            dominated += 1;
        }
        eprintln!(
            "{}: regime_aware ({:.1} kJ, p99 {:.3} s) vs round_robin ({:.1} kJ, p99 {:.3} s){}",
            spec.name,
            energy.0 / 1e3,
            p99.0,
            energy.1 / 1e3,
            p99.1,
            if dominates { " — dominates" } else { "" }
        );
    }
    eprintln!(
        "regime_aware dominates round_robin in {dominated}/{} scenarios",
        SCENARIOS.len()
    );

    if let Some(dir) = csv_dir {
        let path = format!("{dir}/serve_rq.csv");
        write_file(&path, &csv);
        eprintln!("wrote {path}");
    }
}
