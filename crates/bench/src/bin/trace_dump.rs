//! Runs one traced timed-cluster simulation and renders the trace: a
//! per-server regime timeline, the per-interval decision ledger (the
//! vertical-vs-horizontal metric behind Figure 4), and the span/counter
//! aggregates. The raw snapshot is written as deterministic JSON.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin trace_dump -- [--seed N] [--servers 24] [--intervals 12] [--out results/trace]
//! ```

use ecolb_bench::{write_file, Args, DEFAULT_SEED};
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::sim::TimedClusterSim;
use ecolb_metrics::json::ToJson;
use ecolb_trace::{DecisionLedgerView, RegimeTimeline, RingTracer};
use ecolb_workload::generator::WorkloadSpec;

fn main() {
    let mut args =
        Args::new("trace_dump [--seed N] [--servers 24] [--intervals 12] [--out results/trace]");
    let seed = args.value("--seed").unwrap_or(DEFAULT_SEED);
    let servers = args.value("--servers").unwrap_or(24usize).max(1);
    let intervals = args.value("--intervals").unwrap_or(12u64).max(1);
    let out_dir: String = args
        .value("--out")
        .unwrap_or_else(|| "results/trace".into());
    args.finish();

    let config = ClusterConfig::paper(servers, WorkloadSpec::paper_low_load());
    let mut tracer = RingTracer::new();
    let report = TimedClusterSim::new(config, seed, intervals).run_traced(&mut tracer);

    let id = format!("trace_seed{seed}");
    let snapshot = tracer.snapshot(&id, seed);

    println!(
        "traced run: {servers} servers, {intervals} intervals, seed {seed} — \
         {} events recorded ({} dropped), {} engine events, {} migrations",
        snapshot.recorded, snapshot.dropped, report.events_processed, report.base.migrations,
    );
    println!();
    println!("Per-server regime timeline (rows: servers, cols: intervals, 1–5 = R1–R5):");
    print!(
        "{}",
        RegimeTimeline::from_events(&snapshot.events).render(30)
    );
    println!();
    println!("Decision ledger (in-cluster vs local scaling, the Fig. 4 metric):");
    print!(
        "{}",
        DecisionLedgerView::from_events(&snapshot.events).render()
    );
    println!();
    println!("Span aggregates (simulated time):");
    for s in &snapshot.spans {
        println!(
            "  {:<10} count {:>6}  total {:>12.1} s",
            s.name,
            s.count,
            s.total_us as f64 / 1e6
        );
    }
    println!("Counters:");
    for (name, value) in &snapshot.counters {
        println!("  {name:<28} {value}");
    }

    let path = format!("{out_dir}/{id}.json");
    write_file(&path, &snapshot.to_json());
    println!("wrote {path}");
}
