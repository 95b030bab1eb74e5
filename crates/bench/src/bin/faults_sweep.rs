//! Regenerates the fault-injection sweep: the headline in-cluster/local
//! decision ratio and energy savings under three fault regimes of the
//! same seed — fault-free, 1 % message loss, and a leader crash at the
//! run midpoint.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin faults_sweep -- [--seed N]
//! ```

use ecolb_bench::{Args, DEFAULT_SEED};
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::sim::TimedClusterSim;
use ecolb_faults::{CompareWithFaulty, FaultPlan, FaultyClusterSim};
use ecolb_metrics::table::{fmt_f, Table};
use ecolb_simcore::time::SimTime;
use ecolb_workload::generator::WorkloadSpec;

const SIZE: usize = 100;
const INTERVALS: u64 = 40;

fn main() {
    let mut args = Args::new("faults_sweep [--seed N]");
    let seed = args.value("--seed").unwrap_or(DEFAULT_SEED);
    args.finish();

    let config = || ClusterConfig::paper(SIZE, WorkloadSpec::paper_low_load());
    let midpoint = SimTime::from_secs(INTERVALS / 2 * 300);
    let plans = [
        ("fault-free", FaultPlan::empty(seed)),
        (
            "1% msg loss",
            FaultPlan::empty(seed).with_message_loss(0.01),
        ),
        (
            "leader crash @ mid",
            FaultPlan::empty(seed).with_leader_crash(midpoint, None),
        ),
    ];

    let baseline = TimedClusterSim::new(config(), seed, INTERVALS).run();

    let mut table = Table::new([
        "Fault regime",
        "Ratio mean",
        "Savings",
        "Availability",
        "Failovers",
        "Failed consol.",
        "SLA viol. (s)",
        "Wasted E (kJ)",
    ])
    .with_title(format!(
        "Fault sweep: {SIZE} servers at 30% load, {INTERVALS} intervals, seed {seed}"
    ));
    for (name, plan) in plans {
        let r = FaultyClusterSim::new(config(), seed, INTERVALS, plan).run();
        let impact = baseline.fault_impact(&r);
        let ratio = r.timed.base.ratio_series.stats();
        table.row([
            name.to_string(),
            fmt_f(ratio.mean(), 4),
            fmt_f(r.timed.base.savings_fraction(), 4),
            fmt_f(r.degradation.availability, 4),
            r.recovery.failovers.to_string(),
            r.degradation.failed_consolidations.to_string(),
            fmt_f(r.degradation.sla_violation_seconds, 0),
            fmt_f(r.degradation.wasted_energy_j / 1e3, 1),
        ]);
        eprintln!(
            "{name}: ratio delta {:+.4}, savings delta {:+.4}, reports lost {}, \
             retries {}, abandoned {}, leaderless intervals {}",
            impact.ratio_mean_delta,
            impact.savings_delta,
            r.recovery.reports_lost,
            r.recovery.report_retries,
            r.recovery.reports_abandoned,
            r.recovery.leaderless_intervals,
        );
    }
    print!("{table}");
}
