//! Heterogeneous-fleet energy accounting, end to end: a Koomey-mixed
//! cluster runs the full protocol under the `InvariantChecker`, whose
//! class-aware `energy_accounting` invariant requires the per-class
//! energy components of every state digest to sum to the fleet total.
//! A fleet that misattributes joules between volume, mid-range, and
//! high-end servers fails here, not in a downstream report.

use ecolb_bench::DEFAULT_SEED;
use ecolb_cluster::cluster::{Cluster, ClusterConfig};
use ecolb_cluster::mix::ServerMix;
use ecolb_faults::plan::FaultPlan;
use ecolb_faults::sim::FaultyClusterSim;
use ecolb_trace::InvariantChecker;
use ecolb_workload::generator::WorkloadSpec;

const INTERVALS: u64 = 8;

fn mixed_config(n_servers: usize) -> ClusterConfig {
    let mut config = ClusterConfig::paper(n_servers, WorkloadSpec::paper_low_load());
    config.server_mix = ServerMix::typical_enterprise();
    config
}

#[test]
fn mixed_fleet_run_is_clean_under_the_invariant_checker() {
    let n_servers = 24;
    let mut checker = InvariantChecker::new(n_servers as u32);
    let report = FaultyClusterSim::new(
        mixed_config(n_servers),
        DEFAULT_SEED,
        INTERVALS,
        FaultPlan::empty(DEFAULT_SEED),
    )
    .run_traced(&mut checker);
    assert!(
        report.timed.base.energy.total_j() > 0.0,
        "the fleet burned energy"
    );
    assert_eq!(
        checker.digests_checked(),
        INTERVALS,
        "every interval produced a digest"
    );
    let violations = checker.into_violations();
    assert!(violations.is_empty(), "violations: {violations:?}");
}

#[test]
fn enterprise_mix_actually_materialises_multiple_classes() {
    // Guards the test above against vacuity: at 24 servers and the
    // default seed the sampled enterprise fleet must hold at least two
    // distinct Koomey classes, so the class-aware invariant has real
    // cross-class structure to check.
    let cluster = Cluster::new(mixed_config(24), DEFAULT_SEED);
    let distinct: std::collections::BTreeSet<_> = cluster
        .server_classes()
        .iter()
        .map(|c| format!("{c:?}"))
        .collect();
    assert!(
        distinct.len() >= 2,
        "expected a mixed fleet, got only {distinct:?}"
    );
}
