//! Golden fault-trace regression: one `FaultyClusterSim` run whose plan
//! fires every fault family — crash-stop, crash-recover, a leader crash
//! that later recovers, report loss, message delay and wake failures —
//! is pinned byte-for-byte, both as the trace snapshot JSON and as the
//! `Debug` rendering of the `FaultyRunReport`, and verified at 1/2/8
//! `par` threads. The golden files live at
//! `tests/golden/fault_trace_seed20140109.json` and
//! `tests/golden/fault_report_seed20140109.txt`; regenerate them
//! deliberately with:
//!
//! ```text
//! ECOLB_BLESS=1 cargo test --test golden_fault_trace
//! ```

mod common;

use ecolb_bench::DEFAULT_SEED;
use ecolb_cluster::admission::ArrivalSpec;
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::server::ServerId;
use ecolb_faults::{FaultPlan, FaultyClusterSim, FaultyRunReport};
use ecolb_metrics::json::ToJson;
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_trace::{RingTracer, TraceSnapshot};
use ecolb_workload::generator::WorkloadSpec;

const SERVERS: usize = 24;
const INTERVALS: u64 = 10;
const TRACE_PATH: &str = "tests/golden/fault_trace_seed20140109.json";
const REPORT_PATH: &str = "tests/golden/fault_report_seed20140109.txt";

/// Fresh service requests land on consolidated hosts and overload them,
/// so the leader issues wake orders for the wake-failure family to hit.
fn config() -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(SERVERS, WorkloadSpec::paper_low_load());
    cfg.arrivals = Some(ArrivalSpec::new(4.0, 0.2, 0.5));
    cfg
}

/// Every fault family at once. The server crash lands mid-interval so
/// its orphans accrue SLA time; the crash-recover and the leader crash
/// both reboot within the horizon.
fn plan() -> FaultPlan {
    FaultPlan::empty(DEFAULT_SEED)
        .with_server_crash(SimTime::from_secs(450), ServerId(5), None)
        .with_server_crash(
            SimTime::from_secs(700),
            ServerId(9),
            Some(SimDuration::from_secs(600)),
        )
        .with_leader_crash(SimTime::from_secs(1000), Some(SimDuration::from_secs(900)))
        .with_message_loss(0.05)
        .with_message_delay(0.5, SimDuration::from_secs(120))
        .with_wake_failures(0.3)
}

fn traced_run(seed: u64) -> (TraceSnapshot, FaultyRunReport) {
    let mut tracer = RingTracer::new();
    let report = FaultyClusterSim::new(config(), seed, INTERVALS, plan()).run_traced(&mut tracer);
    (tracer.snapshot("golden_fault", seed), report)
}

fn rendered(seed: u64) -> [String; 2] {
    let (snapshot, report) = traced_run(seed);
    [snapshot.to_json(), format!("{report:#?}\n")]
}

#[test]
fn golden_fault_trace_is_byte_identical_at_any_thread_count() {
    common::assert_golden("golden_fault_trace", [TRACE_PATH, REPORT_PATH], || {
        rendered(DEFAULT_SEED)
    });
    // The untraced run renders the same report: tracing perturbs nothing.
    let plain = FaultyClusterSim::new(config(), DEFAULT_SEED, INTERVALS, plan()).run();
    assert_eq!(
        format!("{plain:#?}\n"),
        common::golden("golden_fault_trace", REPORT_PATH),
        "tracing changed the report"
    );
}

#[test]
fn golden_fault_run_fires_every_family() {
    let (snapshot, report) = traced_run(DEFAULT_SEED);
    let names: Vec<&str> = snapshot.events.iter().map(|e| e.kind.name()).collect();
    for required in [
        "fault_injected",
        "server_crashed",
        "server_recovered",
        "heartbeat_missed",
        "failover",
        "event_delayed",
        "wake_failed",
        "wake_completed",
    ] {
        assert!(names.contains(&required), "never emitted `{required}`");
    }
    assert_eq!(report.recovery.servers_crashed, 3, "three crashes applied");
    assert_eq!(report.recovery.servers_recovered, 2, "two reboots applied");
    let injected = report.injection;
    assert!(injected.reports_dropped > 0 && injected.wake_failures > 0);
    assert!(injected.migrations_delayed > 0);
    assert!(report.recovery.orphans_readmitted > 0 && report.orphan_downtime_seconds > 0.0);
    assert!(report.degradation.wasted_energy_j > 0.0);
}
