//! Edge cases of the failure-recovery protocol that the sweep-style
//! fault tests never hit: correlated crashes taking out the leader *and*
//! its would-be successor in the same interval, a failover landing on a
//! server that is itself stuck mid-drain, and a repeated crash of the
//! same host through the shared crash path.

use ecolb_cluster::cluster::{Cluster, ClusterConfig};
use ecolb_cluster::recovery::NoFaults;
use ecolb_cluster::server::ServerId;
use ecolb_simcore::time::SimTime;
use ecolb_trace::check::InvariantChecker;
use ecolb_trace::RingTracer;
use ecolb_workload::generator::WorkloadSpec;

/// `crash_and_readmit` is the crash path every driver shares. A fresh
/// crash returns the hosted-VM count and queues every orphan for
/// admission; crashing the same host again does nothing at all: no
/// second `server_crashed` event and no second orphan entry, so the VM
/// ledger in the next state digest still balances.
#[test]
fn crash_and_readmit_orphans_a_host_once() {
    let config = ClusterConfig::paper(30, WorkloadSpec::paper_low_load());
    let mut cluster = Cluster::new(config, 20140109);
    let host = ServerId(3);
    let hosted = cluster.servers()[host.index()].app_count();
    assert!(hosted > 0, "paper-load servers start populated");
    let mut tracer = RingTracer::new();
    let at = SimTime::from_secs(10);

    assert_eq!(
        cluster.crash_and_readmit(host, at, &mut tracer),
        Some(hosted)
    );
    assert_eq!(cluster.recovery_stats().orphans_readmitted, hosted as u64);
    assert_eq!(cluster.admission_stats().submitted, hosted as u64);

    assert_eq!(cluster.crash_and_readmit(host, at, &mut tracer), None);
    let crash_events = tracer
        .events()
        .filter(|e| e.kind.name() == "server_crashed")
        .count();
    assert_eq!(crash_events, 1, "the repeated crash emitted an event");
    assert_eq!(cluster.recovery_stats().servers_crashed, 1);
    assert_eq!(cluster.recovery_stats().orphans_readmitted, hosted as u64);
    assert_eq!(cluster.admission_stats().submitted, hosted as u64);

    let mut checker = InvariantChecker::new(30);
    cluster.run_interval_traced(&mut NoFaults, &mut checker);
    assert_eq!(checker.digests_checked(), 1);
    assert!(checker.ok(), "{:?}", checker.into_violations());
}

/// Leader (server 0) and the lowest-id successor candidate (server 1)
/// crash in the same instant. The election must skip both dead hosts
/// and settle on server 2, and both orphan sets must re-enter through
/// admission rather than vanish.
#[test]
fn simultaneous_leader_and_successor_crash_elects_the_next_live_server() {
    let config = ClusterConfig::paper(30, WorkloadSpec::paper_low_load());
    let mut cluster = Cluster::new(config, 20140109);
    assert_eq!(cluster.leader_host(), ServerId(0));

    let t0 = SimTime::ZERO;
    let orphans_leader = cluster.crash_server(ServerId(0), t0);
    let orphans_partner = cluster.crash_server(ServerId(1), t0);
    assert!(
        !orphans_leader.is_empty() && !orphans_partner.is_empty(),
        "paper-load servers start populated"
    );
    let orphan_count = (orphans_leader.len() + orphans_partner.len()) as u64;
    cluster.readmit_orphans(orphans_leader);
    cluster.readmit_orphans(orphans_partner);
    assert!(cluster.leaderless());

    // Interval 1: first missed heartbeat — below the 2-interval timeout,
    // so the cluster stays leaderless and skips balancing.
    cluster.run_interval();
    assert!(cluster.leaderless());
    assert_eq!(cluster.leader_epoch(), 0);
    assert_eq!(cluster.recovery_stats().leaderless_intervals, 1);

    // Interval 2: timeout fires. Servers 0 and 1 are both dead, so the
    // lowest-id *live* server must win the election.
    cluster.run_interval();
    assert!(!cluster.leaderless());
    assert_eq!(cluster.leader_host(), ServerId(2));
    assert_eq!(cluster.leader_epoch(), 1);

    let stats = cluster.recovery_stats();
    assert_eq!(stats.servers_crashed, 2);
    assert_eq!(stats.failovers, 1);
    assert_eq!(stats.heartbeats_missed, 2);
    assert_eq!(stats.orphans_readmitted, orphan_count);

    // The new leader keeps the cluster operational.
    cluster.run_interval();
    assert_eq!(cluster.recovery_stats().heartbeats_sent, 1);
}

/// Failover onto a server that is itself mid-drain. With every server in
/// R1 and no R2 receivers anywhere, drains can never complete: server 1
/// keeps failing to drain and stays awake with its VMs. When the leader
/// crashes, the election picks exactly that half-drained server — and
/// the cluster must keep running under it.
#[test]
fn failover_lands_on_a_server_stuck_mid_drain() {
    let spec = WorkloadSpec {
        load_lo: 0.04,
        load_hi: 0.10,
        ..WorkloadSpec::paper_low_load()
    };
    let mut config = ClusterConfig::paper(12, spec);
    // Let every R1 server request its drain in the same interval (the
    // paper config caps the per-interval consolidation budget).
    config.balance.drain_candidates_per_interval = None;
    let mut cluster = Cluster::new(config, 20140109);

    // One fault-free interval: every awake R1 server requests a drain and
    // fails (nobody is in R2 to receive), so server 1 is mid-drain.
    let outcome = cluster.run_interval();
    assert!(
        outcome.failed_drains.contains(&ServerId(1)),
        "server 1 should be stuck mid-drain, got {:?}",
        outcome.failed_drains
    );
    assert!(outcome.slept.is_empty(), "nothing can fully drain");
    assert!(cluster.servers()[1].is_awake());
    assert!(cluster.servers()[1].app_count() > 0, "still holds VMs");

    // Kill the leader; after the 2-interval heartbeat timeout the
    // mid-drain server 1 is the lowest-id live server and must win.
    let orphans = cluster.crash_server(ServerId(0), cluster.now());
    cluster.readmit_orphans(orphans);
    cluster.run_interval();
    assert!(cluster.leaderless());
    cluster.run_interval();
    assert_eq!(cluster.leader_host(), ServerId(1));
    assert_eq!(cluster.leader_epoch(), 1);
    assert!(cluster.servers()[1].is_awake(), "leader must be awake");

    // Life goes on under the half-drained leader: heartbeats resume and
    // further intervals run without a second election.
    let before = cluster.recovery_stats().heartbeats_sent;
    cluster.run_interval();
    cluster.run_interval();
    let stats = cluster.recovery_stats();
    assert_eq!(stats.heartbeats_sent, before + 2);
    assert_eq!(stats.failovers, 1, "no spurious re-election");
    assert_eq!(cluster.leader_epoch(), 1);
}
