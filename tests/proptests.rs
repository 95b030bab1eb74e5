//! Property-based tests spanning the workspace crates, on the hermetic
//! `proptest_lite` harness (seeded cases, no shrinking; failures print a
//! replay seed — see `ecolb_simcore::proptest_lite`).

use ecolb::prelude::*;
use ecolb::simcore::proptest_lite::check;
use ecolb::simcore::rng::Rng;
use ecolb::workload::application::{AppId, Application};
use ecolb_cluster::balance::{balance_round, BalanceConfig};
use ecolb_cluster::migration::MigrationCostModel;
use ecolb_cluster::{Leader, NoFaults, RecoveryStats, Server};
use ecolb_trace::NoTrace;

/// The five regimes partition [0, 1]: every load classifies, and the
/// classification is monotone in the load.
#[test]
fn regimes_partition_and_are_monotone() {
    check("regimes_partition_and_are_monotone", |g| {
        let seed = g.u64();
        let loads = g.vec_f64(0.0, 1.0, 2, 50);
        let mut rng = Rng::new(seed);
        let b = RegimeBoundaries::sample_paper(&mut rng);
        let mut sorted = loads.clone();
        sorted.sort_by(|a, c| a.partial_cmp(c).unwrap());
        let mut prev_idx = 0usize;
        for load in sorted {
            let idx = b.classify(load).index();
            assert!((1..=5).contains(&idx));
            assert!(idx >= prev_idx, "classification must be monotone in load");
            prev_idx = idx;
        }
    });
}

/// A balancing round conserves total load exactly (VMs move, demand
/// does not change).
#[test]
fn balance_round_conserves_load() {
    check("balance_round_conserves_load", |g| {
        let seed = g.u64();
        let n = g.usize_in(2, 30);
        let mut rng = Rng::new(seed);
        let mut next_id = 0u64;
        let mut servers: Vec<Server> = (0..n)
            .map(|i| {
                let b = RegimeBoundaries::sample_paper(&mut rng);
                let mut s = Server::new(
                    ServerId(i as u32),
                    b,
                    LinearPowerModel::typical_volume_server(),
                    SimTime::ZERO,
                );
                let target = rng.uniform(0.0, 0.95);
                let mut placed = 0.0;
                while placed < target {
                    let d = rng.uniform(0.01, 0.2_f64.min(target - placed + 0.01));
                    s.place_app(Application::new(AppId(next_id), d.min(1.0), 0.02, 2.0));
                    next_id += 1;
                    placed += d;
                }
                s
            })
            .collect();
        let before: f64 = servers.iter().map(Server::load).sum();
        let mut leader = Leader::new(n);
        balance_round(
            &mut servers,
            &mut leader,
            &ClusterConfig {
                balance: BalanceConfig {
                    drain_moves_per_candidate: 8,
                    ..Default::default()
                },
                ..ClusterConfig::default()
            },
            SimTime::ZERO,
            &mut NoFaults,
            &mut RecoveryStats::default(),
            &mut NoTrace,
        );
        let after: f64 = servers.iter().map(Server::load).sum();
        assert!((before - after).abs() < 1e-6, "load {before} -> {after}");
    });
}

/// Sleeping servers hold no load after a run: consolidation drains a
/// server completely before it is put to sleep.
#[test]
fn sleeping_servers_are_empty() {
    check("sleeping_servers_are_empty", |g| {
        let seed = g.u64();
        let n = g.usize_in(2, 25);
        let config = ClusterConfig::paper(n, WorkloadSpec::paper_low_load());
        let mut cluster = Cluster::new(config, seed);
        cluster.run(10);
        for s in cluster.servers() {
            if s.is_sleeping() {
                assert_eq!(s.app_count(), 0);
                assert!(s.load() == 0.0);
            }
        }
    });
}

/// Energy breakdown fields are non-negative and total is their sum.
#[test]
fn energy_breakdown_is_consistent() {
    check("energy_breakdown_is_consistent", |g| {
        let seed = g.u64();
        let n = g.usize_in(2, 20);
        let intervals = g.u64_in(1, 12);
        let config = ClusterConfig::paper(n, WorkloadSpec::paper_low_load());
        let mut cluster = Cluster::new(config, seed);
        let report = cluster.run(intervals);
        let e = report.energy;
        assert!(e.active_j >= 0.0);
        assert!(e.idle_overhead_j >= 0.0);
        assert!(e.sleep_j >= 0.0);
        assert!(e.transition_j >= 0.0);
        let sum = e.active_j + e.idle_overhead_j + e.sleep_j + e.transition_j;
        assert!((e.total_j() - sum).abs() < 1e-9);
    });
}

/// Migration cost is monotone in image size and bounded below by the
/// VM start cost.
#[test]
fn migration_cost_monotone_in_image() {
    check("migration_cost_monotone_in_image", |g| {
        let a = g.f64_in(0.1, 64.0);
        let b = g.f64_in(0.1, 64.0);
        let model = MigrationCostModel::default();
        let mk = |gib: f64| Application::new(AppId(0), 0.1, 0.01, gib);
        let ca = model.cost_of(&mk(a));
        let cb = model.cost_of(&mk(b));
        if a < b {
            assert!(ca.energy_j <= cb.energy_j);
            assert!(ca.duration <= cb.duration);
        }
        assert!(ca.energy_j >= model.vm_start_energy_j);
    });
}

/// The homogeneous model's ratio formula always equals the explicit
/// E_ref/E_opt quotient, and savings are consistent with the ratio.
#[test]
fn homogeneous_identity_holds() {
    check("homogeneous_identity_holds", |g| {
        let a_max = g.f64_in(0.05, 1.0);
        let b_avg = g.f64_in(0.05, 1.0);
        let a_opt = g.f64_in(0.05, 1.0);
        let eps = g.f64_in(0.0, 0.2);
        let b_opt = (b_avg + eps).min(1.0);
        let m = HomogeneousModel::new(500, 0.0, a_max, b_avg, a_opt, b_opt);
        let direct = m.e_ref() / m.e_opt();
        assert!((direct - m.energy_ratio()).abs() < 1e-9);
        assert!((m.c_ref() - m.c_opt()).abs() < 1e-6);
        let savings = m.savings_fraction();
        assert!((savings - (1.0 - 1.0 / m.energy_ratio())).abs() < 1e-12);
    });
}

/// Sizing is monotone: more load never needs fewer servers.
#[test]
fn sizing_is_monotone() {
    check("sizing_is_monotone", |g| {
        let r1 = g.f64_in(0.0, 1e5);
        let r2 = g.f64_in(0.0, 1e5);
        let sizing = Sizing::new(100.0, Sla::interactive());
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        assert!(sizing.servers_for(lo) <= sizing.servers_for(hi));
    });
}

/// Decision ratios are never negative and the ledger's totals equal
/// the sum over closed intervals.
#[test]
fn ledger_totals_are_sums() {
    check("ledger_totals_are_sums", |g| {
        let seed = g.u64();
        let n = g.usize_in(2, 20);
        let intervals = g.u64_in(1, 10);
        let config = ClusterConfig::paper(n, WorkloadSpec::paper_high_load());
        let mut cluster = Cluster::new(config, seed);
        let report = cluster.run(intervals);
        assert!(report.ratio_series.values().iter().all(|&v| v >= 0.0));
        let per_interval: u64 = cluster
            .ledger()
            .intervals()
            .iter()
            .map(|c| c.local + c.in_cluster)
            .sum();
        assert_eq!(
            per_interval,
            report.decision_totals.local + report.decision_totals.in_cluster
        );
    });
}
