//! Multi-cluster federation.
//!
//! §4 of the paper motivates the clustered organisation with scalability:
//! *"as the number of systems increase we add new clusters"*. Each cluster
//! keeps its own leader and runs the §4 protocol on local state; the
//! federation layer adds the inter-cluster tier — when one cluster runs
//! hot while another runs cold, whole applications migrate across cluster
//! boundaries over the (slower, costlier) core network.
//!
//! This is the paper's future-work tier, built to the same cost
//! discipline: a cross-cluster move is strictly more expensive than an
//! in-cluster one (`q_inter > q_intra > p`), so the federation only acts
//! on sustained imbalance beyond configurable watermarks.

use crate::cluster::{Cluster, ClusterConfig};
use crate::migration::MigrationCostModel;
use crate::server::Server;
use ecolb_metrics::timeseries::TimeSeries;
use ecolb_workload::application::Application;

/// Federation-level tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederationConfig {
    /// A cluster above this load fraction is a cross-cluster donor.
    pub high_watermark: f64,
    /// A cluster below this load fraction is a cross-cluster receiver.
    pub low_watermark: f64,
    /// Maximum applications moved across clusters per interval.
    pub moves_per_interval: usize,
    /// Cost model of the inter-cluster core network (slower than the
    /// in-cluster fabric).
    pub inter_cluster_network: MigrationCostModel,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            high_watermark: 0.70,
            low_watermark: 0.45,
            moves_per_interval: 8,
            // A quarter of the in-cluster bandwidth, double the transfer
            // overhead: the WAN/core tier.
            inter_cluster_network: MigrationCostModel {
                link_gbps: 2.5,
                transfer_overhead_w: 60.0,
                ..MigrationCostModel::default()
            },
        }
    }
}

/// Result of a federation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationReport {
    /// Per-cluster load series.
    pub cluster_loads: Vec<TimeSeries>,
    /// Applications moved across cluster boundaries.
    pub cross_migrations: u64,
    /// Energy charged to cross-cluster transfers, Joules.
    pub cross_migration_energy_j: f64,
    /// Per-interval spread between the hottest and coldest cluster.
    pub load_spread: TimeSeries,
    /// Total servers asleep across the federation at the end.
    pub sleeping_total: usize,
}

/// A set of clusters with an inter-cluster balancing tier.
#[derive(Debug)]
pub struct Federation {
    clusters: Vec<Cluster>,
    config: FederationConfig,
    cross_migrations: u64,
    cross_migration_energy_j: f64,
}

impl Federation {
    /// Builds a federation; each cluster gets an independent seed derived
    /// from `seed`.
    pub fn new(configs: Vec<ClusterConfig>, config: FederationConfig, seed: u64) -> Self {
        assert!(!configs.is_empty(), "federation needs at least one cluster");
        assert!(
            config.low_watermark < config.high_watermark,
            "watermarks inverted: {} >= {}",
            config.low_watermark,
            config.high_watermark
        );
        let clusters = configs
            .into_iter()
            .enumerate()
            .map(|(i, c)| Cluster::new(c, seed.wrapping_add(0x9E37 * (i as u64 + 1))))
            .collect();
        Federation {
            clusters,
            config,
            cross_migrations: 0,
            cross_migration_energy_j: 0.0,
        }
    }

    /// The member clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Load fraction of each cluster.
    pub fn loads(&self) -> Vec<f64> {
        self.clusters.iter().map(Cluster::load_fraction).collect()
    }

    /// Mean load fraction across member clusters — a defined 0.0
    /// (never NaN) for an empty federation, matching the guard style of
    /// [`Cluster::interval_stats`].
    pub fn mean_load(&self) -> f64 {
        if self.clusters.is_empty() {
            return 0.0;
        }
        self.loads().iter().sum::<f64>() / self.clusters.len() as f64
    }

    /// One federation interval: every cluster runs its own reallocation
    /// interval, then the inter-cluster tier moves applications from hot
    /// clusters to cold ones.
    pub fn run_interval(&mut self) {
        for c in &mut self.clusters {
            c.run_interval();
        }
        self.rebalance_across_clusters();
    }

    fn rebalance_across_clusters(&mut self) {
        for _ in 0..self.config.moves_per_interval {
            let loads = self.loads();
            let (hot, &hot_load) = match loads.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))
            {
                Some(x) => x,
                None => return,
            };
            let (cold, &cold_load) =
                match loads.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)) {
                    Some(x) => x,
                    None => return,
                };
            if hot == cold
                || hot_load < self.config.high_watermark
                || cold_load > self.config.low_watermark
            {
                return; // no sustained imbalance
            }
            if !self.move_one_app(hot, cold) {
                return; // nothing movable
            }
        }
    }

    /// Moves the largest app of the hot cluster's most loaded server onto
    /// the cold cluster's fullest fitting server. Returns false when no
    /// placement exists.
    fn move_one_app(&mut self, hot: usize, cold: usize) -> bool {
        let donor_server = match self.clusters[hot]
            .servers()
            .iter()
            .filter(|s| s.is_awake() && s.app_count() > 0)
            .max_by(|a, b| a.load().total_cmp(&b.load()))
        {
            Some(s) => s.id(),
            None => return false,
        };
        // The donor passed the `app_count() > 0` filter, so it has a
        // largest app; bail out rather than panic if that ever changes.
        let app_id = match self.clusters[hot].servers()[donor_server.index()]
            .apps()
            .iter()
            .max_by(|a, b| a.demand.total_cmp(&b.demand))
        {
            Some(a) => a.id,
            None => return false,
        };
        // Find a receiver in the cold cluster before committing the take.
        let Some(demand) = self.clusters[hot].servers()[donor_server.index()]
            .apps()
            .iter()
            .find(|a| a.id == app_id)
            .map(|a| a.demand)
        else {
            return false;
        };
        let receiver = self.clusters[cold]
            .servers()
            .iter()
            .filter(|s| s.is_awake() && s.load() + demand <= s.boundaries().opt_high)
            .max_by(|a, b| a.load().total_cmp(&b.load()))
            .map(Server::id);
        let Some(receiver) = receiver else {
            return false;
        };

        let Some(app) = self.clusters[hot].take_app_for_federation(donor_server, app_id) else {
            return false;
        };
        let app: Application = app;
        let cost = self.config.inter_cluster_network.cost_of(&app);
        self.cross_migration_energy_j += cost.energy_j;
        self.cross_migrations += 1;
        self.clusters[cold].place_app_for_federation(receiver, app);
        true
    }

    /// Runs `intervals` federation intervals.
    pub fn run(&mut self, intervals: u64) -> FederationReport {
        let mut cluster_loads: Vec<TimeSeries> = (0..self.clusters.len())
            .map(|i| TimeSeries::new(format!("cluster{i}_load")))
            .collect();
        let mut load_spread = TimeSeries::new("load_spread");
        for _ in 0..intervals {
            self.run_interval();
            let loads = self.loads();
            for (ts, &l) in cluster_loads.iter_mut().zip(&loads) {
                ts.push(l);
            }
            let max = loads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = loads.iter().copied().fold(f64::INFINITY, f64::min);
            load_spread.push(max - min);
        }
        FederationReport {
            cluster_loads,
            cross_migrations: self.cross_migrations,
            cross_migration_energy_j: self.cross_migration_energy_j,
            load_spread,
            sleeping_total: self.clusters.iter().map(Cluster::sleeping_count).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolb_workload::generator::WorkloadSpec;

    fn federation(loads: &[WorkloadSpec], seed: u64) -> Federation {
        let configs = loads.iter().map(|w| ClusterConfig::paper(60, *w)).collect();
        // A 70 %-load cluster hovers right at the default watermark;
        // tighten it so the imbalance is unambiguous for the tests.
        let config = FederationConfig {
            high_watermark: 0.60,
            ..Default::default()
        };
        Federation::new(configs, config, seed)
    }

    #[test]
    fn imbalanced_federation_moves_apps_to_the_cold_cluster() {
        let mut fed = federation(
            &[
                WorkloadSpec::paper_high_load(),
                WorkloadSpec::paper_low_load(),
            ],
            1,
        );
        let before = fed.loads();
        assert!(before[0] > before[1]);
        let report = fed.run(15);
        assert!(report.cross_migrations > 0, "hot→cold transfers happened");
        assert!(report.cross_migration_energy_j > 0.0);
        // The spread narrows relative to the start.
        let spread = report.load_spread.values();
        assert!(
            spread.last().unwrap() < spread.first().unwrap(),
            "spread {:?} should narrow",
            (spread.first(), spread.last())
        );
    }

    #[test]
    fn balanced_federation_stays_put() {
        let mut fed = federation(
            &[
                WorkloadSpec::paper_low_load(),
                WorkloadSpec::paper_low_load(),
            ],
            2,
        );
        let report = fed.run(10);
        assert_eq!(report.cross_migrations, 0, "no imbalance, no WAN traffic");
    }

    #[test]
    fn single_cluster_federation_is_a_noop_tier() {
        // A lone member has no peer to trade with, so the federation is
        // the bare cluster built with the seed it derives for member 0.
        for (workload, seed) in [
            (WorkloadSpec::paper_high_load(), 3),
            (WorkloadSpec::paper_low_load(), 20140109),
        ] {
            let mut fed = federation(&[workload], seed);
            let report = fed.run(5);
            assert_eq!(report.cross_migrations, 0);
            assert_eq!(report.cluster_loads.len(), 1);
            assert_eq!(report.cluster_loads[0].len(), 5);
            let mut bare = Cluster::new(
                ClusterConfig::paper(60, workload),
                seed.wrapping_add(0x9E37),
            );
            for (i, load) in report.cluster_loads[0].values().iter().enumerate() {
                bare.run_interval();
                assert_eq!(
                    load.to_bits(),
                    bare.load_fraction().to_bits(),
                    "interval {i}"
                );
            }
            assert_eq!(report.sleeping_total, bare.sleeping_count());
        }
    }

    #[test]
    fn watermarks_gate_transfers() {
        let configs = vec![
            ClusterConfig::paper(60, WorkloadSpec::paper_high_load()),
            ClusterConfig::paper(60, WorkloadSpec::paper_low_load()),
        ];
        // Impossible watermark: hot threshold above any achievable load.
        let config = FederationConfig {
            high_watermark: 0.99,
            ..Default::default()
        };
        let mut fed = Federation::new(configs, config, 4);
        let report = fed.run(10);
        assert_eq!(report.cross_migrations, 0);
    }

    #[test]
    fn federation_runs_are_deterministic() {
        let mk = || {
            federation(
                &[
                    WorkloadSpec::paper_high_load(),
                    WorkloadSpec::paper_low_load(),
                ],
                5,
            )
        };
        let a = mk().run(8);
        let b = mk().run(8);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn rejects_inverted_watermarks() {
        let configs = vec![ClusterConfig::paper(10, WorkloadSpec::paper_low_load())];
        let config = FederationConfig {
            high_watermark: 0.3,
            low_watermark: 0.6,
            ..Default::default()
        };
        Federation::new(configs, config, 0);
    }
}
