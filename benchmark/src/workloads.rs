//! The four named workloads: their configurations, the set-up each one
//! times, the untraced run, and the checks on its report.

use std::fmt::{self, Write as _};
use std::hint::black_box;
use std::time::Instant;

use ecolb_cluster::cluster::{Cluster, ClusterConfig, ClusterRunReport};
use ecolb_cluster::sim::{TimedClusterSim, TimedRunReport};
use ecolb_scenarios::{FleetSpec, ResilienceSpec, ScenarioSpec, SlaSpec, SpotSpec};
use ecolb_serve::picker::PickerKind;
use ecolb_serve::sim::{ServeConfig, ServeReport, ServeSim};
use ecolb_simcore::rng::splitmix64;
use ecolb_workload::generator::WorkloadSpec;
use ecolb_workload::processes::RateModulation;
use ecolb_workload::requests::RequestLoadSpec;

use crate::stats::Better::{Higher, Lower};
use crate::Metric;

/// Golden report digests: `workload seed digest` per line.
const GOLDEN: &str = include_str!("../golden.tsv");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ClusterConsolidate,
    ServeScan,
    ServeP2c,
    ServeSpotResilient,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ClusterConsolidate,
        Workload::ServeScan,
        Workload::ServeP2c,
        Workload::ServeSpotResilient,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterConsolidate => "cluster_consolidate",
            Workload::ServeScan => "serve_scan",
            Workload::ServeP2c => "serve_p2c",
            Workload::ServeSpotResilient => "serve_spot_resilient",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::ClusterConsolidate => {
                "paper protocol alone, 4000 servers x 40 intervals, 3 seeds per run: balance, \
                 leader and evolve do all the work; the serve layers are bypassed"
            }
            Workload::ServeScan => {
                "600 servers x 10 intervals behind the regime-aware picker: its O(awake) scan \
                 per request dominates the run"
            }
            Workload::ServeP2c => {
                "1000 servers x 30 intervals behind power-of-two choices: engine dispatch and \
                 per-request bookkeeping dominate; the picker scan is bypassed"
            }
            Workload::ServeSpotResilient => {
                "800-server enterprise fleet x 12 intervals, 3 seeds per run, 100 spot reclaims, \
                 full resilience: the serve layer on its crash, retry, hedge and shed path"
            }
        }
    }

    /// Reallocation intervals one run simulates.
    pub fn intervals(self) -> u64 {
        match self {
            Workload::ClusterConsolidate => 40,
            Workload::ServeScan => 10,
            Workload::ServeP2c => 30,
            Workload::ServeSpotResilient => 12,
        }
    }

    /// Independent simulations one run makes. Where the run time depends
    /// strongly on the input, a run covers several inputs so that its time
    /// depends less on which seed made them.
    pub fn instances(self) -> usize {
        match self {
            Workload::ClusterConsolidate | Workload::ServeSpotResilient => 3,
            Workload::ServeScan | Workload::ServeP2c => 1,
        }
    }

    /// The seeds of a run's simulations: `seed` itself, then a SplitMix64
    /// sequence started from it.
    pub fn instance_seeds(self, seed: u64) -> Vec<u64> {
        let mut state = seed;
        std::iter::once(seed)
            .chain(std::iter::repeat_with(|| splitmix64(&mut state)))
            .take(self.instances())
            .collect()
    }

    /// The serving configuration, or `None` for the cluster-only workload.
    pub fn serve_config(self, seed: u64) -> Option<ServeConfig> {
        let low = WorkloadSpec::paper_low_load();
        let intervals = self.intervals();
        match self {
            Workload::ClusterConsolidate => None,
            Workload::ServeScan => Some(ServeConfig::paper(
                ClusterConfig::paper(600, low),
                PickerKind::RegimeAware,
                intervals,
            )),
            Workload::ServeP2c => Some(ServeConfig::paper(
                ClusterConfig::paper(1000, low),
                PickerKind::PowerOfTwo,
                intervals,
            )),
            Workload::ServeSpotResilient => Some(
                ScenarioSpec {
                    name: "serve_spot_resilient",
                    fleet: FleetSpec::enterprise(800),
                    workload: low,
                    load: RequestLoadSpec::moderate(),
                    sla: SlaSpec::moderate(),
                    modulation: RateModulation::Flat,
                    spot: Some(SpotSpec {
                        count: 100,
                        first_reclaim_s: 600.0,
                        spacing_s: 20.0,
                        recover_after_s: Some(900.0),
                    }),
                    resilience: ResilienceSpec::Full,
                    intervals,
                }
                .compile(PickerKind::PowerOfTwo, true, seed),
            ),
        }
    }

    /// The cluster configuration the workload simulates.
    pub fn cluster_config(self, seed: u64) -> ClusterConfig {
        match self.serve_config(seed) {
            Some(cfg) => cfg.cluster,
            None => ClusterConfig::paper(4000, WorkloadSpec::paper_low_load()),
        }
    }

    /// Everything built before a run starts; `setup_s` times this.
    pub fn setup(self, seed: u64) -> Built {
        match self.serve_config(seed) {
            None => Built::Cluster(TimedClusterSim::new(
                self.cluster_config(seed),
                seed,
                self.intervals(),
            )),
            Some(cfg) => {
                // `ServeSim` builds its cluster inside `run`; building the
                // same cluster here makes that work count as set-up too.
                let cluster = Cluster::new(cfg.cluster.clone(), seed);
                Built::Serve(ServeSim::new(cfg, seed), cluster)
            }
        }
    }
}

/// A workload ready to run.
#[allow(clippy::large_enum_variant)] // one value per run; boxing buys nothing
pub enum Built {
    Cluster(TimedClusterSim),
    Serve(ServeSim, Cluster),
}

impl Built {
    /// Runs the simulation; returns its report and the run's wall time in
    /// seconds.
    pub fn run(self) -> (Report, f64) {
        match self {
            Built::Cluster(sim) => {
                let start = Instant::now();
                let report = black_box(sim.run());
                (Report::Cluster(report), start.elapsed().as_secs_f64())
            }
            Built::Serve(sim, cluster) => {
                drop(cluster);
                let start = Instant::now();
                let report = black_box(sim.run());
                (Report::Serve(report), start.elapsed().as_secs_f64())
            }
        }
    }
}

/// The report of one untraced run.
#[allow(clippy::large_enum_variant)] // one value per run; boxing buys nothing
pub enum Report {
    Cluster(TimedRunReport),
    Serve(ServeReport),
}

impl Report {
    pub fn base(&self) -> &ClusterRunReport {
        match self {
            Report::Cluster(r) => &r.base,
            Report::Serve(r) => &r.base,
        }
    }

    pub fn serve(&self) -> Option<&ServeReport> {
        match self {
            Report::Cluster(_) => None,
            Report::Serve(r) => Some(r),
        }
    }

    pub fn events(&self) -> u64 {
        match self {
            Report::Cluster(r) => r.events_processed,
            Report::Serve(r) => r.events_processed,
        }
    }

    /// Total energy in joules, migration energy included.
    pub fn energy_j(&self) -> f64 {
        match self {
            Report::Cluster(r) => r.base.energy.total_j() + r.base.migration_energy_j,
            Report::Serve(r) => r.total_energy_j(),
        }
    }

    /// FNV-1a digest of the report's `Debug` rendering: any change to any
    /// simulated number changes it.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
        match self {
            Report::Cluster(r) => write!(hash, "{r:?}"),
            Report::Serve(r) => write!(hash, "{r:?}"),
        }
        .expect("hashing into a u64 cannot fail");
        hash.0
    }

    /// Invariants every run of the workload must satisfy.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        let energy = self.energy_j();
        if !(energy.is_finite() && energy > 0.0) {
            out.push(format!("energy {energy} J is not a positive number"));
        }
        match self {
            Report::Cluster(r) => {
                if r.base.migrations == 0 {
                    out.push("no migrations: the workload no longer consolidates".into());
                }
            }
            Report::Serve(r) => {
                let settled = r.requests_completed + r.requests_rejected + r.requests_failed;
                if r.requests_admitted == 0 {
                    out.push("no requests admitted".into());
                }
                if r.requests_admitted != settled {
                    out.push(format!(
                        "admitted {} != completed {} + rejected {} + failed {}",
                        r.requests_admitted,
                        r.requests_completed,
                        r.requests_rejected,
                        r.requests_failed
                    ));
                }
            }
        }
        out
    }

    /// Simulated outcomes a user of the simulator reads, for a run that
    /// took `run_s` host seconds. Deterministic for a seed, so they are
    /// gated by the digest rather than by a bound.
    pub fn outcomes(&self, intervals: u64, run_s: f64) -> Vec<Metric> {
        let mut out = vec![
            Metric::new(("intervals_per_s", "1/s", Higher), intervals as f64 / run_s),
            Metric::new(("energy_kj", "kJ", Lower), self.energy_j() / 1e3),
        ];
        match self {
            Report::Cluster(r) => {
                out.push(Metric::new(
                    ("savings_frac", "frac", Higher),
                    r.base.savings_fraction(),
                ));
            }
            Report::Serve(r) => {
                let admitted = r.requests_admitted as f64;
                let lost = (r.requests_rejected + r.requests_failed) as f64;
                out.extend([
                    Metric::new(("requests_per_s", "1/s", Higher), admitted / run_s),
                    Metric::new(("p50_latency_s", "s", Lower), r.latency.p50()),
                    Metric::new(("p99_latency_s", "s", Lower), r.latency.p99()),
                    Metric::new(
                        ("sla_miss_frac", "frac", Lower),
                        (r.sla.total_violated() as f64 + lost) / admitted,
                    ),
                    Metric::new(("failed_frac", "frac", Lower), lost / admitted),
                ]);
            }
        }
        out
    }
}

struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// The committed digest for `(workload, seed)`, if one was blessed.
pub fn golden_digest(workload: Workload, seed: u64) -> Option<u64> {
    GOLDEN
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .find_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [name, s, digest] = fields[..] else {
                panic!("golden.tsv: malformed line {line:?}");
            };
            let digest = digest.strip_prefix("0x").unwrap_or(digest);
            (name == workload.name() && s.parse() == Ok(seed))
                .then(|| u64::from_str_radix(digest, 16).expect("golden.tsv: digest is hex"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serve"), None);
    }

    #[test]
    fn golden_table_covers_the_default_seeds() {
        for w in Workload::ALL {
            for seed in [20140109, 7].into_iter().flat_map(|s| w.instance_seeds(s)) {
                assert!(golden_digest(w, seed).is_some(), "{} {seed}", w.name());
            }
        }
    }

    #[test]
    fn instance_seeds_start_from_the_run_seed_and_differ() {
        let seeds = Workload::ClusterConsolidate.instance_seeds(5);
        assert_eq!(seeds.len(), 3);
        assert_eq!(seeds[0], 5);
        assert!(seeds[1] != seeds[2] && !seeds[1..].contains(&5));
        assert_eq!(Workload::ServeP2c.instance_seeds(5), vec![5]);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        h.write_str("a").unwrap();
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
