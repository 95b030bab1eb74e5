//! Reports for faulty runs and the faulty-vs-fault-free comparison.
//!
//! [`FaultyRunReport`] carries the full timed report (so an empty plan
//! can be proven a no-op by structural equality) plus the degradation
//! ledger. [`CompareWithFaulty`] extends the plain
//! [`TimedRunReport`] with a
//! [`FaultImpact`] diff: run the same seed with and without a plan and
//! ask *what did the faults cost* — in energy, savings, availability and
//! service interruption.

use crate::inject::InjectionStats;
use ecolb_cluster::recovery::RecoveryStats;
use ecolb_cluster::server::ServerId;
use ecolb_cluster::sim::TimedRunReport;
use ecolb_metrics::timeseries::TimeSeries;
use ecolb_metrics::DegradationSummary;

/// Everything a fault-injected run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyRunReport {
    /// The full timing-augmented report, byte-identical to a plain
    /// [`TimedClusterSim`](ecolb_cluster::sim::TimedClusterSim) run when
    /// the plan was empty.
    pub timed: TimedRunReport,
    /// The compact degradation answer (availability, SLA, consolidation,
    /// wasted energy).
    pub degradation: DegradationSummary,
    /// What the recovery protocol observed (failovers, retries, orphan
    /// re-admissions …).
    pub recovery: RecoveryStats,
    /// What the injector actually fired.
    pub injection: InjectionStats,
    /// Per-interval wasted energy, Joules (leaderless intervals plus
    /// aborted wake cycles).
    pub wasted_energy_series: TimeSeries,
    /// Total server-seconds spent crashed (windows clamped to the run).
    pub crashed_server_seconds: f64,
    /// Seconds orphaned VMs spent waiting for re-admission.
    pub orphan_downtime_seconds: f64,
    /// Election epoch at the end of the run (0 = the bootstrap leader
    /// survived).
    pub leader_epoch: u64,
    /// Host carrying the leader role at the end of the run.
    pub leader_host: ServerId,
    /// The reallocation interval length, seconds (needed to put the
    /// baseline's saturation count in the same units as
    /// [`DegradationSummary::sla_violation_seconds`]).
    pub realloc_interval_seconds: f64,
    /// The run seed (workload + cluster; fault streams key off the plan
    /// seed).
    pub seed: u64,
    /// Whether the plan injected nothing.
    pub plan_was_empty: bool,
}

/// What a fault plan cost relative to the fault-free run of the same
/// seed. Positive overheads mean the faults hurt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultImpact {
    /// Fractional energy increase: `faulty / fault-free − 1`.
    pub energy_overhead_fraction: f64,
    /// Absolute drop in the energy-savings fraction.
    pub savings_delta: f64,
    /// Change in the mean in-cluster/local decision ratio (the paper's
    /// headline Figure 3 metric).
    pub ratio_mean_delta: f64,
    /// Availability of the faulty run (the fault-free run is 1.0).
    pub availability: f64,
    /// SLA-violation seconds added by the faults.
    pub extra_sla_violation_seconds: f64,
    /// Consolidations the faulty run failed to perform.
    pub failed_consolidations: u64,
    /// Extra demand-seconds of migration downtime.
    pub extra_downtime_demand_seconds: f64,
}

/// Comparison seam: implemented for the fault-free
/// [`TimedRunReport`] so experiments read
/// `baseline.fault_impact(&faulty)`.
pub trait CompareWithFaulty {
    /// Diffs `faulty` against `self` (the fault-free baseline of the same
    /// seed and configuration).
    fn fault_impact(&self, faulty: &FaultyRunReport) -> FaultImpact;
}

impl CompareWithFaulty for TimedRunReport {
    fn fault_impact(&self, faulty: &FaultyRunReport) -> FaultImpact {
        let base_energy = self.base.energy.total_j() + self.base.migration_energy_j;
        let faulty_energy =
            faulty.timed.base.energy.total_j() + faulty.timed.base.migration_energy_j;
        let energy_overhead_fraction = if base_energy > 0.0 {
            faulty_energy / base_energy - 1.0
        } else {
            0.0
        };
        let base_sla = self.base.saturation_violations as f64 * faulty.realloc_interval_seconds;
        let faulty_sla = faulty.degradation.sla_violation_seconds;
        FaultImpact {
            energy_overhead_fraction,
            savings_delta: faulty.timed.base.savings_fraction() - self.base.savings_fraction(),
            ratio_mean_delta: series_mean(&faulty.timed.base.ratio_series)
                - series_mean(&self.base.ratio_series),
            availability: faulty.degradation.availability,
            extra_sla_violation_seconds: faulty_sla - base_sla,
            failed_consolidations: faulty.degradation.failed_consolidations,
            extra_downtime_demand_seconds: faulty.timed.downtime_demand_seconds
                - self.downtime_demand_seconds,
        }
    }
}

/// Mean of a series; 0.0 (not NaN) when empty.
fn series_mean(ts: &TimeSeries) -> f64 {
    if ts.is_empty() {
        0.0
    } else {
        ts.values().iter().sum::<f64>() / ts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use crate::sim::FaultyClusterSim;
    use ecolb_cluster::cluster::ClusterConfig;
    use ecolb_cluster::sim::TimedClusterSim;
    use ecolb_simcore::time::SimTime;
    use ecolb_workload::generator::WorkloadSpec;

    fn config(n: usize) -> ClusterConfig {
        ClusterConfig::paper(n, WorkloadSpec::paper_low_load())
    }

    #[test]
    fn empty_plan_impact_is_all_zeroes() {
        let baseline = TimedClusterSim::new(config(40), 13, 10).run();
        let faulty = FaultyClusterSim::new(config(40), 13, 10, FaultPlan::empty(0)).run();
        let impact = baseline.fault_impact(&faulty);
        assert_eq!(impact.energy_overhead_fraction, 0.0);
        assert_eq!(impact.savings_delta, 0.0);
        assert_eq!(impact.ratio_mean_delta, 0.0);
        assert_eq!(impact.availability, 1.0);
        assert_eq!(impact.failed_consolidations, 0);
        assert_eq!(impact.extra_downtime_demand_seconds, 0.0);
    }

    #[test]
    fn leader_crash_impact_shows_degradation() {
        let baseline = TimedClusterSim::new(config(40), 13, 10).run();
        let plan = FaultPlan::empty(4).with_leader_crash(SimTime::from_secs(900), None);
        let faulty = FaultyClusterSim::new(config(40), 13, 10, plan).run();
        let impact = baseline.fault_impact(&faulty);
        assert!(impact.availability < 1.0);
        assert!(faulty.leader_epoch >= 1);
    }

    #[test]
    fn series_mean_is_nan_free() {
        assert_eq!(series_mean(&TimeSeries::new("empty")), 0.0);
        let mut ts = TimeSeries::new("xs");
        ts.push(1.0);
        ts.push(3.0);
        assert_eq!(series_mean(&ts), 2.0);
    }
}
