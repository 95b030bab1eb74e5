//! The faulty timed simulation: a [`TimedClusterSim`] with a
//! [`FaultPlan`] wired into every seam of its
//! [`run_with`](TimedClusterSim::run_with) loop.
//!
//! Three injection points cover the plan's fault families:
//!
//! * **Scheduled crashes** become engine events; a crash orphans the
//!   host's VMs (re-admitted through the leader's admission queue), and a
//!   leader crash additionally exercises the heartbeat-timeout failover.
//! * **Report loss and wake failures** flow through the cluster's
//!   [`FaultHooks`](ecolb_cluster::recovery::FaultHooks) seam, which the
//!   [`FaultInjector`] implements.
//! * **Message delay** goes through the same hooks into the engine's
//!   interceptor: a migration-arrival event can be postponed on the wire
//!   without the cluster ever knowing.
//!
//! On top of the usual timing metrics the faulty run reports the
//! *degradation ledger* the timed loop keeps: crashed-server seconds
//! (availability), orphan waiting time (SLA), energy burned while
//! leaderless or on aborted wake transitions (wasted energy), and the
//! recovery protocol's own counters.
//!
//! An **empty plan is a proven no-op**: the injector draws nothing, the
//! interceptor always delivers, and the produced
//! [`TimedRunReport`](ecolb_cluster::sim::TimedRunReport) is byte-identical
//! to the fault-free simulation's (asserted in this crate's tests and in
//! the workspace determinism suite).

use crate::inject::FaultInjector;
use crate::plan::FaultPlan;
use crate::report::FaultyRunReport;
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::sim::TimedClusterSim;
use ecolb_trace::{NoTrace, Tracer};

/// The fault-injected event-driven simulation.
#[derive(Debug)]
pub struct FaultyClusterSim {
    sim: TimedClusterSim,
    seed: u64,
    plan: FaultPlan,
}

impl FaultyClusterSim {
    /// Creates the simulation for `intervals` reallocation intervals with
    /// the given fault plan.
    pub fn new(config: ClusterConfig, seed: u64, intervals: u64, plan: FaultPlan) -> Self {
        FaultyClusterSim {
            sim: TimedClusterSim::new(config, seed, intervals),
            seed,
            plan,
        }
    }

    /// Runs to completion and returns the degradation-augmented report.
    pub fn run(self) -> FaultyRunReport {
        self.run_traced(&mut NoTrace)
    }

    /// [`FaultyClusterSim::run`] with a tracer: injection dispositions
    /// (dropped reports, delayed arrivals), scheduled crashes/recoveries
    /// and every cluster-interval event land in the trace. With
    /// [`NoTrace`] the run is structurally identical to
    /// [`FaultyClusterSim::run`].
    pub fn run_traced<T: Tracer>(self, tracer: &mut T) -> FaultyRunReport {
        let config = self.sim.config();
        let mut injector = FaultInjector::new(&self.plan, config.n_servers);
        let realloc_interval_seconds = config.realloc_interval.as_secs_f64();
        let faults = self.plan.events.iter().map(|ev| (ev.at, ev.kind));
        let (timed, ledger) = self.sim.run_with(faults, &mut injector, tracer);
        FaultyRunReport {
            timed,
            degradation: ledger.degradation,
            recovery: ledger.recovery,
            injection: injector.stats(),
            wasted_energy_series: ledger.wasted_energy_series,
            crashed_server_seconds: ledger.crashed_server_seconds,
            orphan_downtime_seconds: ledger.orphan_downtime_seconds,
            leader_epoch: ledger.leader_epoch,
            leader_host: ledger.leader_host,
            realloc_interval_seconds,
            seed: self.seed,
            plan_was_empty: self.plan.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolb_cluster::server::ServerId;
    use ecolb_simcore::time::{SimDuration, SimTime};
    use ecolb_workload::generator::WorkloadSpec;

    fn config(n: usize) -> ClusterConfig {
        ClusterConfig::paper(n, WorkloadSpec::paper_low_load())
    }

    #[test]
    fn faulty_run_is_deterministic() {
        let plan = || {
            FaultPlan::empty(77)
                .with_message_loss(0.05)
                .with_wake_failures(0.1)
                .with_leader_crash(SimTime::from_secs(1500), Some(SimDuration::from_secs(900)))
        };
        let a = FaultyClusterSim::new(config(40), 21, 10, plan()).run();
        let b = FaultyClusterSim::new(config(40), 21, 10, plan()).run();
        assert_eq!(a, b);
    }

    #[test]
    fn crash_stop_window_runs_to_the_end_of_the_run() {
        let plan =
            FaultPlan::empty(5).with_server_crash(SimTime::from_secs(600), ServerId(7), None);
        let r = FaultyClusterSim::new(config(30), 9, 10, plan).run();
        // 10 intervals × 300 s = 3000 s; crashed from 600 s to the end.
        assert_eq!(r.recovery.servers_crashed, 1);
        assert_eq!(r.recovery.servers_recovered, 0);
        assert!((r.crashed_server_seconds - 2400.0).abs() < 1e-6);
        assert!(r.degradation.availability < 1.0);
        assert!(r.degradation.is_degraded());
    }

    #[test]
    fn crash_recover_window_is_bounded_by_the_repair_time() {
        let plan = FaultPlan::empty(5).with_server_crash(
            SimTime::from_secs(600),
            ServerId(7),
            Some(SimDuration::from_secs(600)),
        );
        let r = FaultyClusterSim::new(config(30), 9, 10, plan).run();
        assert_eq!(r.recovery.servers_crashed, 1);
        assert_eq!(r.recovery.servers_recovered, 1);
        // Down 600 s + the C6 reboot latency (200 s by default).
        let expected = 600.0 + 200.0;
        assert!(
            (r.crashed_server_seconds - expected).abs() < 1e-6,
            "window {} != {expected}",
            r.crashed_server_seconds
        );
        // Recovered well before the end: strictly less downtime than the
        // crash-stop variant of the same schedule.
        assert!(r.crashed_server_seconds < 2400.0);
    }

    #[test]
    fn faults_after_the_horizon_are_ignored() {
        let plan =
            FaultPlan::empty(5).with_server_crash(SimTime::from_secs(100_000), ServerId(0), None);
        let r = FaultyClusterSim::new(config(20), 3, 5, plan).run();
        assert_eq!(r.recovery.servers_crashed, 0);
        assert_eq!(r.degradation.availability, 1.0);
    }

    #[test]
    fn orphaned_vms_accrue_sla_time_when_crash_is_mid_interval() {
        // Crash at 450 s: orphans wait 150 s for the 600 s tick.
        let plan =
            FaultPlan::empty(5).with_server_crash(SimTime::from_secs(450), ServerId(2), None);
        let r = FaultyClusterSim::new(config(30), 9, 10, plan).run();
        assert_eq!(r.recovery.servers_crashed, 1);
        if r.recovery.orphans_readmitted > 0 {
            let expected = r.recovery.orphans_readmitted as f64 * 150.0;
            assert!(
                (r.orphan_downtime_seconds - expected).abs() < 1e-6,
                "orphan downtime {} != {expected}",
                r.orphan_downtime_seconds
            );
            assert!(r.degradation.sla_violation_seconds >= expected);
        }
    }

    #[test]
    fn message_delay_stretches_transfers_without_changing_decisions() {
        let base = FaultyClusterSim::new(config(60), 11, 12, FaultPlan::empty(1)).run();
        let delayed = FaultyClusterSim::new(
            config(60),
            11,
            12,
            FaultPlan::empty(1).with_message_delay(0.75, SimDuration::from_secs(120)),
        )
        .run();
        // The wire is slower but the capacity decisions are untouched:
        // the cluster never observes the delay.
        assert_eq!(base.timed.base, delayed.timed.base);
        if base.timed.base.migrations > 0 {
            assert!(delayed.injection.migrations_delayed > 0);
            assert!(delayed.injection.injected_delay_seconds > 0.0);
            assert!(delayed.timed.events_processed > base.timed.events_processed);
        }
    }
}
