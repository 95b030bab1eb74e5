//! Event-driven cluster simulation.
//!
//! [`Cluster`] applies balancing decisions *logically* at interval
//! boundaries: a migrated VM is removed from its donor and placed on its
//! receiver in the same instant (capacity reservation semantics). That is
//! the right model for capacity questions, but it hides the paper's §3
//! timing questions — *how much time it takes to migrate a VM* (question
//! 8) and *to switch a sleeping server to a running state* (question 4).
//!
//! [`TimedClusterSim`] runs the same cluster on the discrete-event engine
//! of `ecolb-simcore`, scheduling one event per reallocation tick, per VM
//! arrival, per wake completion and per scheduled fault. The capacity
//! decisions are identical to the synchronous cluster by construction (it
//! drives the same [`Cluster`]); what the timed layer adds is the
//! **service-interruption accounting**: while a VM image is on the wire
//! its application does not execute, and until a woken server reaches C0
//! its capacity is unavailable. Both show up in the [`TimedRunReport`].
//!
//! [`TimedClusterSim::run_with`] is the one timed event loop. Its fault
//! seams are explicit: a schedule of [`FaultEventKind`]s fires as engine
//! events (crashes orphan VMs into the admission queue, a leader crash
//! exercises the heartbeat-timeout failover), and a [`FaultHooks`]
//! injector decides report loss, wake failures and, through the engine's
//! interceptor, the wire delay of each migration arrival. The loop keeps
//! the [`FaultLedger`] of what the faults cost. With no schedule and
//! [`NoFaults`] the run is the plain timed simulation.

use crate::cluster::{Cluster, ClusterConfig, ClusterRunReport};
use crate::recovery::{FaultEventKind, FaultHooks, NoFaults, RecoveryStats};
use crate::server::ServerId;
use ecolb_metrics::summary::OnlineStats;
use ecolb_metrics::timeseries::TimeSeries;
use ecolb_metrics::DegradationSummary;
use ecolb_simcore::engine::{Control, Engine, RunOutcome, Scheduler};
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_trace::{NoTrace, TraceEventKind, Tracer};
use ecolb_workload::application::AppId;
use std::collections::BTreeMap;

/// Events of the timed cluster simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// End of a reallocation interval: demand evolution + balancing.
    ReallocationTick,
    /// A migrated VM image finished its transfer and starts executing on
    /// the receiver (the event a fault injector may postpone on the wire).
    MigrationArrive {
        /// The application whose VM arrived.
        app: AppId,
        /// The receiving server.
        to: ServerId,
        /// Demand that was suspended while in flight.
        demand: f64,
    },
    /// A sleeping (or rebooting) server ordered awake reaches C0.
    WakeComplete {
        /// The server that finished waking.
        server: ServerId,
    },
    /// A scheduled fault fires.
    Fault(FaultEventKind),
}

/// Timing metrics collected on top of the capacity simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRunReport {
    /// The underlying capacity-level report (identical to the synchronous
    /// cluster's).
    pub base: ClusterRunReport,
    /// Demand-seconds of service interruption: Σ demand × transfer time
    /// over all migrations (§3 question 8 turned into a QoS cost).
    pub downtime_demand_seconds: f64,
    /// Per-migration transfer-time statistics, seconds.
    pub transfer_time_s: OnlineStats,
    /// Per-wake latency statistics, seconds (§3 question 4).
    pub wake_latency_s: OnlineStats,
    /// Largest number of VM images simultaneously on the wire.
    pub max_in_flight: usize,
    /// Total events the engine processed.
    pub events_processed: u64,
}

/// What the faults of a [`TimedClusterSim::run_with`] run cost: the
/// degradation ledger plus the recovery protocol's end state. A
/// fault-free run has availability 1 and no degradation.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultLedger {
    /// The compact degradation answer (availability, SLA, consolidation,
    /// wasted energy).
    pub degradation: DegradationSummary,
    /// What the recovery protocol observed (failovers, retries, orphan
    /// re-admissions …).
    pub recovery: RecoveryStats,
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
}

/// The event-driven wrapper.
#[derive(Debug)]
pub struct TimedClusterSim {
    cluster: Cluster,
    intervals: u64,
}

struct SimState<'h, H> {
    cluster: Cluster,
    hooks: &'h mut H,
    intervals_left: u64,
    realloc_interval: SimDuration,
    downtime_demand_seconds: f64,
    transfer_time_s: OnlineStats,
    wake_latency_s: OnlineStats,
    in_flight: usize,
    max_in_flight: usize,
    /// Open crash windows: when each currently-crashed server went down.
    crash_start: BTreeMap<ServerId, SimTime>,
    /// Closed crash windows `(down, back_up)`; clamped to the run length
    /// at report time.
    closed_windows: Vec<(SimTime, SimTime)>,
    orphan_downtime_seconds: f64,
    /// Per-interval energy burned while degraded (leaderless intervals
    /// plus aborted wake cycles), Joules.
    wasted_energy: TimeSeries,
    prev_energy_j: f64,
}

impl TimedClusterSim {
    /// Creates the simulation for `intervals` reallocation intervals.
    pub fn new(config: ClusterConfig, seed: u64, intervals: u64) -> Self {
        TimedClusterSim {
            cluster: Cluster::new(config, seed),
            intervals,
        }
    }

    /// The simulated cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        self.cluster.config()
    }

    /// Runs to completion and returns the timing-augmented report.
    pub fn run(self) -> TimedRunReport {
        self.run_traced(&mut NoTrace)
    }

    /// [`TimedClusterSim::run`] with a tracer observing every engine
    /// dispatch and every cluster interval. With [`NoTrace`] the run is
    /// structurally identical to [`TimedClusterSim::run`] — same events,
    /// same clock, byte-identical [`TimedRunReport`].
    pub fn run_traced<T: Tracer>(self, tracer: &mut T) -> TimedRunReport {
        self.run_with([], &mut NoFaults, tracer).0
    }

    /// Runs to completion with every seam explicit: `faults` fire as
    /// engine events at their instants (those past the horizon are
    /// dropped, since no report could observe them), `hooks` decides
    /// report loss, wake failures and migration wire delays, and `tracer`
    /// sees the engine, every interval and every applied fault. Returns
    /// the timed report plus the run's [`FaultLedger`].
    pub fn run_with<H: FaultHooks, T: Tracer>(
        self,
        faults: impl IntoIterator<Item = (SimTime, FaultEventKind)>,
        hooks: &mut H,
        tracer: &mut T,
    ) -> (TimedRunReport, FaultLedger) {
        let n_servers = self.cluster.config().n_servers;
        let realloc_interval = self.cluster.config().realloc_interval;
        let horizon = SimTime::ZERO
            + SimDuration::from_ticks(realloc_interval.ticks().saturating_mul(self.intervals));
        // Pre-size the queue for the tick, the scheduled faults and the VM
        // images on the wire, which peaked at n/6 over 4 000 servers and 40
        // intervals and at n/3 over 400 intervals (the `perf_scale` cells),
        // so the dispatch loop does not regrow it on those runs.
        let faults = faults.into_iter();
        let mut engine: Engine<SimEvent> =
            Engine::with_capacity(1 + faults.size_hint().0 + n_servers / 3);
        // A zero-interval run has no tick, so it drains at once.
        if self.intervals > 0 {
            engine.schedule_at(SimTime::ZERO + realloc_interval, SimEvent::ReallocationTick);
        }
        for (at, kind) in faults {
            if at <= horizon {
                engine.schedule_at(at, SimEvent::Fault(kind));
            }
        }

        let mut state = SimState {
            cluster: self.cluster,
            hooks,
            intervals_left: self.intervals,
            realloc_interval,
            downtime_demand_seconds: 0.0,
            transfer_time_s: OnlineStats::new(),
            wake_latency_s: OnlineStats::new(),
            in_flight: 0,
            max_in_flight: 0,
            crash_start: BTreeMap::new(),
            closed_windows: Vec::new(),
            orphan_downtime_seconds: 0.0,
            wasted_energy: TimeSeries::new("wasted_energy_j"),
            prev_energy_j: 0.0,
        };

        let outcome = engine.run_with(
            &mut state,
            tracer,
            |state, event| match event {
                SimEvent::MigrationArrive { to, .. } => state.hooks.arrival_delay(*to),
                _ => SimDuration::ZERO,
            },
            |state, sched, event| match event {
                SimEvent::ReallocationTick => on_tick(state, sched),
                SimEvent::MigrationArrive { .. } => {
                    state.in_flight -= 1;
                    Control::Continue
                }
                // The wake is completed inside the next balance round
                // (the cluster checks matured wakes); the event exists so
                // the engine's clock observes the §3 latency.
                SimEvent::WakeComplete { .. } => Control::Continue,
                SimEvent::Fault(kind) => {
                    // Past the final tick no report observes the fault.
                    if state.intervals_left > 0 {
                        apply_fault(state, sched, kind);
                    }
                    Control::Continue
                }
            },
        );
        debug_assert!(matches!(outcome, RunOutcome::Stopped | RunOutcome::Drained));

        let cluster = &state.cluster;
        let end = cluster.now();
        let elapsed = end.as_secs_f64();
        // Crash-stop windows still open at the end of the run close there;
        // crash-recover reboots that outlived the horizon are clamped.
        let open_windows = state.crash_start.values().map(|&down| (down, end));
        let crashed_server_seconds: f64 = state
            .closed_windows
            .iter()
            .copied()
            .chain(open_windows)
            .map(|(down, up)| up.min(end).saturating_sub(down).as_secs_f64())
            .sum();
        let base = cluster.run_report();
        let recovery = cluster.recovery_stats();
        let availability = if elapsed > 0.0 && n_servers > 0 {
            1.0 - crashed_server_seconds / (n_servers as f64 * elapsed)
        } else {
            1.0
        };
        let degradation = DegradationSummary {
            availability,
            sla_violation_seconds: base.saturation_violations as f64
                * realloc_interval.as_secs_f64()
                + state.orphan_downtime_seconds,
            failed_consolidations: recovery.failed_consolidations,
            wasted_energy_j: state.wasted_energy.values().iter().sum(),
            lost_reports: recovery.reports_abandoned,
        };
        let report = TimedRunReport {
            base,
            downtime_demand_seconds: state.downtime_demand_seconds,
            transfer_time_s: state.transfer_time_s,
            wake_latency_s: state.wake_latency_s,
            max_in_flight: state.max_in_flight,
            events_processed: engine.events_processed(),
        };
        let ledger = FaultLedger {
            degradation,
            recovery,
            wasted_energy_series: state.wasted_energy,
            crashed_server_seconds,
            orphan_downtime_seconds: state.orphan_downtime_seconds,
            leader_epoch: cluster.leader_epoch(),
            leader_host: cluster.leader_host(),
        };
        (report, ledger)
    }
}

/// End of a reallocation interval: run it, charge the degradation ledger,
/// and turn the interval's transfers and wakes into timed events.
fn on_tick<H: FaultHooks, T: Tracer>(
    state: &mut SimState<'_, H>,
    sched: &mut Scheduler<'_, SimEvent, T>,
) -> Control {
    let now = sched.now();
    let was_leaderless = state.cluster.leaderless();
    let outcome = state
        .cluster
        .run_interval_traced(&mut *state.hooks, sched.tracer());

    // Degradation ledger: energy burned during a leaderless interval is
    // wasted (no balancing could act on it), and every aborted wake cycle
    // pays the full transition energy with nothing to show.
    let energy_now = state.cluster.energy().total_j() + state.cluster.migration_energy_j();
    let mut wasted = if was_leaderless {
        energy_now - state.prev_energy_j
    } else {
        0.0
    };
    state.prev_energy_j = energy_now;
    for &failed in &outcome.wake_failures {
        let cstate = state.cluster.servers()[failed.index()].cstate();
        wasted += state.cluster.config().sleep.failed_wake_energy_j(cstate);
    }
    state.wasted_energy.push(wasted);

    // Timed effects of this interval's decisions: every VM transfer
    // (scaling + protocol) becomes an arrival event. `MigrationRecord` is
    // `Copy`, so an index loop sidesteps both the borrow conflict and the
    // clone of the whole record list.
    for r in 0..state.cluster.interval_migrations().len() {
        let rec = state.cluster.interval_migrations()[r];
        state.in_flight += 1;
        state.max_in_flight = state.max_in_flight.max(state.in_flight);
        let transfer = rec.cost.duration;
        state.transfer_time_s.push(transfer.as_secs_f64());
        state.downtime_demand_seconds += rec.demand * transfer.as_secs_f64();
        sched.schedule_in(
            transfer,
            SimEvent::MigrationArrive {
                app: rec.app,
                to: rec.to,
                demand: rec.demand,
            },
        );
    }
    for &woken in &outcome.woken {
        if let Some(ready) = state.cluster.servers()[woken.index()].wake_ready_at() {
            state.wake_latency_s.push((ready - now).as_secs_f64());
            sched.schedule_at(ready, SimEvent::WakeComplete { server: woken });
        }
    }

    state.intervals_left -= 1;
    if state.intervals_left > 0 {
        sched.schedule_in(state.realloc_interval, SimEvent::ReallocationTick);
        Control::Continue
    } else if sched.pending() == 0 {
        Control::Stop
    } else {
        Control::Continue // drain remaining arrivals/wakes
    }
}

/// Applies a scheduled fault. A crash orphans the host's VMs into the
/// admission queue (their wait for the next tick is SLA time) and opens
/// the host's crash window; a recovery reboots the host through the C6
/// wake path and closes the window once it is serviceable again.
fn apply_fault<H: FaultHooks, T: Tracer>(
    state: &mut SimState<'_, H>,
    sched: &mut Scheduler<'_, SimEvent, T>,
    kind: FaultEventKind,
) {
    let now = sched.now();
    let (server, recover_after) = match kind {
        FaultEventKind::ServerCrash {
            server,
            recover_after,
        } => (server, recover_after),
        FaultEventKind::LeaderCrash { recover_after } => {
            (state.cluster.leader_host(), recover_after)
        }
        FaultEventKind::ServerRecover { server } => {
            if let Some(ready) = state.cluster.recover_server(server, now) {
                sched.tracer().event(
                    now.ticks(),
                    TraceEventKind::ServerRecovered { server: server.0 },
                );
                if let Some(start) = state.crash_start.remove(&server) {
                    state.closed_windows.push((start, ready));
                }
                state.wake_latency_s.push((ready - now).as_secs_f64());
                sched.schedule_at(ready, SimEvent::WakeComplete { server });
            }
            return;
        }
    };
    sched.tracer().event(
        now.ticks(),
        TraceEventKind::FaultInjected {
            fault: kind.name(),
            server: server.0,
        },
    );
    let Some(orphans) = state.cluster.crash_and_readmit(server, now, sched.tracer()) else {
        return;
    };
    // Orphans wait in the admission queue until the next reallocation
    // tick; that waiting time is SLA-violation time.
    let tau = state.realloc_interval.ticks().max(1);
    let next_tick = SimTime::from_ticks(now.ticks().div_ceil(tau).saturating_mul(tau));
    state.orphan_downtime_seconds += orphans as f64 * next_tick.saturating_sub(now).as_secs_f64();
    state.crash_start.insert(server, now);
    if let Some(delay) = recover_after {
        sched.schedule_in(
            delay,
            SimEvent::Fault(FaultEventKind::ServerRecover { server }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::MigrationCostModel;
    use ecolb_workload::generator::WorkloadSpec;

    fn config(n: usize) -> ClusterConfig {
        ClusterConfig::paper(n, WorkloadSpec::paper_low_load())
    }

    #[test]
    fn timed_run_matches_synchronous_decisions() {
        let sim = TimedClusterSim::new(config(60), 5, 12);
        let timed = sim.run();
        let mut sync = Cluster::new(config(60), 5);
        let sync_report = sync.run(12);
        assert_eq!(timed.base.ratio_series, sync_report.ratio_series);
        assert_eq!(timed.base.decision_totals, sync_report.decision_totals);
        assert_eq!(timed.base.final_census, sync_report.final_census);
        assert_eq!(timed.base.migrations, sync_report.migrations);
        assert!((timed.base.energy.total_j() - sync_report.energy.total_j()).abs() < 1e-6);
    }

    #[test]
    fn downtime_accrues_with_migrations() {
        let timed = TimedClusterSim::new(config(80), 3, 15).run();
        if timed.base.migrations > 0 {
            assert!(timed.downtime_demand_seconds > 0.0);
            assert!(timed.transfer_time_s.count() == timed.base.migrations);
        }
    }

    #[test]
    fn instant_network_means_zero_downtime_duration() {
        // With an (almost) infinite link and no VM start latency the
        // transfer takes ~0 s, so downtime vanishes even though the same
        // migrations happen.
        let mut cfg = config(80);
        cfg.migration = MigrationCostModel {
            link_gbps: 1e12,
            transfer_overhead_w: 0.0,
            vm_start_energy_j: 0.0,
            vm_start_latency_s: 0.0,
            dirty_page_factor: 1.0,
        };
        let timed = TimedClusterSim::new(cfg, 3, 15).run();
        assert!(
            timed.downtime_demand_seconds < 1e-3,
            "downtime {}",
            timed.downtime_demand_seconds
        );
    }

    #[test]
    fn events_processed_counts_all_kinds() {
        let timed = TimedClusterSim::new(config(80), 7, 10).run();
        // At least one event per tick, plus one per migration arrival.
        assert!(timed.events_processed >= 10 + timed.base.migrations);
    }

    #[test]
    fn in_flight_peak_is_sane() {
        let timed = TimedClusterSim::new(config(80), 9, 10).run();
        assert!(timed.max_in_flight as u64 <= timed.base.migrations);
    }

    #[test]
    fn zero_interval_run_is_empty() {
        let timed = TimedClusterSim::new(config(30), 5, 0).run();
        assert_eq!(timed.base, Cluster::new(config(30), 5).run(0));
        assert_eq!(timed.events_processed, 0);
    }

    #[test]
    fn timed_run_is_deterministic() {
        let a = TimedClusterSim::new(config(50), 21, 8).run();
        let b = TimedClusterSim::new(config(50), 21, 8).run();
        assert_eq!(a, b);
    }
}
