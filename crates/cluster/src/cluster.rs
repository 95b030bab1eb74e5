//! The cluster: servers + leader + the reallocation-interval driver.
//!
//! [`Cluster`] assembles the heterogeneous model of §4: `n` servers with
//! per-server regime boundaries sampled from the paper's uniform ranges,
//! initial loads from a [`WorkloadSpec`] band, and a leader on a star
//! topology. [`Cluster::run_interval`] executes one reallocation interval
//! `τ`:
//!
//! 1. **demand evolution** — each application may request a demand increase
//!    (bounded by its `λ_{i,k}`), served by **vertical scaling** when the
//!    host has free capacity below `α^{opt,h}` (a low-cost *local*
//!    decision, `p_k`) or by **horizontal scaling** — migrating the VM to a
//!    receiver — otherwise (a high-cost *in-cluster* decision, `q_k`);
//!    demands also decay stochastically, keeping the cluster load roughly
//!    stationary as in the paper's 40-interval runs;
//! 2. **balancing** — the full §4 regime protocol
//!    ([`crate::balance::balance_round`]);
//! 3. **accounting** — energy meters advance, the decision ledger closes
//!    the interval, and the census/sleeper series gain a point.

use crate::admission::{
    AdmissionController, AdmissionPolicy, AdmissionStats, ArrivalSpec, ServiceRequest,
};
use crate::balance::{
    balance_round, cluster_load_fraction, complete_matured_wakes, BalanceConfig, BalanceOutcome,
    MigrationRecord,
};
use crate::leader::Leader;
use crate::migration::MigrationCostModel;
use crate::mix::ServerMix;
use crate::recovery::{FaultHooks, NoFaults, RecoveryStats};
use crate::scaling::{DecisionKind, DecisionLedger, IntervalCounts};
use crate::server::{Server, ServerId};
use ecolb_energy::accounting::EnergyBreakdown;
use ecolb_energy::regimes::{RegimeBoundaries, RegimeCensus};
use ecolb_energy::sleep::SleepModel;
use ecolb_metrics::timeseries::TimeSeries;
use ecolb_simcore::rng::Rng;
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_trace::{
    NoTrace, SpanKind, StateDigest, TraceEventKind, Tracer, HEARTBEAT_TIMEOUT_INTERVALS,
};
use ecolb_workload::application::{AppId, Application};
use ecolb_workload::generator::{generate_server_apps, AppIdAllocator, WorkloadSpec};

/// Demand floor below which a VM is decommissioned (its application has
/// effectively gone idle).
const VM_RETIRE_FLOOR: f64 = 0.005;

/// Full configuration of a cluster experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of servers `n`.
    pub n_servers: usize,
    /// Initial workload band and application parameters.
    pub workload: WorkloadSpec,
    /// Balancing-round tunables.
    pub balance: BalanceConfig,
    /// VM migration cost model.
    pub migration: MigrationCostModel,
    /// Sleep transition model.
    pub sleep: SleepModel,
    /// Reallocation interval length `τ`.
    pub realloc_interval: SimDuration,
    /// Per-application, per-interval probability of a demand-growth
    /// request (a *scaling decision*).
    pub growth_prob: f64,
    /// Per-application, per-interval probability of silent demand decay
    /// (no decision recorded; keeps the load stationary).
    pub shrink_prob: f64,
    /// Optional stream of new service requests per interval.
    pub arrivals: Option<ArrivalSpec>,
    /// Admission policy for new service requests.
    pub admission: AdmissionPolicy,
    /// Heterogeneous server-class mix (power models per Table 1 class).
    pub server_mix: ServerMix,
}

impl ClusterConfig {
    /// The paper's experiment configuration for a given cluster size and
    /// load band. The leader's consolidation budget scales with the
    /// cluster (it is one coordinator serialising housekeeping), which is
    /// what stretches the low-load settling transient to the ~20 intervals
    /// Figure 3 shows.
    pub fn paper(n_servers: usize, workload: WorkloadSpec) -> Self {
        ClusterConfig {
            n_servers,
            workload,
            balance: BalanceConfig {
                drain_candidates_per_interval: Some((n_servers / 6).max(4)),
                ..BalanceConfig::default()
            },
            migration: MigrationCostModel::default(),
            sleep: SleepModel::default(),
            realloc_interval: SimDuration::from_secs(300),
            growth_prob: 0.05,
            shrink_prob: 0.05,
            arrivals: None,
            admission: AdmissionPolicy::AlwaysAdmit,
            server_mix: ServerMix::all_volume(),
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper(100, WorkloadSpec::paper_low_load())
    }
}

/// Result of a multi-interval run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRunReport {
    /// Census of awake servers before any balancing.
    pub initial_census: RegimeCensus,
    /// Census of awake servers after the final interval.
    pub final_census: RegimeCensus,
    /// Per-interval in-cluster/local decision ratio (Figure 3).
    pub ratio_series: TimeSeries,
    /// Per-interval count of sleeping servers (Table 2 input).
    pub sleeping_series: TimeSeries,
    /// Per-interval cluster load fraction.
    pub load_series: TimeSeries,
    /// Lifetime decision totals.
    pub decision_totals: IntervalCounts,
    /// Total VM migrations committed.
    pub migrations: u64,
    /// Cluster energy over the run (server draw).
    pub energy: EnergyBreakdown,
    /// Energy charged to VM migrations, Joules.
    pub migration_energy_j: f64,
    /// Energy the same cluster would have used with every server awake at
    /// its initial load for the whole run (the "always-on" reference).
    pub reference_energy_j: f64,
    /// Admission statistics (all zero when no arrival stream is
    /// configured).
    pub admission: AdmissionStats,
    /// QoS violations: server-intervals spent saturated (demand above
    /// physical capacity — requests queue and response times blow up).
    pub saturation_violations: u64,
    /// Server-intervals spent in an undesirable regime (R1 or R5) — the
    /// paper's second policy-quality metric.
    pub undesirable_server_intervals: u64,
}

impl ClusterRunReport {
    /// Energy-savings fraction versus the always-on reference.
    pub fn savings_fraction(&self) -> f64 {
        if self.reference_energy_j <= 0.0 {
            return 0.0;
        }
        1.0 - (self.energy.total_j() + self.migration_energy_j) / self.reference_energy_j
    }
}

/// A simulated cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    servers: Vec<Server>,
    leader: Leader,
    ledger: DecisionLedger,
    rng: Rng,
    ids: AppIdAllocator,
    now: SimTime,
    interval_index: u64,
    migration_energy_j: f64,
    migrations: u64,
    /// Every VM transfer committed in the most recent interval (evolve
    /// phase and balance phase), for the timed simulation layer.
    interval_migrations: Vec<MigrationRecord>,
    admission: AdmissionController,
    saturation_violations: u64,
    undesirable_server_intervals: u64,
    /// Table 1 class of each server, aligned with `servers`.
    classes: Vec<ecolb_energy::server_class::ServerClass>,
    /// Average power (Watts) the initial placement would burn on awake
    /// servers — the always-on reference rate.
    reference_power_w: f64,
    /// Server currently hosting the leader role.
    leader_host: ServerId,
    /// Election epoch: bumped on every completed failover.
    leader_epoch: u64,
    /// Consecutive intervals without a leader heartbeat.
    missed_heartbeats: u32,
    /// Recovery-protocol accounting (all zero in fault-free runs).
    recovery_stats: RecoveryStats,
    /// VM-ledger counters behind the per-interval state digest, which
    /// the chaos invariant checker balances against the id allocator:
    /// `created + imported == hosted + retired + orphaned + exported`.
    vms_retired: u64,
    vms_orphaned: u64,
    vms_imported: u64,
    vms_exported: u64,
    /// Census of the awake servers at construction, before any interval.
    initial_census: RegimeCensus,
    /// Sleeping-server count and load fraction sampled at the end of
    /// every interval ([`Cluster::interval_stats`]).
    sleeping_series: TimeSeries,
    load_series: TimeSeries,
}

impl Cluster {
    /// Builds a cluster: per-server boundaries sampled from the paper's
    /// ranges, apps from the workload band, all servers awake in C0.
    pub fn new(config: ClusterConfig, seed: u64) -> Self {
        assert!(config.n_servers > 0, "cluster needs at least one server");
        assert!(
            config.growth_prob >= 0.0
                && config.shrink_prob >= 0.0
                && config.growth_prob + config.shrink_prob <= 1.0,
            "growth/shrink probabilities must fit in [0, 1]"
        );
        config.server_mix.validate();
        let mut rng = Rng::new(seed);
        let mut ids = AppIdAllocator::new();
        let mut servers = Vec::with_capacity(config.n_servers);
        let mut classes = Vec::with_capacity(config.n_servers);
        let mut reference_power_w = 0.0;
        for i in 0..config.n_servers {
            let boundaries = RegimeBoundaries::sample_paper(&mut rng);
            let class = config.server_mix.sample(&mut rng);
            let power = config.server_mix.power_spec(class);
            classes.push(class);
            let mut server = Server::new(ServerId(i as u32), boundaries, power, SimTime::ZERO);
            for app in generate_server_apps(&config.workload, &mut ids, &mut rng) {
                server.place_app(app);
            }
            reference_power_w += {
                use ecolb_energy::power::PowerModel;
                server.power().power_w(server.normalized_performance())
            };
            servers.push(server);
        }
        let leader = Leader::new(config.n_servers);
        let config_admission = config.admission;
        let mut cluster = Cluster {
            config,
            servers,
            leader,
            ledger: DecisionLedger::new(),
            rng,
            ids,
            now: SimTime::ZERO,
            interval_index: 0,
            migration_energy_j: 0.0,
            migrations: 0,
            interval_migrations: Vec::new(),
            admission: AdmissionController::new(config_admission),
            saturation_violations: 0,
            undesirable_server_intervals: 0,
            classes,
            reference_power_w,
            leader_host: ServerId(0),
            leader_epoch: 0,
            missed_heartbeats: 0,
            recovery_stats: RecoveryStats::default(),
            vms_retired: 0,
            vms_orphaned: 0,
            vms_imported: 0,
            vms_exported: 0,
            initial_census: RegimeCensus::new(),
            sleeping_series: TimeSeries::new("sleeping_servers"),
            load_series: TimeSeries::new("cluster_load"),
        };
        cluster.initial_census = cluster.census();
        cluster
    }

    /// The servers (read-only).
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The leader (read-only).
    pub fn leader(&self) -> &Leader {
        &self.leader
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Census of the awake servers' regimes, live.
    pub fn census(&self) -> RegimeCensus {
        let mut c = RegimeCensus::new();
        for s in &self.servers {
            if s.is_awake() {
                c.record(s.regime());
            }
        }
        c
    }

    /// Number of servers currently in a sleep state (or waking).
    pub fn sleeping_count(&self) -> usize {
        self.servers.iter().filter(|s| s.is_sleeping()).count()
    }

    /// Current cluster load fraction.
    pub fn load_fraction(&self) -> f64 {
        cluster_load_fraction(&self.servers)
    }

    /// Sleeping-server count and cluster load fraction in one pass over
    /// the servers — the per-interval series sampling used to make two.
    /// The load sum accumulates in server order, exactly like
    /// [`cluster_load_fraction`], so the result is bit-identical.
    pub fn interval_stats(&self) -> (usize, f64) {
        if self.servers.is_empty() {
            return (0, 0.0);
        }
        let mut sleeping = 0usize;
        let mut load = 0.0f64;
        for s in &self.servers {
            sleeping += usize::from(s.is_sleeping());
            load += s.load();
        }
        (sleeping, load / self.servers.len() as f64)
    }

    /// Mean load fraction over the *awake* servers only — the per-
    /// instance load the serving layer balances against. A defined 0.0
    /// (never NaN) when every server is asleep or crashed.
    pub fn awake_load_fraction(&self) -> f64 {
        let mut awake = 0usize;
        let mut load = 0.0f64;
        for s in &self.servers {
            if s.is_awake() {
                awake += 1;
                load += s.load();
            }
        }
        if awake == 0 {
            0.0
        } else {
            load / awake as f64
        }
    }

    /// Fills `out` with the serving layer's instance snapshot: one
    /// [`crate::instances::InstanceInfo`] per server, in server-id
    /// order. See [`crate::instances`].
    pub fn instance_snapshot(&self, out: &mut Vec<crate::instances::InstanceInfo>) {
        crate::instances::snapshot_into(&self.servers, out);
    }

    /// Sum of all servers' energy breakdowns.
    pub fn energy(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for s in &self.servers {
            total.merge(&s.energy());
        }
        total
    }

    /// The decision ledger.
    pub fn ledger(&self) -> &DecisionLedger {
        &self.ledger
    }

    /// Energy charged to VM migrations so far, Joules.
    pub fn migration_energy_j(&self) -> f64 {
        self.migration_energy_j
    }

    /// Total VM migrations committed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Every VM transfer of the most recent interval (both scaling
    /// migrations and protocol migrations), for timed replay.
    pub fn interval_migrations(&self) -> &[MigrationRecord] {
        &self.interval_migrations
    }

    /// Admission statistics so far.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Removes an application on behalf of the federation tier, which
    /// does its own cost accounting for the inter-cluster transfer.
    pub fn take_app_for_federation(&mut self, server: ServerId, app: AppId) -> Option<Application> {
        let app = self.servers[server.index()].take_app(app)?;
        self.servers[server.index()].migrations_out += 1;
        self.vms_exported += 1;
        Some(app)
    }

    /// Places an application delivered by the federation tier.
    pub fn place_app_for_federation(&mut self, server: ServerId, app: Application) {
        self.servers[server.index()].migrations_in += 1;
        self.vms_imported += 1;
        self.servers[server.index()].place_app(app);
    }

    /// Table 1 class of each server, aligned with [`Cluster::servers`].
    pub fn server_classes(&self) -> &[ecolb_energy::server_class::ServerClass] {
        &self.classes
    }

    /// Cumulative energy per server class, Joules.
    pub fn energy_by_class(&self) -> Vec<(ecolb_energy::server_class::ServerClass, f64)> {
        use ecolb_energy::server_class::ServerClass;
        let mut totals = [
            (ServerClass::Volume, 0.0),
            (ServerClass::MidRange, 0.0),
            (ServerClass::HighEnd, 0.0),
        ];
        for (server, &class) in self.servers.iter().zip(&self.classes) {
            let slot = match class {
                ServerClass::Volume => &mut totals[0].1,
                ServerClass::MidRange => &mut totals[1].1,
                ServerClass::HighEnd => &mut totals[2].1,
            };
            *slot += server.energy().total_j();
        }
        totals.to_vec()
    }

    /// New-request arrivals + admission processing (step 0).
    fn admit_arrivals(&mut self) {
        let Some(spec) = self.config.arrivals else {
            // Even without arrivals, retry anything queued earlier.
            if self.admission.queue_len() > 0 {
                self.admission.process(
                    &mut self.servers,
                    &mut self.leader,
                    &mut self.ids,
                    &self.config.sleep,
                    self.now,
                );
            }
            return;
        };
        let count =
            ecolb_simcore::dist::Poisson::new(spec.mean_per_interval).sample_count(&mut self.rng);
        for _ in 0..count {
            let demand = self.rng.uniform(spec.demand_lo, spec.demand_hi);
            let lambda = self.rng.uniform(
                self.config.workload.lambda_lo,
                self.config.workload.lambda_hi,
            );
            let image = self.rng.uniform(
                self.config.workload.image_gib_lo,
                self.config.workload.image_gib_hi,
            );
            self.admission.submit(ServiceRequest {
                demand,
                lambda,
                image_gib: image,
            });
        }
        self.admission.process(
            &mut self.servers,
            &mut self.leader,
            &mut self.ids,
            &self.config.sleep,
            self.now,
        );
    }

    /// Demand evolution + scaling decisions for one interval (step 1).
    fn evolve_and_scale(&mut self, tracer: &mut dyn Tracer) {
        // Receiver pool for horizontal requests: awake servers with spare
        // room below their opt_high ceiling, fullest (least room) first:
        // best-fit keeps the workload concentrated. Remaining room is
        // tracked locally so one pool serves the whole interval.
        let mut pool: Vec<(ServerId, f64)> = self
            .servers
            .iter()
            .filter(|s| s.is_awake())
            .map(|s| (s.id(), s.boundaries().opt_high - s.load()))
            .filter(|&(_, room)| room > 0.0)
            .collect();
        pool.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        let vm_cap = self.config.workload.max_app_demand;
        for i in 0..self.servers.len() {
            if !self.servers[i].is_awake() {
                continue;
            }
            let from = ServerId(i as u32);
            let n_apps = self.servers[i].app_count();
            let mut retire = false;
            for a in 0..n_apps {
                let r = self.rng.next_f64();
                if r < self.config.growth_prob {
                    // Growth request of U(0, λ].
                    let (app_id, demand, lambda, image) = {
                        let app = &self.servers[i].apps()[a];
                        (app.id, app.demand, app.lambda, app.vm_image_gib)
                    };
                    let delta = self.rng.uniform(0.0, lambda);
                    let mut vacated = false;
                    let decision = if demand + delta > vm_cap {
                        // The VM is at its size ceiling: the application
                        // must **scale out** — a new VM on another, lightly
                        // loaded server (the paper's horizontal scaling:
                        // "creation of additional VMs … on lightly loaded
                        // servers"). The VM image travels, so this is an
                        // in-cluster decision.
                        match pool
                            .iter_mut()
                            .find(|(id, room)| *id != from && *room >= delta)
                        {
                            Some((rx, room)) => {
                                *room -= delta;
                                let new_lambda = self.rng.uniform(
                                    self.config.workload.lambda_lo,
                                    self.config.workload.lambda_hi,
                                );
                                let vm = Application::new(
                                    self.ids.alloc(),
                                    delta.clamp(VM_RETIRE_FLOOR, 1.0),
                                    new_lambda,
                                    image,
                                );
                                self.land(from, *rx, vm, tracer);
                                DecisionKind::InClusterHorizontal
                            }
                            None => DecisionKind::Deferred,
                        }
                    } else if self.servers[i].load() + delta
                        <= self.servers[i].boundaries().sopt_high
                    {
                        // Vertical scaling is feasible while the server has
                        // free capacity — up to the suboptimal-high edge;
                        // the balancing protocol sheds the excess later if
                        // the server leaves its optimal band. Grow in place.
                        self.servers[i].apps_mut()[a].demand += delta;
                        self.servers[i].refresh_load();
                        DecisionKind::LocalVertical
                    } else {
                        // No local headroom: migrate the grown VM elsewhere.
                        // Take the app before reserving receiver room so a
                        // missing app degrades to a deferred decision
                        // instead of leaking pool capacity.
                        let grown = demand + delta;
                        let taken = pool
                            .iter_mut()
                            .find(|(id, room)| *id != from && *room >= grown)
                            .and_then(|(rx, room)| {
                                let app = self.servers[i].take_app(app_id)?;
                                *room -= grown;
                                Some((*rx, app))
                            });
                        match taken {
                            Some((rx, mut app)) => {
                                app.demand = grown;
                                self.servers[i].migrations_out += 1;
                                self.land(from, rx, app, tracer);
                                vacated = true;
                                DecisionKind::InClusterHorizontal
                            }
                            None => DecisionKind::Deferred,
                        }
                    };
                    self.ledger.record(decision);
                    tracer.event(
                        self.now.ticks(),
                        TraceEventKind::Decision {
                            decision: decision.label(),
                        },
                    );
                    if vacated {
                        // The app vacated slot `a`; stop iterating this
                        // server's tail conservatively (swap_remove
                        // reordered the apps).
                        break;
                    }
                } else if r < self.config.growth_prob + self.config.shrink_prob {
                    // Silent decay of U(0, λ]; idle VMs are decommissioned.
                    let lambda = self.servers[i].apps()[a].lambda;
                    let delta = self.rng.uniform(0.0, lambda);
                    let app = &mut self.servers[i].apps_mut()[a];
                    app.demand = (app.demand - delta).max(VM_RETIRE_FLOOR);
                    if app.demand <= VM_RETIRE_FLOOR {
                        retire = true;
                    }
                    self.servers[i].refresh_load();
                }
            }
            if retire {
                let before = self.servers[i].app_count();
                self.servers[i]
                    .apps_mut()
                    .retain(|a| a.demand > VM_RETIRE_FLOOR);
                self.vms_retired += (before - self.servers[i].app_count()) as u64;
                self.servers[i].refresh_load();
            }
        }
    }

    /// Lands `app` on `to` as an in-cluster migration from `from`: costs
    /// it, counts it, traces it, records it for the interval, and places
    /// it.
    fn land(&mut self, from: ServerId, to: ServerId, app: Application, tracer: &mut dyn Tracer) {
        let cost = self.config.migration.cost_of(&app);
        self.migration_energy_j += cost.energy_j;
        self.migrations += 1;
        self.servers[to.index()].migrations_in += 1;
        tracer.event(
            self.now.ticks(),
            TraceEventKind::Migration {
                from: from.0,
                to: to.0,
                app: app.id.0,
                demand: app.demand,
            },
        );
        self.interval_migrations.push(MigrationRecord {
            from,
            to,
            app: app.id,
            demand: app.demand,
            cost,
        });
        self.servers[to.index()].place_app(app);
    }

    /// Server currently hosting the leader role.
    pub fn leader_host(&self) -> ServerId {
        self.leader_host
    }

    /// Current election epoch (bumped on every completed failover).
    pub fn leader_epoch(&self) -> u64 {
        self.leader_epoch
    }

    /// Recovery-protocol accounting so far (all zero in fault-free runs).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// True while the leader host is crash-stopped and no successor has
    /// been elected yet — the cluster cannot balance.
    pub fn leaderless(&self) -> bool {
        self.servers[self.leader_host.index()].is_crashed()
    }

    /// Crash-stops a server at instant `at`, returning its orphaned VMs.
    /// The leader's directory forgets the host immediately (the paper's
    /// star topology makes link death observable). No-op on an
    /// already-crashed host.
    pub fn crash_server(&mut self, id: ServerId, at: SimTime) -> Vec<Application> {
        if self.servers[id.index()].is_crashed() {
            return Vec::new();
        }
        let orphans = self.servers[id.index()].crash(at);
        self.vms_orphaned += orphans.len() as u64;
        self.leader.mark_offline(id);
        self.recovery_stats.servers_crashed += 1;
        orphans
    }

    /// Repairs a crashed server at instant `at`; it reboots through the
    /// C6 wake path and returns the instant it will be serviceable.
    /// `None` if the server was not crashed.
    pub fn recover_server(&mut self, id: ServerId, at: SimTime) -> Option<SimTime> {
        if !self.servers[id.index()].is_crashed() {
            return None;
        }
        let ready = self.servers[id.index()].recover(at, &self.config.sleep);
        self.recovery_stats.servers_recovered += 1;
        Some(ready)
    }

    /// Re-admits VMs orphaned by a host crash through the admission
    /// queue: the owners resubmit their service requests and placement
    /// follows the normal admission path next interval.
    pub fn readmit_orphans(&mut self, orphans: Vec<Application>) {
        for app in orphans {
            self.recovery_stats.orphans_readmitted += 1;
            self.admission.submit(ServiceRequest {
                demand: app.demand.clamp(VM_RETIRE_FLOOR, 1.0),
                lambda: app.lambda,
                image_gib: app.vm_image_gib,
            });
        }
    }

    /// The crash path every driver shares: records a `server_crashed`
    /// trace event, crash-stops `server` at `now` and queues its orphaned
    /// VMs for re-admission. Returns how many VMs were orphaned, or
    /// `None` (and does nothing, not even the trace event) when the
    /// server is already down.
    pub fn crash_and_readmit(
        &mut self,
        server: ServerId,
        now: SimTime,
        tracer: &mut dyn Tracer,
    ) -> Option<usize> {
        if self.servers[server.index()].is_crashed() {
            return None;
        }
        tracer.event(
            now.ticks(),
            TraceEventKind::ServerCrashed { server: server.0 },
        );
        let orphans = self.crash_server(server, now);
        let orphaned = orphans.len();
        self.readmit_orphans(orphans);
        Some(orphaned)
    }

    /// Elects a successor leader: the lowest-id awake server, falling
    /// back to the lowest-id non-crashed one (woken if asleep). The new
    /// leader starts from an empty directory and rebuilds it with a full
    /// report sweep. Returns `false` when no live server remains.
    fn fail_over(&mut self, tracer: &mut dyn Tracer) -> bool {
        let successor = self
            .servers
            .iter()
            .find(|s| s.is_awake())
            .map(Server::id)
            .or_else(|| {
                self.servers
                    .iter()
                    .find(|s| !s.is_crashed())
                    .map(Server::id)
            });
        let Some(new_leader) = successor else {
            return false;
        };
        self.leader_host = new_leader;
        self.leader_epoch += 1;
        self.missed_heartbeats = 0;
        self.recovery_stats.failovers += 1;
        tracer.event(
            self.now.ticks(),
            TraceEventKind::Failover {
                new_leader: new_leader.0,
                epoch: self.leader_epoch,
            },
        );
        self.leader.stats.elections += 1;
        self.leader.reset_directory();
        self.leader.full_report_sweep(&self.servers);
        for s in &self.servers {
            if s.is_crashed() {
                self.leader.mark_offline(s.id());
            }
        }
        if self.servers[new_leader.index()].is_sleeping()
            && self.servers[new_leader.index()].wake_ready_at().is_none()
        {
            self.servers[new_leader.index()].begin_wake(self.now, &self.config.sleep);
        }
        true
    }

    /// Heartbeat bookkeeping at the top of each interval: a live leader
    /// beacons and resets the miss counter; a dead one accumulates misses
    /// until the timeout elects a successor.
    fn heartbeat_check(&mut self, tracer: &mut dyn Tracer) {
        if !self.servers[self.leader_host.index()].is_crashed() {
            self.missed_heartbeats = 0;
            self.recovery_stats.heartbeats_sent += 1;
            self.leader.stats.heartbeats += 1;
            tracer.event(
                self.now.ticks(),
                TraceEventKind::HeartbeatSent {
                    leader: self.leader_host.0,
                },
            );
            return;
        }
        self.missed_heartbeats += 1;
        self.recovery_stats.heartbeats_missed += 1;
        tracer.event(
            self.now.ticks(),
            TraceEventKind::HeartbeatMissed {
                consecutive: self.missed_heartbeats,
            },
        );
        if self.missed_heartbeats >= HEARTBEAT_TIMEOUT_INTERVALS {
            self.fail_over(tracer);
        }
    }

    /// Runs one reallocation interval; returns the balancing outcome.
    pub fn run_interval(&mut self) -> BalanceOutcome {
        self.run_interval_traced(&mut NoFaults, &mut NoTrace)
    }

    /// [`Cluster::run_interval`] with both seams explicit. Report
    /// delivery and wake orders pass through `hooks`; with [`NoFaults`]
    /// the hook layer draws no randomness and the recovery bookkeeping
    /// never reaches [`ClusterRunReport`]. The interval is bracketed by
    /// an `interval` span in `tracer` (covering the τ it simulates) and
    /// every scaling decision, regime sample, migration, sleep/wake
    /// transition, and leader-liveness action lands in the trace; with
    /// [`NoTrace`] nothing is recorded. Either no-op leaves the state
    /// evolution and every report exactly as in the plain entry point.
    pub fn run_interval_traced(
        &mut self,
        hooks: &mut dyn FaultHooks,
        tracer: &mut dyn Tracer,
    ) -> BalanceOutcome {
        self.interval_migrations.clear();
        tracer.span_enter(self.now.ticks(), SpanKind::Interval);
        // Advance the clock by τ and integrate every meter under the state
        // that held during the interval.
        self.now += self.config.realloc_interval;
        for s in &mut self.servers {
            s.meter_advance(self.now);
        }
        tracer.event(
            self.now.ticks(),
            TraceEventKind::IntervalStarted {
                index: self.interval_index,
            },
        );

        // Recovery protocol: leader liveness check before any brokering.
        self.heartbeat_check(tracer);

        // Step 0: new service requests and admission control.
        self.admit_arrivals();

        // Step 1: demand evolution and scaling decisions.
        self.evolve_and_scale(tracer);

        // QoS census for the interval that just elapsed, one regime
        // sample per awake server in server order: saturated servers
        // violated response times, undesirable regimes violated the
        // energy-optimality objective (the paper's metric #2).
        for s in self.servers.iter().filter(|s| s.is_awake()) {
            let (regime, load) = (s.regime(), s.load());
            if load > 1.0 + 1e-9 {
                self.saturation_violations += 1;
            }
            if regime.is_undesirable() {
                self.undesirable_server_intervals += 1;
            }
            tracer.event(
                self.now.ticks(),
                TraceEventKind::RegimeSample {
                    server: s.id().0,
                    regime: regime.index() as u8,
                    load,
                },
            );
        }

        // Step 2: the §4 balancing protocol — skipped entirely while the
        // cluster is leaderless (nobody brokers partners), which is where
        // failed consolidations accumulate.
        let outcome = if self.leaderless() {
            complete_matured_wakes(&mut self.servers, self.now, tracer);
            let failed = self
                .servers
                .iter()
                .filter(|s| s.is_awake() && s.regime().is_undesirable())
                .count() as u64;
            self.recovery_stats.failed_consolidations += failed;
            self.recovery_stats.leaderless_intervals += 1;
            BalanceOutcome::default()
        } else {
            balance_round(
                &mut self.servers,
                &mut self.leader,
                &self.config,
                self.now,
                hooks,
                &mut self.recovery_stats,
                tracer,
            )
        };
        self.migration_energy_j += outcome.migration_energy_j();
        self.migrations += outcome.migrations.len() as u64;
        for _ in &outcome.migrations {
            self.ledger.record(DecisionKind::InClusterHorizontal);
        }
        self.recovery_stats.wake_failures += outcome.wake_failures.len() as u64;
        self.interval_migrations
            .extend_from_slice(&outcome.migrations);

        // Step 3: close the interval.
        let counts = self.ledger.close_interval();
        tracer.event(
            self.now.ticks(),
            TraceEventKind::IntervalClosed {
                index: self.interval_index,
                local: counts.local,
                in_cluster: counts.in_cluster,
                deferred: counts.deferred,
            },
        );
        if tracer.wants_digest() {
            self.emit_digest(tracer);
        }
        tracer.span_exit(self.now.ticks(), SpanKind::Interval);
        self.interval_index += 1;
        let (asleep, frac) = self.interval_stats();
        self.sleeping_series.push(asleep as f64);
        self.load_series.push(frac);
        outcome
    }

    /// Hands the tracer the end-of-interval [`StateDigest`] the chaos
    /// invariant checker validates: the VM ledger, the server
    /// power-state census and the leader view. Only called when the
    /// active tracer asks for digests ([`Tracer::wants_digest`]), so
    /// golden traces and untraced runs are unaffected.
    fn emit_digest(&self, tracer: &mut dyn Tracer) {
        let mut d = StateDigest {
            interval: self.interval_index,
            queued: self.admission.queue_len() as u64,
            created: self.ids.allocated(),
            retired: self.vms_retired,
            orphaned: self.vms_orphaned,
            imported: self.vms_imported,
            exported: self.vms_exported,
            leader: self.leader_host.0,
            leader_crashed: self.leaderless(),
            epoch: self.leader_epoch,
            energy_j: self.energy().total_j() + self.migration_energy_j,
            energy_migration_j: self.migration_energy_j,
            saturation: self.saturation_violations,
            ..StateDigest::default()
        };
        // Duplicate detection is a linear scan over an id-indexed bitmap
        // (ids are allocated densely from 0), not a sort — the digest is
        // emitted every interval and must stay cheap enough to leave the
        // checker on. Ids minted by a *different* cluster's allocator
        // (federation imports in tests) can exceed the local bound; they
        // fall back to a sort over the normally-empty overflow list.
        let mut seen = vec![false; self.ids.allocated() as usize];
        let mut overflow = Vec::new();
        // Per-Koomey-class cumulative energy (volume, mid-range,
        // high-end): the checker cross-foots these against the fleet
        // total, so a server drawing joules under the wrong class meter
        // is caught at the next digest.
        let mut class_energy = [0.0f64; 3];
        for (s, &class) in self.servers.iter().zip(&self.classes) {
            class_energy[class as usize] += s.energy().total_j();
            d.hosted += s.app_count() as u64;
            for app in s.apps() {
                match seen.get_mut(app.id.0 as usize) {
                    Some(slot) if *slot => d.dup_hosted += 1,
                    Some(slot) => *slot = true,
                    None => overflow.push(app.id.0),
                }
            }
            if s.is_crashed() {
                d.crashed += 1;
            } else if s.is_awake() {
                d.awake += 1;
            } else {
                d.sleeping += 1;
            }
            if !s.is_awake() && s.app_count() > 0 {
                d.sleeping_hosting += 1;
            }
        }
        if !overflow.is_empty() {
            overflow.sort_unstable();
            d.dup_hosted += overflow.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        }
        [d.energy_volume_j, d.energy_midrange_j, d.energy_highend_j] = class_energy;
        tracer.digest(self.now.ticks(), &d);
    }

    /// Runs `intervals` reallocation intervals and assembles the report.
    pub fn run(&mut self, intervals: u64) -> ClusterRunReport {
        for _ in 0..intervals {
            self.run_interval();
        }
        self.run_report()
    }

    /// Assembles the run report from the cluster's state so far: the
    /// census taken at construction, and every series sampled at the end
    /// of each interval since. Every run loop (this cluster's
    /// [`Cluster::run`], the timed simulation and the serving
    /// co-simulation) builds its report here.
    pub fn run_report(&self) -> ClusterRunReport {
        ClusterRunReport {
            initial_census: self.initial_census,
            final_census: self.census(),
            ratio_series: self.ledger.ratio_series(),
            sleeping_series: self.sleeping_series.clone(),
            load_series: self.load_series.clone(),
            decision_totals: self.ledger.totals(),
            migrations: self.migrations,
            energy: self.energy(),
            migration_energy_j: self.migration_energy_j,
            reference_energy_j: self.reference_power_w * self.now.as_secs_f64(),
            admission: self.admission.stats(),
            saturation_violations: self.saturation_violations,
            undesirable_server_intervals: self.undesirable_server_intervals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ClusterConfig {
        ClusterConfig::paper(50, WorkloadSpec::paper_low_load())
    }

    #[test]
    fn construction_places_initial_load_in_band() {
        let c = Cluster::new(small_config(), 1);
        for s in c.servers() {
            assert!(s.load() >= 0.20 - 0.021, "load {}", s.load());
            assert!(s.load() <= 0.40 + 1e-9, "load {}", s.load());
            assert!(s.is_awake());
        }
        assert_eq!(c.census().total(), 50);
    }

    #[test]
    fn same_seed_same_run() {
        let mut a = Cluster::new(small_config(), 42);
        let mut b = Cluster::new(small_config(), 42);
        let ra = a.run(10);
        let rb = b.run(10);
        assert_eq!(ra, rb, "bit-identical reports for identical seeds");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Cluster::new(small_config(), 1);
        let mut b = Cluster::new(small_config(), 2);
        assert_ne!(a.run(5).ratio_series, b.run(5).ratio_series);
    }

    #[test]
    fn load_is_roughly_stationary() {
        let mut c = Cluster::new(small_config(), 3);
        let before = c.load_fraction();
        c.run(40);
        let after = c.load_fraction();
        assert!(
            (after - before).abs() < 0.12,
            "load drifted {before} → {after}"
        );
    }

    #[test]
    fn interval_count_and_clock_advance() {
        let mut c = Cluster::new(small_config(), 4);
        c.run(7);
        assert_eq!(c.interval_index, 7);
        assert_eq!(c.now(), SimTime::from_secs(7 * 300));
    }

    #[test]
    fn ratio_series_has_one_point_per_interval() {
        let mut c = Cluster::new(small_config(), 5);
        let r = c.run(12);
        assert_eq!(r.ratio_series.len(), 12);
        assert_eq!(r.sleeping_series.len(), 12);
        assert_eq!(r.load_series.len(), 12);
    }

    #[test]
    fn decisions_accumulate() {
        let mut c = Cluster::new(small_config(), 6);
        let r = c.run(20);
        assert!(
            r.decision_totals.local > 0,
            "some vertical scaling happened"
        );
        assert!(
            r.decision_totals.local + r.decision_totals.in_cluster > 50,
            "a 50-server cluster over 20 intervals makes many decisions"
        );
    }

    #[test]
    fn energy_accrues_and_reference_dominates_when_sleeping() {
        let mut c = Cluster::new(ClusterConfig::paper(100, WorkloadSpec::paper_low_load()), 7);
        let r = c.run(30);
        assert!(r.energy.total_j() > 0.0);
        assert!(r.reference_energy_j > 0.0);
        // With sleeping enabled at 30 % load, we never burn more than the
        // always-on reference by more than the migration overhead.
        assert!(
            r.energy.total_j() < r.reference_energy_j * 1.10,
            "managed {} vs reference {}",
            r.energy.total_j(),
            r.reference_energy_j
        );
    }

    #[test]
    fn high_load_cluster_never_sleeps_servers() {
        let mut c = Cluster::new(
            ClusterConfig::paper(100, WorkloadSpec::paper_high_load()),
            8,
        );
        let r = c.run(20);
        let max_sleeping = r
            .sleeping_series
            .values()
            .iter()
            .copied()
            .fold(0.0_f64, f64::max);
        assert!(
            max_sleeping <= 2.0,
            "at 70 % load consolidation opportunities are rare, saw {max_sleeping}"
        );
    }

    #[test]
    fn census_total_counts_awake_only() {
        let mut c = Cluster::new(small_config(), 9);
        c.run(30);
        let census_total = c.census().total() as usize;
        assert_eq!(census_total + c.sleeping_count(), 50);
    }

    #[test]
    fn leader_crash_fails_over_to_lowest_id_live_server() {
        let mut c = Cluster::new(small_config(), 11);
        assert_eq!(c.leader_host(), ServerId(0));
        let orphans = c.crash_server(ServerId(0), c.now());
        assert!(!orphans.is_empty(), "initial placement hosts apps");
        c.readmit_orphans(orphans);
        assert!(c.leaderless());

        // Interval 1 after the crash: one heartbeat missed, below the
        // 2-interval timeout → the cluster idles leaderless.
        c.run_interval();
        assert!(c.leaderless());
        assert_eq!(c.recovery_stats().leaderless_intervals, 1);
        assert!(c.recovery_stats().failed_consolidations > 0);

        // Interval 2: timeout reached → failover, balancing resumes.
        c.run_interval();
        assert!(!c.leaderless());
        assert_eq!(c.leader_epoch(), 1);
        assert_eq!(c.recovery_stats().failovers, 1);
        assert_eq!(
            c.leader_host(),
            ServerId(1),
            "successor is the lowest-id awake server"
        );
        assert!(c.recovery_stats().orphans_readmitted > 0);
        assert_eq!(c.leader().stats().elections, 1);
    }

    #[test]
    fn crashed_non_leader_is_dropped_and_recovers() {
        let mut c = Cluster::new(small_config(), 12);
        let orphans = c.crash_server(ServerId(5), c.now());
        let n_orphans = orphans.len();
        c.readmit_orphans(orphans);
        assert!(!c.leaderless(), "leader survived");
        assert!(c.leader().entry(ServerId(5)).is_none());
        assert!(c.crash_server(ServerId(5), c.now()).is_empty(), "no-op");
        c.run_interval();
        assert_eq!(c.recovery_stats().orphans_readmitted as usize, n_orphans);
        let ready = c.recover_server(ServerId(5), c.now()).expect("was crashed");
        assert!(ready > c.now(), "reboot takes wake latency");
        assert_eq!(c.recover_server(ServerId(5), c.now()), None, "no-op");
        assert_eq!(c.recovery_stats().servers_crashed, 1);
        assert_eq!(c.recovery_stats().servers_recovered, 1);
    }

    #[test]
    fn fault_free_run_does_no_recovery_work() {
        let mut c = Cluster::new(small_config(), 42);
        for _ in 0..10 {
            c.run_interval();
        }
        let s = c.recovery_stats();
        assert_eq!(s.heartbeats_sent, 10, "live leader beacons every interval");
        assert_eq!(
            RecoveryStats {
                heartbeats_sent: 0,
                ..s
            },
            RecoveryStats::default(),
            "no recovery work in a fault-free run"
        );
        assert_eq!(c.leader_epoch(), 0);
    }

    /// Loses every wake order the leader issues.
    struct FailWakes;

    impl FaultHooks for FailWakes {
        fn wake_fails(&mut self, _server: ServerId) -> bool {
            true
        }
    }

    #[test]
    fn lost_wake_orders_are_counted_in_recovery_stats() {
        // Fresh requests overload consolidated hosts, so the leader
        // orders sleepers awake.
        let mut cfg = small_config();
        cfg.arrivals = Some(ArrivalSpec::new(4.0, 0.2, 0.5));
        let mut c = Cluster::new(cfg, 5);
        let mut lost = 0;
        for _ in 0..20 {
            let outcome = c.run_interval_traced(&mut FailWakes, &mut NoTrace);
            lost += outcome.wake_failures.len() as u64;
        }
        assert!(lost > 0, "the run issued wake orders");
        assert_eq!(c.recovery_stats().wake_failures, lost);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn rejects_empty_cluster() {
        let mut cfg = small_config();
        cfg.n_servers = 0;
        Cluster::new(cfg, 0);
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn rejects_bad_probabilities() {
        let mut cfg = small_config();
        cfg.growth_prob = 0.9;
        cfg.shrink_prob = 0.9;
        Cluster::new(cfg, 0);
    }
}
