//! `ServeSim`: co-simulation of request routing and the energy policy.
//!
//! One discrete-event engine drives two coupled layers. The *cluster*
//! layer is the unmodified §4 reallocation protocol — demand evolution,
//! regime classification, migrations, drain-and-sleep — ticking every
//! reallocation interval, exactly as in `TimedClusterSim`. The *serving*
//! layer rides on the same clock: open-loop request arrivals (one
//! Poisson source per initial application), a picked instance per
//! request, FIFO queueing per server, and a latency sample per
//! completion.
//!
//! The two layers interact in both directions:
//!
//! * **policy → routing** — every reallocation boundary refreshes the
//!   [`ClusterDiscover`] snapshot, so wake/sleep/crash decisions change
//!   the routable set the pickers see (and the `RegimeAware` picker
//!   additionally reads the regime classification itself);
//! * **routing → energy** — a request's *effective* service time
//!   stretches with the chosen server's load (`1/(1−load)` processor-
//!   sharing slowdown, load capped at `SLOWDOWN_LOAD_CAP`), and each
//!   effective-service-second draws `REQUEST_POWER_W` scaled by the
//!   serving regime's energy-proportionality factor
//!   ([`regime_energy_multiplier`]): work
//!   done on a nearly idle server amortizes its fixed power draw over
//!   almost nothing, so a request served in R1/R2 costs more joules than
//!   the same request served in the optimal band — the §3 argument,
//!   applied per request. When the consolidation policy puts a server to sleep while
//!   it still holds queued requests, the remaining backlog is charged at
//!   `SLEEP_DEFERRAL_POWER_W` — the server must stay up
//!   to drain before it can actually power down. A picker that keeps
//!   routing to drain candidates therefore pays for it in joules, and a
//!   picker that routes into overloaded servers pays in both joules and
//!   tail latency.
//!
//! The cluster's own decision stream is *identical* across pickers (the
//! serving layer never mutates cluster state or consumes its RNG), so a
//! picker comparison isolates the routing policy: same migrations, same
//! sleeps — different latency and different serve-side energy.

use std::collections::VecDeque;

use crate::discover::{Change, ClusterDiscover, Discover, InstanceSet};
use crate::handoff::{self, Handoff};
use crate::picker::{HorizonIndex, Picker, PickerKind};
use crate::queue::QueueModel;
use crate::resilience::{BackoffSchedule, BreakerBank, ResiliencePolicy, RetryBudget};
use ecolb_cluster::cluster::{Cluster, ClusterConfig, ClusterRunReport};
use ecolb_cluster::instances::InstanceInfo;
use ecolb_cluster::server::ServerId;
use ecolb_energy::regimes::OperatingRegime;
use ecolb_faults::inject::FaultInjector;
use ecolb_faults::plan::{FaultEventKind, FaultPlan};
use ecolb_metrics::latency::{LatencyRecorder, SlaClassCounters};
use ecolb_metrics::resilience::ResilienceCounters;
use ecolb_simcore::engine::{Control, Engine, RunOutcome};
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_trace::{NoTrace, TraceEventKind, Tracer};
use ecolb_workload::processes::{RateModulation, SourceProfile};
use ecolb_workload::requests::{OpenLoopSource, RequestId, RequestLoadSpec};

/// Admission bound: a request is rejected when the chosen server already
/// queues more than this many seconds of work.
const REJECT_BACKLOG_S: f64 = 2.0;

/// Marginal power drawn per effective-service-second, watts.
const REQUEST_POWER_W: f64 = 40.0;

/// Power charged while a sleeping-ordered server drains its request
/// backlog, watts.
const SLEEP_DEFERRAL_POWER_W: f64 = 120.0;

/// Load cap in the `1/(1−load)` slowdown (keeps the stretch finite on
/// saturated servers).
const SLOWDOWN_LOAD_CAP: f64 = 0.9;

/// Serving-layer configuration on top of a cluster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// The cluster the requests are served by.
    pub cluster: ClusterConfig,
    /// Request traffic shape (per-app rates, service-time mean, SLA mix).
    pub load: RequestLoadSpec,
    /// Time-varying arrival modulation across the sources (flash crowds,
    /// diurnal waves). `Flat` is byte-identical to the unmodulated
    /// process.
    pub modulation: RateModulation,
    /// Scheduled faults injected into the co-simulation — the seam the
    /// scenario layer uses for spot/preemptible reclaims. `None` (and an
    /// empty plan) is a structural no-op. Scheduled crashes refresh the
    /// discovery snapshot immediately, so pickers stop routing to a
    /// reclaimed server at reclaim time, not at the next tick. A crash
    /// destroys the server's request queue: every in-flight request on
    /// it is killed and counted as failed per SLA class — or retried,
    /// when the resilience policy grants a retry. Message-delay families
    /// are inert here: the serving engine does not simulate migration
    /// transfers on the wire.
    pub faults: Option<FaultPlan>,
    /// The request-level resilience stack (deadlines, retries, hedging,
    /// breakers, shedding). [`ResiliencePolicy::disabled`] is a
    /// structural no-op: zero extra RNG draws, byte-identical report
    /// and trace.
    pub resilience: ResiliencePolicy,
    /// The routing strategy under test.
    pub picker: PickerKind,
    /// Reallocation intervals to simulate.
    pub intervals: u64,
    /// Gold-class latency objective, seconds.
    pub gold_objective_s: f64,
    /// Bronze-class latency objective, seconds.
    pub bronze_objective_s: f64,
    /// Latency histogram range `[0, hi)`, seconds.
    pub latency_hi_s: f64,
    /// Latency histogram bins.
    pub latency_bins: usize,
}

/// Energy-proportionality factor of serving one request in a given
/// regime: joules per effective-service-second relative to the optimal
/// band. Real servers are far from energy-proportional (§3): a nearly
/// idle server amortizes its fixed power draw over very little work, so
/// work placed in R1 costs about twice what the same work costs in R3;
/// the saturated band pays a smaller premium (contention, not idle
/// waste). The multiplier applies to the `REQUEST_POWER_W` drawn per
/// effective-service-second.
pub fn regime_energy_multiplier(regime: OperatingRegime) -> f64 {
    match regime {
        OperatingRegime::UndesirableLow => 2.0,
        OperatingRegime::SuboptimalLow => 1.5,
        OperatingRegime::Optimal => 1.0,
        OperatingRegime::SuboptimalHigh => 1.05,
        OperatingRegime::UndesirableHigh => 1.25,
    }
}

impl ServeConfig {
    /// Paper-shaped defaults around a given cluster config: moderate
    /// open-loop traffic, a 2 s admission bound, 500 ms gold / 2 s
    /// bronze objectives, and serve-side power small relative to a
    /// server's idle draw.
    pub fn paper(cluster: ClusterConfig, picker: PickerKind, intervals: u64) -> Self {
        ServeConfig {
            cluster,
            load: RequestLoadSpec::moderate(),
            modulation: RateModulation::Flat,
            faults: None,
            resilience: ResiliencePolicy::disabled(),
            picker,
            intervals,
            gold_objective_s: 0.5,
            bronze_objective_s: 2.0,
            latency_hi_s: 8.0,
            latency_bins: 64,
        }
    }

    /// The latency objective of an SLA class index (0 = gold), seconds.
    fn objective_s(&self, class: u8) -> f64 {
        if class == 0 {
            self.gold_objective_s
        } else {
            self.bronze_objective_s
        }
    }
}

/// Events of the serving co-simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// End of a reallocation interval: demand evolution + balancing +
    /// discovery refresh.
    ReallocationTick,
    /// The next request of an open-loop source arrives.
    Arrival {
        /// Index into the source table.
        source: u32,
    },
    /// The head attempt of a server's queue finishes service.
    Completion {
        /// The server that served it.
        server: ServerId,
        /// The server's crash epoch when the attempt was queued; a stale
        /// epoch marks an attempt a crash killed after it was scheduled.
        epoch: u32,
    },
    /// A backoff delay elapsed: the resilience layer re-dispatches a
    /// failed request.
    Retry(Attempt),
    /// A scheduled fault from the plan fires (spot reclaim, crash,
    /// scripted recovery).
    Fault(FaultEventKind),
}

/// Attempt-id flag marking the hedged (duplicate) attempt of a request.
const HEDGE_BIT: u32 = 1 << 31;

/// Attempt-id flag marking the primary of a hedged request, set on its
/// ledger entry when the twin is queued.
const HEDGED: u32 = 1 << 30;

/// The attempt-id bits under either flag: the hedged request's slot in
/// [`Hedges`]. Both attempts of a hedged request are its attempt 0.
const HEDGE_SLOT: u32 = HEDGED - 1;

/// One dispatch attempt of a request: what a retry carries and what a
/// server's queue holds until the attempt completes or a crash kills it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attempt {
    request: u64,
    /// SLA class index (0 = gold).
    class: u8,
    /// First admission instant, integer ticks: deadlines and latency are
    /// measured from it, not from a retry.
    admitted_ticks: u64,
    /// 0 = original; retries count up. The two attempts of a hedged
    /// request carry a flag over its [`HEDGE_SLOT`] instead: the twin
    /// [`HEDGE_BIT`], and the primary [`HEDGED`] once the twin is queued.
    attempt: u32,
}

impl Attempt {
    /// The hedge slot of a flagged attempt; `None` for every attempt of
    /// an unhedged request.
    fn hedge_slot(&self) -> Option<usize> {
        (self.attempt & (HEDGE_BIT | HEDGED) != 0).then_some((self.attempt & HEDGE_SLOT) as usize)
    }

    /// The ordinal of the retry that follows this attempt. A flagged
    /// attempt is attempt 0.
    fn next_ordinal(&self) -> u32 {
        match self.hedge_slot() {
            Some(_) => 1,
            None => self.attempt + 1,
        }
    }
}

/// One server's queued attempts in enqueue order, plus its crash epoch.
///
/// The FIFO [`QueueModel`] makes a server's completion times
/// non-decreasing in enqueue order, and the engine fires equal instants
/// in insertion order, so a live completion is always the head of its
/// server's ledger. A crash empties the ledger and bumps the epoch; the
/// completions it left pending then arrive stale and are dropped.
#[derive(Debug, Clone, Default)]
struct Ledger {
    queued: VecDeque<Attempt>,
    epoch: u32,
}

/// Outstanding-attempt bookkeeping of the hedged requests in flight: the
/// first completion resolves a request, the straggler is absorbed
/// silently. A request's track lives in the slot its two flagged
/// attempts carry, so settling an attempt never searches, and an
/// unhedged attempt touches nothing. A settled request's slot is reused.
#[derive(Debug, Default)]
struct Hedges {
    tracks: Vec<HedgeTrack>,
    free: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct HedgeTrack {
    request: u64,
    outstanding: u8,
    resolved: bool,
}

impl Hedges {
    /// Opens the track of `request`'s two attempts and returns its slot.
    fn open(&mut self, request: u64) -> u32 {
        let track = HedgeTrack {
            request,
            outstanding: 2,
            resolved: false,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.tracks[slot as usize] = track;
                slot
            }
            None => {
                self.tracks.push(track);
                (self.tracks.len() - 1) as u32
            }
        };
        debug_assert!(slot <= HEDGE_SLOT, "hedge slot {slot} overflows");
        slot
    }

    /// Settles one attempt, completed or crash-killed. For an attempt of
    /// a hedged request, returns whether the request was already resolved
    /// and whether its twin is still outstanding; `None` otherwise.
    fn settle(&mut self, a: &Attempt, completed: bool) -> Option<(bool, bool)> {
        // The oracle of the flags: no live track belongs to an unflagged
        // attempt.
        #[cfg(test)]
        assert!(
            a.hedge_slot().is_some()
                || !self
                    .tracks
                    .iter()
                    .any(|t| t.outstanding > 0 && t.request == a.request),
            "unflagged attempt {a:?} has a hedge track"
        );
        let slot = a.hedge_slot()?;
        let track = &mut self.tracks[slot];
        debug_assert_eq!(track.request, a.request, "{a:?} settles another track");
        track.outstanding -= 1;
        let resolved = track.resolved;
        track.resolved |= completed;
        let twin_alive = track.outstanding > 0;
        if !twin_alive {
            self.free.push(slot as u32);
        }
        Some((resolved, twin_alive))
    }
}

/// Why a dispatch attempt could not be served — decides both the retry
/// eligibility and the terminal accounting bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailCause {
    /// The picker found no routable instance.
    NoInstance,
    /// The chosen server exceeded the hard admission bound.
    Backlog,
    /// The predicted latency already exceeded the request's deadline.
    Deadline,
    /// The serving instance crashed with the attempt queued.
    Crash,
}

impl FailCause {
    fn reason(self) -> &'static str {
        match self {
            FailCause::NoInstance => "no_instance",
            FailCause::Backlog => "backlog",
            FailCause::Deadline => "deadline",
            FailCause::Crash => "crash",
        }
    }
}

/// Everything a `ServeSim` run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The routing strategy that produced this report.
    pub picker: &'static str,
    /// The capacity-level cluster report (identical across pickers for
    /// the same cluster config and seed).
    pub base: ClusterRunReport,
    /// Requests admitted into the serving layer. Conservation:
    /// `admitted == completed + rejected + failed`.
    pub requests_admitted: u64,
    /// Requests that completed service.
    pub requests_completed: u64,
    /// Requests rejected (no awake instance, admission bound, deadline
    /// guard, or load shedding).
    pub requests_rejected: u64,
    /// Requests lost terminally to instance crashes — queued on a
    /// server when it crashed and not rescued by a retry or a surviving
    /// hedge twin.
    pub requests_failed: u64,
    /// End-to-end latency profile (queueing + service).
    pub latency: LatencyRecorder,
    /// Per-SLA-class served/violated/rejected counters.
    pub sla: SlaClassCounters,
    /// Cumulative latency overrun past each class objective, seconds
    /// (index 0 = gold, 1 = bronze) — the SLA axis of the Pareto
    /// frontier: not just *how many* requests missed, but by how much.
    pub violation_seconds: [f64; 2],
    /// Requests served per server (server-id index).
    pub per_instance_served: Vec<u64>,
    /// Serve-side energy: Σ effective service × request power, joules.
    pub serve_energy_j: f64,
    /// Energy charged to draining backlogged servers the policy slept,
    /// joules.
    pub sleep_deferral_energy_j: f64,
    /// Sleep decisions that found a non-empty request queue.
    pub deferred_sleeps: u64,
    /// Resilience-layer activity (retries, hedges, sheds, breaker
    /// transitions, per-class failures). All-zero except `failed_*`
    /// when the policy is disabled.
    pub resilience: ResilienceCounters,
    /// Total events the engine processed.
    pub events_processed: u64,
}

impl ServeReport {
    /// Cluster energy plus both serve-side charges, joules — the energy
    /// axis of the energy-vs-p99 frontier.
    pub fn total_energy_j(&self) -> f64 {
        self.base.energy.total_j() + self.serve_energy_j + self.sleep_deferral_energy_j
    }

    /// P² estimate of the 99th-percentile latency, seconds.
    pub fn p99_s(&self) -> f64 {
        self.latency.p99()
    }

    /// Rejected fraction of admitted requests; defined 0.0 when no
    /// request ever arrived.
    pub fn reject_fraction(&self) -> f64 {
        if self.requests_admitted == 0 {
            0.0
        } else {
            self.requests_rejected as f64 / self.requests_admitted as f64
        }
    }
}

/// The request/energy co-simulation. See the module docs.
#[derive(Debug)]
pub struct ServeSim {
    config: ServeConfig,
    seed: u64,
}

struct ServeState {
    cluster: Cluster,
    discover: ClusterDiscover,
    picker: Box<dyn Picker>,
    queues: QueueModel,
    sources: Vec<OpenLoopSource>,
    profiles: Vec<SourceProfile>,
    injector: FaultInjector,
    changes: Vec<Change>,
    horizon: SimTime,
    realloc_interval: SimDuration,
    intervals_left: u64,
    seed: u64,
    // Resilience.
    breakers: BreakerBank,
    budget: Option<RetryBudget>,
    ledgers: Vec<Ledger>,
    hedges: Hedges,
    /// Zero-penalty horizon index answering the hedge alternate; built
    /// on the first hedge.
    hedge_index: HorizonIndex,
    filtered: InstanceSet,
    filter_scratch: Vec<InstanceInfo>,
    filtered_dirty: bool,
    reopened_scratch: Vec<ServerId>,
    // Measurement.
    next_request: u64,
    completed: u64,
    rejected: u64,
    failed: u64,
    counters: ResilienceCounters,
    sla: SlaClassCounters,
    violation_seconds: [f64; 2],
    per_instance_served: Vec<u64>,
    serve_energy_j: f64,
    sleep_deferral_energy_j: f64,
    deferred_sleeps: u64,
}

impl ServeSim {
    /// Creates the co-simulation for the given config and seed. The
    /// seed feeds the cluster exactly as in `TimedClusterSim` plus the
    /// keyed request streams (arrivals, service times, picker choices).
    pub fn new(config: ServeConfig, seed: u64) -> Self {
        ServeSim { config, seed }
    }

    /// Runs to completion and returns the serving report. The run spawns
    /// one helper thread, which folds completion latencies and pre-draws
    /// service times beside the engine loop; the report does not depend
    /// on how the two threads are scheduled.
    pub fn run(self) -> ServeReport {
        self.run_traced(&mut NoTrace)
    }

    /// [`ServeSim::run`] with a tracer observing engine dispatch, the
    /// cluster protocol *and* the request path (`request_admit`,
    /// `request_route`, `request_complete`, `request_reject`).
    pub fn run_traced<T: Tracer>(self, tracer: &mut T) -> ServeReport {
        let seed = self.seed;
        let cfg = self.config;
        let cluster = Cluster::new(cfg.cluster.clone(), seed);
        let realloc_interval = cluster.config().realloc_interval;
        let n_servers = cluster.servers().len();
        let horizon = SimTime::ZERO
            + SimDuration::from_ticks(realloc_interval.ticks().saturating_mul(cfg.intervals));

        // One open-loop source per initial application, in (server, app)
        // placement order — the source index keys its arrival stream,
        // and its modulation profile (flash-crowd participation, diurnal
        // phase) keys an independent stream on the same index.
        let mut sources = Vec::new();
        let mut profiles = Vec::new();
        for server in cluster.servers() {
            for app in server.apps() {
                let idx = sources.len() as u64;
                sources.push(cfg.load.source_for(seed, idx, app));
                profiles.push(cfg.modulation.profile_for(seed, idx));
            }
        }
        let fault_plan = cfg.faults.clone().unwrap_or_else(|| FaultPlan::empty(seed));

        let discover = ClusterDiscover::new(&cluster);
        let mut state = ServeState {
            discover,
            picker: cfg.picker.build(seed),
            queues: QueueModel::new(n_servers),
            sources,
            profiles,
            injector: FaultInjector::new(&fault_plan, n_servers),
            changes: Vec::new(),
            horizon,
            realloc_interval,
            intervals_left: cfg.intervals,
            seed,
            breakers: BreakerBank::new(n_servers),
            budget: cfg.resilience.retry.map(|r| RetryBudget::new(r.budget)),
            ledgers: vec![Ledger::default(); n_servers],
            hedges: Hedges::default(),
            hedge_index: HorizonIndex::default(),
            filtered: InstanceSet::default(),
            filter_scratch: Vec::new(),
            filtered_dirty: true,
            reopened_scratch: Vec::new(),
            next_request: 0,
            completed: 0,
            rejected: 0,
            failed: 0,
            counters: ResilienceCounters::default(),
            sla: SlaClassCounters::new(),
            violation_seconds: [0.0; 2],
            per_instance_served: vec![0; n_servers],
            serve_energy_j: 0.0,
            sleep_deferral_energy_j: 0.0,
            deferred_sleeps: 0,
            cluster,
        };

        // Each source keeps one arrival pending, and the queued attempts'
        // completions add about one per server: `serve_p2c` (3 326 sources,
        // 1 000 servers) peaks at 4 098 pending events.
        let mut engine: Engine<ServeEvent> = Engine::with_capacity(state.sources.len() + n_servers);
        // A zero-interval run has no tick, so it drains at once.
        if cfg.intervals > 0 {
            engine.schedule_at(
                SimTime::ZERO + realloc_interval,
                ServeEvent::ReallocationTick,
            );
        }
        for (i, source) in state.sources.iter_mut().enumerate() {
            if let Some(gap) = state.profiles[i].next_gap_s(source, 0.0) {
                let at = SimTime::ZERO + SimDuration::from_secs_f64(gap);
                if at < horizon {
                    engine.schedule_at(at, ServeEvent::Arrival { source: i as u32 });
                }
            }
        }
        // Faults beyond the horizon can never be observed; drop them so
        // the engine drain stays bounded.
        for ev in &fault_plan.events {
            if ev.at <= horizon {
                engine.schedule_at(ev.at, ServeEvent::Fault(ev.kind));
            }
        }

        // A helper thread beside the loop folds the completion latencies
        // into the recorder and pre-draws service times (`handoff`).
        let latency = LatencyRecorder::new(cfg.latency_hi_s, cfg.latency_bins);
        let (outcome, latency) =
            handoff::beside(seed, cfg.load.mean_service_s, latency, |handoff| {
                engine.run_with(
                    &mut state,
                    tracer,
                    |_, _| SimDuration::ZERO,
                    |state, sched, event| match event {
                        ServeEvent::ReallocationTick => on_tick(state, sched),
                        ServeEvent::Arrival { source } => {
                            on_arrival(state, handoff, sched, &cfg, source)
                        }
                        ServeEvent::Completion { server, epoch } => {
                            on_completion(state, handoff, sched, &cfg, server, epoch)
                        }
                        ServeEvent::Retry(attempt) => {
                            dispatch_attempt(state, handoff, sched, &cfg, attempt);
                            stop_check(state, sched)
                        }
                        ServeEvent::Fault(kind) => on_fault(state, sched, &cfg, kind),
                    },
                )
            });
        debug_assert!(matches!(outcome, RunOutcome::Stopped | RunOutcome::Drained));

        let base = state.cluster.run_report();
        ServeReport {
            picker: cfg.picker.label(),
            base,
            requests_admitted: state.next_request,
            requests_completed: state.completed,
            requests_rejected: state.rejected,
            requests_failed: state.failed,
            latency,
            sla: state.sla,
            violation_seconds: state.violation_seconds,
            per_instance_served: state.per_instance_served,
            serve_energy_j: state.serve_energy_j,
            sleep_deferral_energy_j: state.sleep_deferral_energy_j,
            deferred_sleeps: state.deferred_sleeps,
            resilience: state.counters,
            events_processed: engine.events_processed(),
        }
    }
}

type Sched<'a, T> = ecolb_simcore::engine::Scheduler<'a, ServeEvent, T>;

fn on_tick<T: Tracer>(state: &mut ServeState, sched: &mut Sched<'_, T>) -> Control {
    let now = sched.now();
    state
        .cluster
        .run_interval_traced(&mut state.injector, sched.tracer());

    // Surface this interval's wake/sleep/crash and migration effects to
    // the picker, and charge sleep deferral for servers the policy put
    // down while they still queue work.
    refresh_discovery(state);
    for &change in &state.changes {
        match change {
            Change::Left(server) => {
                let backlog = state.queues.backlog(now, server);
                if !backlog.is_zero() {
                    state.deferred_sleeps += 1;
                    state.sleep_deferral_energy_j += backlog.as_secs_f64() * SLEEP_DEFERRAL_POWER_W;
                }
            }
            Change::Joined(server) => {
                // A rejoin (recovery or wake) is fresh evidence: close
                // any breaker still open on the server.
                if state.breakers.reset(server) {
                    state.counters.breaker_closes += 1;
                    sched.tracer().event(
                        now.ticks(),
                        TraceEventKind::BreakerClosed { server: server.0 },
                    );
                }
            }
            Change::Updated(_) => {}
        }
    }

    state.intervals_left -= 1;
    if state.intervals_left > 0 {
        sched.schedule_in(state.realloc_interval, ServeEvent::ReallocationTick);
        Control::Continue
    } else if sched.pending() == 0 {
        Control::Stop
    } else {
        Control::Continue // drain in-flight completions
    }
}

/// Refreshes the discovery snapshot from the cluster, leaves the diff in
/// `state.changes` and hands it to the picker.
fn refresh_discovery(state: &mut ServeState) {
    state.discover.refresh(&state.cluster);
    state.discover.poll_changes(&mut state.changes);
    if !state.changes.is_empty() {
        state.filtered_dirty = true;
    }
    state
        .picker
        .on_change(state.discover.instances(), &state.changes);
}

fn on_arrival<T: Tracer>(
    state: &mut ServeState,
    handoff: &mut Handoff,
    sched: &mut Sched<'_, T>,
    cfg: &ServeConfig,
    source: u32,
) -> Control {
    let now = sched.now();
    let now_ticks = now.ticks();
    let src_idx = source as usize;
    let (app, class) = match state.sources.get(src_idx) {
        Some(s) => (s.app, s.class.index() as u8),
        None => return Control::Continue,
    };
    let request = state.next_request;
    state.next_request += 1;
    sched.tracer().event(
        now_ticks,
        TraceEventKind::RequestAdmitted {
            request,
            app: app.0,
            class,
        },
    );

    // Every admission refills the retry budget, then the request takes
    // its first dispatch attempt through the resilience stack (which
    // degrades to the plain route/reject path when disabled).
    if let Some(budget) = &mut state.budget {
        budget.deposit();
    }
    let first = Attempt {
        request,
        class,
        admitted_ticks: now_ticks,
        attempt: 0,
    };
    dispatch_attempt(state, handoff, sched, cfg, first);

    // Open loop: the next arrival of this source is independent of how
    // this request fared. The gap inverts the source's modulation
    // profile from the current instant (flat profiles reduce to the
    // plain exponential draw).
    if let Some(gap) =
        state.profiles[src_idx].next_gap_s(&mut state.sources[src_idx], now.as_secs_f64())
    {
        if let Some(at) = now.checked_add(SimDuration::from_secs_f64(gap)) {
            if at < state.horizon {
                sched.schedule_at(at, ServeEvent::Arrival { source });
            }
        }
    }
    Control::Continue
}

/// One dispatch attempt of a request through the resilience stack:
/// breaker filtering, pick, shed/backlog/deadline guards, enqueue, and
/// an optional gold hedge. With the policy disabled this is exactly the
/// plain route-or-reject path — same pick key, same RNG draws, same
/// trace events.
fn dispatch_attempt<T: Tracer>(
    state: &mut ServeState,
    handoff: &mut Handoff,
    sched: &mut Sched<'_, T>,
    cfg: &ServeConfig,
    a: Attempt,
) {
    let now = sched.now();
    let now_ticks = now.ticks();
    let res = &cfg.resilience;

    // Open windows elapse lazily, checked at dispatch time: an expired
    // breaker moves to half-open (routable probe) before the pick. Only
    // a breaker policy ever opens one.
    if state.breakers.open_count() > 0 {
        let mut reopened = std::mem::take(&mut state.reopened_scratch);
        reopened.clear();
        state.breakers.poll_expired(now, &mut reopened);
        for server in &reopened {
            state.filtered_dirty = true;
            state.counters.breaker_closes += 1;
            sched.tracer().event(
                now_ticks,
                TraceEventKind::BreakerClosed { server: server.0 },
            );
        }
        state.reopened_scratch = reopened;
    }

    // While any breaker is open the picker sees a filtered instance
    // set; otherwise it sees the discovery snapshot untouched (the
    // disabled-policy fast path).
    let use_filtered = state.breakers.open_count() > 0;
    if use_filtered && state.filtered_dirty {
        let mut scratch = std::mem::take(&mut state.filter_scratch);
        scratch.clear();
        for inst in state.discover.instances().instances() {
            if !state.breakers.is_open(inst.id) {
                scratch.push(*inst);
            }
        }
        state.filtered.replace_from(&scratch);
        state.filter_scratch = scratch;
        state.filtered_dirty = false;
    }

    let view = state.queues.view(now);
    // Retries re-key the pick so a retry is not glued to the server
    // that just failed it; attempt 0 preserves the original key.
    let pick_key = RequestId(a.request ^ ((a.attempt as u64) << 56));
    let set = if use_filtered {
        &state.filtered
    } else {
        state.discover.instances()
    };
    let choice = state.picker.pick(set, &view, pick_key);
    let Some(server) = choice else {
        fail_attempt(state, sched, cfg, a, FailCause::NoInstance);
        return;
    };

    let backlog_s = state.queues.backlog(now, server).as_secs_f64();

    // SLA-class shedding is terminal, not retriable: the point is to
    // drop load, and a retry would put it straight back.
    if res
        .shed
        .is_some_and(|shed| backlog_s > shed.watermark_s(a.class as usize))
    {
        state.counters.record_shed(a.class as usize);
        state.rejected += 1;
        state.sla.record_rejected(a.class as usize);
        sched.tracer().event(
            now_ticks,
            TraceEventKind::RequestShed {
                request: a.request,
                class: a.class,
            },
        );
        sched.tracer().event(
            now_ticks,
            TraceEventKind::RequestRejected {
                request: a.request,
                reason: "shed",
            },
        );
        return;
    }

    if backlog_s > REJECT_BACKLOG_S {
        fail_attempt(state, sched, cfg, a, FailCause::Backlog);
        return;
    }

    // The service draw is keyed on the original request id, identical
    // across attempts; the handoff's window holds it precomputed.
    let service = handoff.service_s(RequestId(a.request));
    let (eff, regime) = effective_service(state, server, service);

    // Deadline guard: fail at dispatch what would miss its deadline
    // anyway, and feed the chosen server's breaker — a queue deep
    // enough to blow deadlines is the sim analogue of timing out.
    if let Some(deadline_s) = res.deadline_s(cfg.objective_s(a.class)) {
        let elapsed_s = now_ticks.saturating_sub(a.admitted_ticks) as f64 / 1e6;
        if elapsed_s + backlog_s + eff > deadline_s {
            state.counters.deadline_misses += 1;
            if res
                .breaker
                .is_some_and(|b| state.breakers.record_failure(server, now, &b))
            {
                state.filtered_dirty = true;
                state.counters.breaker_opens += 1;
                sched.tracer().event(
                    now_ticks,
                    TraceEventKind::BreakerOpened { server: server.0 },
                );
            }
            fail_attempt(state, sched, cfg, a, FailCause::Deadline);
            return;
        }
    }

    enqueue(state, sched, server, (eff, regime), a);
    sched.tracer().event(
        now_ticks,
        TraceEventKind::RequestRouted {
            request: a.request,
            server: server.0,
        },
    );

    // Gold hedge: when the primary's predicted latency is slow, race a
    // duplicate on the least-backlogged alternate; first completion
    // wins, the straggler still runs and pays its joules.
    let predicted_s = backlog_s + eff;
    if a.class == 0 && a.attempt == 0 && res.hedge.is_some_and(|h| predicted_s > h.threshold_s) {
        let hedge_set = if use_filtered {
            &state.filtered
        } else {
            state.discover.instances()
        };
        let alt = state
            .hedge_index
            .alternate(hedge_set, &state.queues.view(now), server);
        #[cfg(test)]
        assert_eq!(alt, hedge_alternate(hedge_set, &state.queues, now, server));
        if let Some(alt) = alt {
            let alt_service = effective_service(state, alt, service);
            let slot = state.hedges.open(a.request);
            let twin = Attempt {
                attempt: HEDGE_BIT | slot,
                ..a
            };
            enqueue(state, sched, alt, alt_service, twin);
            // The twin went to another server, so the primary is still
            // the back of its own ledger.
            if let Some(primary) = state.ledgers[server.index()].queued.back_mut() {
                debug_assert_eq!(primary.request, a.request);
                primary.attempt = HEDGED | slot;
            }
            state.counters.hedges += 1;
            sched.tracer().event(
                now_ticks,
                TraceEventKind::RequestHedge {
                    request: a.request,
                    server: alt.0,
                },
            );
        }
    }
}

/// Seconds of `service` on `server` stretched by its snapshot load
/// (processor sharing under the background VM demand), and the regime
/// that serves it.
fn effective_service(state: &ServeState, server: ServerId, service: f64) -> (f64, OperatingRegime) {
    let (load, regime) = state
        .discover
        .instances()
        .get(server.index())
        .map(|i| (i.load, i.regime))
        .unwrap_or((0.0, OperatingRegime::Optimal));
    let eff = service / (1.0 - load.min(SLOWDOWN_LOAD_CAP)).max(1e-6);
    (eff, regime)
}

/// Queues `entry` on `server` for `eff` effective seconds: the FIFO
/// horizon, the serve joules at the regime's multiplier, the server's
/// ledger and the completion event.
fn enqueue<T: Tracer>(
    state: &mut ServeState,
    sched: &mut Sched<'_, T>,
    server: ServerId,
    (eff, regime): (f64, OperatingRegime),
    entry: Attempt,
) {
    let (_start, done) = state
        .queues
        .enqueue(sched.now(), server, SimDuration::from_secs_f64(eff));
    state.serve_energy_j += eff * REQUEST_POWER_W * regime_energy_multiplier(regime);
    let ledger = &mut state.ledgers[server.index()];
    ledger.queued.push_back(entry);
    let epoch = ledger.epoch;
    sched.schedule_at(done, ServeEvent::Completion { server, epoch });
}

/// The least-backlogged routable alternate to `primary` (ties to the
/// lower server id), or `None` when the primary is the only choice: the
/// linear scan the hedge index must match.
#[cfg(test)]
fn hedge_alternate(
    set: &InstanceSet,
    queues: &QueueModel,
    now: SimTime,
    primary: ServerId,
) -> Option<ServerId> {
    let mut best: Option<(u64, ServerId)> = None;
    for &idx in set.awake_indices() {
        let inst = &set.instances()[idx];
        if inst.id == primary {
            continue;
        }
        let backlog = queues.backlog(now, inst.id).ticks();
        if best.is_none_or(|(b, _)| backlog < b) {
            best = Some((backlog, inst.id));
        }
    }
    best.map(|(_, id)| id)
}

/// A dispatch attempt failed: schedule a budgeted backoff retry when
/// the ladder allows it, otherwise settle the request terminally
/// (crash-killed attempts count as failures, everything else as a
/// rejection).
fn fail_attempt<T: Tracer>(
    state: &mut ServeState,
    sched: &mut Sched<'_, T>,
    cfg: &ServeConfig,
    a: Attempt,
    cause: FailCause,
) {
    let now_ticks = sched.now().ticks();
    let res = &cfg.resilience;
    let next = a.next_ordinal();
    let retry = res.retry.filter(|r| next <= r.max_attempts);
    if let (Some(retry), Some(budget)) = (retry, &mut state.budget) {
        if budget.try_withdraw() {
            state.counters.retries += 1;
            let schedule = BackoffSchedule::new(state.seed, RequestId(a.request), &retry);
            let delay = SimDuration::from_secs_f64(schedule.delay_s(next));
            sched.tracer().event(
                now_ticks,
                TraceEventKind::RequestRetry {
                    request: a.request,
                    attempt: next,
                    delay_us: delay.ticks(),
                },
            );
            sched.schedule_in(delay, ServeEvent::Retry(Attempt { attempt: next, ..a }));
            return;
        }
        state.counters.retries_denied += 1;
    }
    match cause {
        FailCause::Crash => {
            state.failed += 1;
            state.counters.record_failed(a.class as usize);
        }
        _ => {
            state.rejected += 1;
            state.sla.record_rejected(a.class as usize);
        }
    }
    sched.tracer().event(
        now_ticks,
        TraceEventKind::RequestRejected {
            request: a.request,
            reason: cause.reason(),
        },
    );
}

/// Past the final reallocation tick the engine stops once the last
/// in-flight completion or retry drains.
fn stop_check<T: Tracer>(state: &ServeState, sched: &Sched<'_, T>) -> Control {
    if state.intervals_left == 0 && sched.pending() == 0 {
        Control::Stop
    } else {
        Control::Continue
    }
}

fn on_completion<T: Tracer>(
    state: &mut ServeState,
    handoff: &mut Handoff,
    sched: &mut Sched<'_, T>,
    cfg: &ServeConfig,
    server: ServerId,
    epoch: u32,
) -> Control {
    let ledger = &mut state.ledgers[server.index()];
    let head = if ledger.epoch == epoch {
        ledger.queued.pop_front()
    } else {
        None
    };
    let Some(done) = head else {
        // Crash-killed after its completion was scheduled; the crash
        // already settled it.
        return stop_check(state, sched);
    };
    let Attempt {
        request,
        class,
        admitted_ticks,
        ..
    } = done;
    if cfg.resilience.breaker.is_some() {
        state.breakers.record_success(server);
    }
    if let Some((true, _)) = state.hedges.settle(&done, true) {
        // The straggler of a resolved hedge: the work was done (energy
        // already charged) but the request has settled.
        return stop_check(state, sched);
    }
    let now_ticks = sched.now().ticks();
    let latency_ticks = now_ticks.saturating_sub(admitted_ticks);
    let latency_s = latency_ticks as f64 / 1e6;
    handoff.record(latency_s);
    let objective = cfg.objective_s(class);
    state.sla.record(class as usize, latency_s > objective);
    state.violation_seconds[(class as usize).min(1)] += (latency_s - objective).max(0.0);
    state.completed += 1;
    state.per_instance_served[server.index()] += 1;
    sched.tracer().event(
        now_ticks,
        TraceEventKind::RequestCompleted {
            request,
            server: server.0,
            latency_us: latency_ticks,
        },
    );
    stop_check(state, sched)
}

/// Applies a scheduled fault to the co-simulation: crash (spot reclaim)
/// or scripted recovery. A crash orphans the host's VMs into the
/// leader's admission queue and refreshes the discovery snapshot at
/// fault time, so pickers stop routing to the reclaimed server
/// immediately. The crash destroys the server's request queue: every
/// queued attempt is killed and settled as a per-class failure unless
/// the resilience policy rescues it (a retry, or a surviving hedge
/// twin). Recovery re-enters the routable set at the next reallocation
/// tick, once the reboot actually reaches C0.
fn on_fault<T: Tracer>(
    state: &mut ServeState,
    sched: &mut Sched<'_, T>,
    cfg: &ServeConfig,
    kind: FaultEventKind,
) -> Control {
    if state.intervals_left == 0 {
        return Control::Continue; // past the final tick: unobservable
    }
    let now = sched.now();
    match kind {
        FaultEventKind::ServerCrash {
            server,
            recover_after,
        } => apply_serve_crash(state, sched, cfg, server, recover_after, now),
        FaultEventKind::LeaderCrash { recover_after } => {
            let leader = state.cluster.leader_host();
            apply_serve_crash(state, sched, cfg, leader, recover_after, now);
        }
        FaultEventKind::ServerRecover { server } => {
            if state.cluster.recover_server(server, now).is_some() {
                sched.tracer().event(
                    now.ticks(),
                    TraceEventKind::ServerRecovered { server: server.0 },
                );
            }
        }
    }
    Control::Continue
}

fn apply_serve_crash<T: Tracer>(
    state: &mut ServeState,
    sched: &mut Sched<'_, T>,
    cfg: &ServeConfig,
    server: ServerId,
    recover_after: Option<SimDuration>,
    now: SimTime,
) {
    if state
        .cluster
        .crash_and_readmit(server, now, sched.tracer())
        .is_none()
    {
        return;
    }
    // Surface the reclaim to the pickers right away — routing to a
    // crashed host between now and the next tick would be wrong.
    refresh_discovery(state);
    // Crash evidence trips the breaker straight to open, so retries of
    // the killed requests route elsewhere even before the next refresh.
    if cfg
        .resilience
        .breaker
        .is_some_and(|b| state.breakers.trip(server, now, &b))
    {
        state.counters.breaker_opens += 1;
        sched.tracer().event(
            now.ticks(),
            TraceEventKind::BreakerOpened { server: server.0 },
        );
    }
    // The dead queue is lost: a new epoch turns its pending completions
    // stale, and each killed attempt is settled (retry, absorbed by a
    // hedge twin, or counted failed).
    let ledger = &mut state.ledgers[server.index()];
    ledger.epoch += 1;
    let victims = std::mem::take(&mut ledger.queued);
    state.queues.reset(server);
    for victim in &victims {
        // A live twin (or an already-resolved race) settles the request
        // without this attempt.
        let terminal = match state.hedges.settle(victim, false) {
            Some((resolved, twin_alive)) => !resolved && !twin_alive,
            None => true,
        };
        if terminal {
            fail_attempt(state, sched, cfg, *victim, FailCause::Crash);
        }
    }
    if let Some(delay) = recover_after {
        sched.schedule_in(
            delay,
            ServeEvent::Fault(FaultEventKind::ServerRecover { server }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolb_simcore::proptest_lite::{check, Gen};
    use ecolb_workload::generator::WorkloadSpec;

    fn config(n: usize, picker: PickerKind, intervals: u64) -> ServeConfig {
        ServeConfig::paper(
            ClusterConfig::paper(n, WorkloadSpec::paper_low_load()),
            picker,
            intervals,
        )
    }

    /// Every pending event sits in a node of the engine queue's slab, so
    /// the retry's record must not widen the event.
    #[test]
    fn serve_event_stays_small() {
        assert_eq!(std::mem::size_of::<ServeEvent>(), 32);
    }

    #[test]
    fn serve_run_is_deterministic() {
        for kind in PickerKind::all() {
            let a = ServeSim::new(config(20, kind, 4), 11).run();
            let b = ServeSim::new(config(20, kind, 4), 11).run();
            assert_eq!(a, b, "{}", kind.label());
        }
    }

    /// Runs `cfg` traced with every event kept, and checks the report's
    /// recorder against the traced completions folded into a fresh one in
    /// trace order: the handoff must fold the loop's samples in the
    /// loop's order, the last partial batch included.
    fn latency_matches_the_traced_completions(cfg: ServeConfig, seed: u64) -> ServeReport {
        let mut tracer = ecolb_trace::RingTracer::with_capacity(1 << 24);
        let report = ServeSim::new(cfg.clone(), seed).run_traced(&mut tracer);
        assert_eq!(tracer.recorded(), tracer.events().count() as u64);
        let mut oracle = LatencyRecorder::new(cfg.latency_hi_s, cfg.latency_bins);
        for event in tracer.events() {
            if let TraceEventKind::RequestCompleted { latency_us, .. } = event.kind {
                oracle.record(latency_us as f64 / 1e6);
            }
        }
        assert_eq!(report.latency, oracle);
        assert_eq!(report.latency.count(), report.requests_completed);
        report
    }

    #[test]
    fn the_latency_handoff_matches_the_trace() {
        let batch = crate::handoff::LATENCIES as u64;
        // Completions span several batches and end in a partial one, on
        // the full stack: retries draw behind the service window.
        let mut full = config(20, PickerKind::LeastLoaded, 5);
        full.faults = Some(FaultPlan::empty(13).with_server_crash(
            SimTime::from_secs(300),
            ServerId(2),
            Some(SimDuration::from_secs(200)),
        ));
        full.resilience = ResiliencePolicy::full();
        let r = latency_matches_the_traced_completions(full, 13);
        assert!(r.requests_completed > 3 * batch, "{}", r.requests_completed);
        assert_ne!(r.requests_completed % batch, 0);
        assert!(r.resilience.retries > 0 && r.resilience.hedges > 0);
        // Fewer completions than one batch.
        let mut small = config(4, PickerKind::RoundRobin, 1);
        small.load.requests_per_demand /= 20.0;
        let r = latency_matches_the_traced_completions(small, 3);
        assert!(r.requests_completed > 0 && r.requests_completed < batch);
        // No interval, no completion.
        let r = latency_matches_the_traced_completions(config(20, PickerKind::RoundRobin, 0), 11);
        assert_eq!(r.requests_completed, 0);
    }

    #[test]
    fn zero_interval_run_is_empty() {
        let cfg = config(20, PickerKind::RoundRobin, 0);
        let base = Cluster::new(cfg.cluster.clone(), 11).run(0);
        let r = ServeSim::new(cfg, 11).run();
        assert_eq!(r.base, base);
        assert_eq!(r.events_processed, 0);
        assert_eq!(r.requests_admitted, 0);
    }

    #[test]
    fn admitted_splits_into_completed_rejected_and_failed() {
        for kind in PickerKind::all() {
            let r = ServeSim::new(config(20, kind, 4), 7).run();
            assert!(r.requests_admitted > 0, "{}", kind.label());
            assert_eq!(
                r.requests_admitted,
                r.requests_completed + r.requests_rejected + r.requests_failed,
                "{}",
                kind.label()
            );
            assert_eq!(r.requests_failed, 0, "no crashes, nothing fails");
            assert!(!r.resilience.is_active(), "disabled policy stays silent");
            assert_eq!(r.latency.count(), r.requests_completed);
            assert_eq!(r.sla.total_served(), r.requests_completed);
            assert_eq!(r.sla.total_rejected(), r.requests_rejected);
            assert_eq!(
                r.per_instance_served.iter().sum::<u64>(),
                r.requests_completed
            );
        }
    }

    #[test]
    fn cluster_decisions_are_picker_independent() {
        let reports: Vec<ServeReport> = PickerKind::all()
            .into_iter()
            .map(|k| ServeSim::new(config(24, k, 5), 13).run())
            .collect();
        for r in &reports[1..] {
            assert_eq!(
                r.base, reports[0].base,
                "{} vs {}",
                r.picker, reports[0].picker
            );
        }
    }

    #[test]
    fn serve_report_matches_plain_cluster_run() {
        let r = ServeSim::new(config(30, PickerKind::RoundRobin, 6), 5).run();
        let mut sync = Cluster::new(ClusterConfig::paper(30, WorkloadSpec::paper_low_load()), 5);
        let sync_report = sync.run(6);
        assert_eq!(r.base.ratio_series, sync_report.ratio_series);
        assert_eq!(r.base.decision_totals, sync_report.decision_totals);
        assert_eq!(r.base.final_census, sync_report.final_census);
        assert_eq!(r.base.migrations, sync_report.migrations);
    }

    #[test]
    fn empty_fault_plan_is_a_noop() {
        let mut with_empty = config(20, PickerKind::LeastLoaded, 4);
        with_empty.faults = Some(ecolb_faults::plan::FaultPlan::empty(11));
        let a = ServeSim::new(config(20, PickerKind::LeastLoaded, 4), 11).run();
        let b = ServeSim::new(with_empty, 11).run();
        assert_eq!(a, b);
    }

    #[test]
    fn flash_crowd_raises_traffic_and_violation_seconds_accrue() {
        use ecolb_workload::processes::{FlashCrowdSpec, RateModulation};
        let flat = ServeSim::new(config(20, PickerKind::LeastLoaded, 4), 9).run();
        let mut crowded_cfg = config(20, PickerKind::LeastLoaded, 4);
        crowded_cfg.modulation = RateModulation::FlashCrowd(FlashCrowdSpec {
            onset_s: 100.0,
            ramp_s: 60.0,
            decay_s: 200.0,
            participation: 1.0,
            ..FlashCrowdSpec::moderate()
        });
        let crowded = ServeSim::new(crowded_cfg.clone(), 9).run();
        assert!(
            crowded.requests_admitted > flat.requests_admitted,
            "crowd {} vs flat {}",
            crowded.requests_admitted,
            flat.requests_admitted
        );
        // The cluster layer never observes the serving traffic.
        assert_eq!(crowded.base, flat.base);
        assert!(crowded.violation_seconds[0] >= 0.0 && crowded.violation_seconds[1] >= 0.0);
        // Modulated runs replay byte-identically.
        assert_eq!(crowded, ServeSim::new(crowded_cfg, 9).run());
    }

    #[test]
    fn spot_reclaim_removes_the_server_from_the_routable_set() {
        use ecolb_simcore::time::SimTime;
        let victim = ServerId(3);
        let mut cfg = config(20, PickerKind::RoundRobin, 5);
        cfg.faults = Some(ecolb_faults::plan::FaultPlan::empty(13).with_server_crash(
            SimTime::from_secs(400),
            victim,
            None,
        ));
        let r = ServeSim::new(cfg, 13).run();
        let baseline = ServeSim::new(config(20, PickerKind::RoundRobin, 5), 13).run();
        // The reclaimed server serves strictly less than it would have.
        assert!(
            r.per_instance_served[victim.index()] < baseline.per_instance_served[victim.index()],
            "reclaimed {} vs baseline {}",
            r.per_instance_served[victim.index()],
            baseline.per_instance_served[victim.index()]
        );
        assert_eq!(
            r.requests_admitted,
            r.requests_completed + r.requests_rejected + r.requests_failed
        );
    }

    /// Regression for the silent-loss bug: requests queued on a crashed
    /// instance used to vanish from the books entirely (admitted but
    /// neither completed nor rejected). They are failures, counted per
    /// SLA class.
    #[test]
    fn crash_kills_queued_requests_and_counts_them_failed() {
        use ecolb_simcore::time::SimTime;
        let victim = ServerId(3);
        let mut cfg = config(20, PickerKind::RoundRobin, 5);
        cfg.faults = Some(ecolb_faults::plan::FaultPlan::empty(13).with_server_crash(
            SimTime::from_secs(400),
            victim,
            None,
        ));
        let r = ServeSim::new(cfg, 13).run();
        assert!(r.requests_failed > 0, "the dead queue was not empty");
        assert_eq!(
            r.requests_failed,
            r.resilience.total_failed(),
            "per-class failure accounting matches the total"
        );
        assert_eq!(
            r.requests_admitted,
            r.requests_completed + r.requests_rejected + r.requests_failed,
            "no request vanishes from the books"
        );
        assert_eq!(r.latency.count(), r.requests_completed);
        // Pinned count: any change to crash-kill accounting must be
        // deliberate.
        assert_eq!(r.requests_failed, 1);
    }

    #[test]
    fn retry_rescues_crash_killed_requests() {
        use ecolb_simcore::time::SimTime;
        let crash_cfg = |policy| {
            let mut cfg = config(20, PickerKind::RoundRobin, 5);
            cfg.faults = Some(ecolb_faults::plan::FaultPlan::empty(13).with_server_crash(
                SimTime::from_secs(400),
                ServerId(3),
                None,
            ));
            cfg.resilience = policy;
            cfg
        };
        let plain = ServeSim::new(crash_cfg(ResiliencePolicy::disabled()), 13).run();
        let retried = ServeSim::new(crash_cfg(ResiliencePolicy::retry_only()), 13).run();
        assert!(plain.requests_failed > 0);
        assert!(
            retried.requests_failed < plain.requests_failed,
            "retries {} vs plain {}",
            retried.requests_failed,
            plain.requests_failed
        );
        assert!(retried.resilience.retries > 0);
        assert_eq!(
            retried.requests_admitted,
            retried.requests_completed + retried.requests_rejected + retried.requests_failed
        );
        // Replays stay byte-identical with the stack on.
        assert_eq!(
            retried,
            ServeSim::new(crash_cfg(ResiliencePolicy::retry_only()), 13).run()
        );
    }

    /// A crash whose recovery beats the drain of the dead queue: the
    /// server reboots 10 ms after the crash, rejoins at the 600 s tick
    /// and takes new traffic while completions of its killed attempts
    /// are still pending. Those completions must stay dead, and the new
    /// attempts must complete on their own schedule.
    #[test]
    fn recovery_before_the_dead_queue_drains_keeps_kills_dead() {
        use ecolb_energy::sleep::CState;
        use ecolb_simcore::time::SimTime;
        let mut cluster = ClusterConfig::paper(6, WorkloadSpec::paper_high_load());
        cluster.sleep = cluster
            .sleep
            .with_wake_latency(CState::C6, SimDuration::from_millis(1));
        let mut cfg = ServeConfig::paper(cluster, PickerKind::RoundRobin, 4);
        cfg.load.requests_per_demand *= 4.0;
        cfg.faults = Some(FaultPlan::empty(3).with_server_crash(
            SimTime::from_ticks(599_500_000),
            ServerId(2),
            Some(SimDuration::from_millis(10)),
        ));
        let r = ServeSim::new(cfg, 3).run();
        assert!(r.requests_failed > 0, "the dead queue was not empty");
        assert_eq!(
            r.requests_admitted,
            r.requests_completed + r.requests_rejected + r.requests_failed
        );
        assert_eq!(r.latency.count(), r.requests_completed);
        assert_eq!(
            r.p99_s().to_bits(),
            0x4019_b872_e219_8cbb,
            "p99 {}",
            r.p99_s()
        );
        assert_eq!(
            r.latency.mean().to_bits(),
            0x4006_6aa8_92ea_48af,
            "mean {}",
            r.latency.mean()
        );
    }

    #[test]
    fn full_stack_is_deterministic_and_conserves_requests() {
        use ecolb_simcore::time::SimTime;
        let make = || {
            let mut cfg = config(20, PickerKind::LeastLoaded, 5);
            cfg.faults = Some(ecolb_faults::plan::FaultPlan::empty(13).with_server_crash(
                SimTime::from_secs(300),
                ServerId(2),
                Some(ecolb_simcore::time::SimDuration::from_secs(200)),
            ));
            cfg.resilience = ResiliencePolicy::full();
            cfg
        };
        let a = ServeSim::new(make(), 13).run();
        let b = ServeSim::new(make(), 13).run();
        assert_eq!(a, b);
        assert_eq!(
            a.requests_admitted,
            a.requests_completed + a.requests_rejected + a.requests_failed
        );
        assert_eq!(a.latency.count(), a.requests_completed);
        assert_eq!(
            a.per_instance_served.iter().sum::<u64>(),
            a.requests_completed
        );
        assert!(
            a.resilience.breaker_closes <= a.resilience.breaker_opens,
            "a breaker can only close after opening"
        );
    }

    #[test]
    fn latency_samples_are_positive_and_energy_accrues() {
        let r = ServeSim::new(config(16, PickerKind::LeastLoaded, 4), 3).run();
        assert!(r.requests_completed > 0);
        assert!(r.latency.mean() > 0.0);
        assert!(r.p99_s() >= r.latency.p50());
        assert!(r.serve_energy_j > 0.0);
        assert!(r.total_energy_j() > r.base.energy.total_j());
        assert!(r.reject_fraction() >= 0.0 && r.reject_fraction() <= 1.0);
    }

    fn hedge_population(gen: &mut Gen, n: usize) -> Vec<InstanceInfo> {
        (0..n)
            .map(|i| InstanceInfo {
                id: ServerId(i as u32),
                awake: gen.f64_in(0.0, 1.0) < 0.8,
                regime: OperatingRegime::ALL[gen.usize_in(0, 5)],
                load: 0.5,
                vms: 1,
            })
            .collect()
    }

    /// A coarse tick grid (multiples of 50 ms), so equal backlogs and
    /// idle servers come up often.
    fn coarse_ticks(gen: &mut Gen, max_steps: u64) -> SimDuration {
        SimDuration::from_ticks(gen.u64_in(0, max_steps) * 50_000)
    }

    /// The hedge index returns exactly what the linear scan returns, over
    /// random operation sequences that stress its cache: the serve path's
    /// primary-then-twin enqueues, crash resets, switches between the
    /// full and the breaker-filtered set, and set rebuilds.
    #[test]
    fn hedge_index_matches_the_linear_scan() {
        check("hedge_index_vs_scan", |gen| {
            let n = gen.usize_in(1, 40);
            let full = hedge_population(gen, n);
            let filtered: Vec<InstanceInfo> = full
                .iter()
                .filter(|_| gen.f64_in(0.0, 1.0) < 0.7)
                .copied()
                .collect();
            let mut sets = [
                InstanceSet::from_instances(full),
                InstanceSet::from_instances(filtered),
            ];
            let mut set_at = 0usize;
            let mut queues = QueueModel::new(n);
            let mut index = HorizonIndex::default();
            let mut now = SimTime::ZERO;
            for step in 0..gen.usize_in(1, 200) {
                let set = &sets[set_at];
                match gen.usize_in(0, 12) {
                    // The serve path: the primary is enqueued, the hedge
                    // asks for an alternate, the twin is enqueued there.
                    0..=4 => {
                        now += coarse_ticks(gen, 4);
                        let awake = set.awake_indices();
                        if awake.is_empty() {
                            continue;
                        }
                        let primary = set.instances()[awake[gen.usize_in(0, awake.len())]].id;
                        let work = coarse_ticks(gen, 6) + SimDuration::from_ticks(1);
                        queues.enqueue(now, primary, work);
                        let got = index.alternate(set, &queues.view(now), primary);
                        let want = hedge_alternate(set, &queues, now, primary);
                        assert_eq!(got, want, "step {step} primary {primary:?} at {now:?}");
                        if let Some(alt) = got {
                            queues.enqueue(now, alt, coarse_ticks(gen, 6));
                        }
                    }
                    // Every awake server takes a turn as the primary.
                    5 | 6 => {
                        now += coarse_ticks(gen, 2);
                        for &i in set.awake_indices() {
                            let primary = set.instances()[i].id;
                            let got = index.alternate(set, &queues.view(now), primary);
                            let want = hedge_alternate(set, &queues, now, primary);
                            assert_eq!(got, want, "step {step} primary {primary:?} at {now:?}");
                        }
                    }
                    // An enqueue on an arbitrary server.
                    7 | 8 => {
                        let server = ServerId(gen.usize_in(0, n) as u32);
                        queues.enqueue(now, server, coarse_ticks(gen, 8));
                    }
                    // A crash destroys a server's queue.
                    9 => queues.reset(ServerId(gen.usize_in(0, n) as u32)),
                    // Breakers open or close: the other set is routed.
                    10 => set_at = 1 - set_at,
                    // A discovery refresh rebuilds the routed set.
                    _ => sets[set_at] = InstanceSet::from_instances(hedge_population(gen, n)),
                }
            }
        });
    }

    fn awake_set(n: u32) -> InstanceSet {
        InstanceSet::from_instances(
            (0..n)
                .map(|i| InstanceInfo {
                    id: ServerId(i),
                    awake: true,
                    regime: OperatingRegime::Optimal,
                    load: 0.5,
                    vms: 1,
                })
                .collect(),
        )
    }

    #[test]
    fn a_lone_awake_server_has_no_hedge_alternate() {
        let mut instances = awake_set(3).instances().to_vec();
        instances[0].awake = false;
        instances[2].awake = false;
        let set = InstanceSet::from_instances(instances);
        let queues = QueueModel::new(3);
        let mut index = HorizonIndex::default();
        let view = queues.view(SimTime::ZERO);
        assert_eq!(index.alternate(&set, &view, ServerId(1)), None);
        assert_eq!(index.alternate(&awake_set(1), &view, ServerId(0)), None);
    }

    #[test]
    fn an_all_idle_set_hedges_to_the_lowest_other_id() {
        let set = awake_set(5);
        let queues = QueueModel::new(5);
        let view = queues.view(SimTime::from_secs(3));
        let mut index = HorizonIndex::default();
        for (primary, want) in [(0, 1), (1, 0), (4, 0)] {
            assert_eq!(
                index.alternate(&set, &view, ServerId(primary)),
                Some(ServerId(want)),
                "primary {primary}"
            );
        }
    }

    #[test]
    fn a_masked_primary_is_written_back() {
        // Server 1 is the least backlogged. Hedging away from it must not
        // hide it from the next query, which a fresh index answers too.
        let set = awake_set(4);
        let mut queues = QueueModel::new(4);
        for (id, ms) in [(0, 300), (1, 100), (2, 200), (3, 400)] {
            queues.enqueue(SimTime::ZERO, ServerId(id), SimDuration::from_millis(ms));
        }
        let view = queues.view(SimTime::ZERO);
        let mut index = HorizonIndex::default();
        assert_eq!(index.alternate(&set, &view, ServerId(1)), Some(ServerId(2)));
        let fresh = HorizonIndex::default().alternate(&set, &view, ServerId(3));
        assert_eq!(fresh, Some(ServerId(1)));
        assert_eq!(index.alternate(&set, &view, ServerId(3)), fresh);
    }
}
