//! One round of the §4 load-balancing protocol.
//!
//! At the end of each reallocation interval every server evaluates its
//! regime and the leader brokers partners (paper §4, actions 1–5):
//!
//! 1. **Shed phase** — servers in R4/R5 migrate VMs to underloaded
//!    receivers until they re-enter the optimal band. Receivers are the
//!    leader's R1/R2 candidates; when none have room the search widens to
//!    R3 servers with headroom below `α^{opt,h}` (an implementation
//!    extension the 70 %-load experiments require — with every server above
//!    `α^{opt,l}` the paper's literal R1/R2 search finds nobody, yet its
//!    Figure 3(b) shows heavy early in-cluster traffic).
//! 2. **Drain phase** — servers left in R1 either *gather* work from
//!    remaining R4/R5 donors (preferred when donors exist) or *drain*:
//!    atomically transfer every hosted VM to R2 receivers, each filled at
//!    most to its `α^{opt,l}` edge, then switch to the sleep state chosen
//!    by the [`SleepPolicy`] (C6 below 60 % cluster load, C3 above).
//! 3. **Wake phase** — servers still in R5 with excess nobody accepted
//!    cause the leader to order sleeping servers awake (action 5).
//!
//! Every VM move, returned in [`BalanceOutcome::migrations`], is an
//! **in-cluster (horizontal) decision**; the round driver in
//! [`crate::cluster`] counts them into its decision ledger beside the
//! **local (vertical)** ones it records during demand evolution.

use crate::cluster::ClusterConfig;
use crate::leader::Leader;
use crate::messages::{backoff_before, REPORT_MAX_ATTEMPTS};
use crate::migration::MigrationCost;
use crate::recovery::{FaultHooks, RecoveryStats};
use crate::server::{Server, ServerId};
use ecolb_energy::regimes::OperatingRegime;
use ecolb_energy::sleep::{CState, SleepPolicy};
use ecolb_simcore::time::SimTime;
use ecolb_trace::{SpanKind, TraceEventKind, Tracer};
use ecolb_workload::application::AppId;
use std::collections::BTreeSet;

/// Tolerance for load/room comparisons: demands are sums of many f64
/// terms, so exact comparisons reject placements that fit by construction.
const EPS: f64 = 1e-9;

/// Where a receiver stops accepting transferred load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillLimit {
    /// Up to the lower edge of the optimal band `α^{opt,l}` —
    /// conservative; used when filling receivers from draining servers.
    OptLow,
    /// Up to the middle of the optimal band.
    OptTarget,
    /// Up to the upper edge of the optimal band `α^{opt,h}` — used when
    /// overloaded donors shed.
    OptHigh,
}

impl FillLimit {
    /// The load ceiling this limit imposes on `server`.
    pub fn ceiling(self, server: &Server) -> f64 {
        let b = server.boundaries();
        match self {
            FillLimit::OptLow => b.opt_low,
            FillLimit::OptTarget => b.optimal_target(),
            FillLimit::OptHigh => b.opt_high,
        }
    }
}

/// Fill ceiling for receivers of drain (consolidation) traffic.
const DRAIN_FILL: FillLimit = FillLimit::OptLow;

/// Sleeping servers woken per R5 emergency.
const WAKES_PER_EMERGENCY: usize = 1;

/// Maximum VMs an overloaded donor sheds per reallocation interval — peer
/// negotiation and transfer bandwidth bound how much can move in one `τ`.
const SHED_MOVES_PER_DONOR: usize = 4;

/// Tunables of one balancing round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceConfig {
    /// Sleep-state selection rule; [`SleepPolicy::NeverSleep`] keeps every
    /// drained server awake.
    pub sleep_policy: SleepPolicy,
    /// Fill ceiling for receivers of shed (overload) traffic.
    pub shed_fill: FillLimit,
    /// Cap on how many partners a server negotiates with per request;
    /// `None` means the full leader list. Models bounded peer-negotiation
    /// effort.
    pub max_partners: Option<usize>,
    /// Maximum VMs a draining R1 server transfers away per interval. A
    /// server sleeps only once *fully* drained, so a small budget stretches
    /// consolidation over several intervals — the source of the paper's
    /// multi-interval settling transient.
    pub drain_moves_per_candidate: usize,
    /// How many R1 consolidation requests the leader processes per
    /// interval (`None` = all). Overload assistance (R4/R5) is never
    /// throttled — undesirable-high is urgent; consolidation is
    /// housekeeping the single leader serialises. This is what makes large
    /// low-load clusters take ~20 intervals to settle, as in Figure 3.
    pub drain_candidates_per_interval: Option<usize>,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        BalanceConfig {
            sleep_policy: SleepPolicy::default(),
            shed_fill: FillLimit::OptHigh,
            max_partners: None,
            drain_moves_per_candidate: 1,
            drain_candidates_per_interval: None,
        }
    }
}

/// A committed VM transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRecord {
    /// Donor server.
    pub from: ServerId,
    /// Receiving server.
    pub to: ServerId,
    /// Application moved.
    pub app: AppId,
    /// Demand of the application at transfer time.
    pub demand: f64,
    /// Modelled migration cost.
    pub cost: MigrationCost,
}

/// Everything one balancing round did.
#[derive(Debug, Clone, Default)]
pub struct BalanceOutcome {
    /// VM transfers committed this round.
    pub migrations: Vec<MigrationRecord>,
    /// Servers that drained and went to sleep, with their chosen state.
    pub slept: Vec<(ServerId, CState)>,
    /// Sleeping servers ordered awake.
    pub woken: Vec<ServerId>,
    /// R5 servers whose excess could not be fully placed.
    pub unresolved_overloads: Vec<ServerId>,
    /// R1 servers that failed to drain (stayed awake, underloaded).
    pub failed_drains: Vec<ServerId>,
    /// Servers whose wake order was lost to an injected transition fault:
    /// they stay asleep despite the leader's (optimistic) directory update.
    pub wake_failures: Vec<ServerId>,
}

impl BalanceOutcome {
    /// Total energy charged to migrations this round, Joules.
    pub fn migration_energy_j(&self) -> f64 {
        self.migrations.iter().map(|m| m.cost.energy_j).sum()
    }
}

/// Fraction of total capacity in use across the whole cluster, counting
/// sleeping servers' capacity in the denominator (the paper's "overall
/// load of the cluster … of the cluster capacity").
pub fn cluster_load_fraction(servers: &[Server]) -> f64 {
    if servers.is_empty() {
        return 0.0;
    }
    servers.iter().map(Server::load).sum::<f64>() / servers.len() as f64
}

/// Truncates a partner list to the configured negotiation budget.
fn cap<'a>(ids: &'a [ServerId], config: &BalanceConfig) -> &'a [ServerId] {
    match config.max_partners {
        Some(k) => &ids[..ids.len().min(k)],
        None => ids,
    }
}

/// Slack below `demand − EPS` under which a stored drain headroom proves a
/// receiver cannot take `demand`. Loads, ceilings and demands all lie in
/// `[0, 2]`, where each of the three f64 roundings involved (the stored
/// `ceiling − load`, the live `load + demand` and `ceiling + EPS`) errs by
/// less than 1e-15, so this margin is never eaten by rounding.
const EARLY_EXIT_SLACK: f64 = 1e-12;

/// True when a receiver whose [`DrainRank`] headroom is `stored_headroom`
/// provably fails the placement test `load + demand <= ceiling + EPS`.
/// Within one candidate receivers only gain load, so live headroom never
/// exceeds the stored one; and the rank is sorted by stored headroom, so
/// every receiver after this one fails too.
fn cannot_fit(stored_headroom: f64, demand: f64) -> bool {
    stored_headroom < demand - EPS - EARLY_EXIT_SLACK
}

/// Maps a headroom to a key whose unsigned order is the *reverse* of
/// `f64::total_cmp`, so ascending keys walk headroom descending.
fn headroom_key(h: f64) -> u64 {
    let bits = h.to_bits();
    // Standard total-order map: negatives flip every bit, non-negatives
    // flip only the sign bit.
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    !ordered
}

/// Inverse of [`headroom_key`].
fn key_headroom(key: u64) -> f64 {
    let ordered = !key;
    f64::from_bits(if ordered >> 63 == 1 {
        ordered & !(1 << 63)
    } else {
        !ordered
    })
}

/// The drain phase's receivers, kept sorted across candidates.
///
/// A server is ranked iff it is awake, in R2 and below the drain ceiling;
/// the set orders members by `ceiling − load` descending, then id
/// ascending. Membership and order must equal filtering and sorting the
/// whole fleet from the state at each server's last refresh, or drain
/// decisions change. Building costs O(n log n) once per round and
/// [`DrainRank::refresh`] O(log n) per server whose load changed.
#[derive(Debug)]
struct DrainRank {
    /// Each server's current key, `None` when it is not a receiver.
    keys: Vec<Option<u64>>,
    /// `(key, id)` of every ranked server.
    set: BTreeSet<(u64, ServerId)>,
}

impl DrainRank {
    /// The rank key of `s`, or `None` when it cannot receive drain load.
    fn key_of(s: &Server, fill: FillLimit) -> Option<u64> {
        let ceiling = fill.ceiling(s);
        (s.is_awake() && s.regime() == OperatingRegime::SuboptimalLow && s.load() < ceiling)
            .then(|| headroom_key(ceiling - s.load()))
    }

    fn build(servers: &[Server], fill: FillLimit) -> Self {
        let keys: Vec<Option<u64>> = servers.iter().map(|s| Self::key_of(s, fill)).collect();
        let set = keys
            .iter()
            .zip(servers)
            .filter_map(|(k, s)| Some(((*k)?, s.id())))
            .collect();
        DrainRank { keys, set }
    }

    /// Re-keys `id` from its live state.
    fn refresh(&mut self, servers: &[Server], fill: FillLimit, id: ServerId) {
        let new = Self::key_of(&servers[id.index()], fill);
        let slot = &mut self.keys[id.index()];
        if *slot == new {
            return;
        }
        if let Some(old) = *slot {
            self.set.remove(&(old, id));
        }
        if let Some(k) = new {
            self.set.insert((k, id));
        }
        *slot = new;
    }

    /// Ranked receivers with their stored headroom, most headroom first.
    fn iter(&self) -> impl Iterator<Item = (ServerId, f64)> + '_ {
        self.set.iter().map(|&(k, id)| (id, key_headroom(k)))
    }
}

/// Static label for a sleep state, for trace events.
fn cstate_label(state: CState) -> &'static str {
    match state {
        CState::C0 => "C0",
        CState::C1 => "C1",
        CState::C2 => "C2",
        CState::C3 => "C3",
        CState::C4 => "C4",
        CState::C5 => "C5",
        CState::C6 => "C6",
    }
}

/// One balancing round in progress: the state it acts on, the context
/// every phase shares, and the outcome so far. Its methods are the report
/// sweep and the three phases; every protocol migration goes through
/// [`Round::migrate`].
struct Round<'a> {
    servers: &'a mut [Server],
    leader: &'a mut Leader,
    config: &'a ClusterConfig,
    now: SimTime,
    tracer: &'a mut dyn Tracer,
    outcome: BalanceOutcome,
}

impl Round<'_> {
    /// Moves `app` from `from` to `to` at once (the timed simulation layer
    /// replays the record with its delay): costs it, counts it on both
    /// servers, traces it and records it. Returns `false`, and does
    /// nothing, if `from` no longer hosts `app`.
    fn migrate(&mut self, from: ServerId, to: ServerId, app: AppId) -> bool {
        let Some(application) = self.servers[from.index()].take_app(app) else {
            return false;
        };
        let demand = application.demand;
        let cost = self.config.migration.cost_of(&application);
        self.servers[from.index()].migrations_out += 1;
        self.servers[to.index()].migrations_in += 1;
        self.servers[to.index()].place_app(application);
        self.tracer.event(
            self.now.ticks(),
            TraceEventKind::Migration {
                from: from.0,
                to: to.0,
                app: app.0,
                demand,
            },
        );
        self.outcome.migrations.push(MigrationRecord {
            from,
            to,
            app,
            demand,
            cost,
        });
        true
    }

    /// `server` asks the leader for partners.
    fn request_assistance(&mut self, server: ServerId) {
        self.leader.receive_assistance_request();
        self.tracer.event(
            self.now.ticks(),
            TraceEventKind::AssistanceRequested {
                server: server.0,
                regime: self.servers[server.index()].regime().index() as u8,
            },
        );
    }

    /// Per-interval reporting sweep through the fault hooks: every
    /// server's report makes up to `REPORT_MAX_ATTEMPTS` delivery attempts
    /// with exponential backoff (fault-free runs never retry, because
    /// nothing is ever lost). A report that exhausts its budget leaves the
    /// leader's previous directory entry stale until the next sweep; it
    /// counts toward `RecoveryStats::reports_abandoned` (the degradation
    /// summary's `lost_reports`) and emits a `report_retries_exhausted`
    /// trace event.
    fn report_sweep(&mut self, hooks: &mut dyn FaultHooks, stats: &mut RecoveryStats) {
        for s in self.servers.iter() {
            let mut delivered = false;
            for attempt in 1..=REPORT_MAX_ATTEMPTS {
                if attempt > 1 {
                    stats.report_retries += 1;
                    stats.retry_backoff_seconds += backoff_before(attempt).as_secs_f64();
                }
                if hooks.report_lost(s.id(), attempt) {
                    stats.reports_lost += 1;
                    self.tracer.counter("balance.reports_lost", 1);
                    continue;
                }
                self.leader
                    .receive_report(s.id(), s.regime(), s.load(), s.is_sleeping());
                self.tracer.counter("balance.reports_delivered", 1);
                delivered = true;
                break;
            }
            if !delivered {
                stats.reports_abandoned += 1;
                self.tracer.event(
                    self.now.ticks(),
                    TraceEventKind::ReportRetriesExhausted {
                        server: s.id().0,
                        attempts: REPORT_MAX_ATTEMPTS,
                    },
                );
            }
        }
    }

    /// Phase 1 — overloaded servers (R4, R5) shed VMs to underloaded
    /// receivers.
    fn shed(&mut self) {
        let balance = &self.config.balance;
        let servers = &*self.servers;
        // Donors sorted: R5 (urgent) first, then heaviest.
        let mut donors: Vec<ServerId> = servers
            .iter()
            .filter(|s| s.is_awake() && s.regime().is_overloaded())
            .map(Server::id)
            .collect();
        donors.sort_by(|&a, &b| {
            let (sa, sb) = (&servers[a.index()], &servers[b.index()]);
            sb.regime()
                .index()
                .cmp(&sa.regime().index())
                .then(sb.load().total_cmp(&sa.load()))
                .then(a.cmp(&b))
        });

        let mut partners = Vec::new();
        let mut apps: Vec<(AppId, f64)> = Vec::new();
        for donor in donors {
            if !self.servers[donor.index()].regime().is_overloaded() {
                continue; // already relieved by an earlier donor's receiver churn
            }
            self.request_assistance(donor);
            // Leader proposes R1/R2 receivers; fall back to R3 servers with
            // headroom when the strict list is empty (see module docs).
            self.leader.find_receivers_into(donor, &mut partners);
            if partners.is_empty() {
                let servers = &*self.servers;
                partners.extend(
                    servers
                        .iter()
                        .filter(|s| {
                            s.is_awake()
                                && s.id() != donor
                                && s.regime() == OperatingRegime::Optimal
                                && s.load() < balance.shed_fill.ceiling(s)
                        })
                        .map(Server::id),
                );
                partners.sort_by(|&a, &b| {
                    servers[a.index()]
                        .load()
                        .total_cmp(&servers[b.index()].load())
                        .then(a.cmp(&b))
                });
            }
            let receivers = cap(&partners, balance);

            // Shed apps, largest first, until back inside the optimal band or
            // the per-interval negotiation budget runs out.
            for _ in 0..SHED_MOVES_PER_DONOR {
                let donor_srv = &self.servers[donor.index()];
                let excess = donor_srv.shed_pressure();
                if excess <= 0.0 {
                    break;
                }
                // Prefer the *smallest* app that clears the excess in one move
                // (minimal churn); apps too small to clear it come after,
                // largest first.
                apps.clear();
                apps.extend(donor_srv.apps().iter().map(|a| (a.id, a.demand)));
                apps.sort_by(|a, b| {
                    let a_clears = a.1 + EPS >= excess;
                    let b_clears = b.1 + EPS >= excess;
                    b_clears
                        .cmp(&a_clears)
                        .then_with(|| {
                            if a_clears && b_clears {
                                a.1.total_cmp(&b.1)
                            } else {
                                b.1.total_cmp(&a.1)
                            }
                        })
                        .then(a.0.cmp(&b.0))
                });
                // The first app, in that order, with a receiver it fits.
                let placement = apps.iter().find_map(|&(app, demand)| {
                    let fits = |rx: &&ServerId| {
                        let s = &self.servers[rx.index()];
                        s.is_awake() && s.load() + demand <= balance.shed_fill.ceiling(s) + EPS
                    };
                    receivers.iter().find(fits).map(|&rx| (app, rx))
                });
                let Some((app, rx)) = placement else {
                    break; // nothing placeable anywhere
                };
                if !self.migrate(donor, rx, app) {
                    break;
                }
            }

            if self.servers[donor.index()].regime() == OperatingRegime::UndesirableHigh {
                self.outcome.unresolved_overloads.push(donor);
            }
        }
    }

    /// Phase 2 — R1 servers gather from remaining donors or drain-and-sleep.
    /// Servers in `just_woken` stay awake this round.
    fn drain(&mut self, just_woken: &[ServerId]) {
        let config = self.config;
        let balance = &config.balance;
        let servers = &*self.servers;
        let cluster_load = cluster_load_fraction(servers);
        // R1 candidates, emptiest first (cheapest to drain). A server whose
        // wake matured this round is exempt — it was woken to absorb load and
        // must not oscillate straight back to sleep.
        let mut candidates: Vec<ServerId> = servers
            .iter()
            .filter(|s| {
                s.is_awake()
                    && s.regime() == OperatingRegime::UndesirableLow
                    && !just_woken.contains(&s.id())
            })
            .map(Server::id)
            .collect();
        // Heterogeneous fleets drain the least energy-proportional machines
        // first: idle wattage is exactly the draw a sleep removes, so a
        // high-end server asleep buys more joules than a volume server
        // asleep. Within a wattage tier, emptiest first (cheapest to drain).
        // Homogeneous fleets tie on idle wattage, preserving the paper's
        // original emptiest-first order byte-for-byte.
        candidates.sort_by(|&a, &b| {
            use ecolb_energy::power::PowerModel;
            servers[b.index()]
                .power()
                .idle_power_w()
                .total_cmp(&servers[a.index()].power().idle_power_w())
                .then(
                    servers[a.index()]
                        .load()
                        .total_cmp(&servers[b.index()].load()),
                )
                .then(a.cmp(&b))
        });

        // Built at the first drain search. Servers a candidate's commits touch
        // are re-keyed only when the *next* search starts: a candidate with
        // several moves walks its receivers in the order they had when its
        // own search began. Re-keying after each move would reorder them
        // mid-candidate and change which receiver takes the next app.
        let mut rank: Option<DrainRank> = None;
        let mut touched: Vec<ServerId> = Vec::new();
        let partner_limit = balance.max_partners.unwrap_or(usize::MAX);
        let mut partners = Vec::new();
        let mut apps: Vec<(AppId, f64)> = Vec::new();

        let budget = balance.drain_candidates_per_interval.unwrap_or(usize::MAX);
        let mut processed = 0usize;
        for cand in candidates {
            if processed >= budget {
                break; // leader defers remaining consolidation requests
            }
            if self.servers[cand.index()].regime() != OperatingRegime::UndesirableLow
                || !self.servers[cand.index()].is_awake()
            {
                continue; // regime changed due to earlier drains landing here
            }
            processed += 1;
            self.request_assistance(cand);

            // Option A: gather from remaining overloaded donors (paper gives
            // this branch when R4/R5 servers exist).
            self.leader.find_donors_into(cand, &mut partners);
            let mut gathered = false;
            for &donor in cap(&partners, balance) {
                loop {
                    let donor_srv = &self.servers[donor.index()];
                    if !donor_srv.is_awake() || donor_srv.shed_pressure() <= 0.0 {
                        break;
                    }
                    let cand_srv = &self.servers[cand.index()];
                    let ceiling = balance.shed_fill.ceiling(cand_srv);
                    // Largest app that fits the candidate.
                    let pick = donor_srv
                        .apps()
                        .iter()
                        .filter(|a| cand_srv.load() + a.demand <= ceiling + EPS)
                        .max_by(|x, y| x.demand.total_cmp(&y.demand))
                        .map(|a| a.id);
                    if !pick.is_some_and(|app| self.migrate(donor, cand, app)) {
                        break;
                    }
                    touched.extend([donor, cand]);
                    gathered = true;
                }
                if self.servers[cand.index()].regime() != OperatingRegime::UndesirableLow {
                    break; // candidate climbed out of R1
                }
            }
            if gathered {
                continue; // gathering resolved (or improved) this candidate
            }

            // Option B: drain into R2 receivers filled at most to the drain
            // ceiling. The per-interval transfer budget means a loaded server
            // drains over several intervals; it sleeps only once empty. Most
            // spare drain capacity first maximises placement success.
            match &mut rank {
                Some(rank) => {
                    for id in touched.drain(..) {
                        rank.refresh(self.servers, DRAIN_FILL, id);
                    }
                }
                None => touched.clear(), // the build below reads live state
            }
            let rank = rank.get_or_insert_with(|| DrainRank::build(self.servers, DRAIN_FILL));

            // Move the largest placeable apps within the interval budget.
            for _ in 0..balance.drain_moves_per_candidate {
                apps.clear();
                apps.extend(
                    self.servers[cand.index()]
                        .apps()
                        .iter()
                        .map(|a| (a.id, a.demand)),
                );
                apps.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                let placement = apps.iter().find_map(|&(app, demand)| {
                    rank.iter()
                        .filter(|&(id, _)| id != cand)
                        .take(partner_limit)
                        // A receiver that cannot fit ends the walk: neither
                        // can anyone ranked after it.
                        .take_while(|&(_, stored_headroom)| !cannot_fit(stored_headroom, demand))
                        .find(|&(rx, _)| {
                            let s = &self.servers[rx.index()];
                            s.is_awake() && s.load() + demand <= DRAIN_FILL.ceiling(s) + EPS
                        })
                        .map(|(rx, _)| (app, rx))
                });
                let Some((app, rx)) = placement else {
                    break;
                };
                if !self.migrate(cand, rx, app) {
                    break;
                }
                touched.extend([cand, rx]);
            }

            if self.servers[cand.index()].app_count() > 0 {
                self.outcome.failed_drains.push(cand);
            } else if let Some(state) = balance.sleep_policy.choose(cluster_load) {
                self.servers[cand.index()].enter_sleep(self.now, state, &config.sleep);
                self.leader
                    .receive_report(cand, OperatingRegime::UndesirableLow, 0.0, true);
                self.tracer.event(
                    self.now.ticks(),
                    TraceEventKind::SleepEntered {
                        server: cand.0,
                        cstate: cstate_label(state),
                    },
                );
                self.outcome.slept.push((cand, state));
            }
        }
    }

    /// Phase 3 — unresolved R5 servers trigger wake orders (action 5). Each
    /// wake order passes through the fault hooks: an injected transition
    /// failure loses the order and the server stays asleep.
    fn wake(&mut self, hooks: &mut dyn FaultHooks) {
        let still_critical = self
            .outcome
            .unresolved_overloads
            .iter()
            .filter(|id| self.servers[id.index()].regime() == OperatingRegime::UndesirableHigh)
            .count();
        for _ in 0..still_critical {
            let sleepers = self.leader.find_sleepers(self.servers);
            for id in sleepers.into_iter().take(WAKES_PER_EMERGENCY) {
                self.leader.issue_wake_order(id);
                let at = self.now.ticks();
                self.tracer
                    .event(at, TraceEventKind::WakeOrdered { server: id.0 });
                if hooks.wake_fails(id) {
                    self.tracer
                        .event(at, TraceEventKind::WakeFailed { server: id.0 });
                    self.outcome.wake_failures.push(id);
                } else {
                    self.servers[id.index()].begin_wake(self.now, &self.config.sleep);
                    self.outcome.woken.push(id);
                }
            }
        }
    }
}

/// Brings every server whose pending wake has matured by `now` to C0, in
/// server order, and returns their ids. The balance round calls it first;
/// a leaderless interval, which skips the round, calls it alone.
pub(crate) fn complete_matured_wakes(
    servers: &mut [Server],
    now: SimTime,
    tracer: &mut dyn Tracer,
) -> Vec<ServerId> {
    let mut woken = Vec::new();
    for s in servers.iter_mut() {
        if s.wake_ready_at().is_some_and(|t| t <= now) {
            s.complete_wake(now);
            tracer.event(
                now.ticks(),
                TraceEventKind::WakeCompleted { server: s.id().0 },
            );
            woken.push(s.id());
        }
    }
    woken
}

/// Runs one full balancing round at instant `now`. Servers whose pending
/// wake has completed by `now` are brought online first.
///
/// Every seam is explicit: report delivery and wake orders pass through
/// `hooks` (report bookkeeping lands in `stats`; lost wake orders come
/// back in [`BalanceOutcome::wake_failures`]), and the round is bracketed
/// by a `balance` span in `tracer` with every protocol action (assistance
/// requests, migrations, sleep/wake transitions, report deliveries)
/// recorded. The round reads its tunables, the migration cost model and
/// the sleep model from `config`. With [`NoFaults`] and [`NoTrace`] this
/// is exactly the fault-free, untraced round.
///
/// [`NoFaults`]: crate::recovery::NoFaults
/// [`NoTrace`]: ecolb_trace::NoTrace
pub fn balance_round(
    servers: &mut [Server],
    leader: &mut Leader,
    config: &ClusterConfig,
    now: SimTime,
    hooks: &mut dyn FaultHooks,
    stats: &mut RecoveryStats,
    tracer: &mut dyn Tracer,
) -> BalanceOutcome {
    tracer.span_enter(now.ticks(), SpanKind::Balance);
    let just_woken = complete_matured_wakes(servers, now, tracer);
    let mut round = Round {
        servers,
        leader,
        config,
        now,
        tracer,
        outcome: BalanceOutcome::default(),
    };
    round.report_sweep(hooks, stats);
    round.shed();
    round.drain(&just_woken);
    round.wake(hooks);
    round.tracer.span_exit(now.ticks(), SpanKind::Balance);
    round.outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::NoFaults;
    use ecolb_energy::power::LinearPowerModel;
    use ecolb_energy::regimes::RegimeBoundaries;
    use ecolb_energy::sleep::SleepModel;
    use ecolb_trace::NoTrace;
    use ecolb_workload::application::Application;

    fn boundaries() -> RegimeBoundaries {
        RegimeBoundaries::new(0.2, 0.3, 0.7, 0.8)
    }

    fn mk_cluster(loads: &[&[f64]]) -> (Vec<Server>, Leader) {
        let mut next_app = 0u64;
        let servers: Vec<Server> = loads
            .iter()
            .enumerate()
            .map(|(i, apps)| {
                let mut s = Server::new(
                    ServerId(i as u32),
                    boundaries(),
                    LinearPowerModel::typical_volume_server(),
                    SimTime::ZERO,
                );
                for &d in *apps {
                    s.place_app(Application::new(AppId(next_app), d, 0.01, 4.0));
                    next_app += 1;
                }
                s
            })
            .collect();
        let n = servers.len();
        (servers, Leader::new(n))
    }

    fn run(servers: &mut [Server], leader: &mut Leader, config: &BalanceConfig) -> BalanceOutcome {
        run_hooked(
            servers,
            leader,
            config,
            &mut NoFaults,
            &mut RecoveryStats::default(),
        )
    }

    #[test]
    fn overloaded_server_sheds_to_underloaded() {
        // Server 0: R5 at 0.9; server 1: R2 at 0.25.
        let (mut servers, mut leader) = mk_cluster(&[&[0.5, 0.4], &[0.25]]);
        assert_eq!(servers[0].regime(), OperatingRegime::UndesirableHigh);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert!(!out.migrations.is_empty());
        assert!(
            !servers[0].regime().is_overloaded(),
            "donor relieved: {}",
            servers[0].load()
        );
        assert!(
            servers[1].load() <= 0.7 + 1e-9,
            "receiver capped at opt_high"
        );
    }

    #[test]
    fn shed_falls_back_to_optimal_receivers() {
        // Donor at 0.9 (R5); only other server is R3 at 0.4 with headroom.
        let (mut servers, mut leader) = mk_cluster(&[&[0.6, 0.3], &[0.4]]);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert_eq!(out.migrations.len(), 1);
        assert_eq!(out.migrations[0].to, ServerId(1));
        assert!((servers[1].load() - 0.7).abs() < 1e-9);
        assert!(!servers[0].regime().is_overloaded());
    }

    #[test]
    fn r1_server_drains_and_sleeps() {
        // Server 0: R1 at 0.1 (two small apps); servers 1, 2: R2 at 0.25
        // with drain room to opt_low = 0.3. A budget of 8 moves lets the
        // drain finish within one interval.
        let (mut servers, mut leader) = mk_cluster(&[&[0.05, 0.05], &[0.25], &[0.25]]);
        let config = BalanceConfig {
            drain_moves_per_candidate: 8,
            ..Default::default()
        };
        let out = run(&mut servers, &mut leader, &config);
        assert_eq!(out.slept.len(), 1);
        assert_eq!(out.slept[0].0, ServerId(0));
        assert!(servers[0].is_sleeping());
        assert_eq!(servers[0].app_count(), 0);
        // Low cluster load (≈ 0.2) → deep sleep C6.
        assert_eq!(out.slept[0].1, CState::C6);
        // Receivers never exceed opt_low.
        assert!(servers[1].load() <= 0.3 + 1e-9);
        assert!(servers[2].load() <= 0.3 + 1e-9);
    }

    #[test]
    fn drain_moves_only_what_fits() {
        // Candidate has one app too large for any receiver's drain room:
        // nothing moves, the candidate stays awake and is reported as a
        // failed drain (it will retry next interval).
        let (mut servers, mut leader) = mk_cluster(&[&[0.15], &[0.25], &[0.25]]);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert!(out.slept.is_empty());
        assert!(out.migrations.is_empty());
        assert_eq!(out.failed_drains, vec![ServerId(0)]);
        assert!(servers[0].is_awake());
        assert_eq!(servers[0].app_count(), 1);
    }

    #[test]
    fn drain_budget_spreads_over_intervals() {
        // Two apps, budget 1: the first round moves one app and reports a
        // failed (incomplete) drain; the second round finishes and sleeps.
        let (mut servers, mut leader) = mk_cluster(&[&[0.05, 0.05], &[0.25], &[0.25]]);
        let out1 = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert_eq!(out1.migrations.len(), 1);
        assert!(out1.slept.is_empty());
        assert_eq!(out1.failed_drains, vec![ServerId(0)]);
        let out2 = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert_eq!(out2.slept.len(), 1);
        assert!(servers[0].is_sleeping());
    }

    #[test]
    fn mixed_fleet_drains_high_idle_wattage_servers_first() {
        // Two fully drainable R1 idlers — server 0 a volume-class machine,
        // server 1 a high-end machine whose idle draw is several times
        // larger — plus two receivers with drain room. A candidate budget
        // of 1 forces a choice: sleeping the high-end idler removes the
        // most wattage, so the leader must spend the budget there.
        use crate::mix::ServerMix;
        use ecolb_energy::server_class::ServerClass;
        let mix = ServerMix::typical_enterprise();
        let classes = [
            ServerClass::Volume,
            ServerClass::HighEnd,
            ServerClass::Volume,
            ServerClass::Volume,
        ];
        let loads: [&[f64]; 4] = [&[0.05], &[0.05], &[0.25], &[0.25]];
        let mut next_app = 0u64;
        let mut servers: Vec<Server> = classes
            .iter()
            .zip(loads)
            .enumerate()
            .map(|(i, (&class, apps))| {
                let mut s = Server::new(
                    ServerId(i as u32),
                    boundaries(),
                    mix.power_spec(class),
                    SimTime::ZERO,
                );
                for &d in apps {
                    s.place_app(Application::new(AppId(next_app), d, 0.01, 4.0));
                    next_app += 1;
                }
                s
            })
            .collect();
        {
            use ecolb_energy::power::PowerModel;
            assert!(
                servers[1].power().idle_power_w() > servers[0].power().idle_power_w(),
                "the high-end machine idles hotter than the volume one"
            );
        }
        let mut leader = Leader::new(servers.len());
        let config = BalanceConfig {
            drain_candidates_per_interval: Some(1),
            ..Default::default()
        };
        let out = run(&mut servers, &mut leader, &config);
        assert_eq!(out.slept.len(), 1);
        assert_eq!(
            out.slept[0].0,
            ServerId(1),
            "the high-end idler sleeps first"
        );
        assert!(servers[1].is_sleeping());
        assert!(servers[0].is_awake(), "the volume idler waits its turn");
    }

    #[test]
    fn r1_prefers_gathering_when_donors_exist() {
        // Server 0: R1 at 0.1; server 1: R5 at 0.9.
        let (mut servers, mut leader) = mk_cluster(&[&[0.1], &[0.5, 0.4]]);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        // The shed phase already routes load to server 0 (it is the only
        // receiver), so server 0 must not sleep.
        assert!(out.slept.is_empty());
        assert!(servers[0].load() > 0.1);
        assert!(!servers[1].regime().is_overloaded());
    }

    #[test]
    fn busy_cluster_sleeps_shallow() {
        // Cluster load above 60 %: the drained server must pick C3.
        // Three heavily loaded servers plus one empty-ish one, with a
        // receiver that has drain room.
        let (mut servers, mut leader) =
            mk_cluster(&[&[0.05], &[0.28], &[0.69], &[0.69], &[0.69], &[0.69]]);
        // cluster load = (0.05+0.28+0.69*4)/6 = 0.515 → still C6. Push it up:
        servers[2].place_app(Application::new(AppId(90), 0.1, 0.01, 4.0));
        servers[3].place_app(Application::new(AppId(91), 0.1, 0.01, 4.0));
        servers[4].place_app(Application::new(AppId(92), 0.1, 0.01, 4.0));
        servers[5].place_app(Application::new(AppId(93), 0.1, 0.01, 4.0));
        // load = (0.05+0.28+0.79*4)/6 = 0.582 — close; add one more app.
        servers[2].place_app(Application::new(AppId(94), 0.2, 0.01, 4.0));
        let load = cluster_load_fraction(&servers);
        assert!(load > 0.6, "cluster load {load}");
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        if let Some(&(_, state)) = out.slept.first() {
            assert_eq!(state, CState::C3, "busy cluster must not use C6");
        }
    }

    #[test]
    fn unresolved_r5_wakes_a_sleeper() {
        let sleep_model = SleepModel::default();
        // Server 0: impossibly overloaded, single monolithic app nobody
        // can take; server 1 asleep.
        let (mut servers, mut leader) = mk_cluster(&[&[0.95], &[]]);
        servers[1].enter_sleep(SimTime::ZERO, CState::C3, &sleep_model);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert_eq!(out.woken, vec![ServerId(1)]);
        assert!(servers[1].wake_ready_at().is_some(), "wake in flight");
        assert!(out.unresolved_overloads.contains(&ServerId(0)));
    }

    #[test]
    fn matured_wakes_complete_at_round_start() {
        let sleep_model = SleepModel::default();
        let (mut servers, mut leader) = mk_cluster(&[&[0.5]]);
        let mut extra = Server::new(
            ServerId(1),
            boundaries(),
            LinearPowerModel::typical_volume_server(),
            SimTime::ZERO,
        );
        extra.enter_sleep(SimTime::ZERO, CState::C3, &sleep_model);
        let ready = extra.begin_wake(SimTime::from_secs(1), &sleep_model);
        servers.push(extra);
        let mut leader2 = Leader::new(2);
        std::mem::swap(&mut leader, &mut leader2);
        balance_round(
            &mut servers,
            &mut leader,
            &ClusterConfig::default(),
            ready + ecolb_simcore::time::SimDuration::from_secs(1),
            &mut NoFaults,
            &mut RecoveryStats::default(),
            &mut NoTrace,
        );
        assert!(servers[1].is_awake());
    }

    #[test]
    fn load_is_conserved_by_balancing() {
        let (mut servers, mut leader) =
            mk_cluster(&[&[0.5, 0.4], &[0.25], &[0.1], &[0.72], &[0.3, 0.3]]);
        let before: f64 = servers.iter().map(Server::load).sum();
        run(&mut servers, &mut leader, &BalanceConfig::default());
        let after: f64 = servers.iter().map(Server::load).sum();
        assert!(
            (before - after).abs() < 1e-9,
            "load conserved: {before} vs {after}"
        );
    }

    #[test]
    fn never_sleep_keeps_everyone_awake() {
        let (mut servers, mut leader) = mk_cluster(&[&[0.05, 0.05], &[0.25], &[0.25]]);
        let config = BalanceConfig {
            sleep_policy: SleepPolicy::NeverSleep,
            ..Default::default()
        };
        let out = run(&mut servers, &mut leader, &config);
        assert!(out.slept.is_empty());
        assert!(servers.iter().all(Server::is_awake));
    }

    #[test]
    fn partner_cap_limits_negotiation() {
        // Donor must spread over two receivers, but the cap allows one.
        let (mut servers, mut leader) = mk_cluster(&[&[0.45, 0.45], &[0.25], &[0.25]]);
        let config = BalanceConfig {
            max_partners: Some(1),
            ..Default::default()
        };
        let out = run(&mut servers, &mut leader, &config);
        let targets: std::collections::BTreeSet<ServerId> =
            out.migrations.iter().map(|m| m.to).collect();
        assert!(
            targets.len() <= 1,
            "negotiated with more partners than allowed"
        );
    }

    /// Scripted injector: fails every wake order and drops the first
    /// `lose_first_attempts` delivery attempts of every report.
    struct Scripted {
        fail_wakes: bool,
        lose_first_attempts: u32,
    }

    impl FaultHooks for Scripted {
        fn report_lost(&mut self, _from: ServerId, attempt: u32) -> bool {
            attempt <= self.lose_first_attempts
        }
        fn wake_fails(&mut self, _server: ServerId) -> bool {
            self.fail_wakes
        }
    }

    fn run_hooked(
        servers: &mut [Server],
        leader: &mut Leader,
        config: &BalanceConfig,
        hooks: &mut dyn FaultHooks,
        stats: &mut RecoveryStats,
    ) -> BalanceOutcome {
        let config = ClusterConfig {
            balance: *config,
            ..ClusterConfig::default()
        };
        balance_round(
            servers,
            leader,
            &config,
            SimTime::ZERO,
            hooks,
            stats,
            &mut NoTrace,
        )
    }

    #[test]
    fn failed_wake_leaves_server_asleep() {
        let sleep_model = SleepModel::default();
        let (mut servers, mut leader) = mk_cluster(&[&[0.95], &[]]);
        servers[1].enter_sleep(SimTime::ZERO, CState::C3, &sleep_model);
        let mut hooks = Scripted {
            fail_wakes: true,
            lose_first_attempts: 0,
        };
        let mut stats = RecoveryStats::default();
        let out = run_hooked(
            &mut servers,
            &mut leader,
            &BalanceConfig::default(),
            &mut hooks,
            &mut stats,
        );
        assert_eq!(out.wake_failures, vec![ServerId(1)]);
        assert!(out.woken.is_empty());
        assert!(servers[1].is_sleeping());
        assert!(servers[1].wake_ready_at().is_none(), "no wake in flight");
        assert_eq!(leader.stats().wake_orders, 1, "the order was still sent");
    }

    #[test]
    fn lost_reports_retry_with_backoff_then_deliver() {
        let (mut servers, mut leader) = mk_cluster(&[&[0.5], &[0.25]]);
        // Lose the first attempt of every report; the immediate retry
        // (attempt 2, backoff 100 ms) succeeds.
        let mut hooks = Scripted {
            fail_wakes: false,
            lose_first_attempts: 1,
        };
        let mut stats = RecoveryStats::default();
        run_hooked(
            &mut servers,
            &mut leader,
            &BalanceConfig::default(),
            &mut hooks,
            &mut stats,
        );
        assert_eq!(stats.reports_lost, 2);
        assert_eq!(stats.report_retries, 2);
        assert_eq!(stats.reports_abandoned, 0);
        assert!((stats.retry_backoff_seconds - 0.2).abs() < 1e-9);
        assert!(leader.entry(ServerId(0)).is_some(), "retry delivered");
    }

    #[test]
    fn exhausted_retries_leave_directory_stale() {
        let (mut servers, mut leader) = mk_cluster(&[&[0.5]]);
        let mut hooks = Scripted {
            fail_wakes: false,
            lose_first_attempts: u32::MAX,
        };
        let mut stats = RecoveryStats::default();
        run_hooked(
            &mut servers,
            &mut leader,
            &BalanceConfig::default(),
            &mut hooks,
            &mut stats,
        );
        assert_eq!(stats.reports_abandoned, 1);
        assert_eq!(stats.reports_lost, 3, "default budget is 3 attempts");
        assert!(
            leader.entry(ServerId(0)).is_none(),
            "never-delivered report leaves no entry"
        );
    }

    /// `Server::take_app` uses `swap_remove`, so two servers hosting the
    /// same apps can store them in different orders depending on removal
    /// history (the cluster driver's evolve loop even breaks early over
    /// this, `cluster.rs`). Every selection loop in the balancing phases
    /// sorts its working set by `(demand, id)`, so in-memory order must
    /// never leak into decisions — pinned here by running one round over
    /// two clusters that differ *only* in app storage order and requiring
    /// byte-identical outcomes.
    #[test]
    fn app_storage_order_does_not_leak_into_decisions() {
        let mk = |shuffled: bool| {
            // Donor at 0.9 (R5) with three apps; two receivers.
            let (mut servers, leader) = mk_cluster(&[&[], &[0.25], &[0.25]]);
            let app = |id: u64, demand: f64| Application::new(AppId(id), demand, 0.01, 4.0);
            if shuffled {
                // Place a decoy between the real apps, then take it:
                // swap_remove leaves storage order [10, 12, 11].
                servers[0].place_app(app(10, 0.4));
                servers[0].place_app(app(99, 0.1));
                servers[0].place_app(app(11, 0.3));
                servers[0].place_app(app(12, 0.2));
                servers[0].take_app(AppId(99));
            } else {
                servers[0].place_app(app(10, 0.4));
                servers[0].place_app(app(11, 0.3));
                servers[0].place_app(app(12, 0.2));
            }
            (servers, leader)
        };
        let (mut a_servers, mut a_leader) = mk(false);
        let (mut b_servers, mut b_leader) = mk(true);
        assert_ne!(
            a_servers[0].apps().iter().map(|a| a.id).collect::<Vec<_>>(),
            b_servers[0].apps().iter().map(|a| a.id).collect::<Vec<_>>(),
            "precondition: storage orders actually differ"
        );
        let out_a = run(&mut a_servers, &mut a_leader, &BalanceConfig::default());
        let out_b = run(&mut b_servers, &mut b_leader, &BalanceConfig::default());
        assert!(!out_a.migrations.is_empty(), "round must do real work");
        assert_eq!(
            format!("{out_a:?}"),
            format!("{out_b:?}"),
            "outcome must be byte-identical across app storage orders"
        );
        for (x, y) in a_servers.iter().zip(&b_servers) {
            assert_eq!(x.load().to_bits(), y.load().to_bits());
        }
    }

    #[test]
    fn migration_records_carry_costs() {
        let (mut servers, mut leader) = mk_cluster(&[&[0.5, 0.4], &[0.25]]);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        for m in &out.migrations {
            assert!(m.cost.energy_j > 0.0);
            assert!(m.cost.duration.as_secs_f64() > 0.0);
            assert!(m.demand > 0.0);
        }
        assert!(out.migration_energy_j() > 0.0);
    }

    /// The per-candidate filter-and-sort the drain phase ran before
    /// [`DrainRank`] existed, kept as the rank's oracle.
    fn drain_receivers_oracle(servers: &[Server], fill: FillLimit) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = servers
            .iter()
            .filter(|s| {
                s.is_awake()
                    && s.regime() == OperatingRegime::SuboptimalLow
                    && s.load() < fill.ceiling(s)
            })
            .map(Server::id)
            .collect();
        ids.sort_by(|&a, &b| {
            let ha = fill.ceiling(&servers[a.index()]) - servers[a.index()].load();
            let hb = fill.ceiling(&servers[b.index()]) - servers[b.index()].load();
            hb.total_cmp(&ha).then(a.cmp(&b))
        });
        ids
    }

    fn rank_ids(rank: &DrainRank) -> Vec<ServerId> {
        rank.iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn drain_rank_matches_the_filter_and_sort_oracle() {
        use crate::mix::ServerMix;
        use ecolb_simcore::proptest_lite::check;
        const FILLS: [FillLimit; 3] = [FillLimit::OptLow, FillLimit::OptTarget, FillLimit::OptHigh];
        check("drain_rank_oracle", |g| {
            let sleep_model = SleepModel::default();
            // Half the cases are homogeneous; the rest mix enterprise
            // power classes with per-server sampled regime ceilings.
            let mixed = g.rng().chance(0.5);
            let mix = ServerMix::typical_enterprise();
            let fill = FILLS[g.usize_in(0, FILLS.len())];
            let n = g.usize_in(1, 40);
            let mut next_app = 0u64;
            let mut servers: Vec<Server> = (0..n)
                .map(|i| {
                    let (b, power) = if mixed {
                        let class = mix.sample(g.rng());
                        (
                            RegimeBoundaries::sample_paper(g.rng()),
                            mix.power_spec(class),
                        )
                    } else {
                        (boundaries(), LinearPowerModel::typical_volume_server())
                    };
                    let mut s = Server::new(ServerId(i as u32), b, power, SimTime::ZERO);
                    for _ in 0..g.usize_in(0, 4) {
                        let d = g.f64_in(0.0, 0.2);
                        s.place_app(Application::new(AppId(next_app), d, 0.01, 4.0));
                        next_app += 1;
                    }
                    s
                })
                .collect();
            // Equal loads on a few servers exercise the id tie-break.
            if n > 2 && g.rng().chance(0.5) {
                for s in &mut servers[..2] {
                    s.drain_apps();
                    s.place_app(Application::new(AppId(next_app), 0.25, 0.01, 4.0));
                    next_app += 1;
                }
            }
            let mut rank = DrainRank::build(&servers, fill);
            assert_eq!(rank_ids(&rank), drain_receivers_oracle(&servers, fill));

            let mut now = SimTime::ZERO;
            for _ in 0..g.usize_in(1, 30) {
                now += ecolb_simcore::time::SimDuration::from_secs(3600);
                let id = ServerId(g.usize_in(0, n) as u32);
                let s = &mut servers[id.index()];
                match g.usize_in(0, 4) {
                    0 if s.is_awake() => {
                        let d = g.f64_in(0.0, 0.15);
                        s.place_app(Application::new(AppId(next_app), d, 0.01, 4.0));
                        next_app += 1;
                    }
                    1 => {
                        if let Some(app) = s.apps().first().map(|a| a.id) {
                            s.take_app(app);
                        }
                    }
                    2 if s.is_awake() => {
                        s.drain_apps();
                        s.enter_sleep(now, CState::C3, &sleep_model);
                    }
                    3 if s.is_sleeping() => {
                        // Half the wakes are still in flight at the check.
                        let ready = s.begin_wake(now, &sleep_model);
                        if g.rng().chance(0.5) {
                            s.complete_wake(ready);
                            now = ready;
                        }
                    }
                    _ => continue,
                }
                rank.refresh(&servers, fill, id);
                assert_eq!(rank_ids(&rank), drain_receivers_oracle(&servers, fill));
            }
            for (id, stored) in rank.iter() {
                let s = &servers[id.index()];
                assert_eq!(stored.to_bits(), (fill.ceiling(s) - s.load()).to_bits());
            }
        });
    }

    #[test]
    fn early_exit_bound_implies_the_placement_test_fails() {
        use ecolb_simcore::proptest_lite::check;
        check("drain_early_exit_exact", |g| {
            let ceiling = g.f64_in(0.0, 1.0);
            let load0 = g.f64_in(0.0, ceiling);
            let stored = ceiling - load0;
            // Demands straddle the bound to within a few hundred ulps, plus
            // unconstrained draws.
            let demand = if g.rng().chance(0.7) {
                let ulps = g.u64_in(0, 400) as f64 - 200.0;
                (stored + EPS + EARLY_EXIT_SLACK + ulps * 1e-16).max(0.0)
            } else {
                g.f64_in(0.0, 1.0)
            };
            // Receivers only gain load between a refresh and the search.
            let mut load = load0;
            for _ in 0..g.usize_in(0, 3) {
                load += g.f64_in(0.0, 1e-9);
            }
            if cannot_fit(stored, demand) {
                assert!(
                    load + demand > ceiling + EPS,
                    "early exit on a receiver that fits: load {load} demand {demand} \
                     ceiling {ceiling}"
                );
            }
        });
    }

    #[test]
    fn headroom_key_follows_total_cmp_including_signed_zero_and_subnormals() {
        let values = [
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            f64::MIN_POSITIVE,
            0.05,
            1.0,
            f64::INFINITY,
        ];
        for &a in &values {
            assert_eq!(key_headroom(headroom_key(a)).to_bits(), a.to_bits());
            for &b in &values {
                assert_eq!(
                    headroom_key(a).cmp(&headroom_key(b)),
                    b.total_cmp(&a),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    #[test]
    fn equal_drain_headroom_breaks_ties_by_lower_id() {
        // Receivers 1 and 2 have identical headroom; the lower id wins.
        let (mut servers, mut leader) = mk_cluster(&[&[0.03], &[0.25], &[0.25]]);
        let rank = DrainRank::build(&servers, FillLimit::OptLow);
        assert_eq!(rank_ids(&rank), vec![ServerId(1), ServerId(2)]);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert_eq!(out.migrations.len(), 1);
        assert_eq!(out.migrations[0].to, ServerId(1));
    }

    #[test]
    fn drain_partner_cap_limits_receivers_per_candidate() {
        // Receiver 1 (headroom 0.08) takes the first app and is then too
        // full for the second; only receiver 2 could take it.
        let loads: [&[f64]; 3] = [&[0.05, 0.05], &[0.22], &[0.23]];
        let config = |max_partners| BalanceConfig {
            max_partners,
            drain_moves_per_candidate: 8,
            ..Default::default()
        };
        let (mut servers, mut leader) = mk_cluster(&loads);
        let out = run(&mut servers, &mut leader, &config(Some(1)));
        let targets: Vec<ServerId> = out.migrations.iter().map(|m| m.to).collect();
        assert_eq!(targets, vec![ServerId(1)]);
        assert_eq!(out.failed_drains, vec![ServerId(0)]);

        let (mut servers, mut leader) = mk_cluster(&loads);
        let out = run(&mut servers, &mut leader, &config(None));
        let targets: Vec<ServerId> = out.migrations.iter().map(|m| m.to).collect();
        assert_eq!(targets, vec![ServerId(1), ServerId(2)]);
        assert_eq!(out.slept.len(), 1);
    }

    #[test]
    fn multi_move_drain_keeps_the_candidate_start_order() {
        // Candidate 0 (load 0.08) drains first. Receiver 2 starts with the
        // most headroom (0.09 vs 0.08) and still fits the second app after
        // taking the first, even though receiver 3 then has more room: the
        // candidate walks the order its search began with. Candidate 1
        // (load 0.1) searches after the refresh and sees receiver 3 first.
        let (mut servers, mut leader) =
            mk_cluster(&[&[0.04, 0.04], &[0.05, 0.05], &[0.21], &[0.22]]);
        let config = BalanceConfig {
            drain_moves_per_candidate: 8,
            ..Default::default()
        };
        let out = run(&mut servers, &mut leader, &config);
        let moves: Vec<(ServerId, ServerId)> =
            out.migrations.iter().map(|m| (m.from, m.to)).collect();
        assert_eq!(
            moves,
            vec![
                (ServerId(0), ServerId(2)),
                (ServerId(0), ServerId(2)),
                (ServerId(1), ServerId(3)),
            ]
        );
        assert_eq!(out.slept.len(), 1);
        assert_eq!(out.failed_drains, vec![ServerId(1)]);
    }
}
