//! The simulated server.
//!
//! Each server `S_k` carries the **static information** the paper lists in
//! §4 — its identifier and the four regime boundaries `α^{sopt,l}_k`,
//! `α^{opt,l}_k`, `α^{opt,h}_k`, `α^{sopt,h}_k` — and **dynamic
//! information**: the hosted applications (one VM each), the load, the
//! operating regime, and the CPU (C-)state. An [`EnergyMeter`] integrates
//! the server's power draw over simulated time.

use ecolb_energy::accounting::{EnergyBreakdown, EnergyMeter};
use ecolb_energy::power::LinearPowerModel;
use ecolb_energy::regimes::{OperatingRegime, RegimeBoundaries};
use ecolb_energy::sleep::{CState, SleepModel};
use ecolb_simcore::time::SimTime;
use ecolb_workload::application::{AppId, Application};
use std::fmt;

/// Cluster-unique server identifier (index into the cluster's server
/// vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl ServerId {
    /// The vector index this id denotes.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A simulated server.
#[derive(Debug, Clone)]
pub struct Server {
    id: ServerId,
    boundaries: RegimeBoundaries,
    power: LinearPowerModel,
    apps: Vec<Application>,
    load: f64,
    cstate: CState,
    /// Set while a wake-up is in flight: the instant the server reaches C0.
    wake_ready_at: Option<SimTime>,
    /// Set while the server is crash-stopped (out of service until
    /// repaired through [`Server::recover`]).
    crashed: bool,
    meter: EnergyMeter,
    /// Lifetime counts of VMs migrated in/out, for reporting.
    pub migrations_in: u64,
    /// Lifetime count of VMs migrated away from this server.
    pub migrations_out: u64,
}

impl Server {
    /// Creates an awake, empty server.
    pub fn new(
        id: ServerId,
        boundaries: RegimeBoundaries,
        power: LinearPowerModel,
        t0: SimTime,
    ) -> Self {
        Server {
            id,
            boundaries,
            power,
            apps: Vec::new(),
            load: 0.0,
            cstate: CState::C0,
            wake_ready_at: None,
            crashed: false,
            meter: EnergyMeter::new(t0),
            migrations_in: 0,
            migrations_out: 0,
        }
    }

    /// The server's identifier.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The static regime boundaries.
    pub fn boundaries(&self) -> &RegimeBoundaries {
        &self.boundaries
    }

    /// The power model.
    pub fn power(&self) -> &LinearPowerModel {
        &self.power
    }

    /// Current normalized load (sum of hosted application demands, clamped
    /// to 1 for regime purposes — demand beyond capacity queues rather than
    /// executes).
    pub fn load(&self) -> f64 {
        self.load
    }

    /// Load usable as normalized performance `a(t)`.
    pub fn normalized_performance(&self) -> f64 {
        self.load.min(1.0)
    }

    /// Current operating regime (meaningful only while awake).
    pub fn regime(&self) -> OperatingRegime {
        self.boundaries.classify(self.normalized_performance())
    }

    /// Current C-state.
    pub fn cstate(&self) -> CState {
        self.cstate
    }

    /// True when the server is awake and able to execute.
    pub fn is_awake(&self) -> bool {
        !self.crashed && self.cstate == CState::C0 && self.wake_ready_at.is_none()
    }

    /// True while the server is crash-stopped (out of service; not
    /// eligible for wake orders until repaired).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// True when asleep or still waking.
    pub fn is_sleeping(&self) -> bool {
        !self.is_awake()
    }

    /// The instant a pending wake completes, if one is in flight.
    pub fn wake_ready_at(&self) -> Option<SimTime> {
        self.wake_ready_at
    }

    /// The hosted applications.
    pub fn apps(&self) -> &[Application] {
        &self.apps
    }

    /// Number of hosted applications.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// Mutable access for demand evolution. Call [`Server::refresh_load`]
    /// after mutating demands.
    pub fn apps_mut(&mut self) -> &mut Vec<Application> {
        &mut self.apps
    }

    /// Recomputes the cached load after external demand mutation.
    pub fn refresh_load(&mut self) {
        self.load = self.apps.iter().map(|a| a.demand).sum();
    }

    /// Advances this server's energy meter to `now` under its current
    /// state. Must be called *before* any state change that alters power
    /// draw. This runs once per server per interval — no clones, no
    /// allocation: the power model is passed by reference and the
    /// meter/power fields borrow disjointly.
    pub fn meter_advance(&mut self, now: SimTime) {
        let u = self.normalized_performance();
        self.meter.advance(now, &self.power, self.cstate, u);
    }

    /// Places an application on this server (it must be awake).
    pub fn place_app(&mut self, app: Application) {
        debug_assert!(self.is_awake(), "placing app on sleeping {}", self.id);
        self.load += app.demand;
        self.apps.push(app);
    }

    /// Removes an application by id, returning it; `None` when absent.
    pub fn take_app(&mut self, id: AppId) -> Option<Application> {
        let idx = self.apps.iter().position(|a| a.id == id)?;
        let app = self.apps.swap_remove(idx);
        self.load -= app.demand;
        if self.apps.is_empty() {
            self.load = 0.0; // kill accumulated rounding drift
        }
        Some(app)
    }

    /// Removes and returns all applications (drain before sleeping).
    pub fn drain_apps(&mut self) -> Vec<Application> {
        self.load = 0.0;
        std::mem::take(&mut self.apps)
    }

    /// Switches an idle server into `target` sleep state, charging the
    /// transition energy. Panics if the server still hosts applications.
    pub fn enter_sleep(&mut self, now: SimTime, target: CState, sleep_model: &SleepModel) {
        assert!(
            self.apps.is_empty(),
            "{} cannot sleep with {} apps",
            self.id,
            self.apps.len()
        );
        assert!(target.is_sleeping(), "enter_sleep needs a sleep state");
        self.meter_advance(now);
        self.meter.record_transition(sleep_model, target);
        self.cstate = target;
        self.wake_ready_at = None;
    }

    /// Crash-stops the server at `now`: the energy meter is settled under
    /// the pre-crash state, every hosted VM is lost (returned as orphans
    /// for re-admission elsewhere), and the host drops to C6 residual
    /// draw until repaired. A crashed server is neither awake nor
    /// eligible for wake orders.
    pub fn crash(&mut self, now: SimTime) -> Vec<Application> {
        self.meter_advance(now);
        self.crashed = true;
        self.cstate = CState::C6;
        self.wake_ready_at = None;
        self.drain_apps()
    }

    /// Repairs a crashed server at `now`: the host reboots through the
    /// normal C6 wake path (full setup energy and latency) and returns
    /// the instant it reaches C0. No-op returning `now` for servers that
    /// were not crashed.
    pub fn recover(&mut self, now: SimTime, sleep_model: &SleepModel) -> SimTime {
        if !self.crashed {
            return now;
        }
        self.meter_advance(now);
        self.crashed = false;
        self.begin_wake(now, sleep_model)
    }

    /// Begins waking the server; it reaches C0 after the sleep state's wake
    /// latency, during which it burns near-peak power (paper §3). Returns
    /// the completion instant. No-op returning `now` when already awake,
    /// and for crashed servers (a dead host cannot honour a wake order —
    /// it must be repaired through [`Server::recover`] first).
    pub fn begin_wake(&mut self, now: SimTime, sleep_model: &SleepModel) -> SimTime {
        if self.crashed {
            return now;
        }
        if self.is_awake() {
            return now;
        }
        if let Some(t) = self.wake_ready_at {
            return t; // already waking
        }
        self.meter_advance(now);
        let latency = sleep_model.wake_latency(self.cstate);
        self.meter.record_setup(&self.power, latency);
        let ready = now + latency;
        self.wake_ready_at = Some(ready);
        ready
    }

    /// Completes a pending wake (to be called at the instant returned by
    /// [`Server::begin_wake`]).
    pub fn complete_wake(&mut self, now: SimTime) {
        if let Some(t) = self.wake_ready_at {
            debug_assert!(now >= t, "wake completed early");
            self.meter_advance(now);
            self.cstate = CState::C0;
            self.wake_ready_at = None;
        }
    }

    /// Cumulative energy usage.
    pub fn energy(&self) -> EnergyBreakdown {
        self.meter.breakdown()
    }

    /// Load above the optimal band that should be shed (horizontal
    /// scaling / migration pressure).
    pub fn shed_pressure(&self) -> f64 {
        self.boundaries
            .excess_over_opt_high(self.normalized_performance())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolb_energy::regimes::RegimeBoundaries;
    use ecolb_workload::application::{AppId, Application};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn server() -> Server {
        Server::new(
            ServerId(0),
            RegimeBoundaries::new(0.2, 0.3, 0.7, 0.8),
            LinearPowerModel::typical_volume_server(),
            t(0),
        )
    }

    fn app(id: u64, demand: f64) -> Application {
        Application::new(AppId(id), demand, 0.01, 4.0)
    }

    #[test]
    fn placement_updates_load_and_regime() {
        let mut s = server();
        assert_eq!(s.regime(), OperatingRegime::UndesirableLow);
        s.place_app(app(1, 0.5));
        assert!((s.load() - 0.5).abs() < 1e-12);
        assert_eq!(s.regime(), OperatingRegime::Optimal);
        s.place_app(app(2, 0.4));
        assert_eq!(s.regime(), OperatingRegime::UndesirableHigh);
    }

    #[test]
    fn take_app_restores_load() {
        let mut s = server();
        s.place_app(app(1, 0.3));
        s.place_app(app(2, 0.2));
        let a = s.take_app(AppId(1)).unwrap();
        assert_eq!(a.id, AppId(1));
        assert!((s.load() - 0.2).abs() < 1e-12);
        assert_eq!(s.take_app(AppId(99)), None);
    }

    #[test]
    fn drain_empties_server() {
        let mut s = server();
        s.place_app(app(1, 0.3));
        s.place_app(app(2, 0.2));
        let apps = s.drain_apps();
        assert_eq!(apps.len(), 2);
        assert_eq!(s.load(), 0.0);
        assert_eq!(s.app_count(), 0);
    }

    #[test]
    fn sleep_wake_cycle() {
        let sm = SleepModel::default();
        let mut s = server();
        s.enter_sleep(t(10), CState::C6, &sm);
        assert!(s.is_sleeping());
        assert_eq!(s.cstate(), CState::C6);
        let ready = s.begin_wake(t(100), &sm);
        assert!(ready > t(100));
        assert!(s.is_sleeping(), "still waking");
        assert_eq!(s.wake_ready_at(), Some(ready));
        s.complete_wake(ready);
        assert!(s.is_awake());
        assert_eq!(s.cstate(), CState::C0);
    }

    #[test]
    fn begin_wake_is_idempotent() {
        let sm = SleepModel::default();
        let mut s = server();
        s.enter_sleep(t(0), CState::C3, &sm);
        let r1 = s.begin_wake(t(5), &sm);
        let r2 = s.begin_wake(t(6), &sm);
        assert_eq!(r1, r2, "second call returns the in-flight completion");
    }

    #[test]
    fn wake_on_awake_server_is_noop() {
        let sm = SleepModel::default();
        let mut s = server();
        assert_eq!(s.begin_wake(t(7), &sm), t(7));
        assert!(s.is_awake());
    }

    #[test]
    #[should_panic(expected = "cannot sleep")]
    fn sleep_with_apps_panics() {
        let sm = SleepModel::default();
        let mut s = server();
        s.place_app(app(1, 0.1));
        s.enter_sleep(t(0), CState::C3, &sm);
    }

    #[test]
    fn energy_accrues_while_awake_and_asleep() {
        let sm = SleepModel::default();
        let mut s = server();
        s.place_app(app(1, 0.5));
        s.meter_advance(t(100));
        let awake = s.energy().total_j();
        assert!(awake > 0.0);
        s.take_app(AppId(1));
        s.meter_advance(t(100)); // no time passes
        s.enter_sleep(t(100), CState::C6, &sm);
        s.meter_advance(t(200));
        let after_sleep = s.energy();
        assert!(after_sleep.sleep_j > 0.0);
        assert!(after_sleep.transition_j > 0.0);
    }

    #[test]
    fn sleeping_burns_less_than_running() {
        let sm = SleepModel::default();
        let mut awake = server();
        awake.place_app(app(1, 0.5));
        awake.meter_advance(t(1000));

        let mut asleep = server();
        asleep.enter_sleep(t(0), CState::C6, &sm);
        asleep.meter_advance(t(1000));

        assert!(asleep.energy().total_j() < 0.2 * awake.energy().total_j());
    }

    #[test]
    fn shed_pressure_is_the_load_above_the_band() {
        let mut s = server();
        s.place_app(app(1, 0.5));
        assert_eq!(s.shed_pressure(), 0.0);
        s.place_app(app(2, 0.4));
        assert!((s.shed_pressure() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn refresh_load_after_demand_mutation() {
        let mut s = server();
        s.place_app(app(1, 0.2));
        s.apps_mut()[0].demand = 0.6;
        s.refresh_load();
        assert!((s.load() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn crash_orphans_apps_and_takes_host_offline() {
        let mut s = server();
        s.place_app(app(1, 0.3));
        s.place_app(app(2, 0.2));
        let orphans = s.crash(t(100));
        assert_eq!(orphans.len(), 2);
        assert!(s.is_crashed());
        assert!(!s.is_awake());
        assert!(s.is_sleeping(), "a crashed host cannot execute");
        assert_eq!(s.app_count(), 0);
        assert_eq!(s.load(), 0.0);
        assert_eq!(s.cstate(), CState::C6, "dead host draws residual power");
    }

    #[test]
    fn crashed_server_ignores_wake_orders() {
        let sm = SleepModel::default();
        let mut s = server();
        s.crash(t(0));
        assert_eq!(s.begin_wake(t(5), &sm), t(5));
        assert!(s.wake_ready_at().is_none(), "no wake in flight");
        assert!(s.is_crashed());
    }

    #[test]
    fn recover_reboots_through_the_c6_wake_path() {
        let sm = SleepModel::default();
        let mut s = server();
        s.place_app(app(1, 0.4));
        s.crash(t(10));
        let before = s.energy().total_j();
        let ready = s.recover(t(100), &sm);
        assert!(!s.is_crashed());
        assert_eq!(ready, t(100) + sm.wake_latency(CState::C6));
        assert!(s.is_sleeping(), "still booting");
        assert!(s.energy().total_j() > before, "reboot charges setup energy");
        s.complete_wake(ready);
        assert!(s.is_awake());
    }

    #[test]
    fn recover_on_healthy_server_is_noop() {
        let sm = SleepModel::default();
        let mut s = server();
        assert_eq!(s.recover(t(7), &sm), t(7));
        assert!(s.is_awake());
    }

    #[test]
    fn overloaded_performance_clamps_at_capacity() {
        let mut s = server();
        s.place_app(app(1, 0.9));
        s.place_app(app(2, 0.9));
        assert!(s.load() > 1.0);
        assert_eq!(s.normalized_performance(), 1.0);
        assert_eq!(s.regime(), OperatingRegime::UndesirableHigh);
    }
}
