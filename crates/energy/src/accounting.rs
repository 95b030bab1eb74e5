//! Energy accounting: integrating power over simulated time.
//!
//! [`EnergyMeter`] is attached to each simulated server. It is fed
//! piecewise-constant operating segments — "from the last update until now
//! the server ran at utilization `u` in C-state `s`" — and accumulates
//! Joules, broken down into active, idle-overhead, sleep, and transition
//! energy. The paper's two quality metrics for a policy are *energy saved*
//! and *violations* (§3); this meter supplies the first.

use crate::power::PowerModel;
use crate::sleep::{CState, SleepModel};
use ecolb_simcore::time::{SimDuration, SimTime};

/// Cumulative energy usage of one server, in Joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy attributable to useful work: the proportional part
    /// `(P(u) − P(0))·t` while awake.
    pub active_j: f64,
    /// Idle-floor energy burned while awake: `P(0)·t`.
    pub idle_overhead_j: f64,
    /// Residual energy while in a sleep state.
    pub sleep_j: f64,
    /// Energy spent entering/leaving sleep states.
    pub transition_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in Joules.
    pub fn total_j(&self) -> f64 {
        self.active_j + self.idle_overhead_j + self.sleep_j + self.transition_j
    }

    /// Total energy in Watt-hours.
    pub fn total_wh(&self) -> f64 {
        self.total_j() / 3600.0
    }

    /// Merges another breakdown (for cluster-level totals).
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.active_j += other.active_j;
        self.idle_overhead_j += other.idle_overhead_j;
        self.sleep_j += other.sleep_j;
        self.transition_j += other.transition_j;
    }
}

/// Integrates a server's power draw over simulated time.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    last_update: SimTime,
    breakdown: EnergyBreakdown,
}

impl EnergyMeter {
    /// Creates a meter starting at `t0`.
    pub fn new(t0: SimTime) -> Self {
        EnergyMeter {
            last_update: t0,
            breakdown: EnergyBreakdown::default(),
        }
    }

    /// Accounts the segment from the last update to `now`, during which the
    /// server ran at constant `utilization` in `cstate`, then advances the
    /// internal clock. `now` earlier than the last update is a logic error
    /// and panics.
    pub fn advance<M: PowerModel>(
        &mut self,
        now: SimTime,
        model: &M,
        cstate: CState,
        utilization: f64,
    ) {
        assert!(
            now >= self.last_update,
            "energy meter driven backwards in time"
        );
        let dt = (now - self.last_update).as_secs_f64();
        self.last_update = now;
        if dt == 0.0 {
            return;
        }
        if cstate.is_sleeping() {
            let residual_w = model.idle_power_w() * cstate.residual_power_fraction();
            self.breakdown.sleep_j += residual_w * dt;
        } else {
            let idle_w = model.idle_power_w();
            let total_w = model.power_w(utilization);
            self.breakdown.idle_overhead_j += idle_w * dt;
            self.breakdown.active_j += (total_w - idle_w) * dt;
        }
    }

    /// Records the one-off cost of a sleep transition into (and eventually
    /// out of) `target`.
    pub fn record_transition(&mut self, sleep_model: &SleepModel, target: CState) {
        self.breakdown.transition_j += sleep_model.transition_energy_j(target);
    }

    /// Records setup energy while a server wakes: the paper notes that
    /// during setup "the energy consumption … is close to the maximal one"
    /// (§3), so we burn peak power for the wake latency.
    pub fn record_setup<M: PowerModel>(&mut self, model: &M, setup_time: SimDuration) {
        self.breakdown.transition_j += model.peak_power_w() * setup_time.as_secs_f64();
    }

    /// Current cumulative breakdown.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::LinearPowerModel;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn awake_segment_splits_idle_and_active() {
        let model = LinearPowerModel::new(100.0, 200.0);
        let mut m = EnergyMeter::new(t(0));
        m.advance(t(10), &model, CState::C0, 0.5);
        let b = m.breakdown();
        assert!((b.idle_overhead_j - 1000.0).abs() < 1e-9); // 100 W × 10 s
        assert!((b.active_j - 500.0).abs() < 1e-9); // 50 W × 10 s
        assert_eq!(b.sleep_j, 0.0);
        assert!((b.total_j() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn sleep_segment_uses_residual_fraction() {
        let model = LinearPowerModel::new(100.0, 200.0);
        let mut m = EnergyMeter::new(t(0));
        m.advance(t(100), &model, CState::C6, 0.0);
        let b = m.breakdown();
        // 100 W idle × 3 % × 100 s = 300 J.
        assert!((b.sleep_j - 300.0).abs() < 1e-9);
        assert_eq!(b.active_j, 0.0);
    }

    #[test]
    fn c3_burns_more_than_c6() {
        let model = LinearPowerModel::new(100.0, 200.0);
        let mut a = EnergyMeter::new(t(0));
        let mut b = EnergyMeter::new(t(0));
        a.advance(t(50), &model, CState::C3, 0.0);
        b.advance(t(50), &model, CState::C6, 0.0);
        assert!(a.breakdown().sleep_j > b.breakdown().sleep_j);
    }

    #[test]
    fn zero_length_segment_is_free() {
        let model = LinearPowerModel::new(100.0, 200.0);
        let mut m = EnergyMeter::new(t(5));
        m.advance(t(5), &model, CState::C0, 1.0);
        assert_eq!(m.breakdown().total_j(), 0.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn rejects_time_travel() {
        let model = LinearPowerModel::new(100.0, 200.0);
        let mut m = EnergyMeter::new(t(10));
        m.advance(t(5), &model, CState::C0, 0.0);
    }

    #[test]
    fn transition_and_setup_costs_accrue() {
        let model = LinearPowerModel::new(100.0, 200.0);
        let sm = SleepModel::default();
        let mut m = EnergyMeter::new(t(0));
        m.record_transition(&sm, CState::C6);
        m.record_setup(&model, SimDuration::from_secs(200));
        let b = m.breakdown();
        // 20 kJ transition + 200 W × 200 s = 40 kJ setup.
        assert!((b.transition_j - 60_000.0).abs() < 1e-6);
    }

    #[test]
    fn breakdown_merge_sums_fields() {
        let mut a = EnergyBreakdown {
            active_j: 1.0,
            idle_overhead_j: 2.0,
            sleep_j: 3.0,
            transition_j: 4.0,
        };
        let b = EnergyBreakdown {
            active_j: 10.0,
            idle_overhead_j: 20.0,
            sleep_j: 30.0,
            transition_j: 40.0,
        };
        a.merge(&b);
        assert_eq!(a.total_j(), 110.0);
    }

    #[test]
    fn wh_conversion() {
        let b = EnergyBreakdown {
            active_j: 3600.0,
            ..Default::default()
        };
        assert!((b.total_wh() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_segment_integration() {
        let model = LinearPowerModel::new(100.0, 200.0);
        let mut m = EnergyMeter::new(t(0));
        m.advance(t(10), &model, CState::C0, 1.0); // 200 W × 10 = 2000 J
        m.advance(t(20), &model, CState::C0, 0.0); // 100 W × 10 = 1000 J
        m.advance(t(30), &model, CState::C3, 0.0); // 25 W × 10 = 250 J
        assert!((m.breakdown().total_j() - 3250.0).abs() < 1e-9);
        assert_eq!(m.last_update, t(30));
    }
}
