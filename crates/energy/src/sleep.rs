//! ACPI C-states and the sleep-state selection rule.
//!
//! The ACPI specification (paper §2, \[12\]) defines processor **C-states**
//! (C0 running … C6 deep sleep) alongside device D-states and system
//! S-states; only C-states are modelled here. The paper's simulations use
//! exactly two sleep targets — C3 and C6 — chosen by the rule in §6:
//!
//! > *If the overall load of the cluster is more than 60 % of the cluster
//! > capacity we do not switch any server to a C6 state … when the total
//! > cluster load is less than 60 % of its capacity we switch to C6.*
//!
//! Transition costs follow the qualitative ordering the paper gives
//! ("the higher the state number … the larger the energy saved, and the
//! longer the time for the CPU to return to C0"), with concrete magnitudes
//! taken from the AutoScale work it cites: a full server setup can take up
//! to 260 s during which power draw is close to peak (§3).

use ecolb_simcore::time::SimDuration;
use std::fmt;

/// Processor power states (ACPI C-states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CState {
    /// Fully operational.
    C0,
    /// Halt: core clock gated, bus interface and APIC still running.
    C1,
    /// Stop-clock: more units gated.
    C2,
    /// Deep sleep: all internal clocks stopped.
    C3,
    /// Deeper sleep: CPU voltage reduced.
    C4,
    /// Enhanced deeper sleep.
    C5,
    /// Deep power down: voltage near zero.
    C6,
}

impl CState {
    /// All states in increasing depth.
    pub const ALL: [CState; 7] = [
        CState::C0,
        CState::C1,
        CState::C2,
        CState::C3,
        CState::C4,
        CState::C5,
        CState::C6,
    ];

    /// Numeric depth (0 for C0 … 6 for C6).
    pub fn depth(self) -> u8 {
        match self {
            CState::C0 => 0,
            CState::C1 => 1,
            CState::C2 => 2,
            CState::C3 => 3,
            CState::C4 => 4,
            CState::C5 => 5,
            CState::C6 => 6,
        }
    }

    /// True for any state other than C0.
    pub fn is_sleeping(self) -> bool {
        self != CState::C0
    }

    /// Residual power as a fraction of the server's *idle* power. Deeper
    /// states save more; C0 keeps full idle draw. The values follow the
    /// monotone ordering required by ACPI.
    pub fn residual_power_fraction(self) -> f64 {
        match self {
            CState::C0 => 1.0,
            CState::C1 => 0.55,
            CState::C2 => 0.40,
            CState::C3 => 0.25,
            CState::C4 => 0.15,
            CState::C5 => 0.08,
            CState::C6 => 0.03,
        }
    }

    /// Time to return to C0. Shallow states wake in micro/milliseconds; a
    /// C6 "off" server needs a full setup measured in minutes (AutoScale
    /// reports up to 260 s; we use a conservative mid value and expose the
    /// constant for experiments to override via [`SleepModel`]).
    pub fn default_wake_latency(self) -> SimDuration {
        match self {
            CState::C0 => SimDuration::ZERO,
            CState::C1 => SimDuration::from_ticks(10), // ~10 µs
            CState::C2 => SimDuration::from_ticks(100), // ~100 µs
            CState::C3 => SimDuration::from_millis(50), // suspend-like
            CState::C4 => SimDuration::from_millis(500),
            CState::C5 => SimDuration::from_secs(5),
            CState::C6 => SimDuration::from_secs(200), // full setup
        }
    }
}

impl fmt::Display for CState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.depth())
    }
}

/// Parameterised sleep-transition cost model for one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SleepModel {
    /// Wake (return-to-C0) latency per sleep state, indexed by depth 1..=6.
    wake_latency: [SimDuration; 6],
    /// Energy to enter + leave the state, expressed in joules, indexed by
    /// depth 1..=6. Deeper states cost more to cycle (§3 question 3).
    transition_energy_j: [f64; 6],
}

impl Default for SleepModel {
    fn default() -> Self {
        SleepModel {
            wake_latency: [
                CState::C1.default_wake_latency(),
                CState::C2.default_wake_latency(),
                CState::C3.default_wake_latency(),
                CState::C4.default_wake_latency(),
                CState::C5.default_wake_latency(),
                CState::C6.default_wake_latency(),
            ],
            // Cycle energy grows with depth; the C6 figure approximates a
            // 260 s near-peak-power setup on a ~200 W volume server scaled
            // down to the portion attributable to the transition itself.
            transition_energy_j: [0.001, 0.01, 50.0, 200.0, 2_000.0, 20_000.0],
        }
    }
}

impl SleepModel {
    /// Wake latency for a sleep state; zero for C0.
    pub fn wake_latency(&self, state: CState) -> SimDuration {
        match state.depth() {
            0 => SimDuration::ZERO,
            d => self.wake_latency[(d - 1) as usize],
        }
    }

    /// Enter+leave energy for a sleep state; zero for C0.
    pub fn transition_energy_j(&self, state: CState) -> f64 {
        match state.depth() {
            0 => 0.0,
            d => self.transition_energy_j[(d - 1) as usize],
        }
    }

    /// Energy wasted by a wake transition that *fails*: the server pays
    /// the full enter+leave cycle energy for the state it was sleeping in
    /// and ends up back asleep with nothing to show for it. Used by the
    /// fault-injection layer's degradation accounting (a server ordered
    /// out of C6 that never wakes).
    pub fn failed_wake_energy_j(&self, state: CState) -> f64 {
        self.transition_energy_j(state)
    }

    /// Overrides the wake latency of one state (builder style).
    pub fn with_wake_latency(mut self, state: CState, lat: SimDuration) -> Self {
        assert!(state.is_sleeping(), "C0 has no wake latency");
        self.wake_latency[(state.depth() - 1) as usize] = lat;
        self
    }
}

/// Strategy deciding which sleep state an idle server should enter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SleepPolicy {
    /// The paper's rule (§6): C6 when cluster load `< threshold` (default
    /// 0.60), otherwise C3 — a busy cluster will likely need the server
    /// back soon, and C6 wake-ups are slow and expensive.
    ClusterLoadThreshold {
        /// Cluster-load fraction above which only C3 is used.
        threshold: f64,
    },
    /// Ablation: always C3 (fast wake, modest savings).
    AlwaysC3,
    /// Ablation: always C6 (slow wake, maximal savings).
    AlwaysC6,
    /// Never sleep (baseline "always on").
    NeverSleep,
}

impl Default for SleepPolicy {
    fn default() -> Self {
        SleepPolicy::ClusterLoadThreshold { threshold: 0.60 }
    }
}

impl SleepPolicy {
    /// Chooses the sleep state for a drained server given the current
    /// cluster load fraction; `None` means "stay awake".
    pub fn choose(&self, cluster_load_fraction: f64) -> Option<CState> {
        match *self {
            SleepPolicy::ClusterLoadThreshold { threshold } => {
                if cluster_load_fraction < threshold {
                    Some(CState::C6)
                } else {
                    Some(CState::C3)
                }
            }
            SleepPolicy::AlwaysC3 => Some(CState::C3),
            SleepPolicy::AlwaysC6 => Some(CState::C6),
            SleepPolicy::NeverSleep => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_states_save_more_power() {
        let mut prev = f64::INFINITY;
        for s in CState::ALL {
            let frac = s.residual_power_fraction();
            assert!(frac <= prev, "{s} residual {frac} not monotone");
            prev = frac;
        }
        assert_eq!(CState::C0.residual_power_fraction(), 1.0);
    }

    #[test]
    fn deeper_states_wake_slower() {
        let mut prev = SimDuration::ZERO;
        for s in CState::ALL {
            let lat = s.default_wake_latency();
            assert!(lat >= prev, "{s} latency not monotone");
            prev = lat;
        }
    }

    #[test]
    fn deeper_states_cost_more_to_cycle() {
        let m = SleepModel::default();
        let mut prev = 0.0;
        for s in CState::ALL {
            let e = m.transition_energy_j(s);
            assert!(e >= prev, "{s} transition energy not monotone");
            prev = e;
        }
    }

    #[test]
    fn c0_is_free() {
        let m = SleepModel::default();
        assert_eq!(m.wake_latency(CState::C0), SimDuration::ZERO);
        assert_eq!(m.transition_energy_j(CState::C0), 0.0);
        assert!(!CState::C0.is_sleeping());
    }

    #[test]
    fn paper_rule_uses_c6_below_threshold() {
        let p = SleepPolicy::default();
        assert_eq!(p.choose(0.30), Some(CState::C6));
        assert_eq!(p.choose(0.59), Some(CState::C6));
        assert_eq!(p.choose(0.60), Some(CState::C3));
        assert_eq!(p.choose(0.90), Some(CState::C3));
    }

    #[test]
    fn ablation_policies() {
        assert_eq!(SleepPolicy::AlwaysC3.choose(0.1), Some(CState::C3));
        assert_eq!(SleepPolicy::AlwaysC6.choose(0.9), Some(CState::C6));
        assert_eq!(SleepPolicy::NeverSleep.choose(0.1), None);
    }

    #[test]
    fn model_overrides_apply() {
        let m = SleepModel::default().with_wake_latency(CState::C6, SimDuration::from_secs(260));
        assert_eq!(m.wake_latency(CState::C6), SimDuration::from_secs(260));
        // Untouched entries stay at defaults.
        assert_eq!(
            m.wake_latency(CState::C3),
            CState::C3.default_wake_latency()
        );
    }

    #[test]
    fn failed_wake_wastes_the_cycle_energy() {
        let m = SleepModel::default();
        assert_eq!(
            m.failed_wake_energy_j(CState::C6),
            m.transition_energy_j(CState::C6)
        );
        assert_eq!(m.failed_wake_energy_j(CState::C0), 0.0);
        assert!(m.failed_wake_energy_j(CState::C6) > m.failed_wake_energy_j(CState::C3));
    }

    #[test]
    #[should_panic(expected = "C0")]
    fn cannot_override_c0() {
        let _ = SleepModel::default().with_wake_latency(CState::C0, SimDuration::ZERO);
    }

    #[test]
    fn display_and_depth() {
        assert_eq!(CState::C6.to_string(), "C6");
        assert_eq!(CState::C3.depth(), 3);
        assert!(CState::C3 < CState::C6);
    }
}
