//! The declarative scenario model.
//!
//! A [`ScenarioSpec`] is pure data: every field is a plain value, and
//! [`ScenarioSpec::compile`] maps it onto a
//! [`ServeConfig`] without drawing a
//! single random number. Spot reclaim times in particular are straight
//! arithmetic (`first + i·spacing` on the highest server ids), so the
//! fault plan a scenario produces is a function of the spec alone and
//! the seed only parameterises the *simulators*' keyed streams.

use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::mix::ServerMix;
use ecolb_cluster::server::ServerId;
use ecolb_faults::plan::FaultPlan;
use ecolb_serve::picker::PickerKind;
use ecolb_serve::resilience::ResiliencePolicy;
use ecolb_serve::sim::ServeConfig;
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_workload::generator::WorkloadSpec;
use ecolb_workload::processes::RateModulation;
use ecolb_workload::requests::RequestLoadSpec;

/// Fleet composition: how many servers and which Koomey-class mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Cluster size `n`.
    pub n_servers: usize,
    /// Per-class power-model mix (Table 1 classes).
    pub mix: ServerMix,
}

impl FleetSpec {
    /// A homogeneous volume-class fleet (the paper's implicit default).
    pub fn uniform(n_servers: usize) -> Self {
        FleetSpec {
            n_servers,
            mix: ServerMix::all_volume(),
        }
    }

    /// A typical enterprise mix: mostly volume, some mid-range, a few
    /// high-end machines.
    pub fn enterprise(n_servers: usize) -> Self {
        FleetSpec {
            n_servers,
            mix: ServerMix::typical_enterprise(),
        }
    }
}

/// SLA shape of the request traffic: class split and objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaSpec {
    /// Fraction of applications assigned the gold class.
    pub gold_fraction: f64,
    /// Gold latency objective, seconds.
    pub gold_objective_s: f64,
    /// Bronze latency objective, seconds.
    pub bronze_objective_s: f64,
}

impl SlaSpec {
    /// The serving layer's paper-shaped defaults: a quarter gold at
    /// 500 ms, the rest bronze at 2 s.
    pub fn moderate() -> Self {
        SlaSpec {
            gold_fraction: 0.25,
            gold_objective_s: 0.5,
            bronze_objective_s: 2.0,
        }
    }

    /// A gold-heavy premium tenant mix with a tighter gold objective.
    pub fn gold_heavy() -> Self {
        SlaSpec {
            gold_fraction: 0.6,
            gold_objective_s: 0.3,
            bronze_objective_s: 2.0,
        }
    }
}

/// Deterministic spot/preemptible reclaims: the provider takes back the
/// `count` highest-id servers one by one, starting at
/// `first_reclaim_s` and spaced `spacing_s` apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotSpec {
    /// How many servers are preemptible.
    pub count: usize,
    /// When the first reclaim fires, seconds.
    pub first_reclaim_s: f64,
    /// Gap between successive reclaims, seconds.
    pub spacing_s: f64,
    /// Reboot delay when the capacity is handed back, or `None` for a
    /// permanent reclaim.
    pub recover_after_s: Option<f64>,
}

impl SpotSpec {
    /// Expands the reclaim schedule into a fault plan for an
    /// `n_servers` fleet — pure arithmetic, no RNG streams.
    pub fn plan(&self, seed: u64, n_servers: usize) -> FaultPlan {
        let mut plan = FaultPlan::empty(seed);
        let recover = self.recover_after_s.map(SimDuration::from_secs_f64);
        for i in 0..self.count.min(n_servers) {
            let at = SimTime::ZERO
                + SimDuration::from_secs_f64(self.first_reclaim_s + i as f64 * self.spacing_s);
            let victim = ServerId((n_servers - 1 - i) as u32);
            plan = plan.with_server_crash(at, victim, recover);
        }
        plan
    }
}

/// Request-resilience level of a scenario — the declarative knob the
/// EXPERIMENTS "RS" sweep turns, compiled onto a
/// [`ResiliencePolicy`] in [`ScenarioSpec::compile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResilienceSpec {
    /// The structural no-op: the serving layer behaves byte-identically
    /// to a build without the resilience layer.
    Off,
    /// Budgeted crash retries only — no deadlines, hedging, breakers or
    /// shedding.
    RetryOnly,
    /// The full stack: deadlines, budgeted retries, gold hedging,
    /// circuit breakers and bronze-first shedding.
    Full,
}

impl ResilienceSpec {
    /// The serving-layer policy this level compiles to.
    pub fn policy(self) -> ResiliencePolicy {
        match self {
            ResilienceSpec::Off => ResiliencePolicy::disabled(),
            ResilienceSpec::RetryOnly => ResiliencePolicy::retry_only(),
            ResilienceSpec::Full => ResiliencePolicy::full(),
        }
    }

    /// Stable label (JSON key, table column).
    pub fn label(self) -> &'static str {
        match self {
            ResilienceSpec::Off => "off",
            ResilienceSpec::RetryOnly => "retry_only",
            ResilienceSpec::Full => "full",
        }
    }
}

/// One named, fully deterministic scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Stable scenario name (JSON key, table row).
    pub name: &'static str,
    /// Fleet size and class mix.
    pub fleet: FleetSpec,
    /// Initial VM workload band (paper §4 uniform bands).
    pub workload: WorkloadSpec,
    /// Request traffic intensity (rate per demand, service-time mean).
    pub load: RequestLoadSpec,
    /// SLA class split and objectives.
    pub sla: SlaSpec,
    /// Arrival modulation over the run.
    pub modulation: RateModulation,
    /// Spot reclaims, if any.
    pub spot: Option<SpotSpec>,
    /// Request-resilience level of the serving layer.
    pub resilience: ResilienceSpec,
    /// Reallocation intervals to simulate.
    pub intervals: u64,
}

impl ScenarioSpec {
    /// Compiles the scenario for one `(policy picker, consolidation)`
    /// cell. `consolidate = false` zeroes the leader's drain budget —
    /// the always-on baseline: no server is ever put to sleep.
    pub fn compile(&self, picker: PickerKind, consolidate: bool, seed: u64) -> ServeConfig {
        let mut cluster = ClusterConfig::paper(self.fleet.n_servers, self.workload);
        cluster.server_mix = self.fleet.mix;
        if !consolidate {
            cluster.balance.drain_candidates_per_interval = Some(0);
        }
        let mut cfg = ServeConfig::paper(cluster, picker, self.intervals);
        cfg.load = RequestLoadSpec {
            gold_fraction: self.sla.gold_fraction,
            ..self.load
        };
        cfg.gold_objective_s = self.sla.gold_objective_s;
        cfg.bronze_objective_s = self.sla.bronze_objective_s;
        cfg.modulation = self.modulation;
        cfg.faults = self.spot.map(|s| s.plan(seed, self.fleet.n_servers));
        cfg.resilience = self.resilience.policy();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolb_faults::plan::FaultEventKind;

    #[test]
    fn spot_plan_is_pure_arithmetic_and_sorted() {
        let spot = SpotSpec {
            count: 3,
            first_reclaim_s: 500.0,
            spacing_s: 400.0,
            recover_after_s: Some(600.0),
        };
        let plan = spot.plan(42, 30);
        assert_eq!(plan, spot.plan(42, 30));
        assert_eq!(plan.events.len(), 3);
        let mut last = 0;
        for (i, ev) in plan.events.iter().enumerate() {
            assert!(ev.at.ticks() >= last, "events sorted");
            last = ev.at.ticks();
            match ev.kind {
                FaultEventKind::ServerCrash {
                    server,
                    recover_after,
                } => {
                    assert_eq!(server, ServerId((29 - i) as u32));
                    assert_eq!(recover_after, Some(SimDuration::from_secs_f64(600.0)));
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        // Stochastic families stay disabled: reclaims are scheduled, not
        // sampled.
        assert_eq!(plan.message_loss_prob, 0.0);
        assert_eq!(plan.wake_failure_prob, 0.0);
    }

    #[test]
    fn spot_count_is_clamped_to_the_fleet() {
        let spot = SpotSpec {
            count: 50,
            first_reclaim_s: 100.0,
            spacing_s: 10.0,
            recover_after_s: None,
        };
        assert_eq!(spot.plan(1, 8).events.len(), 8);
    }

    #[test]
    fn compile_threads_fleet_sla_and_modulation_through() {
        let spec = ScenarioSpec {
            name: "t",
            fleet: FleetSpec::enterprise(24),
            workload: WorkloadSpec::paper_low_load(),
            load: RequestLoadSpec::moderate(),
            sla: SlaSpec::gold_heavy(),
            modulation: RateModulation::Flat,
            spot: None,
            resilience: ResilienceSpec::Full,
            intervals: 4,
        };
        let cfg = spec.compile(PickerKind::LeastLoaded, true, 7);
        assert_eq!(cfg.cluster.n_servers, 24);
        assert_eq!(cfg.cluster.server_mix, ServerMix::typical_enterprise());
        assert_eq!(cfg.load.gold_fraction, 0.6);
        assert_eq!(cfg.gold_objective_s, 0.3);
        assert!(cfg.faults.is_none());
        assert_eq!(cfg.resilience, ResiliencePolicy::full());
        let off = ScenarioSpec {
            resilience: ResilienceSpec::Off,
            ..spec
        }
        .compile(PickerKind::LeastLoaded, true, 7);
        assert_eq!(off.resilience, ResiliencePolicy::disabled());
        // The always-on baseline zeroes the drain budget.
        let frozen = spec.compile(PickerKind::LeastLoaded, false, 7);
        assert_eq!(
            frozen.cluster.balance.drain_candidates_per_interval,
            Some(0)
        );
    }
}
