//! The injector: turns a [`FaultPlan`]'s
//! stochastic fault families into concrete per-draw decisions.
//!
//! [`FaultInjector`] owns one RNG stream per `(fault kind, server)` pair,
//! derived by [`fault_stream`]. It implements
//! the cluster's [`FaultHooks`] seam for report loss, wake failures and
//! the message delay of migration transfers, which the timed driver
//! applies through the engine's interceptor.
//!
//! Determinism rules enforced here:
//!
//! * a family with probability `≤ 0` draws **nothing** — an empty plan
//!   consumes zero random numbers, so the hooked run is byte-identical to
//!   the plain one;
//! * every draw comes from the stream of the server the fault acts on, so
//!   enabling faults for one server never shifts another server's stream.

use crate::plan::{fault_stream, FaultKind, FaultPlan};
use ecolb_cluster::recovery::FaultHooks;
use ecolb_cluster::server::ServerId;
use ecolb_simcore::rng::Rng;
use ecolb_simcore::time::SimDuration;

/// Counts of faults the injector actually fired (as opposed to the
/// recovery layer's [`RecoveryStats`](ecolb_cluster::recovery::RecoveryStats),
/// which counts what the *cluster* observed).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InjectionStats {
    /// `StateReport` attempts the injector destroyed.
    pub reports_dropped: u64,
    /// Wake transitions the injector failed.
    pub wake_failures: u64,
    /// Migration transfers the injector postponed.
    pub migrations_delayed: u64,
    /// Total extra in-flight time injected, seconds.
    pub injected_delay_seconds: f64,
}

/// Per-run fault decision engine; plugs into
/// [`TimedClusterSim::run_with`](ecolb_cluster::sim::TimedClusterSim::run_with)
/// as its [`FaultHooks`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    loss_prob: f64,
    delay_prob: f64,
    max_delay: SimDuration,
    wake_prob: f64,
    loss: Vec<Rng>,
    delay: Vec<Rng>,
    wake: Vec<Rng>,
    stats: InjectionStats,
}

impl FaultInjector {
    /// Builds the injector for an `n_servers` cluster. Streams for a
    /// family are only materialised when its probability is positive.
    pub fn new(plan: &FaultPlan, n_servers: usize) -> Self {
        let streams = |kind: FaultKind, on: bool| -> Vec<Rng> {
            if !on {
                return Vec::new();
            }
            (0..n_servers)
                .map(|i| fault_stream(plan.seed, kind, ServerId(i as u32)))
                .collect()
        };
        FaultInjector {
            loss_prob: plan.message_loss_prob,
            delay_prob: plan.message_delay_prob,
            max_delay: plan.max_message_delay,
            wake_prob: plan.wake_failure_prob,
            loss: streams(FaultKind::MessageLoss, plan.message_loss_prob > 0.0),
            delay: streams(FaultKind::MessageDelay, plan.message_delay_prob > 0.0),
            wake: streams(FaultKind::WakeFailure, plan.wake_failure_prob > 0.0),
            stats: InjectionStats::default(),
        }
    }

    /// What the injector fired so far.
    pub fn stats(&self) -> InjectionStats {
        self.stats
    }
}

impl FaultHooks for FaultInjector {
    fn report_lost(&mut self, from: ServerId, attempt: u32) -> bool {
        let _ = attempt; // every attempt faces the same link loss rate
        if self.loss_prob <= 0.0 {
            return false;
        }
        let lost = self.loss[from.index()].chance(self.loss_prob);
        if lost {
            self.stats.reports_dropped += 1;
        }
        lost
    }

    fn wake_fails(&mut self, server: ServerId) -> bool {
        if self.wake_prob <= 0.0 {
            return false;
        }
        let failed = self.wake[server.index()].chance(self.wake_prob);
        if failed {
            self.stats.wake_failures += 1;
        }
        failed
    }

    /// No delay, or a uniform draw in `[0, max_message_delay)` from the
    /// receiver's stream.
    fn arrival_delay(&mut self, to: ServerId) -> SimDuration {
        if self.delay_prob <= 0.0 {
            return SimDuration::ZERO;
        }
        let rng = &mut self.delay[to.index()];
        if !rng.chance(self.delay_prob) {
            return SimDuration::ZERO;
        }
        let extra = SimDuration::from_secs_f64(rng.uniform(0.0, self.max_delay.as_secs_f64()));
        if !extra.is_zero() {
            self.stats.migrations_delayed += 1;
            self.stats.injected_delay_seconds += extra.as_secs_f64();
        }
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injector_never_fires_and_allocates_no_streams() {
        let mut inj = FaultInjector::new(&FaultPlan::empty(1), 50);
        for i in 0..50 {
            let id = ServerId(i);
            assert!(!inj.report_lost(id, 1));
            assert!(!inj.wake_fails(id));
            assert_eq!(inj.arrival_delay(id), SimDuration::ZERO);
        }
        assert_eq!(inj.stats(), InjectionStats::default());
    }

    #[test]
    fn certain_loss_drops_every_report() {
        let plan = FaultPlan::empty(3).with_message_loss(1.0);
        let mut inj = FaultInjector::new(&plan, 4);
        for attempt in 1..=3 {
            assert!(inj.report_lost(ServerId(2), attempt));
        }
        assert_eq!(inj.stats().reports_dropped, 3);
    }

    #[test]
    fn injector_decisions_replay_identically() {
        let plan = FaultPlan::empty(9)
            .with_message_loss(0.3)
            .with_wake_failures(0.5)
            .with_message_delay(0.4, SimDuration::from_secs(30));
        let run = |mut inj: FaultInjector| {
            let mut trace = Vec::new();
            for i in 0..20u32 {
                let id = ServerId(i % 5);
                trace.push((
                    inj.report_lost(id, 1),
                    inj.wake_fails(id),
                    inj.arrival_delay(id),
                ));
            }
            (trace, inj.stats())
        };
        let a = run(FaultInjector::new(&plan, 5));
        let b = run(FaultInjector::new(&plan, 5));
        assert_eq!(a, b);
    }

    #[test]
    fn per_server_streams_do_not_interfere() {
        let plan = FaultPlan::empty(5).with_message_loss(0.5);
        // Drawing heavily on server 0's stream must not change what
        // server 1 subsequently draws.
        let mut solo = FaultInjector::new(&plan, 2);
        let expected: Vec<bool> = (0..16).map(|_| solo.report_lost(ServerId(1), 1)).collect();
        let mut mixed = FaultInjector::new(&plan, 2);
        for _ in 0..64 {
            let _ = mixed.report_lost(ServerId(0), 1);
        }
        let got: Vec<bool> = (0..16).map(|_| mixed.report_lost(ServerId(1), 1)).collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn delays_are_bounded_by_the_plan_maximum() {
        let max = SimDuration::from_secs(10);
        let plan = FaultPlan::empty(4).with_message_delay(0.9, max);
        let mut inj = FaultInjector::new(&plan, 1);
        let mut delayed = 0u32;
        for _ in 0..100 {
            let d = inj.arrival_delay(ServerId(0));
            assert!(d < max);
            // A no-fault draw and a zero-length draw both deliver now.
            if !d.is_zero() {
                delayed += 1;
            }
        }
        assert!(
            delayed > 70,
            "p=0.9 should delay most transfers, got {delayed}"
        );
        assert_eq!(inj.stats().migrations_delayed, u64::from(delayed));
    }
}
