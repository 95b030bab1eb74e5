//! The serve-axis chaos harness: fuzz the request-level co-simulation.
//!
//! The cluster-axis harness ([`run_plan`](crate::harness::run_plan))
//! checks the balancing protocol's invariants under generated fault
//! plans. This module points the same fuzzer at the *serving* layer:
//! the plan becomes the [`ServeConfig::faults`] schedule of a full
//! request-level run, the
//! [`InvariantChecker`](ecolb_trace::InvariantChecker) rides the sealed
//! tracer seam exactly as before, and on top of the digest invariants it now
//! sees the request-path event stream — so the resilience invariants
//! (`retry_budget`, `breaker_routing`, `shed_accounting`) are exercised
//! by real retries, breaker trips and sheds instead of synthetic
//! events. The serve seed **is** the plan seed, so a serve-axis outcome
//! replays from `(plan, scenario, policy)` alone.

use crate::gen::ChaosScenario;
use crate::harness::{checked, ChaosOutcome};
use ecolb_faults::plan::FaultPlan;
use ecolb_serve::picker::PickerKind;
use ecolb_serve::resilience::ResiliencePolicy;
use ecolb_serve::sim::{ServeConfig, ServeReport, ServeSim};

/// The serving configuration a serve-axis chaos run uses: the paper
/// stack (regime-aware picker, consolidation on) over the scenario's
/// cluster, with the generated plan as the fault schedule and the given
/// resilience policy. Deriving it from `(scenario, plan, policy)` keeps
/// serve-axis runs as replayable as cluster-axis ones.
pub fn serve_chaos_config(
    scenario: &ChaosScenario,
    plan: &FaultPlan,
    resilience: ResiliencePolicy,
) -> ServeConfig {
    let mut cfg = ServeConfig::paper(
        scenario.config(),
        PickerKind::RegimeAware,
        scenario.intervals,
    );
    cfg.faults = Some(plan.clone());
    cfg.resilience = resilience;
    cfg
}

/// Runs `plan` under `scenario` through the request-level co-simulation
/// with the invariant checker attached. The checker validates the same
/// per-interval digests as the cluster axis *plus* every request-path
/// event the serving layer emits.
pub fn run_serve_plan(
    scenario: &ChaosScenario,
    plan: &FaultPlan,
    resilience: ResiliencePolicy,
) -> ChaosOutcome<ServeReport> {
    checked(scenario, plan, |checker| {
        ServeSim::new(serve_chaos_config(scenario, plan, resilience), plan.seed).run_traced(checker)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_plan, FleetKind};
    use crate::harness::{sweep, SweepSummary};

    const SEED: u64 = 20140109;

    #[test]
    fn a_serve_plan_runs_clean_under_the_full_resilience_stack() {
        let scenario = ChaosScenario::new(20, 6, 0.6);
        let plan = generate_plan(SEED, 0, &scenario);
        let outcome = run_serve_plan(&scenario, &plan, ResiliencePolicy::full());
        assert!(outcome.ok(), "violations: {:?}", outcome.violations);
        assert_eq!(outcome.digests_checked, scenario.intervals);
        assert!(
            outcome.report.requests_admitted > 0,
            "the co-simulation actually served traffic"
        );
    }

    #[test]
    fn serve_sweeps_are_thread_count_invariant_and_clean_at_every_level() {
        let scenario = ChaosScenario::new(16, 4, 0.8).with_fleet(FleetKind::MixedSpot);
        for policy in [
            ResiliencePolicy::disabled(),
            ResiliencePolicy::retry_only(),
            ResiliencePolicy::full(),
        ] {
            let run = |s: &ChaosScenario, plan: &FaultPlan| run_serve_plan(s, plan, policy);
            let a = sweep(&scenario, 42, 4, 1, run);
            let b = sweep(&scenario, 42, 4, 2, run);
            assert_eq!(a, b, "thread-count divergence under {policy:?}");
            let summary = SweepSummary::of(&a);
            assert!(summary.clean(), "summary under {policy:?}: {summary:?}");
            assert_eq!(summary.digests_checked, 4 * scenario.intervals);
        }
    }

    #[test]
    fn the_full_stack_actually_exercises_the_resilience_invariants() {
        // The invariants are only worth sweeping if the runs drive them:
        // crashes at this intensity must produce real retries (the
        // retry_budget invariant) and breaker activity (breaker_routing)
        // somewhere in the sweep — not just digest checks.
        let scenario = ChaosScenario::new(16, 6, 0.9).with_fleet(FleetKind::MixedSpot);
        let outcomes = sweep(&scenario, SEED, 4, 2, |s, plan| {
            run_serve_plan(s, plan, ResiliencePolicy::full())
        });
        assert!(SweepSummary::of(&outcomes).clean());
        let retries: u64 = outcomes.iter().map(|o| o.report.resilience.retries).sum();
        let opens: u64 = outcomes
            .iter()
            .map(|o| o.report.resilience.breaker_opens)
            .sum();
        assert!(retries > 0, "no retry ever fired across the sweep");
        assert!(opens > 0, "no breaker ever opened across the sweep");
    }

    #[test]
    fn disabled_policy_matches_the_bare_serve_run_byte_for_byte() {
        // The structural no-op contract holds on the chaos axis too: a
        // checked run with the disabled policy must equal the same
        // config run without any resilience wiring.
        let scenario = ChaosScenario::new(12, 4, 0.7);
        let plan = generate_plan(7, 1, &scenario);
        let checked = run_serve_plan(&scenario, &plan, ResiliencePolicy::disabled());
        let bare = ServeSim::new(
            serve_chaos_config(&scenario, &plan, ResiliencePolicy::disabled()),
            plan.seed,
        )
        .run();
        assert_eq!(checked.report, bare, "the checker perturbed the run");
        // Crash-killed requests are still *counted* with the policy off
        // (honest accounting is unconditional), but no machinery fires.
        let c = &checked.report.resilience;
        assert_eq!(c.retries + c.hedges + c.breaker_opens + c.total_shed(), 0);
    }
}
