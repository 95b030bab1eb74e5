//! The chaos harness: run one plan under the invariant checker, or sweep
//! many plans deterministically in parallel.
//!
//! A chaos run is exactly a faulty run
//! ([`FaultyClusterSim`]) traced by
//! an [`InvariantChecker`]: the checker rides the sealed `Tracer` seam,
//! receives each interval's state digest through `Tracer::digest` (the
//! cluster builds one only for a tracer whose `wants_digest` asks), and
//! asks the engine to abort the moment an invariant breaks. The cluster
//! seed **is** the plan seed, so a whole run replays from
//! `(plan, scenario)` alone — the property the reproducer artifacts and
//! the regression corpus rely on.

use crate::gen::{generate_plan, ChaosScenario};
use ecolb_faults::plan::FaultPlan;
use ecolb_faults::report::FaultyRunReport;
use ecolb_faults::sim::FaultyClusterSim;
use ecolb_simcore::par::map_indexed;
use ecolb_trace::{InvariantChecker, Violation};

/// Everything one checked chaos run produced. `R` is the report of the
/// axis that ran: the cluster simulation's [`FaultyRunReport`] or the
/// serving simulation's `ServeReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome<R = FaultyRunReport> {
    /// The plan that ran (replays the run together with the scenario).
    pub plan: FaultPlan,
    /// The scenario it ran under.
    pub scenario: ChaosScenario,
    /// The run report. When the checker aborted the run mid-flight the
    /// report covers the prefix up to the violation.
    pub report: R,
    /// Invariant violations, in detection order (empty on a healthy run).
    pub violations: Vec<Violation>,
    /// State digests the checker validated.
    pub digests_checked: u64,
}

impl<R> ChaosOutcome<R> {
    /// `true` when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one axis's simulation of `plan` under `scenario` with a fresh
/// invariant checker, sized to the scenario, as its tracer: `run` drives
/// the simulation with the checker it is given.
pub(crate) fn checked<R>(
    scenario: &ChaosScenario,
    plan: &FaultPlan,
    run: impl FnOnce(&mut InvariantChecker) -> R,
) -> ChaosOutcome<R> {
    let mut checker = InvariantChecker::new(scenario.n_servers as u32);
    let report = run(&mut checker);
    ChaosOutcome {
        plan: plan.clone(),
        scenario: *scenario,
        digests_checked: checker.digests_checked(),
        violations: checker.into_violations(),
        report,
    }
}

/// Runs `plan` under `scenario` with the invariant checker attached and
/// abort-on-violation enabled (a violating run stops at the first broken
/// invariant; the evidence is in [`ChaosOutcome::violations`]).
pub fn run_plan(scenario: &ChaosScenario, plan: &FaultPlan) -> ChaosOutcome {
    checked(scenario, plan, |checker| {
        FaultyClusterSim::new(
            scenario.config(),
            plan.seed,
            scenario.intervals,
            plan.clone(),
        )
        .run_traced(checker)
    })
}

/// Generates `n_plans` plans for `(seed, scenario)` and runs each through
/// `run` ([`run_plan`], or a serve-axis run) across `threads` workers.
/// Work is striped deterministically (the same `(seed, scenario,
/// n_plans)` produces the same outcome vector at any thread count), the
/// outcome at position `i` ran plan index `i`, and each plan carries its
/// index-keyed seed, so any violating entry replays standalone.
pub fn sweep<R: Send>(
    scenario: &ChaosScenario,
    seed: u64,
    n_plans: u64,
    threads: usize,
    run: impl Fn(&ChaosScenario, &FaultPlan) -> ChaosOutcome<R> + Sync,
) -> Vec<ChaosOutcome<R>> {
    let indices: Vec<u64> = (0..n_plans).collect();
    map_indexed(indices, threads, |_, index| {
        run(scenario, &generate_plan(seed, index, scenario))
    })
}

/// Aggregate view of a sweep, for tables and the CI gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepSummary {
    /// Plans executed.
    pub plans: u64,
    /// Plans that violated at least one invariant.
    pub violating_plans: u64,
    /// Total violations recorded across all plans.
    pub violations: u64,
    /// Scheduled fault events injected across all plans.
    pub events_injected: u64,
    /// State digests validated across all plans.
    pub digests_checked: u64,
}

impl SweepSummary {
    /// Summarises a slice of outcomes of either axis.
    pub fn of<R>(outcomes: &[ChaosOutcome<R>]) -> Self {
        let mut s = SweepSummary {
            plans: outcomes.len() as u64,
            ..SweepSummary::default()
        };
        for o in outcomes {
            if !o.ok() {
                s.violating_plans += 1;
            }
            s.violations += o.violations.len() as u64;
            s.events_injected += o.plan.events.len() as u64;
            s.digests_checked += o.digests_checked;
        }
        s
    }

    /// `true` when the sweep found no violations at all.
    pub fn clean(&self) -> bool {
        self.violations == 0 && self.violating_plans == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::plan_seed;

    #[test]
    fn a_single_plan_runs_clean_and_checks_digests() {
        let scenario = ChaosScenario::new(20, 6, 0.6);
        let plan = generate_plan(20140109, 0, &scenario);
        let outcome = run_plan(&scenario, &plan);
        assert!(outcome.ok(), "violations: {:?}", outcome.violations);
        assert_eq!(outcome.digests_checked, scenario.intervals);
        assert_eq!(outcome.report.seed, plan_seed(20140109, 0));
    }

    #[test]
    fn sweeps_are_thread_count_invariant() {
        let scenario = ChaosScenario::new(15, 4, 0.8);
        let a = sweep(&scenario, 42, 6, 1, run_plan);
        let b = sweep(&scenario, 42, 6, 3, run_plan);
        assert_eq!(a, b);
        let summary = SweepSummary::of(&a);
        assert_eq!(summary.plans, 6);
        assert!(summary.clean(), "summary: {summary:?}");
        assert_eq!(summary.digests_checked, 6 * scenario.intervals);
    }

    #[test]
    fn mixed_spot_sweeps_run_clean_at_the_same_bar() {
        use crate::gen::FleetKind;
        let scenario = ChaosScenario::new(16, 4, 0.75).with_fleet(FleetKind::MixedSpot);
        let outcomes = sweep(&scenario, 20140109, 4, 2, run_plan);
        let summary = SweepSummary::of(&outcomes);
        assert!(summary.clean(), "summary: {summary:?}");
        assert!(
            summary.events_injected >= 4 * 2,
            "every plan carries at least its scheduled spot reclaims: {summary:?}"
        );
        assert_eq!(summary.digests_checked, 4 * scenario.intervals);
    }

    #[test]
    fn sweep_summary_counts_violating_plans() {
        // Hand-build outcomes: summarisation is pure bookkeeping.
        let scenario = ChaosScenario::new(10, 2, 0.0);
        let plan = generate_plan(1, 0, &scenario);
        let mut outcome = run_plan(&scenario, &plan);
        assert!(outcome.ok());
        outcome.violations.push(Violation {
            at_us: 1,
            invariant: "vm_conservation",
            server: 0,
            detail: "synthetic".to_string(),
            window: Vec::new(),
        });
        let s = SweepSummary::of(std::slice::from_ref(&outcome));
        assert_eq!(s.violating_plans, 1);
        assert_eq!(s.violations, 1);
        assert!(!s.clean());
    }
}
