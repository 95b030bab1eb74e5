//! The chaos harness: run one plan under the invariant checker, or sweep
//! many plans deterministically in parallel.
//!
//! A chaos run is exactly a faulty run
//! ([`FaultyClusterSim`]) traced by
//! an [`InvariantChecker`]: the checker rides the sealed `Tracer` seam,
//! consumes the per-interval state digests the cluster emits for
//! digest-hungry tracers, and asks the engine to abort the moment an
//! invariant breaks. The cluster seed **is** the plan seed, so a whole
//! run replays from `(plan, scenario)` alone — the property the
//! reproducer artifacts and the regression corpus rely on.

use crate::gen::{generate_plan, ChaosScenario};
use ecolb_faults::plan::FaultPlan;
use ecolb_faults::report::FaultyRunReport;
use ecolb_faults::sim::FaultyClusterSim;
use ecolb_simcore::par::map_indexed;
use ecolb_trace::{InvariantChecker, Violation};

/// Everything one checked chaos run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// The plan that ran (replays the run together with the scenario).
    pub plan: FaultPlan,
    /// The scenario it ran under.
    pub scenario: ChaosScenario,
    /// The degradation-augmented run report. When the checker aborted the
    /// run mid-flight the report covers the prefix up to the violation.
    pub report: FaultyRunReport,
    /// Invariant violations, in detection order (empty on a healthy run).
    pub violations: Vec<Violation>,
    /// State digests the checker validated.
    pub digests_checked: u64,
}

impl ChaosOutcome {
    /// `true` when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Builds the checker a chaos run uses, sized to the scenario.
pub(crate) fn checker_for(scenario: &ChaosScenario) -> InvariantChecker {
    InvariantChecker::new(scenario.n_servers as u32)
}

/// Runs `plan` under `scenario` with the invariant checker attached and
/// abort-on-violation enabled (a violating run stops at the first broken
/// invariant; the evidence is in [`ChaosOutcome::violations`]).
pub fn run_plan(scenario: &ChaosScenario, plan: &FaultPlan) -> ChaosOutcome {
    let mut checker = checker_for(scenario);
    let report = FaultyClusterSim::new(
        scenario.config(),
        plan.seed,
        scenario.intervals,
        plan.clone(),
    )
    .run_traced(&mut checker);
    ChaosOutcome {
        plan: plan.clone(),
        scenario: *scenario,
        digests_checked: checker.digests_checked(),
        violations: checker.into_violations(),
        report,
    }
}

/// Generates and runs `n_plans` plans for `(seed, scenario)` across
/// `threads` workers. Work is striped deterministically (the same
/// `(seed, scenario, n_plans)` produces the same outcome vector at any
/// thread count) and each plan carries its index-keyed seed, so any
/// violating entry replays standalone.
pub fn sweep(
    scenario: &ChaosScenario,
    seed: u64,
    n_plans: u64,
    threads: usize,
) -> Vec<ChaosOutcome> {
    let indices: Vec<u64> = (0..n_plans).collect();
    let scenario = *scenario;
    map_indexed(indices, threads, move |_, index| {
        let plan = generate_plan(seed, index, &scenario);
        run_plan(&scenario, &plan)
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
    /// Summarises a slice of outcomes.
    pub fn of(outcomes: &[ChaosOutcome]) -> Self {
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
        let a = sweep(&scenario, 42, 6, 1);
        let b = sweep(&scenario, 42, 6, 3);
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
        let outcomes = sweep(&scenario, 20140109, 4, 2);
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
