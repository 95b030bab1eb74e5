//! The empty-chaos no-op contract, end to end.
//!
//! A zero-intensity sweep must be *structurally* free: generation
//! produces empty plans without constructing a single RNG stream, the
//! fault layer draws nothing, the attached invariant checker only reads,
//! and the resulting [`TimedRunReport`]s are byte-identical to plain
//! fault-free runs — at any `par` fan-out width.

use ecolb_chaos::{generate_plan, sweep, ChaosScenario, SweepSummary};
use ecolb_cluster::sim::{TimedClusterSim, TimedRunReport};

const SEED: u64 = 20140109;
const PLANS: u64 = 4;

fn scenario() -> ChaosScenario {
    ChaosScenario::new(30, 8, 0.0)
}

#[test]
fn zero_intensity_plans_are_structurally_empty() {
    let scenario = scenario();
    for index in 0..PLANS {
        let plan = generate_plan(SEED, index, &scenario);
        assert!(plan.is_empty(), "plan {index} not empty: {plan:?}");
        assert!(plan.events.is_empty());
    }
}

#[test]
fn zero_intensity_sweep_is_byte_identical_at_any_thread_count() {
    let scenario = scenario();

    // Fault-free baselines of the same `(seed, config, intervals)`.
    let plain: Vec<TimedRunReport> = (0..PLANS)
        .map(|index| {
            let plan = generate_plan(SEED, index, &scenario);
            TimedClusterSim::new(scenario.config(), plan.seed, scenario.intervals).run()
        })
        .collect();

    let base = sweep(&scenario, SEED, PLANS, 1);
    for threads in [2usize, 8] {
        assert_eq!(
            sweep(&scenario, SEED, PLANS, threads),
            base,
            "sweep diverged at {threads} threads"
        );
    }

    let summary = SweepSummary::of(&base);
    assert!(summary.clean());
    assert_eq!(summary.plans, PLANS);
    assert_eq!(summary.events_injected, 0);
    assert_eq!(summary.digests_checked, PLANS * scenario.intervals);

    for (index, (outcome, plain)) in base.iter().zip(&plain).enumerate() {
        assert!(outcome.ok());
        assert!(outcome.report.plan_was_empty, "plan {index} drew faults");
        assert_eq!(outcome.report.degradation.availability, 1.0);
        assert_eq!(outcome.report.degradation.lost_reports, 0);
        // Byte-identical to the fault-free run: the checker observed
        // every interval without perturbing one.
        assert_eq!(
            &outcome.report.timed, plain,
            "plan {index}: checked run diverged from the fault-free baseline"
        );
    }
}
