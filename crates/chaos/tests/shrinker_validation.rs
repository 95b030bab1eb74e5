//! Validates the checker → shrinker → artifact pipeline against a
//! *deliberately injected* invariant bug.
//!
//! The bug lives only in this test: a hand-rolled interval driver that —
//! whenever the plan schedules at least one server crash — duplicates a
//! hosted VM through the federation seam before the first interval,
//! breaking VM conservation (`dup_hosted ≥ 1`). The shipped simulation
//! has no such path; the fixture exists to prove that
//!
//! 1. the [`InvariantChecker`] catches the corruption and names
//!    `vm_conservation`, and
//! 2. the shrinker reduces an arbitrarily noisy violating plan to a
//!    minimal reproducer (≤ 5 fault events; in practice exactly one).
//!
//! The ignored `bless_regression_corpus` test regenerates the committed
//! corpus artifact from this same pipeline:
//!
//! ```text
//! cargo test -p ecolb-chaos --test shrinker_validation -- --ignored
//! ```

use ecolb_chaos::{generate_plan, shrink, ChaosScenario, InvariantChecker, ReproArtifact};
use ecolb_cluster::cluster::Cluster;
use ecolb_cluster::recovery::NoFaults;
use ecolb_cluster::server::ServerId;
use ecolb_faults::plan::{FaultEventKind, FaultPlan};
use ecolb_metrics::json::ToJson;

const SEED: u64 = 20140109;

/// The buggy interval driver: a plain cluster run whose "fault
/// injection" for a scheduled crash is… hosting the same VM twice.
fn buggy_run(plan: &FaultPlan, scenario: &ChaosScenario) -> InvariantChecker {
    let mut cluster = Cluster::new(scenario.config(), plan.seed);
    let mut checker = InvariantChecker::new(scenario.n_servers as u32).keep_running();
    let mut bug_armed = plan
        .events
        .iter()
        .any(|e| matches!(e.kind, FaultEventKind::ServerCrash { .. }));
    for _ in 0..scenario.intervals {
        if bug_armed && scenario.n_servers >= 2 {
            if let Some(app) = cluster.servers()[0].apps().first().cloned() {
                // THE BUG: the VM keeps running on server 0 *and* gets
                // placed on server 1 under the same id.
                cluster.place_app_for_federation(ServerId(1), app);
                bug_armed = false;
            }
        }
        cluster.run_interval_traced(&mut NoFaults, &mut checker);
        if !checker.ok() {
            break;
        }
    }
    checker
}

fn violates(plan: &FaultPlan, scenario: &ChaosScenario) -> bool {
    !buggy_run(plan, scenario).ok()
}

/// A generated plan with scheduled crashes plus every stochastic family
/// enabled — realistic fuzzer noise for the shrinker to chew through.
fn noisy_violating_plan(scenario: &ChaosScenario) -> FaultPlan {
    for index in 0..50 {
        let plan = generate_plan(SEED, index, scenario);
        if plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::ServerCrash { .. }))
        {
            return plan;
        }
    }
    unreachable!("50 plans at intensity 0.9 over 24 servers must crash something")
}

#[test]
fn checker_catches_the_injected_duplicate_placement() {
    let scenario = ChaosScenario::new(24, 8, 0.9);
    let plan = noisy_violating_plan(&scenario);
    let checker = buggy_run(&plan, &scenario);
    let v = checker.first_violation().expect("checker must fire");
    assert_eq!(v.invariant, "vm_conservation");
    assert!(
        v.detail.contains("hosted on more than one server"),
        "detail: {}",
        v.detail
    );
    assert!(!v.window.is_empty(), "violation carries its event window");
}

#[test]
fn shrinker_reduces_the_violating_plan_to_a_minimal_reproducer() {
    let scenario = ChaosScenario::new(24, 8, 0.9);
    let plan = noisy_violating_plan(&scenario);
    assert!(plan.events.len() > 1, "want a noisy input: {plan:?}");

    let mut oracle = violates;
    let out = shrink(&plan, &scenario, 2_000, &mut oracle);
    assert!(out.reproduced);

    // Acceptance bar: ≤ 5 fault events. The pipeline actually reaches
    // the single essential event, with every stochastic family zeroed
    // and the horizon collapsed to one interval.
    assert!(
        out.plan.events.len() <= 5,
        "reproducer still has {} events",
        out.plan.events.len()
    );
    assert_eq!(out.plan.events.len(), 1);
    assert!(matches!(
        out.plan.events[0].kind,
        FaultEventKind::ServerCrash { .. }
    ));
    assert_eq!(out.plan.message_loss_prob, 0.0);
    assert_eq!(out.plan.message_delay_prob, 0.0);
    assert_eq!(out.plan.wake_failure_prob, 0.0);
    assert_eq!(out.scenario.intervals, 1);
    assert!(out.scenario.n_servers < scenario.n_servers);

    // The minimal pair still reproduces, and the artifact round-trips.
    let checker = buggy_run(&out.plan, &out.scenario);
    let v = checker.first_violation().expect("reproducer must fire");
    assert_eq!(v.invariant, "vm_conservation");
    let artifact = ReproArtifact::new(v, out.scenario, out.plan.clone());
    let parsed = ReproArtifact::parse(&artifact.to_json()).expect("round trip");
    assert_eq!(parsed, artifact);
}

/// Regenerates the committed regression corpus from an actual
/// checker+shrinker run. Ignored by default: the artifact is committed,
/// and `corpus.rs` replays it on every `cargo test`.
///
/// The committed `vm_conservation_dup_placement.json` predates the fleet
/// axis and carries no `fleet` field; it stays that way as the corpus's
/// pre-fleet input. This helper would now write `"fleet":"uniform"` into
/// it, so CI, which regenerates the other two corpus artifacts and fails
/// on any diff, does not run this one.
#[test]
#[ignore = "corpus bless helper: rewrites tests/regressions/vm_conservation_dup_placement.json"]
fn bless_regression_corpus() {
    let scenario = ChaosScenario::new(24, 8, 0.9);
    let plan = noisy_violating_plan(&scenario);
    let mut oracle = violates;
    let out = shrink(&plan, &scenario, 2_000, &mut oracle);
    assert!(out.reproduced);
    let checker = buggy_run(&out.plan, &out.scenario);
    let v = checker.first_violation().expect("reproducer must fire");
    let artifact = ReproArtifact::new(v, out.scenario, out.plan.clone());
    std::fs::create_dir_all("tests/regressions").expect("create corpus dir");
    std::fs::write(
        "tests/regressions/vm_conservation_dup_placement.json",
        artifact.to_json() + "\n",
    )
    .expect("write corpus artifact");
}
