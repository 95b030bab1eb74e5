//! Validates the checker → shrinker → artifact pipeline against a
//! *deliberately seeded* SLA-class misaccounting bug.
//!
//! The bug lives only in this test, in a hand-rolled per-interval QoS
//! reporter feeding state digests to the [`InvariantChecker`] through
//! the public tracer seam. The reporter keeps a cumulative saturation
//! (SLA violation) ledger; whenever the fault plan schedules a server
//! crash it "re-buckets" the crashed server's past gold-class
//! saturations by *subtracting* them from the cumulative count — but
//! cumulative counters never fall, so from the second digest on the
//! checker's `sla_accounting` invariant fires. The shipped simulation
//! has no such path; the fixture proves that
//!
//! 1. the checker catches class misaccounting and names
//!    `sla_accounting`, and
//! 2. the shrinker reduces a noisy violating mixed-spot plan to a
//!    ≤ 3-server reproducer whose stochastic families are all zeroed.
//!
//! The ignored `bless_sla_regression_corpus` test regenerates the
//! committed corpus artifact from this same pipeline:
//!
//! ```text
//! cargo test -p ecolb-chaos --test sla_misaccounting_shrink -- --ignored
//! ```

use ecolb_chaos::{
    generate_plan, run_plan, shrink, ChaosScenario, FleetKind, InvariantChecker, ReproArtifact,
};
use ecolb_faults::plan::{FaultEventKind, FaultPlan};
use ecolb_metrics::json::ToJson;
use ecolb_trace::{StateDigest, Tracer};

const SEED: u64 = 20140109;

/// The noisy starting point: the Koomey-mixed spot fleet at high
/// intensity, so plans mix sampled crash bursts with scheduled spot
/// reclaims and every stochastic family enabled.
fn scenario() -> ChaosScenario {
    ChaosScenario::new(24, 8, 0.9).with_fleet(FleetKind::MixedSpot)
}

/// The buggy per-interval QoS reporter. It feeds otherwise-consistent
/// digests (census, VM ledger, per-class energy meters) to the checker;
/// the one rotten part is the saturation ledger, which loses 4 counts
/// the interval after a crash is scheduled anywhere in the plan.
fn buggy_reporter(plan: &FaultPlan, scenario: &ChaosScenario) -> InvariantChecker {
    let n = scenario.n_servers as u32;
    let mut checker = InvariantChecker::new(n).keep_running();
    let crash_scheduled = plan
        .events
        .iter()
        .any(|e| matches!(e.kind, FaultEventKind::ServerCrash { .. }));
    let tau = scenario.realloc_interval().ticks();
    let hosted = scenario.n_servers as u64 * 4;
    for interval in 0..scenario.intervals {
        let k = (interval + 1) as f64;
        // The honest ledger: three saturation events per interval.
        let honest = 3 * (interval + 1);
        // THE BUG: a scheduled crash makes the reporter re-bucket the
        // victim's past gold-class saturations out of the cumulative
        // count. Cumulative counters never fall.
        let saturation = if crash_scheduled && interval >= 1 {
            honest - 4
        } else {
            honest
        };
        checker.digest(
            tau.saturating_mul(interval + 1),
            &StateDigest {
                interval,
                hosted,
                created: hosted,
                awake: n,
                energy_j: 900.0 * k,
                energy_volume_j: 500.0 * k,
                energy_midrange_j: 300.0 * k,
                energy_highend_j: 100.0 * k,
                saturation,
                ..StateDigest::default()
            },
        );
    }
    checker
}

fn violates(plan: &FaultPlan, scenario: &ChaosScenario) -> bool {
    !buggy_reporter(plan, scenario).ok()
}

#[test]
fn checker_catches_the_seeded_sla_misaccounting() {
    let scenario = scenario();
    let plan = generate_plan(SEED, 0, &scenario);
    assert!(
        plan.events
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::ServerCrash { .. })),
        "the mixed-spot fleet always schedules reclaims"
    );
    let checker = buggy_reporter(&plan, &scenario);
    let v = checker.first_violation().expect("checker must fire");
    assert_eq!(v.invariant, "sla_accounting");
    assert!(
        v.detail.contains("saturation count fell"),
        "detail: {}",
        v.detail
    );
}

#[test]
fn shrinker_reduces_the_misaccounting_to_a_tiny_reproducer() {
    let scenario = scenario();
    let plan = generate_plan(SEED, 0, &scenario);
    assert!(plan.events.len() > 1, "want a noisy input: {plan:?}");

    let mut oracle = violates;
    let out = shrink(&plan, &scenario, 2_000, &mut oracle);
    assert!(out.reproduced);

    // Acceptance bar: a ≤ 3-server reproducer. The pipeline actually
    // reaches the 2-server minimum with a single surviving crash event
    // and every stochastic family zeroed; the horizon stops at two
    // intervals because the monotonicity bug needs two digests to show.
    assert!(
        out.scenario.n_servers <= 3,
        "reproducer still needs {} servers",
        out.scenario.n_servers
    );
    assert_eq!(out.plan.events.len(), 1);
    assert!(matches!(
        out.plan.events[0].kind,
        FaultEventKind::ServerCrash { .. }
    ));
    assert_eq!(out.plan.message_loss_prob, 0.0);
    assert_eq!(out.plan.message_delay_prob, 0.0);
    assert_eq!(out.plan.wake_failure_prob, 0.0);
    assert_eq!(out.scenario.intervals, 2);
    assert_eq!(
        out.scenario.fleet,
        FleetKind::MixedSpot,
        "shrinking preserves the fleet axis"
    );

    // The minimal pair still reproduces under the buggy reporter…
    let v = buggy_reporter(&out.plan, &out.scenario)
        .first_violation()
        .cloned()
        .expect("reproducer must fire");
    assert_eq!(v.invariant, "sla_accounting");
    // …the artifact round-trips with its fleet…
    let artifact = ReproArtifact::new(&v, out.scenario, out.plan.clone());
    let parsed = ReproArtifact::parse(&artifact.to_json()).expect("round trip");
    assert_eq!(parsed, artifact);
    // …and the *real* simulation replays the pair clean, which is what
    // lets the artifact live in the regression corpus.
    let real = run_plan(&out.scenario, &out.plan);
    assert!(real.ok(), "real replay violated: {:?}", real.violations);
}

/// Regenerates the committed corpus artifact from an actual
/// checker+shrinker run. Ignored by default: the artifact is committed,
/// and `corpus.rs` replays it on every `cargo test`.
#[test]
#[ignore = "corpus bless helper: rewrites tests/regressions/sla_class_misaccounting.json"]
fn bless_sla_regression_corpus() {
    let scenario = scenario();
    let plan = generate_plan(SEED, 0, &scenario);
    let mut oracle = violates;
    let out = shrink(&plan, &scenario, 2_000, &mut oracle);
    assert!(out.reproduced);
    let checker = buggy_reporter(&out.plan, &out.scenario);
    let v = checker.first_violation().expect("reproducer must fire");
    let artifact = ReproArtifact::new(v, out.scenario, out.plan.clone());
    std::fs::create_dir_all("tests/regressions").expect("create corpus dir");
    std::fs::write(
        "tests/regressions/sla_class_misaccounting.json",
        artifact.to_json() + "\n",
    )
    .expect("write corpus artifact");
}
