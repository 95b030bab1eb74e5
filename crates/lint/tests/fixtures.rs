//! Self-test: every rule must fire on its bad fixture and stay silent on
//! its good fixture. The fixtures live under `crates/lint/fixtures/` and
//! are excluded from the workspace walk — they are fed to the engine
//! directly here, under a synthetic path inside the rule's scope.

use ecolb_lint::{lint_files, lint_source};

/// (rule, synthetic path placing the fixture in the rule's scope, bad, good)
const CASES: &[(&str, &str, &str, &str)] = &[
    (
        "no-wallclock",
        "crates/simcore/src/fixture.rs",
        include_str!("../fixtures/no-wallclock/bad.rs"),
        include_str!("../fixtures/no-wallclock/good.rs"),
    ),
    (
        "no-unordered-collections",
        "crates/cluster/src/fixture.rs",
        include_str!("../fixtures/no-unordered-collections/bad.rs"),
        include_str!("../fixtures/no-unordered-collections/good.rs"),
    ),
    (
        "no-ambient-rng",
        "crates/policies/src/fixture.rs",
        include_str!("../fixtures/no-ambient-rng/bad.rs"),
        include_str!("../fixtures/no-ambient-rng/good.rs"),
    ),
    (
        "no-env-reads",
        "crates/workload/src/fixture.rs",
        include_str!("../fixtures/no-env-reads/bad.rs"),
        include_str!("../fixtures/no-env-reads/good.rs"),
    ),
    (
        "float-truncating-cast",
        "crates/metrics/src/fixture.rs",
        include_str!("../fixtures/float-truncating-cast/bad.rs"),
        include_str!("../fixtures/float-truncating-cast/good.rs"),
    ),
    (
        "float-reduction-order",
        "crates/cluster/src/fixture.rs",
        include_str!("../fixtures/float-reduction-order/bad.rs"),
        include_str!("../fixtures/float-reduction-order/good.rs"),
    ),
];

/// Graph-layer rules need the full workspace pipeline (`lint_files`), not
/// the token-only `lint_source` — the fixture is a one-file workspace
/// plus [`ROOT`].
const GRAPH_CASES: &[(&str, &str, &str, &str)] = &[
    (
        "seed-provenance",
        "crates/cluster/src/fixture.rs",
        include_str!("../fixtures/seed-provenance/bad.rs"),
        include_str!("../fixtures/seed-provenance/good.rs"),
    ),
    (
        "silent-result-drop",
        "crates/cluster/src/fixture.rs",
        include_str!("../fixtures/silent-result-drop/bad.rs"),
        include_str!("../fixtures/silent-result-drop/good.rs"),
    ),
    (
        "unreached-pub-fn",
        "crates/metrics/src/fixture.rs",
        include_str!("../fixtures/unreached-pub-fn/bad.rs"),
        include_str!("../fixtures/unreached-pub-fn/good.rs"),
    ),
];

/// The integration test that calls every graph fixture's entry points.
const ROOT: &str = include_str!("../fixtures/root.rs");

/// A graph fixture as a workspace: the fixture file plus [`ROOT`].
fn workspace(path: &str, src: &str) -> Vec<(String, String)> {
    vec![
        (path.to_string(), src.to_string()),
        ("tests/fixture_root.rs".to_string(), ROOT.to_string()),
    ]
}

#[test]
fn every_rule_fires_on_bad_and_passes_good() {
    for (rule, path, bad, good) in CASES {
        let (bad_findings, _) = lint_source(path, bad);
        assert!(
            bad_findings.iter().any(|f| f.rule == *rule),
            "rule {rule} did not fire on its bad fixture; findings: {bad_findings:?}"
        );
        let (good_findings, _) = lint_source(path, good);
        let leaked: Vec<_> = good_findings.iter().filter(|f| f.rule == *rule).collect();
        assert!(
            leaked.is_empty(),
            "rule {rule} fired on its good fixture: {leaked:?}"
        );
    }
}

#[test]
fn good_fixtures_are_clean_under_all_rules() {
    for (rule, path, _, good) in CASES {
        let (findings, _) = lint_source(path, good);
        assert!(
            findings.is_empty(),
            "good fixture of {rule} has findings under other rules: {findings:?}"
        );
    }
}

#[test]
fn every_graph_rule_fires_on_bad_and_passes_good() {
    for (rule, path, bad, good) in GRAPH_CASES {
        let report = lint_files(&workspace(path, bad));
        let hits: Vec<_> = report.findings.iter().filter(|f| f.rule == *rule).collect();
        assert!(
            !hits.is_empty(),
            "rule {rule} did not fire on its bad fixture; findings: {:?}",
            report.findings
        );
        let report = lint_files(&workspace(path, good));
        let leaked: Vec<_> = report.findings.iter().filter(|f| f.rule == *rule).collect();
        assert!(
            leaked.is_empty(),
            "rule {rule} fired on its good fixture: {leaked:?}"
        );
    }
}

#[test]
fn graph_good_fixtures_are_clean_under_the_full_pipeline() {
    for (rule, path, _, good) in GRAPH_CASES {
        let report = lint_files(&workspace(path, good));
        assert!(
            report.findings.is_empty(),
            "good fixture of {rule} has findings under other rules: {:?}",
            report.findings
        );
    }
}

#[test]
fn seed_provenance_findings_carry_witnesses() {
    let (_, path, bad, _) = GRAPH_CASES[0];
    let report = lint_files(&workspace(path, bad));
    for f in report
        .findings
        .iter()
        .filter(|f| f.rule == "seed-provenance")
    {
        assert!(
            !f.witness.is_empty(),
            "seed-provenance finding without a call-path witness: {f:?}"
        );
        assert!(
            f.witness[0].contains("balance_round"),
            "witness should start at the entry point: {:?}",
            f.witness
        );
    }
}

#[test]
fn unreached_pub_fn_names_exactly_the_unreached_surface() {
    let (_, path, bad, _) = GRAPH_CASES[2];
    let report = lint_files(&workspace(path, bad));
    let mut hits: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "unreached-pub-fn")
        .map(|f| f.message.split_whitespace().nth(2).unwrap_or(""))
        .collect();
    hits.sort_unstable();
    assert_eq!(
        hits,
        [
            "Report::mean_wake_latency_s",
            "Report::wakes",
            "Summary::new",
            "Summary::scaled",
            "legacy_csv"
        ]
    );
}

#[test]
fn panic_budget_counts_bad_sites_and_ignores_good() {
    let path = "crates/cluster/src/fixture.rs";
    let (_, bad_sites) = lint_source(path, include_str!("../fixtures/panic-budget/bad.rs"));
    assert_eq!(
        bad_sites.len(),
        3,
        "two unwraps and one panic! expected: {bad_sites:?}"
    );
    let (_, good_sites) = lint_source(path, include_str!("../fixtures/panic-budget/good.rs"));
    assert!(
        good_sites.is_empty(),
        "good fixture has library panic sites: {good_sites:?}"
    );
}

#[test]
fn bad_fixture_locations_are_plausible() {
    let (findings, _) = lint_source(
        "crates/simcore/src/fixture.rs",
        include_str!("../fixtures/no-wallclock/bad.rs"),
    );
    for f in &findings {
        assert!(f.line > 1, "finding should not point at the comment header");
        assert!(f.col >= 1);
    }
}
