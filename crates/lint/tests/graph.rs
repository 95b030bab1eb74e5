//! Call-graph / reachability integration tests on a mini multi-file
//! workspace, including the acceptance regression: an injected wall-clock
//! read in a helper called (transitively) from `balance_round` must be
//! caught by `sim-path-purity`, with a call-path witness.

use ecolb_lint::lint_files;

fn ws(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

/// The acceptance regression from the issue: `balance_round` calls
/// `select_donor`, which calls `tiebreak`, which reads the wall clock.
/// The helpers live in *different files and crates* — only the call graph
/// can connect them.
#[test]
fn injected_wallclock_in_a_balance_round_helper_is_caught() {
    let sources = ws(&[
        (
            "crates/cluster/src/balance.rs",
            "use crate::select::select_donor;\n\
             pub fn balance_round(seed: u64, servers: &mut [Server]) {\n\
                 let donor = select_donor(servers);\n\
                 let _ = (seed, donor);\n\
             }\n",
        ),
        (
            "crates/cluster/src/select.rs",
            "use ecolb_policies::tiebreak;\n\
             pub fn select_donor(servers: &[Server]) -> usize {\n\
                 tiebreak(servers.len())\n\
             }\n",
        ),
        (
            "crates/policies/src/lib.rs",
            "pub fn tiebreak(n: usize) -> usize {\n\
                 let t = std::time::Instant::now();\n\
                 t.elapsed().subsec_nanos() as usize % n\n\
             }\n",
        ),
    ]);
    let report = lint_files(&sources);
    let purity: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "sim-path-purity" && f.path == "crates/policies/src/lib.rs")
        .collect();
    assert!(
        !purity.is_empty(),
        "injected wallclock not caught: {:?}",
        report.findings
    );
    let witness = &purity[0].witness;
    assert!(
        witness
            .first()
            .map(|w| w.contains("balance_round"))
            .unwrap_or(false),
        "witness must start at the entry point: {witness:?}"
    );
    assert!(
        witness
            .last()
            .map(|w| w.contains("tiebreak"))
            .unwrap_or(false),
        "witness must end at the violating function: {witness:?}"
    );
    assert!(
        witness.iter().any(|w| w.contains("select_donor")),
        "witness must pass through the intermediate helper: {witness:?}"
    );
}

/// The same hazard in a function *not* reachable from any entry point is
/// reported only by the token layer (here: none, since `policies` is in
/// the no-wallclock scope — so it still fires as no-wallclock, but with
/// no purity finding and no witness).
#[test]
fn unreachable_helpers_get_no_purity_finding() {
    let sources = ws(&[(
        "crates/policies/src/lib.rs",
        "pub fn debug_probe(n: usize) -> usize {\n\
             let t = std::time::Instant::now();\n\
             t.elapsed().subsec_nanos() as usize % n\n\
         }\n",
    )]);
    let report = lint_files(&sources);
    assert!(
        !report.findings.iter().any(|f| f.rule == "sim-path-purity"),
        "{:?}",
        report.findings
    );
    // The token rule still covers it.
    assert!(report.findings.iter().any(|f| f.rule == "no-wallclock"));
}

/// Code in tests, benches and bin targets never enters the graph: an
/// entry-point-named function there creates no reachability.
#[test]
fn tests_and_bins_stay_off_the_sim_path() {
    let sources = ws(&[
        (
            "crates/cluster/tests/repro.rs",
            "pub fn balance_round(seed: u64) { helper(); }\n\
             fn helper() { let t = std::time::Instant::now(); }\n",
        ),
        (
            "crates/bench/src/bin/sweep.rs",
            "pub fn balance_round(seed: u64) { helper(); }\n\
             fn helper() { let mut r = Rng::new(7); }\n",
        ),
    ]);
    let report = lint_files(&sources);
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == "sim-path-purity" || f.rule == "seed-provenance"),
        "{:?}",
        report.findings
    );
}

/// An `allow` on the base token rule keeps covering the site after the
/// purity layer takes over reporting it — and a genuinely unused allow in
/// the same workspace is flagged stale.
#[test]
fn base_rule_allows_cover_purity_and_stale_ones_are_flagged() {
    let sources = ws(&[(
        "crates/cluster/src/balance.rs",
        "pub fn balance_round(seed: u64) {\n\
             // ecolb-lint: allow(no-wallclock, \"coarse host-load probe, value unused in decisions\")\n\
             let t = Instant::now();\n\
             // ecolb-lint: allow(no-unordered-collections, \"nothing unordered here anymore\")\n\
             let n = seed;\n\
         }\n",
    )]);
    let report = lint_files(&sources);
    assert!(
        !report.findings.iter().any(|f| f.rule == "sim-path-purity"),
        "allow(no-wallclock) must cover the purity finding: {:?}",
        report.findings
    );
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "stale-suppression")
        .collect();
    assert_eq!(stale.len(), 1, "{:?}", report.findings);
    assert_eq!(stale[0].line, 4);
}

/// Chaos harness entry points reach into the faults crate through a
/// qualified cross-crate call.
#[test]
fn chaos_harness_reaches_fault_stream() {
    let sources = ws(&[
        (
            "crates/chaos/src/harness.rs",
            "pub fn run_plan(seed: u64) {\n\
                 let p = crate::gen::generate_plan(seed);\n\
             }\n",
        ),
        (
            "crates/chaos/src/gen.rs",
            "pub fn generate_plan(seed: u64) -> Plan {\n\
                 let ps = mix(seed, 3);\n\
                 let stream = ecolb_faults::plan::fault_stream(ps, CRASH, LEADER);\n\
                 Plan::from(stream)\n\
             }\n",
        ),
        (
            "crates/faults/src/plan.rs",
            "pub fn fault_stream(seed: u64, kind: FaultKind, server: ServerId) -> Rng {\n\
                 Rng::new(seed)\n\
             }\n",
        ),
    ]);
    let report = lint_files(&sources);
    // Both constructions derive from `seed` (through the `ps` local and
    // the `seed` parameter), so the clean shape stays clean; replace the
    // derivation with a literal and it must fire, with a witness.
    assert!(
        !report.findings.iter().any(|f| f.rule == "seed-provenance"),
        "{:?}",
        report.findings
    );
    let sources = ws(&[
        (
            "crates/chaos/src/harness.rs",
            "pub fn run_plan(seed: u64) {\n\
                 let p = crate::gen::generate_plan(seed);\n\
             }\n",
        ),
        (
            "crates/chaos/src/gen.rs",
            "pub fn generate_plan(seed: u64) -> Plan {\n\
                 let stream = Rng::new(123);\n\
                 Plan::from(stream)\n\
             }\n",
        ),
    ]);
    let report = lint_files(&sources);
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "seed-provenance")
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(hits[0].witness.iter().any(|w| w.contains("run_plan")));
}

/// Method calls over-approximate: a hazard behind a method named like a
/// reachable call is still found (conservative, may over-report — the
/// documented trade-off).
#[test]
fn engine_run_entry_reaches_methods_by_name() {
    let sources = ws(&[(
        "crates/simcore/src/engine.rs",
        "impl Engine {\n\
             pub fn run(&mut self) { self.step(); }\n\
             fn step(&mut self) {\n\
                 let order: HashMap<u32, u32> = HashMap::new();\n\
             }\n\
         }\n",
    )]);
    let report = lint_files(&sources);
    let purity: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "sim-path-purity")
        .collect();
    assert_eq!(purity.len(), 2, "{:?}", report.findings); // two HashMap tokens
    assert!(purity[0].witness.iter().any(|w| w.contains("Engine::run")));
}

/// A helper the sim path passes as a fn value is reached just like one
/// it calls: `.map(stats::helper)` and `.map(|x| stats::helper(x))` both
/// put the `HashMap` in `helper` on the sim path.
#[test]
fn fn_values_are_call_edges() {
    for call in [
        "loads.iter().map(stats::helper)",
        "loads.iter().map(|x| stats::helper(x))",
    ] {
        let balance = format!(
            "pub fn balance_round(seed: u64, loads: &[f64]) -> usize {{\n\
                 {call}.count() + seed as usize\n\
             }}\n"
        );
        let sources = ws(&[
            ("crates/cluster/src/balance.rs", balance.as_str()),
            (
                "crates/metrics/src/stats.rs",
                "pub fn helper(x: &f64) -> usize {\n\
                     let seen: HashMap<u64, f64> = HashMap::new();\n\
                     seen.len() + *x as usize\n\
                 }\n",
            ),
        ]);
        let report = lint_files(&sources);
        let purity: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "sim-path-purity" && f.path == "crates/metrics/src/stats.rs")
            .collect();
        assert!(!purity.is_empty(), "{call}: {:?}", report.findings);
        assert!(
            purity[0].witness[0].contains("balance_round"),
            "{:?}",
            purity[0]
        );
    }
}

/// What keeps a library `pub fn` reached: a doc test and another file's
/// unit tests do; its own file's unit tests and a `pub use` re-export do
/// not.
#[test]
fn unreached_pub_fn_roots() {
    let sources = ws(&[
        (
            "crates/metrics/src/stats.rs",
            "pub use crate::other::reexported;\n\
             /// ```\n\
             /// ecolb_metrics::stats::documented();\n\
             /// ```\n\
             pub fn documented() {}\n\
             pub fn tested_elsewhere() {}\n\
             pub fn tested_here() {}\n\
             #[cfg(test)]\n\
             mod tests { #[test] fn t() { super::tested_here(); } }\n",
        ),
        (
            "crates/metrics/src/other.rs",
            "pub fn reexported() {}\n\
             #[cfg(test)]\n\
             mod tests { #[test] fn t() { crate::stats::tested_elsewhere(); } }\n",
        ),
    ]);
    let report = lint_files(&sources);
    let unreached: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "unreached-pub-fn")
        .map(|f| f.message.split_whitespace().nth(2).unwrap_or(""))
        .collect();
    assert_eq!(
        unreached,
        ["reexported", "tested_here"],
        "{:?}",
        report.findings
    );
}

/// `benchmark/src` is read only as roots: its mentions keep library
/// surface alive, and no rule reports on the benchmark file itself.
#[test]
fn benchmark_sources_are_roots_only() {
    let sources = ws(&[
        (
            "crates/metrics/src/stats.rs",
            "pub fn helper() -> u64 { 1 }\npub fn unused() -> u64 { 2 }\n",
        ),
        (
            "benchmark/src/layers.rs",
            "use std::collections::HashMap;\n\
             pub fn probe() -> u64 {\n\
                 let t = std::time::Instant::now();\n\
                 let m: HashMap<u64, u64> = HashMap::new();\n\
                 m.get(&1).copied().unwrap() + stats::helper() + t.elapsed().as_secs()\n\
             }\n",
        ),
    ]);
    let report = lint_files(&sources);
    let found: Vec<(&str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str()))
        .collect();
    assert_eq!(found, [("unreached-pub-fn", "crates/metrics/src/stats.rs")]);
    assert!(report.findings[0].message.contains("unused"));
    assert!(report.panic_counts.is_empty(), "{:?}", report.panic_counts);
}

/// Names of the `unreached-pub-fn` findings in `report`, sorted.
fn unreached_names(report: &ecolb_lint::WorkspaceReport) -> Vec<&str> {
    let mut names: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "unreached-pub-fn")
        .map(|f| f.message.split_whitespace().nth(2).unwrap_or(""))
        .collect();
    names.sort_unstable();
    names
}

/// A turbofish keeps its qualifier: `Vec::<u32>::new()` resolves against
/// `Vec` and `u32`, so it keeps no unrelated `new` alive, while
/// `Box::<Foo>::default()` still reaches `Foo::default`.
#[test]
fn turbofish_paths_keep_their_qualifier() {
    let sources = ws(&[
        (
            "crates/metrics/src/stats.rs",
            "pub struct Foo;\n\
             impl Foo {\n\
                 pub fn new() -> Foo { Foo }\n\
                 pub fn default() -> Foo { Foo }\n\
             }\n",
        ),
        (
            "tests/root.rs",
            "#[test]\n\
             fn t() {\n\
                 let v = Vec::<u32>::new();\n\
                 let b = Box::<Foo>::default();\n\
             }\n",
        ),
    ]);
    let report = lint_files(&sources);
    assert_eq!(
        unreached_names(&report),
        ["Foo::new"],
        "{:?}",
        report.findings
    );
}

/// `Self::helper()` inside `impl A` reaches `A::helper` and no other
/// `helper`, for `unreached-pub-fn` and for the sim-path walk alike.
#[test]
fn self_paths_resolve_to_the_enclosing_impl() {
    let sources = ws(&[
        (
            "crates/metrics/src/stats.rs",
            "pub struct A;\npub struct B;\n\
             impl A {\n\
                 pub fn go(&self) -> u64 { Self::helper() }\n\
                 pub fn helper() -> u64 { 1 }\n\
             }\n\
             impl B {\n\
                 pub fn helper() -> u64 { 2 }\n\
             }\n",
        ),
        ("tests/root.rs", "#[test]\nfn t() { A.go(); }\n"),
    ]);
    let report = lint_files(&sources);
    assert_eq!(
        unreached_names(&report),
        ["B::helper"],
        "{:?}",
        report.findings
    );

    let sources = ws(&[(
        "crates/simcore/src/engine.rs",
        "impl Engine {\n\
             pub fn run(&mut self) -> u64 { Self::tick() }\n\
             fn tick() -> u64 { let t = std::time::Instant::now(); 1 }\n\
         }\n\
         impl Other {\n\
             fn tick() -> u64 { let t = std::time::Instant::now(); 2 }\n\
         }\n",
    )]);
    let report = lint_files(&sources);
    let purity: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.rule == "sim-path-purity")
        .map(|f| f.line)
        .collect();
    assert_eq!(purity, [3], "{:?}", report.findings);
}

/// Only calls and fn values are references: a parameter, a local and a
/// field named `cost` keep `Ledger::cost` alive no more than an unrelated
/// name would, while a free fn passed bare as `.map(helper)` or
/// `f(x, helper)` is reached.
#[test]
fn locals_params_and_fields_are_not_references() {
    let sources = ws(&[
        (
            "crates/metrics/src/stats.rs",
            "pub struct Ledger { pub cost: f64 }\n\
             impl Ledger {\n\
                 pub fn cost(&self) -> f64 { self.cost }\n\
             }\n\
             pub fn mapped(x: &f64) -> f64 { *x }\n\
             pub fn passed(x: f64) -> f64 { x }\n\
             pub fn apply(x: f64, f: fn(f64) -> f64) -> f64 { f(x) }\n",
        ),
        (
            "tests/root.rs",
            "#[test]\n\
             fn t(cost: f64) {\n\
                 let l = Ledger { cost };\n\
                 let cost = l.cost + cost;\n\
                 let v: Vec<f64> = [cost].iter().map(mapped).collect();\n\
                 apply(cost, passed);\n\
             }\n",
        ),
    ]);
    let report = lint_files(&sources);
    assert_eq!(
        unreached_names(&report),
        ["Ledger::cost"],
        "{:?}",
        report.findings
    );
}

/// A free fn the sim path passes bare as a value is on the sim path: a
/// wall-clock read inside it is a `sim-path-purity` finding whose witness
/// starts at the entry point.
#[test]
fn bare_fn_values_are_sim_path_edges() {
    for call in ["loads.iter().map(helper).sum()", "fold(loads, helper)"] {
        let balance = format!(
            "pub fn balance_round(seed: u64, loads: &[f64]) -> f64 {{\n\
                 {call} + seed as f64\n\
             }}\n"
        );
        let sources = ws(&[
            ("crates/cluster/src/balance.rs", balance.as_str()),
            (
                "crates/metrics/src/stats.rs",
                "pub fn helper(x: &f64) -> f64 {\n\
                     let t = std::time::Instant::now();\n\
                     *x + t.elapsed().as_secs_f64()\n\
                 }\n\
                 pub fn fold(xs: &[f64], f: fn(&f64) -> f64) -> f64 { xs.iter().map(f).sum() }\n",
            ),
        ]);
        let report = lint_files(&sources);
        let purity: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "sim-path-purity" && f.path == "crates/metrics/src/stats.rs")
            .collect();
        assert!(!purity.is_empty(), "{call}: {:?}", report.findings);
        assert!(
            purity[0].witness[0].contains("balance_round"),
            "{:?}",
            purity[0]
        );
    }
}
