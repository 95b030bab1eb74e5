//! Workspace-level run and machine-readable report.
//!
//! The full pipeline runs in two layers over one in-memory pass:
//!
//! 1. **Token layer** (per file): lex, run the positional rules, collect
//!    panic sites.
//! 2. **Graph layer** (cross-file): parse items, build the call graph,
//!    compute reachability from the sim entry points, run
//!    `sim-path-purity` / `seed-provenance` / `silent-result-drop`, and
//!    walk from the roots for `unreached-pub-fn`.
//!
//! Where the purity rule re-derives a token finding (same file, line and
//! column, same hazard class), the *purity* finding wins — it carries the
//! call-path witness — and the token duplicate is dropped. An
//! `allow(<base-rule>, …)` directive still covers the purity finding for
//! that site, so existing suppressions keep working. Both layers feed one
//! suppression-usage ledger, from which stale directives are derived.

use crate::budget::{ratchet, Budget, RatchetVerdict};
use crate::engine::{apply_suppressions, check_file, police_directives, stale_findings};
use crate::graph::Workspace;
use crate::lexer::Suppression;
use crate::reach::{graph_findings, purity_sites};
use crate::rules::{check_tokens, panic_sites, FileContext, Finding};
use crate::walk::workspace_sources;
use ecolb_metrics::json::{ObjectWriter, ToJson};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// Aggregated outcome of linting the whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All findings, sorted by (path, line, col, rule). Non-empty findings
    /// mean the lint fails.
    pub findings: Vec<Finding>,
    /// Library-code panic sites per crate (after suppressions).
    pub panic_counts: BTreeMap<String, usize>,
    /// Advisory messages (e.g. "budget can be lowered") that do not fail
    /// the run.
    pub notes: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every suppression directive in the workspace, for `--list-allows`.
    pub allows: Vec<AllowRecord>,
}

/// One allow directive in the workspace inventory.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line of the directive.
    pub line: u32,
    /// Rule being suppressed.
    pub rule: String,
    /// The written reason (empty when missing — which is itself a finding).
    pub reason: String,
}

impl WorkspaceReport {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl ToJson for Finding {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("rule", &self.rule)
            .field("path", &self.path)
            .field("line", &self.line)
            .field("col", &self.col)
            .field("message", &self.message)
            .field("witness", &self.witness)
            .finish();
    }
}

impl ToJson for AllowRecord {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("path", &self.path)
            .field("line", &self.line)
            .field("rule", &self.rule)
            .field("reason", &self.reason)
            .finish();
    }
}

impl ToJson for WorkspaceReport {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("tool", &"ecolb-lint")
            .field("clean", &self.is_clean())
            .field("files_scanned", &self.files_scanned)
            .field("findings", &self.findings)
            .field_with("panic_counts", |o| {
                let counts: BTreeMap<String, usize> = self
                    .panic_counts
                    .iter()
                    .map(|(k, &v)| (k.clone(), v))
                    .collect();
                counts.write_json(o);
            })
            .field("allows", &self.allows)
            .field("notes", &self.notes)
            .finish();
    }
}

/// Lints one file's source text under its derived [`FileContext`] —
/// token rules only; used by the fixture self-tests. Graph rules need
/// [`lint_files`].
pub fn lint_source(path: &str, src: &str) -> (Vec<Finding>, Vec<Finding>) {
    let ctx = FileContext::from_path(path);
    let report = check_file(&ctx, src);
    (report.findings, report.panic_sites)
}

/// Runs the full two-layer pipeline over in-memory `(path, source)` pairs.
///
/// This is the real analysis — [`run_workspace`] is a thin I/O wrapper
/// around it, and the graph-rule fixtures and mini-workspace tests call it
/// directly.
pub fn lint_files(sources: &[(String, String)]) -> WorkspaceReport {
    let ws = Workspace::from_sources(sources);
    let mut report = WorkspaceReport {
        files_scanned: ws.files.len(),
        ..WorkspaceReport::default()
    };

    // Graph layer first: its findings participate in each file's
    // suppression ledger, and its purity sites shadow token duplicates.
    let graph = graph_findings(&ws);
    let purity = purity_sites(&graph);
    let mut graph_by_file: BTreeMap<&str, Vec<&crate::reach::GraphFinding>> = BTreeMap::new();
    for g in &graph {
        graph_by_file
            .entry(g.finding.path.as_str())
            .or_default()
            .push(g);
    }

    for file in ws.files.iter().filter(|f| !f.ctx.roots_only) {
        let ctx = &file.ctx;
        let sups: &[Suppression] = &file.lex.suppressions;
        report.findings.extend(police_directives(ctx, sups));
        for s in sups {
            report.allows.push(AllowRecord {
                path: ctx.path.clone(),
                line: s.line,
                rule: s.rule.clone(),
                reason: s.reason.clone().unwrap_or_default(),
            });
        }
        let mut used = vec![false; sups.len()];

        // Token findings, minus the sites the purity layer re-reports
        // with a witness.
        let token: Vec<Finding> = check_tokens(ctx, &file.lex.tokens)
            .into_iter()
            .filter(|f| {
                purity
                    .get(&(f.path.clone(), f.line, f.col))
                    .map(|&base| base != f.rule)
                    .unwrap_or(true)
            })
            .collect();
        report
            .findings
            .extend(apply_suppressions(sups, token, &mut used, |_| None));

        // This file's graph findings; an allow for the shadowed base rule
        // also covers them.
        let file_graph: Vec<&crate::reach::GraphFinding> =
            graph_by_file.remove(ctx.path.as_str()).unwrap_or_default();
        let bases: BTreeMap<(u32, u32, &str), &'static str> = file_graph
            .iter()
            .filter_map(|g| {
                g.base
                    .map(|b| ((g.finding.line, g.finding.col, g.finding.rule), b))
            })
            .collect();
        let graph_kept = apply_suppressions(
            sups,
            file_graph.iter().map(|g| g.finding.clone()).collect(),
            &mut used,
            |f| bases.get(&(f.line, f.col, f.rule)).copied(),
        );
        report.findings.extend(graph_kept);

        let sites = apply_suppressions(sups, panic_sites(ctx, &file.lex.tokens), &mut used, |_| {
            None
        });
        if !sites.is_empty() {
            *report.panic_counts.entry(ctx.krate.clone()).or_insert(0) += sites.len();
        }

        report.findings.extend(stale_findings(ctx, sups, &used));
    }

    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    report
        .allows
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    report
}

/// Walks the workspace at `root`, lints every source file, and applies the
/// panic-budget ratchet.
pub fn run_workspace(root: &Path, budget: &Budget) -> io::Result<WorkspaceReport> {
    let files = workspace_sources(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        sources.push((rel.clone(), fs::read_to_string(root.join(rel))?));
    }
    let mut report = lint_files(&sources);

    let mut lowered: Budget = budget.clone();
    let mut any_lowered = false;
    for (krate, verdict) in ratchet(&report.panic_counts, budget) {
        match verdict {
            RatchetVerdict::AtBudget => {}
            RatchetVerdict::BelowBudget { count, budget } => {
                report.notes.push(format!(
                    "crate `{krate}`: {count} panic sites, budget {budget} — lower the budget in \
                     lint/panic_budget.toml to lock in the improvement"
                ));
                lowered.insert(krate.clone(), count);
                any_lowered = true;
            }
            RatchetVerdict::OverBudget { count, budget } => report.findings.push(Finding {
                rule: "panic-budget",
                path: "lint/panic_budget.toml".to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "crate `{krate}`: {count} library-code panic sites exceed the budget of \
                     {budget}; convert to Result or justify with an allow(panic-budget) directive"
                ),
                witness: Vec::new(),
            }),
            RatchetVerdict::Unbudgeted { count } => report.findings.push(Finding {
                rule: "panic-budget",
                path: "lint/panic_budget.toml".to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "crate `{krate}` ({count} panic sites) has no entry in lint/panic_budget.toml"
                ),
                witness: Vec::new(),
            }),
        }
    }
    if any_lowered {
        report.notes.push(format!(
            "lowered lint/panic_budget.toml stanza (paste verbatim):\n{}",
            budget_stanza(&lowered)
        ));
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(report)
}

/// Renders a budget map back into the `lint/panic_budget.toml` format, one
/// `crate = count` line per crate in sorted order.
pub fn budget_stanza(budget: &Budget) -> String {
    let mut out = String::new();
    for (krate, count) in budget {
        out.push_str(&format!("{krate} = {count}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An integration-test file whose body is `calls`: the root that
    /// keeps a mini workspace's `pub fn`s reached.
    fn root(calls: &str) -> (String, String) {
        (
            "tests/root.rs".to_string(),
            format!("#[test]\nfn root() {{ {calls} }}\n"),
        )
    }

    #[test]
    fn report_serializes_to_json() {
        let mut r = WorkspaceReport {
            files_scanned: 2,
            ..WorkspaceReport::default()
        };
        r.findings.push(Finding {
            rule: "no-wallclock",
            path: "crates/x/src/a.rs".into(),
            line: 3,
            col: 7,
            message: "bad".into(),
            witness: Vec::new(),
        });
        r.panic_counts.insert("cluster".into(), 7);
        let json = r.to_json();
        assert!(json.contains(r#""tool":"ecolb-lint""#));
        assert!(json.contains(r#""clean":false"#));
        assert!(json.contains(r#""rule":"no-wallclock""#));
        assert!(json.contains(r#""panic_counts":{"cluster":7}"#));
    }

    #[test]
    fn witness_is_serialized() {
        let f = Finding {
            rule: "sim-path-purity",
            path: "crates/cluster/src/balance.rs".into(),
            line: 9,
            col: 5,
            message: "m".into(),
            witness: vec!["a (x.rs:1)".into(), "b (y.rs:2)".into()],
        };
        let json = f.to_json();
        assert!(
            json.contains(r#""witness":["a (x.rs:1)","b (y.rs:2)"]"#),
            "{json}"
        );
    }

    #[test]
    fn budget_stanza_round_trips() {
        let mut b = Budget::new();
        b.insert("cluster".into(), 0);
        b.insert("simcore".into(), 2);
        let s = budget_stanza(&b);
        assert_eq!(s, "cluster = 0\nsimcore = 2\n");
        assert_eq!(crate::budget::parse_budget(&s).expect("parses"), b);
    }

    #[test]
    fn purity_shadows_the_token_finding_at_the_same_site() {
        let sources = vec![(
            "crates/cluster/src/balance.rs".to_string(),
            "pub fn balance_round(seed: u64) { let t = Instant::now(); }".to_string(),
        )];
        let r = lint_files(&sources);
        let purity: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == "sim-path-purity")
            .collect();
        assert_eq!(purity.len(), 1, "{:?}", r.findings);
        assert!(!purity[0].witness.is_empty());
        // The token-layer duplicate at the same site is gone; `Instant`
        // also appears nowhere else, so purity is the only wallclock
        // report.
        assert!(
            !r.findings.iter().any(|f| f.rule == "no-wallclock"
                && f.line == purity[0].line
                && f.col == purity[0].col),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn base_rule_allow_covers_the_purity_finding() {
        let sources = vec![
            (
                "crates/cluster/src/balance.rs".to_string(),
                "pub fn balance_round(seed: u64) {\n\
                     let t = Instant::now(); // ecolb-lint: allow(no-wallclock, \"test dummy\")\n\
                 }"
                .to_string(),
            ),
            root("balance_round(7);"),
        ];
        let r = lint_files(&sources);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn stale_allow_is_reported_by_the_full_pipeline() {
        let sources = vec![
            (
                "crates/cluster/src/balance.rs".to_string(),
                "// ecolb-lint: allow(no-wallclock, \"nothing here anymore\")\npub fn f() {}\n"
                    .to_string(),
            ),
            root("f();"),
        ];
        let r = lint_files(&sources);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "stale-suppression");
    }

    #[test]
    fn allow_inventory_is_collected() {
        let sources = vec![(
            "crates/cluster/src/balance.rs".to_string(),
            "pub fn balance_round(seed: u64) {\n\
                 let t = Instant::now(); // ecolb-lint: allow(no-wallclock, \"dummy\")\n\
             }"
            .to_string(),
        )];
        let r = lint_files(&sources);
        assert_eq!(r.allows.len(), 1);
        assert_eq!(r.allows[0].rule, "no-wallclock");
        assert_eq!(r.allows[0].reason, "dummy");
        assert_eq!(r.allows[0].line, 2);
    }
}
