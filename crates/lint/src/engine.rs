//! Per-file analysis driver: lex, run rules, honour suppressions.
//!
//! The engine is split into composable pieces — directive policing,
//! suppression application with usage accounting, stale detection — so the
//! workspace pipeline in [`crate::report`] can thread *graph-layer*
//! findings (which exist only across files) through the same suppression
//! machinery before deciding which directives are stale.

use crate::lexer::{lex, Suppression};
use crate::rules::{check_tokens, panic_sites, FileContext, Finding, ALL_RULES};

/// The outcome of analysing one source file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Rule violations (after suppression filtering), including findings
    /// about malformed or stale suppression directives themselves.
    pub findings: Vec<Finding>,
    /// Library-code panic sites (after suppression filtering); aggregated
    /// into the per-crate ratchet by the caller.
    pub panic_sites: Vec<Finding>,
}

/// True when `s` suppresses rule `rule` at line `line`.
///
/// A directive covers its own line (trailing comment) and the next line
/// (directive on the line above the flagged code).
pub fn covers(s: &Suppression, rule: &str, line: u32) -> bool {
    s.rule == rule && (line == s.line || line == s.line + 1)
}

/// Polices the directives themselves: a suppression without a reason, or
/// for a rule that does not exist, is a `suppression` finding — and is
/// not suppressible.
pub fn police_directives(ctx: &FileContext, suppressions: &[Suppression]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for s in suppressions {
        if !ALL_RULES.contains(&s.rule.as_str()) {
            findings.push(Finding {
                rule: "suppression",
                path: ctx.path.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "allow directive names unknown rule `{}` (known: {})",
                    s.rule,
                    ALL_RULES.join(", ")
                ),
                witness: Vec::new(),
            });
        } else if s.reason.is_none() {
            findings.push(Finding {
                rule: "suppression",
                path: ctx.path.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "allow({}) without a reason; write `// ecolb-lint: allow({}, \"why\")`",
                    s.rule, s.rule
                ),
                witness: Vec::new(),
            });
        }
    }
    findings
}

/// Filters `findings` through the reasoned suppressions, marking which
/// directives earned their keep in `used` (parallel to `suppressions`).
///
/// `base_of` maps a finding to the token-layer rule it shadows, if any —
/// a graph finding like `sim-path-purity` over a wall-clock read is
/// suppressible under either name, so one `allow(no-wallclock, …)` keeps
/// working when the purity layer takes over reporting the site.
pub fn apply_suppressions<F>(
    suppressions: &[Suppression],
    findings: Vec<Finding>,
    used: &mut [bool],
    base_of: F,
) -> Vec<Finding>
where
    F: Fn(&Finding) -> Option<&'static str>,
{
    findings
        .into_iter()
        .filter(|f| {
            let mut hit = false;
            for (i, s) in suppressions.iter().enumerate() {
                if s.reason.is_none() {
                    continue;
                }
                let matches = covers(s, f.rule, f.line)
                    || base_of(f).map(|b| covers(s, b, f.line)).unwrap_or(false);
                if matches {
                    used[i] = true;
                    hit = true;
                }
            }
            !hit
        })
        .collect()
}

/// **stale-suppression** — a well-formed, reasoned directive that
/// suppressed nothing. Code moves; an allow that outlives its violation
/// is a hole in the fence, so it becomes an error (non-suppressible, like
/// the other directive-policing findings). Malformed directives are
/// excluded — they are already reported by [`police_directives`].
pub fn stale_findings(
    ctx: &FileContext,
    suppressions: &[Suppression],
    used: &[bool],
) -> Vec<Finding> {
    suppressions
        .iter()
        .zip(used)
        .filter(|(s, &u)| !u && s.reason.is_some() && ALL_RULES.contains(&s.rule.as_str()))
        .map(|(s, _)| Finding {
            rule: "stale-suppression",
            path: ctx.path.clone(),
            line: s.line,
            col: 1,
            message: format!(
                "allow({}, …) suppresses nothing; the violation it covered is gone — delete the \
                 directive",
                s.rule
            ),
            witness: Vec::new(),
        })
        .collect()
}

/// Analyses one file in isolation: lexes, runs every token rule, then
/// applies (and polices) the inline allow directives, e.g.
/// `// ecolb-lint: allow(no-wallclock, "perf harness measures real time")`.
///
/// Graph-layer rules (`sim-path-purity`, `seed-provenance`,
/// `silent-result-drop`, `unreached-pub-fn`) need the whole workspace and are run by
/// [`crate::report::run_workspace`]; a directive for one of those rules is
/// *not* reported stale here, since this view cannot see the finding it
/// suppresses.
pub fn check_file(ctx: &FileContext, src: &str) -> FileReport {
    let lexed = lex(src);
    let mut findings = police_directives(ctx, &lexed.suppressions);
    let mut used = vec![false; lexed.suppressions.len()];

    let kept = apply_suppressions(
        &lexed.suppressions,
        check_tokens(ctx, &lexed.tokens),
        &mut used,
        |_| None,
    );
    findings.extend(kept);
    let sites = apply_suppressions(
        &lexed.suppressions,
        panic_sites(ctx, &lexed.tokens),
        &mut used,
        |_| None,
    );

    // Directives naming a graph rule are credited unconditionally in this
    // single-file view.
    for (i, s) in lexed.suppressions.iter().enumerate() {
        if GRAPH_RULES.contains(&s.rule.as_str()) {
            used[i] = true;
        }
    }
    findings.extend(stale_findings(ctx, &lexed.suppressions, &used));

    FileReport {
        findings,
        panic_sites: sites,
    }
}

/// Rules computed by the workspace graph layer, invisible to the
/// single-file view.
pub const GRAPH_RULES: &[&str] = &[
    "sim-path-purity",
    "seed-provenance",
    "silent-result-drop",
    "unreached-pub-fn",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FileContext {
        FileContext::from_path("crates/cluster/src/x.rs")
    }

    #[test]
    fn reasoned_allow_suppresses_same_and_next_line() {
        let trailing =
            "let m = HashMap::new(); // ecolb-lint: allow(no-unordered-collections, \"docs\")";
        let r = check_file(&ctx(), trailing);
        assert!(r.findings.is_empty(), "{:?}", r.findings);

        let above =
            "// ecolb-lint: allow(no-unordered-collections, \"docs\")\nlet m = HashMap::new();";
        let r = check_file(&ctx(), above);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn reasonless_allow_is_a_finding_and_does_not_suppress() {
        let src = "let m = HashMap::new(); // ecolb-lint: allow(no-unordered-collections)";
        let r = check_file(&ctx(), src);
        let rules: Vec<_> = r.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"suppression"));
        assert!(rules.contains(&"no-unordered-collections"));
    }

    #[test]
    fn unknown_rule_in_allow_is_a_finding() {
        let src = "// ecolb-lint: allow(no-such-rule, \"oops\")\n";
        let r = check_file(&ctx(), src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "suppression");
    }

    #[test]
    fn allow_for_a_different_rule_is_stale_and_does_not_suppress() {
        let src = "let m = HashMap::new(); // ecolb-lint: allow(no-wallclock, \"wrong rule\")";
        let r = check_file(&ctx(), src);
        let rules: Vec<_> = r.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"no-unordered-collections"), "{:?}", rules);
        assert!(rules.contains(&"stale-suppression"), "{:?}", rules);
    }

    #[test]
    fn stale_allow_on_clean_code_is_flagged() {
        let src = "// ecolb-lint: allow(no-wallclock, \"was needed once\")\nlet x = 1;";
        let r = check_file(&ctx(), src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "stale-suppression");
    }

    #[test]
    fn graph_rule_allows_are_not_stale_in_the_single_file_view() {
        let src = "// ecolb-lint: allow(sim-path-purity, \"graph layer decides\")\nlet x = 1;";
        let r = check_file(&ctx(), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn panic_sites_can_be_excluded_from_the_ratchet() {
        let src = "fn f() { x.unwrap(); } // ecolb-lint: allow(panic-budget, \"infallible by construction\")";
        let r = check_file(&ctx(), src);
        assert!(r.panic_sites.is_empty());
    }
}
