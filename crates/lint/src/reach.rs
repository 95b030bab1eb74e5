//! Reachability from the sim entry points, and the graph/flow rules that
//! run over the reachable set.
//!
//! The repo's headline guarantee — byte-identical sweep output at any
//! thread count — is a property of every function *reachable from the
//! simulation hot path*, not of a directory. This module computes that
//! reachable set over the [`CallGraph`] and runs
//! three rules on it:
//!
//! * **sim-path-purity** — wallclock reads, unordered collections, ambient
//!   RNG and environment reads are violations in *any* reachable function,
//!   whatever crate it lives in. Each finding carries a call-path witness
//!   (entry point → … → violating function) so a CI failure names the
//!   exact path that made the helper hot.
//! * **seed-provenance** — every `Rng::new(…)` / `fault_stream(…)`
//!   construction on the sim path must derive from a seed the caller was
//!   *given*: at least one argument identifier must be tainted by a
//!   function parameter (via a single forward pass over `let` bindings and
//!   closure parameters). Literal-only or ambient-constant seeds are the
//!   classic "every shard draws the same stream" bug.
//! * **silent-result-drop** — `let _ = f(…);` where `f` resolves to a
//!   workspace function returning `Result` silently discards a failure
//!   path in library code.
//!
//! Soundness note: reachability over-approximates (a bare name fans out
//! to every same-name free fn, a method call to every same-name method;
//! see [`crate::graph`]), so "not reachable" is
//! trustworthy while "reachable" may include paths the type checker would
//! reject. Taint also over-approximates (any tainted identifier anywhere
//! in the argument list satisfies provenance). Both err toward *missing*
//! a pedantic finding rather than inventing an unfixable one; the
//! remaining escape hatch is an `allow(<rule>, "reason")` directive.

use crate::graph::{CallGraph, CallSite, Workspace};
use crate::lexer::{Token, TokenKind};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A finding produced by a graph rule, together with the token-layer rule
/// it shadows (used so an `allow(no-wallclock)` also covers the purity
/// finding for the same hazard, and for duplicate elimination).
#[derive(Debug)]
pub struct GraphFinding {
    /// The reportable finding.
    pub finding: Finding,
    /// Token-layer rule this finding shadows, if any.
    pub base: Option<&'static str>,
}

/// True when `item` is one of the simulation entry points the purity
/// analysis starts from: `Engine::run*`, `Cluster::run_interval*`,
/// `Federation::run_interval*`, free `balance_round*` functions, the
/// `*Sim::run*` drivers (their closures carry the per-event hot path), and
/// the chaos harness (`run_plan` / `sweep`).
pub fn is_entry_point(name: &str, owner: Option<&str>, krate: &str) -> bool {
    let owner = owner.unwrap_or("");
    (owner == "Engine" && name.starts_with("run"))
        || ((owner == "Cluster" || owner == "Federation") && name.starts_with("run_interval"))
        || name.starts_with("balance_round")
        || (owner.ends_with("Sim") && name.starts_with("run"))
        || (krate == "chaos" && matches!(name, "run_plan" | "sweep"))
}

/// Which graph nodes are reachable from the entry points, with the BFS
/// tree that yields shortest call-path witnesses.
pub struct Reachability {
    /// Entry-point node ids, in graph order.
    pub entries: Vec<usize>,
    /// `reachable[id]` — node `id` is on the sim path.
    pub reachable: Vec<bool>,
    /// BFS parent of each reachable non-entry node.
    pub parent: Vec<Option<usize>>,
}

/// Computes reachability from [`is_entry_point`] nodes over `graph`.
pub fn reach(ws: &Workspace, graph: &CallGraph) -> Reachability {
    let n = graph.fns.len();
    let mut entries = Vec::new();
    for (id, key) in graph.fns.iter().enumerate() {
        let file = &ws.files[key.file];
        let item = &file.parsed.fns[key.item];
        if is_entry_point(&item.name, item.owner.as_deref(), &file.ctx.krate) {
            entries.push(id);
        }
    }
    let mut reachable = vec![false; n];
    let mut parent = vec![None; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &e in &entries {
        if !reachable[e] {
            reachable[e] = true;
            queue.push_back(e);
        }
    }
    while let Some(id) = queue.pop_front() {
        for &next in &graph.edges[id] {
            if !reachable[next] {
                reachable[next] = true;
                parent[next] = Some(id);
                queue.push_back(next);
            }
        }
    }
    Reachability {
        entries,
        reachable,
        parent,
    }
}

impl Reachability {
    /// The call-path witness for node `id`: entry point first, `id` last,
    /// each step rendered as `Owner::name (path:line)`.
    pub fn witness(&self, ws: &Workspace, graph: &CallGraph, id: usize) -> Vec<String> {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain.into_iter().map(|n| graph.label(ws, n)).collect()
    }
}

/// Hazard classes the purity rule scans reachable bodies for.
const WALLCLOCK: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];
const UNORDERED: &[&str] = &["HashMap", "HashSet", "RandomState"];
const AMBIENT_RNG: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "ThreadRng",
    "getrandom",
];

/// **sim-path-purity** — scans every reachable function body for the four
/// determinism hazards; each finding carries the call-path witness.
pub fn sim_path_purity(ws: &Workspace, graph: &CallGraph, r: &Reachability) -> Vec<GraphFinding> {
    let mut out = Vec::new();
    for (id, key) in graph.fns.iter().enumerate() {
        if !r.reachable[id] {
            continue;
        }
        let file = &ws.files[key.file];
        let item = &file.parsed.fns[key.item];
        let (start, end) = match item.body {
            Some(b) => b,
            None => continue,
        };
        let witness = r.witness(ws, graph, id);
        for i in start..=end.min(file.lex.tokens.len().saturating_sub(1)) {
            let t = &file.lex.tokens[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let (base, advice): (&'static str, &str) = if WALLCLOCK.contains(&t.text.as_str()) {
                ("no-wallclock", "use ecolb_simcore::time::SimTime")
            } else if UNORDERED.contains(&t.text.as_str()) {
                ("no-unordered-collections", "use BTreeMap/BTreeSet/Vec")
            } else if AMBIENT_RNG.contains(&t.text.as_str()) {
                ("no-ambient-rng", "derive every stream from the run seed")
            } else if is_env_read(&file.lex.tokens, i)
                && file.path != "crates/simcore/src/proptest_lite.rs"
            {
                ("no-env-reads", "take the value as an explicit argument")
            } else {
                continue;
            };
            out.push(GraphFinding {
                finding: Finding {
                    rule: "sim-path-purity",
                    path: file.path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{}` in {} is reachable from sim entry point {}; {} ({} hazard on the \
                         sim path breaks byte-identical replay)",
                        t.text,
                        item.display(),
                        witness.first().map(String::as_str).unwrap_or("?"),
                        advice,
                        base,
                    ),
                    witness: witness.clone(),
                },
                base: Some(base),
            });
        }
    }
    out
}

/// True when token `i` is the `var`/`var_os`/`vars` of an `env::…` read.
fn is_env_read(tokens: &[Token], i: usize) -> bool {
    let t = &tokens[i];
    t.kind == TokenKind::Ident
        && matches!(t.text.as_str(), "var" | "var_os" | "vars")
        && i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].is_ident("env")
}

/// Identifiers tainted by the function's own inputs: parameters, `self`,
/// closure parameters, and `let` bindings whose initializer mentions an
/// already-tainted identifier (single forward pass — sim code is
/// straight-line enough that a fixpoint buys nothing).
fn tainted_idents(tokens: &[Token], body: (usize, usize), params: &[String]) -> BTreeSet<String> {
    let mut tainted: BTreeSet<String> = params.iter().cloned().collect();
    tainted.insert("self".to_string());
    let (start, end) = body;
    let mut i = start;
    let last = end.min(tokens.len().saturating_sub(1));
    while i <= last {
        let t = &tokens[i];
        // `let <pat>[: ty] = <expr>;`
        if t.is_ident("let") {
            let mut names: Vec<String> = Vec::new();
            let mut j = i + 1;
            let mut in_type = false;
            while j <= last {
                let tj = &tokens[j];
                if tj.is_punct('=') && !tokens.get(j + 1).map(|n| n.is_punct('=')).unwrap_or(false)
                {
                    break;
                }
                if tj.is_punct(';') {
                    break;
                }
                if tj.is_punct(':') {
                    // `::` inside a pattern path keeps pattern mode; a
                    // single `:` starts the type annotation.
                    let double = tokens.get(j + 1).map(|n| n.is_punct(':')).unwrap_or(false)
                        || (j > 0 && tokens[j - 1].is_punct(':'));
                    if !double {
                        in_type = true;
                    }
                }
                if !in_type
                    && tj.kind == TokenKind::Ident
                    && !matches!(tj.text.as_str(), "mut" | "ref")
                {
                    names.push(tj.text.clone());
                }
                j += 1;
            }
            if j <= last && tokens[j].is_punct('=') {
                // Initializer expression: from `=` to the statement `;`.
                let mut k = j + 1;
                let mut depth = 0i64;
                let mut init_tainted = false;
                while k <= last {
                    let tk = &tokens[k];
                    if tk.is_punct('(') || tk.is_punct('[') || tk.is_punct('{') {
                        depth += 1;
                    } else if tk.is_punct(')') || tk.is_punct(']') || tk.is_punct('}') {
                        depth -= 1;
                    } else if tk.is_punct(';') && depth <= 0 {
                        break;
                    } else if tk.kind == TokenKind::Ident && tainted.contains(&tk.text) {
                        init_tainted = true;
                    }
                    k += 1;
                }
                if init_tainted {
                    tainted.extend(names);
                }
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        // Closure parameters: `|a, b|` after `(`, `,`, `=` or `move`.
        if t.is_punct('|') {
            let opens_closure = i == start
                || tokens.get(i.wrapping_sub(1)).map_or(false, |p| {
                    p.is_punct('(')
                        || p.is_punct(',')
                        || p.is_punct('=')
                        || p.is_punct('{')
                        || p.is_ident("move")
                });
            if opens_closure {
                let mut j = i + 1;
                while j <= last && !tokens[j].is_punct('|') {
                    if tokens[j].kind == TokenKind::Ident
                        && !matches!(tokens[j].text.as_str(), "mut" | "ref")
                    {
                        tainted.insert(tokens[j].text.clone());
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    tainted
}

/// Constructors whose first-class job is creating an RNG stream.
fn is_stream_construction(site: &CallSite) -> bool {
    match site.segments.last().map(String::as_str) {
        Some("fault_stream") => true,
        Some("new") => {
            site.segments.len() >= 2
                && matches!(
                    site.segments[site.segments.len() - 2].as_str(),
                    "Rng" | "RngStream"
                )
        }
        _ => false,
    }
}

/// **seed-provenance** — flags reachable `Rng::new` / `fault_stream`
/// constructions whose arguments carry no input-tainted identifier.
pub fn seed_provenance(ws: &Workspace, graph: &CallGraph, r: &Reachability) -> Vec<GraphFinding> {
    let mut out = Vec::new();
    for (id, key) in graph.fns.iter().enumerate() {
        if !r.reachable[id] {
            continue;
        }
        let file = &ws.files[key.file];
        let item = &file.parsed.fns[key.item];
        let body = match item.body {
            Some(b) => b,
            None => continue,
        };
        let constructions: Vec<&CallSite> = graph.calls[id]
            .iter()
            .filter(|s| is_stream_construction(s))
            .collect();
        if constructions.is_empty() {
            continue;
        }
        let tainted = tainted_idents(&file.lex.tokens, body, &item.params);
        for site in constructions {
            let (a, b) = site.args;
            let args = &file.lex.tokens[a.min(file.lex.tokens.len())..b.min(file.lex.tokens.len())];
            let derived = args
                .iter()
                .any(|t| t.kind == TokenKind::Ident && tainted.contains(&t.text));
            if !derived {
                let witness = r.witness(ws, graph, id);
                out.push(GraphFinding {
                    finding: Finding {
                        rule: "seed-provenance",
                        path: file.path.clone(),
                        line: site.line,
                        col: site.col,
                        message: format!(
                            "`{}` in {} (reachable from {}) is seeded from a literal or ambient \
                             value; derive the seed from a parameter so every run and shard gets \
                             its own stream",
                            site.segments.join("::"),
                            item.display(),
                            witness.first().map(String::as_str).unwrap_or("?"),
                        ),
                        witness,
                    },
                    base: None,
                })
            }
        }
    }
    out
}

/// **silent-result-drop** — flags `let _ = f(…);` in library code where
/// `f` resolves to a workspace function returning `Result`.
pub fn silent_result_drop(ws: &Workspace, graph: &CallGraph) -> Vec<GraphFinding> {
    let mut out = Vec::new();
    for key in graph.fns.iter() {
        let file = &ws.files[key.file];
        let item = &file.parsed.fns[key.item];
        let (start, end) = match item.body {
            Some(b) => b,
            None => continue,
        };
        let tokens = &file.lex.tokens;
        let last = end.min(tokens.len().saturating_sub(1));
        for i in start..=last {
            if !(tokens[i].is_ident("let")
                && tokens.get(i + 1).map(|t| t.is_ident("_")).unwrap_or(false)
                && tokens.get(i + 2).map(|t| t.is_punct('=')).unwrap_or(false))
            {
                continue;
            }
            // Statement span: `=` to the `;` at depth 0.
            let mut k = i + 3;
            let mut depth = 0i64;
            while k <= last {
                let t = &tokens[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.is_punct(';') && depth <= 0 {
                    break;
                }
                k += 1;
            }
            // The discarded value is a call iff the statement ends `…)` —
            // a trailing `?` already handles the error, a bare ident or
            // tuple is deliberate.
            if k == i + 3 || !tokens[k - 1].is_punct(')') {
                continue;
            }
            let open = crate::rules::matching_open(tokens, k - 1);
            if open == 0 {
                continue;
            }
            let name_idx = open - 1;
            let name = &tokens[name_idx];
            if name.kind != TokenKind::Ident || NON_RESULT_SOURCES.contains(&name.text.as_str()) {
                continue;
            }
            let drops_result = graph
                .by_name
                .get(&name.text)
                .map(|cands| {
                    cands.iter().any(|&cid| {
                        let ck = graph.fns[cid];
                        ws.files[ck.file].parsed.fns[ck.item].returns_result()
                    })
                })
                .unwrap_or(false);
            if drops_result {
                out.push(GraphFinding {
                    finding: Finding {
                        rule: "silent-result-drop",
                        path: file.path.clone(),
                        line: tokens[i].line,
                        col: tokens[i].col,
                        message: format!(
                            "`let _ =` discards the `Result` of `{}` in {}; handle the error, \
                             propagate with `?`, or justify with an allow directive",
                            name.text,
                            item.display(),
                        ),
                        witness: Vec::new(),
                    },
                    base: None,
                })
            }
        }
    }
    out
}

/// Names that look like calls but never produce a workspace `Result`
/// (keyword-adjacent constructors the resolver would over-match).
const NON_RESULT_SOURCES: &[&str] = &["Some", "Ok", "Err", "Self"];

/// Runs all graph rules and returns their findings, plus the map of
/// `(path, line, col)` purity sites used to drop shadowed token findings.
pub fn graph_findings(ws: &Workspace) -> Vec<GraphFinding> {
    let graph = crate::graph::build_graph(ws);
    let r = reach(ws, &graph);
    let mut out = sim_path_purity(ws, &graph, &r);
    out.extend(seed_provenance(ws, &graph, &r));
    out.extend(silent_result_drop(ws, &graph));
    out.extend(crate::unreached::unreached_pub_fns(ws, &graph));
    out
}

/// Convenience: per-file purity-site index for duplicate suppression,
/// mapping `path → (line, col) → base rule`.
pub fn purity_sites(findings: &[GraphFinding]) -> BTreeMap<(String, u32, u32), &'static str> {
    findings
        .iter()
        .filter_map(|g| {
            g.base
                .map(|b| ((g.finding.path.clone(), g.finding.line, g.finding.col), b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_graph;

    fn ws(sources: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> = sources
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        Workspace::from_sources(&owned)
    }

    #[test]
    fn entry_points_match_the_documented_set() {
        assert!(is_entry_point("run", Some("Engine"), "simcore"));
        assert!(is_entry_point("run_with", Some("Engine"), "simcore"));
        assert!(is_entry_point("run_interval", Some("Cluster"), "cluster"));
        assert!(is_entry_point("balance_round", None, "cluster"));
        assert!(is_entry_point("run", Some("FaultyClusterSim"), "faults"));
        assert!(is_entry_point("run_plan", None, "chaos"));
        assert!(!is_entry_point("run", None, "cluster"));
        assert!(!is_entry_point("helper", Some("Engine"), "simcore"));
    }

    #[test]
    fn taint_flows_through_let_bindings_and_closures() {
        let w = ws(&[(
            "crates/faults/src/plan.rs",
            "pub fn fault_stream(seed: u64) -> Rng {\n\
                 let mut state = seed;\n\
                 let a = splitmix64(&mut state);\n\
                 Rng::new(a ^ 17)\n\
             }",
        )]);
        let file = &w.files[0];
        let item = &file.parsed.fns[0];
        let t = tainted_idents(&file.lex.tokens, item.body.expect("body"), &item.params);
        assert!(t.contains("seed") && t.contains("state") && t.contains("a"));
    }

    #[test]
    fn untainted_let_does_not_spread() {
        let w = ws(&[(
            "crates/faults/src/plan.rs",
            "pub fn f(seed: u64) { let fixed = 42; let other = fixed + 1; }",
        )]);
        let file = &w.files[0];
        let item = &file.parsed.fns[0];
        let t = tainted_idents(&file.lex.tokens, item.body.expect("body"), &item.params);
        assert!(!t.contains("fixed") && !t.contains("other"));
    }

    #[test]
    fn seed_provenance_flags_literal_streams_on_the_sim_path() {
        let w = ws(&[(
            "crates/cluster/src/balance.rs",
            "pub fn balance_round(seed: u64) { let r = Rng::new(7); }",
        )]);
        let g = build_graph(&w);
        let r = reach(&w, &g);
        let f = seed_provenance(&w, &g, &r);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].finding.rule, "seed-provenance");
        assert!(!f[0].finding.witness.is_empty());
    }

    #[test]
    fn seed_provenance_accepts_derived_streams() {
        let w = ws(&[(
            "crates/cluster/src/balance.rs",
            "pub fn balance_round(seed: u64) { let s = seed ^ 21; let r = Rng::new(s); }",
        )]);
        let g = build_graph(&w);
        let r = reach(&w, &g);
        assert!(seed_provenance(&w, &g, &r).is_empty());
    }
}
