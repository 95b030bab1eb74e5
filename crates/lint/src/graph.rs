//! Workspace symbol table and conservative name-resolution call graph.
//!
//! Every source file is lexed and item-parsed once into a [`Workspace`];
//! [`build_graph`] then links call sites to workspace function definitions
//! by name. This is the one definition of a reference that every graph
//! rule shares, `unreached-pub-fn` included.
//!
//! **What counts as a reference** ([`extract_calls`]): a call
//! (`name(…)`, `path::name(…)`, `.name(…)`, with an optional turbofish
//! before the parens); a path-qualified fn value anywhere
//! (`.map(Server::load)`); and a bare fn value in argument, element or
//! field-initialiser position (`.map(helper)`, `f(x, helper)`,
//! `[helper]`, `Hooks { on: helper }`). A local, a parameter or a field
//! access (`.cost`) is not a reference, whatever its name.
//!
//! **How a reference resolves**, erring toward keeping an
//! edge where syntax cannot decide:
//! * a method call (`.name(…)`) links to every associated fn of that
//!   name, whatever its owner;
//! * a bare name links to every free fn of that name, narrowed by a `use`
//!   import's module when one supplies it;
//! * a qualified path links to the fns whose owner type, inline module,
//!   file stem or crate matches the qualifier (`Engine::run`,
//!   `balance::balance_round`, `ecolb_metrics::mean`). A lowercase
//!   qualifier that matches none is a re-export (`prelude::run_cell`) and
//!   falls back to every free fn of the name; a type that matches none
//!   (`Vec::new`, `T::default`) links nowhere;
//! * `Self::f` is qualified by the enclosing impl's owner, so it reaches
//!   that type's `f` and no other;
//! * a turbofish keeps its qualifier: `Type::<Args>::f` resolves against
//!   `Type` and every type named in `Args` (`Box::<LeastLoaded>::default`
//!   reaches `LeastLoaded::default`), never against every `f`.
//!
//! Test functions, test files, bin targets and benchmark sources are
//! excluded from the graph entirely — they can call sim entry points, but
//! nothing on the sim path can call them, and keeping them out prevents
//! same-name test helpers from widening the reachable set.

use crate::lexer::{lex, LexOutput, Token, TokenKind};
use crate::parse::{parse_items, ParsedFile};
use crate::rules::{matching_close, FileContext};
use crate::unreached::doc_test_code;
use std::collections::BTreeMap;

/// One analysed source file: path, derived context, tokens, items.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Derived rule-scoping context.
    pub ctx: FileContext,
    /// Lexer output (tokens + suppression directives).
    pub lex: LexOutput,
    /// Item-parser output (fns + uses).
    pub parsed: ParsedFile,
    /// Tokens of the Rust code blocks in the file's doc comments (its
    /// doc tests).
    pub doc_tests: Vec<Token>,
}

impl SourceFile {
    /// The file stem (`balance` for `crates/cluster/src/balance.rs`),
    /// used as a module-name candidate during call resolution.
    pub fn stem(&self) -> &str {
        self.path
            .rsplit('/')
            .next()
            .and_then(|n| n.strip_suffix(".rs"))
            .unwrap_or("")
    }
}

/// All analysed sources of one lint run.
pub struct Workspace {
    /// Files in the order given (the walker provides sorted order).
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Lexes and item-parses every `(path, source)` pair.
    pub fn from_sources(sources: &[(String, String)]) -> Workspace {
        let files = sources
            .iter()
            .map(|(path, src)| {
                let lexed = lex(src);
                let parsed = parse_items(&lexed.tokens);
                SourceFile {
                    path: path.clone(),
                    ctx: FileContext::from_path(path),
                    lex: lexed,
                    parsed,
                    doc_tests: lex(&doc_test_code(src)).tokens,
                }
            })
            .collect();
        Workspace { files }
    }
}

/// One call site extracted from a function body: a call, or a fn passed
/// as a value without calling it.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments of the callee (`["Rng", "new"]`, `["balance_round"]`),
    /// with `Self` already replaced by the enclosing impl's owner.
    pub segments: Vec<String>,
    /// Identifiers inside a turbofish on the path (`LeastLoaded` in
    /// `Box::<LeastLoaded>::default`), which qualify the callee too.
    pub generics: Vec<String>,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
    /// Token-index span of the argument list, *exclusive* of the parens
    /// (empty for a fn value).
    pub args: (usize, usize),
}

/// Rust keywords that look like calls when followed by `(`.
const NON_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "in", "move", "ref", "mut", "box",
    "unsafe", "async", "await", "dyn", "impl", "fn", "pub", "where", "else", "break", "continue",
    "as", "use", "mod", "struct", "enum", "union", "trait", "type", "static", "const", "crate",
    "super",
];

/// Index of the `<` matching the `>` at `close`, walking backwards (the
/// `>` of a `->` arrow closes nothing).
fn angle_open(tokens: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        if tokens[i].is_punct('>') && !(i > 0 && tokens[i - 1].is_punct('-')) {
            depth += 1;
        } else if tokens[i].is_punct('<') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// The `::`-separated path ending at the identifier `j`, walked
/// backwards (`["Rng", "new"]`); the identifiers of any turbofish on it
/// (`Vec::<u32>::new` is `["Vec", "new"]` with `["u32"]`, and
/// `<A as B>::f` is `["f"]` with `["A", "as", "B"]`); and whether a lone
/// name follows a `.` (method-call or field syntax).
fn path_segments(tokens: &[Token], j: usize) -> (Vec<String>, Vec<String>, bool) {
    let mut segments = vec![tokens[j].text.clone()];
    let mut generics = Vec::new();
    let mut p = j;
    while p >= 3 && tokens[p - 1].is_punct(':') && tokens[p - 2].is_punct(':') {
        let mut q = p - 3;
        if tokens[q].is_punct('>') {
            let Some(open) = angle_open(tokens, q) else {
                break;
            };
            generics.extend(
                tokens[open + 1..q]
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone()),
            );
            if !(open >= 3 && tokens[open - 1].is_punct(':') && tokens[open - 2].is_punct(':')) {
                break;
            }
            q = open - 3;
        }
        if tokens[q].kind != TokenKind::Ident {
            break;
        }
        segments.insert(0, tokens[q].text.clone());
        p = q;
    }
    let method = segments.len() == 1 && p > 0 && tokens[p - 1].is_punct('.');
    (segments, generics, method)
}

/// True when the bare name at `j` sits where only a value can: an
/// argument or element (after `(`, `[` or `,`) or a field initialiser
/// (after a lone `:`), closed by `)`, `]`, `,` or `}`.
fn in_value_position(tokens: &[Token], j: usize) -> bool {
    let before = j.checked_sub(1).map(|b| &tokens[b]);
    let opens = before.is_some_and(|b| b.is_punct('(') || b.is_punct('[') || b.is_punct(','))
        || (before.is_some_and(|b| b.is_punct(':')) && !(j >= 2 && tokens[j - 2].is_punct(':')));
    opens
        && tokens.get(j + 1).is_some_and(|n| {
            n.is_punct(')') || n.is_punct(']') || n.is_punct(',') || n.is_punct('}')
        })
}

/// Extracts every call site from the token span `body` (inclusive) of a
/// fn owned by `owner` (`Self::f` becomes `Owner::f`).
///
/// A call is `name(…)`, `path::name(…)` or `.name(…)`, with an optional
/// turbofish before the parens. A fn passed as a value is a call edge
/// too: a path-qualified one anywhere (`.map(Server::load)`), a bare
/// name in value position (`.map(helper)`, `f(x, helper)`). Nothing else
/// is: a local, a parameter or a field named like a fn names no fn.
pub fn extract_calls(tokens: &[Token], body: (usize, usize), owner: Option<&str>) -> Vec<CallSite> {
    let (start, end) = body;
    let mut out = Vec::new();
    for j in start..tokens.len().min(end + 1) {
        let t = &tokens[j];
        // A definition (`fn helper(`) is not a call of `helper`.
        if t.kind != TokenKind::Ident
            || NON_CALLEES.contains(&t.text.as_str())
            || (j > 0 && tokens[j - 1].is_ident("fn"))
        {
            continue;
        }
        // Optional turbofish between the name and the parens.
        let mut k = j + 1;
        if k + 2 < tokens.len()
            && tokens[k].is_punct(':')
            && tokens[k + 1].is_punct(':')
            && tokens[k + 2].is_punct('<')
        {
            k = crate::parse::skip_angles(tokens, k + 2);
        }
        let (mut segments, mut generics, method) = path_segments(tokens, j);
        let args = match tokens.get(k) {
            Some(open) if open.is_punct('(') => (k + 1, matching_close(tokens, k)),
            // A path-qualified fn value (`.map(Server::load)`) is a call
            // edge with no arguments; a macro `Q::name!`, a struct literal
            // `Q::name {` and a longer path `Q::name::…` are not.
            next if segments.len() >= 2
                && !next.is_some_and(|n| n.is_punct('!') || n.is_punct('{') || n.is_punct(':')) =>
            {
                (k, k)
            }
            _ if segments.len() == 1 && !method && in_value_position(tokens, j) => (k, k),
            _ => continue,
        };
        if let Some(owner) = owner {
            for s in segments
                .iter_mut()
                .chain(&mut generics)
                .filter(|s| *s == "Self")
            {
                *s = owner.to_string();
            }
        }
        out.push(CallSite {
            segments,
            generics,
            method,
            line: t.line,
            col: t.col,
            args,
        });
    }
    out
}

/// A function definition's coordinates inside a [`Workspace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnKey {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's [`ParsedFile::fns`].
    pub item: usize,
}

/// The workspace call graph over library (non-test, non-bin) functions.
pub struct CallGraph {
    /// Graph nodes: every library function with a body.
    pub fns: Vec<FnKey>,
    /// Function name → node indices (the symbol table).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Per-node resolved callees, sorted and deduplicated.
    pub edges: Vec<Vec<usize>>,
    /// Per-node extracted call sites (reused by the flow rules).
    pub calls: Vec<Vec<CallSite>>,
}

impl CallGraph {
    /// `Owner::name (path:line)` label for node `id`, used in witnesses.
    pub fn label(&self, ws: &Workspace, id: usize) -> String {
        let key = self.fns[id];
        let file = &ws.files[key.file];
        let item = &file.parsed.fns[key.item];
        format!("{} ({}:{})", item.display(), file.path, item.line)
    }
}

/// True when module-path qualifier `qual` plausibly names crate `krate`
/// (`ecolb_cluster` ↔ `cluster`, or the crate directory name itself).
fn crate_matches(qual: &str, krate: &str) -> bool {
    qual == krate || qual.strip_prefix("ecolb_") == Some(krate)
}

/// Builds the call graph for `ws`. See the module docs for the
/// resolution policy.
pub fn build_graph(ws: &Workspace) -> CallGraph {
    let mut fns = Vec::new();
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if file.ctx.is_bin || file.ctx.is_test || file.ctx.roots_only {
            continue;
        }
        for (ii, item) in file.parsed.fns.iter().enumerate() {
            if item.is_test || item.body.is_none() {
                continue;
            }
            let id = fns.len();
            fns.push(FnKey { file: fi, item: ii });
            by_name.entry(item.name.clone()).or_default().push(id);
        }
    }

    let mut edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
    let mut calls: Vec<Vec<CallSite>> = Vec::with_capacity(fns.len());
    for key in &fns {
        let file = &ws.files[key.file];
        let item = &file.parsed.fns[key.item];
        let sites = match item.body {
            Some(body) => extract_calls(&file.lex.tokens, body, item.owner.as_deref()),
            None => Vec::new(),
        };
        let mut out: Vec<usize> = Vec::new();
        for site in &sites {
            out.extend(resolve(ws, &fns, &by_name, key.file, site));
        }
        out.sort_unstable();
        out.dedup();
        edges.push(out);
        calls.push(sites);
    }
    CallGraph {
        fns,
        by_name,
        edges,
        calls,
    }
}

/// Resolves one call site, found in file `from_file`, to graph nodes.
/// See the module docs for the policy.
pub(crate) fn resolve(
    ws: &Workspace,
    fns: &[FnKey],
    by_name: &BTreeMap<String, Vec<usize>>,
    from_file: usize,
    site: &CallSite,
) -> Vec<usize> {
    let Some(name) = site.segments.last() else {
        return Vec::new();
    };
    let Some(candidates) = by_name.get(name) else {
        return Vec::new();
    };
    let item = |id: usize| &ws.files[fns[id].file].parsed.fns[fns[id].item];
    let owned = |want: bool| {
        candidates
            .iter()
            .copied()
            .filter(|&id| item(id).owner.is_some() == want)
            .collect::<Vec<_>>()
    };
    if site.method {
        return owned(true);
    }
    // The path qualifier: the segment before the name, or the one a `use`
    // import supplies for a bare name.
    let path_qual = match site.segments.len() {
        1 => ws.files[from_file]
            .parsed
            .uses
            .iter()
            .find(|u| u.alias == *name && u.segments.len() >= 2)
            .map(|u| &u.segments[u.segments.len() - 2]),
        n => Some(&site.segments[n - 2]),
    }
    .map(String::as_str)
    .filter(|q| !matches!(*q, "crate" | "self" | "super"));
    let quals: Vec<&str> = path_qual
        .into_iter()
        .chain(site.generics.iter().map(String::as_str))
        .collect();
    if quals.is_empty() {
        return owned(false);
    }
    let hit: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&id| {
            let file = &ws.files[fns[id].file];
            quals.iter().any(|&q| {
                item(id).owner.as_deref() == Some(q)
                    || item(id).modules.last().map(String::as_str) == Some(q)
                    || file.stem() == q
                    || crate_matches(q, &file.ctx.krate)
            })
        })
        .collect();
    // A module path that names no candidate is a re-export
    // (`prelude::run_cell`): any free fn of that name may be meant.
    match path_qual {
        Some(q) if hit.is_empty() && !q.starts_with(|c: char| c.is_ascii_uppercase()) => {
            owned(false)
        }
        _ => hit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(sources: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> = sources
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        Workspace::from_sources(&owned)
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        match g.by_name.get(name).and_then(|v| v.first()) {
            Some(&id) => id,
            None => panic!(
                "fn {name} not in graph; have {:?}",
                g.by_name.keys().collect::<Vec<_>>()
            ),
        }
    }

    #[test]
    fn direct_and_qualified_calls_resolve() {
        let w = ws(&[
            (
                "crates/cluster/src/balance.rs",
                "pub fn balance_round(seed: u64) { helper(); other::tally(seed); }\nfn helper() {}",
            ),
            (
                "crates/metrics/src/other.rs",
                "pub fn tally(x: u64) {}\npub fn unrelated() {}",
            ),
        ]);
        let g = build_graph(&w);
        let br = node(&g, "balance_round");
        let helper = node(&g, "helper");
        let tally = node(&g, "tally");
        let unrelated = node(&g, "unrelated");
        assert!(g.edges[br].contains(&helper));
        assert!(g.edges[br].contains(&tally));
        assert!(!g.edges[br].contains(&unrelated));
    }

    #[test]
    fn qualified_calls_filter_by_owner() {
        let w = ws(&[(
            "crates/simcore/src/engine.rs",
            "impl Engine { pub fn run(&mut self) { } }\nimpl Other { pub fn run(&mut self) {} }\n\
             pub fn drive() { Engine::run(); }",
        )]);
        let g = build_graph(&w);
        let drive = node(&g, "drive");
        assert_eq!(g.edges[drive].len(), 1, "only Engine::run, not Other::run");
    }

    #[test]
    fn method_calls_over_approximate_to_all_owners() {
        let w = ws(&[(
            "crates/cluster/src/leader.rs",
            "impl Leader { pub fn refresh(&mut self) {} }\nimpl Directory { pub fn refresh(&mut self) {} }\n\
             pub fn step(l: &mut Leader) { l.refresh(); }",
        )]);
        let g = build_graph(&w);
        let step = node(&g, "step");
        assert_eq!(g.edges[step].len(), 2, "both refresh impls are candidates");
    }

    #[test]
    fn test_code_and_bins_stay_out_of_the_graph() {
        let w = ws(&[
            (
                "crates/cluster/src/x.rs",
                "pub fn lib_fn() {}\n#[cfg(test)]\nmod tests { fn lib_fn() {} }",
            ),
            ("crates/bench/src/bin/sweep.rs", "pub fn lib_fn() {}"),
            ("tests/determinism.rs", "pub fn lib_fn() {}"),
        ]);
        let g = build_graph(&w);
        assert_eq!(g.by_name.get("lib_fn").map(Vec::len), Some(1));
    }

    #[test]
    fn use_imports_qualify_bare_calls() {
        let w = ws(&[
            (
                "crates/cluster/src/sim.rs",
                "use ecolb_metrics::convert::sat_u64;\npub fn go(x: f64) { sat_u64(x); }",
            ),
            (
                "crates/metrics/src/convert.rs",
                "pub fn sat_u64(x: f64) -> u64 { 0 }",
            ),
            (
                "crates/energy/src/power.rs",
                "fn sat_u64(x: f64) -> u64 { 1 }",
            ),
        ]);
        let g = build_graph(&w);
        let go = node(&g, "go");
        assert_eq!(
            g.edges[go].len(),
            1,
            "the use import pins sat_u64 to crates/metrics/src/convert.rs"
        );
        let target = g.edges[go][0];
        assert_eq!(
            w.files[g.fns[target].file].path,
            "crates/metrics/src/convert.rs"
        );
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let w = ws(&[(
            "crates/cluster/src/x.rs",
            "fn pick<T>() -> T { todo() }\nfn todo<T>() -> T { loop {} }\npub fn go() { pick::<u64>(); }",
        )]);
        let g = build_graph(&w);
        let go = node(&g, "go");
        let pick = node(&g, "pick");
        assert!(g.edges[go].contains(&pick));
    }
}
