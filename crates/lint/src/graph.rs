//! Workspace symbol table and conservative name-resolution call graph.
//!
//! Every source file is lexed and item-parsed once into a [`Workspace`];
//! [`build_graph`] then links call sites to workspace function definitions
//! by name. Resolution is deliberately *conservative in the
//! over-approximation direction*: an unqualified or method call links to
//! **every** workspace function of that name (so reachability never misses
//! a real path), while a path-qualified call (`Engine::run`,
//! `balance::balance_round`) links only to definitions whose owner type,
//! module, file stem, or crate matches the qualifier. A path-qualified fn
//! value (`.map(Server::load)`) is a call edge too. Test functions, test
//! files, bin targets and benchmark sources are excluded from the graph
//! entirely — they can call sim entry points, but nothing on the sim path
//! can call them, and keeping them out prevents same-name test helpers
//! from widening the reachable set.

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

/// One call site extracted from a function body: a call, or a
/// path-qualified fn value passed without calling it.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments of the callee (`["Rng", "new"]`, `["balance_round"]`).
    pub segments: Vec<String>,
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

/// The `::`-separated path ending at the identifier `j`, walked
/// backwards (`["Rng", "new"]`), and whether a lone name follows a `.`
/// (method-call or field syntax).
pub(crate) fn path_segments(tokens: &[Token], j: usize) -> (Vec<String>, bool) {
    let mut segments = vec![tokens[j].text.clone()];
    let mut p = j;
    while p >= 3
        && tokens[p - 1].is_punct(':')
        && tokens[p - 2].is_punct(':')
        && tokens[p - 3].kind == TokenKind::Ident
    {
        segments.insert(0, tokens[p - 3].text.clone());
        p -= 3;
    }
    let method = segments.len() == 1 && p > 0 && tokens[p - 1].is_punct('.');
    (segments, method)
}

/// Extracts every call site from the token span `body` (inclusive).
pub fn extract_calls(tokens: &[Token], body: (usize, usize)) -> Vec<CallSite> {
    let (start, end) = body;
    let mut out = Vec::new();
    let mut j = start;
    while j <= end.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[j];
        if t.kind != TokenKind::Ident || NON_CALLEES.contains(&t.text.as_str()) {
            j += 1;
            continue;
        }
        // A definition (`fn helper(`) is not a call of `helper`.
        if j > 0 && tokens[j - 1].is_ident("fn") {
            j += 1;
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
        let (segments, method) = path_segments(tokens, j);
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
            _ => {
                j += 1;
                continue;
            }
        };
        out.push(CallSite {
            segments,
            method,
            line: t.line,
            col: t.col,
            args,
        });
        j += 1;
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
            Some(body) => extract_calls(&file.lex.tokens, body),
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

/// Resolves one call site to candidate graph nodes.
pub(crate) fn resolve(
    ws: &Workspace,
    fns: &[FnKey],
    by_name: &BTreeMap<String, Vec<usize>>,
    from_file: usize,
    site: &CallSite,
) -> Vec<usize> {
    let name = match site.segments.last() {
        Some(n) => n,
        None => return Vec::new(),
    };
    let candidates = match by_name.get(name) {
        Some(c) => c,
        None => return Vec::new(),
    };
    // Effective qualifier: the explicit path segment, or the one a `use`
    // import supplies for an unqualified call.
    let mut qual: Option<String> = if site.segments.len() >= 2 {
        Some(site.segments[site.segments.len() - 2].clone())
    } else {
        None
    };
    if qual.is_none() && !site.method {
        let file = &ws.files[from_file];
        for u in &file.parsed.uses {
            if u.alias == *name && u.segments.len() >= 2 {
                qual = Some(u.segments[u.segments.len() - 2].clone());
                break;
            }
        }
    }
    match qual.as_deref() {
        None | Some("crate") | Some("self") | Some("super") => candidates
            .iter()
            .copied()
            .filter(|&id| {
                // Method syntax can only land on an associated function.
                let key = fns[id];
                !site.method || ws.files[key.file].parsed.fns[key.item].owner.is_some()
            })
            .collect(),
        Some(q) => candidates
            .iter()
            .copied()
            .filter(|&id| {
                let key = fns[id];
                let file = &ws.files[key.file];
                let item = &file.parsed.fns[key.item];
                item.owner.as_deref() == Some(q)
                    || item.modules.last().map(String::as_str) == Some(q)
                    || file.stem() == q
                    || crate_matches(q, &file.ctx.krate)
            })
            .collect(),
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
