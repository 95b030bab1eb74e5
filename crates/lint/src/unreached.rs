//! **unreached-pub-fn** — library `pub fn`s that nothing outside the
//! library reaches.
//!
//! A `pub fn` exists to be called from elsewhere. The rule walks the
//! workspace from its *roots* — binaries and examples, integration tests,
//! doc-test code blocks, the `#[cfg(test)]` code of *other* files, and the
//! `benchmark/src` tree (read as roots only) — through every library
//! function a root mentions, and what those mention in turn. Trait-impl
//! and trait bodies are reached from the start, since the trait decides
//! who calls them. A `pub fn` the walk never reaches is a finding, unless
//! it sits in a trait body or an `impl Trait for …` block.
//!
//! Any identifier mention counts, not only call sites: a fn passed as a
//! value (`.map(Server::load)`, `.map(total_demand)`) stays alive.
//! Library code outside fn bodies is not walked: a `pub use` re-export
//! keeps nothing alive, and a fn that only a const initialiser or a
//! `macro_rules!` body calls needs an allow with that reason. Resolution
//! reuses the call graph's, and
//! falls back to every same-name function when a path qualifier names no
//! candidate and is not a type (`prelude::run_cell`, `Self::helper`):
//! like reachability, the rule errs toward keeping code.

use crate::graph::{path_segments, resolve, CallGraph, CallSite, Workspace};
use crate::lexer::{Token, TokenKind};
use crate::reach::GraphFinding;
use crate::rules::Finding;

/// The code of every Rust block in `src`'s `///` and `//!` doc comments,
/// hidden `# ` lines included — the doc tests rustdoc compiles.
pub fn doc_test_code(src: &str) -> String {
    let mut out = String::new();
    // `Some(is_rust)` inside a fenced block.
    let mut block: Option<bool> = None;
    for line in src.lines() {
        let trimmed = line.trim_start();
        let Some(doc) = trimmed
            .strip_prefix("///")
            .or_else(|| trimmed.strip_prefix("//!"))
        else {
            continue;
        };
        let doc = doc.strip_prefix(' ').unwrap_or(doc);
        if let Some(info) = doc.trim_start().strip_prefix("```") {
            block = match block {
                Some(_) => None,
                None => Some(info.split(',').map(str::trim).all(|a| {
                    matches!(a, "" | "rust" | "no_run" | "should_panic") || a.starts_with("edition")
                })),
            };
        } else if block == Some(true) {
            let code = match doc.strip_prefix('#') {
                Some(hidden) if hidden.is_empty() || hidden.starts_with(' ') => hidden.trim_start(),
                _ => doc,
            };
            out.push_str(code);
            out.push('\n');
        }
    }
    out
}

/// Graph nodes that `site`, mentioned in file `from_file`, may name.
fn targets(ws: &Workspace, graph: &CallGraph, from_file: usize, site: &CallSite) -> Vec<usize> {
    let hit = resolve(ws, &graph.fns, &graph.by_name, from_file, site);
    let typed = site.segments.len() >= 2
        && site.segments[site.segments.len() - 2].starts_with(|c: char| c.is_ascii_uppercase())
        && site.segments[site.segments.len() - 2] != "Self";
    match site.segments.last().and_then(|n| graph.by_name.get(n)) {
        Some(all) if hit.is_empty() && !typed => all.clone(),
        _ => hit,
    }
}

/// Graph nodes named by any identifier mention in the inclusive span
/// `tokens[start..=end]` of file `file`: calls, fn values, paths, fields.
/// The leading segments of a longer path (`ecolb_cluster` and `balance`
/// in `ecolb_cluster::balance::balance_round`) qualify it; they are not
/// mentions themselves.
fn mentioned(
    ws: &Workspace,
    graph: &CallGraph,
    file: usize,
    tokens: &[Token],
    (start, end): (usize, usize),
) -> Vec<usize> {
    let mut out = Vec::new();
    for j in start..tokens.len().min(end + 1) {
        let t = &tokens[j];
        let path_prefix = tokens.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(j + 2).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(j + 3).is_some_and(|n| n.is_punct('<'));
        if t.kind != TokenKind::Ident || path_prefix || (j > 0 && tokens[j - 1].is_ident("fn")) {
            continue;
        }
        let (segments, method) = path_segments(tokens, j);
        let site = CallSite {
            segments,
            method,
            line: t.line,
            col: t.col,
            args: (j + 1, j + 1),
        };
        out.extend(targets(ws, graph, file, &site));
    }
    out
}

/// **unreached-pub-fn** — see the module docs.
pub fn unreached_pub_fns(ws: &Workspace, graph: &CallGraph) -> Vec<GraphFinding> {
    let item = |id: usize| &ws.files[graph.fns[id].file].parsed.fns[graph.fns[id].item];
    let whole = |t: &[Token]| (0, t.len().saturating_sub(1));
    // Trait surface is reached from the start: the trait, not a mention,
    // decides who calls it.
    let mut queue: Vec<usize> = (0..graph.fns.len())
        .filter(|&id| item(id).in_trait_impl)
        .collect();
    for (fi, file) in ws.files.iter().enumerate() {
        let tokens = &file.lex.tokens;
        if file.ctx.is_bin || file.ctx.is_test || file.ctx.roots_only {
            queue.extend(mentioned(ws, graph, fi, tokens, whole(tokens)));
            continue;
        }
        queue.extend(mentioned(
            ws,
            graph,
            fi,
            &file.doc_tests,
            whole(&file.doc_tests),
        ));
        for f in file.parsed.fns.iter().filter(|f| f.is_test) {
            if let Some(body) = f.body {
                let ids = mentioned(ws, graph, fi, tokens, body);
                queue.extend(ids.into_iter().filter(|&id| graph.fns[id].file != fi));
            }
        }
    }
    let mut reached = vec![false; graph.fns.len()];
    while let Some(id) = queue.pop() {
        if std::mem::replace(&mut reached[id], true) {
            continue;
        }
        if let Some(body) = item(id).body {
            let file = graph.fns[id].file;
            queue.extend(mentioned(ws, graph, file, &ws.files[file].lex.tokens, body));
        }
    }

    (0..graph.fns.len())
        .filter(|&id| !reached[id] && item(id).is_pub && !item(id).in_trait_impl)
        .map(|id| GraphFinding {
            finding: Finding {
                rule: "unreached-pub-fn",
                path: ws.files[graph.fns[id].file].path.clone(),
                line: item(id).line,
                col: item(id).col,
                message: format!(
                    "pub fn {} is reached from no binary, example, integration test, doc test, \
                     other file's unit test or benchmark source; delete it, give it a caller, \
                     or move it under #[cfg(test)]",
                    item(id).display()
                ),
                witness: Vec::new(),
            },
            base: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_test_code_keeps_rust_blocks_and_hidden_lines() {
        let src = "//! ```\n//! # use ecolb::prelude::*;\n//! let c = run_cell(1);\n//! ```\n\
                   /// ```text\n/// not_code(1)\n/// ```\n\
                   /// ```no_run\n/// go();\n/// ```\n\
                   // ```\n// plain_comment()\n// ```\nfn f() {}\n";
        assert_eq!(
            doc_test_code(src),
            "use ecolb::prelude::*;\nlet c = run_cell(1);\ngo();\n"
        );
    }
}
