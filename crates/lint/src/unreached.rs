//! **unreached-pub-fn** — library `pub fn`s that nothing outside the
//! library reaches.
//!
//! A `pub fn` exists to be called from elsewhere. The rule walks the
//! workspace from its *roots* — binaries and examples, integration tests,
//! doc-test code blocks, the `#[cfg(test)]` code of *other* files, and the
//! `benchmark/src` tree (read as roots only) — along the [`CallGraph`]'s
//! edges. Trait-impl and trait bodies are reached from the start, since
//! the trait decides who calls them. A `pub fn` the walk never reaches is
//! a finding, unless it sits in a trait body or an `impl Trait for …`
//! block.
//!
//! A reference is what the call graph counts as one, resolved the way it
//! resolves every edge (see [`crate::graph`]): a call, a path-qualified fn
//! value anywhere (`.map(Server::load)`), or a bare fn value in argument,
//! element or field-initialiser position (`.map(total_demand)`). A local,
//! a parameter or a field named like a fn keeps nothing alive. `Self::f`
//! reaches only the enclosing impl's `f`; a turbofish path
//! (`Vec::<u32>::new`) resolves against its type and the types in its
//! arguments, so it keeps no unrelated `new` alive. Method calls still
//! resolve by name alone, so `x.total()` keeps every `total` method alive.
//! Library code outside fn bodies is not walked: a `pub use` re-export
//! keeps nothing alive, and a fn that only a const initialiser or a
//! `macro_rules!` body calls needs an allow with that reason.

use crate::graph::{extract_calls, resolve, CallGraph, Workspace};
use crate::lexer::Token;
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

/// **unreached-pub-fn** — see the module docs.
pub fn unreached_pub_fns(ws: &Workspace, graph: &CallGraph) -> Vec<GraphFinding> {
    let item = |id: usize| &ws.files[graph.fns[id].file].parsed.fns[graph.fns[id].item];
    // Graph nodes referenced in the inclusive span of file `fi`'s tokens.
    let referenced = |fi: usize, tokens: &[Token], span: (usize, usize), owner: Option<&str>| {
        extract_calls(tokens, span, owner)
            .iter()
            .flat_map(|site| resolve(ws, &graph.fns, &graph.by_name, fi, site))
            .collect::<Vec<_>>()
    };
    let whole = |t: &[Token]| (0, t.len().saturating_sub(1));
    // Trait surface is reached from the start: the trait, not a call,
    // decides who calls it.
    let mut queue: Vec<usize> = (0..graph.fns.len())
        .filter(|&id| item(id).in_trait_impl)
        .collect();
    for (fi, file) in ws.files.iter().enumerate() {
        let tokens = &file.lex.tokens;
        if file.ctx.is_bin || file.ctx.is_test || file.ctx.roots_only {
            queue.extend(referenced(fi, tokens, whole(tokens), None));
            continue;
        }
        queue.extend(referenced(
            fi,
            &file.doc_tests,
            whole(&file.doc_tests),
            None,
        ));
        for f in file.parsed.fns.iter().filter(|f| f.is_test) {
            if let Some(body) = f.body {
                let ids = referenced(fi, tokens, body, f.owner.as_deref());
                queue.extend(ids.into_iter().filter(|&id| graph.fns[id].file != fi));
            }
        }
    }
    let mut reached = vec![false; graph.fns.len()];
    while let Some(id) = queue.pop() {
        if !std::mem::replace(&mut reached[id], true) {
            queue.extend(&graph.edges[id]);
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
