//! Item-level parser on top of the [`lexer`](crate::lexer).
//!
//! `ecolb-lint` v1 reasoned about files; the graph rules reason about
//! *functions*. This module recovers just enough structure from the token
//! stream to make that possible: `fn` items (name, parameters, return-type
//! tokens, body span), the `impl`/`trait`/`mod` scopes that qualify them,
//! `use` imports (for call resolution), and the `#[test]` / `#[cfg(test)]`
//! attributes that exempt test code from sim-path rules.
//!
//! Like the lexer, this is deliberately **not** a full Rust parser. It is
//! exact about the constructs that would otherwise corrupt the call graph —
//! nested generics (including `Fn(..) -> T` arrows inside angle brackets),
//! `where` clauses, raw/byte strings inside bodies, tuple-pattern
//! parameters — and conservative everywhere else: a construct it does not
//! model is simply skipped, never misattributed. Soundness note: function
//! bodies are treated as opaque token spans at item level (a `fn` nested
//! inside another `fn` is folded into its parent), which over-approximates
//! callers and never hides a call site.

use crate::lexer::{Token, TokenKind};
use crate::rules::matching_close;

/// One `fn` item recovered from a source file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`Engine` for
    /// `impl Engine { fn run … }`).
    pub owner: Option<String>,
    /// Inline `mod` path from the file root down to the item.
    pub modules: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Binding names of the parameters (`self` included for methods;
    /// tuple patterns contribute every bound name).
    pub params: Vec<String>,
    /// Token texts of the return type (empty for `()` functions).
    pub ret: Vec<String>,
    /// Token-index span of the body `{ … }` (inclusive of both braces),
    /// or `None` for bodiless declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// True when the item is test code: `#[test]`, under `#[cfg(test)]`,
    /// or inside a module marked with either.
    pub is_test: bool,
    /// True for plain `pub fn` (not `pub(crate)` or narrower).
    pub is_pub: bool,
    /// True inside an `impl Trait for …` block or a trait body, where
    /// the trait, not the item, decides who may call it.
    pub in_trait_impl: bool,
}

impl FnItem {
    /// `Owner::name` for methods, bare `name` for free functions.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}", o, self.name),
            None => self.name.clone(),
        }
    }

    /// True when the declared return type mentions `Result`.
    pub fn returns_result(&self) -> bool {
        self.ret.iter().any(|t| t == "Result")
    }
}

/// One name a `use` declaration brings into scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    /// Full path segments (`["ecolb_cluster", "balance", "balance_round"]`).
    pub segments: Vec<String>,
    /// The in-scope name (last segment, or the `as` alias).
    pub alias: String,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// Everything the item parser recovered from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Function items in source order.
    pub fns: Vec<FnItem>,
    /// Flattened `use` imports.
    pub uses: Vec<UseImport>,
}

/// Returns the index just past the `>` matching the `<` at `open`.
///
/// Understands `Fn(..) -> T` arrows inside generic arguments (the `>` of
/// `->` never closes an angle bracket) and skips parenthesized groups
/// whole. Bails out (returning the bail index) at a `{`, `}` or `;` at
/// angle depth — at item level a `<` that runs into those was a
/// comparison, not generics.
pub(crate) fn skip_angles(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            if i > 0 && tokens[i - 1].is_punct('-') {
                i += 1; // `->` arrow inside Fn(..) sugar
                continue;
            }
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        } else if t.is_punct('(') {
            i = matching_close(tokens, i);
            if i >= tokens.len() {
                return tokens.len();
            }
        } else if t.is_punct('{') || t.is_punct('}') || t.is_punct(';') {
            return i;
        }
        i += 1;
    }
    tokens.len()
}

/// Collects the binding names of one parameter (token indices `idxs`):
/// every identifier before the top-level `:`, minus `mut`/`ref`. A bare
/// `self` / `&mut self` parameter yields `["self"]`.
fn param_names(tokens: &[Token], idxs: &[usize]) -> Vec<String> {
    let mut names = Vec::new();
    for &i in idxs {
        let t = &tokens[i];
        if t.is_punct(':') {
            break;
        }
        if t.kind == TokenKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "dyn") {
            names.push(t.text.clone());
        }
    }
    names
}

/// Splits the parameter list between `open` (`(`) and `close` (`)`) at
/// top-level commas and extracts each parameter's binding names.
fn parse_params(tokens: &[Token], open: usize, close: usize) -> Vec<String> {
    let mut params = Vec::new();
    let mut depth = 0i64;
    let mut seg: Vec<usize> = Vec::new();
    let flush = |seg: &mut Vec<usize>, params: &mut Vec<String>| {
        if !seg.is_empty() {
            params.extend(param_names(tokens, seg));
            seg.clear();
        }
    };
    let mut i = open + 1;
    while i < close.min(tokens.len()) {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(i > 0 && tokens[i - 1].is_punct('-')) {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            flush(&mut seg, &mut params);
            i += 1;
            continue;
        }
        seg.push(i);
        i += 1;
    }
    flush(&mut seg, &mut params);
    params
}

/// Parses one `use` declaration starting at the `use` keyword; returns
/// the flattened imports and the index just past the terminating `;`.
fn parse_use(tokens: &[Token], start: usize) -> (Vec<UseImport>, usize) {
    // Find the terminating semicolon first.
    let mut end = start;
    let mut depth = 0i64;
    while end < tokens.len() {
        let t = &tokens[end];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth <= 0 {
            break;
        }
        end += 1;
    }
    let line = tokens[start].line;
    let mut out = Vec::new();
    flatten_use(tokens, start + 1, end, &mut Vec::new(), &mut out, line);
    (out, end + 1)
}

/// Recursively flattens a use tree (`a::b::{c, d as e}`) into imports.
fn flatten_use(
    tokens: &[Token],
    mut i: usize,
    end: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<UseImport>,
    line: u32,
) {
    let base_len = prefix.len();
    let mut alias: Option<String> = None;
    fn flush(
        base_len: usize,
        line: u32,
        prefix: &mut Vec<String>,
        alias: &mut Option<String>,
        out: &mut Vec<UseImport>,
    ) {
        if prefix.len() > base_len {
            let last = prefix.last().cloned().unwrap_or_default();
            if last != "*" {
                out.push(UseImport {
                    segments: prefix.clone(),
                    alias: alias.take().unwrap_or(last),
                    line,
                });
            }
            prefix.truncate(base_len);
        }
        *alias = None;
    }
    while i < end {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident {
            if t.text == "as" {
                if let Some(a) = tokens.get(i + 1) {
                    alias = Some(a.text.clone());
                }
                i += 2;
                continue;
            }
            if t.text != "pub" {
                prefix.push(t.text.clone());
            }
        } else if t.is_punct('*') {
            prefix.push("*".to_string());
        } else if t.is_punct('{') {
            let close = matching_close(tokens, i);
            // Recurse per comma-separated subtree.
            let mut sub = i + 1;
            let mut sub_start = sub;
            let mut depth = 0i64;
            while sub < close.min(tokens.len()) {
                let st = &tokens[sub];
                if st.is_punct('{') {
                    depth += 1;
                } else if st.is_punct('}') {
                    depth -= 1;
                } else if st.is_punct(',') && depth == 0 {
                    flatten_use(tokens, sub_start, sub, prefix, out, line);
                    sub_start = sub + 1;
                }
                sub += 1;
            }
            flatten_use(
                tokens,
                sub_start,
                close.min(tokens.len()),
                prefix,
                out,
                line,
            );
            prefix.truncate(base_len);
            i = close + 1;
            continue;
        } else if t.is_punct(',') {
            flush(base_len, line, prefix, &mut alias, out);
        }
        i += 1;
    }
    flush(base_len, line, prefix, &mut alias, out);
}

/// True when the `fn` keyword at `at` is declared plain `pub`, looking
/// back over `const`/`async`/`unsafe`/`extern "abi"` qualifiers.
fn is_pub_fn(tokens: &[Token], at: usize) -> bool {
    let mut k = at;
    while k > 0 {
        let t = &tokens[k - 1];
        if t.kind == TokenKind::Str
            || matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern")
        {
            k -= 1;
        } else {
            return t.is_ident("pub");
        }
    }
    false
}

/// A lexical scope the item scanner is inside.
struct Scope {
    /// Type name for `impl`/`trait` scopes, module name for `mod` scopes.
    name: Option<String>,
    /// True for `mod` scopes (contributes to [`FnItem::modules`]).
    is_mod: bool,
    /// Token index of the closing `}`.
    end: usize,
    /// True when the scope (or an ancestor) is `#[cfg(test)]`.
    test: bool,
    /// True for a trait body or an `impl Trait for …` block.
    is_trait: bool,
}

/// Parses the item structure of one file's token stream.
pub fn parse_items(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_test = false; // #[test] or #[cfg(test)] seen for next item
    let mut i = 0usize;

    while i < tokens.len() {
        while let Some(s) = scopes.last() {
            if i > s.end {
                scopes.pop();
            } else {
                break;
            }
        }
        let in_test_scope = scopes.iter().any(|s| s.test);
        let t = &tokens[i];

        // Attributes: `#[…]` / `#![…]`.
        if t.is_punct('#') {
            let mut j = i + 1;
            if tokens.get(j).map(|t| t.is_punct('!')).unwrap_or(false) {
                j += 1;
            }
            if tokens.get(j).map(|t| t.is_punct('[')).unwrap_or(false) {
                let close = matching_close(tokens, j);
                let attr = &tokens[j + 1..close.min(tokens.len())];
                let has = |s: &str| attr.iter().any(|t| t.is_ident(s));
                if (has("cfg") && has("test"))
                    || attr.first().map(|t| t.is_ident("test")) == Some(true)
                {
                    pending_test = true;
                }
                i = close + 1;
                continue;
            }
        }

        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }

        match t.text.as_str() {
            "use" => {
                let (imports, next) = parse_use(tokens, i);
                out.uses.extend(imports);
                pending_test = false;
                i = next;
            }
            "mod" => {
                let name = tokens.get(i + 1).map(|t| t.text.clone());
                let brace = tokens.get(i + 2);
                if let (Some(name), Some(b)) = (name, brace) {
                    if b.is_punct('{') {
                        let end = matching_close(tokens, i + 2);
                        scopes.push(Scope {
                            name: Some(name),
                            is_mod: true,
                            end,
                            test: pending_test || in_test_scope,
                            is_trait: false,
                        });
                        pending_test = false;
                        i += 3;
                        continue;
                    }
                }
                pending_test = false;
                i += 1;
            }
            "impl" | "trait" => {
                let is_trait = t.text == "trait";
                let mut j = i + 1;
                if tokens.get(j).map(|t| t.is_punct('<')).unwrap_or(false) {
                    j = skip_angles(tokens, j);
                }
                // Scan to the opening brace, remembering the last path
                // identifier (after `for`, for trait impls). A `where`
                // clause settles the name — its bound idents must not
                // overwrite it.
                let mut last_name: Option<String> = None;
                let mut in_where = false;
                let mut trait_impl = false;
                while j < tokens.len() {
                    let tj = &tokens[j];
                    if tj.is_punct('{') {
                        break;
                    }
                    if tj.is_punct(';') {
                        break; // `impl Foo;`-ish degenerate; skip
                    }
                    if tj.is_punct('<') {
                        j = skip_angles(tokens, j);
                        continue;
                    }
                    if tj.is_ident("for") {
                        last_name = None;
                        trait_impl |= !in_where;
                    } else if tj.is_ident("where") {
                        in_where = true;
                    } else if !in_where
                        && tj.kind == TokenKind::Ident
                        && !matches!(tj.text.as_str(), "dyn" | "unsafe" | "pub")
                    {
                        last_name = Some(tj.text.clone());
                    }
                    j += 1;
                }
                if is_trait {
                    // Name is the first ident after `trait`, not the last
                    // (supertraits follow the `:`).
                    last_name = tokens.get(i + 1).map(|t| t.text.clone());
                }
                if j < tokens.len() && tokens[j].is_punct('{') {
                    let end = matching_close(tokens, j);
                    scopes.push(Scope {
                        name: last_name,
                        is_mod: false,
                        end,
                        test: pending_test || in_test_scope,
                        is_trait: is_trait || trait_impl,
                    });
                    pending_test = false;
                    i = j + 1;
                    continue;
                }
                pending_test = false;
                i = j + 1;
            }
            "fn" => {
                let name_tok = match tokens.get(i + 1) {
                    Some(n) if n.kind == TokenKind::Ident => n,
                    _ => {
                        // `fn(..)` pointer type in a field/const; not an item.
                        i += 1;
                        continue;
                    }
                };
                let mut j = i + 2;
                if tokens.get(j).map(|t| t.is_punct('<')).unwrap_or(false) {
                    j = skip_angles(tokens, j);
                }
                if !tokens.get(j).map(|t| t.is_punct('(')).unwrap_or(false) {
                    i += 1;
                    continue;
                }
                let close = matching_close(tokens, j);
                let params = parse_params(tokens, j, close);
                let mut k = close + 1;
                let mut ret: Vec<String> = Vec::new();
                if tokens.get(k).map(|t| t.is_punct('-')).unwrap_or(false)
                    && tokens.get(k + 1).map(|t| t.is_punct('>')).unwrap_or(false)
                {
                    k += 2;
                    let mut depth = 0i64;
                    while k < tokens.len() {
                        let tk = &tokens[k];
                        if depth == 0
                            && (tk.is_punct('{') || tk.is_punct(';') || tk.is_ident("where"))
                        {
                            break;
                        }
                        if tk.is_punct('(') || tk.is_punct('[') || tk.is_punct('<') {
                            depth += 1;
                        } else if tk.is_punct(')')
                            || tk.is_punct(']')
                            || (tk.is_punct('>') && !(k > 0 && tokens[k - 1].is_punct('-')))
                        {
                            depth -= 1;
                        }
                        ret.push(tk.text.clone());
                        k += 1;
                    }
                }
                if tokens.get(k).map(|t| t.is_ident("where")).unwrap_or(false) {
                    while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
                        k += 1;
                    }
                }
                let body = if tokens.get(k).map(|t| t.is_punct('{')).unwrap_or(false) {
                    Some((k, matching_close(tokens, k)))
                } else {
                    None
                };
                let owner_scope = scopes.iter().rev().find(|s| !s.is_mod);
                let owner = owner_scope.and_then(|s| s.name.clone());
                let modules = scopes
                    .iter()
                    .filter(|s| s.is_mod)
                    .filter_map(|s| s.name.clone())
                    .collect();
                out.fns.push(FnItem {
                    name: name_tok.text.clone(),
                    owner,
                    modules,
                    line: t.line,
                    col: t.col,
                    params,
                    ret,
                    body,
                    is_test: pending_test || in_test_scope,
                    is_pub: is_pub_fn(tokens, i),
                    in_trait_impl: owner_scope.is_some_and(|s| s.is_trait),
                });
                pending_test = false;
                i = match body {
                    Some((_, end)) => end + 1,
                    None => k + 1,
                };
            }
            "struct" | "enum" | "union" | "static" | "const" | "type" | "extern" => {
                pending_test = false;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_items(&lex(src).tokens)
    }

    #[test]
    fn free_fn_with_params_and_ret() {
        let p = parse("pub fn balance_round(seed: u64, n: usize) -> Result<(), Error> { x() }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "balance_round");
        assert_eq!(f.params, vec!["seed", "n"]);
        assert!(f.returns_result());
        assert!(f.body.is_some());
        assert!(!f.is_test);
    }

    #[test]
    fn impl_methods_get_their_owner() {
        let p =
            parse("impl Engine { pub fn run(&mut self, state: &mut S) -> RunOutcome { loop {} } }");
        assert_eq!(p.fns[0].owner.as_deref(), Some("Engine"));
        assert_eq!(p.fns[0].display(), "Engine::run");
        assert_eq!(p.fns[0].params, vec!["self", "state"]);
    }

    #[test]
    fn generic_impl_and_trait_impl_owners() {
        let p = parse(
            "impl<'a, E: Event, T> Scheduler<'a, E, T> { fn tick(&mut self) {} }\n\
             impl fmt::Display for Piecewise { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) } }",
        );
        assert_eq!(p.fns[0].owner.as_deref(), Some("Scheduler"));
        assert_eq!(p.fns[1].owner.as_deref(), Some("Piecewise"));
        assert!(p.fns[1].returns_result());
    }

    #[test]
    fn fn_generics_with_closure_bounds_parse() {
        let p = parse(
            "pub fn run<S, F: FnMut(&mut S, u32) -> Control>(state: &mut S, handler: F) -> RunOutcome { handler(state, 1) }",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "run");
        assert_eq!(p.fns[0].params, vec!["state", "handler"]);
        assert_eq!(p.fns[0].ret, vec!["RunOutcome"]);
    }

    #[test]
    fn where_clause_does_not_eat_the_body() {
        let p = parse("fn f<T>(x: T) -> T where T: Clone + Fn(u32) -> u32 { x }");
        assert_eq!(p.fns.len(), 1);
        assert!(p.fns[0].body.is_some());
        assert_eq!(p.fns[0].ret, vec!["T"]);
    }

    #[test]
    fn cfg_test_mod_marks_nested_fns() {
        let p = parse(
            "fn lib_fn() {}\n#[cfg(test)]\nmod tests { use super::*; #[test] fn t() { lib_fn(); } fn helper() {} }",
        );
        assert_eq!(p.fns.len(), 3);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
        assert!(
            p.fns[2].is_test,
            "helpers inside cfg(test) mods are test code"
        );
        assert_eq!(p.fns[1].modules, vec!["tests"]);
    }

    #[test]
    fn test_attr_marks_only_the_next_fn() {
        let p = parse("#[test]\nfn t() {}\nfn real() {}");
        assert!(p.fns[0].is_test);
        assert!(!p.fns[1].is_test);
    }

    #[test]
    fn bodiless_trait_methods_and_defaults() {
        let p =
            parse("trait Tracer: Sized { fn event(&mut self, t: u64); fn flush(&mut self) {} }");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Tracer"));
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn visibility_and_trait_surface_are_recorded() {
        let p = parse(
            "pub fn a() {}\npub(crate) fn b() {}\npub const unsafe fn c() {}\nfn d() {}\n\
             impl Foo { pub fn e(&self) {} }\n\
             impl fmt::Display for Foo { fn fmt(&self) {} }\n\
             impl<T> Bar<T> where T: for<'a> Fn(&'a u8) { pub fn g(&self) {} }\n\
             trait Tr { fn h(&self) {} }",
        );
        let flags: Vec<(&str, bool, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.in_trait_impl))
            .collect();
        assert_eq!(
            flags,
            [
                ("a", true, false),
                ("b", false, false),
                ("c", true, false),
                ("d", false, false),
                ("e", true, false),
                ("fmt", false, true),
                ("g", true, false),
                ("h", false, true),
            ]
        );
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parse("struct H { cb: fn(u32) -> u32 } fn real() {}");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn use_trees_flatten_with_aliases() {
        let p = parse("use ecolb_cluster::balance::{balance_round, BalanceOutcome as Out};\nuse ecolb_simcore::par::*;");
        assert_eq!(
            p.uses,
            vec![
                UseImport {
                    segments: vec![
                        "ecolb_cluster".into(),
                        "balance".into(),
                        "balance_round".into()
                    ],
                    alias: "balance_round".into(),
                    line: 1,
                },
                UseImport {
                    segments: vec![
                        "ecolb_cluster".into(),
                        "balance".into(),
                        "BalanceOutcome".into()
                    ],
                    alias: "Out".into(),
                    line: 1,
                },
            ]
        );
    }

    #[test]
    fn tuple_patterns_bind_every_name() {
        let p = parse("fn f((seed, size): (u64, usize), mut rest: Vec<u32>) {}");
        assert_eq!(p.fns[0].params, vec!["seed", "size", "rest"]);
    }
}
