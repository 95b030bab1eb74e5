//! The rule engine: six determinism/robustness rules over a token stream.
//!
//! Each rule is a pure function from `(FileContext, tokens)` to findings.
//! Rules are lexical by design — they catch the hazard *classes* that have
//! actually bitten deterministic simulations (wall clocks, unordered
//! iteration, ambient RNG state, environment reads, silent float
//! truncation, panic creep) without needing a type checker. The trade-off
//! is documented per rule: a value laundered through a binding can evade
//! the float-cast rule, for instance, but the audited conversion helpers in
//! `ecolb_metrics::convert` make the honest path cheaper than the evasive
//! one.

use crate::lexer::{Token, TokenKind};

/// Crates whose code is on the simulation path: anything here must be
/// bit-reproducible, so unordered collections and ambient state are banned.
pub const SIM_PATH_CRATES: &[&str] = &[
    "simcore",
    "cluster",
    "energy",
    "workload",
    "policies",
    "trace",
    "chaos",
    "serve",
    "scenarios",
];

/// All rule identifiers, in reporting order. The first seven are token
/// rules from this module; the last five come from the call-graph layer
/// ([`crate::reach`], [`crate::unreached`]) and the suppression engine
/// ([`crate::engine`]).
pub const ALL_RULES: &[&str] = &[
    "no-wallclock",
    "no-unordered-collections",
    "no-ambient-rng",
    "no-env-reads",
    "float-truncating-cast",
    "float-reduction-order",
    "panic-budget",
    "sim-path-purity",
    "seed-provenance",
    "silent-result-drop",
    "unreached-pub-fn",
    "stale-suppression",
];

/// Where a source file sits in the workspace — determines which rules
/// apply and at what strictness.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Owning crate: the directory name under `crates/` (e.g. `cluster`),
    /// or `root` for the façade package's own `src/` and `tests/`.
    pub krate: String,
    /// True for binary targets: `src/bin/*`, `src/main.rs`, `examples/*`.
    pub is_bin: bool,
    /// True for integration-test files (under a `tests/` directory).
    pub is_test: bool,
    /// True for `benchmark/` sources: read only as roots of
    /// `unreached-pub-fn`, never reported on.
    pub roots_only: bool,
}

impl FileContext {
    /// Derives the context from a workspace-relative path.
    pub fn from_path(path: &str) -> FileContext {
        let norm = path.replace('\\', "/");
        let krate = norm
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("root")
            .to_string();
        let is_bin = norm.contains("/src/bin/")
            || norm.ends_with("src/main.rs")
            || norm.starts_with("examples/");
        let is_test = norm.split('/').any(|c| c == "tests" || c == "benches");
        let roots_only = norm.starts_with("benchmark/");
        FileContext {
            path: norm,
            krate,
            is_bin,
            is_test,
            roots_only,
        }
    }
}

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (one of [`ALL_RULES`], or `suppression` for
    /// malformed allow directives).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Call-path witness for reachability findings (entry point first,
    /// violating function last); empty for token-level findings.
    pub witness: Vec<String>,
}

fn finding(rule: &'static str, ctx: &FileContext, tok: &Token, message: String) -> Finding {
    Finding {
        rule,
        path: ctx.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
        witness: Vec::new(),
    }
}

/// Index of the matching closing delimiter for the opener at `open`
/// (`(`/`)`, `[`/`]`, `{`/`}`), or `tokens.len()` when unbalanced.
pub fn matching_close(tokens: &[Token], open: usize) -> usize {
    let (o, c) = match tokens[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return open,
    };
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

/// Index of the matching opening delimiter for the closer at `close`, or 0.
pub fn matching_open(tokens: &[Token], close: usize) -> usize {
    let (o, c) = match tokens[close].text.as_str() {
        ")" => ('(', ')'),
        "]" => ('[', ']'),
        "}" => ('{', '}'),
        _ => return close,
    };
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        if tokens[i].is_punct(c) {
            depth += 1;
        } else if tokens[i].is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    0
}

/// True when tokens `i-2..i` are `::` (two consecutive `:` puncts).
fn path_sep_before(tokens: &[Token], i: usize) -> bool {
    i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':')
}

/// Token spans `(open, close)` of every `par::map(…)` /
/// `par::map_indexed(…)` argument list (`open` is the index of the `(`,
/// `close` its matching `)`). Shared by the RNG-reseed check and the
/// float-reduction-order rule.
pub fn par_map_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..tokens.len() {
        let is_par_map = tokens[i].kind == TokenKind::Ident
            && (tokens[i].text == "map" || tokens[i].text == "map_indexed")
            && path_sep_before(tokens, i)
            && i >= 3
            && tokens[i - 3].is_ident("par");
        if is_par_map && i + 1 < tokens.len() && tokens[i + 1].is_punct('(') {
            spans.push((i + 1, matching_close(tokens, i + 1)));
        }
    }
    spans
}

/// **no-wallclock** — `Instant` / `SystemTime` / `UNIX_EPOCH` are banned
/// outside `crates/bench` (the perf harness measures real elapsed time by
/// definition). Simulation code must advance `ecolb_simcore::time::SimTime`
/// only; a wall-clock read anywhere on the sim path makes runs
/// irreproducible.
pub fn no_wallclock(ctx: &FileContext, tokens: &[Token]) -> Vec<Finding> {
    if ctx.krate == "bench" {
        return Vec::new();
    }
    const BANNED: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];
    tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident && BANNED.contains(&t.text.as_str()))
        .map(|t| {
            finding(
                "no-wallclock",
                ctx,
                t,
                format!(
                    "wall-clock source `{}` outside crates/bench; use ecolb_simcore::time::SimTime",
                    t.text
                ),
            )
        })
        .collect()
}

/// **no-unordered-collections** — `HashMap` / `HashSet` / `RandomState`
/// are banned in sim-path crates. Their iteration order depends on the
/// per-process SipHash keys, so any fold over them silently breaks
/// byte-identical output; `BTreeMap` / `BTreeSet` / `Vec` are the
/// deterministic substitutes.
pub fn no_unordered_collections(ctx: &FileContext, tokens: &[Token]) -> Vec<Finding> {
    if !SIM_PATH_CRATES.contains(&ctx.krate.as_str()) {
        return Vec::new();
    }
    const BANNED: &[&str] = &["HashMap", "HashSet", "RandomState"];
    tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident && BANNED.contains(&t.text.as_str()))
        .map(|t| {
            finding(
                "no-unordered-collections",
                ctx,
                t,
                format!(
                    "`{}` iterates in hash order (per-process random); use BTreeMap/BTreeSet/Vec",
                    t.text
                ),
            )
        })
        .collect()
}

/// **no-ambient-rng** — two checks:
///
/// 1. Ambient entropy sources (`thread_rng`, `from_entropy`, `OsRng`,
///    `getrandom`, `ThreadRng`) are banned everywhere: every stream in the
///    simulator must derive from the experiment's single `u64` seed via
///    `ecolb_simcore::rng`.
/// 2. Inside a `par::map(…)` / `par::map_indexed(…)` call, constructing
///    `Rng::new(<literal-only args>)` is flagged: a constant reseed inside
///    a parallel closure gives every item the *same* stream, which is
///    almost always a bug — the seed must be a function of the item index.
pub fn no_ambient_rng(ctx: &FileContext, tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    const AMBIENT: &[&str] = &[
        "thread_rng",
        "from_entropy",
        "OsRng",
        "ThreadRng",
        "getrandom",
    ];
    for t in tokens {
        if t.kind == TokenKind::Ident && AMBIENT.contains(&t.text.as_str()) {
            out.push(finding(
                "no-ambient-rng",
                ctx,
                t,
                format!(
                    "ambient entropy source `{}`; all randomness must derive from the run seed via ecolb_simcore::rng",
                    t.text
                ),
            ));
        }
    }
    // par::map / par::map_indexed call spans.
    for (open, close) in par_map_spans(tokens) {
        let span = &tokens[open..close.min(tokens.len())];
        // Find Rng::new( … ) with literal-only arguments inside the span.
        for j in 0..span.len() {
            if span[j].is_ident("Rng")
                && j + 4 < span.len()
                && span[j + 1].is_punct(':')
                && span[j + 2].is_punct(':')
                && span[j + 3].is_ident("new")
                && span[j + 4].is_punct('(')
            {
                let arg_close = matching_close(span, j + 4);
                let args = &span[j + 5..arg_close.min(span.len())];
                let has_ident = args.iter().any(|t| t.kind == TokenKind::Ident);
                if !has_ident {
                    out.push(finding(
                        "no-ambient-rng",
                        ctx,
                        &span[j],
                        "index-free `Rng::new(<constant>)` inside a parallel map closure: every \
                         item gets the same stream; derive the seed from the item index"
                            .to_string(),
                    ));
                }
            }
        }
    }
    out
}

/// **no-env-reads** — `env::var` / `var_os` / `vars` reads are banned
/// outside binary targets and the one documented replay hook
/// (`ECOLB_PROP_SEED` / `ECOLB_PROP_CASES` in
/// `crates/simcore/src/proptest_lite.rs`). Library behaviour must be a
/// function of explicit arguments, not ambient process state.
pub fn no_env_reads(ctx: &FileContext, tokens: &[Token]) -> Vec<Finding> {
    if ctx.is_bin || ctx.path == "crates/simcore/src/proptest_lite.rs" {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "var" | "var_os" | "vars")
            && path_sep_before(tokens, i)
            && i >= 3
            && tokens[i - 3].is_ident("env")
        {
            out.push(finding(
                "no-env-reads",
                ctx,
                t,
                format!(
                    "`env::{}` outside a bin target; library behaviour must not depend on ambient \
                     environment (documented exception: ECOLB_PROP_SEED in proptest_lite)",
                    t.text
                ),
            ));
        }
    }
    out
}

/// **float-truncating-cast** — in `crates/energy` and `crates/metrics`, an
/// `as usize` / `as u64` / `as i64` (and friends) applied to an expression
/// with float evidence (a float literal, `f64`/`f32`, or a call to
/// `floor`/`ceil`/`round`/…) must go through the audited helpers in
/// `ecolb_metrics::convert`, which document the saturation and NaN
/// semantics in one place. The rule is lexical: it inspects the postfix
/// expression to the left of the `as`.
pub fn float_truncating_cast(ctx: &FileContext, tokens: &[Token]) -> Vec<Finding> {
    if !matches!(ctx.krate.as_str(), "energy" | "metrics") {
        return Vec::new();
    }
    // The helpers themselves are the single audited exception.
    if ctx.path == "crates/metrics/src/convert.rs" {
        return Vec::new();
    }
    const INT_TARGETS: &[&str] = &[
        "usize", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8", "isize", "u128", "i128",
    ];
    const FLOAT_EVIDENCE: &[&str] = &[
        "f64", "f32", "floor", "ceil", "round", "trunc", "sqrt", "powf", "powi", "exp", "ln",
        "log2", "log10",
    ];
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("as") || i + 1 >= tokens.len() || i == 0 {
            continue;
        }
        if !(tokens[i + 1].kind == TokenKind::Ident
            && INT_TARGETS.contains(&tokens[i + 1].text.as_str()))
        {
            continue;
        }
        // Walk the postfix expression ending just before `as`, collecting
        // its tokens: groups `(…)` / `[…]`, method-chain names, field
        // chains.
        let mut j = i as isize - 1;
        let mut collected: Vec<&Token> = Vec::new();
        loop {
            if j < 0 {
                break;
            }
            let t = &tokens[j as usize];
            if t.is_punct(')') || t.is_punct(']') {
                let open = matching_open(tokens, j as usize);
                collected.extend(&tokens[open..=j as usize]);
                j = open as isize - 1;
                // A name directly before the group (call or index base).
                if j >= 0 && tokens[j as usize].kind == TokenKind::Ident {
                    collected.push(&tokens[j as usize]);
                    j -= 1;
                }
            } else if matches!(t.kind, TokenKind::Ident | TokenKind::Int | TokenKind::Float) {
                collected.push(t);
                j -= 1;
            } else {
                break;
            }
            // Continue through `.` chains; otherwise the expression ends.
            if j >= 0 && tokens[j as usize].is_punct('.') {
                j -= 1;
            } else {
                break;
            }
        }
        let has_float_evidence = collected.iter().any(|t| {
            t.kind == TokenKind::Float
                || (t.kind == TokenKind::Ident && FLOAT_EVIDENCE.contains(&t.text.as_str()))
        });
        if has_float_evidence {
            out.push(finding(
                "float-truncating-cast",
                ctx,
                &tokens[i + 1],
                format!(
                    "float expression truncated with `as {}`; use ecolb_metrics::convert (audited \
                     saturation/NaN semantics)",
                    tokens[i + 1].text
                ),
            ));
        }
    }
    out
}

/// **float-reduction-order** — inside a `par::map(…)` /
/// `par::map_indexed(…)` call span in sim-path crates, float accumulation
/// is order-sensitive: resharding the map reassociates the reduction, so
/// an `f64` `+=` or `.sum()` fold silently changes bytes at a different
/// thread count. Flagged: `+=` in a statement with float evidence (a
/// float literal, `f64`/`f32`, or an identifier `let`-bound to one inside
/// the span), and `.sum()` / `.product()` with a float turbofish or float
/// evidence in the same statement. The fix is structural: return per-item
/// values from the closure and reduce *sequentially* over the collected
/// `Vec`, where the order is the item order.
pub fn float_reduction_order(ctx: &FileContext, tokens: &[Token]) -> Vec<Finding> {
    if !SIM_PATH_CRATES.contains(&ctx.krate.as_str()) {
        return Vec::new();
    }
    let is_float_evidence = |t: &Token| {
        t.kind == TokenKind::Float
            || (t.kind == TokenKind::Ident && matches!(t.text.as_str(), "f64" | "f32"))
    };
    let mut out = Vec::new();
    for (open, close) in par_map_spans(tokens) {
        let close = close.min(tokens.len());
        let span = &tokens[open..close];
        // Identifiers `let`-bound to a float inside the span: `let mut
        // acc = 0.0;` makes every later `acc += …` a float fold even when
        // that statement shows no literal.
        let mut float_idents: Vec<&str> = Vec::new();
        for j in 0..span.len() {
            if !span[j].is_ident("let") {
                continue;
            }
            let stmt_end = span[j..]
                .iter()
                .position(|t| t.is_punct(';'))
                .map(|p| j + p)
                .unwrap_or(span.len());
            if span[j..stmt_end].iter().any(|t| is_float_evidence(t)) {
                let mut k = j + 1;
                while k < stmt_end && matches!(span[k].text.as_str(), "mut" | "ref") {
                    k += 1;
                }
                if k < stmt_end && span[k].kind == TokenKind::Ident {
                    float_idents.push(span[k].text.as_str());
                }
            }
        }
        // Statement bounds around index `j` within the span.
        let stmt_around = |j: usize| {
            let start = span[..j]
                .iter()
                .rposition(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
                .map(|p| p + 1)
                .unwrap_or(0);
            let end = span[j..]
                .iter()
                .position(|t| t.is_punct(';') || t.is_punct('}'))
                .map(|p| j + p)
                .unwrap_or(span.len());
            (start, end)
        };
        let stmt_is_float = |a: usize, b: usize| {
            span[a..b].iter().any(|t| {
                is_float_evidence(t)
                    || (t.kind == TokenKind::Ident && float_idents.contains(&t.text.as_str()))
            })
        };
        for j in 0..span.len() {
            let plus_eq = span[j].is_punct('+')
                && span.get(j + 1).map(|t| t.is_punct('=')).unwrap_or(false)
                && span.get(j + 2).map(|t| !t.is_punct('=')).unwrap_or(true);
            if plus_eq {
                let (a, b) = stmt_around(j);
                if stmt_is_float(a, b) {
                    out.push(finding(
                        "float-reduction-order",
                        ctx,
                        &span[j],
                        "float `+=` inside a parallel map closure: the reduction order changes \
                         with the shard count; collect per-item values and reduce sequentially"
                            .to_string(),
                    ));
                }
                continue;
            }
            let is_sum = span[j].kind == TokenKind::Ident
                && matches!(span[j].text.as_str(), "sum" | "product")
                && j >= 1
                && span[j - 1].is_punct('.');
            if is_sum {
                let turbofish_float = j + 4 < span.len()
                    && span[j + 1].is_punct(':')
                    && span[j + 2].is_punct(':')
                    && span[j + 3].is_punct('<')
                    && matches!(span[j + 4].text.as_str(), "f64" | "f32");
                let (a, b) = stmt_around(j);
                if turbofish_float || stmt_is_float(a, b) {
                    out.push(finding(
                        "float-reduction-order",
                        ctx,
                        &span[j],
                        format!(
                            "float `.{}()` inside a parallel map closure: the fold order depends \
                             on sharding; reduce sequentially over the collected results",
                            span[j].text
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// A panic site found in library code (counted against the ratchet, not
/// reported individually unless a crate exceeds its budget).
pub type PanicSite = Finding;

/// **panic-budget** (collection half) — returns every `.unwrap()`,
/// `.expect(`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` site in
/// *library* code: bin targets, integration tests and `#[cfg(test)]`
/// modules are excluded. The engine aggregates the per-crate counts and
/// compares them against `lint/panic_budget.toml`.
pub fn panic_sites(ctx: &FileContext, tokens: &[Token]) -> Vec<PanicSite> {
    if ctx.is_bin || ctx.is_test {
        return Vec::new();
    }
    let skip = cfg_test_spans(tokens);
    let in_skip = |i: usize| skip.iter().any(|&(a, b)| i >= a && i <= b);
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if in_skip(i) {
            continue;
        }
        let t = &tokens[i];
        let is_unwrap_like = t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "unwrap" | "expect")
            && i >= 1
            && tokens[i - 1].is_punct('.')
            && i + 1 < tokens.len()
            && tokens[i + 1].is_punct('(');
        let is_panic_macro = t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && i + 1 < tokens.len()
            && tokens[i + 1].is_punct('!');
        if is_unwrap_like || is_panic_macro {
            out.push(finding(
                "panic-budget",
                ctx,
                t,
                format!("panic site `{}` in library code", t.text),
            ));
        }
    }
    out
}

/// Token index ranges covered by `#[cfg(test)]` items (usually
/// `mod tests { … }`). Attribute + following braced block; attribute +
/// `…;` items skip to the semicolon.
fn cfg_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 5 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let attr_close = matching_close(tokens, i + 1);
        // Find the item body: first `{` before any `;` → braced item;
        // otherwise skip to the `;`.
        let mut j = attr_close + 1;
        let mut end = None;
        while j < tokens.len() {
            if tokens[j].is_punct('{') {
                end = Some(matching_close(tokens, j));
                break;
            }
            if tokens[j].is_punct(';') {
                end = Some(j);
                break;
            }
            j += 1;
        }
        let end = end.unwrap_or(tokens.len() - 1);
        spans.push((i, end));
        i = end + 1;
    }
    spans
}

/// Runs every positional rule (everything except the panic-budget
/// aggregation) over one file.
pub fn check_tokens(ctx: &FileContext, tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(no_wallclock(ctx, tokens));
    out.extend(no_unordered_collections(ctx, tokens));
    out.extend(no_ambient_rng(ctx, tokens));
    out.extend(no_env_reads(ctx, tokens));
    out.extend(float_truncating_cast(ctx, tokens));
    out.extend(float_reduction_order(ctx, tokens));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(path: &str) -> FileContext {
        FileContext::from_path(path)
    }

    #[test]
    fn context_derivation() {
        let c = ctx("crates/cluster/src/leader.rs");
        assert_eq!(c.krate, "cluster");
        assert!(!c.is_bin && !c.is_test);
        let b = ctx("crates/bench/src/bin/sweep.rs");
        assert!(b.is_bin);
        let t = ctx("tests/determinism.rs");
        assert_eq!(t.krate, "root");
        assert!(t.is_test);
        let e = ctx("examples/quickstart.rs");
        assert!(e.is_bin);
    }

    #[test]
    fn wallclock_flagged_outside_bench_only() {
        let src = "use std::time::Instant; let t = Instant::now();";
        let toks = lex(src).tokens;
        assert_eq!(
            no_wallclock(&ctx("crates/simcore/src/engine.rs"), &toks).len(),
            2
        );
        assert!(no_wallclock(&ctx("crates/bench/src/perf.rs"), &toks).is_empty());
    }

    #[test]
    fn unordered_collections_scoped_to_sim_path() {
        let toks = lex("let m: HashMap<u32, u32> = HashMap::new();").tokens;
        assert_eq!(
            no_unordered_collections(&ctx("crates/cluster/src/x.rs"), &toks).len(),
            2
        );
        assert!(no_unordered_collections(&ctx("crates/metrics/src/x.rs"), &toks).is_empty());
    }

    #[test]
    fn constant_reseed_in_par_map_flagged() {
        let bad = "par::map_indexed(items, 4, |i, x| { let mut r = Rng::new(42); r.next_u64() })";
        let good = "par::map_indexed(items, 4, |i, x| { let mut r = Rng::new(seed ^ i as u64); r.next_u64() })";
        let c = ctx("crates/policies/src/farm.rs");
        assert_eq!(no_ambient_rng(&c, &lex(bad).tokens).len(), 1);
        assert!(no_ambient_rng(&c, &lex(good).tokens).is_empty());
    }

    #[test]
    fn rng_new_outside_par_map_is_fine() {
        let toks = lex("let r = Rng::new(7);").tokens;
        assert!(no_ambient_rng(&ctx("crates/simcore/src/rng.rs"), &toks).is_empty());
    }

    #[test]
    fn env_reads_allowed_in_bins_and_hook() {
        let toks = lex("let v = std::env::var(\"X\");").tokens;
        assert_eq!(
            no_env_reads(&ctx("crates/workload/src/traces.rs"), &toks).len(),
            1
        );
        assert!(no_env_reads(&ctx("crates/bench/src/bin/sweep.rs"), &toks).is_empty());
        assert!(no_env_reads(&ctx("crates/simcore/src/proptest_lite.rs"), &toks).is_empty());
    }

    #[test]
    fn float_cast_needs_evidence() {
        let c = ctx("crates/metrics/src/histogram.rs");
        let flagged = "let i = (x * self.counts.len() as f64) as usize;";
        assert_eq!(float_truncating_cast(&c, &lex(flagged).tokens).len(), 1);
        let method = "let i = v.round() as usize;";
        assert_eq!(float_truncating_cast(&c, &lex(method).tokens).len(), 1);
        let int_ok = "let i = self.n_disks as u64;";
        assert!(float_truncating_cast(&c, &lex(int_ok).tokens).is_empty());
        let other_crate = ctx("crates/cluster/src/balance.rs");
        assert!(float_truncating_cast(&other_crate, &lex(flagged).tokens).is_empty());
    }

    #[test]
    fn float_accumulation_in_par_map_flagged() {
        let c = ctx("crates/cluster/src/balance.rs");
        let direct = "par::map(items, 4, |x| { let mut acc = 0.0f64; acc += x.load; acc })";
        assert_eq!(float_reduction_order(&c, &lex(direct).tokens).len(), 1);
        let turbo = "par::map(items, 4, |x| x.samples.iter().sum::<f64>())";
        assert_eq!(float_reduction_order(&c, &lex(turbo).tokens).len(), 1);
        let int_fold = "par::map(items, 4, |x| { let mut n = 0u64; n += x.count; n })";
        assert!(float_reduction_order(&c, &lex(int_fold).tokens).is_empty());
        let outside = "let total: f64 = results.iter().sum();";
        assert!(float_reduction_order(&c, &lex(outside).tokens).is_empty());
        let off_path = ctx("crates/metrics/src/histogram.rs");
        assert!(float_reduction_order(&off_path, &lex(direct).tokens).is_empty());
    }

    #[test]
    fn panic_sites_skip_cfg_test_and_bins() {
        let src = "fn f() { x.unwrap(); panic!(\"boom\"); }\n\
                   #[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }";
        let toks = lex(src).tokens;
        assert_eq!(panic_sites(&ctx("crates/cluster/src/x.rs"), &toks).len(), 2);
        assert!(panic_sites(&ctx("crates/bench/src/bin/all.rs"), &toks).is_empty());
        assert!(panic_sites(&ctx("tests/determinism.rs"), &toks).is_empty());
    }

    #[test]
    fn unwrap_err_is_not_counted() {
        let toks = lex("let pos = list.binary_search(&x).unwrap_err();").tokens;
        assert!(panic_sites(&ctx("crates/simcore/src/event.rs"), &toks).is_empty());
    }
}
