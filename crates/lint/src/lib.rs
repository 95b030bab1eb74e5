//! # ecolb-lint
//!
//! Workspace-native static analysis enforcing the determinism and
//! robustness contracts of the `ecolb` simulator. The repo's headline
//! guarantee — byte-identical sweep output at any thread count — is a
//! *property of the source*, so this crate turns the conventions that
//! uphold it into machine-checked rules:
//!
//! | Rule | Layer | Protects against |
//! |---|---|---|
//! | `no-wallclock` | token | real-time reads on the sim path (`Instant`, `SystemTime`) |
//! | `no-unordered-collections` | token | hash-order iteration (`HashMap`/`HashSet`) in sim crates |
//! | `no-ambient-rng` | token | entropy not derived from the run seed; constant reseeds in parallel closures |
//! | `no-env-reads` | token | library behaviour depending on ambient environment |
//! | `float-truncating-cast` | token | silent `f64 → int` truncation in energy/metrics |
//! | `float-reduction-order` | token | order-sensitive float folds inside `par::map` closures |
//! | `panic-budget` | token | panic creep in library code (one-way ratchet) |
//! | `sim-path-purity` | graph | determinism hazards in *any* function reachable from a sim entry point |
//! | `seed-provenance` | graph | RNG streams on the sim path not derived from a seed parameter |
//! | `silent-result-drop` | graph | `let _ =` discarding a workspace `Result` in library code |
//! | `unreached-pub-fn` | graph | library `pub fn`s that no binary, example, test or benchmark reaches |
//! | `stale-suppression` | engine | allow directives that no longer suppress anything |
//!
//! The pipeline is a hand-rolled [`lexer`] (comments, nested block
//! comments, raw strings, char-vs-lifetime disambiguation) feeding a
//! [`rules`] engine, plus an item-level [`parse`]r that builds a
//! workspace symbol table, a conservative name-resolution call [`graph`],
//! a [`reach`]ability layer whose findings carry a call-path witness
//! (entry point → … → violating function), and the reverse walk from
//! binaries, tests and benchmark sources that finds [`unreached`] public
//! functions. Inline suppressions
//! (`// ecolb-lint: allow(no-wallclock, "why")` — the reason is mandatory,
//! the directive must start the comment) feed a usage ledger so stale
//! allows surface as errors; a per-crate panic [`budget`] ratchet and a
//! JSON [`report`] (via `ecolb_metrics::json`) round it out. Run it with:
//!
//! ```text
//! cargo run -p ecolb-lint --offline -- --workspace
//! ```
//!
//! Zero dependencies beyond the workspace's own `ecolb-metrics`, in
//! keeping with the hermetic-build contract.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod engine;
pub mod explain;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod reach;
pub mod report;
pub mod rules;
pub mod unreached;
pub mod walk;

pub use budget::{parse_budget, Budget};
pub use engine::check_file;
pub use report::{lint_files, lint_source, run_workspace, WorkspaceReport};
pub use rules::{FileContext, Finding, ALL_RULES};
