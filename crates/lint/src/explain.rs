//! `--explain <rule>`: per-rule documentation with a bad/good example.

/// One rule's explanation card.
pub struct Explanation {
    /// Rule identifier.
    pub rule: &'static str,
    /// What the rule protects and why it exists in this repo.
    pub doc: &'static str,
    /// A minimal violating snippet.
    pub bad: &'static str,
    /// The deterministic rewrite.
    pub good: &'static str,
}

/// Looks up the explanation card for `rule`.
pub fn explain(rule: &str) -> Option<&'static Explanation> {
    CARDS.iter().find(|c| c.rule == rule)
}

/// All explanation cards, in [`crate::rules::ALL_RULES`] order (plus the
/// `suppression` policing pseudo-rule).
pub const CARDS: &[Explanation] = &[
    Explanation {
        rule: "no-wallclock",
        doc: "Wall-clock sources (Instant, SystemTime, UNIX_EPOCH) are banned outside \
              crates/bench. Simulated time advances only through ecolb_simcore::time::SimTime; \
              a real-time read anywhere on the sim path makes two runs of the same seed \
              diverge, which breaks the byte-identical replay guarantee every experiment \
              table depends on.",
        bad: "let started = Instant::now();\nreport.elapsed = started.elapsed().as_secs_f64();",
        good: "let started = sim.now();          // SimTime, advanced by the engine\nreport.elapsed = sim.now() - started;",
    },
    Explanation {
        rule: "no-unordered-collections",
        doc: "HashMap/HashSet iterate in SipHash order, randomized per process, so any fold \
              over them silently changes output bytes between runs. Sim-path crates must use \
              BTreeMap/BTreeSet/Vec, whose iteration order is a function of the data alone.",
        bad: "let mut vms: HashMap<u32, Vm> = HashMap::new();\nfor (id, vm) in &vms { place(vm); }",
        good: "let mut vms: BTreeMap<u32, Vm> = BTreeMap::new();\nfor (id, vm) in &vms { place(vm); } // id order, every run",
    },
    Explanation {
        rule: "no-ambient-rng",
        doc: "Every random draw in the simulator must derive from the experiment's single u64 \
              seed via ecolb_simcore::rng, so a run is replayable from its seed alone. \
              Ambient entropy (thread_rng, OsRng, from_entropy, getrandom) breaks that; so \
              does reseeding with a constant inside a parallel closure, which hands every \
              shard the same stream.",
        bad: "let mut rng = thread_rng();\nlet jitter = rng.gen_range(0..10);",
        good: "let mut rng = Rng::new(seed ^ server_id as u64);\nlet jitter = rng.next_u64() % 10;",
    },
    Explanation {
        rule: "no-env-reads",
        doc: "Library behaviour must be a function of explicit arguments, not ambient process \
              state: env::var reads are allowed only in bin targets (and the documented \
              ECOLB_PROP_SEED replay hook in proptest_lite). An env read buried in a library \
              makes results depend on who ran them.",
        bad: "let threads = std::env::var(\"ECOLB_THREADS\").map(|v| v.parse().unwrap_or(1));",
        good: "pub fn run(cfg: &RunConfig) { let threads = cfg.threads; /* caller decides */ }",
    },
    Explanation {
        rule: "float-truncating-cast",
        doc: "In crates/energy and crates/metrics, `<float expr> as usize/u64/…` silently \
              truncates, saturates at the type bounds, and maps NaN to 0 — three behaviours \
              nobody chose. The audited helpers in ecolb_metrics::convert document the \
              saturation and NaN semantics in one place; use them.",
        bad: "let idx = (q * self.counts.len() as f64) as usize;",
        good: "let idx = ecolb_metrics::convert::f64_to_usize_saturating(q * self.counts.len() as f64);",
    },
    Explanation {
        rule: "float-reduction-order",
        doc: "Float addition is not associative, so an f64 `+=` or `.sum()` fold inside a \
              par::map closure changes bytes when the shard count changes — exactly the \
              non-determinism the 1/2/8-thread identity tests exist to catch. Return \
              per-item values from the closure and reduce sequentially over the collected \
              Vec, where the order is the item order.",
        bad: "par::map(shards, n, |s| { let mut e = 0.0f64; for r in s { e += r.energy; } e })",
        good: "let per_item = par::map(shards, n, |s| s.energy_vec());\nlet total: f64 = per_item.iter().flatten().fold(0.0, |a, x| a + x); // sequential, item order",
    },
    Explanation {
        rule: "panic-budget",
        doc: "Library-code panic sites (.unwrap/.expect/panic!/unreachable!/todo!/\
              unimplemented!) are counted per crate against lint/panic_budget.toml. The \
              budget is a one-way ratchet: exceeding it fails the lint, dropping below it \
              asks you to lower the budget (the run prints the exact lowered stanza). Bins, \
              tests and #[cfg(test)] modules are exempt.",
        bad: "let server = self.directory.get(&id).unwrap(); // panics on a stale id",
        good: "let server = match self.directory.get(&id) {\n    Some(s) => s,\n    None => return Err(DirectoryError::Stale(id)),\n};",
    },
    Explanation {
        rule: "sim-path-purity",
        doc: "Every function reachable from a sim entry point (Engine::run*, \
              Cluster::run_interval*, balance_round*, the *Sim drivers, the chaos harness) \
              must be free of wallclock/unordered-iteration/ambient-RNG/env hazards — \
              whatever crate it lives in. The call graph is conservative (name resolution, \
              over-approximate), and each finding carries a call-path witness from the entry \
              point to the violating function so you can see exactly why the helper is hot. \
              Suppress with the base rule's allow (e.g. allow(no-wallclock, …)) or \
              allow(sim-path-purity, …).",
        bad: "fn helper() -> u64 { SystemTime::now()… } // called (transitively) from balance_round",
        good: "fn helper(now: SimTime) -> u64 { now.as_micros() } // time flows in as an argument",
    },
    Explanation {
        rule: "seed-provenance",
        doc: "Every Rng::new / fault_stream construction reachable from a sim entry point \
              must derive its seed from something the caller passed in — a parameter, self, \
              or a local computed from one (a single forward taint pass follows let \
              bindings). A literal or ambient seed gives every run and every shard the same \
              stream, the classic 'all my replicas made the same decision' bug. Tests are \
              exempt.",
        bad: "fn evolve(&mut self) { let mut r = Rng::new(42); … } // same stream, every interval",
        good: "fn evolve(&mut self, seed: u64) { let mut r = Rng::new(seed ^ self.id as u64); … }",
    },
    Explanation {
        rule: "silent-result-drop",
        doc: "`let _ = f(…);` where f is a workspace function returning Result throws the \
              error path away without a trace — in a simulator that accounts for failures \
              (lost reports, failed consolidations), a dropped Result is usually an \
              accounting bug. Handle it, propagate with `?`, or write an allow with the \
              reason the error is genuinely ignorable. Macros (write!/writeln!) are not \
              flagged.",
        bad: "let _ = self.send_report(leader, report); // delivery failure vanishes",
        good: "if self.send_report(leader, report).is_err() {\n    self.degradation.lost_reports += 1;\n}",
    },
    Explanation {
        rule: "unreached-pub-fn",
        doc: "A library `pub fn` must be reached from a root: a binary or example, an \
              integration test, a doc test, another file's #[cfg(test)] code, or the \
              benchmark/src tree. The walk follows every identifier a reached body mentions \
              (calls, fn values, paths); trait bodies and `impl Trait for` blocks are never \
              findings. A `pub use` re-export is not a use. Surface nothing reaches is code \
              to maintain, document and keep in step for no caller: delete it, give it the \
              caller that needs it, or, if only its own file's tests use it as an oracle, \
              move it under #[cfg(test)].",
        bad: "pub fn mean_wake_latency_s(&self) -> f64 { … } // only its own unit test calls it",
        good: "#[cfg(test)]\nfn mean_wake_latency_s(r: &Report) -> f64 { … } // test oracle, not surface",
    },
    Explanation {
        rule: "stale-suppression",
        doc: "A well-formed allow directive that no longer suppresses any finding is itself \
              an error. Code moves; an allow that outlives its violation is a hole in the \
              fence — delete it (the inventory is one `--list-allows` away). This policing \
              finding is not suppressible.",
        bad: "// ecolb-lint: allow(no-wallclock, \"perf probe\")  <- the Instant below was removed\nlet t = self.sim_now;",
        good: "let t = self.sim_now; // directive deleted with the violation",
    },
    Explanation {
        rule: "suppression",
        doc: "Directive policing: an allow must name a known rule and carry a written reason \
              — `// ecolb-lint: allow(<rule>, \"why\")`. The reason is the review artifact; \
              a bare allow is indistinguishable from a silenced mistake. These findings are \
              not suppressible.",
        bad: "// ecolb-lint: allow(no-wallclock)",
        good: "// ecolb-lint: allow(no-wallclock, \"bench harness measures real elapsed time\")",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ALL_RULES;

    #[test]
    fn every_rule_has_a_card() {
        for rule in ALL_RULES {
            assert!(explain(rule).is_some(), "no --explain card for `{rule}`");
        }
        assert!(explain("suppression").is_some());
        assert!(explain("no-such-rule").is_none());
    }

    #[test]
    fn cards_are_self_consistent() {
        for c in CARDS {
            assert!(!c.doc.is_empty() && !c.bad.is_empty() && !c.good.is_empty());
            assert!(
                ALL_RULES.contains(&c.rule) || c.rule == "suppression",
                "card for unknown rule `{}`",
                c.rule
            );
        }
    }
}
