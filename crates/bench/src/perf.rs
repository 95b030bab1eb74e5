//! Wall-clock timing for the perf smoke tests.
//!
//! The former Criterion benches are now `#[test] #[ignore]`-gated smoke
//! tests (see `crates/bench/tests/perf_*.rs`): they regenerate the same
//! artifacts and time the same hot paths, but with plain
//! `std::time::Instant` instead of an external statistics harness — the
//! `src/bin` regenerators already measure end-to-end wall-clock, and a
//! smoke test only needs to catch order-of-magnitude regressions. Run
//! them with:
//!
//! ```text
//! cargo test -p ecolb-bench --release -- --ignored
//! ```

use ecolb_metrics::report::Report;
use std::io;
use std::time::Instant;

/// Writes a perf smoke's report to `results/perf/<id>.json`. The path is
/// relative to this crate's directory, the working directory of its
/// integration tests.
pub fn emit(report: &Report) -> io::Result<()> {
    std::fs::create_dir_all("../../results/perf")?;
    let path = format!("../../results/perf/{}.json", report.id);
    std::fs::write(&path, report.to_json())?;
    println!("wrote {path}");
    Ok(())
}

/// Runs `f` once as warm-up, then `iters` timed times, printing min /
/// mean / max per-iteration wall-clock. Returns the last result so
/// callers can assert on it (and so the work is not optimised away).
pub fn time<R>(label: &str, iters: u32, f: impl FnMut() -> R) -> R {
    time_min(label, iters, f).0
}

/// [`time`], also returning the fastest iteration's seconds.
pub fn time_min<R>(label: &str, iters: u32, mut f: impl FnMut() -> R) -> (R, f64) {
    assert!(iters > 0, "need at least one timed iteration");
    let mut result = f(); // warm-up, result reused so R need not be Default
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    let mut total = 0.0;
    for _ in 0..iters {
        let start = Instant::now();
        result = f();
        let s = start.elapsed().as_secs_f64();
        min = min.min(s);
        max = max.max(s);
        total += s;
    }
    println!(
        "perf {label}: min {:.3} ms / mean {:.3} ms / max {:.3} ms over {iters} iters",
        min * 1e3,
        total / iters as f64 * 1e3,
        max * 1e3,
    );
    (result, min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_last_result() {
        let mut n = 0u32;
        let r = time("counter", 3, || {
            n += 1;
            n
        });
        assert_eq!(r, 4, "one warm-up plus three timed iterations");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_iters_panics() {
        time("nope", 0, || ());
    }
}
