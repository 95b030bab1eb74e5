//! The golden-file check shared by the golden-trace tests.

use ecolb_simcore::par::map_indexed;

/// Reads the golden file at `path`; `test` names the test target that
/// blesses it.
pub fn golden(test: &str, path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("{path} missing — bless it with `ECOLB_BLESS=1 cargo test --test {test}`")
    })
}

/// Pins the files `render` produces, one per path in `paths`, byte for
/// byte. With `ECOLB_BLESS` set it rewrites the golden files instead.
/// Otherwise it compares a fresh render against them, then renders again
/// inside the hermetic `par` fan-out at 1, 2 and 8 threads: worker
/// scheduling must never leak into a run.
pub fn assert_golden<const N: usize>(
    test: &str,
    paths: [&str; N],
    render: impl Fn() -> [String; N] + Sync,
) {
    let rendered = render();
    // ecolb-lint: allow(no-env-reads, "deliberate bless seam for regenerating the golden files")
    if std::env::var_os("ECOLB_BLESS").is_some() {
        for (path, bytes) in paths.iter().zip(&rendered) {
            std::fs::write(path, bytes).expect("write golden file");
            eprintln!("blessed {path} ({} bytes)", bytes.len());
        }
        return;
    }
    let golden = paths.map(|path| golden(test, path));
    for ((path, bytes), golden) in paths.iter().zip(&rendered).zip(&golden) {
        assert_eq!(
            bytes, golden,
            "{path} diverged; if the change is intended, re-bless with ECOLB_BLESS=1"
        );
    }
    for threads in [1usize, 2, 8] {
        let runs = map_indexed(vec![(); threads], threads, |_, ()| render());
        for (worker, run) in runs.iter().enumerate() {
            assert_eq!(run, &golden, "worker {worker} of {threads} diverged");
        }
    }
}
