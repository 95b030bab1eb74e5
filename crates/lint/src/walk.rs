//! Deterministic workspace walker.
//!
//! Collects every `.rs` file the lint should see, in sorted path order so
//! reports are byte-stable. Skips `target/`, hidden directories, and the
//! lint's own `fixtures/` tree (those files *intentionally* violate
//! rules — the self-tests feed them to the engine directly).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git", ".github", "results"];

/// Recursively collects `.rs` files under `dir` into `out`.
fn walk_dir(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            walk_dir(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Collects every workspace `.rs` source under `root`, returned as
/// workspace-relative forward-slash paths in sorted order.
///
/// The scan covers the façade package (`src/`, `tests/`, `examples/`),
/// every member under `crates/`, and `benchmark/src/`, which only the
/// `unreached-pub-fn` rule reads (as roots).
pub fn workspace_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "crates", "benchmark/src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_dir(&dir, &mut files)?;
        }
    }
    let mut rel: Vec<String> = files
        .into_iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rel.sort();
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_workspace() {
        // The lint crate lives at <root>/crates/lint.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/lint has a workspace root two levels up");
        let files = workspace_sources(root).expect("walk succeeds");
        assert!(files.iter().any(|f| f == "crates/simcore/src/engine.rs"));
        assert!(files.iter().any(|f| f == "tests/determinism.rs"));
        assert!(files.iter().any(|f| f == "benchmark/src/main.rs"));
        assert!(
            !files.iter().any(|f| f.contains("fixtures/")),
            "fixtures must be excluded from the walk"
        );
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk order is sorted/deterministic");
    }
}
