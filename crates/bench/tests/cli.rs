//! Command-line errors of the regenerator binaries: bad input prints the
//! usage error and exits 2 instead of panicking in a worker.

use std::process::Command;

#[test]
fn zero_cluster_size_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--sizes", "0", "--intervals", "1"])
        .output()
        .expect("table2 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.lines().any(|l| l.starts_with("error:")), "{stderr}");
}
