//! Command-line errors of the regenerator binaries: bad input prints the
//! usage error and exits 2 instead of panicking in a worker.

use std::process::Command;

fn assert_usage_error(exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.lines().any(|l| l.starts_with("error:")), "{stderr}");
}

#[test]
fn zero_cluster_size_is_a_usage_error() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_table2"),
        &["--sizes", "0", "--intervals", "1"],
    );
}

#[test]
fn policies_rejects_a_bad_seed_and_unknown_arguments() {
    assert_usage_error(env!("CARGO_BIN_EXE_policies"), &["--seed", "x"]);
    assert_usage_error(env!("CARGO_BIN_EXE_policies"), &["--bogus"]);
}
