//! Command-line errors of the regenerator binaries: bad input prints an
//! `error:` line and the usage line and exits 2, a failed result write
//! names its path and exits 1, and no binary panics on either.

use std::path::Path;
use std::process::{Command, Output};

/// Every regenerator binary, by name.
const BINS: [(&str, &str); 14] = [
    ("all", env!("CARGO_BIN_EXE_all")),
    ("chaos_sweep", env!("CARGO_BIN_EXE_chaos_sweep")),
    ("faults_sweep", env!("CARGO_BIN_EXE_faults_sweep")),
    ("fig2", env!("CARGO_BIN_EXE_fig2")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("homogeneous", env!("CARGO_BIN_EXE_homogeneous")),
    ("policies", env!("CARGO_BIN_EXE_policies")),
    ("resilience_sweep", env!("CARGO_BIN_EXE_resilience_sweep")),
    ("serve_rq", env!("CARGO_BIN_EXE_serve_rq")),
    ("sweep", env!("CARGO_BIN_EXE_sweep")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("tournament", env!("CARGO_BIN_EXE_tournament")),
    ("trace_dump", env!("CARGO_BIN_EXE_trace_dump")),
];

fn run(exe: &str, args: &[&str]) -> (Output, String) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stderr)
}

fn assert_usage_error(exe: &str, args: &[&str]) {
    let (out, stderr) = run(exe, args);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(stderr.lines().any(|l| l.starts_with("error:")), "{stderr}");
    assert!(stderr.lines().any(|l| l.starts_with("usage:")), "{stderr}");
}

#[test]
fn zero_cluster_size_is_a_usage_error() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_table2"),
        &["--sizes", "0", "--intervals", "1"],
    );
}

#[test]
fn every_binary_rejects_a_bad_seed_and_unknown_arguments() {
    // `table1` and `homogeneous` take no flags, so any argument is one.
    for (_, exe) in BINS {
        assert_usage_error(exe, &["--seed", "x"]);
        assert_usage_error(exe, &["--seed"]);
        assert_usage_error(exe, &["--bogus"]);
    }
}

#[test]
fn flags_a_binary_does_not_read_are_rejected() {
    let fig2 = env!("CARGO_BIN_EXE_fig2");
    assert_usage_error(fig2, &["--sizes", "5", "--intervals", "1", "--csv", "D"]);
    let sweep = env!("CARGO_BIN_EXE_sweep");
    assert_usage_error(sweep, &["--sizes", "5", "--intervals", "1", "--csv", "D"]);
    // `sweep` always runs the quick sizes, so `--quick` would change nothing.
    assert_usage_error(sweep, &["--sizes", "5", "--intervals", "1", "--quick"]);
    assert_usage_error(env!("CARGO_BIN_EXE_policies"), &["--sizes", "5"]);
}

#[test]
fn help_prints_the_documented_usage_line() {
    for (name, exe) in BINS {
        let (out, stderr) = run(exe, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{name} --help: {stderr}");
        let usage = stderr
            .strip_prefix("usage: ")
            .and_then(|u| u.strip_suffix('\n'))
            .unwrap_or_else(|| panic!("{name} --help printed {stderr:?}"));
        // The binary's `//!` block shows the same line as a cargo command.
        let command = match usage.split_once(' ') {
            Some((bin, flags)) => format!("--bin {bin} -- {flags}\n"),
            None => format!("--bin {usage}\n"),
        };
        let source = std::fs::read_to_string(format!("src/bin/{name}.rs")).expect("source");
        assert!(
            source.contains(&format!("//! cargo run --release -p ecolb-bench {command}")),
            "{name}: the usage block does not show `{usage}`"
        );
    }
}

#[test]
fn a_failed_write_names_its_path_and_exits_1() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_failed_write");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("file");
    std::fs::write(&file, "a regular file, not a directory").expect("write blocker");
    let under_file = file.join("out");
    let out = under_file.to_str().expect("utf-8 temp path");
    let matrix: &[&str] = &["--sizes", "5", "--intervals", "1", "--csv", out];
    let serve: &[&str] = &["--servers", "2", "--intervals", "1"];
    let cases = [
        (env!("CARGO_BIN_EXE_all"), matrix.to_vec()),
        (env!("CARGO_BIN_EXE_fig3"), matrix.to_vec()),
        (env!("CARGO_BIN_EXE_table2"), matrix.to_vec()),
        (
            env!("CARGO_BIN_EXE_serve_rq"),
            [serve, &["--csv", out]].concat(),
        ),
        (
            env!("CARGO_BIN_EXE_resilience_sweep"),
            [serve, &["--plans", "1", "--seed", "1", "--csv", out]].concat(),
        ),
        (
            env!("CARGO_BIN_EXE_trace_dump"),
            [serve, &["--out", out]].concat(),
        ),
    ];
    for (exe, args) in cases {
        let (output, stderr) = run(exe, &args);
        assert_eq!(output.status.code(), Some(1), "{exe} {args:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with(&format!("error: {out}/"))),
            "{exe}: {stderr}"
        );
    }
}
