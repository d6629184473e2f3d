//! Exit-status contracts of the two binaries on bad input: a report
//! `prodigy-diff` cannot parse, and a command line `prodigy-eval` cannot
//! accept, both exit 2 with a message, never a crash or a silent run.

use prodigy_bench::experiments::EXPERIMENT_NAMES;
use std::process::{Command, Output};

#[test]
fn deeply_nested_report_exits_2_instead_of_overflowing_the_stack() {
    let dir = std::env::temp_dir().join(format!("prodigy-diff-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_prodigy-diff"))
        .arg(&deep)
        .arg(&deep)
        .output()
        .expect("prodigy-diff runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("nesting deeper"), "{stderr}");
}

fn eval(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prodigy-eval"))
        .args(args)
        .output()
        .expect("prodigy-eval runs")
}

#[test]
fn eval_unknown_flag_exits_2_and_names_it() {
    // `--host-profile` was removed; old scripts that pass it must fail
    // loudly rather than run unprofiled.
    for flag in ["--no-such-flag", "--host-profile"] {
        let out = eval(&["--scale", "64", flag, "fig02"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
}

#[test]
fn eval_unknown_experiment_exits_2() {
    let out = eval(&["--scale", "64", "fig99"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment \"fig99\""), "{stderr}");
}

#[test]
fn eval_shard_index_beyond_count_exits_2() {
    let out = eval(&["--scale", "64", "--shard", "3/2", "fig02"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("3/2"), "{stderr}");
}

#[test]
fn eval_help_lists_every_experiment() {
    let out = eval(&["--help"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let listed: Vec<&str> = stderr
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .expect("usage has an experiments line")
        .split_whitespace()
        .collect();
    assert_eq!(listed, EXPERIMENT_NAMES, "{stderr}");
}
