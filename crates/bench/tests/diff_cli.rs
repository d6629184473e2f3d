//! `prodigy-diff` exit-status contract on malformed input: a report that
//! cannot be parsed exits 2 with a message, never a crash.

use std::process::Command;

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
