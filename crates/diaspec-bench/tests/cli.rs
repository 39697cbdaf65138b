//! The `experiments` command line: unknown arguments are usage errors,
//! never silently ignored.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Exit status 2, the offender named, the valid flags listed, and no
/// experiment started.
fn assert_usage_error(args: &[&str], offender: &str) {
    let output = experiments(args);
    assert_eq!(output.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains(&format!("`{offender}`")), "{stderr}");
    assert!(stderr.contains("--check-bench-json [path]"), "{stderr}");
    assert!(output.stdout.is_empty(), "{args:?} started a run");
}

#[test]
fn retired_and_unknown_flags_are_usage_errors() {
    assert_usage_error(&["--shards", "4"], "--shards");
    assert_usage_error(&["--only", "e18", "--bogus"], "--bogus");
    assert_usage_error(&["--only"], "--only");
}

#[test]
fn list_covers_the_whole_index() {
    let output = experiments(&["--list"]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.starts_with("E1-E22 experiment index"), "{stdout}");
    assert!(stdout.contains("e22"), "{stdout}");
    assert!(stdout.contains("tests/cross_design.rs"), "{stdout}");
}
