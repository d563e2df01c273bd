//! CLI hardening for `engine-bench`: malformed input must produce a
//! one-line stderr message and exit status 2 — never a panic. (The
//! happy path runs minutes of simulation, so it is exercised by the
//! committed `BENCH_engine.json` rather than a test.)

use std::process::Command;

fn assert_clean_failure(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_engine-bench"))
        .args(args)
        .output()
        .expect("spawn engine-bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, stderr: {stderr}"
    );
    assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: {stderr:?}");
    assert!(
        stderr.contains(needle),
        "{args:?} stderr {stderr:?} lacks {needle:?}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
}

#[test]
fn engine_bench_rejects_malformed_input() {
    assert_clean_failure(&["--reps", "0"], "positive integer");
    assert_clean_failure(&["--reps", "three"], "positive integer");
    assert_clean_failure(&["--out"], "needs a file path");
    assert_clean_failure(&["--out", "--reps"], "needs a file path");
    assert_clean_failure(&["--frobnicate"], "unknown argument");
    assert_clean_failure(&["--shards", "4"], "unknown argument");
    // Both modes are always timed: there is no engine choice to make.
    assert_clean_failure(&["--engine", "event"], "unknown argument");
    assert_clean_failure(&["--engine", "full-scan"], "unknown argument");
}
