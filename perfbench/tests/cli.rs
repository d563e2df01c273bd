//! Tests of the benchmark itself: flag handling, and a reduced-size run
//! of every workload checked against the metric contract in
//! `BENCHMARK.json`.

use serde::Value;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "dense_aa_8x8x8",
    "full_machine_32x32x20",
    "sparse_streams_16x8x8",
    "paper_suite_quick",
];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

/// Run one workload at smoke size and return its stdout.
fn smoke(workload: &str, seed: &str, trace: &str) -> String {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--size",
        "smoke",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}:\n{stdout}",
        out.status
    );
    stdout
}

fn result_line(stdout: &str) -> Value {
    let last = stdout.lines().last().expect("output");
    serde_json::from_str(last).expect("last line is JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn contract(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    v.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{section} metric field {k}: {other:?}"),
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn fingerprint(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("netstats_fingerprint "))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("fingerprint line")
        .to_string()
}

fn check_result(stdout: &str, section: &str) {
    let result = result_line(stdout);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed"), Some(&Value::U64(0)), "{stdout}");
    assert!(matches!(result.get("attempted"), Some(Value::U64(n)) if *n >= 1));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Some(Value::F64(_) | Value::U64(_))),
                "{name} has no numeric value"
            );
            let unit = match m.get("unit") {
                Some(Value::Str(u)) => u.clone(),
                other => panic!("{name} unit {other:?}"),
            };
            (name.clone(), unit)
        })
        .collect();
    assert_eq!(printed, contract(section));
}

#[test]
fn malformed_flags_exit_2_with_one_line() {
    let cases: &[&[&str]] = &[
        &[],
        &["--workload"],
        &["--workload", "nope"],
        &["--workload", "dense_aa_8x8x8", "--seed", "x"],
        &["--workload", "dense_aa_8x8x8", "--seed", "-1"],
        &["--workload", "dense_aa_8x8x8", "--seconds", "0"],
        &["--workload", "dense_aa_8x8x8", "--seconds", "1.5"],
        &["--workload", "dense_aa_8x8x8", "--trace", "2"],
        &["--workload", "dense_aa_8x8x8", "--size", "huge"],
        &["--workload", "dense_aa_8x8x8", "--bogus"],
    ];
    for args in cases {
        let out = perfbench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("perfbench: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn every_workload_prints_its_metrics_and_traces_the_same_netstats() {
    for workload in WORKLOADS {
        let timed = smoke(workload, "43537", "0");
        check_result(&timed, "end_to_end");
        let traced = smoke(workload, "43537", "1");
        check_result(&traced, "per_layer");
        assert_eq!(fingerprint(&timed), fingerprint(&traced), "{workload}");
    }
}

#[test]
fn a_held_out_seed_passes_the_seed_independent_checks() {
    for workload in WORKLOADS {
        let a = smoke(workload, "7", "0");
        check_result(&a, "end_to_end");
        let b = smoke(workload, "7", "0");
        assert_eq!(fingerprint(&a), fingerprint(&b), "{workload} repeats");
    }
}
