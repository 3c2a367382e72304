//! Self-test of the benchmark at a tiny subsample of the design space.
//!
//! 1. Every metric `BENCHMARK.json` declares is emitted by every workload,
//!    with its declared unit on the result line and its declared
//!    direction on the context line above it, and an uncorrupted run
//!    passes every check.
//! 2. An output corrupted on purpose (`--corrupt`, the same point in every
//!    pass) is caught by an output check: `failed` rises above 0,
//!    `correct` turns false, and the failure notes name an output check,
//!    never the pass-to-pass identity check.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::PathBuf;
use std::process::Command;

use json::Json;

/// Every 24th SoC: 16 of the 372. The B&B slice (every 12th of them) then
/// holds two SoCs and reaches branch and bound; at every 31st SoC the
/// slice is one SoC the sweep closes before B&B.
const STEP: &str = "24";

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn manifest() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs one workload and returns its context line, its result line and
/// its standard error.
fn run(workload: &str, seed: &str, trace: &str, corrupt: bool) -> (Json, Json, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(repo_root()).args([
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--step",
        STEP,
    ]);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd.output().expect("perfbench runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected a context and a result line"
    );
    let context = Json::parse(lines[lines.len() - 2]).expect("context line parses");
    let result = Json::parse(lines[lines.len() - 1]).expect("result line parses");
    (context, result, stderr)
}

fn workloads() -> Vec<String> {
    manifest()
        .get("workloads")
        .expect("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::str).expect("name").to_string())
        .collect()
}

fn check_emitted(section: &str, trace: &str) {
    let declared = manifest();
    let declared = declared.get(section).expect("metric section").arr();
    for workload in workloads() {
        let (context, result, stderr) = run(&workload, "1", trace, false);
        let metrics = result.get("metrics").expect("metrics object");
        let detail = context.get("metrics").expect("metric detail").arr();
        assert_eq!(
            detail.len(),
            declared.len(),
            "{workload}: emits a different number of {section} metrics than declared"
        );
        for d in declared {
            let name = d.get("name").and_then(Json::str).expect("metric name");
            let unit = d.get("unit").and_then(Json::str).expect("metric unit");
            let better = d
                .get("better")
                .and_then(Json::str)
                .expect("metric direction");
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
            assert!(
                m.get("value").and_then(Json::num).is_some(),
                "{workload}: {name} has no value"
            );
            assert_eq!(
                m.get("unit").and_then(Json::str),
                Some(unit),
                "{workload}: {name} unit"
            );
            let row = detail
                .iter()
                .find(|r| r.get("name").and_then(Json::str) == Some(name))
                .unwrap_or_else(|| panic!("{workload}: {name} missing from the context line"));
            assert_eq!(
                row.get("better").and_then(Json::str),
                Some(better),
                "{workload}: {name}"
            );
        }
        assert!(result
            .get("attempted")
            .and_then(Json::num)
            .is_some_and(|a| a >= 1.0));
        assert_eq!(
            result.get("correct").and_then(Json::bool),
            Some(true),
            "{workload}: an uncorrupted run failed a check:\n{stderr}"
        );
    }
}

#[test]
fn every_end_to_end_metric_is_emitted() {
    check_emitted("end_to_end", "0");
}

#[test]
fn every_per_layer_metric_is_emitted() {
    check_emitted("per_layer", "1");
}

#[test]
fn a_corrupted_output_fails_the_run() {
    for workload in workloads() {
        let (_, result, stderr) = run(&workload, "1", "0", true);
        let failed = result.get("failed").and_then(Json::num).expect("failed");
        assert!(
            failed > 0.0,
            "{workload}: the corrupted output went unnoticed"
        );
        assert_eq!(result.get("correct").and_then(Json::bool), Some(false));
        assert!(
            stderr.contains("failed its check"),
            "{workload}: no output check caught the corruption:\n{stderr}"
        );
        assert!(
            !stderr.contains("differs from the first"),
            "{workload}: the corruption broke pass identity:\n{stderr}"
        );
    }
}
