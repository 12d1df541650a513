//! Runs every workload of `BENCHMARK.json` at smoke size, untraced and
//! traced, and checks the result line against the declared metrics:
//! each declared metric is emitted once with its unit and a finite
//! value, nothing undeclared is emitted, and no correctness check
//! failed.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Debug, Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

#[derive(Debug, Deserialize)]
struct Workload {
    name: String,
}

#[derive(Debug, Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Debug, Deserialize)]
struct Emitted {
    value: f64,
    unit: String,
}

#[derive(Debug, Deserialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Emitted>,
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the crate sits two levels below the repository root")
        .to_path_buf()
}

fn benchmark() -> Benchmark {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn run(workload: &str, traced: bool) -> Line {
    let out = std::env::temp_dir().join(format!(
        "socrates-benchmark-smoke-{}-{workload}-{traced}.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_socrates-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.1",
            "--smoke",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} (traced {traced}) exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(out.exists(), "the run record was written");
    std::fs::remove_file(&out).ok();
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is the result object")
}

fn check(workload: &str) {
    let bench = benchmark();
    assert!(
        bench.workloads.iter().any(|w| w.name == workload),
        "{workload} is declared in BENCHMARK.json"
    );
    for (traced, declared) in [(false, &bench.end_to_end), (true, &bench.per_layer)] {
        let line = run(workload, traced);
        assert!(line.correct && line.failed == 0, "{workload}: {line:?}");
        assert!(line.attempted >= 1, "{workload}: no check attempted");
        let names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
        let emitted: Vec<&str> = line.metrics.keys().map(String::as_str).collect();
        let mut expected = names.clone();
        expected.sort_unstable();
        assert_eq!(
            emitted, expected,
            "{workload} (traced {traced}): metric set"
        );
        for d in declared {
            assert!(valid_name(&d.name), "bad metric name {:?}", d.name);
            let m = &line.metrics[&d.name];
            assert_eq!(m.unit, d.unit, "{workload}: unit of {}", d.name);
            assert!(m.value.is_finite(), "{workload}: {} = {}", d.name, m.value);
        }
    }
}

#[test]
fn benchmark_json_declares_every_workload() {
    let names: Vec<String> = benchmark().workloads.into_iter().map(|w| w.name).collect();
    assert_eq!(
        names,
        [
            "design-batch",
            "online-drift",
            "event-diurnal",
            "dist-gossip"
        ]
    );
}

#[test]
fn design_batch_smoke() {
    check("design-batch");
}

#[test]
fn online_drift_smoke() {
    check("online-drift");
}

#[test]
fn event_diurnal_smoke() {
    check("event-diurnal");
}

#[test]
fn dist_gossip_smoke() {
    check("dist-gossip");
}
