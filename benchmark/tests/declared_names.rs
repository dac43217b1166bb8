//! Runs the built benchmark the way the driver does and checks that
//! what it prints is exactly what `BENCHMARK.json` declares: every
//! workload runs, and each run's metric names and units equal the
//! declared end-to-end set (`--trace 0`) or per-layer set
//! (`--trace 1`) — nothing undeclared, nothing missing.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"`/`"unit"` pairs of the entries of `section`, read with
/// plain string searches: each entry sits on its own line.
fn declared(section: &str) -> Vec<(String, Option<String>)> {
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_owned())
    };
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\": ["))
        .expect("section is declared");
    BENCHMARK_JSON[start..]
        .lines()
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
        .map(|l| {
            (
                field(l, "name").expect("entry has a name"),
                field(l, "unit"),
            )
        })
        .collect()
}

/// The `"name": {"value": …, "unit": "…"}` pairs of a result line.
fn printed(result: &str) -> Vec<(String, Option<String>)> {
    let metrics = &result[result.find("\"metrics\": {").expect("result has metrics") + 12..];
    metrics
        .split("}, ")
        .filter_map(|entry| {
            let name = entry.split('"').nth(1)?;
            let unit = entry.rsplit('"').nth(1)?;
            Some((name.to_owned(), Some(unit.to_owned())))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--smoke",
            "--trace",
            trace,
        ])
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("output is utf-8");
    let last = stdout.lines().last().expect("a result line").to_owned();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
    last
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let workloads = declared("workloads");
    assert_eq!(workloads.len(), 7);
    for (workload, _) in &workloads {
        assert_eq!(
            printed(&run(workload, "0")),
            declared("end_to_end"),
            "{workload} --trace 0"
        );
        assert_eq!(
            printed(&run(workload, "1")),
            declared("per_layer"),
            "{workload} --trace 1"
        );
    }
}

#[test]
fn undeclared_workloads_and_bad_arguments_print_no_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--seconds", "0"],
        &["run", "--frobnicate"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("the benchmark starts");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
