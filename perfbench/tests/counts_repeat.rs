//! The count metrics of a traced run are properties of the seeded work,
//! not of timing: two runs of one seed must report them bit for bit.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

/// Per-layer metrics that must repeat exactly for a seed.
const COUNTS: &[&str] = &[
    "ctx.rebuilds",
    "ctx.prefetch_builds",
    "evolve.rhs_evals",
    "evolve.steps_accepted",
    "evolve.steps_rejected",
    "evolve.rhs_gflop",
    "evolve.stepper_gflop",
    "farm.bytes",
    "farm.messages",
    "service.hit_ratio",
];

/// Run one traced pass of `workload` with a zero-second window (the
/// count window still runs in full) and return its result line.
fn traced_result(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
            "--trace",
            "1",
        ])
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The `"value"` of metric `name` in a result line, as printed.
fn value<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let rest = &line[at..];
    &rest[..rest.find(',').expect("value ends with a comma")]
}

fn assert_counts_repeat(workload: &str, seed: u64) {
    let a = traced_result(workload, seed);
    let b = traced_result(workload, seed);
    for line in [&a, &b] {
        assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
    }
    for name in COUNTS {
        assert_eq!(
            value(&a, name),
            value(&b, name),
            "{workload}: {name} differs between runs"
        );
    }
}

#[test]
fn los_cl_counts_repeat() {
    assert_counts_repeat("los_cl", 7);
}

#[test]
fn hierarchy_cl_counts_repeat() {
    assert_counts_repeat("hierarchy_cl", 7);
}

#[test]
fn sweep_serve_counts_repeat() {
    assert_counts_repeat("sweep_serve", 7);
}
