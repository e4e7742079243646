//! The experiment driver rejects ids it will not run: a typo must not read
//! as a successful (empty) run.

use std::process::Command;

fn run(id: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments")).arg(id).output().expect("spawn");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_id_prints_usage_and_fails() {
    let (code, stderr) = run("bogus");
    assert_ne!(code, Some(0));
    assert!(stderr.contains("unknown experiment") && stderr.contains("usage:"), "{stderr}");
}

#[test]
fn retired_id_points_at_the_benchmark_and_fails() {
    let (code, stderr) = run("serve");
    assert_ne!(code, Some(0));
    assert!(stderr.contains("benchmark/"), "{stderr}");
}
