//! rulekit's end-to-end benchmark: `/classify` through
//! `net → serve → chimera → core`, five workloads, every layer timed from
//! outside. See `README.md` for what each workload and metric is for.
//!
//! ```text
//! rulekit-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! rulekit-benchmark run-all [--seed <n>] [--seconds <s>] [--runs <k>] [--out <dir>] [--quick]
//! rulekit-benchmark compare <dir A> <dir B>
//! rulekit-benchmark manifest
//! ```

mod compare;
mod gen;
mod metrics;
mod probes;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// `--name value` anywhere in `args`.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let at = args.iter().position(|a| a == name)?;
    let value = args.get(at + 1).unwrap_or_else(|| usage(&format!("{name} needs a value")));
    Some(value.parse().unwrap_or_else(|_| usage(&format!("bad value {value:?} for {name}"))))
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: rulekit-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
         \x20      rulekit-benchmark run-all [--seed <n>] [--seconds <s>] [--runs <k>] [--out <dir>] [--quick]\n\
         \x20      rulekit-benchmark compare <dir A> <dir B>\n\
         \x20      rulekit-benchmark manifest",
        metrics::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run-all") => run_all(&args[1..]),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => match compare::compare(Path::new(a), Path::new(b)) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(flagged) => {
                    println!("{flagged} pairing(s) worse or unresolved");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            },
            _ => usage("compare needs two result-set directories"),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        _ => run_one(&args),
    }
}

/// Driver mode: one workload in this process, result line last.
fn run_one(args: &[String]) -> ExitCode {
    let workload: String =
        flag(args, "--workload").unwrap_or_else(|| usage("--workload is required"));
    if !metrics::WORKLOADS.iter().any(|w| w.name == workload) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let quick = args.iter().any(|a| a == "--quick");
    let seconds: f64 = if quick { 1.0 } else { metrics::RUN_SECONDS as f64 };
    let params = workloads::Params {
        workload,
        seed: flag(args, "--seed").unwrap_or(1),
        window: Duration::from_secs_f64(flag(args, "--seconds").unwrap_or(seconds)),
        trace: flag::<u8>(args, "--trace").unwrap_or(0) != 0,
        quick,
        out_dir: flag(args, "--out").unwrap_or_else(default_out_dir),
    };
    let outcome = workloads::run(&params);

    println!(
        "# {} seed {} window {:?} trace {}",
        params.workload, params.seed, params.window, params.trace
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    for (name, value) in &outcome.metrics {
        println!("{name:<32} {:>16.4} {}", finite(*value), metrics::unit_of(name));
    }
    let fields: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                finite(*value),
                metrics::unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child process per run: `runs` untraced runs and one traced run of
/// every workload, written as a result set under `--out`.
fn run_all(args: &[String]) -> ExitCode {
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = flag(args, "--seed").unwrap_or(1);
    let seconds: f64 =
        flag(args, "--seconds").unwrap_or(if quick { 1.0 } else { metrics::RUN_SECONDS as f64 });
    let runs: usize = flag(args, "--runs").unwrap_or(if quick { 1 } else { 5 });
    let out: PathBuf = flag(args, "--out").unwrap_or_else(default_out_dir);
    std::fs::create_dir_all(&out).expect("create result-set directory");
    let exe = std::env::current_exe().expect("own executable path");

    let mut problems: Vec<String> = Vec::new();
    for workload in &metrics::WORKLOADS {
        let mut child = |trace: bool| -> Option<probes::ResultLine> {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::piped());
            if quick {
                cmd.arg("--quick");
            }
            let output =
                cmd.spawn().and_then(|c| c.wait_with_output()).expect("run workload child");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let line = match probes::json_result_line(stdout.lines().last().unwrap_or("")) {
                Ok(line) => line,
                Err(e) => {
                    problems.push(format!(
                        "{}: no result line ({e}), exit {}",
                        workload.name, output.status
                    ));
                    return None;
                }
            };
            if !output.status.success() || !line.correct || line.failed > 0 {
                problems.push(format!(
                    "{}: exit {}, correct {}, {} of {} operations failed",
                    workload.name, output.status, line.correct, line.failed, line.attempted
                ));
            }
            let expected: Vec<&str> = if trace {
                metrics::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                metrics::END_TO_END.iter().map(|m| m.name).collect()
            };
            for name in expected {
                if !line.metrics.iter().any(|(n, _)| n == name) {
                    problems.push(format!("{}: metric {name} missing", workload.name));
                }
            }
            Some(line)
        };
        let untraced: Vec<String> = (0..runs)
            .filter_map(|_| child(false))
            .map(|line| compare::metrics_json(&line.metrics))
            .collect();
        let traced =
            child(true).map_or("{}".to_string(), |line| compare::metrics_json(&line.metrics));
        let text = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"nproc\": {},\n  \
             \"cpu\": \"{}\",\n  \"git_rev\": \"{}\",\n  \"runs\": [\n    {}\n  ],\n  \"trace\": {traced}\n}}\n",
            workload.name,
            std::thread::available_parallelism().map_or(0, usize::from),
            cpu_model(),
            git_rev(),
            untraced.join(",\n    "),
        );
        std::fs::write(out.join(format!("{}.json", workload.name)), text)
            .expect("write result set");
    }
    if problems.is_empty() {
        println!("# result set written to {}", out.display());
        ExitCode::SUCCESS
    } else {
        for problem in &problems {
            eprintln!("FAILED: {problem}");
        }
        ExitCode::FAILURE
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}
