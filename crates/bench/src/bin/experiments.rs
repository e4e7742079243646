//! The experiment driver: regenerates every paper table/figure/claim.
//!
//! ```text
//! experiments [EXPERIMENT…] [--scale FACTOR] [--seed SEED]
//!
//! EXPERIMENT: all | table1 | e2 | e3 | e4 | e5 | e6 | e7 | e8 | e9 | e10 |
//!             e11 | e12 | e13 | e14 | e15 | e16 | e17
//! --scale     multiplies corpus sizes (default 1.0; the default corpus is
//!             ~20k training items, a ~1/40 scale model of the paper's 885K)
//! --seed      master RNG seed (default 1)
//! ```
//!
//! Serving, network, recovery and replication performance is measured by
//! `benchmark/` (see its README), not here.

use rulekit_bench::exp;
use rulekit_bench::Scale;

const EXPERIMENTS: &[&str] = &[
    "all", "table1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
    "e13", "e14", "e15", "e16", "e17",
];

/// Perf experiments `benchmark/` replaced, with the rows that measure the
/// same layers there.
const RETIRED: &[(&str, &str)] = &[
    ("serve", "workload serve-overload"),
    ("netload", "workloads http-learn, http-rules and http-edits"),
    ("recovery", "the store.* per-layer metrics"),
    ("repl", "the repl.* per-layer metrics"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut factor = 1.0f64;
    let mut selected: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                factor = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a number"));
            }
            "--seed" => {
                i += 1;
                scale.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => usage(""),
            other => selected.push(other.to_lowercase()),
        }
        i += 1;
    }
    for id in &selected {
        if let Some((_, rows)) = RETIRED.iter().find(|(name, _)| name == id) {
            eprintln!(
                "experiment {id:?} is retired: benchmark/ measures it ({rows}); \
                 see benchmark/README.md"
            );
            std::process::exit(2);
        }
        if !EXPERIMENTS.contains(&id.as_str()) {
            usage(&format!("unknown experiment {id:?}"));
        }
    }
    let scale = scale.scaled(factor);
    if selected.is_empty() {
        selected.push("all".to_string());
    }

    let everything = selected.iter().any(|s| s == "all");
    let want = |name: &str| everything || selected.iter().any(|s| s == name);

    println!(
        "rulekit experiments — scale: {} train / {} eval items, seed {}",
        scale.train_items, scale.eval_items, scale.seed
    );

    if want("e13") {
        exp::chimera::e13(scale);
    }
    if want("table1") || want("e1") {
        exp::synonym::table1(scale);
    }
    if want("e2") {
        exp::synonym::e2(scale);
    }
    if want("e14") {
        exp::synonym::e14(scale);
    }
    if want("e3") {
        exp::rulegen::e3(scale);
    }
    if want("e15") {
        exp::rulegen::e15(scale);
    }
    if want("e4") {
        exp::chimera::e4(scale);
    }
    if want("e5") {
        exp::chimera::e5(scale);
    }
    if want("e6") {
        exp::chimera::e6(scale);
    }
    let e7_rows = if want("e7") { exp::execution::e7(scale) } else { Vec::new() };
    let e16_rows = if want("e16") { exp::execution::e16(scale) } else { Vec::new() };
    // Only a full default-scale sweep may replace the committed ledger; a
    // scaled or row-filtered (`RULEKIT_E7_ROWS`) run writes under `target/`.
    if !e7_rows.is_empty() || !e16_rows.is_empty() {
        let full = factor == 1.0 && std::env::var("RULEKIT_E7_ROWS").is_err();
        let path = if full { "BENCH_engine.json" } else { "target/BENCH_engine.json" };
        let json = exp::execution::engine_json(&e7_rows, &e16_rows);
        let written = std::fs::create_dir_all("target").and_then(|()| std::fs::write(path, &json));
        match written {
            Ok(()) => {
                println!("wrote {path} ({} e7 rows, {} e16 rows)", e7_rows.len(), e16_rows.len())
            }
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    if want("e8") {
        exp::evaluation::e8(scale);
    }
    if want("e9") {
        exp::maintenance::e9(scale);
    }
    if want("e10") {
        exp::execution::e10(scale);
    }
    if want("e11") {
        exp::emie::e11(scale);
    }
    if want("e12") {
        exp::emie::e12(scale);
    }
    if want("e17") {
        exp::infer::e17(scale);
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: experiments [EXPERIMENT…] [--scale FACTOR] [--seed SEED]\n\
         experiments: {}",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
