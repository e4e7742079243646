//! The metric tables: every name the benchmark prints, with its unit and
//! direction, and for end-to-end metrics the regression bound. `BENCHMARK.json`
//! at the repository root is generated from these tables (`manifest`
//! subcommand) and a test holds the two together.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "http-learn",
        why: "Production shape: 2 closed-loop conns, durable server, 20k training items, ~330 rules; learn is ~95% of a request, so net/serve/core work must not show here.",
    },
    WorkloadDef {
        name: "http-rules",
        why: "Same server, untrained pipeline, 50k rules: learn does no work, core is the whole pipeline cost, net+serve are at their largest share of a request (~3/4).",
    },
    WorkloadDef {
        name: "http-edits",
        why: "Reads beside writes: closed-loop classify plus 5 rule-edit cycles/s on a durable, replicated 10k-rule server; work moved into snapshot build slows both sides.",
    },
    WorkloadDef {
        name: "feed-batch",
        why: "The paper's own workload: in-process classify_batch over vendor batches with fact inference on; bypasses net, serve and store.",
    },
    WorkloadDef {
        name: "serve-overload",
        why: "Open loop at 5,000 req/s, far above full-fidelity capacity: the only place queueing, deadline shedding and rules-only degradation act.",
    },
];

// Bounds are three times the widest run-to-run spread seen on any workload
// over ten seeds (see README "Repeatability"), capped at the contract's 0.25.
// The sandbox is a 2-vCPU microVM whose speed drifts by up to a quarter over
// minutes, which every timing inherits.
const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("classify_rps", "1/s", "higher", 0.25),
    e2e("classify_p50_ms", "ms", "lower", 0.25),
    e2e("precision", "share", "higher", 0.02),
    e2e("coverage", "share", "higher", 0.02),
    e2e("full_fidelity_share", "share", "higher", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 59] = [
    layer("net.self_p50_us", "us", "lower"),
    layer("net.socket_p50_us", "us", "lower"),
    layer("net.route_p50_us", "us", "lower"),
    layer("net.codec_parse_ns", "ns", "lower"),
    layer("net.codec_encode_ns", "ns", "lower"),
    layer("net.codec_mb_s", "MB/s", "higher"),
    layer("net.http_errors", "count", "lower"),
    layer("net.classify_p99_ms", "ms", "lower"),
    layer("net.classify_pmax_ms", "ms", "lower"),
    layer("net.edit_ack_p50_ms", "ms", "lower"),
    layer("net.edit_visible_p50_ms", "ms", "lower"),
    layer("serve.self_p50_us", "us", "lower"),
    layer("serve.latency_p50_us", "us", "lower"),
    layer("serve.degraded_share", "share", "lower"),
    layer("serve.deadline_shed_share", "share", "lower"),
    layer("serve.overloaded_share", "share", "lower"),
    layer("serve.queue_depth_max", "count", "lower"),
    layer("serve.degraded_toggles", "count", "lower"),
    layer("serve.snapshot_build_p50_ms", "ms", "lower"),
    layer("serve.swaps_per_edit", "count", "lower"),
    layer("serve.refresh_wait_p50_ms", "ms", "lower"),
    layer("chimera.classify_p50_us", "us", "lower"),
    layer("chimera.self_p50_us", "us", "lower"),
    layer("chimera.vote_ns", "ns", "lower"),
    layer("chimera.gate_shortcircuit_share", "share", "higher"),
    layer("chimera.declined_share", "share", "lower"),
    layer("chimera.snapshot_ms", "ms", "lower"),
    layer("core.prepare_ns", "ns", "lower"),
    layer("core.gate_ns", "ns", "lower"),
    layer("core.rules_ns", "ns", "lower"),
    layer("core.candidates_per_item", "count", "lower"),
    layer("core.fired_per_item", "count", "lower"),
    layer("core.build_ms", "ms", "lower"),
    layer("core.infer_ns", "ns", "lower"),
    layer("core.facts_per_item", "count", "higher"),
    layer("core.batch_par_speedup", "ratio", "higher"),
    layer("learn.featurize_ns", "ns", "lower"),
    layer("learn.predict_ns", "ns", "lower"),
    layer("learn.nb_ns", "ns", "lower"),
    layer("learn.knn_ns", "ns", "lower"),
    layer("learn.centroid_ns", "ns", "lower"),
    layer("learn.perceptron_ns", "ns", "lower"),
    layer("learn.features_per_item", "count", "lower"),
    layer("learn.abstain_share", "share", "lower"),
    layer("learn.train_s", "s", "lower"),
    layer("ie.extract_ns", "ns", "lower"),
    layer("store.append_p50_us", "us", "lower"),
    layer("store.fsync_p50_us", "us", "lower"),
    layer("store.fsyncs_per_edit", "count", "lower"),
    layer("store.wal_bytes_per_edit", "count", "lower"),
    layer("store.checkpoint_ms", "ms", "lower"),
    layer("store.reopen_ms", "ms", "lower"),
    layer("store.replay_rec_s", "1/s", "higher"),
    layer("repl.visible_lag_p50_us", "us", "lower"),
    layer("repl.records_applied", "count", "higher"),
    layer("repl.snapshots_installed", "count", "lower"),
    layer("gen.lateness_p99_ms", "ms", "lower"),
    layer("trace.overhead_share", "share", "lower"),
    layer("trace.unexplained_share", "share", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_generated_from_these_tables() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
