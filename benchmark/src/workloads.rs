//! The five workloads. Each runs in its own process: timed set-up →
//! warm-up → measured window → edit probe and oracle checks. With tracing
//! off the end-to-end metrics come out; with tracing on each request is
//! replayed layer by layer and the per-layer metrics come out.
//!
//! All program calls go through `probes`; this file owns the load loops,
//! the accounting and the arithmetic.

use crate::gen;
use crate::probes::{self, Answer, Client, Oracle, Product, Served, Stages, TypeId};
use crate::stats::{self, Schedule, Span};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    /// Failed operations. Requests an overloaded service sheds or refuses
    /// by design are not among them: they miss every latency metric and
    /// lower `full_fidelity_share`, and are reported as `ops_refused`.
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

/// Warm-up is 4 s for every 10 s measured: at 50,000 rules the per-rule
/// lazy-DFA caches (1.2 GB of them) take that long to fill, and a window
/// that starts earlier measures the ramp.
fn warmup(window: Duration) -> Duration {
    window.mul_f64(0.4)
}

/// Set-up is repeated and its median reported, so one slow page-in does
/// not read as a slower program. Traced and smoke runs set up once.
fn setup_reps(p: &Params) -> usize {
    if p.trace || p.quick {
        1
    } else {
        3
    }
}

const PRECISION_ITEMS: usize = 4_000;
const ORACLE_STRIDE: usize = 10;
const FEED_ORACLE_STRIDE: usize = 50;
const OVERLOAD_RATE: f64 = 5_000.0;
const EDITS_PER_S: f64 = 5.0;
const EDIT_VISIBLE_LIMIT: Duration = Duration::from_secs(2);

struct Sizes {
    train: usize,
    /// Total rules; the analyst pack (~330) is always loaded, synthetic
    /// lines fill up to this count.
    rules: usize,
    /// Distinct products of traffic, sized so that no run wraps around:
    /// production sees new titles, not repeats of titles whose DFA states
    /// are already built.
    pool: usize,
}

fn sizes(workload: &str, quick: bool) -> Sizes {
    let (train, rules, pool) = match workload {
        "http-learn" => (20_000, 0, 20_000),
        "serve-overload" => (20_000, 0, 72_000),
        "http-rules" => (0, 50_000, 150_000),
        "http-edits" => (2_000, 10_000, 40_000),
        _ => (2_000, 0, 0),
    };
    if quick {
        Sizes { train: train.min(400), rules: rules.min(1_000), pool: pool.min(20_000) }
    } else {
        Sizes { train, rules, pool }
    }
}

pub fn run(p: &Params) -> Outcome {
    std::fs::create_dir_all(&p.out_dir).expect("create output directory");
    match p.workload.as_str() {
        "http-learn" | "http-rules" | "http-edits" => run_http(p),
        "feed-batch" => run_feed(p),
        "serve-overload" => run_overload(p),
        other => panic!("unknown workload {other}"),
    }
}

// ------------------------------------------------------------------ set-up

/// What every workload starts from: a trained (or deliberately untrained)
/// pipeline, the parsed rule set, and the generator traffic continues from.
struct Built {
    taxonomy: std::sync::Arc<probes::Taxonomy>,
    chimera: probes::Chimera,
    training: Vec<probes::GeneratedItem>,
    specs: Vec<probes::RuleSpec>,
    generator: probes::CatalogGenerator,
}

/// The workload's rule set: the analyst pack, the fact-rule pack when asked
/// for, then synthetic lines up to `sizes.rules`.
fn rule_specs(
    taxonomy: &std::sync::Arc<probes::Taxonomy>,
    sizes: &Sizes,
    infer_pack: bool,
) -> Vec<probes::RuleSpec> {
    let mut fixed = gen::analyst_pack(taxonomy);
    if infer_pack {
        fixed.extend(gen::INFER_PACK.map(String::from));
    }
    let count = fixed.len();
    let lines = fixed.into_iter().chain(gen::synthetic_lines(taxonomy));
    let specs = probes::parse_rules(taxonomy, lines, sizes.rules.max(count));
    assert!(specs.len() >= count, "the analyst pack must parse");
    specs
}

fn build(p: &Params, sizes: &Sizes, infer_pack: bool, threads: usize) -> Built {
    let taxonomy = probes::taxonomy();
    let mut generator = probes::generator(&taxonomy, p.seed);
    let training = probes::training_corpus(&taxonomy, &mut generator, sizes.train);
    let mut chimera = probes::new_chimera(&taxonomy, p.seed, threads);
    if !training.is_empty() {
        probes::train(&mut chimera, &training);
    }
    let specs = rule_specs(&taxonomy, sizes, infer_pack);
    Built { taxonomy, chimera, training, specs, generator }
}

/// Runs `setup` `reps` times, keeps the last system, reports the median
/// wall time in seconds.
fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------- samples

/// One attempted classification of the measured window.
#[derive(Debug, Clone)]
struct Sample {
    /// Issue order across the whole workload.
    seq: u64,
    /// Index into the traffic pool.
    idx: usize,
    /// Completion time, ns after the window start.
    done_ns: u64,
    /// Latency as the caller sees it (from due time on open loops).
    lat_ns: u64,
    result: Result<Answer, Miss>,
}

#[derive(Debug, Clone, PartialEq)]
enum Miss {
    /// Shed or refused by an overloaded service, as specified; says which.
    Refused(&'static str),
    Failed(String),
}

struct Summary {
    attempted: u64,
    answered: u64,
    refused: u64,
    failed: u64,
    rps: f64,
    slice_rates: Vec<f64>,
    p50_ms: f64,
    precision: f64,
    coverage: f64,
    full_fidelity_share: f64,
    degraded_share: f64,
}

/// The end-to-end view of a window. Precision and coverage are taken over
/// the first `PRECISION_ITEMS` answered requests in issue order, against
/// generator truth, so they repeat for a seed.
fn summarise(
    samples: &[Sample],
    truth: impl Fn(usize) -> TypeId,
    window: Duration,
    deadline: Option<Duration>,
) -> Summary {
    let mut answered: Vec<&Sample> = samples.iter().filter(|s| s.result.is_ok()).collect();
    answered.sort_by_key(|s| s.seq);
    let stamps: Vec<u64> = answered.iter().map(|s| s.done_ns).collect();

    let (mut classified, mut right) = (0u64, 0u64);
    let judged = answered.len().min(PRECISION_ITEMS);
    for s in &answered[..judged] {
        if let Ok(Answer { ty: Some(ty), .. }) = s.result {
            classified += 1;
            right += u64::from(ty == truth(s.idx));
        }
    }
    let in_time = |s: &Sample| deadline.is_none_or(|d| s.lat_ns <= d.as_nanos() as u64);
    let full =
        answered.iter().filter(|s| matches!(s.result, Ok(a) if !a.degraded) && in_time(s)).count();
    let degraded = answered.iter().filter(|s| matches!(s.result, Ok(a) if a.degraded)).count();
    let attempted = samples.len().max(1) as f64;
    let slice_rates = stats::slice_rates(&stamps, window, 10);
    Summary {
        attempted: samples.len() as u64,
        answered: answered.len() as u64,
        refused: samples.iter().filter(|s| matches!(s.result, Err(Miss::Refused(_)))).count()
            as u64,
        failed: samples.iter().filter(|s| matches!(s.result, Err(Miss::Failed(_)))).count() as u64,
        rps: stats::median(&slice_rates),
        slice_rates,
        p50_ms: p50_ms(samples),
        precision: right as f64 / classified.max(1) as f64,
        coverage: classified as f64 / judged.max(1) as f64,
        full_fidelity_share: full as f64 / attempted,
        degraded_share: degraded as f64 / attempted,
    }
}

/// Checks every `ORACLE_STRIDE`-th answered request against the in-process
/// pipeline on the same product and the same (full or degraded) path.
/// Returns `(checked, mismatches)`.
fn verify(samples: &[Sample], traffic: &Traffic, oracle: &Oracle) -> (u64, Vec<String>) {
    let picked: Vec<&Sample> =
        samples.iter().filter(|s| s.result.is_ok()).step_by(ORACLE_STRIDE).collect();
    let halves = picked.split_at(picked.len() / 2);
    let check = |part: &[&Sample]| -> Vec<String> {
        part.iter()
            .filter_map(|s| {
                let got = *s.result.as_ref().expect("answered");
                let product = traffic.product(s.idx);
                let want = oracle.expected(&product, got.degraded);
                (got != want).then(|| {
                    format!(
                        "request {} ({:?}): served {got:?}, oracle {want:?}",
                        s.seq, product.title
                    )
                })
            })
            .collect()
    };
    let mut mismatches = Vec::new();
    std::thread::scope(|scope| {
        let other = scope.spawn(|| check(halves.1));
        mismatches = check(halves.0);
        mismatches.extend(other.join().expect("oracle thread"));
    });
    (picked.len() as u64, mismatches)
}

// ------------------------------------------------------------- edit cycles

/// The connection edit cycles run on.
struct Editor {
    client: Client,
    rings: TypeId,
}

impl Editor {
    /// Whether `/classify` of the sentinel title now carries the rule's type.
    fn visible(&mut self, token: &str) -> Result<bool, String> {
        let body = probes::classify_body(&gen::sentinel_product(token));
        Ok(self.client.classify(&body)?.ty == Some(self.rings))
    }

    /// One cycle: `POST /rulesets` a unique sentinel rule (the 201 is `ack`),
    /// poll `/classify` with the sentinel title until the reply carries the
    /// new type (`visible`), `DELETE` the rule. Both times run from `due`.
    fn cycle(
        &mut self,
        token: &str,
        due: Instant,
        mut span: impl FnMut(&'static str, Instant, Instant),
    ) -> Result<EditSample, String> {
        let start = Instant::now();
        let id = self.client.add_rule(&gen::sentinel_rule(token))?;
        let acked = Instant::now();
        span("http.edit_post", start, acked);
        while !self.visible(token)? {
            if due.elapsed() > EDIT_VISIBLE_LIMIT {
                let _ = self.client.delete_rule(id);
                return Err(format!("edit {token} not visible within {EDIT_VISIBLE_LIMIT:?}"));
            }
        }
        let seen = Instant::now();
        span("edit.visible", acked, seen);
        self.client.delete_rule(id)?;
        span("http.edit_delete", seen, Instant::now());
        Ok(EditSample {
            ack_ns: (acked - due).as_nanos() as u64,
            visible_ns: (seen - due).as_nanos() as u64,
        })
    }

    /// The traced runs of `http-learn` and `http-rules` have no edits in
    /// their window, so they probe afterwards, on the idle server: cycles for
    /// about a second (at least 3), each waiting for the removal to take
    /// effect too so cycles do not queue behind each other's rebuilds.
    fn probe(&mut self, seed: u64) -> (Vec<EditSample>, Vec<String>) {
        let (mut samples, mut errors) = (Vec::new(), Vec::new());
        let started = Instant::now();
        for n in 0..40 {
            if n >= 3 && started.elapsed() > Duration::from_secs(1) {
                break;
            }
            let token = gen::sentinel_token(seed, n);
            match self.cycle(&token, Instant::now(), |_, _, _| {}) {
                Ok(sample) => samples.push(sample),
                Err(e) => errors.push(e),
            }
            let removed = Instant::now();
            while self.visible(&token).unwrap_or(false) && removed.elapsed() < EDIT_VISIBLE_LIMIT {}
        }
        (samples, errors)
    }
}

#[derive(Debug, Clone, Copy)]
struct EditSample {
    ack_ns: u64,
    visible_ns: u64,
}

// ----------------------------------------------------------------- tracing

/// Spans of one thread, and the per-request numbers derived from them.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Per-request values by name: span and self times in ns, counts, and
    /// 0/1 flags whose mean is a share.
    per_req: BTreeMap<&'static str, Vec<f64>>,
    mismatches: Vec<String>,
}

impl Tracer {
    fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), per_req: BTreeMap::new(), mismatches: Vec::new() }
    }

    fn span(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
    }

    fn note(&mut self, name: &'static str, value: f64) {
        self.per_req.entry(name).or_default().push(value);
    }

    /// Replays one request beneath whatever outer span the caller already
    /// recorded for `req`: in-process submit (when there is a service), the
    /// snapshot's full path, then stage by stage; derives the layers' self
    /// times from the spans just recorded. Returns the snapshot's answer.
    fn replay(
        &mut self,
        req: u64,
        product: &Product,
        has_http: bool,
        service: Option<&probes::RuleService>,
        oracle: &Oracle,
        stages: &Stages,
    ) -> Answer {
        let first = self.spans.iter().rposition(|s| s.req != req).map_or(0, |i| i + 1);
        if let Some(service) = service {
            let start = Instant::now();
            let served = probes::submit(service, product.clone()).wait();
            let parent = has_http.then_some("http.classify");
            self.span(req, "serve.submit_wait", parent, start, Instant::now());
            if !matches!(served, Served::Answered(..)) {
                self.mismatches.push(format!("replayed submit of request {req} ended {served:?}"));
            }
        }
        let start = Instant::now();
        let answer = oracle.classify(product);
        let parent = service.is_some().then_some("serve.submit_wait");
        self.span(req, "chimera.classify", parent, start, Instant::now());

        let mut staged_spans = Vec::with_capacity(STAGE_SPANS.len());
        let (staged, counts) =
            stages.replay(product, &mut |name, start, end| staged_spans.push((name, start, end)));
        for (name, start, end) in staged_spans {
            self.span(req, name, Some("chimera.classify"), start, end);
        }
        if staged.ty != answer.ty {
            self.mismatches.push(format!(
                "request {req} ({:?}): staged replay {staged:?}, snapshot {answer:?}",
                product.title
            ));
        }

        let spans = &self.spans[first..];
        let span_ns =
            |name: &str| spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum::<u64>();
        let mut notes: Vec<(&'static str, f64)> = vec![
            ("net.self", stats::self_ns(spans, "http.classify") as f64),
            ("serve.self", stats::self_ns(spans, "serve.submit_wait") as f64),
            ("chimera.self", stats::self_ns(spans, "chimera.classify") as f64),
            ("chimera.classify", span_ns("chimera.classify") as f64),
            ("unexplained", stats::unexplained_share(spans, spans[0].name)),
            ("features", counts.features as f64),
            ("facts", counts.facts as f64),
            ("shortcircuit", f64::from(u8::from(counts.gate_shortcircuit))),
            ("abstained", f64::from(u8::from(counts.abstained))),
            ("declined", f64::from(u8::from(answer.ty.is_none()))),
        ];
        notes.extend(STAGE_SPANS.map(|name| (name, span_ns(name) as f64)));
        // The executor's own counts need a second pass over the rules, so
        // they are taken on every eighth replay.
        if req.is_multiple_of(8) {
            let (considered, fired) = stages.rule_counts(product);
            notes.push(("candidates", considered as f64));
            notes.push(("fired", fired as f64));
        }
        for (name, value) in notes {
            self.note(name, value);
        }
        answer
    }

    fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (name, values) in other.per_req {
            self.per_req.entry(name).or_default().extend(values);
        }
        self.mismatches.extend(other.mismatches);
    }

    fn p50(&self, name: &str) -> f64 {
        self.per_req.get(name).map_or(0.0, |v| stats::median(v))
    }

    fn mean(&self, name: &str) -> f64 {
        self.per_req.get(name).map_or(0.0, |v| v.iter().sum::<f64>() / v.len().max(1) as f64)
    }

    /// Writes the spans as JSON lines.
    fn write(&self, path: &std::path::Path) {
        use std::io::Write;
        let file = std::fs::File::create(path).expect("create trace file");
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"req\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )
            .expect("write trace span");
        }
        out.flush().expect("flush trace file");
    }
}

const STAGE_SPANS: [&str; 8] = [
    "ie.extract",
    "core.infer",
    "core.prepare",
    "core.gate",
    "core.rules",
    "learn.featurize",
    "learn.predict",
    "chimera.vote",
];

/// Per-layer metric values by name; anything a workload does not touch
/// stays 0.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(crate::metrics::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        *self.0.get_mut(name).unwrap_or_else(|| panic!("unknown per-layer metric {name}")) = value;
    }

    /// Everything the replay and the rebuilt stages measured.
    fn set_replay(&mut self, tracer: &Tracer, stages: &Stages) {
        self.set("net.self_p50_us", tracer.p50("net.self") / 1e3);
        self.set("serve.self_p50_us", tracer.p50("serve.self") / 1e3);
        self.set("chimera.classify_p50_us", tracer.p50("chimera.classify") / 1e3);
        self.set("chimera.self_p50_us", tracer.p50("chimera.self") / 1e3);
        self.set("chimera.vote_ns", tracer.p50("chimera.vote"));
        self.set("chimera.gate_shortcircuit_share", tracer.mean("shortcircuit"));
        self.set("chimera.declined_share", tracer.mean("declined"));
        self.set("core.prepare_ns", tracer.p50("core.prepare"));
        self.set("core.gate_ns", tracer.p50("core.gate"));
        self.set("core.rules_ns", tracer.p50("core.rules"));
        self.set("core.candidates_per_item", tracer.mean("candidates"));
        self.set("core.fired_per_item", tracer.mean("fired"));
        self.set("core.build_ms", stages.build_ms);
        self.set("core.infer_ns", tracer.p50("core.infer"));
        self.set("core.facts_per_item", tracer.mean("facts"));
        self.set("learn.featurize_ns", tracer.p50("learn.featurize"));
        self.set("learn.predict_ns", tracer.p50("learn.predict"));
        let members = stages.member_mean_ns();
        self.set("learn.nb_ns", members[0]);
        self.set("learn.knn_ns", members[1]);
        self.set("learn.centroid_ns", members[2]);
        self.set("learn.perceptron_ns", members[3]);
        self.set("learn.features_per_item", tracer.mean("features"));
        self.set("learn.abstain_share", tracer.mean("abstained"));
        self.set("learn.train_s", stages.train_s);
        self.set("ie.extract_ns", tracer.p50("ie.extract"));
        self.set("trace.unexplained_share", tracer.p50("unexplained"));
    }

    /// The probes that need no running system: the store layer alone on a
    /// scratch directory holding the workload's rules, and
    /// `chimera.snapshot_ms` — `Chimera::snapshot()` after an edit, median of
    /// three, on the now quiescent pipeline.
    fn set_offline_probes(
        &mut self,
        p: &Params,
        taxonomy: &std::sync::Arc<probes::Taxonomy>,
        chimera: &probes::Chimera,
        specs: Vec<probes::RuleSpec>,
    ) {
        let probe = probes::store_probe(&scratch_dir(p, "probe"), taxonomy, specs);
        self.set("store.append_p50_us", probe.append_p50_us);
        self.set("store.fsync_p50_us", probe.fsync_p50_us);
        self.set("store.fsyncs_per_edit", probe.fsyncs_per_edit);
        self.set("store.wal_bytes_per_edit", probe.wal_bytes_per_edit);
        self.set("store.checkpoint_ms", probe.checkpoint_ms);
        self.set("store.reopen_ms", probe.reopen_ms);
        self.set("store.replay_rec_s", probe.replay_rec_s);
        let times: Vec<f64> = (0..3)
            .map(|n| {
                let line = gen::sentinel_rule(&gen::sentinel_token(p.seed, 1_000 + n));
                probes::add_rule_in_memory(chimera, &line).expect("sentinel rule parses");
                let start = Instant::now();
                drop(probes::snapshot(chimera));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        self.set("chimera.snapshot_ms", stats::median(&times));
    }

    fn into_metrics(self) -> Vec<(&'static str, f64)> {
        crate::metrics::PER_LAYER.iter().map(|m| (m.name, self.0[m.name])).collect()
    }
}

/// Latencies of the answered requests, in ms.
fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().filter(|s| s.result.is_ok()).map(|s| s.lat_ns as f64 / 1e6).collect()
}

fn p50_ms(samples: &[Sample]) -> f64 {
    stats::quantile(&mut latencies_ms(samples), 0.5)
}

fn scratch_dir(p: &Params, tag: &str) -> PathBuf {
    p.out_dir.join(format!("tmp-{}-{tag}-{}", p.workload, std::process::id()))
}

/// Folds the pieces every workload ends with into its outcome: a failed
/// operation is a failed request, an edit cycle that erred, or an answer the
/// oracle disagrees with (which also makes the run incorrect).
#[allow(clippy::too_many_arguments)]
fn finish(
    summary: &Summary,
    setup_s: f64,
    edits: &[EditSample],
    edit_errors: Vec<String>,
    checked: u64,
    mismatches: Vec<String>,
    layers: Option<Layers>,
    mut notes: Vec<String>,
) -> Outcome {
    let attempted = summary.attempted + (edits.len() + edit_errors.len()) as u64;
    let failed = summary.failed + (edit_errors.len() + mismatches.len()) as u64;
    notes.push(format!(
        "ops_attempted {attempted} / ops_ok {} / ops_refused {} / ops_failed {failed}; \
         {} edit cycles; {checked} answers checked against the oracle",
        summary.answered + edits.len() as u64,
        summary.refused,
        edits.len(),
    ));
    let rates: Vec<u64> = summary.slice_rates.iter().map(|r| r.round() as u64).collect();
    notes.push(format!("classify rate in each tenth of the window: {rates:?}"));
    let correct = mismatches.is_empty();
    notes.extend(mismatches.iter().chain(&edit_errors).take(10).map(|m| format!("FAILED: {m}")));
    let metrics = match layers {
        Some(layers) => layers.into_metrics(),
        None => vec![
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb()),
            ("classify_rps", summary.rps),
            ("classify_p50_ms", summary.p50_ms),
            ("precision", summary.precision),
            ("coverage", summary.coverage),
            ("full_fidelity_share", summary.full_fidelity_share),
        ],
    };
    Outcome { correct, attempted, failed, metrics, notes }
}

// ------------------------------------------------------------ http-* loops

/// A workload's traffic in issue order: request bodies for the HTTP
/// workloads, products for the in-process one, and generator truth.
struct Traffic {
    bodies: Vec<Vec<u8>>,
    products: Vec<Product>,
    truth: Vec<TypeId>,
}

fn traffic(generator: probes::CatalogGenerator, seed: u64, n: usize, wire: bool) -> Traffic {
    let mut items = probes::feed(generator, seed).take_items(n);
    items.truncate(n);
    let truth = items.iter().map(|i| i.truth).collect();
    if wire {
        let bodies = items.iter().map(|i| probes::classify_body(&i.product)).collect();
        Traffic { bodies, products: Vec::new(), truth }
    } else {
        let products = items.into_iter().map(|i| i.product).collect();
        Traffic { bodies: Vec::new(), products, truth }
    }
}

impl Traffic {
    /// The product of request `idx` exactly as the program saw it: decoded
    /// from the wire body with the server's own codec when there is one.
    fn product(&self, idx: usize) -> Product {
        match self.bodies.get(idx) {
            Some(body) => probes::decode_product(body),
            None => self.products[idx].clone(),
        }
    }
}

/// One closed-loop connection: the next request leaves when the previous
/// reply has been parsed.
struct ClosedLoop<'a> {
    client: Client,
    traffic: &'a Traffic,
    /// Connections sharing the pool: this one takes every `step`-th request.
    step: u64,
    window_start: Instant,
}

impl ClosedLoop<'_> {
    /// Sends requests `first, first + step, …` of the pool until `until`,
    /// returning the samples; `after` sees each one with its send and
    /// receive instants before the next request leaves.
    fn run(
        &mut self,
        first: u64,
        until: Instant,
        mut after: impl FnMut(&Sample, Instant, Instant),
    ) -> Vec<Sample> {
        let mut out = Vec::new();
        let mut seq = first;
        loop {
            let start = Instant::now();
            if start >= until {
                return out;
            }
            let idx = seq as usize % self.traffic.bodies.len();
            let result = self.client.classify(&self.traffic.bodies[idx]).map_err(Miss::Failed);
            let end = Instant::now();
            let sample = Sample {
                seq,
                idx,
                done_ns: end.saturating_duration_since(self.window_start).as_nanos() as u64,
                lat_ns: (end - start).as_nanos() as u64,
                result,
            };
            after(&sample, start, end);
            out.push(sample);
            seq += self.step;
        }
    }
}

fn run_http(p: &Params) -> Outcome {
    let sizes = sizes(&p.workload, p.quick);
    let edits_workload = p.workload == "http-edits";
    let dir = scratch_dir(p, "store");
    let ((system, taxonomy, training, generator), setup_s) = timed_setup(setup_reps(p), || {
        let built = build(p, &sizes, false, probes::PIPELINE_THREADS);
        probes::seed_storage(&dir, &built.taxonomy, built.specs);
        let system = probes::start_http(built.chimera, &dir, edits_workload);
        (system, built.taxonomy, built.training, built.generator)
    });
    let traffic = traffic(generator, p.seed, sizes.pool, true);
    let rings = probes::rings(&taxonomy);
    let addr = system.addr();

    // Closed-loop connections: two, or one beside the edit connection.
    let conns: u64 = if edits_workload { 1 } else { 2 };
    let stages = p.trace.then(|| Stages::build(&system.chimera, &training));
    let oracle_live = p.trace.then(|| probes::snapshot(&system.chimera));
    let warm = warmup(p.window);
    let plain = if p.trace { p.window.mul_f64(0.3) } else { p.window };
    let started = Instant::now();
    let window_start = started + warm;
    let plain_end = window_start + plain;
    let window_end = window_start + p.window;
    let mut tracer = Tracer::new(started);
    let mut samples: Vec<Sample> = Vec::new();
    let mut traced_samples: Vec<Sample> = Vec::new();
    let mut edits: Vec<EditSample> = Vec::new();
    let mut edit_errors: Vec<String> = Vec::new();
    let mut lateness_ms: Vec<f64> = Vec::new();

    std::thread::scope(|scope| {
        let loops: Vec<_> = (0..conns)
            .map(|c| {
                let (traffic, taxonomy, system) = (&traffic, &taxonomy, &system);
                let (stages, oracle_live) = (stages.as_ref(), oracle_live.as_ref());
                scope.spawn(move || {
                    let client = probes::connect(addr, taxonomy);
                    let mut conn = ClosedLoop { client, traffic, step: conns, window_start };
                    // Warm-up draws from the far end of the pool, so the
                    // window's first items are the same for a seed.
                    let warm_first = traffic.bodies.len() as u64 * 2 / 3;
                    conn.run(warm_first + c, window_start, |_, _, _| {});
                    let plain_samples = conn.run(c, plain_end, |_, _, _| {});
                    let mut traced = Vec::new();
                    let mut tracer = Tracer::new(started);
                    if let (Some(stages), Some(oracle)) = (stages, oracle_live) {
                        let next = plain_samples.last().map_or(c, |s| s.seq + conns);
                        traced = conn.run(next, window_end, |sample, start, end| {
                            tracer.span(sample.seq, "http.classify", None, start, end);
                            let product = traffic.product(sample.idx);
                            let service = Some(system.service());
                            let inproc =
                                tracer.replay(sample.seq, &product, true, service, oracle, stages);
                            if let Ok(served) = &sample.result {
                                if !served.degraded && served.ty != inproc.ty {
                                    tracer.mismatches.push(format!(
                                        "request {}: wire {served:?}, snapshot {inproc:?}",
                                        sample.seq
                                    ));
                                }
                            }
                        });
                    }
                    (plain_samples, traced, tracer)
                })
            })
            .collect();

        // The edit connection: an open schedule of edit cycles from the
        // start of warm-up to the end of the window.
        let editor = edits_workload.then(|| {
            let taxonomy = &taxonomy;
            scope.spawn(move || {
                let mut editor = Editor { client: probes::connect(addr, taxonomy), rings };
                let schedule = Schedule::per_second(EDITS_PER_S);
                let mut tracer = Tracer::new(started);
                let (mut samples, mut errors, mut late) = (Vec::new(), Vec::new(), Vec::new());
                for k in 0u64.. {
                    let due = started + Duration::from_nanos(schedule.due_ns(k));
                    if due >= window_end {
                        break;
                    }
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let measured = due >= window_start;
                    if measured {
                        late.push(due.elapsed().as_secs_f64() * 1e3);
                    }
                    let token = gen::sentinel_token(p.seed, k as usize);
                    let cycle = editor.cycle(&token, due, |name, start, end| {
                        if measured {
                            tracer.span(1_000_000_000 + k, name, None, start, end);
                        }
                    });
                    match cycle {
                        Ok(sample) if measured => samples.push(sample),
                        Ok(_) => {}
                        Err(e) => errors.push(e),
                    }
                }
                (samples, errors, late, tracer)
            })
        });

        for handle in loops {
            let (plain_samples, traced, thread_tracer) = handle.join().expect("client thread");
            samples.extend(plain_samples);
            traced_samples.extend(traced);
            tracer.merge(thread_tracer);
        }
        if let Some(editor) = editor {
            let (cycle_samples, errors, late, edit_tracer) = editor.join().expect("edit thread");
            edits = cycle_samples;
            edit_errors = errors;
            lateness_ms = late;
            if p.trace {
                tracer.merge(edit_tracer);
            }
        }
    });

    let summary = summarise(&samples, |idx| traffic.truth[idx], plain, None);
    let mut notes = vec![format!(
        "{} rules, {} training items, {} closed-loop connection(s)",
        probes::rule_count(&system.chimera),
        training.len(),
        conns
    )];

    let mut layers = p.trace.then(Layers::new);
    if let (Some(layers), Some(stages)) = (&mut layers, &stages) {
        let registry = system.registry();
        layers.set_replay(&tracer, stages);
        let route_us =
            probes::hist_p50(registry, "rulekit_net_route_latency_nanos{route=\"classify\"}") / 1e3;
        let plain_p50_ms = p50_ms(&samples);
        let traced_p50_ms = p50_ms(&traced_samples);
        layers.set("net.route_p50_us", route_us);
        layers.set("net.socket_p50_us", (plain_p50_ms * 1e3 - route_us).max(0.0));
        layers.set(
            "net.http_errors",
            probes::counter(registry, "rulekit_net_http_errors_total") as f64,
        );
        let mut lat_ms = latencies_ms(&samples);
        layers.set("net.classify_p99_ms", stats::quantile(&mut lat_ms, 0.99));
        layers.set(
            "net.classify_pmax_ms",
            stats::highest_supported(&mut lat_ms, 10).map_or(0.0, |(_, v)| v),
        );
        layers.set(
            "serve.latency_p50_us",
            probes::hist_p50(registry, "rulekit_serve_latency_nanos") / 1e3,
        );
        layers.set("serve.degraded_share", summary.degraded_share);
        layers.set(
            "serve.queue_depth_max",
            probes::gauge(registry, "rulekit_serve_queue_depth_max") as f64,
        );
        let build_ms = probes::hist_p50(registry, "rulekit_serve_snapshot_build_nanos") / 1e6;
        layers.set("serve.snapshot_build_p50_ms", build_ms);
        if edits_workload {
            let swaps = probes::counter(registry, "rulekit_serve_snapshot_swaps_total") as f64;
            let cycles =
                (started.elapsed().min(warm + p.window).as_secs_f64() * EDITS_PER_S).max(1.0);
            layers.set("serve.swaps_per_edit", swaps / (2.0 * cycles));
            let waits: Vec<f64> =
                edits.iter().map(|e| (e.visible_ns - e.ack_ns) as f64 / 1e6 - build_ms).collect();
            layers.set("serve.refresh_wait_p50_ms", stats::median(&waits).max(0.0));
            layers.set("gen.lateness_p99_ms", stats::quantile(&mut lateness_ms, 0.99));
        }
        if let Some(replica) = &system.replica {
            let r = replica.registry();
            layers.set(
                "repl.visible_lag_p50_us",
                probes::hist_p50(r, "rulekit_repl_edit_visibility_lag_nanos") / 1e3,
            );
            layers.set(
                "repl.records_applied",
                probes::counter(r, "rulekit_repl_records_applied_total") as f64,
            );
            layers.set(
                "repl.snapshots_installed",
                probes::counter(r, "rulekit_repl_snapshots_installed_total") as f64,
            );
        }
        layers.set("trace.overhead_share", (traced_p50_ms - plain_p50_ms) / plain_p50_ms.max(1e-9));
        codec_probe(layers, &traffic, &system, &taxonomy);

        // The idle-server edit probe comes after the registry was read:
        // its sentinel polls would swamp the route histogram.
        if !edits_workload {
            let mut editor = Editor { client: probes::connect(addr, &taxonomy), rings };
            (edits, edit_errors) = editor.probe(p.seed);
        }
        let ack: Vec<f64> = edits.iter().map(|s| s.ack_ns as f64 / 1e6).collect();
        let visible: Vec<f64> = edits.iter().map(|s| s.visible_ns as f64 / 1e6).collect();
        layers.set("net.edit_ack_p50_ms", stats::median(&ack));
        layers.set("net.edit_visible_p50_ms", stats::median(&visible));
    }

    let oracle = probes::snapshot(&system.chimera);
    let mut all: Vec<Sample> = samples.clone();
    all.extend(traced_samples.iter().cloned());
    let (checked, mut mismatches) = verify(&all, &traffic, &oracle);
    mismatches.append(&mut tracer.mismatches);

    let chimera = system.chimera.clone();
    if let Err(e) = system.shutdown_and_verify() {
        mismatches.push(e);
    }
    if let Some(layers) = &mut layers {
        layers.set_offline_probes(p, &taxonomy, &chimera, rule_specs(&taxonomy, &sizes, false));
        tracer.write(&p.out_dir.join(format!("trace-{}.jsonl", p.workload)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    if edits_workload {
        notes.push(format!(
            "edit schedule lateness p99 {:.3} ms",
            stats::quantile(&mut lateness_ms, 0.99)
        ));
    }
    finish(&summary, setup_s, &edits, edit_errors, checked, mismatches, layers, notes)
}

/// `net.codec_*`: the server's request decode and reply encode on the
/// workload's own bytes, outside any socket.
fn codec_probe(
    layers: &mut Layers,
    traffic: &Traffic,
    system: &probes::HttpSystem,
    taxonomy: &probes::Taxonomy,
) {
    let n = traffic.bodies.len().min(2_000);
    let requests: Vec<Vec<u8>> =
        traffic.bodies[..n].iter().map(|b| probes::request_bytes(b)).collect();
    let outcomes: Vec<_> = (0..n.min(200))
        .filter_map(|idx| match probes::submit(system.service(), traffic.product(idx)).wait() {
            Served::Answered(_, outcome) => Some(outcome),
            _ => None,
        })
        .collect();
    let start = Instant::now();
    for request in &requests {
        std::hint::black_box(probes::codec_parse(std::hint::black_box(request)));
    }
    let parse = start.elapsed();
    let start = Instant::now();
    let mut reply_bytes = 0usize;
    for _ in 0..10 {
        for outcome in &outcomes {
            reply_bytes += std::hint::black_box(probes::codec_encode(outcome, taxonomy));
        }
    }
    let encode = start.elapsed();
    let request_bytes: usize = requests.iter().map(Vec::len).sum();
    let encodes = (outcomes.len() * 10).max(1);
    layers.set("net.codec_parse_ns", parse.as_nanos() as f64 / n.max(1) as f64);
    layers.set("net.codec_encode_ns", encode.as_nanos() as f64 / encodes as f64);
    layers.set(
        "net.codec_mb_s",
        (request_bytes + reply_bytes) as f64 / 1e6 / (parse + encode).as_secs_f64().max(1e-9),
    );
}

// -------------------------------------------------------------- feed-batch

fn run_feed(p: &Params) -> Outcome {
    let sizes = sizes(&p.workload, p.quick);
    let set_up = |threads: usize| {
        let mut built = build(p, &sizes, true, threads);
        probes::add_rules_in_memory(&built.chimera, std::mem::take(&mut built.specs));
        probes::prime_aggregates(&built.chimera);
        // The first classification compiles the rule set; a feed operator
        // pays that before the first batch.
        drop(probes::snapshot(&built.chimera));
        built
    };
    let (built, setup_s) = timed_setup(setup_reps(p), || set_up(probes::PIPELINE_THREADS));
    let Built { taxonomy, chimera, training, generator, .. } = built;
    let mut feed = probes::feed(generator, p.seed);

    let stages = p.trace.then(|| Stages::build(&chimera, &training));
    let oracle_live = p.trace.then(|| probes::snapshot(&chimera));
    let warm = warmup(p.window);
    let plain = if p.trace { p.window.mul_f64(0.3) } else { p.window };
    let started = Instant::now();
    let window_start = started + warm;
    let plain_end = window_start + plain;
    let window_end = window_start + p.window;
    let mut tracer = Tracer::new(started);
    let mut samples: Vec<Sample> = Vec::new();
    let mut traced_samples: Vec<Sample> = Vec::new();
    let mut truth: Vec<TypeId> = Vec::new();
    let mut kept: Vec<(Product, probes::Decision)> = Vec::new();
    let mut batch_seq = 0u64;
    loop {
        let now = Instant::now();
        if now >= window_end {
            break;
        }
        let items = feed.next_batch();
        let products: Vec<Product> = items.iter().map(|i| i.product.clone()).collect();
        let start = Instant::now();
        let decisions = probes::classify_batch(&chimera, &products);
        let end = Instant::now();
        if start < window_start {
            continue;
        }
        let tracing = p.trace && start >= plain_end;
        let per_item_ns = (end - start).as_nanos() as u64 / products.len().max(1) as u64;
        let into = if tracing { &mut traced_samples } else { &mut samples };
        for (i, (item, decision)) in items.iter().zip(&decisions).enumerate() {
            let idx = truth.len();
            truth.push(item.truth);
            // Items of a batch complete evenly over its duration, so the
            // per-slice rates are not lumped at batch ends.
            into.push(Sample {
                seq: idx as u64,
                idx,
                done_ns: (start - window_start).as_nanos() as u64 + per_item_ns * (i as u64 + 1),
                lat_ns: per_item_ns,
                result: Ok(Answer { ty: probes::decision_type(decision), degraded: false }),
            });
            if idx.is_multiple_of(FEED_ORACLE_STRIDE) {
                kept.push((products[i].clone(), decision.clone()));
            }
        }
        if let (true, Some(stages), Some(oracle)) = (tracing, &stages, &oracle_live) {
            tracer.span(batch_seq, "chimera.classify_batch", None, start, end);
            for (i, product) in products.iter().enumerate().step_by(products.len() / 8 + 1) {
                let req = 1_000_000 * (batch_seq + 1) + i as u64;
                let inproc = tracer.replay(req, product, false, None, oracle, stages);
                if inproc.ty != probes::decision_type(&decisions[i]) {
                    tracer.mismatches.push(format!("item {req}: batch and snapshot disagree"));
                }
            }
        }
        batch_seq += 1;
    }

    // Oracle: the batch path equals single-threaded `Chimera::classify` on
    // a 1-in-50 sample, whole decision (type, confidence, explanation).
    let mut mismatches: Vec<String> = kept
        .iter()
        .filter(|(product, decision)| probes::classify_one(&chimera, product) != *decision)
        .map(|(product, _)| {
            format!("batch decision for {:?} differs from Chimera::classify", product.title)
        })
        .collect();
    mismatches.append(&mut tracer.mismatches);
    let summary = summarise(&samples, |idx| truth[idx], plain, None);
    let notes = vec![format!(
        "{} rules incl. {} fact rules, {} training items, {} batches",
        probes::rule_count(&chimera),
        gen::INFER_PACK.len(),
        training.len(),
        batch_seq
    )];

    let layers = p.trace.then(|| {
        let stages = stages.as_ref().expect("traced run builds stages");
        let mut layers = Layers::new();
        layers.set_replay(&tracer, stages);
        let (plain_p50, traced_p50) = (p50_ms(&samples), p50_ms(&traced_samples));
        layers.set("trace.overhead_share", (traced_p50 - plain_p50) / plain_p50.max(1e-9));

        // `core.batch_par_speedup`: the same batches on a one-thread twin.
        let twin = set_up(1).chimera;
        let batch: Vec<Product> = feed.take_items(2_000).into_iter().map(|i| i.product).collect();
        let rate = |chimera: &probes::Chimera| {
            drop(probes::classify_batch(chimera, &batch[..200]));
            let start = Instant::now();
            drop(probes::classify_batch(chimera, &batch));
            batch.len() as f64 / start.elapsed().as_secs_f64()
        };
        layers.set("core.batch_par_speedup", rate(&chimera) / rate(&twin));
        layers.set_offline_probes(p, &taxonomy, &chimera, rule_specs(&taxonomy, &sizes, true));
        tracer.write(&p.out_dir.join(format!("trace-{}.jsonl", p.workload)));
        layers
    });
    finish(&summary, setup_s, &[], Vec::new(), kept.len() as u64, mismatches, layers, notes)
}

// ---------------------------------------------------------- serve-overload

fn run_overload(p: &Params) -> Outcome {
    let sizes = sizes(&p.workload, p.quick);
    let ((service, chimera, taxonomy, training, generator), setup_s) =
        timed_setup(setup_reps(p), || {
            let built = build(p, &sizes, false, probes::PIPELINE_THREADS);
            probes::add_rules_in_memory(&built.chimera, built.specs);
            let chimera = std::sync::Arc::new(built.chimera);
            let service = probes::start_overload_service(&chimera);
            (service, chimera, built.taxonomy, built.training, built.generator)
        });
    let traffic = traffic(generator, p.seed, sizes.pool, false);

    let warm = warmup(p.window);
    let schedule = Schedule::per_second(OVERLOAD_RATE);
    let total = ((warm + p.window).as_secs_f64() * OVERLOAD_RATE) as u64;
    let warm_ns = warm.as_nanos() as u64;
    let started = Instant::now();
    let now_ns = move || started.elapsed().as_nanos() as u64;

    // One generator thread sends on the schedule whatever the service does;
    // one collector thread waits for outcomes in issue order.
    let (tx, rx) = mpsc::channel::<(u64, probes::Pending)>();
    let mut lateness_ms: Vec<f64> = Vec::with_capacity(total as usize);
    let mut samples: Vec<Sample> = Vec::with_capacity(total as usize);
    let mut toggles = 0u64;
    std::thread::scope(|scope| {
        let (service, traffic, lateness_ms) = (&service, &traffic, &mut lateness_ms);
        scope.spawn(move || {
            let mut k = 0u64;
            while k < total {
                let due = schedule.due_count(now_ns()).min(total);
                while k < due {
                    let product = traffic.products[k as usize % traffic.products.len()].clone();
                    let sent = now_ns();
                    let pending = probes::submit(service, product);
                    if schedule.due_ns(k) >= warm_ns {
                        lateness_ms.push(schedule.lateness_ns(k, sent) as f64 / 1e6);
                    }
                    tx.send((k, pending)).expect("collector alive");
                    k += 1;
                }
                let wait = schedule.due_ns(k).saturating_sub(now_ns());
                if wait > 50_000 {
                    std::thread::sleep(Duration::from_nanos(wait));
                } else {
                    std::thread::yield_now();
                }
            }
        });
        let (samples, toggles) = (&mut samples, &mut toggles);
        scope.spawn(move || {
            let mut was_degraded = false;
            for (k, pending) in rx {
                let served = pending.wait();
                let done = now_ns();
                let due = schedule.due_ns(k);
                if due < warm_ns {
                    continue;
                }
                // `serve.degraded_toggles`: the service's own flag, read
                // once per outcome (every ~0.2 ms).
                let degraded = probes::is_degraded(service);
                *toggles += u64::from(degraded != was_degraded);
                was_degraded = degraded;
                samples.push(Sample {
                    seq: k,
                    idx: k as usize % traffic.products.len(),
                    done_ns: done.saturating_sub(warm_ns),
                    lat_ns: done.saturating_sub(due),
                    result: match served {
                        Served::Answered(answer, _) => Ok(answer),
                        Served::DeadlineShed => Err(Miss::Refused("deadline shed")),
                        Served::Overloaded => Err(Miss::Refused("overloaded")),
                        Served::Failed(e) => Err(Miss::Failed(e)),
                    },
                });
            }
        });
    });
    let oracle = probes::snapshot(&chimera);
    let (checked, mut mismatches) = verify(&samples, &traffic, &oracle);
    let summary =
        summarise(&samples, |idx| traffic.truth[idx], p.window, Some(probes::OVERLOAD_DEADLINE));
    let lateness_p99 = stats::quantile(&mut lateness_ms, 0.99);
    let mut notes = vec![
        format!(
            "{} rules, {} training items, offered {OVERLOAD_RATE} req/s",
            probes::rule_count(&chimera),
            training.len()
        ),
        format!("generator lateness p99 {lateness_p99:.3} ms (a run above 5 ms is invalid)"),
    ];
    if lateness_p99 > 5.0 {
        notes.push("INVALID: the generator ran more than 5 ms late".to_string());
    }

    let mut tracer = Tracer::new(started);
    let layers = p.trace.then(|| {
        let stages = Stages::build(&chimera, &training);
        let mut layers = Layers::new();
        for s in &samples {
            let due = started + warm + Duration::from_nanos(s.done_ns.saturating_sub(s.lat_ns));
            tracer.span(
                s.seq,
                "serve.submit_wait",
                None,
                due,
                due + Duration::from_nanos(s.lat_ns),
            );
        }
        // The window's requests cannot be replayed while it runs (the
        // generator owns the schedule), so a sample is replayed on the idle
        // service afterwards: submit, snapshot, stages.
        let n = if p.quick { 50 } else { 300 };
        for (i, product) in traffic.products.iter().take(n).enumerate() {
            tracer.replay(
                2_000_000_000 + i as u64,
                product,
                false,
                Some(&service),
                &oracle,
                &stages,
            );
        }
        layers.set_replay(&tracer, &stages);
        let r = probes::service_registry(&service);
        let offered = summary.attempted.max(1) as f64;
        let refused = |why: &'static str| {
            samples.iter().filter(|s| s.result == Err(Miss::Refused(why))).count() as f64 / offered
        };
        layers
            .set("serve.latency_p50_us", probes::hist_p50(r, "rulekit_serve_latency_nanos") / 1e3);
        layers.set("serve.degraded_share", summary.degraded_share);
        layers.set("serve.deadline_shed_share", refused("deadline shed"));
        layers.set("serve.overloaded_share", refused("overloaded"));
        layers
            .set("serve.queue_depth_max", probes::gauge(r, "rulekit_serve_queue_depth_max") as f64);
        layers.set("serve.degraded_toggles", toggles as f64);
        layers.set(
            "serve.snapshot_build_p50_ms",
            probes::hist_p50(r, "rulekit_serve_snapshot_build_nanos") / 1e6,
        );
        layers.set("gen.lateness_p99_ms", lateness_p99);
        layers
    });
    mismatches.append(&mut tracer.mismatches);

    drop(service);
    let layers = layers.map(|mut layers| {
        layers.set_offline_probes(p, &taxonomy, &chimera, rule_specs(&taxonomy, &sizes, false));
        tracer.write(&p.out_dir.join(format!("trace-{}.jsonl", p.workload)));
        layers
    });
    finish(&summary, setup_s, &[], Vec::new(), checked, mismatches, layers, notes)
}
