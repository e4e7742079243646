//! Every call the harness makes into a rulekit crate lives in this file:
//! one function per span name, plus the set-up glue that assembles the
//! systems under test. `README.md` lists this API surface; a PR that changes
//! one of these signatures needs a benchmark-only PR first.
//!
//! Host sizing (2 vCPUs) is fixed here: 2 serving shards, 2 HTTP handler
//! threads, 2 pipeline worker threads.

use rulekit_chimera::{vote, ChimeraConfig, PipelineSnapshot, VotingConfig};
use rulekit_core::{
    AggregateStore, ExecutorKind, InferenceEngine, PreparedProduct, Rule, RuleAction,
    RuleClassifier, RuleExecutor, RuleMeta, RuleParser,
};
use rulekit_data::{BatchStream, GeneratorConfig, StreamConfig, VendorPool};
use rulekit_ie::IePipeline;
use rulekit_learn::{
    Centroid, Classifier, Ensemble, Featurizer, Knn, NaiveBayes, Perceptron, Prediction,
    TrainingSet,
};
use rulekit_net::json::obj;
use rulekit_net::{
    parse_request, HttpClient, HttpLimits, Method, NetConfig, NetServer, ParseOutcome, Response,
    RuleApp,
};
use rulekit_obs::Registry;
use rulekit_repl::{FollowerConfig, FollowerState, LeaderConfig, ReplFollower, ReplLeader};
use rulekit_serve::{
    Admission, ChimeraProvider, ClassifyOutcome, ResponseHandle, ServeConfig, ServeError,
};
use rulekit_store::{
    catalog_hash, DurableConfig, DurableRepository, FileStorage, FsyncPolicy, MemStorage, Storage,
};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use rulekit_chimera::{Chimera, Decision};
pub use rulekit_core::RuleSpec;
pub use rulekit_data::{
    pluralize, CatalogGenerator, GeneratedItem, Product, Taxonomy, TypeId, VendorId,
};
pub use rulekit_net::Json;
pub use rulekit_serve::RuleService;

pub const SHARDS: usize = 2;
pub const HANDLER_THREADS: usize = 2;
pub const PIPELINE_THREADS: usize = 2;

/// The abstention threshold `ChimeraConfig::default()` trains its ensemble
/// with; the replayed ensemble must use the same.
const ENSEMBLE_CONFIDENCE: f64 = 0.45;

/// What a caller sees of one classification, on the wire or in process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// The assigned type; `None` when the pipeline declined.
    pub ty: Option<TypeId>,
    /// Whether the rules-only path answered.
    pub degraded: bool,
}

fn answer_of(decision: &Decision, degraded: bool) -> Answer {
    Answer { ty: decision.type_id(), degraded }
}

// ------------------------------------------------------------------ inputs

pub fn escape_regex(s: &str) -> String {
    rulekit_regex::escape(s)
}

pub fn taxonomy() -> Arc<Taxonomy> {
    Taxonomy::builtin()
}

pub fn generator(taxonomy: &Arc<Taxonomy>, seed: u64) -> CatalogGenerator {
    CatalogGenerator::new(taxonomy.clone(), GeneratorConfig::seeded(seed))
}

/// Labeled training items in the production regime (§3.3): the 30% of types
/// with the least data get none, so rules alone must carry them.
pub fn training_corpus(
    taxonomy: &Taxonomy,
    generator: &mut CatalogGenerator,
    n: usize,
) -> Vec<GeneratedItem> {
    let items = generator.generate(n);
    let mut counts = vec![0usize; taxonomy.len()];
    for item in &items {
        counts[item.truth.0 as usize] += 1;
    }
    let mut by_count: Vec<TypeId> = taxonomy.ids().collect();
    by_count.sort_by_key(|t| (counts[t.0 as usize], *t));
    let tail: HashSet<TypeId> = by_count.into_iter().take(taxonomy.len() * 3 / 10).collect();
    items.into_iter().filter(|i| !tail.contains(&i.truth)).collect()
}

/// The vendor feed traffic is drawn from: batches of 200–800 items from six
/// vendors, as the serving and pipeline experiments use.
pub struct Feed(BatchStream);

pub fn feed(generator: CatalogGenerator, seed: u64) -> Feed {
    let vendors = VendorPool::generate(6, 0.0, seed);
    let cfg = StreamConfig { seed, min_batch: 200, max_batch: 800, ..Default::default() };
    Feed(BatchStream::new(generator, vendors, cfg))
}

impl Feed {
    pub fn next_batch(&mut self) -> Vec<GeneratedItem> {
        self.0.next_batch().items
    }

    /// At least `n` items, in feed order.
    pub fn take_items(&mut self, n: usize) -> Vec<GeneratedItem> {
        let mut items = Vec::with_capacity(n + 800);
        while items.len() < n {
            items.extend(self.next_batch());
        }
        items
    }
}

/// Parses candidate rule lines until `n` parse; lines the DSL rejects are
/// skipped (the synthetic stream emits a few degenerate patterns).
pub fn parse_rules(
    taxonomy: &Arc<Taxonomy>,
    lines: impl Iterator<Item = String>,
    n: usize,
) -> Vec<RuleSpec> {
    let parser = RuleParser::new(taxonomy.clone());
    lines.filter_map(|line| parser.parse_rule(&line).ok()).take(n).collect()
}

// -------------------------------------------------------------------- wire

/// The `/classify` request body for `product`, every field included so the
/// server decodes exactly the product the oracle sees.
pub fn classify_body(product: &Product) -> Vec<u8> {
    let attributes: Vec<(&str, Json)> =
        product.attributes.iter().map(|(k, v)| (k.as_str(), Json::from(v.as_str()))).collect();
    obj(vec![
        ("id", Json::from(product.id)),
        ("title", Json::from(product.title.as_str())),
        ("description", Json::from(product.description.as_str())),
        ("vendor", Json::from(u64::from(product.vendor.0))),
        ("attributes", obj(attributes)),
    ])
    .render()
    .into_bytes()
}

/// Span `net.codec_parse`: the server's request decode — HTTP framing,
/// JSON, product mapping — on raw request bytes.
pub fn codec_parse(request_bytes: &[u8]) -> Product {
    let mut reader = request_bytes;
    let request = match parse_request(&mut reader, &HttpLimits::default()) {
        Ok(ParseOutcome::Request(r)) => r,
        other => panic!("harness-built request did not parse: {other:?}"),
    };
    decode_product(&request.body)
}

/// The raw bytes `HttpClient::request` puts on the socket for `body`.
pub fn request_bytes(body: &[u8]) -> Vec<u8> {
    rulekit_net::Request {
        method: Method::Post,
        path: "/classify".to_string(),
        query: String::new(),
        headers: vec![("host".to_string(), "rulekit".to_string())],
        body: body.to_vec(),
        keep_alive: true,
    }
    .serialize()
}

pub fn decode_product(body: &[u8]) -> Product {
    let doc = Json::parse(body).expect("harness-built body is JSON");
    rulekit_net::wire::product_from_json(&doc).expect("harness-built body is a product")
}

/// Span `net.codec_encode`: the server's reply encode — outcome to JSON to
/// HTTP bytes. Returns the byte count.
pub fn codec_encode(outcome: &ClassifyOutcome, taxonomy: &Taxonomy) -> usize {
    let body = rulekit_net::wire::outcome_to_json(outcome, taxonomy).render();
    Response::json(200, body).serialize().len()
}

fn parse_classify_reply(taxonomy: &Taxonomy, body: &[u8]) -> Option<Answer> {
    let doc = Json::parse(body).ok()?;
    let decision = doc.get("decision")?;
    let ty = match decision.get("type").and_then(Json::as_str) {
        Some(name) => Some(taxonomy.id_of(name)?),
        None => {
            decision.get("declined")?;
            None
        }
    };
    Some(Answer { ty, degraded: doc.get("degraded")?.as_bool()? })
}

/// One keep-alive client connection.
pub struct Client {
    http: HttpClient,
    taxonomy: Arc<Taxonomy>,
}

pub fn connect(addr: SocketAddr, taxonomy: &Arc<Taxonomy>) -> Client {
    let http = HttpClient::connect(addr, Duration::from_secs(10)).expect("connect to server");
    Client { http, taxonomy: taxonomy.clone() }
}

impl Client {
    /// Span `http.classify`: `POST /classify`, reply read and parsed.
    /// `Err` carries what went wrong (status or transport).
    pub fn classify(&mut self, body: &[u8]) -> Result<Answer, String> {
        let reply = self.http.request(Method::Post, "/classify", body).map_err(|e| e.message())?;
        if reply.status != 200 {
            return Err(format!("status {}", reply.status));
        }
        parse_classify_reply(&self.taxonomy, &reply.body)
            .ok_or_else(|| format!("unreadable reply {}", reply.text()))
    }

    /// Span `http.edit_post`: `POST /rulesets` with one rule line; the id
    /// the 201 carries.
    pub fn add_rule(&mut self, line: &str) -> Result<u64, String> {
        let body = obj(vec![("rules", Json::from(line))]).render();
        let reply = self.http.post_json("/rulesets", &body).map_err(|e| e.message())?;
        if reply.status != 201 {
            return Err(format!("status {}: {}", reply.status, reply.text()));
        }
        Json::parse(&reply.body)
            .ok()
            .and_then(|doc| doc.get("ids")?.as_arr()?.first()?.as_u64())
            .ok_or_else(|| format!("unreadable reply {}", reply.text()))
    }

    /// Span `http.edit_delete`: `DELETE /rulesets/{id}`.
    pub fn delete_rule(&mut self, id: u64) -> Result<(), String> {
        let reply = self
            .http
            .request(Method::Delete, &format!("/rulesets/{id}"), b"")
            .map_err(|e| e.message())?;
        if reply.status == 200 {
            Ok(())
        } else {
            Err(format!("status {}: {}", reply.status, reply.text()))
        }
    }
}

// ------------------------------------------------------------------ set-up

/// An untrained pipeline over the built-in taxonomy.
pub fn new_chimera(taxonomy: &Arc<Taxonomy>, seed: u64, threads: usize) -> Chimera {
    let cfg = ChimeraConfig { seed, threads, infer_enabled: true, ..Default::default() };
    Chimera::new(taxonomy.clone(), cfg)
}

/// Span `learn.train`: featurize the corpus and train the ensemble.
pub fn train(chimera: &mut Chimera, items: &[GeneratedItem]) {
    chimera.train(items);
}

/// Loads rules straight into the pipeline's in-memory store.
pub fn add_rules_in_memory(chimera: &Chimera, specs: Vec<RuleSpec>) {
    chimera.rules.add_all(specs, &RuleMeta::default());
}

/// An analyst edit on an in-memory pipeline: parse one line, add it, return
/// its id.
pub fn add_rule_in_memory(chimera: &Chimera, line: &str) -> Result<u64, String> {
    let ids = chimera.add_rules(line).map_err(|e| e.to_string())?;
    ids.first().map(|id| id.0).ok_or_else(|| "no rule in line".to_string())
}

pub fn rule_count(chimera: &Chimera) -> usize {
    chimera.rules.len()
}

/// Gives the aggregate-gated fact rule a live series to read, as E17 does.
pub fn prime_aggregates(chimera: &Chimera) {
    let rate = chimera.aggregates().ratio("vendor_mismatch_rate");
    for i in 0..100 {
        rate.record(i % 2 == 0);
    }
}

fn file_storage(dir: &Path) -> Arc<dyn Storage> {
    Arc::new(FileStorage::open(dir).expect("open storage directory"))
}

fn durable(fsync: FsyncPolicy, checkpoint_every: u64) -> DurableConfig {
    DurableConfig { fsync, checkpoint_every, ..Default::default() }
}

/// Logs `specs` into a fresh store at `dir` without fsync (a bulk load, not
/// 50,000 acknowledged edits).
fn bulk_log(dir: &Path, taxonomy: &Arc<Taxonomy>, specs: Vec<RuleSpec>) -> DurableRepository {
    let _ = std::fs::remove_dir_all(dir);
    let store = DurableRepository::open(
        file_storage(dir),
        RuleParser::new(taxonomy.clone()),
        durable(FsyncPolicy::Never, 0),
    )
    .expect("open fresh storage");
    for spec in specs {
        store.add_rule(spec, RuleMeta::default()).expect("log rule");
    }
    store
}

/// Puts a rule set on disk the way a long-lived store holds it: bulk-logged,
/// then checkpointed, so the serving process recovers it from the checkpoint
/// when it opens the directory.
pub fn seed_storage(dir: &Path, taxonomy: &Arc<Taxonomy>, specs: Vec<RuleSpec>) {
    bulk_log(dir, taxonomy, specs).checkpoint().expect("checkpoint seeded rules");
}

/// A leader's replication port with one in-process follower on `MemStorage`.
pub struct Replica {
    follower: ReplFollower,
    store: Arc<DurableRepository>,
    registry: Registry,
    leader: ReplLeader,
}

/// The production shape: `RuleApp::durable` on `FileStorage` behind a
/// `NetServer`, fsync `Always`.
pub struct HttpSystem {
    // Declaration order is drop order: stop HTTP first, then replication.
    server: NetServer,
    pub replica: Option<Replica>,
    pub chimera: Arc<Chimera>,
    pub dir: PathBuf,
}

/// Recovers the rules seeded in `dir` into `chimera` and starts serving.
pub fn start_http(chimera: Chimera, dir: &Path, with_replica: bool) -> HttpSystem {
    let chimera = Arc::new(chimera);
    let serve_cfg = ServeConfig { shards: SHARDS, ..Default::default() };
    let mut app =
        RuleApp::durable(chimera.clone(), file_storage(dir), DurableConfig::default(), serve_cfg)
            .expect("recover durable app");
    let replica = with_replica.then(|| {
        let leader_store = app.store.clone().expect("durable app has a store");
        let leader = ReplLeader::start(
            leader_store,
            LeaderConfig { heartbeat: Duration::from_millis(50), ..Default::default() },
            &app.registry,
        )
        .expect("start replication leader");
        let store = Arc::new(
            DurableRepository::open(
                Arc::new(MemStorage::new()),
                RuleParser::new(chimera.taxonomy().clone()),
                DurableConfig::default(),
            )
            .expect("open follower store"),
        );
        let registry = Registry::new();
        let follower =
            ReplFollower::start(store.clone(), FollowerConfig::new(leader.local_addr()), &registry);
        assert!(
            follower.wait_for_state(FollowerState::Tailing, Duration::from_secs(20)),
            "follower never started tailing"
        );
        Replica { follower, store, registry, leader }
    });
    if let Some(r) = &replica {
        app = app.with_replication(r.leader.info());
    }
    let net_cfg = NetConfig { handler_threads: HANDLER_THREADS, ..Default::default() };
    let server = NetServer::start(app, net_cfg).expect("bind ephemeral port");
    HttpSystem { server, replica, chimera, dir: dir.to_path_buf() }
}

impl HttpSystem {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn service(&self) -> &RuleService {
        self.server.service()
    }

    pub fn registry(&self) -> &Arc<Registry> {
        self.server.registry()
    }

    /// Stops the server and replication, reopens the storage directory, and
    /// checks that what is on disk — and what the follower holds — is the
    /// catalog the leader served. `Err` names the first disagreement.
    pub fn shutdown_and_verify(self) -> Result<(), String> {
        let HttpSystem { server, replica, chimera, dir } = self;
        let live = catalog_hash(&chimera.rules);
        if let Some(replica) = &replica {
            let deadline = Instant::now() + Duration::from_secs(2);
            while catalog_hash(replica.store.repository()) != live && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if catalog_hash(replica.store.repository()) != live {
                return Err("follower catalog differs from the leader's".to_string());
            }
            if replica.follower.state() != FollowerState::Tailing {
                return Err(format!("follower ended {}", replica.follower.state().as_str()));
            }
        }
        drop(server);
        drop(replica);
        let reopened = DurableRepository::open(
            file_storage(&dir),
            RuleParser::new(chimera.taxonomy().clone()),
            DurableConfig::default(),
        )
        .map_err(|e| format!("reopen failed: {e}"))?;
        if catalog_hash(reopened.repository()) != live {
            return Err("reopened catalog differs from the live leader's".to_string());
        }
        Ok(())
    }
}

impl Replica {
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// The `experiments serve` configuration on two shards: small queues, a
/// 100 ms deadline, rules-only degradation between 384 and 96 queued.
pub const OVERLOAD_DEADLINE: Duration = Duration::from_millis(100);

pub fn start_overload_service(chimera: &Arc<Chimera>) -> RuleService {
    let provider = Arc::new(ChimeraProvider::new(chimera.clone()));
    RuleService::start(
        provider,
        ServeConfig {
            shards: SHARDS,
            queue_capacity: 256,
            batch_size: 32,
            high_water: 384,
            low_water: 96,
            default_deadline: Some(OVERLOAD_DEADLINE),
            refresh_interval: Duration::from_millis(10),
            worker_poll: Duration::from_millis(5),
        },
    )
}

// ----------------------------------------------------------------- serving

/// How an in-process submission ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Served {
    Answered(Answer, ClassifyOutcome),
    /// Shed from the queue: its deadline passed before a worker reached it.
    DeadlineShed,
    /// Refused at admission: every shard queue was full.
    Overloaded,
    Failed(String),
}

/// An admitted (or refused) submission.
pub struct Pending(Option<ResponseHandle>);

/// First half of span `serve.submit_wait`: admission.
pub fn submit(service: &RuleService, product: Product) -> Pending {
    match service.submit(product) {
        Admission::Enqueued(handle) => Pending(Some(handle)),
        Admission::Overloaded => Pending(None),
    }
}

impl Pending {
    /// Second half of span `serve.submit_wait`: block for the outcome.
    pub fn wait(self) -> Served {
        match self.0 {
            None => Served::Overloaded,
            Some(handle) => match handle.wait() {
                Ok(outcome) => {
                    Served::Answered(answer_of(&outcome.decision, outcome.degraded), outcome)
                }
                Err(ServeError::DeadlineExceeded) => Served::DeadlineShed,
                Err(e) => Served::Failed(e.to_string()),
            },
        }
    }
}

pub fn is_degraded(service: &RuleService) -> bool {
    service.is_degraded()
}

pub fn service_registry(service: &RuleService) -> &Arc<Registry> {
    service.service_metrics().registry()
}

// ------------------------------------------------------------------ oracle

/// The in-process reference every served answer is checked against.
pub struct Oracle(PipelineSnapshot);

/// Span `chimera.snapshot`: compile the current rule revisions.
pub fn snapshot(chimera: &Chimera) -> Oracle {
    Oracle(chimera.snapshot())
}

impl Oracle {
    /// Span `chimera.classify`: the full Figure 2 path on one product.
    pub fn classify(&self, product: &Product) -> Answer {
        answer_of(&self.0.classify(product).decision, false)
    }

    /// What the pipeline must answer on the path that served the request.
    pub fn expected(&self, product: &Product, degraded: bool) -> Answer {
        if degraded {
            answer_of(&self.0.classify_rules_only(product).decision, true)
        } else {
            self.classify(product)
        }
    }
}

/// Span `chimera.classify_batch`: one vendor batch on the worker pool.
pub fn classify_batch(chimera: &Chimera, products: &[Product]) -> Vec<Decision> {
    chimera.classify_batch(products)
}

/// The single-threaded reference for a batch decision.
pub fn classify_one(chimera: &Chimera, product: &Product) -> Decision {
    chimera.classify(product)
}

pub fn decision_type(decision: &Decision) -> Option<TypeId> {
    decision.type_id()
}

pub fn rings(taxonomy: &Taxonomy) -> TypeId {
    taxonomy.id_of("rings").expect("built-in taxonomy has rings")
}

// ------------------------------------------------------------------ stages

/// A classifier that times its inner member from outside.
struct TimedMember {
    inner: Box<dyn Classifier>,
    nanos: Arc<AtomicU64>,
}

impl Classifier for TimedMember {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn predict(&self, features: &[String]) -> Prediction {
        let start = Instant::now();
        let prediction = self.inner.predict(features);
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        prediction
    }
}

/// What the replay counted on one product.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCounts {
    pub gate_shortcircuit: bool,
    pub abstained: bool,
    pub features: usize,
    pub facts: usize,
}

/// The pipeline's stages rebuilt from its public parts — `chimera.rules`,
/// `gate_rules`, `default_ensemble`'s members — so each can be called, and
/// timed, on its own. Serving snapshots feed no stage histogram, so this
/// replay is the only outside view of stages under HTTP traffic.
pub struct Stages {
    gate: RuleClassifier,
    rules: RuleClassifier,
    rules_executor: Arc<dyn RuleExecutor>,
    infer: InferenceEngine,
    ie: Option<IePipeline>,
    aggregates: Arc<AggregateStore>,
    featurizer: Featurizer,
    ensemble: Option<Ensemble>,
    member_nanos: [Arc<AtomicU64>; 4],
    predict_calls: AtomicU64,
    /// Span `core.build`: `ExecutorKind::build` over the main rule set.
    pub build_ms: f64,
    /// Span `learn.train`: the four members trained alone, summed.
    pub train_s: f64,
}

impl Stages {
    /// `training` are the items the pipeline was trained on (empty for an
    /// untrained pipeline: the learn stages then do no work, as in serving).
    pub fn build(chimera: &Chimera, training: &[GeneratedItem]) -> Stages {
        let is_infer = |r: &Rule| matches!(r.action, RuleAction::Infer(_));
        let (infer_rules, rule_set): (Vec<Rule>, Vec<Rule>) =
            chimera.rules.enabled_snapshot().into_iter().partition(is_infer);
        let gate_set: Vec<Rule> =
            chimera.gate_rules.enabled_snapshot().into_iter().filter(|r| !is_infer(r)).collect();

        let start = Instant::now();
        let rules_executor = ExecutorKind::default().build(rule_set.clone());
        let build_ms = start.elapsed().as_secs_f64() * 1e3;

        let infer = InferenceEngine::from_rules(&infer_rules);
        let ie = (!infer.is_empty()).then(|| IePipeline::standard(chimera.taxonomy()));
        let featurizer = Featurizer::new();
        let member_nanos: [Arc<AtomicU64>; 4] = Default::default();
        let mut train_s = 0.0;
        let ensemble = (!training.is_empty()).then(|| {
            let docs = training
                .iter()
                .map(|item| (featurizer.features(&item.product), item.truth))
                .collect();
            let data = TrainingSet::from_pairs(docs);
            let start = Instant::now();
            let members: [Box<dyn Classifier>; 4] = [
                Box::new(NaiveBayes::train(&data)),
                Box::new(Knn::train(&data, 5)),
                Box::new(Centroid::train(&data)),
                Box::new(Perceptron::train(&data)),
            ];
            train_s = start.elapsed().as_secs_f64();
            members.into_iter().zip(&member_nanos).fold(
                Ensemble::new(ENSEMBLE_CONFIDENCE),
                |ensemble, (inner, nanos)| {
                    ensemble.add(Box::new(TimedMember { inner, nanos: nanos.clone() }), 1.0)
                },
            )
        });
        Stages {
            gate: RuleClassifier::new(ExecutorKind::default().build(gate_set.clone()), gate_set),
            rules: RuleClassifier::new(rules_executor.clone(), rule_set),
            rules_executor,
            infer,
            ie,
            aggregates: chimera.aggregates().clone(),
            featurizer,
            ensemble,
            member_nanos,
            predict_calls: AtomicU64::new(0),
            build_ms,
            train_s,
        }
    }

    /// Mean ns per `predict` call of each ensemble member, in training
    /// order: NB, k-NN, centroid, perceptron (timed by the wrapper around each member).
    pub fn member_mean_ns(&self) -> [f64; 4] {
        let calls = self.predict_calls.load(Ordering::Relaxed).max(1) as f64;
        [0, 1, 2, 3].map(|i| self.member_nanos[i].load(Ordering::Relaxed) as f64 / calls)
    }

    /// `(candidates considered, rules fired)` by the main executor.
    pub fn rule_counts(&self, product: &Product) -> (usize, usize) {
        let prepared = PreparedProduct::with_aggregates(product, Some(self.aggregates.clone()));
        let (fired, considered) = self.rules_executor.matching_rules_with_stats(&prepared);
        (considered, fired.len())
    }

    /// Replays one product stage by stage, exactly as
    /// `PipelineSnapshot::classify` sequences them, reporting each stage to
    /// `span(name, start, end)` — one call per span name: `ie.extract`,
    /// `core.infer`, `core.prepare`, `core.gate`, `core.rules`,
    /// `learn.featurize`, `learn.predict`, `chimera.vote`.
    pub fn replay(
        &self,
        product: &Product,
        span: &mut dyn FnMut(&'static str, Instant, Instant),
    ) -> (Answer, StageCounts) {
        let mut counts = StageCounts::default();
        let mut timed = |name: &'static str, start: Instant| span(name, start, Instant::now());

        let mut augmented = None;
        if let Some(ie) = &self.ie {
            let start = Instant::now();
            let seeds: Vec<(String, String)> = ie
                .extract(&product.title)
                .into_iter()
                .map(|ex| (format!("ie_{}", ex.field), ex.value))
                .collect();
            timed("ie.extract", start);
            let start = Instant::now();
            let outcome = self.infer.infer(product, &seeds, Some(self.aggregates.clone()));
            augmented = outcome.augmented(product);
            timed("core.infer", start);
            counts.facts = outcome.facts.len();
        }
        let product = augmented.as_ref().unwrap_or(product);

        let start = Instant::now();
        let prepared = PreparedProduct::with_aggregates(product, Some(self.aggregates.clone()));
        timed("core.prepare", start);

        let start = Instant::now();
        let gate_verdict = self.gate.classify_prepared(&prepared);
        let finals = gate_verdict.final_candidates();
        timed("core.gate", start);
        if finals.len() == 1 {
            counts.gate_shortcircuit = true;
            return (Answer { ty: Some(finals[0].0), degraded: false }, counts);
        }

        let start = Instant::now();
        let verdict = self.rules.classify_prepared(&prepared);
        timed("core.rules", start);

        let learned = match &self.ensemble {
            Some(ensemble) => {
                let start = Instant::now();
                let features = self.featurizer.features(product);
                timed("learn.featurize", start);
                counts.features = features.len();
                let start = Instant::now();
                let learned = ensemble.predict(&features);
                timed("learn.predict", start);
                self.predict_calls.fetch_add(1, Ordering::Relaxed);
                counts.abstained = learned.is_abstention();
                learned
            }
            None => Prediction::empty(),
        };

        let start = Instant::now();
        let decision = vote(&verdict, &learned, &HashSet::new(), VotingConfig::default());
        timed("chimera.vote", start);
        (answer_of(&decision, false), counts)
    }
}

// ---------------------------------------------------------------- registry

/// p50 of a registry histogram, or 0 when the series has no samples.
pub fn hist_p50(registry: &Registry, name: &str) -> f64 {
    let hist = registry.histogram(name);
    if hist.count() == 0 {
        0.0
    } else {
        hist.quantile(0.5) as f64
    }
}

pub fn hist_count(registry: &Registry, name: &str) -> u64 {
    registry.histogram(name).count()
}

pub fn counter(registry: &Registry, name: &str) -> u64 {
    registry.counter(name).value()
}

pub fn gauge(registry: &Registry, name: &str) -> i64 {
    registry.gauge(name).value()
}

// ------------------------------------------------------------- store probe

/// The store layer alone, on a scratch directory holding `specs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreProbe {
    pub replay_rec_s: f64,
    pub checkpoint_ms: f64,
    pub reopen_ms: f64,
    pub append_p50_us: f64,
    pub fsync_p50_us: f64,
    pub fsyncs_per_edit: f64,
    pub wal_bytes_per_edit: f64,
}

/// Spans `store.reopen` (WAL replay, then checkpoint load), `store.checkpoint`
/// and `store.append` (`DurableRepository::add_rule`, fsync `Always`).
pub fn store_probe(dir: &Path, taxonomy: &Arc<Taxonomy>, specs: Vec<RuleSpec>) -> StoreProbe {
    const EDITS: usize = 64;
    let parser = RuleParser::new(taxonomy.clone());
    let mut probe = StoreProbe::default();
    drop(bulk_log(dir, taxonomy, specs));

    let start = Instant::now();
    let store =
        DurableRepository::open(file_storage(dir), parser.clone(), durable(FsyncPolicy::Never, 0))
            .expect("reopen with the full log");
    probe.replay_rec_s = store.recovery().replayed as f64 / start.elapsed().as_secs_f64();
    let start = Instant::now();
    store.checkpoint().expect("checkpoint");
    probe.checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(store);

    let registry = Registry::new();
    let start = Instant::now();
    let store = DurableRepository::open_observed(
        file_storage(dir),
        parser.clone(),
        durable(FsyncPolicy::Always, 0),
        &registry,
    )
    .expect("reopen from the checkpoint");
    probe.reopen_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut appends = Vec::with_capacity(EDITS);
    for i in 0..EDITS {
        let spec = parser.parse_rule(&format!("zzqxstore{i}s? -> rings")).expect("probe rule");
        let start = Instant::now();
        store.add_rule(spec, RuleMeta::default()).expect("durable append");
        appends.push(start.elapsed().as_secs_f64() * 1e6);
    }
    probe.append_p50_us = crate::stats::median(&appends);
    probe.fsync_p50_us = hist_p50(&registry, "rulekit_store_wal_fsync_nanos") / 1e3;
    probe.fsyncs_per_edit =
        hist_count(&registry, "rulekit_store_wal_fsync_nanos") as f64 / EDITS as f64;
    probe.wal_bytes_per_edit = store.stats().wal_bytes as f64 / EDITS as f64;
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    probe
}

// ------------------------------------------------------------ result files

fn json_metrics(doc: &Json) -> Vec<(String, f64)> {
    doc.as_obj()
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, value)| {
            Some((name.clone(), value.as_f64().or_else(|| value.get("value")?.as_f64())?))
        })
        .collect()
}

/// The `runs` of a result-set file, each a name → value list, read back
/// with the program's own JSON codec.
pub fn json_runs(bytes: &[u8]) -> Result<Vec<Vec<(String, f64)>>, String> {
    let doc = Json::parse(bytes).map_err(|e| e.to_string())?;
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("no \"runs\" array")?;
    Ok(runs.iter().map(json_metrics).collect())
}

/// The result line a workload process prints last.
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn json_result_line(line: &str) -> Result<ResultLine, String> {
    let doc = Json::parse(line.as_bytes()).map_err(|e| e.to_string())?;
    let field = |name: &str| doc.get(name).ok_or(format!("result line lacks {name:?}"));
    Ok(ResultLine {
        correct: field("correct")?.as_bool().ok_or("\"correct\" is not a bool")?,
        attempted: field("attempted")?.as_u64().ok_or("\"attempted\" is not a count")?,
        failed: field("failed")?.as_u64().ok_or("\"failed\" is not a count")?,
        metrics: json_metrics(field("metrics")?),
    })
}
