//! End-to-end integration over a real socket: a durable server classifies
//! concurrent traffic while a rule edit lands (WAL-logged, then visible
//! within one snapshot swap), survives a restart, answers overload with
//! explicit 503s, drains gracefully, and exposes per-route histograms on
//! `/metrics`.

use rulekit_chimera::{Chimera, ChimeraConfig, Decision, PipelineSnapshot, SnapshotDecision};
use rulekit_data::{Product, Taxonomy, TypeId, VendorId};
use rulekit_net::wire::decision_to_json;
use rulekit_net::{HttpClient, Json, Method, NetConfig, NetServer, RuleApp};
use rulekit_obs::Registry;
use rulekit_serve::{
    ChimeraProvider, RequestClassifier, RuleService, ServeConfig, SnapshotProvider, StaticProvider,
};
use rulekit_store::{DurableConfig, MemStorage, Storage};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ruled_chimera() -> Arc<Chimera> {
    let chimera = Chimera::new(Taxonomy::builtin(), ChimeraConfig::default());
    chimera.add_rules("rings? -> rings\n").unwrap();
    Arc::new(chimera)
}

fn serve_cfg() -> ServeConfig {
    ServeConfig { shards: 2, refresh_interval: Duration::from_millis(10), ..Default::default() }
}

fn client(server: &NetServer) -> HttpClient {
    HttpClient::connect(server.local_addr(), Duration::from_secs(5)).expect("connect")
}

fn classify_body(title: &str) -> String {
    format!("{{\"title\": \"{title}\"}}")
}

/// The acceptance-path test: concurrent clients classify over real sockets
/// while a rule edit lands through the durable CRUD surface; the edit is
/// WAL-logged before the 201 and becomes visible to classify traffic within
/// one snapshot swap, without any client seeing an error.
#[test]
fn concurrent_classify_while_rule_edit_lands() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let app = RuleApp::durable(ruled_chimera(), storage, DurableConfig::default(), serve_cfg())
        .expect("durable app");
    let server = NetServer::start(app, NetConfig::default()).expect("bind");

    // Durable recovery replaces the repository with the WAL state (empty
    // here), so the baseline rule is seeded through the API like any other
    // edit, then polled until the refresher swaps it in.
    let mut c = client(&server);
    let seeded = c.post_json("/rulesets", "{\"rules\": \"rings? -> rings\\n\"}").unwrap();
    assert_eq!(seeded.status, 201, "{}", seeded.text());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = c.post_json("/classify", &classify_body("diamond wedding ring")).unwrap();
        assert_eq!(r.status, 200);
        if r.text().contains("\"type\":\"rings\"") {
            break;
        }
        assert!(Instant::now() < deadline, "seed rule never became visible");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Background traffic: four connections, each pipelining classify
    // requests for a title the seed rule matches. Every response must be a
    // 200 naming "rings", before, during, and after the edit.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = server.local_addr();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr, Duration::from_secs(5)).unwrap();
                let body = classify_body("diamond wedding ring");
                let mut served = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let responses =
                        client.pipeline(Method::Post, "/classify", body.as_bytes(), 8).unwrap();
                    for r in responses {
                        assert_eq!(r.status, 200, "{}", r.text());
                        assert!(r.text().contains("\"type\":\"rings\""), "{}", r.text());
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();

    // Mid-stream: no rule matches sofas yet…
    let before = c.post_json("/classify", &classify_body("leather sofa")).unwrap();
    assert_eq!(before.status, 200);
    assert!(before.text().contains("declined"), "{}", before.text());

    // …then the edit lands through the durable path (201 = WAL-logged).
    let created = c
        .post_json("/rulesets", "{\"rules\": \"sofas? -> sofas\\n\", \"author\": \"ops\"}")
        .unwrap();
    assert_eq!(created.status, 201, "{}", created.text());
    assert!(created.text().contains("\"ids\""), "{}", created.text());

    // The refresher must make it visible within one snapshot swap.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut swapped = false;
    while Instant::now() < deadline {
        let r = c.post_json("/classify", &classify_body("leather sofa")).unwrap();
        assert_eq!(r.status, 200);
        if r.text().contains("\"type\":\"sofas\"") {
            swapped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(swapped, "rule edit never became visible to classify traffic");

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: usize = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    assert!(total > 0, "background traffic never ran");

    // CRUD read side sees the edit too.
    let list = c.get("/rulesets").unwrap();
    assert_eq!(list.status, 200);
    assert!(list.text().contains("sofas? -> sofas"), "{}", list.text());
}

/// A rule created over HTTP survives a full server restart: the WAL replays
/// it into the new process before the new server answers traffic.
#[test]
fn rule_edit_is_durable_across_server_restart() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());

    let rule_id;
    {
        let app = RuleApp::durable(
            ruled_chimera(),
            storage.clone(),
            DurableConfig::default(),
            serve_cfg(),
        )
        .unwrap();
        let server = NetServer::start(app, NetConfig::default()).unwrap();
        let mut c = client(&server);
        let created = c.post_json("/rulesets", "{\"rules\": \"sofas? -> sofas\\n\"}").unwrap();
        assert_eq!(created.status, 201, "{}", created.text());
        let body = created.text();
        // `"ids": [N]` — capture the id for the post-restart lookup.
        let ids_at = body.find("\"ids\":[").expect("ids in body") + "\"ids\":[".len();
        rule_id = body[ids_at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse::<u64>()
            .expect("numeric id");
    } // server drains and drops; storage (the "disk") outlives it

    // A fresh chimera (no sofas rule of its own) + the same storage: the
    // WAL must bring the rule back.
    let app =
        RuleApp::durable(ruled_chimera(), storage, DurableConfig::default(), serve_cfg()).unwrap();
    let server = NetServer::start(app, NetConfig::default()).unwrap();
    let mut c = client(&server);

    let rule = c.get(&format!("/rulesets/{rule_id}")).unwrap();
    assert_eq!(rule.status, 200, "{}", rule.text());
    assert!(rule.text().contains("sofas? -> sofas"), "{}", rule.text());

    let r = c.post_json("/classify", &classify_body("leather sofa")).unwrap();
    assert_eq!(r.status, 200);
    assert!(r.text().contains("\"type\":\"sofas\""), "recovered rule must serve: {}", r.text());

    // And the recovered rule deletes cleanly through the durable path.
    let deleted = c.request(Method::Delete, &format!("/rulesets/{rule_id}"), b"").unwrap();
    assert_eq!(deleted.status, 200, "{}", deleted.text());
    let gone = c.get(&format!("/rulesets/{rule_id}")).unwrap();
    assert_eq!(gone.status, 404);
}

/// An expression rule travels the same durable path as every other rule:
/// POSTed through the `expr` field, WAL-logged before the 201, visible to
/// classify traffic (with its numeric predicate enforced), and alive after
/// a full server restart.
#[test]
fn expression_rule_posts_persists_and_survives_restart() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let rule_id;
    {
        let app = RuleApp::durable(
            ruled_chimera(),
            storage.clone(),
            DurableConfig::default(),
            serve_cfg(),
        )
        .unwrap();
        let server = NetServer::start(app, NetConfig::default()).unwrap();
        let mut c = client(&server);

        // Neither "rules" nor "expr" → 422; malformed expression → 422.
        let missing = c.post_json("/rulesets", "{\"author\": \"ops\"}").unwrap();
        assert_eq!(missing.status, 422, "{}", missing.text());
        let bad = c.post_json("/rulesets", "{\"expr\": \"price < => sofas\"}").unwrap();
        assert_eq!(bad.status, 422, "{}", bad.text());

        let created = c
            .post_json("/rulesets", "{\"expr\": \"price < 20 && title ~ /sofa/ => sofas\"}")
            .unwrap();
        assert_eq!(created.status, 201, "{}", created.text());
        let body = created.text();
        let ids_at = body.find("\"ids\":[").expect("ids in body") + "\"ids\":[".len();
        rule_id = body[ids_at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse::<u64>()
            .expect("numeric id");

        // The stored source carries the `rule:` prefix (round-trippable
        // through any parser), and classify traffic sees the rule within
        // one snapshot swap — numeric predicate included.
        let rule = c.get(&format!("/rulesets/{rule_id}")).unwrap();
        assert!(rule.text().contains("rule: price < 20"), "{}", rule.text());
        let cheap = "{\"title\": \"leather sofa\", \"attributes\": {\"Price\": \"15.99\"}}";
        let pricey = "{\"title\": \"leather sofa\", \"attributes\": {\"Price\": \"899\"}}";
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let r = c.post_json("/classify", cheap).unwrap();
            assert_eq!(r.status, 200);
            if r.text().contains("\"type\":\"sofas\"") {
                break;
            }
            assert!(Instant::now() < deadline, "expression rule never became visible");
            std::thread::sleep(Duration::from_millis(5));
        }
        let r = c.post_json("/classify", pricey).unwrap();
        assert!(r.text().contains("declined"), "price gate ignored: {}", r.text());
    } // server drains; storage outlives it

    // Fresh process, same storage: WAL replay re-compiles the expression.
    let app =
        RuleApp::durable(ruled_chimera(), storage, DurableConfig::default(), serve_cfg()).unwrap();
    let server = NetServer::start(app, NetConfig::default()).unwrap();
    let mut c = client(&server);
    let rule = c.get(&format!("/rulesets/{rule_id}")).unwrap();
    assert_eq!(rule.status, 200, "{}", rule.text());
    assert!(rule.text().contains("price < 20"), "{}", rule.text());
    let cheap = "{\"title\": \"leather sofa\", \"attributes\": {\"Price\": \"15.99\"}}";
    let r = c.post_json("/classify", cheap).unwrap();
    assert_eq!(r.status, 200);
    assert!(
        r.text().contains("\"type\":\"sofas\""),
        "recovered expr rule must serve: {}",
        r.text()
    );
}

/// A classifier that holds every request long enough to back up a
/// one-deep admission queue.
struct SlowClassifier(Duration);

impl RequestClassifier for SlowClassifier {
    fn version(&self) -> u64 {
        1
    }

    fn classify(&self, _product: &Product) -> SnapshotDecision {
        std::thread::sleep(self.0);
        SnapshotDecision {
            decision: Decision::Classified { ty: TypeId(1), confidence: 0.9, explanation: vec![] },
            candidates: 1,
            degraded: false,
        }
    }
}

/// Builds an app whose serving tier is deliberately tiny and slow, so
/// concurrent traffic overruns the admission queue.
fn congested_app(delay: Duration) -> RuleApp {
    let chimera = ruled_chimera();
    let registry = Arc::new(Registry::new());
    let provider = Arc::new(StaticProvider::new(Arc::new(SlowClassifier(delay))));
    let cfg = ServeConfig {
        shards: 1,
        queue_capacity: 1,
        batch_size: 1,
        high_water: 1000,
        low_water: 999,
        ..Default::default()
    };
    let service = RuleService::start_with_registry(provider, cfg, registry.clone());
    RuleApp {
        service,
        store: None,
        rules: chimera.rules.clone(),
        parser: chimera.parser().clone(),
        taxonomy: chimera.taxonomy().clone(),
        registry,
        replication: None,
    }
}

/// Overload is an explicit 503 with the shed counter incrementing — not a
/// hang, not an unbounded buffer.
#[test]
fn overload_surfaces_as_503_and_increments_shed_counter() {
    let app = congested_app(Duration::from_millis(120));
    let server = NetServer::start(app, NetConfig::default()).unwrap();
    let addr = server.local_addr();

    // 8 concurrent single-product classifies against a 1-shard,
    // 1-capacity queue where each item takes 120 ms: most must shed.
    let workers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
                let r = c.post_json("/classify", &classify_body("diamond ring")).unwrap();
                r.status
            })
        })
        .collect();
    let statuses: Vec<u16> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    assert!(statuses.contains(&200), "someone must be served: {statuses:?}");
    assert!(statuses.contains(&503), "someone must shed: {statuses:?}");
    assert!(statuses.iter().all(|&s| s == 200 || s == 503), "{statuses:?}");

    let shed = server
        .registry()
        .snapshot()
        .counter("rulekit_net_overload_shed_total")
        .expect("shed counter registered");
    assert_eq!(shed, statuses.iter().filter(|&&s| s == 503).count() as u64);

    // The exposition carries it too.
    let mut c = client(&server);
    let metrics = c.get("/metrics").unwrap();
    assert!(metrics.text().contains("rulekit_net_overload_shed_total"), "{}", metrics.text());
}

/// The real pipeline, held inside `classify` a little longer so that eight
/// connections do collide on two shards.
struct Lingering(PipelineSnapshot);

impl RequestClassifier for Lingering {
    fn version(&self) -> u64 {
        self.0.version()
    }

    fn classify(&self, product: &Product) -> SnapshotDecision {
        std::thread::sleep(Duration::from_micros(300));
        self.0.classify(product)
    }
}

struct LingeringProvider(ChimeraProvider);

impl SnapshotProvider for LingeringProvider {
    fn build(&self) -> Arc<dyn RequestClassifier> {
        Arc::new(Lingering(self.0.chimera().snapshot()))
    }

    fn revision(&self) -> u64 {
        self.0.revision()
    }

    fn wait_for_change(&self, last_seen: u64, timeout: Duration) -> u64 {
        self.0.wait_for_change(last_seen, timeout)
    }
}

/// More connections than shards: a handler thread classifies on a shard it
/// finds idle and queues for the shard's worker otherwise. Either way the
/// reply is a 200 carrying the pipeline's own decision, and nothing is shed
/// while the queues have room.
#[test]
fn eight_connections_on_two_shards_use_both_paths() {
    let chimera = ruled_chimera();
    chimera.add_rules("sofas? -> sofas\n(area|oriental|braided) rugs? -> area rugs\n").unwrap();
    let registry = Arc::new(Registry::new());
    let service = RuleService::start_with_registry(
        Arc::new(LingeringProvider(ChimeraProvider::new(chimera.clone()))),
        serve_cfg(),
        registry.clone(),
    );
    let app = RuleApp {
        service,
        store: None,
        rules: chimera.rules.clone(),
        parser: chimera.parser().clone(),
        taxonomy: chimera.taxonomy().clone(),
        registry,
        replication: None,
    };
    let server = NetServer::start(app, NetConfig { handler_threads: 8, ..Default::default() })
        .expect("bind");
    let addr = server.local_addr();

    // What the pipeline itself says about each title, as the wire renders it.
    let oracle = chimera.snapshot();
    let cases: Vec<(&str, Json)> =
        ["diamond wedding ring", "leather sofa", "braided area rug", "garden hose"]
            .into_iter()
            .map(|title| {
                let product = Product {
                    id: 0,
                    title: title.into(),
                    description: String::new(),
                    attributes: vec![],
                    vendor: VendorId(0),
                };
                let decision = oracle.classify(&product).decision;
                (title, decision_to_json(&decision, chimera.taxonomy()))
            })
            .collect();

    let per_conn = 60;
    std::thread::scope(|s| {
        for conn in 0..8 {
            let cases = &cases;
            s.spawn(move || {
                let mut c = HttpClient::connect(addr, Duration::from_secs(5)).unwrap();
                for i in 0..per_conn {
                    let (title, expected) = &cases[(conn + i) % cases.len()];
                    let r = c.post_json("/classify", &classify_body(title)).unwrap();
                    assert_eq!(r.status, 200, "{}", r.text());
                    let reply = Json::parse(&r.body).expect("json reply");
                    assert_eq!(reply.get("decision"), Some(expected), "{title}");
                    assert_eq!(reply.get("degraded"), Some(&Json::Bool(false)));
                }
            });
        }
    });

    let counters = server.registry().snapshot();
    let counter = |name: &str| counters.counter(name).unwrap_or_else(|| panic!("{name} missing"));
    let on_caller = counter("rulekit_serve_ran_on_caller_total");
    let on_worker = counter("rulekit_serve_ran_on_worker_total");
    assert!(on_caller > 0 && on_worker > 0, "caller {on_caller}, worker {on_worker}");
    assert_eq!(on_caller + on_worker, 8 * per_conn as u64);
    assert_eq!(counter("rulekit_serve_completed_total"), 8 * per_conn as u64);
    assert_eq!(counter("rulekit_serve_overloaded_total"), 0);
    assert_eq!(counter("rulekit_net_overload_shed_total"), 0);

    // Both counters are on the scrape.
    let text = client(&server).get("/metrics").unwrap().text();
    for name in ["rulekit_serve_ran_on_caller_total", "rulekit_serve_ran_on_worker_total"] {
        assert!(text.contains(name), "{name} missing from /metrics:\n{text}");
    }
}

/// `/metrics` over the socket exposes per-route latency histograms and
/// request counters for the routes traffic actually hit.
#[test]
fn metrics_route_exposes_per_route_histograms() {
    let app = RuleApp::in_memory(ruled_chimera(), serve_cfg());
    let server = NetServer::start(app, NetConfig::default()).unwrap();
    let mut c = client(&server);

    assert_eq!(c.post_json("/classify", &classify_body("ring")).unwrap().status, 200);
    assert_eq!(c.get("/health").unwrap().status, 200);
    assert_eq!(c.get("/rulesets").unwrap().status, 200);

    let text = c.get("/metrics").unwrap().text();
    for route in ["classify", "health", "rulesets_list"] {
        assert!(
            text.contains(&format!("rulekit_net_requests_total{{route=\"{route}\"}}")),
            "missing request counter for {route}:\n{text}"
        );
        assert!(
            text.contains(&format!(
                "rulekit_net_route_latency_nanos{{route=\"{route}\",quantile=\"0.5\"}}"
            )),
            "missing latency histogram for {route}:\n{text}"
        );
    }
    // Serving-tier metrics share the same scrape (one registry).
    assert!(text.contains("rulekit_serve_"), "serve metrics missing from scrape:\n{text}");
    assert!(text.ends_with('\n'), "exposition must end with a newline");
}

/// One scrape covers every tier: a durable server's `/metrics` carries the
/// store's WAL series, and served classifies feed the pipeline's stage
/// histograms.
#[test]
fn durable_server_metrics_include_store_and_pipeline_stages() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let app =
        RuleApp::durable(ruled_chimera(), storage, DurableConfig::default(), serve_cfg()).unwrap();
    let server = NetServer::start(app, NetConfig::default()).unwrap();
    let mut c = client(&server);
    let created = c.post_json("/rulesets", "{\"rules\": \"sofas? -> sofas\\n\"}").unwrap();
    assert_eq!(created.status, 201, "{}", created.text());
    assert_eq!(c.post_json("/classify", &classify_body("ring")).unwrap().status, 200);

    let text = c.get("/metrics").unwrap().text();
    let count = |series: &str| -> u64 {
        let line = text
            .lines()
            .find(|l| l.starts_with(series))
            .unwrap_or_else(|| panic!("{series} missing from scrape:\n{text}"));
        line.rsplit(' ').next().unwrap().parse().unwrap()
    };
    assert!(count("rulekit_store_wal_fsync_nanos_count ") >= 1);
    assert!(count("rulekit_chimera_stage_nanos_count{stage=\"gate\"} ") >= 1);
    assert!(count("rulekit_chimera_decisions_total ") >= 1);
}

/// `/health` reports status, snapshot version, and per-shard queue depths.
#[test]
fn health_reports_shard_depths_and_status() {
    let app = RuleApp::in_memory(ruled_chimera(), serve_cfg());
    let server = NetServer::start(app, NetConfig::default()).unwrap();
    let mut c = client(&server);
    let health = c.get("/health").unwrap();
    assert_eq!(health.status, 200);
    let text = health.text();
    assert!(text.contains("\"status\":\"ok\""), "{text}");
    assert!(text.contains("\"snapshot_version\""), "{text}");
    assert!(text.contains("\"shard_queue_depths\":["), "{text}");
}

/// Graceful drain: in-flight keep-alive connections get a final 503 with
/// `Connection: close`, new connections stop being accepted, and shutdown
/// joins every network thread.
#[test]
fn graceful_drain_stops_accepting_and_flushes() {
    let app = RuleApp::in_memory(ruled_chimera(), serve_cfg());
    let mut server = NetServer::start(app, NetConfig::default()).unwrap();
    let addr = server.local_addr();

    // A live keep-alive session before the drain…
    let mut c = client(&server);
    assert_eq!(c.get("/health").unwrap().status, 200);

    server.shutdown();
    assert!(server.is_draining());

    // …sees an explicit 503 (drain), not a hang, if it asks again.
    // (an Err here means the connection was torn down first — also a valid drain)
    if let Ok(resp) = c.get("/health") {
        assert_eq!(resp.status, 503, "{}", resp.text());
    }

    // New connections are not served: either refused outright or unable
    // to complete a request.
    // (a connect Err means the acceptor is gone — refused outright)
    if let Ok(mut late) = HttpClient::connect(addr, Duration::from_millis(500)) {
        let status = late.get("/health").ok().map(|r| r.status);
        assert!(
            status.is_none() || status == Some(503),
            "post-drain request must not be served: {status:?}"
        );
    }

    // The serving tier itself still runs until the app drops: direct
    // submissions keep working (the three-phase drain's middle state).
    let outcome = server.service().submit(Product {
        id: 1,
        title: "diamond ring".into(),
        description: String::new(),
        attributes: vec![],
        vendor: VendorId(0),
    });
    assert!(matches!(outcome, rulekit_serve::Admission::Enqueued(_)));
}

/// The opt-in retry satellite: a 503 with `Connection: close` is retried
/// after a jittered backoff on a fresh connection, and a refused connect is
/// retried until the listener comes up. Raw-socket fakes keep both halves
/// deterministic.
#[test]
fn client_retry_rides_out_503_and_refused_connect() {
    use rulekit_net::RetryPolicy;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    let policy = RetryPolicy {
        max_attempts: 6,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(40),
        seed: 11,
    };

    // Half 1: 503 then success. The fake server sheds the first request
    // with a closing 503, serves the retry on the next connection.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        let (mut s, _) = listener.accept().unwrap();
        let _ = s.read(&mut buf);
        s.write_all(
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        drop(s);
        let (mut s, _) = listener.accept().unwrap();
        let _ = s.read(&mut buf);
        s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
    });
    let mut c = HttpClient::connect(addr, Duration::from_secs(5)).unwrap();
    let resp = c.request_with_retry(Method::Get, "/health", b"", &policy).unwrap();
    assert_eq!(resp.status, 200, "retry must land on the recovered server");
    assert_eq!(resp.text(), "ok");
    fake.join().unwrap();

    // A plain request (no retry) through the non-retry path still sees the
    // 503 — retry stays opt-in. (Fresh fake: one shedding connection.)
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr2 = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        let (mut s, _) = listener.accept().unwrap();
        let _ = s.read(&mut buf);
        s.write_all(
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    });
    let mut plain = HttpClient::connect(addr2, Duration::from_secs(5)).unwrap();
    assert_eq!(plain.get("/health").unwrap().status, 503);
    fake.join().unwrap();

    // Half 2: connect_with_retry against a port that only starts listening
    // after a delay (SO_REUSEADDR makes the rebind race-free on the same
    // ephemeral port once the first listener drops).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr3 = listener.local_addr().unwrap();
    drop(listener);
    assert!(
        HttpClient::connect(addr3, Duration::from_secs(1)).is_err(),
        "precondition: nobody listening"
    );
    let late = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        let listener = TcpListener::bind(addr3).unwrap();
        let (mut s, _) = listener.accept().unwrap();
        let mut buf = [0u8; 4096];
        let _ = s.read(&mut buf);
        s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n").unwrap();
    });
    let generous = RetryPolicy { max_attempts: 40, ..policy };
    let mut c = HttpClient::connect_with_retry(addr3, Duration::from_secs(1), &generous).unwrap();
    assert_eq!(c.get("/health").unwrap().status, 200);
    late.join().unwrap();
}

/// The inference-tier CRUD path: an `infer:` fact rule and an expression
/// rule gated on the derived fact post through `/rulesets` in one body,
/// WAL-log like any other rule, drive classify traffic, and both survive a
/// full server restart.
#[test]
fn infer_rule_posts_derives_and_survives_restart() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let item = "{\"title\": \"mystery item\", \"attributes\": {\"ISBN\": \"9781234567890\"}}";
    {
        let app = RuleApp::durable(
            ruled_chimera(),
            storage.clone(),
            DurableConfig::default(),
            serve_cfg(),
        )
        .unwrap();
        let server = NetServer::start(app, NetConfig::default()).unwrap();
        let mut c = client(&server);

        // Malformed consequent → typed 422, nothing stored.
        let bad = c.post_json("/rulesets", "{\"infer\": \"has(isbn) => media = book\"}").unwrap();
        assert_eq!(bad.status, 422, "{}", bad.text());

        // A fact rule plus a classification rule that only its derived
        // fact can trigger, in one atomic POST.
        let created = c
            .post_json(
                "/rulesets",
                "{\"infer\": \"has(isbn) => fact media = book\", \
                  \"expr\": \"media == \\\"book\\\" => books\"}",
            )
            .unwrap();
        assert_eq!(created.status, 201, "{}", created.text());

        // Both rules list with their round-trippable prefixes.
        let list = c.get("/rulesets").unwrap();
        assert!(list.text().contains("infer: has(isbn)"), "{}", list.text());
        assert!(list.text().contains("rule: media =="), "{}", list.text());

        // Classification sees the derived fact within one snapshot swap.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let r = c.post_json("/classify", item).unwrap();
            assert_eq!(r.status, 200);
            if r.text().contains("\"type\":\"books\"") {
                break;
            }
            assert!(Instant::now() < deadline, "derived fact never drove a decision");
            std::thread::sleep(Duration::from_millis(5));
        }
    } // server drains; storage outlives it

    // Fresh process, same storage: WAL replay re-compiles the fact rule
    // from its source text and inference resumes immediately.
    let app =
        RuleApp::durable(ruled_chimera(), storage, DurableConfig::default(), serve_cfg()).unwrap();
    let server = NetServer::start(app, NetConfig::default()).unwrap();
    let mut c = client(&server);
    let r = c.post_json("/classify", item).unwrap();
    assert_eq!(r.status, 200);
    assert!(
        r.text().contains("\"type\":\"books\""),
        "recovered infer rule must serve: {}",
        r.text()
    );
}
