//! Integration tests for the serving tier: each headline feature — hot
//! swap, backpressure, deadline shedding, degradation, panic containment,
//! graceful shutdown — is exercised end to end against either a fake
//! classifier (to control cost) or a real Chimera pipeline.

use rulekit_chimera::{Chimera, ChimeraConfig, Decision, SnapshotDecision};
use rulekit_data::{Product, Taxonomy, TypeId, VendorId};
use rulekit_serve::{
    Admission, ChimeraProvider, RequestClassifier, RuleService, ServeConfig, ServeError,
    SnapshotProvider, StaticProvider,
};
use rulekit_store::{DurableConfig, DurableRepository, MemStorage, Storage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn product(title: &str) -> Product {
    Product {
        id: 0,
        title: title.into(),
        description: String::new(),
        attributes: Vec::new(),
        vendor: VendorId(0),
    }
}

/// A classifier with a configurable per-request cost, so tests can saturate
/// tiny queues deterministically.
struct SlowClassifier {
    version: u64,
    delay: Duration,
    ty: TypeId,
}

impl RequestClassifier for SlowClassifier {
    fn version(&self) -> u64 {
        self.version
    }

    fn classify(&self, product: &Product) -> SnapshotDecision {
        if product.title == "poison" {
            panic!("poisoned request");
        }
        std::thread::sleep(self.delay);
        SnapshotDecision {
            decision: Decision::Classified {
                ty: self.ty,
                confidence: 1.0,
                explanation: vec!["fake".into()],
            },
            candidates: 3,
            degraded: false,
        }
    }

    fn classify_degraded(&self, _product: &Product) -> SnapshotDecision {
        // The degraded path is intentionally instant: degradation should
        // visibly cut per-request cost.
        SnapshotDecision {
            decision: Decision::Classified {
                ty: self.ty,
                confidence: 0.5,
                explanation: vec!["fake degraded".into()],
            },
            candidates: 1,
            degraded: true,
        }
    }
}

fn slow_service(delay: Duration, cfg: ServeConfig) -> RuleService {
    let classifier = Arc::new(SlowClassifier { version: 1, delay, ty: TypeId(7) });
    RuleService::start(Arc::new(StaticProvider::new(classifier)), cfg)
}

fn ruled_chimera() -> Arc<Chimera> {
    let tax = Taxonomy::builtin();
    let chimera = Chimera::new(tax, ChimeraConfig::default());
    chimera.add_rules("rings? -> rings\n").unwrap();
    Arc::new(chimera)
}

#[test]
fn serves_real_pipeline_end_to_end() {
    let chimera = ruled_chimera();
    let rings = chimera.taxonomy().id_of("rings").unwrap();
    let provider = Arc::new(ChimeraProvider::new(chimera));
    let service = RuleService::start(provider, ServeConfig { shards: 2, ..Default::default() });

    let outcome = service
        .submit(product("diamond wedding ring"))
        .expect_enqueued()
        .wait()
        .expect("classified");
    assert_eq!(outcome.decision.type_id(), Some(rings));
    assert!(outcome.candidates >= 1);
    assert!(!outcome.degraded);

    let m = service.service_metrics();
    assert_eq!(m.submitted.value(), 1);
    assert_eq!(m.completed.value(), 1);
    assert!(m.latency.quantile(0.5) > 0);
}

#[test]
fn chimera_provider_publishes_the_cached_snapshot() {
    let chimera = ruled_chimera();
    let provider = ChimeraProvider::new(chimera.clone());
    let same = |a: &Arc<dyn RequestClassifier>, b: &Arc<dyn RequestClassifier>| {
        std::ptr::addr_eq(Arc::as_ptr(a), Arc::as_ptr(b))
    };
    let first = provider.build();
    assert!(same(&first, &provider.build()), "no edit: the same allocation");
    chimera.add_rules("sofas? -> sofas\n").unwrap();
    let edited = provider.build();
    assert!(!same(&first, &edited), "an edit publishes a new snapshot");
    assert!(same(&edited, &provider.build()));
}

/// The tentpole guarantee: a rule added while the service is running under
/// load becomes visible to responses without stopping or pausing serving.
#[test]
fn hot_swap_makes_rule_edits_visible_without_stopping() {
    let chimera = ruled_chimera();
    let sofas = chimera.taxonomy().id_of("sofas").unwrap();
    let provider = Arc::new(ChimeraProvider::new(chimera.clone()));
    let service = RuleService::start(
        provider,
        ServeConfig {
            shards: 2,
            refresh_interval: Duration::from_millis(10),
            ..Default::default()
        },
    );

    // Before the edit: a sofa title has no matching rule → declined.
    let before = service.submit(product("leather sofa")).expect_enqueued().wait().expect("served");
    assert!(before.decision.is_declined());
    let version_before = before.snapshot_version;

    // Analyst adds a rule through the live repository handle. No service
    // API is involved — the refresher notices the revision change.
    chimera.add_rules("sofas? -> sofas\n").unwrap();

    // Keep submitting (traffic never stops); the new rule must become
    // visible within a rebuild interval.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut swapped_outcome = None;
    while Instant::now() < deadline {
        let outcome = service
            .submit(product("leather sofa"))
            .expect_enqueued()
            .wait()
            .expect("service must keep serving during the swap");
        if outcome.decision.type_id() == Some(sofas) {
            swapped_outcome = Some(outcome);
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let outcome = swapped_outcome.expect("rule edit never became visible");
    assert!(outcome.snapshot_version > version_before, "must be served by a newer snapshot");
    assert!(service.swap_count() >= 1);
    assert!(service.service_metrics().swaps.value() >= 1);
}

#[test]
fn saturation_yields_overloaded_admission() {
    let service = slow_service(
        Duration::from_millis(5),
        ServeConfig {
            shards: 1,
            queue_capacity: 4,
            high_water: 100, // out of the way: this test isolates admission
            low_water: 1,
            ..Default::default()
        },
    );

    let mut handles = Vec::new();
    let mut overloaded = 0usize;
    for i in 0..200 {
        match service.submit(product(&format!("item {i}"))) {
            Admission::Enqueued(h) => handles.push(h),
            Admission::Overloaded => overloaded += 1,
        }
    }
    assert!(overloaded > 0, "bounded queue must reject under saturation");
    assert_eq!(service.service_metrics().overloaded.value(), overloaded as u64);
    for h in handles {
        h.wait().expect("admitted requests still complete");
    }
    assert_eq!(service.service_metrics().completed.value(), (200 - overloaded) as u64);
}

#[test]
fn expired_deadlines_are_shed_with_explicit_outcome() {
    let service = slow_service(
        Duration::from_millis(10),
        ServeConfig { shards: 1, queue_capacity: 64, ..Default::default() },
    );

    // The first request occupies the worker; the rest queue behind it with
    // a deadline shorter than the service time and must be shed.
    let mut handles = Vec::new();
    for i in 0..8 {
        if let Admission::Enqueued(h) =
            service.submit_with_deadline(product(&format!("q{i}")), Some(Duration::from_millis(1)))
        {
            handles.push(h);
        }
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    let shed = results.iter().filter(|r| **r == Err(ServeError::DeadlineExceeded)).count();
    assert!(shed > 0, "queued requests past their deadline must be shed: {results:?}");
    assert_eq!(service.service_metrics().deadline_shed.value(), shed as u64);
}

#[test]
fn overload_degrades_to_rules_only_and_recovers() {
    let service = slow_service(
        Duration::from_millis(3),
        ServeConfig {
            shards: 1,
            queue_capacity: 64,
            high_water: 8,
            low_water: 2,
            worker_poll: Duration::from_millis(5),
            ..Default::default()
        },
    );

    let handles: Vec<_> = (0..40)
        .filter_map(|i| match service.submit(product(&format!("d{i}"))) {
            Admission::Enqueued(h) => Some(h),
            Admission::Overloaded => None,
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait().expect("served")).collect();
    let degraded = outcomes.iter().filter(|o| o.degraded).count();
    assert!(degraded > 0, "crossing the high-water mark must degrade some requests");
    assert_eq!(service.service_metrics().degraded_served.value(), degraded as u64);

    // After the backlog drains below the low-water mark, full fidelity
    // resumes and fresh requests are not degraded.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let o = service.submit(product("after")).expect_enqueued().wait().expect("served");
        if !o.degraded {
            break;
        }
        assert!(Instant::now() < deadline, "service never recovered from degradation");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(!service.is_degraded());
}

#[test]
fn classifier_panic_is_contained_to_the_request() {
    let service =
        slow_service(Duration::from_micros(100), ServeConfig { shards: 1, ..Default::default() });
    let err = service.submit(product("poison")).expect_enqueued().wait().unwrap_err();
    assert!(matches!(err, ServeError::ClassifierPanicked(ref m) if m.contains("poisoned")));
    // The shard worker survived and keeps serving.
    let ok = service.submit(product("healthy")).expect_enqueued().wait().expect("served");
    assert_eq!(ok.decision.type_id(), Some(TypeId(7)));
    assert_eq!(service.service_metrics().classifier_panics.value(), 1);
}

#[test]
fn shutdown_completes_every_queued_request_with_explicit_outcome() {
    let mut service = slow_service(
        Duration::from_millis(2),
        ServeConfig { shards: 2, queue_capacity: 128, ..Default::default() },
    );
    let handles: Vec<_> =
        (0..50).map(|i| service.submit(product(&format!("s{i}"))).expect_enqueued()).collect();
    service.shutdown();
    // Everything admitted before shutdown resolves: classified if a worker
    // got to it first, explicitly shed otherwise — but never hung. Bound
    // the wait so a liveness regression fails the test instead of wedging
    // the suite.
    let mut served = 0u64;
    let mut shed = 0u64;
    for h in handles {
        match h.wait_timeout(Duration::from_secs(5)).expect("no caller may hang at shutdown") {
            Ok(_) => served += 1,
            Err(ServeError::ShuttingDown) => shed += 1,
            Err(other) => panic!("unexpected shutdown outcome: {other:?}"),
        }
    }
    assert_eq!(served + shed, 50);
    let m = service.service_metrics();
    assert_eq!(m.completed.value(), served);
    assert_eq!(m.shutdown_shed.value(), shed);
    // New work is rejected.
    assert!(service.submit(product("late")).is_overloaded());
}

/// Opens `storage` into `chimera`'s main rule store (recovery replaces its
/// contents), then starts a service on the pipeline — the construction
/// order `RuleApp::durable` uses.
fn durable_service(
    chimera: &Arc<Chimera>,
    storage: &Arc<MemStorage>,
) -> (DurableRepository, RuleService) {
    let store = DurableRepository::open_into_observed(
        chimera.rules.clone(),
        Arc::clone(storage) as Arc<dyn Storage>,
        chimera.parser().clone(),
        DurableConfig::default(),
        chimera.metrics().registry(),
    )
    .expect("open durable store");
    let provider = Arc::new(ChimeraProvider::new(chimera.clone()));
    (store, RuleService::start(provider, ServeConfig { shards: 2, ..Default::default() }))
}

/// The durability contract, end to end: rules added through the durable
/// handle survive a full service restart — a fresh pipeline over the same
/// storage recovers them and serves traffic with the pre-crash rule set
/// from its very first snapshot.
#[test]
fn restarted_service_recovers_rules_before_admitting_traffic() {
    let storage = Arc::new(MemStorage::new());

    // First life: empty pipeline, durable rules added while serving.
    {
        let chimera = Arc::new(Chimera::new(Taxonomy::builtin(), ChimeraConfig::default()));
        let (store, service) = durable_service(&chimera, &storage);
        assert_eq!(store.recovery().recovered_rules, 0, "nothing durable yet");
        store
            .add_rules("rings? -> rings\nsofas? -> sofas\n", &Default::default())
            .expect("durable add");
        service.refresh_now();
        let outcome =
            service.submit(product("diamond ring")).expect_enqueued().wait().expect("served");
        assert!(outcome.decision.type_id().is_some());
        // Service and pipeline drop here: the process "crashes".
    }

    // Second life: a brand-new pipeline over the same storage. Recovery
    // happens when the store opens — before RuleService::start builds the
    // initial snapshot — so the first request already sees the recovered
    // rules.
    let chimera = Arc::new(Chimera::new(Taxonomy::builtin(), ChimeraConfig::default()));
    let rings = chimera.taxonomy().id_of("rings").unwrap();
    let (store, service) = durable_service(&chimera, &storage);
    let report = store.recovery();
    assert_eq!(report.recovered_rules, 2, "both rules recovered: {report:?}");
    let outcome =
        service.submit(product("diamond wedding ring")).expect_enqueued().wait().expect("served");
    assert_eq!(outcome.decision.type_id(), Some(rings), "recovered rule classified the request");
}

#[test]
fn refresh_now_publishes_synchronously() {
    let chimera = ruled_chimera();
    let provider = Arc::new(ChimeraProvider::new(chimera.clone()));
    let service = RuleService::start(
        provider,
        // A long refresh interval so only refresh_now can publish quickly.
        ServeConfig { shards: 1, refresh_interval: Duration::from_secs(30), ..Default::default() },
    );
    let v0 = service.snapshot_version();
    chimera.add_rules("sofas? -> sofas\n").unwrap();
    let v1 = service.refresh_now();
    assert!(v1 > v0);
    assert_eq!(service.snapshot_version(), v1);
    assert!(service.swap_count() >= 1);
}

/// Dropping the service ends its refresher's change wait: the drop does not
/// sleep out the rest of the refresh interval.
#[test]
fn drop_wakes_the_refresher_out_of_its_change_wait() {
    let chimera = ruled_chimera();
    let service = RuleService::start(
        Arc::new(ChimeraProvider::new(chimera.clone())),
        ServeConfig { shards: 1, refresh_interval: Duration::from_secs(30), ..Default::default() },
    );
    // The refresher publishes this edit, then goes back to its 30 s wait.
    chimera.add_rules("sofas? -> sofas\n").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.swap_count() == 0 {
        assert!(Instant::now() < deadline, "the refresher never published the edit");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    drop(service);
    let took = start.elapsed();
    assert!(took < Duration::from_millis(200), "the drop took {took:?}");
}

/// An edit that lands while the initial snapshot is being built (or before
/// the refresher thread first runs) must still be picked up: the refresher
/// starts from the revision read *before* that build.
#[test]
fn edit_during_initial_build_is_not_lost() {
    /// Snapshots carry the revision they were built at; the first build is
    /// overtaken by an edit before it returns.
    struct EditedWhileBuilding(AtomicU64);
    impl SnapshotProvider for EditedWhileBuilding {
        fn build(&self) -> Arc<dyn RequestClassifier> {
            let version = self.0.load(Ordering::SeqCst);
            if version == 0 {
                self.0.store(1, Ordering::SeqCst);
            }
            Arc::new(SlowClassifier { version, delay: Duration::ZERO, ty: TypeId(7) })
        }
        fn revision(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
        fn wait_for_change(&self, _last_seen: u64, _timeout: Duration) -> u64 {
            std::thread::sleep(Duration::from_millis(1));
            self.revision()
        }
    }
    let service = RuleService::start(
        Arc::new(EditedWhileBuilding(AtomicU64::new(0))),
        ServeConfig { shards: 1, ..Default::default() },
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.snapshot_version() != 1 {
        assert!(Instant::now() < deadline, "the edit was never rebuilt into a snapshot");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The type the service answers for `title`, polled until it is `want` or
/// five seconds pass.
fn served_within_five_seconds(service: &RuleService, title: &str, want: TypeId) -> Option<TypeId> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let outcome = service.submit(product(title)).expect_enqueued().wait().expect("served");
        let got = outcome.decision.type_id();
        if got == Some(want) || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A follower installing a restarted leader's snapshot restores different
/// rules at the revision it already had. The running service must serve
/// them, though no revision moved.
#[test]
fn a_restore_at_the_same_revision_reaches_the_service() {
    let chimera = ruled_chimera();
    let sofas = chimera.taxonomy().id_of("sofas").unwrap();
    let leader = Chimera::new(Taxonomy::builtin(), ChimeraConfig::default());
    leader.add_rules("rings? -> sofas\n").unwrap();
    let service = RuleService::start(
        Arc::new(ChimeraProvider::new(chimera.clone())),
        ServeConfig {
            shards: 1,
            refresh_interval: Duration::from_millis(10),
            ..Default::default()
        },
    );
    let rings = chimera.taxonomy().id_of("rings").unwrap();
    assert_eq!(served_within_five_seconds(&service, "diamond ring", rings), Some(rings));

    let revision = chimera.rules.revision();
    chimera.rules.restore(leader.rules.full_snapshot(), leader.rules.next_rule_id(), revision);
    assert_eq!(chimera.rules.revision(), revision);
    assert_eq!(chimera.classify(&product("diamond ring")).type_id(), Some(sofas));
    assert_eq!(
        served_within_five_seconds(&service, "diamond ring", sofas),
        Some(sofas),
        "the service still serves the rules from before the restore ({} swaps)",
        service.swap_count()
    );
}

/// After a restore to a lower revision the refresher serves the restored
/// rules and then sleeps on the change signal, as before the restore: it
/// must not wake at once on every call until the revision climbs back.
#[test]
fn a_restore_to_a_lower_revision_leaves_the_refresher_idle() {
    struct CountingWaits {
        waits: AtomicU64,
        inner: ChimeraProvider,
    }
    impl SnapshotProvider for CountingWaits {
        fn build(&self) -> Arc<dyn RequestClassifier> {
            self.inner.build()
        }
        fn revision(&self) -> u64 {
            self.inner.revision()
        }
        fn wait_for_change(&self, last_seen: u64, timeout: Duration) -> u64 {
            self.waits.fetch_add(1, Ordering::Relaxed);
            self.inner.wait_for_change(last_seen, timeout)
        }
    }

    let chimera = ruled_chimera();
    chimera.add_rules("rugs? -> area rugs\nsofas? -> sofas\n").unwrap();
    let sofas = chimera.taxonomy().id_of("sofas").unwrap();
    let leader = Chimera::new(Taxonomy::builtin(), ChimeraConfig::default());
    leader.add_rules("rings? -> sofas\n").unwrap();
    let provider = Arc::new(CountingWaits {
        waits: AtomicU64::new(0),
        inner: ChimeraProvider::new(chimera.clone()),
    });
    let service = RuleService::start(
        provider.clone(),
        ServeConfig {
            shards: 1,
            refresh_interval: Duration::from_millis(50),
            ..Default::default()
        },
    );

    let (revision, restored) = (chimera.rules.revision(), leader.rules.revision());
    assert!(restored < revision);
    chimera.rules.restore(leader.rules.full_snapshot(), leader.rules.next_rule_id(), restored);
    assert_eq!(served_within_five_seconds(&service, "diamond ring", sofas), Some(sofas));

    // Idle for 300 ms: one wait per 50 ms refresh interval, give or take.
    let before = provider.waits.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(300));
    let waits = provider.waits.load(Ordering::Relaxed) - before;
    assert!(waits <= 20, "the refresher waited {waits} times in 300 ms with nothing changing");
}

#[test]
fn metrics_track_load_shape() {
    struct CountingProvider {
        builds: AtomicU64,
        inner: StaticProvider,
    }
    impl SnapshotProvider for CountingProvider {
        fn build(&self) -> Arc<dyn RequestClassifier> {
            self.builds.fetch_add(1, Ordering::Relaxed);
            self.inner.build()
        }
        fn revision(&self) -> u64 {
            self.inner.revision()
        }
        fn wait_for_change(&self, last_seen: u64, timeout: Duration) -> u64 {
            self.inner.wait_for_change(last_seen, timeout)
        }
    }

    let classifier =
        Arc::new(SlowClassifier { version: 1, delay: Duration::from_micros(200), ty: TypeId(3) });
    let provider =
        CountingProvider { builds: AtomicU64::new(0), inner: StaticProvider::new(classifier) };
    let service =
        RuleService::start(Arc::new(provider), ServeConfig { shards: 2, ..Default::default() });

    let handles: Vec<_> =
        (0..64).map(|i| service.submit(product(&format!("m{i}"))).expect_enqueued()).collect();
    for h in handles {
        h.wait().expect("served");
    }
    let m = service.service_metrics();
    assert_eq!(m.submitted.value(), 64);
    assert_eq!(m.completed.value(), 64);
    assert_eq!(m.overloaded.value(), 0);
    assert!(m.latency.quantile(0.5) <= m.latency.quantile(0.99));
    assert!(m.latency.quantile(0.99) > 0);
    assert!(m.candidates_total.value() > 0);
    assert!(m.max_queue_depth.value() >= 1);
}

#[test]
fn text_exposition_covers_queue_shed_and_latency() {
    // The scrape surface the tier promises: per-shard queue depth, every
    // admission/shed outcome, snapshot-build timing, and the end-to-end
    // latency summary — all from one scrape of the service's registry.
    let service = slow_service(
        Duration::from_millis(5),
        ServeConfig {
            shards: 2,
            queue_capacity: 4,
            high_water: 100,
            low_water: 1,
            ..Default::default()
        },
    );

    let mut handles = Vec::new();
    for i in 0..64 {
        if let Admission::Enqueued(h) = service.submit(product(&format!("t{i}"))) {
            handles.push(h);
        }
    }
    // One short-deadline request that must be shed while queued (retry
    // admission: the flood keeps the queues at capacity for a while).
    let doomed = loop {
        match service.submit_with_deadline(product("doomed"), Some(Duration::from_micros(1))) {
            Admission::Enqueued(h) => break h,
            Admission::Overloaded => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    let _ = doomed.wait();
    for h in handles {
        h.wait().expect("served");
    }

    let text = service.service_metrics().registry().render_text();
    for required in [
        "# TYPE rulekit_serve_queue_depth gauge",
        "rulekit_serve_queue_depth{shard=\"0\"}",
        "rulekit_serve_queue_depth{shard=\"1\"}",
        "rulekit_serve_queue_depth_max",
        "rulekit_serve_submitted_total",
        "rulekit_serve_completed_total",
        "rulekit_serve_overloaded_total",
        "rulekit_serve_deadline_shed_total",
        "# TYPE rulekit_serve_latency_nanos summary",
        "rulekit_serve_latency_nanos{quantile=\"0.99\"}",
        "rulekit_serve_latency_nanos_count",
        "rulekit_serve_snapshot_build_nanos_count 1",
    ] {
        assert!(text.contains(required), "missing {required:?} in exposition:\n{text}");
    }

    // The gauges drain back to zero once the queues are empty, and the
    // structured snapshot agrees with the handles.
    let m = service.service_metrics();
    assert_eq!(m.shard_depth(0).value() + m.shard_depth(1).value(), 0);
    let snap = m.registry().snapshot();
    assert_eq!(snap.counter("rulekit_serve_submitted_total"), Some(m.submitted.value()));
    assert_eq!(snap.counter("rulekit_serve_overloaded_total"), Some(m.overloaded.value()));
    assert!(m.overloaded.value() > 0, "tiny queues must have rejected something");
    // The latency histogram records completions only — shed requests never
    // reach it.
    assert_eq!(
        snap.histogram("rulekit_serve_latency_nanos").map(|h| h.count()),
        Some(m.completed.value()),
    );
}

#[test]
fn exposition_covers_the_inference_tier() {
    // Serving and the pipeline share one registry, so a single scrape
    // covers queue metrics AND the fact-inference tier's
    // `rulekit_infer_*` family — products chained, facts derived, rounds.
    let tax = Taxonomy::builtin();
    let chimera = Chimera::new(tax, ChimeraConfig::default());
    chimera
        .add_rules(
            "infer: has(isbn) => fact media = book\n\
             infer: media == \"book\" => fact aisle = 3\n\
             attr(media) -> books\n",
        )
        .unwrap();
    let registry = chimera.metrics().registry().clone();
    let books = chimera.taxonomy().id_of("books").unwrap();
    let provider = Arc::new(ChimeraProvider::new(Arc::new(chimera)));
    let service = RuleService::start_with_registry(
        provider,
        ServeConfig { shards: 2, ..Default::default() },
        registry,
    );

    let mut p = product("unlabeled media item");
    p.attributes.push(("ISBN".into(), "9781234567890".into()));
    let outcome = service.submit(p).expect_enqueued().wait().expect("classified");
    assert_eq!(outcome.decision.type_id(), Some(books), "derived fact must carry the decision");

    let text = service.service_metrics().registry().render_text();
    for required in [
        "# TYPE rulekit_infer_products_total counter",
        "rulekit_infer_products_total 1",
        "rulekit_infer_facts_total 2",
        "rulekit_infer_bound_hits_total 0",
        "rulekit_infer_rounds_count 1",
        "rulekit_infer_nanos_count 1",
        "rulekit_serve_completed_total 1",
    ] {
        assert!(text.contains(required), "missing {required:?} in exposition:\n{text}");
    }
}
