//! The concurrency wall for the blocking entry point: `RuleService::classify`
//! runs a request on its caller's thread when a shard is idle and queues it
//! otherwise, and a shard executes one request at a time whoever runs it.
//!
//! Interleavings are forced from inside a fake classifier: every request
//! announces that it is inside `classify`, and one whose title starts with
//! `hold` stays there until the test releases it, so the test decides what
//! happens while a shard is occupied. No sleeps.

use rulekit_chimera::{Decision, SnapshotDecision};
use rulekit_data::{Product, TypeId, VendorId};
use rulekit_serve::{
    Admission, ClassifyOutcome, RequestClassifier, RuleService, ServeConfig, ServeError,
    SnapshotProvider, StaticProvider,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

fn product(title: &str) -> Product {
    Product {
        id: 0,
        title: title.into(),
        description: String::new(),
        attributes: Vec::new(),
        vendor: VendorId(0),
    }
}

fn decided(confidence: f64, degraded: bool) -> SnapshotDecision {
    SnapshotDecision {
        decision: Decision::Classified { ty: TypeId(7), confidence, explanation: vec![] },
        candidates: 2,
        degraded,
    }
}

/// The fake: logs the order in which requests enter `classify`, tracks how
/// many are inside at once, and parks `hold*` requests until released.
struct Gate {
    version: u64,
    inside: AtomicUsize,
    max_inside: AtomicUsize,
    entered: Mutex<Vec<String>>,
    /// Tells the test a request is now inside `classify`.
    announce: Mutex<Sender<String>>,
    /// One message lets one `hold*` request out.
    release: Mutex<Receiver<()>>,
    /// When set, the first `n` requests rendezvous inside `classify`.
    rendezvous: Option<(usize, Barrier)>,
    entries: AtomicUsize,
}

/// The test's side of a [`Gate`].
struct Controls {
    gate: Arc<Gate>,
    announced: Receiver<String>,
    release: Sender<()>,
}

fn gate(version: u64, rendezvous: Option<usize>) -> Controls {
    let (announce, announced) = channel();
    let (release, release_rx) = channel();
    let gate = Arc::new(Gate {
        version,
        inside: AtomicUsize::new(0),
        max_inside: AtomicUsize::new(0),
        entered: Mutex::new(Vec::new()),
        announce: Mutex::new(announce),
        release: Mutex::new(release_rx),
        rendezvous: rendezvous.map(|n| (n, Barrier::new(n))),
        entries: AtomicUsize::new(0),
    });
    Controls { gate, announced, release }
}

impl Controls {
    fn service(&self, cfg: ServeConfig) -> RuleService {
        RuleService::start(Arc::new(StaticProvider::new(self.gate.clone())), cfg)
    }

    /// Blocks until the next request is inside `classify`; its title.
    fn wait_entered(&self) -> String {
        self.announced.recv_timeout(Duration::from_secs(10)).expect("a request entered")
    }

    fn release_one(&self) {
        self.release.send(()).expect("gate alive");
    }

    fn entered(&self) -> Vec<String> {
        self.gate.entered.lock().unwrap().clone()
    }
}

impl Gate {
    fn enter(&self, title: &str) {
        let now = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_inside.fetch_max(now, Ordering::SeqCst);
        self.entered.lock().unwrap().push(title.to_string());
        // Nobody listens when a test keeps only the gate.
        let _ = self.announce.lock().unwrap().send(title.to_string());
        if let Some((n, barrier)) = &self.rendezvous {
            if self.entries.fetch_add(1, Ordering::SeqCst) < *n {
                barrier.wait();
            }
        }
        if title.starts_with("hold") {
            self.release.lock().unwrap().recv().expect("test alive");
        }
    }
}

impl RequestClassifier for Gate {
    fn version(&self) -> u64 {
        self.version
    }

    fn classify(&self, product: &Product) -> SnapshotDecision {
        self.enter(&product.title);
        self.inside.fetch_sub(1, Ordering::SeqCst);
        if product.title == "poison" {
            panic!("poisoned request");
        }
        decided(1.0, false)
    }

    fn classify_degraded(&self, product: &Product) -> SnapshotDecision {
        self.enter(&product.title);
        self.inside.fetch_sub(1, Ordering::SeqCst);
        decided(0.5, true)
    }
}

/// Spins (yielding, never sleeping) until `cond` holds.
fn until(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "never happened: {what}");
        std::thread::yield_now();
    }
}

fn one_shard() -> ServeConfig {
    ServeConfig { shards: 1, ..Default::default() }
}

/// An outcome without its latency, which no two runs share.
type Answer = Result<(Decision, usize, bool, u64), ServeError>;

fn answer(result: Result<ClassifyOutcome, ServeError>) -> Answer {
    result.map(|o| (o.decision, o.candidates, o.degraded, o.snapshot_version))
}

#[test]
fn idle_service_runs_the_request_on_the_caller() {
    let controls = gate(1, None);
    let service = controls.service(ServeConfig { shards: 2, ..Default::default() });
    for _ in 0..10 {
        let outcome = service.classify(product("ring"), None).expect("served");
        assert_eq!(outcome.decision.type_id(), Some(TypeId(7)));
    }
    let report = counts(&service);
    assert_eq!((report.ran_on_caller, report.ran_on_worker), (10, 0));
    assert_eq!((report.submitted, report.completed), (10, 10));
    assert_eq!(service.queue_depth(), 0);
}

/// (a) With one shard, a caller arriving while another is inside `classify`
/// is queued, and the worker does not start it until the first returns.
#[test]
fn second_caller_queues_and_waits_for_the_first() {
    let controls = gate(1, None);
    let service = controls.service(one_shard());
    std::thread::scope(|s| {
        let first = s.spawn(|| service.classify(product("hold"), None));
        controls.wait_entered();
        let second = s.spawn(|| service.classify(product("second"), None));
        until("second caller queued", || service.queue_depth() == 1);
        // The worker has been woken for it and must now be waiting for the
        // shard: nothing new enters `classify` while the first is inside.
        assert_eq!(
            controls.announced.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(controls.entered(), ["hold"]);
        controls.release_one();
        first.join().unwrap().expect("first served");
        second.join().unwrap().expect("second served");
    });
    assert_eq!(controls.entered(), ["hold", "second"]);
    assert_eq!(controls.gate.max_inside.load(Ordering::SeqCst), 1);
    let report = counts(&service);
    assert_eq!((report.ran_on_caller, report.ran_on_worker), (1, 1));
}

/// (a) Concurrency inside the classifier is exactly `shards`, never
/// `shards + callers`: the first `shards` requests rendezvous inside
/// `classify` (so that many do run at once), and no more ever join them.
#[test]
fn concurrency_inside_the_classifier_equals_shards() {
    for shards in [1usize, 2, 4] {
        let controls = gate(1, Some(shards));
        let service = controls.service(ServeConfig { shards, ..Default::default() });
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..8)
                .map(|c| {
                    let service = &service;
                    s.spawn(move || {
                        for i in 0..25 {
                            service.classify(product(&format!("c{c}-{i}")), None).expect("served");
                        }
                    })
                })
                .collect();
            for c in callers {
                c.join().unwrap();
            }
        });
        assert_eq!(controls.gate.max_inside.load(Ordering::SeqCst), shards, "shards = {shards}");
        let report = counts(&service);
        assert_eq!(report.completed, 200);
        assert_eq!(report.ran_on_caller + report.ran_on_worker, 200);
        assert!(report.ran_on_caller > 0);
    }
}

/// (b) A request already queued on a shard is served before any caller that
/// arrives later, however the later callers' claims race the worker for the
/// shard at the moment it is released.
#[test]
fn queued_request_is_served_before_later_callers() {
    let controls = gate(1, None);
    let service = controls.service(one_shard());
    let late = 4;
    let start = Barrier::new(late + 1);
    std::thread::scope(|s| {
        let first = s.spawn(|| service.classify(product("hold"), None));
        controls.wait_entered();
        let queued = service.submit(product("queued")).expect_enqueued();
        let callers: Vec<_> = (0..late)
            .map(|i| {
                let (service, start) = (&service, &start);
                s.spawn(move || {
                    start.wait();
                    service.classify(product(&format!("late-{i}")), None)
                })
            })
            .collect();
        // Free the shard at the moment the late callers go for it.
        start.wait();
        controls.release_one();
        first.join().unwrap().expect("first served");
        queued.wait().expect("queued served");
        for c in callers {
            c.join().unwrap().expect("late caller served");
        }
    });
    let entered = controls.entered();
    assert_eq!(entered.len(), 2 + late);
    assert_eq!(entered[..2], ["hold", "queued"], "{entered:?}");
    assert_eq!(controls.gate.max_inside.load(Ordering::SeqCst), 1);
}

/// (b) The same rule where it is easiest to break: the shard is free, but a
/// request was queued for it a moment ago and its worker has yet to wake. A
/// caller arriving right behind it must queue behind it, not run first.
#[test]
fn caller_never_overtakes_a_request_the_worker_has_not_picked_up() {
    let controls = gate(1, None);
    let service = controls.service(one_shard());
    let mut expected = Vec::new();
    for i in 0..300 {
        let queued = service.submit(product(&format!("queued-{i}"))).expect_enqueued();
        service.classify(product(&format!("late-{i}")), None).expect("late served");
        queued.wait().expect("queued served");
        expected.extend([format!("queued-{i}"), format!("late-{i}")]);
    }
    assert_eq!(controls.entered(), expected);
}

/// The service's counters at one instant.
#[derive(Debug)]
struct Counts {
    submitted: u64,
    completed: u64,
    ran_on_caller: u64,
    ran_on_worker: u64,
    overloaded: u64,
    deadline_shed: u64,
    shutdown_shed: u64,
    degraded_served: u64,
    classifier_panics: u64,
}

fn counts(service: &RuleService) -> Counts {
    let m = service.service_metrics();
    Counts {
        submitted: m.submitted.value(),
        completed: m.completed.value(),
        ran_on_caller: m.ran_on_caller.value(),
        ran_on_worker: m.ran_on_worker.value(),
        overloaded: m.overloaded.value(),
        deadline_shed: m.deadline_shed.value(),
        shutdown_shed: m.shutdown_shed.value(),
        degraded_served: m.degraded_served.value(),
        classifier_panics: m.classifier_panics.value(),
    }
}

/// The counters a single request may move.
#[derive(Debug, PartialEq, Default)]
struct Moved {
    submitted: u64,
    completed: u64,
    overloaded: u64,
    deadline_shed: u64,
    shutdown_shed: u64,
    degraded_served: u64,
    classifier_panics: u64,
}

fn moved(before: &Counts, after: &Counts) -> Moved {
    Moved {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        overloaded: after.overloaded - before.overloaded,
        deadline_shed: after.deadline_shed - before.deadline_shed,
        shutdown_shed: after.shutdown_shed - before.shutdown_shed,
        degraded_served: after.degraded_served - before.degraded_served,
        classifier_panics: after.classifier_panics - before.classifier_panics,
    }
}

/// One blocking call on an idle one-shard service: the caller's thread runs it.
fn on_caller(title: &str, deadline: Option<Duration>) -> (Answer, Moved) {
    let controls = gate(1, None);
    let service = controls.service(one_shard());
    let before = counts(&service);
    let result = service.classify(product(title), deadline);
    let after = counts(&service);
    assert_eq!(after.ran_on_worker, 0);
    assert_eq!(after.ran_on_caller, after.completed);
    (answer(result), moved(&before, &after))
}

/// The same call made while another caller occupies the only shard: it is
/// queued and the worker runs it.
fn on_worker(title: &str, deadline: Option<Duration>) -> (Answer, Moved) {
    let controls = gate(1, None);
    let service = controls.service(one_shard());
    let (result, before) = std::thread::scope(|s| {
        let holder = s.spawn(|| service.classify(product("hold"), None));
        controls.wait_entered();
        let before = counts(&service);
        let call = s.spawn(|| service.classify(product(title), deadline));
        until("call queued", || service.queue_depth() == 1);
        controls.release_one();
        holder.join().unwrap().expect("holder served");
        (call.join().unwrap(), before)
    });
    let after = counts(&service);
    assert_eq!(after.ran_on_caller, 1, "only the holder ran on its caller");
    let mut moved = moved(&before, &after);
    moved.completed -= 1; // the holder, admitted before `before` was read
    (answer(result), moved)
}

/// (c) Deadline, panic and plain service: the same `Result` and the same
/// counters whichever thread ran the request.
#[test]
fn both_paths_agree_on_outcomes_and_counters() {
    let served = Moved { submitted: 1, completed: 1, ..Default::default() };
    let shed = Moved { submitted: 1, deadline_shed: 1, ..Default::default() };
    let panicked = Moved { submitted: 1, classifier_panics: 1, ..Default::default() };
    for (title, deadline, expect) in [
        ("ring", None, &served),
        ("ring", Some(Duration::from_secs(60)), &served),
        ("ring", Some(Duration::ZERO), &shed),
        ("poison", None, &panicked),
    ] {
        let caller = on_caller(title, deadline);
        let worker = on_worker(title, deadline);
        assert_eq!(caller, worker, "{title} with deadline {deadline:?}");
        assert_eq!(&caller.1, expect, "{title} with deadline {deadline:?}");
    }
    assert_eq!(on_caller("ring", Some(Duration::ZERO)).0, Err(ServeError::DeadlineExceeded));
    assert!(matches!(
        on_caller("poison", None).0,
        Err(ServeError::ClassifierPanicked(ref m)) if m.contains("poisoned")
    ));
}

/// (c) A panic on the caller's thread is contained to the request: the shard
/// stays claimable.
#[test]
fn caller_path_panic_leaves_the_shard_usable() {
    let controls = gate(1, None);
    let service = controls.service(one_shard());
    assert!(matches!(
        service.classify(product("poison"), None),
        Err(ServeError::ClassifierPanicked(_))
    ));
    service.classify(product("ring"), None).expect("served after the panic");
    service.submit(product("ring")).expect_enqueued().wait().expect("worker serves too");
    let report = counts(&service);
    assert_eq!((report.ran_on_caller, report.ran_on_worker, report.classifier_panics), (1, 1, 1));
}

/// (c) With the service degraded, the worker and a claiming caller both take
/// the rules-only path and say so.
#[test]
fn both_paths_serve_degraded_while_the_flag_is_set() {
    let controls = gate(1, None);
    // Two queued requests set the flag; it clears only when a pop leaves
    // the queues empty. One slot per queue: while the gated shard's probe
    // waits, its queue is full, so a call that finds the freed shard still
    // taken can only queue there — never behind the gated shard, which is
    // released only after the loop below.
    let service = controls.service(ServeConfig {
        shards: 2,
        queue_capacity: 1,
        batch_size: 1,
        high_water: 2,
        low_water: 0,
        ..Default::default()
    });
    std::thread::scope(|s| {
        // Occupy both shards, then queue one probe behind each.
        let holders = [
            s.spawn(|| service.classify(product("hold-0"), None)),
            s.spawn(|| service.classify(product("hold-1"), None)),
        ];
        controls.wait_entered();
        controls.wait_entered();
        let (tx, worker_served) = channel();
        for _ in 0..2 {
            let handle = service.submit(product("probe")).expect_enqueued();
            let tx = tx.clone();
            s.spawn(move || tx.send(handle.wait()).unwrap());
        }
        assert!(service.is_degraded());
        let before = counts(&service);

        // Free one shard: its worker serves its probe, degraded, while the
        // other probe keeps the flag set.
        controls.release_one();
        let on_worker = worker_served.recv().unwrap();
        // The probe's outcome and one holder's, admitted before `before`.
        let by_worker = moved(&before, &counts(&service));
        assert_eq!((by_worker.completed, by_worker.degraded_served), (2, 1));
        assert!(service.is_degraded());

        // The worker answers before it lets go of the shard, so a call may
        // still find it taken and queue; the next one claims it.
        let degraded = Moved { submitted: 1, completed: 1, degraded_served: 1, ..Moved::default() };
        let on_caller = (0..1000)
            .find_map(|_| {
                let between = counts(&service);
                let result = service.classify(product("probe"), None);
                let after = counts(&service);
                assert_eq!(moved(&between, &after), degraded);
                (after.ran_on_caller == between.ran_on_caller + 1).then_some(result)
            })
            .expect("the idle shard is claimed eventually");
        assert_eq!(on_caller.as_ref().map(|o| o.degraded), Ok(true));
        assert_eq!(answer(on_caller), answer(on_worker));

        controls.release_one();
        worker_served.recv().unwrap().expect("second probe served");
        for h in holders {
            h.join().unwrap().expect("holder served");
        }
    });
    assert!(!service.is_degraded(), "drained queues restore full fidelity");
}

/// (c) After `shutdown()` both ways in refuse, and count it, alike.
#[test]
fn both_paths_refuse_after_shutdown() {
    let controls = gate(1, None);
    let mut service = controls.service(one_shard());
    service.classify(product("ring"), None).expect("served");
    service.shutdown();
    let before = counts(&service);
    assert_eq!(service.classify(product("ring"), None), Err(ServeError::Overloaded));
    let between = counts(&service);
    assert!(matches!(service.submit(product("ring")), Admission::Overloaded));
    let after = counts(&service);
    let refused = Moved { overloaded: 1, ..Default::default() };
    assert_eq!(moved(&before, &between), refused);
    assert_eq!(moved(&between, &after), refused);
    assert_eq!(controls.entered(), ["ring"]);
}

/// (d) The ledger balances after a run that mixes both ways in with sheds
/// and panics.
#[test]
fn counters_balance_after_a_mixed_run() {
    let controls = gate(1, None);
    let service = controls.service(ServeConfig { shards: 2, ..Default::default() });
    let (answered, refused) = std::thread::scope(|s| {
        let blocking: Vec<_> = (0..4)
            .map(|c| {
                let service = &service;
                s.spawn(move || {
                    let mut answered = 0u64;
                    for i in 0..200 {
                        let (title, deadline) = match i % 10 {
                            3 => ("poison", None),
                            7 => ("ring", Some(Duration::ZERO)),
                            _ => ("ring", Some(Duration::from_secs(60))),
                        };
                        match service.classify(product(title), deadline) {
                            Ok(_) => answered += 1,
                            Err(ServeError::Overloaded) => panic!("caller {c} refused"),
                            Err(_) => {}
                        }
                    }
                    answered
                })
            })
            .collect();
        let queued = s.spawn(|| {
            let (mut answered, mut refused) = (0u64, 0u64);
            for i in 0..400 {
                let title = if i % 10 == 3 { "poison" } else { "ring" };
                match service.submit(product(title)) {
                    Admission::Enqueued(handle) => answered += u64::from(handle.wait().is_ok()),
                    Admission::Overloaded => refused += 1,
                }
            }
            (answered, refused)
        });
        let (mut answered, refused) = queued.join().unwrap();
        for b in blocking {
            answered += b.join().unwrap();
        }
        (answered, refused)
    });
    let r = counts(&service);
    // The queues hold 256 each and the submitter keeps one request in
    // flight: nothing is refused.
    assert_eq!((r.overloaded, refused), (0, 0));
    assert_eq!(r.submitted, 4 * 200 + 400);
    assert_eq!(
        r.submitted,
        r.completed + r.deadline_shed + r.shutdown_shed + r.classifier_panics,
        "{r:?}"
    );
    assert_eq!(r.ran_on_caller + r.ran_on_worker, r.completed, "{r:?}");
    assert_eq!(r.completed, answered);
    assert_eq!(r.deadline_shed, 4 * 20);
    assert_eq!(r.classifier_panics, 4 * 20 + 40);
    assert!(r.ran_on_caller > 0 && r.ran_on_worker > 0, "{r:?}");
    assert!(controls.gate.max_inside.load(Ordering::SeqCst) <= 2);
}

/// (e) An edit published between two blocking calls is what the second one
/// sees: the claiming caller adopts the new snapshot like a worker does.
#[test]
fn refresh_between_blocking_calls_is_visible_to_the_second() {
    /// Every build is one version newer than the last.
    struct Versioned(AtomicU64);
    impl SnapshotProvider for Versioned {
        fn build(&self) -> Arc<dyn RequestClassifier> {
            gate(self.0.fetch_add(1, Ordering::SeqCst) + 1, None).gate
        }
        fn revision(&self) -> u64 {
            0
        }
        fn wait_for_change(&self, _last_seen: u64, timeout: Duration) -> u64 {
            std::thread::park_timeout(timeout.min(Duration::from_millis(5)));
            0
        }
    }
    let service = RuleService::start(
        Arc::new(Versioned(AtomicU64::new(0))),
        ServeConfig { shards: 2, ..Default::default() },
    );
    let first = service.classify(product("ring"), None).expect("served");
    assert_eq!(first.snapshot_version, 1);
    assert_eq!(service.refresh_now(), 2);
    // Whichever shard the next calls claim, none may still answer from v1.
    for _ in 0..4 {
        let next = service.classify(product("ring"), None).expect("served");
        assert_eq!(next.snapshot_version, 2);
    }
    let queued = service.submit(product("ring")).expect_enqueued().wait().expect("served");
    assert_eq!(queued.snapshot_version, 2);
    assert_eq!(service.service_metrics().ran_on_caller.value(), 5);
}
