//! The sharded service: N shards, each with a bounded queue, a worker and
//! its own `Arc` to the current compiled snapshot, a background refresher
//! that republishes snapshots when the rule state changes,
//! `Enqueued`/`Overloaded` admission, per-request deadlines, and rules-only
//! degradation above the overload high-water mark.
//!
//! Two ways in, one execution rule. [`RuleService::submit`] queues the
//! request for a shard's worker and never blocks; [`RuleService::classify`]
//! blocks, and runs the request on the calling thread when it finds an idle
//! shard (falling back to the queue when it does not). Either way a shard
//! executes one request at a time: whoever runs one holds the shard's
//! [`Shard::exec`] lock — the worker from popping a batch to its last
//! answer, a caller for its one request — so at most `shards`
//! classifications are in flight, and a caller only gets a shard whose queue
//! is empty, so it never overtakes an admitted request.

use crate::classifier::RequestClassifier;
use crate::metrics::ServiceMetrics;
use crate::provider::SnapshotProvider;
use crate::queue::BoundedQueue;
use crate::response::{response_channel, Admission, ClassifyOutcome, ResponseSlot, ServeError};
use rulekit_core::{Threads, ThreadsHandle};
use rulekit_data::Product;
use rulekit_obs::{Counter, Registry, SpanTimer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, TryLockError};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard workers (each owns one queue and one snapshot handle).
    pub shards: usize,
    /// Bounded capacity of each shard's queue; admission beyond it (after
    /// trying every shard) is `Overloaded`.
    pub queue_capacity: usize,
    /// Micro-batch: maximum requests a worker drains per queue lock.
    pub batch_size: usize,
    /// Total queued requests at/above which the service degrades to the
    /// rules-only path.
    pub high_water: usize,
    /// Total queued requests at/below which full-fidelity serving resumes
    /// (hysteresis; must be < `high_water`).
    pub low_water: usize,
    /// Deadline applied to requests submitted without an explicit one.
    pub default_deadline: Option<Duration>,
    /// Upper bound on how long the refresher sleeps between change checks;
    /// rule edits are typically visible much sooner (the repository signals
    /// its condvar on every mutation).
    pub refresh_interval: Duration,
    /// How long an idle worker waits for work before rechecking state.
    pub worker_poll: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_capacity: 256,
            batch_size: 32,
            high_water: 512,
            low_water: 128,
            default_deadline: None,
            refresh_interval: Duration::from_millis(25),
            worker_poll: Duration::from_millis(20),
        }
    }
}

struct QueuedRequest {
    product: Product,
    enqueued_at: Instant,
    deadline: Option<Instant>,
    slot: ResponseSlot,
}

/// What a thread needs to execute on a shard: the shard's snapshot handle.
/// Only the holder of [`Shard::exec`] touches it, so steady-state
/// classification shares nothing but the snapshot itself.
struct Executor {
    snapshot: Arc<dyn RequestClassifier>,
    /// `Inner::swap_count` when `snapshot` was read.
    seen_swap: u64,
}

impl Executor {
    /// Hot swap: adopt a newly published snapshot before the next request;
    /// requests already being classified finish on the old one.
    fn adopt_latest(&mut self, inner: &Inner) {
        let swap = inner.swap_count.load(Ordering::Acquire);
        if swap != self.seen_swap {
            self.snapshot = inner.current();
            self.seen_swap = swap;
        }
    }
}

struct Shard {
    queue: BoundedQueue<QueuedRequest>,
    /// Held by whoever is executing on this shard.
    exec: Mutex<Executor>,
}

impl Shard {
    /// Claims the shard for a blocking caller if nobody is executing on it
    /// and nothing is queued for it. Emptiness is checked under the lock:
    /// the worker pops only while holding it, so an admitted request is
    /// either still in the queue (no claim) or already answered.
    fn try_claim(&self) -> Option<MutexGuard<'_, Executor>> {
        let exec = match self.exec.try_lock() {
            Ok(exec) => exec,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        self.queue.is_empty().then_some(exec)
    }
}

struct Inner {
    cfg: ServeConfig,
    shards: Vec<Shard>,
    /// Total requests sitting in queues (watermark bookkeeping). Signed:
    /// submit-side increments and worker-side decrements race benignly, so
    /// the value can dip below zero for an instant.
    queued: AtomicI64,
    /// The published snapshot; shards re-read it only when `swap_count`
    /// moves.
    latest: RwLock<Arc<dyn RequestClassifier>>,
    swap_count: AtomicU64,
    degraded: AtomicBool,
    threads: ThreadsHandle,
    metrics: Arc<ServiceMetrics>,
    round_robin: AtomicUsize,
}

impl Inner {
    fn publish(&self, snapshot: Arc<dyn RequestClassifier>) {
        *self.latest.write().unwrap_or_else(|e| e.into_inner()) = snapshot;
        self.swap_count.fetch_add(1, Ordering::Release);
        self.metrics.swaps.inc();
    }

    /// `provider.build()` with the build latency recorded.
    fn timed_build(&self, provider: &dyn SnapshotProvider) -> Arc<dyn RequestClassifier> {
        let span = SpanTimer::start(&self.metrics.snapshot_build_nanos);
        let snapshot = provider.build();
        span.finish();
        snapshot
    }

    fn current(&self) -> Arc<dyn RequestClassifier> {
        self.latest.read().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// A running classification service. Dropping it shuts down gracefully:
/// queued requests are completed with an explicit
/// [`ServeError::ShuttingDown`] outcome and all threads are joined.
pub struct RuleService {
    /// The shard workers and the refresher, joined before the fields below
    /// drop.
    threads: Threads,
    inner: Arc<Inner>,
    provider: Arc<dyn SnapshotProvider>,
}

impl RuleService {
    /// Builds the initial snapshot synchronously, then starts the shard
    /// workers and the background refresher. The service's metrics live in
    /// a registry of their own ([`RuleService::service_metrics`]).
    pub fn start(provider: Arc<dyn SnapshotProvider>, cfg: ServeConfig) -> RuleService {
        RuleService::start_with_registry(provider, cfg, Arc::new(Registry::new()))
    }

    /// Like [`RuleService::start`] but registers the service's metrics in a
    /// caller-supplied registry, so one `/metrics` exposition can cover the
    /// serving tier together with the store and any network front-end.
    pub fn start_with_registry(
        provider: Arc<dyn SnapshotProvider>,
        cfg: ServeConfig,
        registry: Arc<Registry>,
    ) -> RuleService {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.low_water < cfg.high_water, "hysteresis requires low_water < high_water");
        // Read before the build: an edit landing any time after this line
        // moves the revision past what the refresher has seen.
        let initial_revision = provider.revision();
        let mut threads = Threads::default();
        let metrics = ServiceMetrics::register(registry, cfg.shards);
        let initial = {
            let span = SpanTimer::start(&metrics.snapshot_build_nanos);
            let snapshot = provider.build();
            span.finish();
            snapshot
        };
        let inner = Arc::new(Inner {
            shards: (0..cfg.shards)
                .map(|_| Shard {
                    queue: BoundedQueue::new(cfg.queue_capacity),
                    exec: Mutex::new(Executor { snapshot: initial.clone(), seen_swap: 0 }),
                })
                .collect(),
            queued: AtomicI64::new(0),
            latest: RwLock::new(initial),
            swap_count: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            threads: threads.handle(),
            metrics,
            round_robin: AtomicUsize::new(0),
            cfg,
        });

        for shard in 0..inner.cfg.shards {
            let (worker, name) = (inner.clone(), format!("rulekit-serve-{shard}"));
            inner.threads.spawn(name, move || worker_loop(&worker, shard));
        }
        let (refresh, source) = (inner.clone(), provider.clone());
        inner.threads.spawn("rulekit-serve-refresh", move || {
            refresher_loop(&refresh, source.as_ref(), initial_revision)
        });
        // The stop closes the shard queues and ends the refresher's wait.
        let (wake, source) = (inner.clone(), provider.clone());
        threads.on_stop(move || {
            wake.shards.iter().for_each(|shard| shard.queue.close());
            source.wake();
        });

        RuleService { inner, provider, threads }
    }

    /// Submits with the config's default deadline.
    pub fn submit(&self, product: Product) -> Admission {
        self.submit_with_deadline(product, self.inner.cfg.default_deadline)
    }

    /// Offers the request to every shard queue starting from a round-robin
    /// cursor; if all are full (or the service is shutting down) the caller
    /// gets `Overloaded` and nothing is queued.
    pub fn submit_with_deadline(&self, product: Product, deadline: Option<Duration>) -> Admission {
        let inner = &self.inner;
        if inner.threads.stopping() {
            inner.metrics.overloaded.inc();
            return Admission::Overloaded;
        }
        let now = Instant::now();
        let (slot, handle) = response_channel();
        let mut request =
            QueuedRequest { product, enqueued_at: now, deadline: deadline.map(|d| now + d), slot };
        let shards = inner.cfg.shards;
        let start = inner.round_robin.fetch_add(1, Ordering::Relaxed);
        for k in 0..shards {
            let shard = (start + k) % shards;
            match inner.shards[shard].queue.try_push(request) {
                Ok(()) => {
                    inner.metrics.submitted.inc();
                    inner.metrics.shard_depth(shard).inc();
                    let depth = (inner.queued.fetch_add(1, Ordering::Relaxed) + 1).max(0) as usize;
                    inner.metrics.note_queue_depth(depth as u64);
                    if depth >= inner.cfg.high_water {
                        inner.degraded.store(true, Ordering::Relaxed);
                    }
                    return Admission::Enqueued(handle);
                }
                Err(rejected) => request = rejected,
            }
        }
        inner.metrics.overloaded.inc();
        Admission::Overloaded
    }

    /// Classifies `product` and blocks for the outcome. When a shard is idle
    /// (nothing queued, nobody executing) the request runs to completion on
    /// the calling thread, on that shard's snapshot, with no hand-off;
    /// otherwise it is queued exactly as [`submit_with_deadline`] would and
    /// the caller waits for the worker. `Err(ServeError::Overloaded)` is
    /// `submit`'s `Admission::Overloaded`: nothing ran, nothing is queued.
    ///
    /// [`submit_with_deadline`]: RuleService::submit_with_deadline
    pub fn classify(
        &self,
        product: Product,
        deadline: Option<Duration>,
    ) -> Result<ClassifyOutcome, ServeError> {
        let inner = &self.inner;
        if inner.threads.stopping() {
            inner.metrics.overloaded.inc();
            return Err(ServeError::Overloaded);
        }
        let now = Instant::now();
        let shards = inner.cfg.shards;
        let start = inner.round_robin.fetch_add(1, Ordering::Relaxed);
        for k in 0..shards {
            if let Some(mut exec) = inner.shards[(start + k) % shards].try_claim() {
                inner.metrics.submitted.inc();
                exec.adopt_latest(inner);
                return serve_one(
                    inner,
                    exec.snapshot.as_ref(),
                    &product,
                    now,
                    deadline.map(|d| now + d),
                    &inner.metrics.ran_on_caller,
                );
            }
        }
        match self.submit_with_deadline(product, deadline) {
            Admission::Enqueued(handle) => handle.wait(),
            Admission::Overloaded => Err(ServeError::Overloaded),
        }
    }

    /// The deadline [`RuleService::submit`] applies.
    pub fn default_deadline(&self) -> Option<Duration> {
        self.inner.cfg.default_deadline
    }

    /// Rebuilds and publishes a snapshot right now, bypassing the
    /// refresher's change wait. Returns the new snapshot version.
    pub fn refresh_now(&self) -> u64 {
        let snapshot = self.inner.timed_build(self.provider.as_ref());
        let version = snapshot.version();
        self.inner.publish(snapshot);
        version
    }

    /// Version of the currently published snapshot.
    pub fn snapshot_version(&self) -> u64 {
        self.inner.current().version()
    }

    /// Number of snapshot swaps published so far.
    pub fn swap_count(&self) -> u64 {
        self.inner.swap_count.load(Ordering::Acquire)
    }

    /// Whether the service is currently in rules-only degradation.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Relaxed)
    }

    /// Total requests currently queued across shards.
    pub fn queue_depth(&self) -> usize {
        self.inner.queued.load(Ordering::Relaxed).max(0) as usize
    }

    /// The live metric handles (per-shard gauges, histograms) and the
    /// registry whose exposition covers them.
    pub fn service_metrics(&self) -> &Arc<ServiceMetrics> {
        &self.inner.metrics
    }

    /// Stops admission and completes every queued request with an explicit
    /// [`ServeError::ShuttingDown`] outcome (counted in `shutdown_shed`),
    /// then joins all threads. No caller blocked on a handle is ever left
    /// hanging: workers shed their remaining queue contents, and the
    /// [`ResponseSlot`] drop guarantee backstops any request discarded on
    /// an unexpected path. Idempotent; also run by the drop.
    pub fn shutdown(&mut self) {
        self.threads.stop();
    }
}

fn refresher_loop(inner: &Inner, provider: &dyn SnapshotProvider, mut last_seen: u64) {
    while !inner.threads.stopping() {
        let now = provider.wait_for_change(last_seen, inner.cfg.refresh_interval);
        if inner.threads.stopping() {
            break;
        }
        if now != last_seen {
            let snapshot = inner.timed_build(provider);
            inner.publish(snapshot);
            last_seen = now;
        }
    }
}

fn worker_loop(inner: &Inner, shard: usize) {
    let Shard { queue, exec: shard_exec } = &inner.shards[shard];

    loop {
        if !queue.wait_nonempty(inner.cfg.worker_poll) {
            if queue.is_closed() {
                break;
            }
            continue;
        }
        // Take the shard before the batch: waits out a caller that claimed
        // it, and keeps callers off it until the batch's last answer.
        let mut exec = shard_exec.lock().unwrap_or_else(|e| e.into_inner());
        let batch = queue.pop_batch(inner.cfg.batch_size, Duration::ZERO);
        let n = batch.len() as i64;
        inner.metrics.shard_depth(shard).add(-n);
        let depth = (inner.queued.fetch_sub(n, Ordering::Relaxed) - n).max(0) as usize;
        if depth <= inner.cfg.low_water {
            inner.degraded.store(false, Ordering::Relaxed);
        }

        // Shutdown: shed remaining queued work with an explicit outcome
        // instead of classifying it — callers unblock immediately and can
        // tell "shut down" from "served".
        if inner.threads.stopping() {
            for request in batch {
                inner.metrics.shutdown_shed.inc();
                request.slot.fulfill(Err(ServeError::ShuttingDown));
            }
            continue;
        }

        exec.adopt_latest(inner);
        for request in batch {
            let QueuedRequest { product, enqueued_at, deadline, slot } = request;
            slot.fulfill(serve_one(
                inner,
                exec.snapshot.as_ref(),
                &product,
                enqueued_at,
                deadline,
                &inner.metrics.ran_on_worker,
            ));
        }
    }
}

/// One admitted request, on whichever thread holds the shard: deadline
/// check, full or degraded classification with panics contained, outcome
/// metrics. `ran` is the path's completion counter.
fn serve_one(
    inner: &Inner,
    snapshot: &dyn RequestClassifier,
    product: &Product,
    admitted_at: Instant,
    deadline: Option<Instant>,
    ran: &Counter,
) -> Result<ClassifyOutcome, ServeError> {
    let metrics = &inner.metrics;
    if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
        metrics.deadline_shed.inc();
        return Err(ServeError::DeadlineExceeded);
    }
    let degrade = inner.degraded.load(Ordering::Relaxed);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if degrade {
            snapshot.classify_degraded(product)
        } else {
            snapshot.classify(product)
        }
    }));
    match outcome {
        Ok(decided) => {
            metrics.completed.inc();
            ran.inc();
            metrics.candidates_total.add(decided.candidates as u64);
            if decided.degraded {
                metrics.degraded_served.inc();
            }
            let latency = admitted_at.elapsed();
            metrics.latency.record_duration(latency);
            Ok(ClassifyOutcome {
                decision: decided.decision,
                candidates: decided.candidates,
                degraded: decided.degraded,
                snapshot_version: snapshot.version(),
                latency,
            })
        }
        Err(payload) => {
            metrics.classifier_panics.inc();
            Err(ServeError::ClassifierPanicked(panic_text(payload.as_ref())))
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "classifier panicked".to_string()
    }
}
