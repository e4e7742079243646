//! The failure-aware front tier: a client-side router that fans `/classify`
//! across a replica set while routing rule writes to the leader only.
//!
//! Each replica sits behind its own circuit breaker:
//!
//! * **Closed** — requests flow; `failure_threshold` *consecutive*
//!   transport errors, timeouts, or 5xx answers trip it;
//! * **Open** — the replica is skipped entirely (instant failover, no
//!   timeout paid) until `cooldown` elapses;
//! * **Half-open** — exactly one probe request is let through; success
//!   closes the breaker, failure re-opens it for another cooldown.
//!
//! Classification picks replicas round-robin among breakers that admit
//! traffic, failing over on error until every replica was tried. Rule
//! mutations (`POST /rulesets`, `DELETE /rulesets/{id}`) always go to the
//! leader — followers answer them 409 — through a retrying client
//! ([`RetryPolicy`]) so a leader restart is ridden out, not surfaced.

use crate::client::{ClientResponse, HttpClient, RetryPolicy};
use crate::http::Method;
use rulekit_obs::{Counter, Gauge, Registry};
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-replica circuit-breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before admitting a half-open probe.
    pub cooldown: Duration,
    /// Connect/read/write timeout for replica requests (a timeout counts as
    /// a failure).
    pub timeout: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(500),
            timeout: Duration::from_secs(2),
        }
    }
}

/// Front-tier wiring: the leader (writes) and the replica set (reads).
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Where rule mutations go. May also appear in `replicas`.
    pub leader: SocketAddr,
    /// Classify targets, round-robin. Usually the followers, optionally
    /// including the leader.
    pub replicas: Vec<SocketAddr>,
    /// Breaker tuning shared by every replica slot.
    pub breaker: BreakerConfig,
    /// Retry schedule for leader writes.
    pub retry: RetryPolicy,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Instant,
    probing: bool,
}

/// One replica's breaker. All transitions happen under one small mutex —
/// the guarded section never does I/O.
struct Breaker {
    inner: Mutex<BreakerInner>,
    cfg: BreakerConfig,
}

/// What the breaker said about sending a request now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// Breaker closed: normal traffic.
    Yes,
    /// Breaker half-open: this request is the one probe.
    Probe,
    /// Breaker open (or a probe is already in flight): skip the replica.
    No,
}

impl Breaker {
    fn new(cfg: BreakerConfig) -> Breaker {
        Breaker {
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Instant::now(),
                probing: false,
            }),
            cfg,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn admit(&self) -> Admit {
        let mut b = self.lock();
        match b.state {
            BreakerState::Closed => Admit::Yes,
            BreakerState::Open if b.opened_at.elapsed() >= self.cfg.cooldown => {
                b.state = BreakerState::HalfOpen;
                b.probing = true;
                Admit::Probe
            }
            BreakerState::Open => Admit::No,
            BreakerState::HalfOpen if !b.probing => {
                b.probing = true;
                Admit::Probe
            }
            BreakerState::HalfOpen => Admit::No,
        }
    }

    /// `true` when this success closed an open/half-open breaker.
    fn on_success(&self) -> bool {
        let mut b = self.lock();
        let recovered = b.state != BreakerState::Closed;
        b.state = BreakerState::Closed;
        b.consecutive_failures = 0;
        b.probing = false;
        recovered
    }

    /// `true` when this failure tripped the breaker open.
    fn on_failure(&self) -> bool {
        let mut b = self.lock();
        match b.state {
            BreakerState::HalfOpen => {
                // Failed probe: straight back to open, new cooldown.
                b.state = BreakerState::Open;
                b.opened_at = Instant::now();
                b.probing = false;
                true
            }
            BreakerState::Closed => {
                b.consecutive_failures += 1;
                if b.consecutive_failures >= self.cfg.failure_threshold.max(1) {
                    b.state = BreakerState::Open;
                    b.opened_at = Instant::now();
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => false,
        }
    }

    fn state_name(&self) -> &'static str {
        match self.lock().state {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    fn state_code(&self) -> i64 {
        match self.lock().state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// Every replica was skipped or failed for one classify request.
#[derive(Debug)]
pub struct FrontError {
    /// Human-readable description of the last failure (or "all breakers
    /// open" when nothing was even tried).
    pub message: String,
}

impl fmt::Display for FrontError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for FrontError {}

struct FrontMetrics {
    classify: Counter,
    failovers: Counter,
    trips: Counter,
    recoveries: Counter,
    shed: Counter,
    breaker_states: Vec<Gauge>,
}

impl FrontMetrics {
    fn register(registry: &Registry, replicas: usize) -> FrontMetrics {
        FrontMetrics {
            classify: registry.counter("rulekit_front_classify_total"),
            failovers: registry.counter("rulekit_front_failovers_total"),
            trips: registry.counter("rulekit_front_breaker_trips_total"),
            recoveries: registry.counter("rulekit_front_breaker_recoveries_total"),
            shed: registry.counter("rulekit_front_no_replica_total"),
            breaker_states: (0..replicas)
                .map(|i| registry.gauge(&format!("rulekit_front_breaker_state{{replica=\"{i}\"}}")))
                .collect(),
        }
    }
}

struct Slot {
    addr: SocketAddr,
    breaker: Breaker,
    conn: Mutex<Option<HttpClient>>,
}

/// The router. Thread-safe: concurrent classifies round-robin across
/// slots; a slot's keep-alive connection serializes its own requests.
pub struct FrontTier {
    cfg: FrontConfig,
    slots: Vec<Slot>,
    rr: AtomicUsize,
    leader: Mutex<Option<HttpClient>>,
    metrics: FrontMetrics,
}

impl FrontTier {
    /// A front tier recording breaker and routing telemetry in `registry`.
    pub fn with_registry(cfg: FrontConfig, registry: &Registry) -> FrontTier {
        let metrics = FrontMetrics::register(registry, cfg.replicas.len());
        let slots = cfg
            .replicas
            .iter()
            .map(|&addr| Slot {
                addr,
                breaker: Breaker::new(cfg.breaker.clone()),
                conn: Mutex::new(None),
            })
            .collect();
        FrontTier { slots, rr: AtomicUsize::new(0), leader: Mutex::new(None), metrics, cfg }
    }

    /// Current breaker state per replica, in `replicas` order.
    pub fn breaker_states(&self) -> Vec<&'static str> {
        self.note_breaker_gauges();
        self.slots.iter().map(|s| s.breaker.state_name()).collect()
    }

    fn note_breaker_gauges(&self) {
        for (slot, gauge) in self.slots.iter().zip(&self.metrics.breaker_states) {
            gauge.set(slot.breaker.state_code());
        }
    }

    /// Classifies via the replica set: round-robin over admitting breakers,
    /// failing over on error until every replica was tried once.
    pub fn classify(&self, body: &str) -> Result<ClientResponse, FrontError> {
        self.metrics.classify.inc();
        let n = self.slots.len();
        if n == 0 {
            return Err(FrontError { message: "front tier has no replicas".into() });
        }
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let mut failures: Vec<String> = Vec::new();
        for i in 0..n {
            let slot = &self.slots[(start + i) % n];
            let admit = slot.breaker.admit();
            if admit == Admit::No {
                continue;
            }
            match self.request_slot(slot, Method::Post, "/classify", body.as_bytes()) {
                Ok(resp) if resp.status < 500 => {
                    if slot.breaker.on_success() {
                        self.metrics.recoveries.inc();
                    }
                    self.note_breaker_gauges();
                    return Ok(resp);
                }
                Ok(resp) => {
                    failures.push(format!("{} answered {}", slot.addr, resp.status));
                    self.note_failure(slot);
                }
                Err(e) => {
                    failures.push(format!("{}: {e}", slot.addr));
                    self.note_failure(slot);
                }
            }
            self.metrics.failovers.inc();
        }
        self.metrics.shed.inc();
        self.note_breaker_gauges();
        let detail =
            if failures.is_empty() { "all breakers open".to_string() } else { failures.join("; ") };
        Err(FrontError { message: format!("no replica served classify: {detail}") })
    }

    fn note_failure(&self, slot: &Slot) {
        // A failed request may leave the connection mid-stream; drop it.
        *slot.conn.lock().unwrap_or_else(|e| e.into_inner()) = None;
        if slot.breaker.on_failure() {
            self.metrics.trips.inc();
        }
        self.note_breaker_gauges();
    }

    fn request_slot(
        &self,
        slot: &Slot,
        method: Method,
        path: &str,
        body: &[u8],
    ) -> Result<ClientResponse, crate::http::HttpError> {
        let mut guard = slot.conn.lock().unwrap_or_else(|e| e.into_inner());
        let reused = guard.is_some();
        if guard.is_none() {
            *guard = Some(HttpClient::connect(slot.addr, self.cfg.breaker.timeout)?);
        }
        let client = guard.as_mut().expect("connection just ensured");
        match client.request(method, path, body) {
            Ok(resp) => Ok(resp),
            Err(_) if reused => {
                // Stale keep-alive: a server may close an idle cached
                // connection at any time; that is not a replica failure.
                // Retry exactly once on a fresh connection — an error there
                // is real and counts against the breaker.
                *guard = None;
                *guard = Some(HttpClient::connect(slot.addr, self.cfg.breaker.timeout)?);
                let client = guard.as_mut().expect("fresh connection");
                let result = client.request(method, path, body);
                if result.is_err() {
                    *guard = None;
                }
                result
            }
            Err(e) => {
                *guard = None;
                Err(e)
            }
        }
    }

    /// `POST /rulesets` on the leader, with retry.
    pub fn create_rules(&self, json_body: &str) -> Result<ClientResponse, crate::http::HttpError> {
        self.leader_request(Method::Post, "/rulesets", json_body.as_bytes())
    }

    /// `DELETE /rulesets/{id}` on the leader, with retry.
    pub fn delete_rule(&self, id: u64) -> Result<ClientResponse, crate::http::HttpError> {
        self.leader_request(Method::Delete, &format!("/rulesets/{id}"), b"")
    }

    fn leader_request(
        &self,
        method: Method,
        path: &str,
        body: &[u8],
    ) -> Result<ClientResponse, crate::http::HttpError> {
        let mut guard = self.leader.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            *guard = Some(HttpClient::connect_with_retry(
                self.cfg.leader,
                self.cfg.breaker.timeout,
                &self.cfg.retry,
            )?);
        }
        let client = guard.as_mut().expect("connection just ensured");
        let result = client.request_with_retry(method, path, body, &self.cfg.retry);
        if result.is_err() {
            *guard = None;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker::new(BreakerConfig { failure_threshold: threshold, cooldown, timeout: cooldown })
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let b = breaker(3, Duration::from_secs(60));
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        b.on_success(); // streak broken
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        assert!(b.on_failure(), "third consecutive failure trips");
        assert_eq!(b.admit(), Admit::No);
        assert_eq!(b.state_name(), "open");
    }

    #[test]
    fn half_open_admits_one_probe_then_closes_or_reopens() {
        let b = breaker(1, Duration::from_millis(1));
        assert!(b.on_failure());
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(b.admit(), Admit::Probe);
        assert_eq!(b.admit(), Admit::No, "only one probe in flight");
        assert!(b.on_success(), "probe success recovers");
        assert_eq!(b.admit(), Admit::Yes);

        // And the failing-probe path re-opens.
        assert!(b.on_failure());
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(b.admit(), Admit::Probe);
        assert!(b.on_failure());
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.admit(), Admit::No, "cooldown restarts after a failed probe");
    }

    #[test]
    fn classify_with_no_replicas_errors() {
        let cfg = FrontConfig {
            leader: "127.0.0.1:1".parse().unwrap(),
            replicas: vec![],
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::default(),
        };
        assert!(FrontTier::with_registry(cfg, &Registry::new()).classify("{}").is_err());
    }
}
