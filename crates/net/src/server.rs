//! The TCP server: one acceptor thread feeding a fixed pool of connection
//! handlers through a bounded queue, keep-alive HTTP/1.1 sessions with
//! read/write timeouts, and a graceful three-phase shutdown — stop
//! accepting, flush in-flight requests, then let the serving tier shed
//! whatever is still queued.
//!
//! Overload surfaces at two points, both explicit:
//!
//! * the **socket edge**: when every handler is busy and the pending-
//!   connection queue is full, new connections get an immediate canned 503
//!   and are closed (counted in `rulekit_net_accept_rejected_total`);
//! * the **admission queue**: a classify request the serving tier cannot
//!   admit is answered 503 (`rulekit_net_overload_shed_total`) — the same
//!   backpressure in-process callers see as [`Admission::Overloaded`].
//!
//! [`Admission::Overloaded`]: rulekit_serve::Admission::Overloaded

use crate::app::RuleApp;
use crate::handler::{dispatch, draining_response};
use crate::http::{parse_request, HttpError, HttpLimits, Method, ParseOutcome, Response};
use crate::metrics::NetMetrics;
use crate::wire::error_json;
use rulekit_core::{Threads, ThreadsHandle};
use rulekit_obs::Registry;
use rulekit_serve::BoundedQueue;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Accepted connections waiting for a free handler; beyond this the
/// acceptor answers a canned 503 and closes.
pub const PENDING_CONNECTIONS: usize = 64;
/// Maximum products in one batch classify request; a larger batch is 422.
pub const MAX_BATCH: usize = 256;
/// Per-connection read timeout (also bounds idle keep-alive lifetime and
/// how long drain waits for a handler to notice shutdown).
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-connection write timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// A session's response buffer is dropped after a response that grew it
/// past this, so an idle keep-alive connection does not pin a large body.
const KEPT_RESPONSE_BUFFER: usize = 64 * 1024;

/// Front-end tuning knobs. Every other limit is a constant: the HTTP
/// parser's [`HttpLimits::default`], [`PENDING_CONNECTIONS`],
/// [`MAX_BATCH`] and 5 s socket timeouts; classify requests carry the
/// service's default deadline.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Connection-handler threads (each serves one connection at a time).
    pub handler_threads: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { addr: "127.0.0.1:0".to_string(), handler_threads: 8 }
    }
}

/// Shared server state (app + telemetry + the threads' stop flag).
pub(crate) struct ServerState {
    pub(crate) app: RuleApp,
    pub(crate) metrics: NetMetrics,
    threads: ThreadsHandle,
    /// `(changes, hash)` of the last catalog hash computed for `/health`.
    /// The hash walks every rule, so recompute only when the repository's
    /// change signal moves — health is polled by load balancers and
    /// replica checks. Not the revision: a restore may install another
    /// catalog at the revision already cached.
    catalog_hash_cache: Mutex<Option<(u64, u64)>>,
    conns: BoundedQueue<TcpStream>,
}

impl ServerState {
    pub(crate) fn is_draining(&self) -> bool {
        self.threads.stopping()
    }

    /// The catalog hash of the current rules, as `/health` renders it,
    /// cached until the next change.
    pub(crate) fn catalog_hash_hex(&self) -> String {
        let mut cache = self.catalog_hash_cache.lock().unwrap_or_else(|e| e.into_inner());
        // Read before the walk: a change in between leaves the hash keyed
        // to the older count, so the next call recomputes.
        let changes = self.app.rules.changes();
        if let Some((seen, hash)) = *cache {
            if seen == changes {
                return format!("{hash:016x}");
            }
        }
        let hash = rulekit_store::catalog_hash(&self.app.rules);
        *cache = Some((changes, hash));
        format!("{hash:016x}")
    }
}

/// A running front-end. Dropping it shuts down gracefully.
pub struct NetServer {
    /// The handlers and the acceptor, joined before the fields below drop.
    threads: Threads,
    state: Arc<ServerState>,
    local_addr: SocketAddr,
}

impl NetServer {
    /// Binds `cfg.addr` and starts the acceptor and handler threads. The
    /// app's [`RuleService`] must already be running (it is, by
    /// construction of [`RuleApp`]).
    ///
    /// [`RuleService`]: rulekit_serve::RuleService
    pub fn start(app: RuleApp, cfg: NetConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let mut threads = Threads::default();
        let metrics = NetMetrics::register(&app.registry);
        let state = Arc::new(ServerState {
            conns: BoundedQueue::new(PENDING_CONNECTIONS),
            app,
            metrics,
            threads: threads.handle(),
            catalog_hash_cache: Mutex::new(None),
        });

        for i in 0..cfg.handler_threads.max(1) {
            let (handler, name) = (state.clone(), format!("rulekit-net-{i}"));
            state.threads.spawn(name, move || handler_loop(&handler));
        }
        let wake = state.clone();
        threads.on_stop(move || wake.conns.close());
        let accepting = state.clone();
        let local_addr = threads.accept("rulekit-net-accept", listener, move |stream| {
            accepting.metrics.accepted.inc();
            if let Err(stream) = accepting.conns.try_push(stream) {
                accepting.metrics.accept_rejected.inc();
                reject_connection(stream);
            }
        })?;

        Ok(NetServer { state, local_addr, threads })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared metrics registry (`GET /metrics` renders it).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.state.app.registry
    }

    /// The serving tier behind the socket.
    pub fn service(&self) -> &rulekit_serve::RuleService {
        &self.state.app.service
    }

    /// The durable store, when the app has one.
    pub fn store(&self) -> Option<&Arc<rulekit_store::DurableRepository>> {
        self.state.app.store.as_ref()
    }

    /// Whether a graceful shutdown is in progress (or finished).
    pub fn is_draining(&self) -> bool {
        self.state.is_draining()
    }

    /// Graceful drain: stop accepting, answer new requests on live
    /// connections with 503, let in-flight requests finish, join the
    /// network threads. The serving tier itself keeps running until the
    /// server (and its [`RuleApp`]) is dropped, at which point any still-
    /// queued work is shed with an explicit shutdown outcome. Idempotent.
    pub fn shutdown(&mut self) {
        self.threads.stop();
    }
}

/// Answers a connection the handler pool has no room for: one canned 503,
/// then close. Best-effort — the peer may already be gone.
fn reject_connection(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut resp = Response::json(503, error_json("server at connection capacity"));
    resp.close = true;
    let mut stream = stream;
    let _ = stream.write_all(&resp.serialize());
}

fn handler_loop(state: &Arc<ServerState>) {
    // Ends once the drain has closed the queue and it is empty.
    while let Some(stream) = state.conns.pop_batch(1, Duration::MAX).pop() {
        state.metrics.connections.inc();
        handle_connection(state, stream);
        state.metrics.connections.dec();
    }
}

/// Serves one keep-alive session: parse a request, dispatch, respond,
/// repeat until the peer closes, an error ends the session, or drain
/// begins. Every response is serialized into one buffer the session keeps.
fn handle_connection(state: &ServerState, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let limits = HttpLimits::default();
    let mut out = Vec::new();

    loop {
        match parse_request(&mut reader, &limits) {
            Ok(ParseOutcome::Closed) => return,
            Ok(ParseOutcome::Request(req)) => {
                let draining = state.is_draining();
                let mut resp = if draining {
                    state.metrics.drain_rejected.inc();
                    draining_response()
                } else {
                    dispatch(state, &req)
                };
                resp.close = resp.close || !req.keep_alive || draining;
                if req.method == Method::Head {
                    resp.body.clear();
                }
                out.clear();
                resp.serialize_into(&mut out);
                if stream.write_all(&out).and_then(|()| stream.flush()).is_err() || resp.close {
                    return;
                }
                if out.capacity() > KEPT_RESPONSE_BUFFER {
                    out = Vec::new();
                }
            }
            Err(err) => {
                state.metrics.http_errors.inc();
                if let Some(status) = err.status() {
                    let mut resp = Response::json(status, error_json(&err.message()));
                    resp.close = true;
                    let _ = resp.write_to(&mut stream);
                } else if let HttpError::Io(_) = err {
                    // Timeout or transport failure: nothing to say.
                }
                return;
            }
        }
    }
}
