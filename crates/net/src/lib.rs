//! # rulekit-net
//!
//! The network front-end: a dependency-free (std-only, no async runtime)
//! threaded TCP server with a minimal hardened HTTP/1.1 layer and a JSON
//! wire protocol, putting the `rulekit-serve` tier on real sockets — the
//! missing hop between the paper's production setting ("serve heavy traffic
//! from millions of users") and a library-only `RuleService`.
//!
//! Routes:
//!
//! * `POST /classify` — classify one product, or a pipelined batch via
//!   `{"items": […]}`; traffic goes through the serving tier's admission
//!   queue, deadlines, and rules-only degradation (overload is an explicit
//!   503, never an unbounded buffer);
//! * `POST /rulesets`, `GET /rulesets`, `GET /rulesets/{id}`,
//!   `DELETE /rulesets/{id}` — rule CRUD; with a durable app every edit is
//!   WAL-logged before the response acknowledges it, and the serving tier's
//!   refresher makes it visible to traffic within one snapshot swap;
//! * `GET /health` — snapshot version, degradation state, per-shard queue
//!   depths;
//! * `GET /metrics` — the shared registry's Prometheus text exposition
//!   (serving tier + store + pipeline + front-end in one scrape).
//!
//! Design:
//!
//! * **HTTP codec** ([`http`]): request-line/header/body-size limits with
//!   per-violation 4xx statuses, keep-alive + pipelining, bounded
//!   `Content-Length` bodies only (chunked is 501), connection read/write
//!   timeouts;
//! * **Threaded server** ([`server`]): one acceptor feeding a fixed handler
//!   pool through a bounded queue — past capacity, connections get a canned
//!   503 at the socket edge; the acceptor and handlers are one
//!   [`rulekit_core::Threads`] group, joined on drop;
//! * **Graceful drain** ([`NetServer::shutdown`]): stop accepting → flush
//!   in-flight requests → shed whatever the serving tier still queues;
//! * **Observability** ([`metrics`]): acceptor connection gauge, per-route
//!   request counters and latency histograms in the shared `rulekit-obs`
//!   registry;
//! * **Client** ([`client`]): one plain blocking keep-alive [`HttpClient`]
//!   (no retry, no replica routing) for tests, examples and load drivers.

#![forbid(unsafe_code)]

pub mod app;
pub mod client;
pub mod handler;
pub mod http;
pub mod json;
pub mod metrics;
pub mod router;
pub mod server;
pub mod wire;

pub use app::{ReplicationInfo, RuleApp};
pub use client::{ClientResponse, HttpClient};
pub use http::{
    parse_request, parse_response, HttpError, HttpLimits, Method, ParseOutcome, Request, Response,
};
pub use json::Json;
pub use metrics::NetMetrics;
pub use router::{route, Route, RouteError};
pub use server::{NetConfig, NetServer, MAX_BATCH, PENDING_CONNECTIONS};
