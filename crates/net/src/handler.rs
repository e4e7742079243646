//! Route handlers: the glue between parsed HTTP requests and the rule
//! service / durable store. Every handler returns a [`Response`]; the
//! connection loop owns keep-alive and drain semantics.

use crate::http::{Request, Response};
use crate::json::{obj, Json};
use crate::router::{route, Route};
use crate::server::{ServerState, MAX_BATCH};
use crate::wire::{error_json, outcome_to_json, product_from_json, rule_to_json};
use rulekit_core::{RuleId, RuleMeta};
use rulekit_serve::{Admission, ServeError};
use rulekit_store::StoreError;
use std::time::Instant;

/// The canned answer while the server drains.
pub(crate) fn draining_response() -> Response {
    let mut resp = Response::json(503, error_json("server draining"));
    resp.close = true;
    resp
}

/// Resolves the route and runs its handler, recording per-route request
/// counts and latency.
pub(crate) fn dispatch(state: &ServerState, req: &Request) -> Response {
    let route = match route(req.method, &req.path) {
        Ok(r) => r,
        Err(e) => {
            state.metrics.http_errors.inc();
            return Response::json(e.status(), error_json(&format!("{} {}", req.method, req.path)));
        }
    };
    let start = Instant::now();
    let resp = match route {
        Route::Classify => classify(state, req),
        Route::CreateRules => create_rules(state, req),
        Route::ListRules => list_rules(state),
        Route::GetRule(id) => get_rule(state, id),
        Route::DeleteRule(id) => delete_rule(state, id),
        Route::Health => health(state),
        Route::Metrics => metrics(state),
    };
    state.metrics.route_requests(route).inc();
    state.metrics.route_latency(route).record_duration(start.elapsed());
    resp
}

/// `POST /classify` — single product or pipelined batch.
///
/// Single: the product object itself. Batch: `{"items": [product, …]}` (or
/// a bare array). Batch submissions are admitted *before* any wait, so the
/// shard queues fill in parallel and per-item outcomes preserve order.
fn classify(state: &ServerState, req: &Request) -> Response {
    let doc = match Json::parse(&req.body) {
        Ok(v) => v,
        Err(e) => return Response::json(400, error_json(&e.to_string())),
    };
    let items: Option<&[Json]> = match &doc {
        Json::Arr(items) => Some(items),
        other => other.get("items").and_then(Json::as_arr),
    };
    match items {
        None => classify_one(state, &doc),
        Some(items) => classify_batch(state, items),
    }
}

/// One product: this thread classifies it on an idle shard, or queues it and
/// waits when every shard is busy — the service decides.
fn classify_one(state: &ServerState, doc: &Json) -> Response {
    let product = match product_from_json(doc) {
        Ok(p) => p,
        Err(e) => return Response::json(422, error_json(&e)),
    };
    let service = &state.app.service;
    match service.classify(product, service.default_deadline()) {
        Ok(outcome) => Response::json(200, outcome_to_json(&outcome, &state.app.taxonomy).render()),
        Err(e) => serve_error_response(state, &e),
    }
}

fn serve_error_response(state: &ServerState, e: &ServeError) -> Response {
    match e {
        ServeError::Overloaded => {
            state.metrics.overload_shed.inc();
            Response::json(503, error_json("overloaded"))
        }
        ServeError::DeadlineExceeded => Response::json(504, error_json("deadline exceeded")),
        ServeError::ShuttingDown => {
            state.metrics.overload_shed.inc();
            Response::json(503, error_json("service shutting down"))
        }
        ServeError::ClassifierPanicked(msg) => {
            Response::json(500, error_json(&format!("classifier panicked: {msg}")))
        }
    }
}

fn classify_batch(state: &ServerState, items: &[Json]) -> Response {
    if items.len() > MAX_BATCH {
        return Response::json(
            422,
            error_json(&format!("batch of {} exceeds max {MAX_BATCH}", items.len())),
        );
    }
    let mut products = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match product_from_json(item) {
            Ok(p) => products.push(p),
            Err(e) => return Response::json(422, error_json(&format!("item {i}: {e}"))),
        }
    }
    // Admit everything first (the pipelined half of "single + pipelined
    // batch"), then wait in order.
    let admissions: Vec<Admission> =
        products.into_iter().map(|p| state.app.service.submit(p)).collect();
    let mut results = Vec::with_capacity(admissions.len());
    for admission in admissions {
        results.push(match admission {
            Admission::Overloaded => {
                state.metrics.overload_shed.inc();
                obj([("error", Json::from("overloaded"))])
            }
            Admission::Enqueued(handle) => match handle.wait() {
                Ok(outcome) => outcome_to_json(&outcome, &state.app.taxonomy),
                Err(e) => obj([("error", Json::from(e.to_string()))]),
            },
        });
    }
    Response::json(200, obj([("results", Json::Arr(results))]).render())
}

/// `POST /rulesets` — body `{"rules"?: "<dsl text>", "expr"?: "<expression
/// lines>", "infer"?: "<fact-rule lines>", "author"?: "…"}`. At least one of
/// `rules`/`expr`/`infer` is required. `expr` lines are expression-language
/// predicates (`<expr> => <action>`, one per line); the handler prefixes each
/// with `rule: ` so they enter the same DSL path — and therefore the same
/// WAL/recovery story — as every other rule. `infer` lines are fact rules
/// (`<expr> => fact <name> = <value> [@conf] [^prio]`, one per line),
/// prefixed with `infer: ` the same way, so derived-fact rules replicate and
/// recover exactly like classification rules. Durable apps WAL-log every
/// rule before this returns 201.
fn create_rules(state: &ServerState, req: &Request) -> Response {
    if let Some(resp) = reject_non_leader_write(state) {
        return resp;
    }
    let doc = match Json::parse(&req.body) {
        Ok(v) => v,
        Err(e) => return Response::json(400, error_json(&e.to_string())),
    };
    let rules_text = doc.get("rules").and_then(Json::as_str);
    let expr_text = doc.get("expr").and_then(Json::as_str);
    let infer_text = doc.get("infer").and_then(Json::as_str);
    if rules_text.is_none() && expr_text.is_none() && infer_text.is_none() {
        return Response::json(
            422,
            error_json("body needs a string \"rules\", \"expr\" or \"infer\" field"),
        );
    }
    let mut text = rules_text.unwrap_or("").to_string();
    let mut splice = |raw: &str, prefix: &str| {
        for line in raw.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if !text.is_empty() {
                text.push('\n');
            }
            if !line.starts_with(prefix) {
                text.push_str(prefix);
                text.push(' ');
            }
            text.push_str(line);
        }
    };
    splice(expr_text.unwrap_or(""), "rule:");
    splice(infer_text.unwrap_or(""), "infer:");
    let mut meta = RuleMeta::default();
    if let Some(author) = doc.get("author").and_then(Json::as_str) {
        meta.author = author.to_string();
    }
    match state.app.add_rules(&text, &meta) {
        Ok(ids) => {
            let ids: Vec<Json> = ids.iter().map(|id| Json::from(id.0)).collect();
            let body = obj([
                ("ids", Json::Arr(ids)),
                ("revision", Json::from(state.app.rules.revision())),
            ]);
            Response::json(201, body.render())
        }
        Err(e) => store_error_response(&e),
    }
}

fn store_error_response(e: &StoreError) -> Response {
    match e {
        StoreError::Parse(m) => Response::json(422, error_json(m)),
        StoreError::Io(_) | StoreError::Corrupt(_) => {
            Response::json(500, error_json(&e.to_string()))
        }
    }
}

/// `GET /rulesets` — every rule, any status.
fn list_rules(state: &ServerState) -> Response {
    let rules = state.app.rules.full_snapshot();
    let body = obj([
        ("count", Json::from(rules.len() as u64)),
        ("revision", Json::from(state.app.rules.revision())),
        ("rules", Json::Arr(rules.iter().map(rule_to_json).collect())),
    ]);
    Response::json(200, body.render())
}

/// `GET /rulesets/{id}`.
fn get_rule(state: &ServerState, id: u64) -> Response {
    match state.app.rules.get(RuleId(id)) {
        Some(rule) => Response::json(200, rule_to_json(&rule).render()),
        None => Response::json(404, error_json(&format!("no rule {id}"))),
    }
}

/// Followers mirror the leader's WAL; a locally-applied edit would fork
/// their catalog, so mutation routes answer 409 and name the write target.
fn reject_non_leader_write(state: &ServerState) -> Option<Response> {
    match &state.app.replication {
        Some(repl) if !repl.accepts_writes() => Some(Response::json(
            409,
            error_json(&format!(
                "this node is a {} ({}); rule writes go to the leader",
                repl.role(),
                repl.state()
            )),
        )),
        _ => None,
    }
}

/// `DELETE /rulesets/{id}` — durable apps WAL-log the removal first.
fn delete_rule(state: &ServerState, id: u64) -> Response {
    if let Some(resp) = reject_non_leader_write(state) {
        return resp;
    }
    match state.app.remove_rule(RuleId(id), "removed via api") {
        Ok(true) => {
            let body = obj([("removed", Json::from(true)), ("id", Json::from(id))]);
            Response::json(200, body.render())
        }
        Ok(false) => Response::json(404, error_json(&format!("no rule {id}"))),
        Err(e) => store_error_response(&e),
    }
}

/// `GET /health` — liveness plus the overload signals an operator (or load
/// balancer) keys on: snapshot version, degradation state, per-shard queue
/// depths, and — on replicated nodes — the replication role block a front
/// tier keys staleness routing on.
fn health(state: &ServerState) -> Response {
    let service = &state.app.service;
    let status = if state.is_draining() {
        "draining"
    } else if service.is_degraded() {
        "degraded"
    } else {
        "ok"
    };
    let shard_depths: Vec<Json> =
        service.service_metrics().shard_depths().into_iter().map(|d| Json::Num(d as f64)).collect();
    let mut fields = vec![
        ("status", Json::from(status)),
        ("snapshot_version", Json::from(service.snapshot_version())),
        ("snapshot_swaps", Json::from(service.swap_count())),
        ("degraded", Json::from(service.is_degraded())),
        ("degradation", Json::from(if service.is_degraded() { "rules_only" } else { "none" })),
        ("queue_depth", Json::from(service.queue_depth() as u64)),
        ("shard_queue_depths", Json::Arr(shard_depths)),
        ("rules", Json::from(state.app.rules.len() as u64)),
        // Hex-rendered: JSON numbers are f64 and would round a u64 digest.
        ("catalog_hash", Json::from(state.catalog_hash_hex())),
    ];
    if let Some(repl) = &state.app.replication {
        let (last_applied, leader_seq) = (repl.last_applied(), repl.leader_seq());
        fields.push((
            "replication",
            obj([
                ("role", Json::from(repl.role())),
                ("state", Json::from(repl.state())),
                ("last_applied_seq", Json::from(last_applied)),
                ("leader_seq", Json::from(leader_seq)),
                ("seq_delta", Json::from(leader_seq.saturating_sub(last_applied))),
                ("epoch", Json::from(repl.epoch())),
                ("accepts_writes", Json::from(repl.accepts_writes())),
            ]),
        ));
    }
    Response::json(200, obj(fields).render())
}

/// `GET /metrics` — the shared registry's Prometheus text exposition.
fn metrics(state: &ServerState) -> Response {
    Response::text(200, state.app.registry.render_text())
}
