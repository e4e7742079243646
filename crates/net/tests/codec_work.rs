//! Allocation guards for the `/classify` codec: the heap blocks one request
//! decode and one reply encode cost, counted on the calling thread, and the
//! exact bytes both ends put on the wire.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::tally;
use rulekit_chimera::Decision;
use rulekit_data::Taxonomy;
use rulekit_net::wire::{outcome_to_json, product_from_json};
use rulekit_net::{Json, Method, Request, Response};
use rulekit_serve::ClassifyOutcome;
use std::time::Duration;

/// `/classify` bodies as the benchmark's traffic generator writes them
/// (id, title, description, vendor, attributes), with their attribute
/// counts: the median body (294 bytes) and a four-attribute one.
const REQUESTS: [(&str, usize); 2] = [
    (
        r#"{"id":1000036,"title":"DeWalt ivory sanding grinding sanding disc 6 count","description":"Meet the DeWalt twisted knot abrasive wheel. Crafted with polyester for everyday use. Backed by the DeWalt quality promise.","vendor":0,"attributes":{"Brand Name":"DeWalt","Size":"medium","Price":"5.30"}}"#,
        3,
    ),
    (
        r#"{"id":1000000,"title":"Meridian midi floral wrap dresses 34x32","description":"Enjoy the Meridian wrap sundress. Crafted with leather for everyday use. Backed by the Meridian quality promise.","vendor":0,"attributes":{"Brand Name":"Meridian","Size":"medium","Color":"pink","Price":"81.82"}}"#,
        4,
    ),
];

/// A classified outcome with these explanation lines.
fn outcome(explanation: Vec<String>) -> ClassifyOutcome {
    ClassifyOutcome {
        decision: Decision::Classified {
            ty: Taxonomy::builtin().id_of("rings").unwrap(),
            confidence: 0.93,
            explanation,
        },
        candidates: 31,
        degraded: false,
        snapshot_version: 12,
        latency: Duration::from_micros(87),
    }
}

/// Renders and serializes `outcome` as the server answers it.
fn reply(outcome: &ClassifyOutcome, taxonomy: &Taxonomy) -> Vec<u8> {
    Response::json(200, outcome_to_json(outcome, taxonomy).render()).serialize()
}

/// Every string in the body costs one block however long it is, every
/// owned product field one more, and the two member vectors three: 13 +
/// 4 per attribute, 25 on the median body. The per-character scan this
/// replaced grew each string by doubling (35 on the median body).
#[test]
fn a_request_decodes_with_one_block_per_string() {
    for (body, attributes) in REQUESTS {
        let (t, product) = tally(|| {
            let doc = Json::parse(body.as_bytes()).unwrap();
            product_from_json(&doc).unwrap()
        });
        assert_eq!(product.attributes.len(), attributes);
        let bound = 13 + 4 * attributes as u64;
        assert!(t.allocs <= bound, "{} allocations for {attributes} attributes", t.allocs);
    }
}

/// Building, rendering and serializing a 25-explanation reply: 55 blocks
/// when every number went through `format!`, `render` grew its string by
/// doubling and the response head was three `format!`s.
#[test]
fn a_reply_encodes_in_at_most_45_blocks() {
    let taxonomy = Taxonomy::builtin();
    let outcome = outcome((0..25).map(|i| format!("whitelist rule#{} voted", 1000 + i)).collect());
    let (t, bytes) = tally(|| reply(&outcome, &taxonomy));
    assert!(t.allocs <= 45, "{} allocations", t.allocs);
    assert!(bytes.ends_with(b"\"snapshot_version\":12,\"latency_us\":87}"));
}

#[test]
fn reply_and_request_bytes_are_pinned() {
    let taxonomy = Taxonomy::builtin();
    let lines = ["plain", "quote \" slash \\ nl \n tab \t cr \r", "ctl \u{1}\u{1f} é 日 😀"];
    let bytes = reply(&outcome(lines.iter().map(|s| s.to_string()).collect()), &taxonomy);
    let expected = concat!(
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 212\r\n\r\n",
        r#"{"decision":{"type":"rings","confidence":0.93,"explanation":["plain","#,
        r#""quote \" slash \\ nl \n tab \t cr \r","ctl \u0001\u001f é 日 😀"]},"#,
        r#""candidates":31,"degraded":false,"snapshot_version":12,"latency_us":87}"#,
    );
    assert_eq!(String::from_utf8(bytes).unwrap(), expected);

    let mut resp = Response::json(503, "{}".to_string());
    resp.close = true;
    assert_eq!(
        resp.serialize(),
        b"HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}"
    );
    let mut buf = b"earlier".to_vec();
    resp.serialize_into(&mut buf);
    assert_eq!(buf, [&b"earlier"[..], &resp.serialize()].concat(), "appends");

    let req = Request {
        method: Method::Post,
        path: "/classify".to_string(),
        query: "trace=1".to_string(),
        headers: vec![("host".to_string(), "rulekit".to_string())],
        body: b"{}".to_vec(),
        keep_alive: false,
    };
    assert_eq!(
        req.serialize(),
        b"POST /classify?trace=1 HTTP/1.1\r\nhost: rulekit\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}"
    );
}
