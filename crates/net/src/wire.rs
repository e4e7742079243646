//! JSON ⇄ domain-type mapping for the wire protocol: products in, rules and
//! classification outcomes out. Kept separate from the handlers so the
//! shapes are testable without a socket.

use crate::json::{obj, Json};
use rulekit_chimera::Decision;
use rulekit_core::{Provenance, Rule};
use rulekit_data::{Product, Taxonomy, VendorId};
use rulekit_serve::ClassifyOutcome;

/// Decodes a product from its wire object:
///
/// ```json
/// {"id": 9206544, "title": "Mainstays ivory tufted area rug 5'x7'",
///  "description": "…", "vendor": 3,
///  "attributes": {"Brand Name": "Mainstays", "Color": "ivory"}}
/// ```
///
/// `title` is required (it is what rules run against); everything else
/// defaults. The Figure 1 field spellings (`Item ID`, `Title`) are accepted
/// as aliases so a captured feed line can be replayed verbatim.
pub fn product_from_json(v: &Json) -> Result<Product, String> {
    let Json::Obj(_) = v else { return Err("product must be a JSON object".to_string()) };
    let title = v
        .get("title")
        .or_else(|| v.get("Title"))
        .and_then(Json::as_str)
        .ok_or_else(|| "product needs a string \"title\"".to_string())?;
    let id = match v.get("id").or_else(|| v.get("Item ID")) {
        Some(n) => n.as_u64().ok_or_else(|| "\"id\" must be a non-negative integer".to_string())?,
        None => 0,
    };
    let description = v
        .get("description")
        .or_else(|| v.get("Description"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let vendor = match v.get("vendor") {
        Some(n) => {
            let n = n.as_u64().ok_or_else(|| "\"vendor\" must be an integer".to_string())?;
            VendorId(u32::try_from(n).map_err(|_| "\"vendor\" out of range".to_string())?)
        }
        None => VendorId(0),
    };
    let attributes = match v.get("attributes") {
        None => Vec::new(),
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| match v {
                Json::Str(s) => Ok((k.clone(), s.clone())),
                Json::Num(n) => Ok((k.clone(), Json::Num(*n).render())),
                Json::Bool(b) => Ok((k.clone(), b.to_string())),
                _ => Err(format!("attribute {k:?} must be a string, number, or bool")),
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err("\"attributes\" must be an object".to_string()),
    };
    Ok(Product { id, title: title.to_string(), description, attributes, vendor })
}

/// Encodes a decision: `{"type": "rugs", "confidence": 0.93,
/// "explanation": […]}` or `{"declined": "reason"}`.
pub fn decision_to_json(decision: &Decision, taxonomy: &Taxonomy) -> Json {
    match decision {
        Decision::Classified { ty, confidence, explanation } => obj([
            ("type", Json::from(taxonomy.name(*ty))),
            ("confidence", Json::from(*confidence)),
            (
                "explanation",
                Json::Arr(explanation.iter().map(|e| Json::from(e.as_str())).collect()),
            ),
        ]),
        Decision::Declined { reason } => obj([("declined", Json::from(reason.as_str()))]),
    }
}

/// Encodes a served classification with its serving metadata.
pub fn outcome_to_json(outcome: &ClassifyOutcome, taxonomy: &Taxonomy) -> Json {
    obj([
        ("decision", decision_to_json(&outcome.decision, taxonomy)),
        ("candidates", Json::from(outcome.candidates as u64)),
        ("degraded", Json::from(outcome.degraded)),
        ("snapshot_version", Json::from(outcome.snapshot_version)),
        ("latency_us", Json::from(outcome.latency.as_micros().min(u64::MAX as u128) as u64)),
    ])
}

fn provenance_str(p: Provenance) -> &'static str {
    match p {
        Provenance::Analyst => "analyst",
        Provenance::Developer => "developer",
        Provenance::Mined => "mined",
        Provenance::Curation => "curation",
        Provenance::Crowd => "crowd",
    }
}

/// Encodes a rule for the CRUD surface: id, DSL source, status, and the
/// metadata analysts filter on.
pub fn rule_to_json(rule: &Rule) -> Json {
    obj([
        ("id", Json::from(rule.id.0)),
        ("source", Json::from(rule.source.as_str())),
        ("enabled", Json::from(rule.is_enabled())),
        ("author", Json::from(rule.meta.author.as_str())),
        ("provenance", Json::from(provenance_str(rule.meta.provenance))),
        ("confidence", Json::from(rule.meta.confidence)),
        ("added_at", Json::from(rule.meta.added_at)),
    ])
}

/// The uniform error body: `{"error": "…"}`.
pub fn error_json(message: &str) -> String {
    obj([("error", Json::from(message))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_decodes_with_defaults_and_aliases() {
        let v = Json::parse(br#"{"title": "gold ring"}"#).unwrap();
        let p = product_from_json(&v).unwrap();
        assert_eq!(p.title, "gold ring");
        assert_eq!(p.id, 0);
        assert!(p.attributes.is_empty());

        let v = Json::parse(
            br#"{"Item ID": 7, "Title": "tufted rug", "attributes": {"Color": "ivory", "Width": 5}, "vendor": 3}"#,
        )
        .unwrap();
        let p = product_from_json(&v).unwrap();
        assert_eq!(p.id, 7);
        assert_eq!(p.vendor, VendorId(3));
        assert_eq!(p.attr("color"), Some("ivory"));
        assert_eq!(p.attr("width"), Some("5"));
    }

    #[test]
    fn product_rejects_bad_shapes() {
        for bad in [
            r#"[1,2]"#,
            r#"{"id": 1}"#,
            r#"{"title": 5}"#,
            r#"{"title": "x", "vendor": "three"}"#,
            r#"{"title": "x", "attributes": [1]}"#,
            r#"{"title": "x", "attributes": {"k": [1]}}"#,
        ] {
            let v = Json::parse(bad.as_bytes()).unwrap();
            assert!(product_from_json(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn decision_and_error_shapes() {
        let taxonomy = Taxonomy::builtin();
        let ty = taxonomy.id_of("rings").unwrap();
        let d = Decision::Classified {
            ty,
            confidence: 0.9,
            explanation: vec!["rule#1 fired".to_string()],
        };
        let j = decision_to_json(&d, &taxonomy);
        assert_eq!(j.get("type").and_then(Json::as_str), Some("rings"));
        assert_eq!(j.get("confidence").and_then(Json::as_f64), Some(0.9));

        let d = Decision::Declined { reason: "low confidence".to_string() };
        let j = decision_to_json(&d, &taxonomy);
        assert_eq!(j.get("declined").and_then(Json::as_str), Some("low confidence"));

        assert_eq!(error_json("boom \"quoted\""), r#"{"error":"boom \"quoted\""}"#);
    }
}
