//! Differential suite for the fact-inference tier: with it disabled — or
//! enabled but with no `infer:` rules loaded — every decision on a generated
//! catalog must be bit-identical to the pipeline without the tier. A second
//! half proves the positive direction: derived facts are ordinary
//! attributes, visible to expression rules and attribute/value rules, live
//! and through serving snapshots.

use rulekit_chimera::{Chimera, ChimeraConfig, Decision};
use rulekit_data::{CatalogGenerator, LabeledCorpus, Product, Taxonomy, VendorId};

const RULES: &str = "rings? -> rings\n\
                     attr(ISBN) -> books\n\
                     laptop (bag|case|sleeve)s? -> NOT laptop computers\n\
                     rule: price < 5 && title ~ /tower/ => NOT desktop computers\n";

fn pipeline(cfg: ChimeraConfig, train: bool) -> Chimera {
    let tax = Taxonomy::builtin();
    let mut chimera = Chimera::new(tax.clone(), cfg);
    if train {
        let mut g = CatalogGenerator::with_seed(tax, 7);
        let corpus = LabeledCorpus::generate(&mut g, 1500);
        chimera.train(corpus.items());
    }
    chimera.add_rules(RULES).unwrap();
    chimera
}

fn catalog(n: usize) -> Vec<Product> {
    let mut g = CatalogGenerator::with_seed(Taxonomy::builtin(), 0xE7);
    g.generate(n).into_iter().map(|i| i.product).collect()
}

fn decisions(chimera: &Chimera, products: &[Product]) -> Vec<Decision> {
    products.iter().map(|p| chimera.classify(p)).collect()
}

/// Tier disabled ⇒ zero drift, even with infer rules loaded: the baseline
/// pipeline (no tier, no infer rules) and a pipeline carrying infer rules
/// behind a disabled flag decide every product identically.
#[test]
fn disabled_tier_is_bit_identical_to_baseline() {
    let baseline = pipeline(ChimeraConfig { infer_enabled: false, ..Default::default() }, true);
    let with_rules = pipeline(ChimeraConfig { infer_enabled: false, ..Default::default() }, true);
    with_rules
        .add_rules(
            "infer: has(isbn) => fact media = book\ninfer: media == \"book\" => fact aisle = 3\n",
        )
        .unwrap();

    let products = catalog(300);
    assert_eq!(decisions(&baseline, &products), decisions(&with_rules, &products));
}

/// Tier enabled but no infer rules loaded ⇒ the tier is inert: decisions
/// match a tier-off pipeline bit for bit (the `agg()`/augmentation
/// machinery costs nothing semantically until rules arrive).
#[test]
fn enabled_tier_without_rules_is_inert() {
    let off = pipeline(ChimeraConfig { infer_enabled: false, ..Default::default() }, true);
    let on = pipeline(ChimeraConfig { infer_enabled: true, ..Default::default() }, true);

    let products = catalog(300);
    let off_d = decisions(&off, &products);
    assert_eq!(off_d, decisions(&on, &products));
    // Batch path takes the same tier branch.
    assert_eq!(off_d, on.classify_batch(&products));
}

/// Derived facts are referenceable from every rule form — expression,
/// attr(), value() — and the decision flips when the tier is switched off.
#[test]
fn derived_facts_reach_every_rule_form() {
    let tax = Taxonomy::builtin();
    let books = tax.id_of("books").unwrap();
    for rule in
        ["rule: media == \"book\" => books", "attr(media) -> books", "value(media = book) -> books"]
    {
        let on = Chimera::new(tax.clone(), ChimeraConfig::default());
        on.add_rules(&format!("infer: has(isbn) => fact media = book\n{rule}\n")).unwrap();
        let off =
            Chimera::new(tax.clone(), ChimeraConfig { infer_enabled: false, ..Default::default() });
        off.add_rules(&format!("infer: has(isbn) => fact media = book\n{rule}\n")).unwrap();

        let p = Product {
            id: 1,
            title: "untitled item".into(),
            description: String::new(),
            attributes: vec![("ISBN".into(), "9781234567890".into())],
            vendor: VendorId(3),
        };
        assert_eq!(on.classify(&p).type_id(), Some(books), "rule form: {rule}");
        assert_eq!(off.classify(&p).type_id(), None, "tier off must not derive: {rule}");
    }
}

/// Serving snapshots run the identical inference stage: frozen decisions
/// match the live pipeline on a catalog, with infer rules loaded.
#[test]
fn snapshot_matches_live_pipeline_with_inference() {
    let chimera = pipeline(ChimeraConfig::default(), true);
    chimera
        .add_rules("infer: has(isbn) => fact media = book\nrule: media == \"book\" => books\n")
        .unwrap();
    let snap = chimera.snapshot();
    for p in catalog(150) {
        assert_eq!(chimera.classify(&p), snap.classify(&p).decision, "on {:?}", p.title);
    }
}

/// Streaming aggregates feed expression rules: an `agg()`-gated rule is
/// inert while the series is unregistered (Missing), fires once the
/// observed rate crosses its threshold, and stays inert with the tier off.
#[test]
fn aggregate_gated_rules_follow_the_stream() {
    let tax = Taxonomy::builtin();
    let books = tax.id_of("books").unwrap();
    let chimera = Chimera::new(tax.clone(), ChimeraConfig::default());
    chimera.add_rules("rule: agg(\"vendor_mismatch_rate\") > 0.5 && has(isbn) => books\n").unwrap();
    let p = Product {
        id: 9,
        title: "mystery".into(),
        description: String::new(),
        attributes: vec![("ISBN".into(), "978".into())],
        vendor: VendorId(0),
    };
    // Unregistered series → Missing → the rule cannot fire.
    assert_eq!(chimera.classify(&p).type_id(), None);
    // Observe a 90% mismatch rate; the same rule now fires.
    let rate = chimera.aggregates().ratio("vendor_mismatch_rate");
    for i in 0..10 {
        rate.record(i != 0);
    }
    assert_eq!(chimera.classify(&p).type_id(), Some(books));

    // Tier off: the store is not attached, so the rule stays inert no
    // matter what the series says.
    let off = Chimera::new(tax, ChimeraConfig { infer_enabled: false, ..Default::default() });
    off.add_rules("rule: agg(\"vendor_mismatch_rate\") > 0.5 && has(isbn) => books\n").unwrap();
    for _ in 0..10 {
        off.aggregates().ratio("vendor_mismatch_rate").record(true);
    }
    assert_eq!(off.classify(&p).type_id(), None);
}

/// `rulekit_infer_*` metrics move exactly when the tier does work.
#[test]
fn infer_metrics_count_tier_activity() {
    let chimera = Chimera::new(Taxonomy::builtin(), ChimeraConfig::default());
    chimera
        .add_rules(
            "infer: has(isbn) => fact media = book\ninfer: media == \"book\" => fact aisle = 3\n",
        )
        .unwrap();
    let p = Product {
        id: 2,
        title: "x".into(),
        description: String::new(),
        attributes: vec![("ISBN".into(), "978".into())],
        vendor: VendorId(0),
    };
    chimera.classify(&p);
    let text = chimera.metrics().registry().render_text();
    assert!(text.contains("rulekit_infer_products_total 1"), "missing products count:\n{text}");
    assert!(text.contains("rulekit_infer_facts_total 2"), "missing facts count:\n{text}");
}
