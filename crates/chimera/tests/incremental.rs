//! Incremental snapshot builds against builds from scratch.
//!
//! A served `PipelineSnapshot` is built from the repositories' shared rule
//! entries, so every rebuild reuses the compiled form of every rule an edit
//! did not touch. These tests hold that reuse to two contracts:
//!
//! * a snapshot is labelled with exactly the revisions its rules are at,
//!   even while another thread edits;
//! * after any sequence of edits the served snapshot decides every product
//!   exactly as a pipeline compiled from nothing does. The oracle re-parses
//!   every rule from its source text, so it shares no compiled state with the
//!   pipeline under test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rulekit_chimera::{Chimera, ChimeraConfig, Decision, PipelineSnapshot};
use rulekit_core::{Dictionary, Rule, RuleId, RuleMeta, RuleParser};
use rulekit_data::{Product, Taxonomy, VendorId};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn product(title: &str, attrs: &[(&str, &str)]) -> Product {
    Product {
        id: 0,
        title: title.into(),
        description: String::new(),
        attributes: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        vendor: VendorId(0),
    }
}

#[test]
fn a_snapshot_is_labelled_with_the_revision_its_rules_are_at() {
    const SNAPSHOTS: usize = 1_000;
    // Few distinct patterns, so a build stays cheap as the store grows.
    const LINES: [&str; 4] =
        ["rings? -> rings", "sofas? -> sofas", "attr(ISBN) -> books", "jeans? -> NOT shorts"];
    let chimera = Chimera::new(Taxonomy::builtin(), ChimeraConfig::default());
    let specs: Vec<_> =
        LINES.iter().map(|l| chimera.parser().parse_rule(l).expect("parses")).collect();
    let (added, taken) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let done = AtomicBool::new(false);
    let mut mislabelled = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Every add moves the main store's revision by one. The writer
            // runs unsynchronised, so adds land anywhere inside a build, but
            // stays at most 32 adds ahead so the store stays small.
            while !done.load(Ordering::SeqCst) {
                let n = added.load(Ordering::SeqCst);
                if n > taken.load(Ordering::SeqCst) + 32 {
                    std::thread::yield_now();
                    continue;
                }
                chimera.rules.add(specs[n % specs.len()].clone(), RuleMeta::default());
                added.store(n + 1, Ordering::SeqCst);
            }
        });
        for i in 0..SNAPSHOTS {
            // Each snapshot comes after at least one more add, so every one
            // races a writer that is still going.
            while added.load(Ordering::SeqCst) <= i {
                std::thread::yield_now();
            }
            let snapshot = chimera.snapshot();
            let (gate_rev, rule_rev) = snapshot.revisions();
            assert_eq!(gate_rev, 0, "nothing edits the gate store");
            // Only adds happen, so revision r holds exactly r rules.
            if snapshot.rule_count() as u64 != rule_rev {
                mislabelled.push((i, rule_rev, snapshot.rule_count()));
            }
            taken.fetch_add(1, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
    });
    assert!(
        mislabelled.is_empty(),
        "{} of {SNAPSHOTS} snapshots hold rules their label does not; first (snapshot, revision, rules): {:?}",
        mislabelled.len(),
        &mislabelled[..mislabelled.len().min(5)],
    );
}

/// Types the random edits assign, forbid and toggle.
const TYPES: [&str; 4] = ["rings", "books", "televisions", "area rugs"];

/// A pipeline under random edits, with the products every step checks.
struct Edited {
    chimera: Chimera,
    rng: StdRng,
    /// One unique title token per added rule, oldest first.
    tokens: Vec<String>,
    /// Main-store rules added so far (some since removed).
    ids: Vec<RuleId>,
    /// Main-store state saved for the one `restore`.
    saved: Option<(Vec<Rule>, u64, u64)>,
}

impl Edited {
    fn new(seed: u64, cfg: ChimeraConfig) -> Edited {
        let mut chimera = Chimera::new(Taxonomy::builtin(), cfg);
        let tax = chimera.taxonomy().clone();
        let ids = chimera
            .add_rules(
                "rings? -> rings\nsofas? -> sofas\ngizmos? -> televisions\n\
                 infer: has(isbn) => fact media = book\n",
            )
            .expect("fixed rules parse");
        // A derived fact is the gate's only trigger, and one type is scaled
        // down (its rules disabled, its predictions declined).
        chimera.add_gate_rules("attr(media) -> books").expect("gate rule parses");
        chimera.scale_down(tax.id_of("sofas").expect("builtin type"), "suppressed for the test");
        Edited { chimera, rng: StdRng::seed_from_u64(seed), tokens: Vec::new(), ids, saved: None }
    }

    fn random_type(&mut self) -> &'static str {
        TYPES[self.rng.gen_range(0..TYPES.len())]
    }

    fn random_id(&mut self) -> RuleId {
        self.ids[self.rng.gen_range(0..self.ids.len())]
    }

    /// Adds one line to the main store under a fresh token.
    fn add(&mut self, line: impl FnOnce(&str, &str) -> String) {
        let token = format!("tok{}q", self.tokens.len());
        let ty = self.random_type();
        let ids = self.chimera.add_rules(&line(&token, ty)).expect("generated rule parses");
        self.ids.extend(ids);
        self.tokens.push(token);
    }

    /// One random edit.
    fn step(&mut self) {
        match self.rng.gen_range(0..10) {
            0 => self.add(|t, ty| format!("{t}s? -> {ty}")),
            1 => self.add(|t, _| format!("{t} -> NOT televisions")),
            2 => self.add(|t, ty| format!("rule: title ~ /{t}/ && price < 50 => {ty}")),
            3 => {
                // Same-type dictionary blacklists, each over a dictionary
                // registered after the rules before it were compiled.
                let name = format!("dict{}", self.tokens.len());
                let token = format!("tok{}q", self.tokens.len());
                self.chimera.parser_mut().register_dictionary(Dictionary::new(&name, [&token]));
                self.add(|_, _| format!("dict({name}) -> NOT televisions"));
            }
            4 => self.add(|t, _| format!("infer: title ~ /{t}/ => fact media = book")),
            5 => {
                let token = format!("tok{}q", self.tokens.len());
                let ty = self.random_type();
                self.chimera.add_gate_rules(&format!("{token} -> {ty}")).expect("gate rule parses");
                self.tokens.push(token);
            }
            6 => {
                let id = self.random_id();
                self.chimera.rules.disable(id, "random edit");
            }
            7 => {
                let id = self.random_id();
                self.chimera.rules.enable(id);
            }
            8 => {
                let id = self.random_id();
                self.chimera.rules.remove(id, "random edit");
            }
            _ => {
                let name = self.random_type();
                let ty = self.chimera.taxonomy().id_of(name).expect("builtin type");
                if self.rng.gen_bool(0.5) {
                    self.chimera.rules.disable_type(ty, "random edit");
                } else {
                    self.chimera.rules.enable_type(ty);
                }
            }
        }
    }

    fn save(&mut self) {
        let rules = &self.chimera.rules;
        self.saved = Some((rules.full_snapshot(), rules.next_rule_id(), rules.revision()));
    }

    /// Replaces the main store with the saved state: every entry is new.
    fn restore(&mut self) {
        let (rules, next_id, revision) = self.saved.take().expect("state saved first");
        self.chimera.rules.restore(rules, next_id, revision);
    }

    /// The products every step decides: a gate short-circuit on a derived
    /// fact, a plain whitelist hit, a scaled-down type, and for every token
    /// so far a product only that token's rule matches, alone and beside a
    /// whitelist hit (so a blacklist shows).
    fn products(&self) -> Vec<Product> {
        let price = [("Price", "20")];
        let mut products = vec![
            product("hardcover novel", &[("ISBN", "9781111111111")]),
            product("diamond ring", &[]),
            product("leather sofa", &[]),
            product("gizmo", &price),
        ];
        for token in &self.tokens {
            products.push(product(&format!("{token} item"), &price));
            products.push(product(&format!("{token} gizmo"), &price));
        }
        products
    }

    /// A pipeline compiled from nothing at the current state: the same
    /// parser (dictionaries), suppressions and stores, every rule re-parsed
    /// from its source.
    fn scratch_build(&self, cfg: &ChimeraConfig) -> Chimera {
        let mut fresh = Chimera::new(self.chimera.taxonomy().clone(), cfg.clone());
        *fresh.parser_mut() = self.chimera.parser().clone();
        for ty in self.chimera.suppressed_types() {
            fresh.scale_down(ty, "suppressed for the test");
        }
        let parser = fresh.parser().clone();
        for (from, to) in
            [(&self.chimera.rules, &fresh.rules), (&self.chimera.gate_rules, &fresh.gate_rules)]
        {
            let rules = from.full_snapshot().into_iter().map(|r| reparsed(&parser, r)).collect();
            to.restore(rules, from.next_rule_id(), from.revision());
        }
        fresh
    }
}

fn reparsed(parser: &RuleParser, rule: Rule) -> Rule {
    let spec = parser.parse_rule(&rule.source).expect("stored source parses");
    Rule {
        id: rule.id,
        condition: spec.condition,
        action: spec.action,
        meta: rule.meta,
        source: rule.source,
    }
}

fn decisions(snapshot: &PipelineSnapshot, products: &[Product]) -> Vec<Decision> {
    products.iter().map(|p| snapshot.classify(p).decision).collect()
}

/// Applies seeded random edit sequences, checking after every step that the
/// served snapshot decides like one compiled from scratch.
#[test]
fn incremental_build_equals_from_scratch() {
    const STEPS: usize = 45;
    let cfg = ChimeraConfig { threads: 1, ..Default::default() };
    // (gate short-circuits, other classifications, declines) seen, so the
    // check cannot pass by every answer being the same.
    let mut seen = (0, 0, 0);
    for seed in 1..=4 {
        let mut edited = Edited::new(seed, cfg.clone());
        for step in 0..STEPS {
            if step == STEPS / 3 {
                edited.save();
            }
            if step == 2 * STEPS / 3 {
                edited.restore();
            } else {
                edited.step();
            }
            let served = edited.chimera.snapshot();
            assert_eq!(
                served.revisions(),
                (edited.chimera.gate_rules.revision(), edited.chimera.rules.revision())
            );
            let products = edited.products();
            let expected = decisions(&edited.scratch_build(&cfg).snapshot(), &products);
            let got = decisions(&served, &products);
            for ((p, want), got) in products.iter().zip(&expected).zip(&got) {
                assert_eq!(got, want, "seed {seed}, step {step}: {:?}", p.title);
                match got {
                    Decision::Classified { explanation, .. } if explanation[0].contains("gate") => {
                        seen.0 += 1
                    }
                    Decision::Classified { .. } => seen.1 += 1,
                    Decision::Declined { .. } => seen.2 += 1,
                }
            }
        }
    }
    assert!(seen.0 > 0 && seen.1 > 0 && seen.2 > 0, "(gate, classified, declined) = {seen:?}");
}
