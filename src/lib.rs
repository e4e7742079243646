//! # rulekit
//!
//! A rule-management toolkit for semantics-intensive Big Data systems — a
//! full reproduction of *"Why Big Data Industrial Systems Need Rules and
//! What We Can Do About It"* (SIGMOD 2015).
//!
//! The paper's thesis: industrial classification/IE/EM systems live and die
//! by hand-crafted rules used *alongside* learning and crowdsourcing, and
//! the tens of thousands of rules they accumulate need real management
//! machinery — generation, evaluation, execution, optimization, and
//! maintenance. `rulekit` builds that machinery, plus every substrate it
//! needs, from scratch:
//!
//! | Module | Contents |
//! |---|---|
//! | [`regex`] | From-scratch regex engine (parser → NFA → Pike VM) with required-literal analysis and containment |
//! | [`text`] | Tokenization, TF/IDF, similarity, Rocchio feedback |
//! | [`data`] | Synthetic product catalog, vendors, batch streams, concept drift |
//! | [`crowd`] | Simulated crowdsourcing with worker noise and budgets |
//! | [`learn`] | NB / k-NN / centroid / perceptron classifiers + voting ensemble |
//! | [`obs`] | Metrics registry, wait-free counters & latency histograms, span timers, text exposition |
//! | [`core`] | Rule model & DSL, repository, the literal-scan execution engine and its naive oracle, property audits |
//! | [`gen`] | §5.1 synonym finder and §5.2 rule generation (Algorithms 1–2) |
//! | [`eval`] | §4 rule-quality evaluation methods with crowd-cost accounting |
//! | [`maint`] | Subsumption, overlap, imprecision, drift monitoring |
//! | [`chimera`] | The Figure 2 pipeline end to end, with QA loop and scale-down |
//! | [`serve`] | Sharded serving tier: hot snapshot swaps, backpressure, degradation, metrics |
//! | [`store`] | Durable rule repository: write-ahead log, checkpoints, crash recovery, fault injection |
//! | [`net`] | TCP/HTTP front-end: hardened HTTP/1.1 codec, JSON wire protocol, classify + rule CRUD + health + metrics routes |
//! | [`em`] | §6 entity matching: predicates, semantics, blocking |
//! | [`ie`] | §6 information extraction: dictionaries, regex extractors |
//!
//! ## Quickstart
//!
//! ```
//! use rulekit::data::{CatalogGenerator, Taxonomy};
//! use rulekit::chimera::{Chimera, ChimeraConfig};
//!
//! let taxonomy = Taxonomy::builtin();
//! let mut generator = CatalogGenerator::with_seed(taxonomy.clone(), 7);
//!
//! // A Chimera pipeline with a couple of analyst rules.
//! let mut chimera = Chimera::new(taxonomy.clone(), ChimeraConfig::default());
//! chimera.train(&generator.generate(2000));
//! chimera.add_rules("rings? -> rings\nattr(ISBN) -> books").unwrap();
//!
//! let item = generator.generate_for_type(taxonomy.id_of("rings").unwrap());
//! let decision = chimera.classify(&item.product);
//! assert_eq!(decision.type_id(), Some(item.truth));
//! ```

#![forbid(unsafe_code)]

pub use rulekit_chimera as chimera;
pub use rulekit_core as core;
pub use rulekit_crowd as crowd;
pub use rulekit_data as data;
pub use rulekit_em as em;
pub use rulekit_eval as eval;
pub use rulekit_gen as gen;
pub use rulekit_ie as ie;
pub use rulekit_learn as learn;
pub use rulekit_maint as maint;
pub use rulekit_net as net;
pub use rulekit_obs as obs;
pub use rulekit_regex as regex;
pub use rulekit_serve as serve;
pub use rulekit_store as store;
pub use rulekit_text as text;
