//! # rulekit-data
//!
//! Synthetic product-catalog substrate standing in for the WalmartLabs feed
//! the SIGMOD'15 paper was built on: a ~110-type taxonomy with qualifier
//! pools and alternate (drift) vocabulary, a deterministic seeded product
//! generator, vendor dialect profiles, an irregular batch stream with
//! scheduled concept-drift events, and labeled-corpus helpers.
//!
//! The generated data reproduces the *structural* properties the paper's
//! algorithms depend on: token-level title structure (brand + qualifiers +
//! head noun + noise), Zipf head/tail type skew, attribute schemas (ISBN on
//! books…), confusable type pairs, and ever-changing vendor vocabulary.

#![forbid(unsafe_code)]

pub mod catalog_data;
pub mod generator;
pub mod labeled;
pub mod product;
pub mod stream;
pub mod taxonomy;
pub mod vendor;
pub mod vocab;

pub use generator::{CatalogGenerator, GeneratorConfig};
pub use labeled::LabeledCorpus;
pub use product::{GeneratedItem, Product, VendorId};
pub use stream::{Batch, BatchStream, DriftEvent, StreamConfig};
pub use taxonomy::{pluralize, AttrKind, ProductTypeDef, Taxonomy, TypeId};
pub use vendor::{VendorPool, VendorProfile};
