//! # rulekit-ie
//!
//! The §6 information-extraction substrate: dictionary-based brand
//! extraction with approximate matching and context patterns, regex
//! extractors for weights/sizes/colors, value-normalization rules ("IBM
//! Inc." → "IBM Corporation"), and an evaluated end-to-end pipeline.

#![forbid(unsafe_code)]

pub mod brand;
pub mod extract;
pub mod normalize;
pub mod pipeline;

pub use brand::{BrandDictionary, ContextPattern};
pub use extract::{extract_all, standard_rules, Extraction, ExtractionRule};
pub use normalize::Normalizer;
pub use pipeline::{evaluate_brand, BrandEvalReport, IePipeline};
