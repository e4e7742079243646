//! # rulekit-text
//!
//! Text-processing substrate for rulekit: tokenization and normalization,
//! sparse TF/IDF vectors, q-gram and set similarity, and Rocchio relevance
//! feedback. These are the text primitives the SIGMOD'15 paper's tools are
//! built from — the §5.1 synonym finder ranks candidates by TF/IDF context
//! cosine and re-ranks with Rocchio; the §6 entity-matching rules use
//! 3-gram Jaccard; §5.2 mining tokenizes titles with stop-word removal.

#![forbid(unsafe_code)]

pub mod ngram;
pub mod rocchio;
pub mod similarity;
pub mod tfidf;
pub mod tokenize;
pub mod vector;

pub use ngram::{char_qgram_set, char_qgrams, qgram_jaccard, token_ngrams};
pub use rocchio::{rocchio_update, RocchioWeights};
pub use similarity::{
    dice, jaccard, levenshtein, levenshtein_similarity, overlap_coefficient, token_jaccard,
};
pub use tfidf::{FrozenTfIdf, TfIdf, WeightedQuery};
pub use tokenize::{normalize_title, Token, Tokenizer, DEFAULT_STOPWORDS};
pub use vector::{SparseVector, Vocabulary};
