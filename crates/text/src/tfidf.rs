//! TF/IDF weighting (Salton & Buckley), exactly as the §5.1 synonym finder
//! uses it: `w(t, m) = tf(t, m) · idf(t)` with `idf(t) = ln(|M| / df(t))`.

use crate::vector::{SparseVector, Vocabulary};
use parking_lot::RwLock;
use std::sync::Arc;

/// Accumulates document frequencies, then weights token lists.
///
/// Thread-safe: weighting is read-only after fitting, and `Arc<TfIdf>` can be
/// shared across executor threads.
#[derive(Debug)]
pub struct TfIdf {
    vocab: RwLock<Vocabulary>,
    doc_freq: RwLock<Vec<u32>>,
    docs: RwLock<u64>,
}

impl Default for TfIdf {
    fn default() -> Self {
        TfIdf::new()
    }
}

impl TfIdf {
    /// Creates an empty model.
    pub fn new() -> Self {
        TfIdf {
            vocab: RwLock::new(Vocabulary::new()),
            doc_freq: RwLock::new(Vec::new()),
            docs: RwLock::new(0),
        }
    }

    /// Fits a model over an iterator of token lists.
    pub fn fit<'a, I, T>(corpus: I) -> Arc<TfIdf>
    where
        I: IntoIterator<Item = T>,
        T: IntoIterator<Item = &'a str>,
    {
        let model = TfIdf::new();
        for doc in corpus {
            model.observe(doc);
        }
        Arc::new(model)
    }

    /// Adds one document's tokens to the document-frequency counts.
    pub fn observe<'a>(&self, tokens: impl IntoIterator<Item = &'a str>) {
        let mut vocab = self.vocab.write();
        let mut df = self.doc_freq.write();
        let mut seen: Vec<u32> = tokens.into_iter().map(|t| vocab.intern(t)).collect();
        seen.sort_unstable();
        seen.dedup();
        for id in seen {
            if df.len() <= id as usize {
                df.resize(id as usize + 1, 0);
            }
            df[id as usize] += 1;
        }
        *self.docs.write() += 1;
    }

    /// Number of observed documents.
    pub fn doc_count(&self) -> u64 {
        *self.docs.read()
    }

    /// IDF of `term`: `ln(N / df)`. Unseen terms get the maximum IDF
    /// `ln(N + 1)` (they are maximally discriminative).
    pub fn idf(&self, term: &str) -> f64 {
        let n = (*self.docs.read()).max(1) as f64;
        match self.vocab.read().get(term) {
            Some(id) => {
                let df = self.doc_freq.read().get(id as usize).copied().unwrap_or(0);
                if df == 0 {
                    (n + 1.0).ln()
                } else {
                    (n / df as f64).ln()
                }
            }
            None => (n + 1.0).ln(),
        }
    }

    /// Document frequency of `term`.
    pub fn df(&self, term: &str) -> u32 {
        self.vocab
            .read()
            .get(term)
            .and_then(|id| self.doc_freq.read().get(id as usize).copied())
            .unwrap_or(0)
    }

    /// TF/IDF-weights a token list into a sparse vector. Unseen terms are
    /// interned (so repeated calls stay consistent) but keep df = 0.
    pub fn weigh<'a>(&self, tokens: impl IntoIterator<Item = &'a str>) -> SparseVector {
        let n = (*self.docs.read()).max(1) as f64;
        let mut vocab = self.vocab.write();
        let df = self.doc_freq.read();
        let ids: Vec<u32> = tokens.into_iter().map(|t| vocab.intern(t)).collect();
        let tf = SparseVector::term_frequencies(ids);
        let pairs = tf
            .entries()
            .iter()
            .map(|&(id, count)| {
                let d = df.get(id as usize).copied().unwrap_or(0);
                let idf = if d == 0 { (n + 1.0).ln() } else { (n / d as f64).ln() };
                (id, count * idf)
            })
            .collect();
        SparseVector::from_pairs(pairs)
    }

    /// Resolves a term id back to its string.
    pub fn term(&self, id: u32) -> Option<String> {
        self.vocab.read().term(id).map(str::to_string)
    }

    /// Resolves a term to its id, if seen.
    pub fn term_id(&self, term: &str) -> Option<u32> {
        self.vocab.read().get(term)
    }

    /// Snapshots the model for read-only weighting: the vocabulary as it is
    /// now and one precomputed IDF per term.
    pub fn freeze(&self) -> FrozenTfIdf {
        let n = (*self.docs.read()).max(1) as f64;
        let vocab = self.vocab.read().clone();
        let df = self.doc_freq.read();
        let unseen_idf = (n + 1.0).ln();
        let idf = (0..vocab.len())
            .map(|id| match df.get(id).copied().unwrap_or(0) {
                0 => unseen_idf,
                d => (n / d as f64).ln(),
            })
            .collect();
        FrozenTfIdf { vocab, idf, unseen_idf }
    }
}

/// A fitted model that can only be read: weighting takes no lock and interns
/// nothing, so serving traffic cannot grow or reorder the vocabulary.
#[derive(Debug)]
pub struct FrozenTfIdf {
    vocab: Vocabulary,
    idf: Vec<f64>,
    unseen_idf: f64,
}

impl FrozenTfIdf {
    /// Number of terms in the frozen vocabulary.
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// TF/IDF-weights `tokens` into `out`, reusing its buffers. Known terms
    /// get the weights [`TfIdf::weigh`] gives them, in ascending id order
    /// with zero weights dropped. Terms outside the vocabulary have no id;
    /// they add `tf · ln(N + 1)` each to the norm, after the known terms, in
    /// order of first occurrence.
    pub fn weigh_into<S: AsRef<str>>(&self, tokens: &[S], out: &mut WeightedQuery) {
        let WeightedQuery { entries, norm, ids, unseen } = out;
        entries.clear();
        ids.clear();
        unseen.clear();
        for (i, tok) in tokens.iter().enumerate() {
            match self.vocab.get(tok.as_ref()) {
                Some(id) => ids.push(id),
                None => match unseen
                    .iter_mut()
                    .find(|(first, _)| tokens[*first].as_ref() == tok.as_ref())
                {
                    Some((_, count)) => *count += 1.0,
                    None => unseen.push((i, 1.0)),
                },
            }
        }
        ids.sort_unstable();
        for &id in ids.iter() {
            match entries.last_mut() {
                Some((last, count)) if *last == id => *count += 1.0,
                _ => entries.push((id, 1.0)),
            }
        }
        for (id, w) in entries.iter_mut() {
            *w *= self.idf[*id as usize];
        }
        entries.retain(|&(_, w)| w != 0.0);
        let unseen_weights = unseen.iter().map(|&(_, count)| count * self.unseen_idf);
        *norm = entries
            .iter()
            .map(|&(_, w)| w)
            .chain(unseen_weights)
            .map(|w| w * w)
            .sum::<f64>()
            .sqrt();
    }
}

/// Output buffer of [`FrozenTfIdf::weigh_into`]; reusing one across calls
/// keeps weighting allocation-free.
#[derive(Debug, Default)]
pub struct WeightedQuery {
    entries: Vec<(u32, f64)>,
    norm: f64,
    ids: Vec<u32>,
    /// `(index of first occurrence in the token list, count)` per distinct
    /// out-of-vocabulary term.
    unseen: Vec<(usize, f64)>,
}

impl WeightedQuery {
    /// `(term id, weight)` of the known terms, ascending by id.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Euclidean norm over known and out-of-vocabulary terms.
    pub fn norm(&self) -> f64 {
        self.norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Arc<TfIdf> {
        TfIdf::fit([
            vec!["blue", "denim", "jeans"],
            vec!["black", "denim", "jeans"],
            vec!["blue", "area", "rug"],
            vec!["oriental", "area", "rug"],
        ])
    }

    #[test]
    fn doc_count_tracks_observations() {
        assert_eq!(model().doc_count(), 4);
    }

    #[test]
    fn df_counts_documents_not_occurrences() {
        let m = TfIdf::fit([vec!["a", "a", "b"], vec!["a"]]);
        assert_eq!(m.df("a"), 2);
        assert_eq!(m.df("b"), 1);
        assert_eq!(m.df("zzz"), 0);
    }

    #[test]
    fn idf_orders_rare_above_common() {
        let m = model();
        assert!(m.idf("oriental") > m.idf("denim"));
        assert!(m.idf("denim") > m.idf("jeans") - 1e-12); // equal df ⇒ equal idf
    }

    #[test]
    fn unseen_terms_get_max_idf() {
        let m = model();
        assert!(m.idf("cryptic") > m.idf("oriental"));
    }

    #[test]
    fn weigh_produces_tfidf_weights() {
        let m = model();
        let v = m.weigh(["denim", "denim", "jeans"]);
        let denim_id = m.term_id("denim").unwrap();
        let jeans_id = m.term_id("jeans").unwrap();
        let expected_denim = 2.0 * (4.0f64 / 2.0).ln();
        let expected_jeans = 1.0 * (4.0f64 / 2.0).ln();
        assert!((v.get(denim_id) - expected_denim).abs() < 1e-12);
        assert!((v.get(jeans_id) - expected_jeans).abs() < 1e-12);
    }

    #[test]
    fn weigh_interns_unseen_terms_consistently() {
        let m = model();
        let v1 = m.weigh(["novelword"]);
        let v2 = m.weigh(["novelword"]);
        assert_eq!(v1, v2);
        assert!(!v1.is_zero());
    }

    #[test]
    fn common_everywhere_term_gets_zero_idf() {
        let m = TfIdf::fit([vec!["x", "a"], vec!["x", "b"]]);
        assert!(m.idf("x").abs() < 1e-12);
        let v = m.weigh(["x"]);
        assert!(v.is_zero()); // zero weights are pruned
    }

    #[test]
    fn frozen_weights_equal_weigh_and_intern_nothing() {
        let frozen = model().freeze();
        let mut q = WeightedQuery::default();
        for tokens in [
            vec!["denim", "denim", "jeans"],
            vec!["rug", "novel", "blue", "novel", "other"],
            vec!["novel"],
            vec![],
        ] {
            frozen.weigh_into(&tokens, &mut q);
            // A fresh model interns unseen terms in first-occurrence order,
            // which is the order the frozen path specifies.
            let reference = model().weigh(tokens.iter().copied());
            let known: Vec<(u32, f64)> =
                reference.entries().iter().copied().filter(|&(id, _)| id < 7).collect();
            assert_eq!(q.entries(), known.as_slice());
            assert_eq!(q.norm().to_bits(), reference.norm().to_bits());
        }
        assert_eq!(frozen.vocab_len(), 7);
    }

    #[test]
    fn term_round_trip() {
        let m = model();
        let id = m.term_id("rug").unwrap();
        assert_eq!(m.term(id).as_deref(), Some("rug"));
    }
}
