//! Sparse vectors and a string-interning vocabulary.
//!
//! All TF/IDF machinery in the synonym finder (§5.1) and the learning
//! classifiers operates on these types.

use std::collections::HashMap;

/// Interns terms to dense `u32` ids.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    by_term: HashMap<String, u32>,
    terms: Vec<String>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Returns the id for `term`, interning it if new.
    pub fn intern(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = self.terms.len() as u32;
        self.terms.push(term.to_string());
        self.by_term.insert(term.to_string(), id);
        id
    }

    /// Looks up the id of `term` without interning.
    pub fn get(&self, term: &str) -> Option<u32> {
        self.by_term.get(term).copied()
    }

    /// The term for `id`.
    pub fn term(&self, id: u32) -> Option<&str> {
        self.terms.get(id as usize).map(String::as_str)
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// A sparse vector: sorted `(term id, weight)` pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// The zero vector.
    pub fn new() -> Self {
        SparseVector::default()
    }

    /// Builds a vector from unsorted (possibly duplicated) pairs, summing
    /// duplicate ids.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match entries.last_mut() {
                Some(last) if last.0 == id => last.1 += w,
                _ => entries.push((id, w)),
            }
        }
        entries.retain(|&(_, w)| w != 0.0);
        SparseVector { entries }
    }

    /// Builds a term-frequency vector from token ids.
    pub fn term_frequencies(ids: impl IntoIterator<Item = u32>) -> Self {
        SparseVector::from_pairs(ids.into_iter().map(|id| (id, 1.0)).collect())
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Whether this is the zero vector.
    pub fn is_zero(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight of `id` (0.0 when absent).
    pub fn get(&self, id: u32) -> f64 {
        self.entries
            .binary_search_by_key(&id, |&(i, _)| i)
            .map(|idx| self.entries[idx].1)
            .unwrap_or(0.0)
    }

    /// Dot product with `other`.
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0, 0);
        let mut sum = 0.0;
        while i < self.entries.len() && j < other.entries.len() {
            match self.entries[i].0.cmp(&other.entries[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += self.entries[i].1 * other.entries[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Cosine similarity with `other` (0.0 when either is zero).
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Returns a normalized (unit-length) copy; the zero vector stays zero.
    pub fn normalized(&self) -> SparseVector {
        let n = self.norm();
        if n == 0.0 {
            self.clone()
        } else {
            self.scaled(1.0 / n)
        }
    }

    /// Returns `self * factor`.
    pub fn scaled(&self, factor: f64) -> SparseVector {
        if factor == 0.0 {
            return SparseVector::new();
        }
        SparseVector { entries: self.entries.iter().map(|&(id, w)| (id, w * factor)).collect() }
    }

    /// Adds `factor * other` into `self`.
    pub fn add_scaled(&mut self, other: &SparseVector, factor: f64) {
        if factor == 0.0 || other.is_zero() {
            return;
        }
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() || j < other.entries.len() {
            match (self.entries.get(i), other.entries.get(j)) {
                (Some(&(ia, wa)), Some(&(ib, wb))) => match ia.cmp(&ib) {
                    std::cmp::Ordering::Less => {
                        merged.push((ia, wa));
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((ib, wb * factor));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((ia, wa + wb * factor));
                        i += 1;
                        j += 1;
                    }
                },
                (Some(&(ia, wa)), None) => {
                    merged.push((ia, wa));
                    i += 1;
                }
                (None, Some(&(ib, wb))) => {
                    merged.push((ib, wb * factor));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        merged.retain(|&(_, w)| w != 0.0);
        self.entries = merged;
    }

    /// Clamps all negative weights to zero (Rocchio convention).
    pub fn clamp_non_negative(&mut self) {
        self.entries.retain(|&(_, w)| w > 0.0);
    }

    /// Mean of a set of vectors; the empty set yields the zero vector.
    pub fn mean<'a>(vectors: impl IntoIterator<Item = &'a SparseVector>) -> SparseVector {
        let mut sum = SparseVector::new();
        let mut count = 0usize;
        for v in vectors {
            sum.add_scaled(v, 1.0);
            count += 1;
        }
        if count == 0 {
            sum
        } else {
            sum.scaled(1.0 / count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    #[test]
    fn vocabulary_interning_is_stable() {
        let mut vocab = Vocabulary::new();
        let a = vocab.intern("jeans");
        let b = vocab.intern("denim");
        assert_eq!(vocab.intern("jeans"), a);
        assert_eq!(vocab.get("denim"), Some(b));
        assert_eq!(vocab.term(a), Some("jeans"));
        assert_eq!(vocab.len(), 2);
        assert_eq!(vocab.get("missing"), None);
        assert_eq!(vocab.term(99), None);
    }

    #[test]
    fn from_pairs_sorts_and_sums_duplicates() {
        let vec = v(&[(3, 1.0), (1, 2.0), (3, 0.5)]);
        assert_eq!(vec.entries(), &[(1, 2.0), (3, 1.5)]);
    }

    #[test]
    fn from_pairs_drops_zero_weights() {
        let vec = v(&[(1, 1.0), (1, -1.0), (2, 3.0)]);
        assert_eq!(vec.entries(), &[(2, 3.0)]);
    }

    #[test]
    fn term_frequencies_counts() {
        let vec = SparseVector::term_frequencies([5, 2, 5, 5]);
        assert_eq!(vec.get(5), 3.0);
        assert_eq!(vec.get(2), 1.0);
        assert_eq!(vec.get(9), 0.0);
    }

    #[test]
    fn dot_product_aligns_ids() {
        let a = v(&[(1, 2.0), (3, 1.0)]);
        let b = v(&[(1, 0.5), (2, 9.0), (3, 2.0)]);
        assert!((a.dot(&b) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_identical_is_one() {
        let a = v(&[(1, 1.0), (2, 2.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        let a = v(&[(1, 1.0)]);
        let b = v(&[(2, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn cosine_with_zero_vector_is_zero() {
        let a = v(&[(1, 1.0)]);
        assert_eq!(a.cosine(&SparseVector::new()), 0.0);
    }

    #[test]
    fn add_scaled_merges() {
        let mut a = v(&[(1, 1.0), (3, 1.0)]);
        a.add_scaled(&v(&[(2, 2.0), (3, 1.0)]), 0.5);
        assert_eq!(a.entries(), &[(1, 1.0), (2, 1.0), (3, 1.5)]);
    }

    #[test]
    fn add_scaled_cancellation_removes_entry() {
        let mut a = v(&[(1, 1.0)]);
        a.add_scaled(&v(&[(1, 1.0)]), -1.0);
        assert!(a.is_zero());
    }

    #[test]
    fn normalized_has_unit_norm() {
        let a = v(&[(1, 3.0), (2, 4.0)]);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
        assert!(SparseVector::new().normalized().is_zero());
    }

    #[test]
    fn mean_averages() {
        let m = SparseVector::mean([&v(&[(1, 2.0)]), &v(&[(1, 4.0), (2, 2.0)])]);
        assert_eq!(m.get(1), 3.0);
        assert_eq!(m.get(2), 1.0);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert!(SparseVector::mean([]).is_zero());
    }

    #[test]
    fn clamp_non_negative() {
        let mut a = v(&[(1, -1.0), (2, 2.0)]);
        a.clamp_non_negative();
        assert_eq!(a.entries(), &[(2, 2.0)]);
    }
}
