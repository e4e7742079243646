//! Labeled-corpus helpers: training/validation splits and per-type grouping
//! used by the learning classifiers (§3.1), the rule miner (§5.2) and the
//! quality-evaluation experiments (§4).

use crate::generator::CatalogGenerator;
use crate::product::GeneratedItem;
use crate::taxonomy::TypeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// A labeled corpus of `(product, type)` pairs.
#[derive(Debug, Clone, Default)]
pub struct LabeledCorpus {
    items: Vec<GeneratedItem>,
}

impl LabeledCorpus {
    /// Generates a corpus of `n` items.
    pub fn generate(generator: &mut CatalogGenerator, n: usize) -> Self {
        LabeledCorpus { items: generator.generate(n) }
    }

    /// The items.
    pub fn items(&self) -> &[GeneratedItem] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Labeled `(title, type)` pairs — the §5.2 rule miner's input format.
    pub fn title_labels(&self) -> impl Iterator<Item = (&str, TypeId)> + '_ {
        self.items.iter().map(|i| (i.product.title.as_str(), i.truth))
    }

    /// Groups item indices by type.
    pub fn by_type(&self) -> HashMap<TypeId, Vec<usize>> {
        let mut map: HashMap<TypeId, Vec<usize>> = HashMap::new();
        for (i, item) in self.items.iter().enumerate() {
            map.entry(item.truth).or_default().push(i);
        }
        map
    }

    /// Distinct types present, sorted.
    pub fn types_present(&self) -> Vec<TypeId> {
        let mut types: Vec<TypeId> = self.items.iter().map(|i| i.truth).collect();
        types.sort_unstable();
        types.dedup();
        types
    }

    /// Shuffles (seeded) and splits into `(train, test)` with `train_fraction`
    /// of items in the first part.
    pub fn split(&self, train_fraction: f64, seed: u64) -> (LabeledCorpus, LabeledCorpus) {
        assert!((0.0..=1.0).contains(&train_fraction), "fraction in [0,1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuffled = self.items.clone();
        shuffled.shuffle(&mut rng);
        let cut = ((shuffled.len() as f64) * train_fraction).round() as usize;
        let test = shuffled.split_off(cut);
        (LabeledCorpus { items: shuffled }, LabeledCorpus { items: test })
    }

    /// Drops all items of the given types — simulates the §3.3 situation
    /// where ~30% of product types have no training data.
    pub fn without_types(&self, excluded: &[TypeId]) -> LabeledCorpus {
        let items = self.items.iter().filter(|i| !excluded.contains(&i.truth)).cloned().collect();
        LabeledCorpus { items }
    }

    /// Keeps only items of the given type.
    pub fn only_type(&self, ty: TypeId) -> LabeledCorpus {
        LabeledCorpus { items: self.items.iter().filter(|i| i.truth == ty).cloned().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::Taxonomy;

    fn corpus(n: usize) -> LabeledCorpus {
        let mut g = CatalogGenerator::with_seed(Taxonomy::builtin(), 21);
        LabeledCorpus::generate(&mut g, n)
    }

    #[test]
    fn split_partitions_exactly() {
        let c = corpus(1000);
        let (train, test) = c.split(0.8, 3);
        assert_eq!(train.len(), 800);
        assert_eq!(test.len(), 200);
        assert_eq!(train.len() + test.len(), c.len());
    }

    #[test]
    fn split_is_seeded() {
        let c = corpus(200);
        let (a, _) = c.split(0.5, 9);
        let (b, _) = c.split(0.5, 9);
        assert_eq!(a.items(), b.items());
        let (d, _) = c.split(0.5, 10);
        assert_ne!(a.items(), d.items());
    }

    #[test]
    fn by_type_partitions_all_items() {
        let c = corpus(500);
        let groups = c.by_type();
        let total: usize = groups.values().map(Vec::len).sum();
        assert_eq!(total, 500);
        for (ty, idxs) in groups {
            for i in idxs {
                assert_eq!(c.items()[i].truth, ty);
            }
        }
    }

    #[test]
    fn without_types_removes_them() {
        let c = corpus(800);
        let types = c.types_present();
        let excluded = &types[..types.len() / 3];
        let reduced = c.without_types(excluded);
        assert!(reduced.len() < c.len());
        for item in reduced.items() {
            assert!(!excluded.contains(&item.truth));
        }
    }

    #[test]
    fn only_type_filters() {
        let c = corpus(600);
        let ty = c.types_present()[0];
        let only = c.only_type(ty);
        assert!(!only.is_empty());
        assert!(only.items().iter().all(|i| i.truth == ty));
    }

    #[test]
    fn title_labels_align() {
        let c = corpus(50);
        for ((title, ty), item) in c.title_labels().zip(c.items()) {
            assert_eq!(title, item.product.title);
            assert_eq!(ty, item.truth);
        }
    }
}
