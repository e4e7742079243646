//! The benchmark's corpus, shared by the learn-stage suites.

use rulekit_data::{
    BatchStream, CatalogGenerator, GeneratorConfig, StreamConfig, Taxonomy, TypeId, VendorPool,
};
use rulekit_learn::{Featurizer, TrainingSet};
use std::collections::HashSet;

/// The benchmark's training corpus (generated items minus the 30% of types
/// with least data) and the first `queries` items of its vendor feed, as
/// feature bags.
pub fn corpus(seed: u64, items: usize, queries: usize) -> (TrainingSet, Vec<Vec<String>>) {
    let taxonomy = Taxonomy::builtin();
    let featurizer = Featurizer::new();
    let mut generator = CatalogGenerator::new(taxonomy.clone(), GeneratorConfig::seeded(seed));
    let generated = generator.generate(items);
    let mut counts = vec![0usize; taxonomy.len()];
    for item in &generated {
        counts[item.truth.0 as usize] += 1;
    }
    let mut by_count: Vec<TypeId> = taxonomy.ids().collect();
    by_count.sort_by_key(|t| (counts[t.0 as usize], *t));
    let tail: HashSet<TypeId> = by_count.into_iter().take(taxonomy.len() * 3 / 10).collect();
    let docs = generated
        .iter()
        .filter(|item| !tail.contains(&item.truth))
        .map(|item| (featurizer.features(&item.product), item.truth))
        .collect();

    let vendors = VendorPool::generate(6, 0.0, seed);
    let cfg = StreamConfig { seed, min_batch: 200, max_batch: 800, ..Default::default() };
    let mut feed = BatchStream::new(generator, vendors, cfg);
    let mut bags = Vec::with_capacity(queries + 800);
    while bags.len() < queries {
        bags.extend(feed.next_batch().items.iter().map(|item| featurizer.features(&item.product)));
    }
    bags.truncate(queries);
    (TrainingSet::from_pairs(docs), bags)
}
