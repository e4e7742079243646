//! Work guard for k-NN's pruned pass, in counts rather than time.
//!
//! On the benchmark-shaped corpus a query's terms hold ~38k postings between
//! them, nearly all in the every-document `attr::*` lists. The pruned pass
//! must leave most of them unread and rescore only a handful of documents
//! from the forward index; the differential suite holds the answers to the
//! exhaustive walk, this holds the work. Counts repeat exactly on any host,
//! so the limits below are the design's (DESIGN.md §16), not a calibration
//! of this machine. Run with `--nocapture` for the table.

mod common;

use rulekit_learn::{Knn, TrainingSet};
use std::collections::{HashMap, HashSet};

/// Postings an exhaustive walk of `bag`'s terms reads: the document
/// frequency of each distinct term, every-document terms (IDF 0) excepted —
/// they have no postings.
fn total_postings(data: &TrainingSet, df: &HashMap<&str, usize>, bag: &[String]) -> usize {
    let terms: HashSet<&str> = bag.iter().map(String::as_str).collect();
    terms.iter().filter_map(|t| df.get(t)).filter(|&&n| n < data.len()).sum()
}

#[test]
fn pruned_pass_reads_a_fraction_of_the_postings() {
    let (data, feed) = common::corpus(1, 20_000, 3_000);
    let mut df: HashMap<&str, usize> = HashMap::new();
    for (feats, _) in &data.docs {
        for term in feats.iter().map(String::as_str).collect::<HashSet<_>>() {
            *df.entry(term).or_insert(0) += 1;
        }
    }
    let knn = Knn::train(&data, 5);

    let queries = feed.len() as f64;
    let (mut total, mut walked, mut touched, mut rescored) = (0, 0, 0, 0);
    let mut most_rescored = 0;
    for bag in &feed {
        let (_, work) = knn.predict_counted(bag);
        total += total_postings(&data, &df, bag);
        walked += work.postings_walked;
        touched += work.docs_touched;
        rescored += work.docs_rescored;
        most_rescored = most_rescored.max(work.docs_rescored);
    }
    let mean = |n: usize| n as f64 / queries;
    println!("k-NN work per query, {} training documents, {queries} queries, k = 5", data.len());
    println!("  postings in the query's lists  {:>9.0}", mean(total));
    println!("  postings walked                {:>9.0}", mean(walked));
    println!("  documents touched              {:>9.0}", mean(touched));
    println!("  documents rescored             {:>9.1}  (most: {most_rescored})", mean(rescored));

    assert!(walked * 4 <= total, "walked {walked} of {total} postings");
    assert!(mean(rescored) <= 64.0, "rescored {} documents per query", mean(rescored));
    assert!(
        most_rescored * 20 <= data.len(),
        "one query rescored {most_rescored} of {} documents",
        data.len()
    );
}
