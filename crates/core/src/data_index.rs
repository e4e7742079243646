//! Data-side indexing for rule development (§4, §5.3 "Rule Execution"):
//! "index data items so that given a classification or IE rule, we can
//! quickly locate those data items on which the rule is likely to match."
//!
//! An analyst iterating on a rule against a large development set `D` runs
//! every variant through [`TitleIndex::matching`], which scans only
//! candidate titles instead of all of `D`.

use rulekit_regex::{best_indexable_disjunction, Regex};
use std::collections::HashMap;

/// An inverted trigram index over a corpus of titles.
pub struct TitleIndex {
    /// Lowercased titles.
    titles: Vec<String>,
    /// trigram → sorted doc ids.
    postings: HashMap<[u8; 3], Vec<u32>>,
}

impl TitleIndex {
    /// Builds the index.
    pub fn build<I, S>(titles: I) -> TitleIndex
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let titles: Vec<String> = titles.into_iter().map(|t| t.as_ref().to_lowercase()).collect();
        let mut postings: HashMap<[u8; 3], Vec<u32>> = HashMap::new();
        for (i, title) in titles.iter().enumerate() {
            let bytes = title.as_bytes();
            let mut seen_keys: Vec<[u8; 3]> = Vec::new();
            for w in bytes.windows(3) {
                let key = [w[0], w[1], w[2]];
                if !seen_keys.contains(&key) {
                    seen_keys.push(key);
                    postings.entry(key).or_default().push(i as u32);
                }
            }
        }
        TitleIndex { titles, postings }
    }

    /// Number of indexed titles.
    pub fn len(&self) -> usize {
        self.titles.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.titles.is_empty()
    }

    /// The lowercased title for a doc id.
    pub fn title(&self, doc: u32) -> &str {
        &self.titles[doc as usize]
    }

    /// Candidate doc ids for `regex` — a superset of the true matches,
    /// derived from required-literal analysis. Falls back to all docs when
    /// the pattern has no indexable literal.
    pub fn candidates(&self, regex: &Regex) -> Vec<u32> {
        let cnf = regex.required_literals();
        // Only disjunctions whose every literal is an ASCII string of at
        // least one trigram can key the postings.
        let Some(best) = best_indexable_disjunction(&cnf, 3) else {
            return (0..self.titles.len() as u32).collect();
        };
        let mut out: Vec<u32> = Vec::new();
        for literal in best {
            // Intersect postings of all the literal's trigrams.
            let mut docs: Option<Vec<u32>> = None;
            for w in literal.as_bytes().windows(3) {
                let list = self.postings.get(&[w[0], w[1], w[2]]).map(Vec::as_slice).unwrap_or(&[]);
                docs = Some(match docs {
                    None => list.to_vec(),
                    Some(current) => intersect_sorted(&current, list),
                });
                if docs.as_ref().is_some_and(Vec::is_empty) {
                    break;
                }
            }
            if let Some(docs) = docs {
                // Confirm containment (trigram co-occurrence is necessary,
                // not sufficient).
                out.extend(
                    docs.into_iter()
                        .filter(|&d| self.titles[d as usize].contains(literal.as_str())),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Exact matches of `regex` over the corpus, via the candidate set.
    pub fn matching(&self, regex: &Regex) -> Vec<u32> {
        self.candidates(regex)
            .into_iter()
            .filter(|&d| regex.is_match(&self.titles[d as usize]))
            .collect()
    }

    /// Exact matches by scanning every title (the unindexed baseline).
    pub fn matching_scan(&self, regex: &Regex) -> Vec<u32> {
        (0..self.titles.len() as u32)
            .filter(|&d| regex.is_match(&self.titles[d as usize]))
            .collect()
    }
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> TitleIndex {
        TitleIndex::build([
            "Always & Forever Diamond Accent Ring",
            "braided area rug 5'x7'",
            "synthetic motor oil 5qt",
            "engine oil full synthetic",
            "garden hose 50 ft",
            "diamond trio set in white gold",
        ])
    }

    fn re(p: &str) -> Regex {
        Regex::case_insensitive(p).unwrap()
    }

    #[test]
    fn matching_equals_scan() {
        let idx = index();
        for pattern in ["rings?", "(motor|engine) oils?", "diamond.*trio sets?", "hose", "zzz"] {
            let r = re(pattern);
            assert_eq!(idx.matching(&r), idx.matching_scan(&r), "pattern {pattern}");
        }
    }

    #[test]
    fn candidates_are_supersets_of_matches() {
        let idx = index();
        for pattern in ["rings?", "(motor|engine) oils?", "oil"] {
            let r = re(pattern);
            let cands = idx.candidates(&r);
            for m in idx.matching(&r) {
                assert!(cands.contains(&m));
            }
        }
    }

    #[test]
    fn candidates_prune_nonmatching_docs() {
        let idx = index();
        let cands = idx.candidates(&re("(motor|engine) oils?"));
        assert!(cands.len() <= 2, "expected ≤2 candidates, got {cands:?}");
    }

    #[test]
    fn unindexable_pattern_falls_back_to_full_scan() {
        let idx = index();
        let cands = idx.candidates(&re(r"\w+"));
        assert_eq!(cands.len(), idx.len());
    }

    #[test]
    fn empty_index() {
        let idx = TitleIndex::build(Vec::<String>::new());
        assert!(idx.is_empty());
        assert!(idx.matching(&re("x")).is_empty());
    }

    #[test]
    fn intersect_sorted_works() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert!(intersect_sorted(&[], &[1]).is_empty());
    }
}
