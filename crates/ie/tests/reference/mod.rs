//! Brand extraction as it stood before any indexing: every brand against
//! every word window, both sides lowercased per comparison, a full
//! Levenshtein each time. Kept verbatim as the reference the differential
//! suite holds `IePipeline` to; nothing outside `tests/` may use it.

use rulekit_data::Taxonomy;
use rulekit_ie::{extract_all, standard_rules, Extraction, ExtractionRule, Normalizer};
use rulekit_text::levenshtein_similarity;

/// Where in the title a brand mention is acceptable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextPattern {
    /// At the very start of the title (the dominant feed convention).
    TitleStart,
    /// Immediately after "by " ("…pullover by NorthPeak").
    AfterBy,
}

/// A brand dictionary with approximate matching.
#[derive(Debug, Clone)]
pub struct BrandDictionary {
    /// Known brand names (original casing preserved for output).
    brands: Vec<String>,
    /// Minimum normalized Levenshtein similarity for an approximate hit.
    similarity_threshold: f64,
    /// Accepted context patterns.
    contexts: Vec<ContextPattern>,
}

impl BrandDictionary {
    /// Builds a dictionary with the given approximate-matching threshold.
    pub fn new(
        brands: impl IntoIterator<Item = impl Into<String>>,
        similarity_threshold: f64,
        contexts: Vec<ContextPattern>,
    ) -> Self {
        BrandDictionary {
            brands: brands.into_iter().map(Into::into).collect(),
            similarity_threshold: similarity_threshold.clamp(0.0, 1.0),
            contexts,
        }
    }

    /// Extracts the brand from `title`, if any — the best approximate
    /// dictionary hit in an accepted context. Returns the *canonical*
    /// dictionary form, not the title substring.
    pub fn extract(&self, title: &str) -> Option<Extraction> {
        let mut best: Option<(f64, usize, (usize, usize))> = None;
        for (bi, brand) in self.brands.iter().enumerate() {
            let brand_words = brand.split_whitespace().count().max(1);
            for (start, window) in word_windows(title, brand_words) {
                let sim = levenshtein_similarity(&window.to_lowercase(), &brand.to_lowercase());
                if sim < self.similarity_threshold {
                    continue;
                }
                let span = (start, start + window.len());
                if !self.context_ok(title, span) {
                    continue;
                }
                if best.is_none_or(|(s, _, _)| sim > s) {
                    best = Some((sim, bi, span));
                }
            }
        }
        best.map(|(_, bi, span)| Extraction {
            field: "brand".to_string(),
            value: self.brands[bi].clone(),
            span,
        })
    }

    fn context_ok(&self, title: &str, span: (usize, usize)) -> bool {
        self.contexts.iter().any(|c| match c {
            ContextPattern::TitleStart => title[..span.0].trim().is_empty(),
            // "by" as a whole word: "baby Vizio" is not "by Vizio".
            ContextPattern::AfterBy => title[..span.0]
                .to_lowercase()
                .trim_end()
                .strip_suffix("by")
                .is_some_and(|before| !before.ends_with(char::is_alphanumeric)),
        })
    }
}

/// All `(byte offset, window)` of `n` consecutive words in `text`.
fn word_windows(text: &str, n: usize) -> Vec<(usize, &str)> {
    let mut word_spans: Vec<(usize, usize)> = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in text.char_indices() {
        if c.is_whitespace() {
            if let Some(s) = start.take() {
                word_spans.push((s, i));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        word_spans.push((s, text.len()));
    }
    if word_spans.len() < n {
        return Vec::new();
    }
    word_spans
        .windows(n)
        .map(|w| {
            let s = w[0].0;
            let e = w[n - 1].1;
            (s, &text[s..e])
        })
        .collect()
}

/// `IePipeline::standard` over the reference brand dictionary: the same
/// brand list, threshold and contexts, then the standard regex extractors,
/// every value through the default normalizer.
pub struct Pipeline {
    brands: BrandDictionary,
    rules: Vec<ExtractionRule>,
    normalizer: Normalizer,
}

impl Pipeline {
    /// The reference twin of `IePipeline::standard(taxonomy)`.
    pub fn standard(taxonomy: &Taxonomy) -> Pipeline {
        let mut brands: Vec<String> =
            taxonomy.ids().flat_map(|id| taxonomy.def(id).brands.iter().cloned()).collect();
        brands.sort();
        brands.dedup();
        Pipeline {
            brands: BrandDictionary::new(
                brands,
                0.9,
                vec![ContextPattern::TitleStart, ContextPattern::AfterBy],
            ),
            rules: standard_rules(),
            normalizer: Normalizer::new(),
        }
    }

    /// Every brand in the dictionary, canonical form.
    pub fn brands(&self) -> &[String] {
        &self.brands.brands
    }

    /// Extracts all fields from one title.
    pub fn extract(&self, title: &str) -> Vec<Extraction> {
        let mut out = Vec::new();
        if let Some(mut b) = self.brands.extract(title) {
            b.value = self.normalizer.normalize(&b.value);
            out.push(b);
        }
        for mut e in extract_all(&self.rules, title) {
            e.value = self.normalizer.normalize(&e.value);
            out.push(e);
        }
        out
    }
}
