//! Dictionary-based brand extraction (§6): "a rule extracts a substring `s`
//! of [title] `t` as the brand name … if (a) `s` approximately matches a
//! string in a large given dictionary of brand names, and (b) the text
//! surrounding `s` conforms to a pre-specified pattern."

use crate::extract::Extraction;
use rulekit_text::levenshtein_similarity;

/// Where in the title a brand mention is acceptable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextPattern {
    /// At the very start of the title (the dominant feed convention).
    TitleStart,
    /// Immediately after "by " ("…pullover by NorthPeak").
    AfterBy,
    /// Anywhere.
    Anywhere,
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

    /// Number of known brands.
    pub fn len(&self) -> usize {
        self.brands.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.brands.is_empty()
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
            ContextPattern::Anywhere => true,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> BrandDictionary {
        BrandDictionary::new(
            ["Mainstays", "NorthPeak", "Quaker State", "Better Homes"],
            0.85,
            vec![ContextPattern::TitleStart, ContextPattern::AfterBy],
        )
    }

    #[test]
    fn exact_brand_at_title_start() {
        let e = dict().extract("Mainstays ivory tufted area rug").unwrap();
        assert_eq!(e.value, "Mainstays");
        assert_eq!(e.span.0, 0);
    }

    #[test]
    fn approximate_match_catches_typos() {
        // Feed typo "Mainstay" (missing s) still resolves to the canonical
        // dictionary form.
        let e = dict().extract("Mainstay ivory area rug").unwrap();
        assert_eq!(e.value, "Mainstays");
    }

    #[test]
    fn multiword_brand() {
        let e = dict().extract("Quaker State synthetic motor oil").unwrap();
        assert_eq!(e.value, "Quaker State");
    }

    #[test]
    fn after_by_context() {
        let e = dict().extract("cable knit pullover by NorthPeak").unwrap();
        assert_eq!(e.value, "NorthPeak");
    }

    #[test]
    fn after_by_needs_by_as_a_whole_word() {
        let dict = BrandDictionary::new(["Vizio"], 0.85, vec![ContextPattern::AfterBy]);
        assert!(dict.extract("baby Vizio tv").is_none());
        assert!(dict.extract("standby Vizio tv").is_none());
        assert_eq!(dict.extract("soft blanket by  Vizio").unwrap().value, "Vizio");
        assert_eq!(dict.extract("By Vizio").unwrap().value, "Vizio");
    }

    #[test]
    fn wrong_context_is_rejected() {
        // Brand word mid-title without "by": context check fails.
        assert!(dict().extract("rug similar to Mainstays style").is_none());
    }

    #[test]
    fn anywhere_context_allows_mid_title() {
        let anywhere = BrandDictionary::new(["Mainstays"], 0.9, vec![ContextPattern::Anywhere]);
        assert!(anywhere.extract("rug similar to Mainstays style").is_some());
    }

    #[test]
    fn unknown_brand_is_none() {
        assert!(dict().extract("Acme anvils 50 lbs").is_none());
    }

    #[test]
    fn span_covers_title_substring() {
        let title = "Quaker State synthetic motor oil";
        let e = dict().extract(title).unwrap();
        assert_eq!(&title[e.span.0..e.span.1], "Quaker State");
    }
}
