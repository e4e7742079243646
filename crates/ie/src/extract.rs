//! Regex-based attribute extraction (§6): "yet another set of rules apply
//! regular expressions to extract weights, sizes, and colors (we found that
//! instead of learning, it was easier to use regular expressions to capture
//! the appearance patterns of such attributes)".

use rulekit_regex::Regex;

/// An extracted field value with its byte span in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extraction {
    /// Field name ("weight", "size", "color", "brand", …).
    pub field: String,
    /// Extracted (possibly normalized) value.
    pub value: String,
    /// Byte span in the source text.
    pub span: (usize, usize),
}

/// A regex extraction rule: the pattern's first capture group (or the whole
/// match) is the value.
pub struct ExtractionRule {
    /// Field this rule extracts.
    pub field: String,
    regex: Regex,
}

impl ExtractionRule {
    /// Builds a rule; the pattern is matched case-insensitively.
    pub fn new(field: impl Into<String>, pattern: &str) -> Result<Self, rulekit_regex::Error> {
        Ok(ExtractionRule { field: field.into(), regex: Regex::case_insensitive(pattern)? })
    }

    /// All non-overlapping extractions from `text`.
    pub fn extract(&self, text: &str) -> Vec<Extraction> {
        let mut out = Vec::new();
        let mut start = 0usize;
        while let Some(caps) = self.regex.captures_at(text, start) {
            let whole = caps.get(0).expect("group 0 present");
            let m = caps.get(1).unwrap_or(whole);
            out.push(Extraction {
                field: self.field.clone(),
                value: m.as_str().to_string(),
                span: (m.start(), m.end()),
            });
            // Resume at the end of the value, not of the whole match: a
            // delimiter the pattern consumed after this value is the one the
            // next value needs before it ("black white", "black/white").
            start = if m.end() > start { m.end() } else { start + 1 };
            if start >= text.len() {
                break;
            }
            // Ensure char boundary for the next scan position.
            while start < text.len() && !text.is_char_boundary(start) {
                start += 1;
            }
        }
        out
    }
}

/// The production extractor set for weights, sizes and colors.
pub fn standard_rules() -> Vec<ExtractionRule> {
    vec![
        ExtractionRule::new("weight", r"(\d+(?:\.\d+)?\s?(?:lbs?|oz|kg|g))(?:[^\w]|$)")
            .expect("static pattern"),
        ExtractionRule::new("size", r"(\d+(?:\.\d+)?\s?(?:inch|in\.|ft|'x\d+'|x\d+))")
            .expect("static pattern"),
        ExtractionRule::new(
            "color",
            r"(?:^|[^a-zA-Z0-9])(black|white|ivory|navy|blue|red|green|gray|brown|beige|silver|gold|pink|purple|teal|burgundy|charcoal|tan)(?:[^a-zA-Z0-9]|$)",
        )
        .expect("static pattern"),
    ]
}

/// Runs several rules over `text`, concatenating results.
pub fn extract_all(rules: &[ExtractionRule], text: &str) -> Vec<Extraction> {
    rules.iter().flat_map(|r| r.extract(text)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_extraction() {
        let rule = &standard_rules()[0];
        let found = rule.extract("Purina dog food 30 lbs chicken and rice");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].value, "30 lbs");
        assert_eq!(found[0].field, "weight");
    }

    #[test]
    fn weight_units_variants() {
        let rule = &standard_rules()[0];
        assert_eq!(rule.extract("ground coffee 12 oz")[0].value, "12 oz");
        assert_eq!(rule.extract("5.5kg dumbbell")[0].value, "5.5kg");
    }

    #[test]
    fn color_extraction() {
        let rule = &standard_rules()[2];
        let found = rule.extract("Mainstays ivory tufted area rug");
        assert_eq!(found[0].value, "ivory");
    }

    #[test]
    fn multiple_extractions_non_overlapping() {
        let rule = &standard_rules()[2];
        let found = rule.extract("black and white checkered blanket");
        let values: Vec<&str> = found.iter().map(|e| e.value.as_str()).collect();
        assert_eq!(values, vec!["black", "white"]);
    }

    #[test]
    fn adjacent_values_share_one_delimiter() {
        let color = &standard_rules()[2];
        let values = |text: &str| -> Vec<String> {
            color.extract(text).into_iter().map(|e| e.value).collect()
        };
        assert_eq!(values("black white checkered blanket"), ["black", "white"]);
        assert_eq!(values("navy blue dress"), ["navy", "blue"]);
        assert_eq!(values("black/white rug"), ["black", "white"]);
        // The weight pattern never needed a leading delimiter.
        let weights: Vec<String> =
            standard_rules()[0].extract("3 lbs 4 oz").into_iter().map(|e| e.value).collect();
        assert_eq!(weights, ["3 lbs", "4 oz"]);
    }

    #[test]
    fn spans_point_into_source() {
        let text = "navy blue dress 12 oz";
        for rule in standard_rules() {
            for e in rule.extract(text) {
                assert_eq!(&text[e.span.0..e.span.1], e.value);
            }
        }
    }

    #[test]
    fn no_match_is_empty() {
        let rule = &standard_rules()[0];
        assert!(rule.extract("plain title with no measurements").is_empty());
    }

    #[test]
    fn extract_all_merges_fields() {
        let rules = standard_rules();
        let found = extract_all(&rules, "black leather boots 2.5 lbs size 10 inch");
        let fields: Vec<&str> = found.iter().map(|e| e.field.as_str()).collect();
        assert!(fields.contains(&"weight"));
        assert!(fields.contains(&"color"));
        assert!(fields.contains(&"size"));
    }
}
