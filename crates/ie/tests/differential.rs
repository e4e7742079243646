//! Differential wall for brand extraction.
//!
//! `reference/` keeps `BrandDictionary::extract` as the all-pairs scan it
//! is today (every brand against every word window, a full Levenshtein per
//! pair). Any faster matcher must give `IePipeline::standard` the same
//! `Vec<Extraction>` — value, span and order — on the generated catalog
//! and on the variants a folding, indexing or early-exit matcher gets
//! wrong: a brand after "by", the whole title upper-cased, one character
//! dropped from the title's first word, a prefix whose lowercase form is
//! longer than itself (`İ`), and doubled or trailing whitespace.

mod reference;

use rulekit_data::{CatalogGenerator, Taxonomy};
use rulekit_ie::IePipeline;

/// Generated titles checked: 20k optimised (CI runs this suite with
/// `--release`); a debug build, where one all-pairs extraction is several
/// times slower, checks a tenth of the titles and of the variant brands.
const TITLES: usize = if cfg!(debug_assertions) { 2_000 } else { 20_000 };
const BRAND_STEP: usize = if cfg!(debug_assertions) { 10 } else { 1 };
const SEED: u64 = 17;

/// Asserts production and reference agree on every title, split across
/// two threads (each title is ~1 ms of all-pairs matching).
fn assert_agree(production: &IePipeline, reference: &reference::Pipeline, titles: &[String]) {
    std::thread::scope(|s| {
        for half in titles.chunks(titles.len().div_ceil(2).max(1)) {
            s.spawn(move || {
                for title in half {
                    assert_eq!(
                        production.extract(title),
                        reference.extract(title),
                        "extractions differ on {title:?}"
                    );
                }
            });
        }
    });
}

/// The adversarial variants of `title`; `brand` is a dictionary brand to
/// place after "by".
fn variants(title: &str, brand: &str) -> Vec<String> {
    let mut out = vec![
        format!("{title} by {brand}"),
        format!("soft throw by  {}", brand.to_lowercase()),
        format!("baby {brand} {title}"),
        title.to_uppercase(),
        format!("İ{title}"),
        format!("İ {title}"),
        format!("by İ{brand} {title}"),
        title.replace(' ', "  "),
        format!("  {title}  "),
        format!("{title}\t"),
    ];
    // One character dropped from the first word (the feed-typo case).
    let first_end = title.find(' ').unwrap_or(title.len());
    if let Some((i, c)) = title[..first_end].char_indices().nth(1) {
        out.push(format!("{}{}", &title[..i], &title[i + c.len_utf8()..]));
    }
    out
}

#[test]
fn extraction_matches_the_all_pairs_reference_on_generated_titles() {
    let taxonomy = Taxonomy::builtin();
    let production = IePipeline::standard(&taxonomy);
    let reference = reference::Pipeline::standard(&taxonomy);
    let titles: Vec<String> = CatalogGenerator::with_seed(taxonomy, SEED)
        .generate(TITLES)
        .into_iter()
        .map(|item| item.product.title)
        .collect();
    assert_agree(&production, &reference, &titles);
}

#[test]
fn extraction_matches_the_all_pairs_reference_on_adversarial_variants() {
    let taxonomy = Taxonomy::builtin();
    let production = IePipeline::standard(&taxonomy);
    let reference = reference::Pipeline::standard(&taxonomy);
    let brands: Vec<String> = reference.brands().iter().step_by(BRAND_STEP).cloned().collect();
    let mut titles: Vec<String> = CatalogGenerator::with_seed(taxonomy, SEED + 1)
        .generate(brands.len())
        .into_iter()
        .zip(&brands)
        .flat_map(|(item, brand)| variants(&item.product.title, brand))
        .collect();
    titles.extend(["", " ", "by", "by ", "İ", "İİ by", "\u{130}by x"].map(String::from));
    assert_agree(&production, &reference, &titles);
}
