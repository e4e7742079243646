//! E9 — rule maintenance: subsumption and overlap detection, imprecise-rule
//! quarantine, and taxonomy-change inapplicability.

use crate::setup::{world, Scale};
use crate::table::Table;
use rulekit_core::{LiteralScanExecutor, RuleMeta, RuleParser, RuleRepository, TitleIndex};
use rulekit_crowd::{CrowdConfig, CrowdSim};
use rulekit_eval::{compute_coverages, per_rule_eval};
use rulekit_maint::{
    find_imprecise, find_inapplicable, find_overlaps, find_subsumptions, quarantine_imprecise,
};

/// E9 — maintenance sweep.
pub fn e9(scale: Scale) {
    println!("\n=== E9: rule maintenance (§4) ===");
    let (taxonomy, mut generator) = world(scale);
    let parser = RuleParser::new(taxonomy.clone());
    let repo = RuleRepository::new();
    // A realistic mess: duplicates from two analysts, the paper's pairs, an
    // imprecise rule, and some healthy rules.
    let lines = [
        "denim.*jeans? -> jeans", // subsumed by the next
        "jeans? -> jeans",
        "(abrasive|sand(er|ing))[ -](wheels?|discs?) -> abrasive wheels & discs", // overlaps next
        "abrasive.*(wheels?|discs?) -> abrasive wheels & discs",
        "rings? -> rings", // imprecise: hits earrings
        "(wedding bands?|trio sets?) -> rings",
        "laptop -> laptop computers", // imprecise: hits bags
        "rugs? -> area rugs",
        "attr(ISBN) -> books",
    ];
    for line in lines {
        repo.add(parser.parse_rule(line).unwrap(), RuleMeta::default());
    }
    let rules = repo.enabled_snapshot();
    let mut items = generator.generate(scale.eval_items.min(6_000));
    // Ensure the paper's "wheels & discs" pair has coverage despite the
    // Zipf tail.
    let abrasive = taxonomy.id_of("abrasive wheels & discs").unwrap();
    items.extend(generator.generate_n_for_type(abrasive, 120));
    let index = TitleIndex::build(items.iter().map(|i| i.product.title.as_str()));

    // Subsumption.
    let subs = find_subsumptions(&rules, Some(&index), 3);
    let mut sub_table = Table::new(&["subsumed rule", "subsumed by", "evidence"]);
    for s in &subs {
        let a = repo.get(s.subsumed).unwrap();
        let b = repo.get(s.by).unwrap();
        sub_table.row(vec![
            a.condition.to_string(),
            b.condition.to_string(),
            format!("{:?}", s.evidence),
        ]);
    }
    sub_table.print();

    // Overlap.
    let overlaps = find_overlaps(&rules, &index, 0.5, 3);
    let mut ov_table = Table::new(&["rule A", "rule B", "overlap coefficient"]);
    for o in &overlaps {
        ov_table.row(vec![
            repo.get(o.a).unwrap().condition.to_string(),
            repo.get(o.b).unwrap().condition.to_string(),
            format!("{:.2}", o.coefficient),
        ]);
    }
    ov_table.print();

    // Imprecise rules via per-rule crowd evaluation + quarantine.
    let executor = LiteralScanExecutor::new(rules.clone());
    let coverages = compute_coverages(&rules, &executor, &items);
    let mut crowd = CrowdSim::new(CrowdConfig { seed: scale.seed, ..Default::default() });
    let report = per_rule_eval(&coverages, &items, 30, true, &mut crowd, scale.seed);
    let flagged = find_imprecise(&report.estimates, 0.92, 10);
    let mut imp_table = Table::new(&["imprecise rule", "estimated precision"]);
    for f in &flagged {
        imp_table.row(vec![
            repo.get(f.rule_id).unwrap().condition.to_string(),
            format!("{:.3}", f.estimate.precision()),
        ]);
    }
    imp_table.print();
    let disabled = quarantine_imprecise(&repo, &flagged);
    println!(
        "quarantined {} imprecise rule(s); repository now has {} enabled rules",
        disabled.len(),
        repo.enabled_snapshot().len()
    );

    // Taxonomy change: split "jeans" (the paper's "pants" example).
    let jeans = taxonomy.id_of("jeans").unwrap();
    let new_taxonomy = taxonomy.split_type(
        jeans,
        vec![
            ("skinny jeans".into(), vec!["jean".into()], vec!["skinny".into()]),
            ("relaxed jeans".into(), vec!["jean".into()], vec!["relaxed".into()]),
        ],
    );
    let inapplicable = find_inapplicable(&repo.full_snapshot(), &taxonomy, &new_taxonomy);
    println!(
        "after splitting 'jeans': {} rule(s) inapplicable → {:?}",
        inapplicable.len(),
        inapplicable.iter().map(|i| i.type_name.as_str()).collect::<Vec<_>>()
    );
    println!("(paper: rules for the split type must be removed and rewritten)");
}
