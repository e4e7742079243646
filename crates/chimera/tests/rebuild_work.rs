//! Rebuild-work guard: what one edit costs a warm pipeline, counted in heap
//! allocations rather than time, so it reads the same on any host.
//!
//! A snapshot build after an edit copies entry pointers and builds the
//! literal index; every untouched rule's compiled form is shared with the
//! build before it. So the allocations one `Chimera::snapshot()` makes after
//! one `add` track the number of distinct literals (the automaton's states
//! and the interning table), not the number of rules. The build this
//! replaced copied every rule twice and recompiled every condition: on these
//! rule sets it made 40,671 allocations at 2k rules and 263,787 at 10k (20
//! to 26 per rule), and dropping the snapshot it superseded freed 21,953 and
//! 125,953.

use rulekit_chimera::{Chimera, ChimeraConfig, PipelineSnapshot};
use rulekit_core::Admission;
use rulekit_data::Taxonomy;
use std::collections::HashSet;
use std::sync::Arc;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tally;

/// `n` distinct synthetic rules over the built-in taxonomy's qualifier ×
/// head vocabulary: the literal set grows much more slowly than the rules.
fn rule_lines(n: usize) -> Vec<String> {
    let tax = Taxonomy::builtin();
    let word = |w: &str| rulekit_regex::escape(&w.to_lowercase());
    let mut lines = Vec::with_capacity(n);
    for round in 0.. {
        for id in tax.ids() {
            let def = tax.def(id);
            for (qi, q) in def.qualifiers.iter().enumerate() {
                for head in &def.heads {
                    if lines.len() == n {
                        return lines;
                    }
                    let (q, h) = (word(q), word(head));
                    let other = word(&def.qualifiers[(qi + round + 1) % def.qualifiers.len()]);
                    lines.push(match round {
                        0 => format!("{q}.*{h}s? -> {}", def.name),
                        _ => format!("{q}.*{other}.*{h}s? and price < {round} -> {}", def.name),
                    });
                }
            }
        }
    }
    unreachable!("the rounds never end")
}

/// Distinct literals across the snapshot's main-store rules.
fn distinct_literals(snapshot: &PipelineSnapshot) -> usize {
    let mut literals = HashSet::new();
    for entry in snapshot.rule_table().entries() {
        if let Admission::Literals(cnf) = &entry.compiled().admission {
            literals.extend(cnf.literals());
        }
    }
    literals.len()
}

struct Rebuild {
    rules: usize,
    literals: usize,
    build_allocs: u64,
    drop_frees: u64,
}

/// One `add` on a warm `n`-rule pipeline, then the rebuild and the drop of
/// the snapshot it supersedes, counted.
fn rebuild_after_one_add(n: usize) -> Rebuild {
    let chimera = Chimera::new(Taxonomy::builtin(), ChimeraConfig::default());
    for line in rule_lines(n) {
        chimera.add_rules(&line).expect("synthetic rule parses");
    }
    let before = chimera.snapshot();
    chimera.add_rules("zzqxedit1s? -> rings").expect("edit parses");
    let (build, after) = tally(|| chimera.snapshot());
    let (dropped, ()) = tally(|| drop(before));
    Rebuild {
        rules: after.rule_count(),
        literals: distinct_literals(&after),
        build_allocs: build.allocs,
        drop_frees: dropped.frees,
    }
}

#[test]
fn a_rebuild_costs_the_literal_index_not_the_rule_count() {
    let small = rebuild_after_one_add(2_000);
    let large = rebuild_after_one_add(10_000);
    println!(
        "rules    distinct literals    allocations per snapshot()    freed by dropping the old one"
    );
    for r in [&small, &large] {
        println!(
            "{:>6}    {:>17}    {:>26}    {:>29}",
            r.rules, r.literals, r.build_allocs, r.drop_frees
        );
    }
    for r in [&small, &large] {
        // The automaton allocates per trie state (a few per literal byte
        // shared by no other literal) and the interning table per literal.
        assert!(
            r.build_allocs <= 30 * r.literals as u64,
            "{} allocations for {} literals at {} rules",
            r.build_allocs,
            r.literals,
            r.rules
        );
        assert!(r.drop_frees <= r.build_allocs, "the drop freed more than the build made");
    }
    // Five times the rules: the extra allocations are accounted for by the
    // extra literals, with no per-rule term (one per rule would add 8,000;
    // the slack covers a few more doublings of the per-build arrays).
    let extra_allocs = large.build_allocs.saturating_sub(small.build_allocs);
    let extra_literals = large.literals.saturating_sub(small.literals) as u64;
    assert!(
        extra_allocs <= 30 * extra_literals + 100,
        "{extra_allocs} more allocations for {extra_literals} more literals and {} more rules",
        large.rules - small.rules
    );
}

#[test]
fn a_rebuild_shares_every_untouched_rules_program() {
    let chimera = Chimera::new(Taxonomy::builtin(), ChimeraConfig::default());
    for line in rule_lines(500) {
        chimera.add_rules(&line).expect("synthetic rule parses");
    }
    let toggled = chimera.rules.enabled_snapshot()[7].id;
    let before = chimera.snapshot();
    chimera.add_rules("zzqxedit1s? -> rings").expect("edit parses");
    chimera.rules.disable(toggled, "toggle");
    chimera.rules.enable(toggled);
    let after = chimera.snapshot();

    let (old, new) = (before.rule_table(), after.rule_table());
    assert_eq!(new.len(), old.len() + 1);
    // Rules keep their order, so the old table is a prefix of the new one.
    for i in 0..old.len() {
        assert_eq!(old.ids()[i], new.ids()[i]);
        assert!(
            Arc::ptr_eq(&old.programs()[i], &new.programs()[i]),
            "rule {} was recompiled by an unrelated edit",
            old.ids()[i]
        );
    }
}
