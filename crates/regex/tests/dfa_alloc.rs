//! Zero-allocation guard for the lazy DFA's steady state.
//!
//! The confirmation tier's speed claim rests on warm searches being pure
//! table walks: once the states a workload touches are cached, `is_match`
//! must not allocate — not for thread lists (the Pike VM's cost), not for
//! state keys, not per call. This test warms a set of rule-shaped patterns
//! on representative titles, then counts heap allocations across thousands
//! of repeat searches. Any future change that sneaks a per-search
//! allocation into the DFA path (or silently diverts these patterns to the
//! Pike VM) fails here, not in a profile.
//!
//! Four of the five patterns are literal sequences, whose `is_match` never
//! reaches the DFA; the DFA guards search through `try_match_dfa`, and one
//! more guard pins the literal-sequence path: allocation-free, and building
//! neither a program nor a DFA.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::{Arc, Barrier};

use counting_alloc::tally;
use rulekit_regex::nfa::{self, CompileOptions};
use rulekit_regex::{literals, parser, seq, Regex};

/// Rule-shaped patterns: the qualifier.*head idiom, alternation groups,
/// optional plurals, a dictionary-ish disjunction, and anchors.
const PATTERNS: [&str; 5] = [
    "denim.*jeans?",
    "(motor|engine) oils?",
    "abrasive.*(wheels?|discs?)",
    "^wedding bands?$",
    "(gold|silver|platinum) ring",
];

/// Mostly non-matching titles so every search scans to the end — the worst
/// (and common) case for a confirmation tier: candidate admitted by a
/// literal hit, rejected by the full pattern.
const TITLES: [&str; 6] = [
    "mens denim jacket distressed",
    "synthetic motor oil 5w-30",
    "angle grinder abrasive flap sanding",
    "wedding bands",
    "sterling silver earrings with gold accents",
    "braided area rug 5x7 indoor outdoor",
];

fn compile_all() -> Vec<Regex> {
    PATTERNS.iter().map(|p| Regex::case_insensitive(p).expect(p)).collect()
}

/// Compiles the programs literal sequences defer (a first `find` does), so
/// that what warming is billed for is the DFA alone.
fn compile_programs(regexes: &[Regex]) {
    for re in regexes {
        std::hint::black_box(re.find(""));
    }
}

/// Populates every DFA state this workload can touch, and lets each regex's
/// cache pool settle (the first search allocates its cache).
fn warm(regexes: &[Regex]) {
    for re in regexes {
        for t in &TITLES {
            std::hint::black_box(re.try_match_dfa(t));
        }
        assert!(
            re.try_match_dfa(TITLES[0]).is_some(),
            "pattern {:?} fell off the DFA path; the guard would test the wrong engine",
            re.pattern()
        );
    }
}

#[test]
fn warm_dfa_searches_are_allocation_free() {
    let regexes = compile_all();
    warm(&regexes);
    let (tally, ()) = tally(|| {
        for _ in 0..2_000 {
            for re in &regexes {
                for t in &TITLES {
                    std::hint::black_box(re.try_match_dfa(std::hint::black_box(t)));
                }
            }
        }
    });
    assert_eq!(tally.allocs, 0, "warm DFA searches allocated {} times", tally.allocs);
}

/// A literal sequence answers `is_match` by substring search: from the first
/// call on it allocates nothing, and it never builds a program or a DFA.
#[test]
fn literal_sequence_searches_allocate_nothing_and_build_no_engine() {
    let regexes: Vec<Regex> =
        compile_all().into_iter().filter(Regex::is_literal_sequence).collect();
    assert_eq!(regexes.len(), 4, "every pattern here but the anchored one is a literal sequence");
    let (tally, ()) = tally(|| {
        for _ in 0..500 {
            for re in &regexes {
                for t in &TITLES {
                    std::hint::black_box(re.is_match(std::hint::black_box(t)));
                }
            }
        }
    });
    assert_eq!(tally.allocs, 0, "literal-sequence searches allocated {} times", tally.allocs);
    for re in &regexes {
        assert!(!re.has_program() && !re.has_dfa(), "{:?} built an engine", re.pattern());
    }
}

/// Footprint guard: at rule-set scale the per-regex cost *is* the server's
/// memory (50k rules × this number), so the layout's size is pinned like its
/// speed is.
///
/// * A regex that was never searched owns no DFA at all — only the empty
///   cell its clones share.
/// * DFA static part + warm cache, averaged over this file's patterns warmed
///   on its titles: **1,133 B in 9 heap blocks** — the boxed `LazyDfa` with
///   its one search state inline, three alphabet tables and five cache
///   tables. The layout before the merged-class / 16-bit / one-arena one
///   (interval classes, 32-bit words, boxed keys plus a `HashMap` copy of
///   each, closure scratch in every cache) measured **4,626 B** on the same
///   set (901 B built with the regex + 3,725 B on warming), and ≈ 11.5 KB
///   per regex on the benchmark's 50k-rule set, whose patterns are longer.
/// * However many threads search a pattern, it owns one cache.
///
/// ≤ the measured average above + 10%.
const WARM_LIMIT: i64 = 1_250;
/// Heap blocks per warm regex, as measured above.
const WARM_BLOCKS: i64 = 9;

/// The closure scratch is one per thread; let an unrelated (and longer)
/// pattern size it so it is not billed to the patterns warmed after it.
fn size_scratch() {
    let sizer = Regex::case_insensitive("(closure|traversal) scratch.*(stacks?|buffers?) sized$");
    assert!(sizer.unwrap().is_match("closure scratch buffers sized"));
}

#[test]
fn dfa_footprint_stays_small_and_cold_regexes_have_none() {
    /// The shared `Arc<Engines>` (two counts and the program and DFA cells,
    /// 48 B) plus the handle's own extra fields in the vector that holds it.
    const COLD_CELL_LIMIT: i64 = 64;

    size_scratch();

    let n = PATTERNS.len() as i64;
    // What a regex needs anyway: pattern text with its packed literal CNF
    // and literal sequence, and the NFA program of a pattern that is not a
    // literal sequence (the AST is dropped once compiled).
    let asts: Vec<_> = PATTERNS.iter().map(|p| parser::parse(p).unwrap()).collect();
    let (parts, _keep) = tally(|| {
        PATTERNS
            .iter()
            .zip(&asts)
            .map(|(p, ast)| {
                let mut text = p.to_string();
                literals::pack(&literals::literal_cnf(ast, true), &mut text);
                let program = (!seq::pack(ast, true, &mut text)).then(|| {
                    Arc::new(nfa::compile(ast, CompileOptions { case_insensitive: true }).unwrap())
                });
                (Arc::<str>::from(text), program)
            })
            .collect::<Vec<_>>()
    });
    let (cold, regexes) = tally(compile_all);
    let cell = (cold.live_bytes - parts.live_bytes) / n;
    assert!(
        (0..=COLD_CELL_LIMIT).contains(&cell),
        "a cold regex holds {cell} B beyond its text and program"
    );
    assert!(regexes.iter().all(|re| !re.has_dfa()));
    compile_programs(&regexes);

    let (warmed, ()) = tally(|| warm(&regexes));
    let per_regex = warmed.live_bytes / n;
    assert!(
        per_regex <= WARM_LIMIT,
        "DFA static part + warm cache average {per_regex} B per regex (limit {WARM_LIMIT})"
    );
    assert!(
        warmed.live_blocks <= WARM_BLOCKS * n,
        "DFA static part + warm cache hold {} heap blocks for {n} regexes",
        warmed.live_blocks
    );
}

/// Four threads warming the same patterns at once leave each pattern with
/// the footprint one thread leaves: one search state, not one per thread.
#[test]
fn concurrent_warming_keeps_one_cache_per_pattern() {
    const THREADS: usize = 4;
    let regexes = compile_all();
    compile_programs(&regexes);
    let barrier = Barrier::new(THREADS);
    // Each thread counts what it allocates and frees; the sum is what the
    // warming left behind, wherever it was allocated.
    let (bytes, blocks) = std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    size_scratch();
                    let (tally, ()) = tally(|| {
                        barrier.wait();
                        for _ in 0..50 {
                            warm(&regexes);
                        }
                    });
                    tally
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .fold((0, 0), |(bytes, blocks), t| (bytes + t.live_bytes, blocks + t.live_blocks))
    });
    let n = PATTERNS.len() as i64;
    assert!(
        bytes / n <= WARM_LIMIT,
        "{THREADS} threads warmed {} B per regex (limit {WARM_LIMIT})",
        bytes / n
    );
    assert!(blocks <= WARM_BLOCKS * n, "{THREADS} threads left {blocks} heap blocks");
}
