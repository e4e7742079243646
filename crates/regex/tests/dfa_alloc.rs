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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rulekit_regex::nfa::{self, CompileOptions};
use rulekit_regex::{parser, Regex};

/// What one thread allocated while counting was armed.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Calls that obtained or moved a heap block.
    allocs: u64,
    /// Bytes allocated minus bytes freed.
    live_bytes: i64,
}

thread_local! {
    /// `Some` while counting on this thread; thread-local so the test
    /// harness's own allocations never pollute the count.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

fn record(allocs: u64, bytes: i64) {
    TALLY.with(|c| {
        if let Some(t) = c.get() {
            c.set(Some(Tally { allocs: t.allocs + allocs, live_bytes: t.live_bytes + bytes }));
        }
    });
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with counting enabled and returns what it allocated on this
/// thread (and whatever `f` built, so its heap stays live while counted).
fn tally<T>(f: impl FnOnce() -> T) -> (Tally, T) {
    TALLY.with(|c| c.set(Some(Tally::default())));
    let out = f();
    (TALLY.with(|c| c.replace(None)).expect("counter armed"), out)
}

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

/// Populates every DFA state this workload can touch, and lets each regex's
/// cache pool settle (the first search allocates its cache).
fn warm(regexes: &[Regex]) {
    for re in regexes {
        for t in &TITLES {
            std::hint::black_box(re.is_match(t));
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
                    std::hint::black_box(re.is_match(std::hint::black_box(t)));
                }
            }
        }
    });
    assert_eq!(tally.allocs, 0, "warm DFA searches allocated {} times", tally.allocs);
}

/// Footprint guard: at rule-set scale the per-regex cost *is* the server's
/// memory (50k rules × this number), so the layout's size is pinned like its
/// speed is.
///
/// * A regex that was never searched owns no DFA at all — only the empty
///   cell its clones share.
/// * DFA static part + warm cache, averaged over this file's patterns warmed
///   on its titles: **1,178 B** with the merged-class / 16-bit / one-arena
///   layout. The layout it replaced (interval classes, 32-bit words, boxed
///   keys plus a `HashMap` copy of each, closure scratch in every cache)
///   measured **4,626 B** on the same set (901 B built with the regex +
///   3,725 B on warming), and ≈ 11.5 KB per regex on the benchmark's
///   50k-rule set, whose patterns are longer.
#[test]
fn dfa_footprint_stays_small_and_cold_regexes_have_none() {
    /// ≤ 1.3 × the measured average above.
    const WARM_LIMIT: i64 = 1_500;
    /// `Arc<OnceLock<Option<Box<LazyDfa>>>>` (two counts and the cell, 32 B)
    /// plus the handle's own extra fields in the vector that holds it.
    const COLD_CELL_LIMIT: i64 = 64;

    // The closure scratch is one per thread; let an unrelated (and longer)
    // pattern size it so it is not billed to the patterns below.
    let sizer = Regex::case_insensitive("(closure|traversal) scratch.*(stacks?|buffers?) sized$");
    assert!(sizer.unwrap().is_match("closure scratch buffers sized"));

    let n = PATTERNS.len() as i64;
    // What a regex needs anyway: pattern text, AST, NFA program.
    let (parts, _keep) = tally(|| {
        PATTERNS
            .iter()
            .map(|p| {
                let ast = parser::parse(p).unwrap();
                let program =
                    nfa::compile(&ast, CompileOptions { case_insensitive: true }).unwrap();
                (Arc::<str>::from(*p), Arc::new(ast), Arc::new(program))
            })
            .collect::<Vec<_>>()
    });
    let (cold, regexes) = tally(compile_all);
    let cell = (cold.live_bytes - parts.live_bytes) / n;
    assert!(
        (0..=COLD_CELL_LIMIT).contains(&cell),
        "a cold regex holds {cell} B beyond its text, AST and program"
    );

    let (warmed, ()) = tally(|| warm(&regexes));
    let per_regex = warmed.live_bytes / n;
    assert!(
        per_regex <= WARM_LIMIT,
        "DFA static part + warm cache average {per_regex} B per regex (limit {WARM_LIMIT})"
    );
}
