//! Footprint guard for a compiled, never-searched [`Regex`].
//!
//! A rule set holds one compiled regex per distinct pattern, tens of
//! thousands of them, and every copy of the set (the live server, each
//! replication follower, every reopen) pays this footprint again. What a
//! regex may own is its text (the pattern and its packed literal CNF), one
//! flat program (instructions and one table of the distinct range sets they
//! test) and its DFA cell: five heap blocks. A boxed range set per
//! instruction or a retained AST puts dozens back and fails here.

mod common;

use common::tally;
use rulekit_regex::Regex;

/// Shapes the benchmark's rule generator emits, with the most live bytes
/// each compiled case-insensitive regex may hold: the measured 504 / 636 /
/// 744 B plus about 10%. With an AST kept beside a program of boxed
/// per-instruction range sets the same three held 1,152 / 1,656 / 2,048 B
/// in 19 / 24 / 32 blocks.
const SHAPES: [(&str, i64); 3] =
    [("braided rugs?", 555), ("shag.*braided.*rugs?", 700), ("(shag|braided|jute) rugs?", 820)];

/// Pattern text, the `Arc<Program>`, its instructions, its range table and
/// the DFA cell.
const BLOCKS: i64 = 5;

#[test]
fn a_compiled_regex_owns_its_text_one_flat_program_and_a_dfa_cell() {
    for (pattern, byte_limit) in SHAPES {
        let (held, re) = tally(|| Regex::case_insensitive(pattern).unwrap());
        assert!(
            held.live_bytes <= byte_limit,
            "{pattern:?} holds {} B (limit {byte_limit})",
            held.live_bytes
        );
        assert!(
            held.live_blocks <= BLOCKS,
            "{pattern:?} holds {} heap blocks (limit {BLOCKS})",
            held.live_blocks
        );
        // Still the regex it was: the footprint did not come from skipping work.
        assert!(re.is_match("Shag Braided Rug 5x8"));
        assert!(!re.is_match("braided jute mat"));
    }
}
