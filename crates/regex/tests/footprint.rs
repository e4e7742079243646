//! Footprint guard for a compiled, never-searched [`Regex`].
//!
//! A rule set holds one compiled regex per distinct pattern, tens of
//! thousands of them, and every copy of the set (the live server, each
//! replication follower, every reopen) pays this footprint again. A literal
//! sequence (nearly every rule pattern) owns its text — the pattern, its
//! packed literal CNF and its packed pieces — and the shared cell its
//! engines would be built into: two heap blocks. Any other pattern also
//! owns one flat program (instructions and one table of the distinct range
//! sets they test): five. A boxed range set per instruction, a retained AST
//! or a program compiled for a literal sequence fails here.

mod common;

use common::tally;
use rulekit_regex::Regex;

/// Shapes the benchmark's rule generator emits, and one that is not a
/// literal sequence, with the most live bytes and heap blocks each compiled
/// case-insensitive regex may hold (the measured bytes plus about 10%),
/// then a title it matches and one it does not. With an eagerly compiled
/// program the three generator shapes held 504 / 636 / 744 B in 5 blocks;
/// before that, with an AST kept beside a program of boxed per-instruction
/// range sets, 1,152 / 1,656 / 2,048 B in 19 / 24 / 32 blocks.
const SHAPES: [(&str, i64, i64, &str, &str); 4] = [
    ("braided rugs?", 123, 2, "Shag Braided Rug 5x8", "braided jute mat"),
    ("shag.*braided.*rugs?", 141, 2, "Shag Braided Rug 5x8", "braided jute mat"),
    ("(shag|braided|jute) rugs?", 167, 2, "Shag Braided Rug 5x8", "braided jute mat"),
    (r"\d+ ?gb", 348, 5, "usb drive 64 GB", "usb drive gb"),
];

#[test]
fn a_compiled_regex_owns_its_text_an_engine_cell_and_only_the_program_it_needs() {
    for (pattern, byte_limit, block_limit, hit, miss) in SHAPES {
        let (held, re) = tally(|| Regex::case_insensitive(pattern).unwrap());
        assert!(
            held.live_bytes <= byte_limit,
            "{pattern:?} holds {} B (limit {byte_limit})",
            held.live_bytes
        );
        assert!(
            held.live_blocks <= block_limit,
            "{pattern:?} holds {} heap blocks (limit {block_limit})",
            held.live_blocks
        );
        assert_eq!(re.is_literal_sequence(), block_limit == 2, "{pattern:?}");
        assert_eq!(re.has_program(), !re.is_literal_sequence(), "{pattern:?}");
        // Still the regex it was: the footprint did not come from skipping work.
        assert!(re.is_match(hit), "{pattern:?}");
        assert!(!re.is_match(miss), "{pattern:?}");
    }
}
