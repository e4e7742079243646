//! Pike VM: breadth-first NFA simulation with capture tracking.
//!
//! Gives leftmost-first match semantics (like the mainstream `regex` crates)
//! in worst-case `O(len(text) × len(program))` time — no exponential blow-up,
//! which matters when tens of thousands of analyst-written rules run over
//! every incoming title.

use crate::nfa::{Inst, Program};
use std::rc::Rc;

/// Capture slots for one thread. `Rc` keeps thread forking cheap;
/// copy-on-write happens only at `Save` instructions.
type Slots = Rc<Box<[Option<usize>]>>;

/// A priority-ordered list of NFA threads with O(1) dedup by pc.
struct ThreadList {
    dense: Vec<(u32, Slots)>,
    seen: SparseSet,
}

impl ThreadList {
    fn new(insts: usize) -> Self {
        ThreadList { dense: Vec::new(), seen: SparseSet::new(insts) }
    }

    fn clear(&mut self) {
        self.dense.clear();
        self.seen.clear();
    }
}

/// Constant-time clearable membership set over instruction indices.
struct SparseSet {
    sparse: Vec<u32>,
    dense: Vec<u32>,
}

impl SparseSet {
    fn new(capacity: usize) -> Self {
        SparseSet { sparse: vec![0; capacity], dense: Vec::with_capacity(capacity) }
    }

    fn insert(&mut self, value: u32) -> bool {
        if self.contains(value) {
            return false;
        }
        self.sparse[value as usize] = self.dense.len() as u32;
        self.dense.push(value);
        true
    }

    fn contains(&self, value: u32) -> bool {
        let i = self.sparse[value as usize] as usize;
        self.dense.get(i) == Some(&value)
    }

    fn clear(&mut self) {
        self.dense.clear();
    }
}

/// Executes `program` over `text` starting at byte offset `start`.
///
/// Returns the capture slots of the leftmost-first match, or `None`.
/// When `earliest` is true, returns as soon as any match is known (used by
/// `is_match`, which does not need the full greedy extent).
pub fn exec(
    program: &Program,
    text: &str,
    start: usize,
    earliest: bool,
) -> Option<Box<[Option<usize>]>> {
    debug_assert!(text.is_char_boundary(start));
    let mut clist = ThreadList::new(program.insts.len());
    let mut nlist = ThreadList::new(program.insts.len());
    let mut matched: Option<Slots> = None;

    let init: Slots = Rc::new(vec![None; program.slots].into_boxed_slice());
    let text_len = text.len();
    let mut pos = start;
    let mut chars = text[start..].char_indices().map(|(i, c)| (start + i, c));
    let mut current: Option<(usize, char)> = chars.next();

    loop {
        // Seed a new thread at this position unless anchored or already matched.
        if matched.is_none() && (!program.anchored_start || pos == start) {
            add_thread(program, &mut clist, 0, pos, text_len, init.clone());
        }
        if clist.dense.is_empty() && matched.is_some() {
            break;
        }
        if earliest && matched.is_some() {
            break;
        }

        let (cur_pos, cur_char) = match current {
            Some((p, c)) => {
                debug_assert_eq!(p, pos);
                (p, Some(c))
            }
            None => (pos, None),
        };
        let next_pos = cur_char.map_or(cur_pos, |c| cur_pos + c.len_utf8());

        let mut i = 0;
        while i < clist.dense.len() {
            let (pc, slots) = clist.dense[i].clone();
            match &program.insts[pc as usize] {
                Inst::Ranges { start, len } => {
                    if let Some(c) = cur_char {
                        if program.class_contains(*start, *len, c) {
                            add_thread(program, &mut nlist, pc + 1, next_pos, text_len, slots);
                        }
                    }
                }
                Inst::Any => {
                    if let Some(c) = cur_char {
                        if c != '\n' {
                            add_thread(program, &mut nlist, pc + 1, next_pos, text_len, slots);
                        }
                    }
                }
                Inst::Match => {
                    // This thread matched at `cur_pos`; all lower-priority
                    // threads in clist are discarded, but nlist survivors
                    // (added by higher-priority threads) stay.
                    matched = Some(slots);
                    break;
                }
                // Epsilon instructions were resolved by add_thread.
                Inst::Split(..)
                | Inst::Jump(..)
                | Inst::Save(..)
                | Inst::AssertStart
                | Inst::AssertEnd => {
                    unreachable!("epsilon instruction in dense thread list")
                }
            }
            i += 1;
        }

        std::mem::swap(&mut clist, &mut nlist);
        nlist.clear();

        if cur_char.is_none() {
            break;
        }
        pos = next_pos;
        current = chars.next();
        if clist.dense.is_empty() && matched.is_some() {
            break;
        }
    }

    matched.map(|slots| Rc::try_unwrap(slots).unwrap_or_else(|rc| (*rc).clone()))
}

/// Adds `pc` to `list`, recursively following epsilon transitions.
///
/// `Match` and consuming instructions land in the dense list so that thread
/// priority order is preserved.
fn add_thread(
    program: &Program,
    list: &mut ThreadList,
    pc: u32,
    pos: usize,
    text_len: usize,
    slots: Slots,
) {
    if !list.seen.insert(pc) {
        return;
    }
    match &program.insts[pc as usize] {
        Inst::Jump(to) => add_thread(program, list, *to, pos, text_len, slots),
        Inst::Split(a, b) => {
            add_thread(program, list, *a, pos, text_len, slots.clone());
            add_thread(program, list, *b, pos, text_len, slots);
        }
        Inst::Save(slot) => {
            let mut new = slots.as_ref().clone();
            new[*slot as usize] = Some(pos);
            add_thread(program, list, pc + 1, pos, text_len, Rc::new(new));
        }
        Inst::AssertStart => {
            if pos == 0 {
                add_thread(program, list, pc + 1, pos, text_len, slots);
            }
        }
        Inst::AssertEnd => {
            if pos == text_len {
                add_thread(program, list, pc + 1, pos, text_len, slots);
            }
        }
        Inst::Ranges { .. } | Inst::Any | Inst::Match => {
            list.dense.push((pc, slots));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::{compile, CompileOptions};
    use crate::parser::parse;

    fn run(pattern: &str, text: &str) -> Option<(usize, usize)> {
        let program = compile(&parse(pattern).unwrap(), CompileOptions::default()).unwrap();
        exec(&program, text, 0, false).map(|s| (s[0].unwrap(), s[1].unwrap()))
    }

    #[test]
    fn literal_search_finds_leftmost() {
        assert_eq!(run("ring", "wedding ring set"), Some((8, 12)));
    }

    #[test]
    fn no_match() {
        assert_eq!(run("ring", "necklace"), None);
    }

    #[test]
    fn greedy_star_takes_longest() {
        assert_eq!(run("a*", "aaab"), Some((0, 3)));
    }

    #[test]
    fn lazy_star_takes_shortest() {
        assert_eq!(run("a*?", "aaab"), Some((0, 0)));
    }

    #[test]
    fn leftmost_beats_longer_later() {
        assert_eq!(run("a+|bbbb", "aabbbb"), Some((0, 2)));
    }

    #[test]
    fn alternation_prefers_first_arm() {
        // leftmost-first: at the same start, the first arm wins.
        assert_eq!(run("ab|abc", "abc"), Some((0, 2)));
        assert_eq!(run("abc|ab", "abc"), Some((0, 3)));
    }

    #[test]
    fn anchored_start() {
        assert_eq!(run("^ring", "ring first"), Some((0, 4)));
        assert_eq!(run("^ring", "a ring"), None);
    }

    #[test]
    fn anchored_end() {
        assert_eq!(run("ring$", "wedding ring"), Some((8, 12)));
        assert_eq!(run("ring$", "ring size"), None);
    }

    #[test]
    fn empty_pattern_matches_empty_prefix() {
        assert_eq!(run("", "abc"), Some((0, 0)));
        assert_eq!(run("", ""), Some((0, 0)));
    }

    #[test]
    fn dot_does_not_match_newline() {
        assert_eq!(run("a.b", "a\nb"), None);
        assert_eq!(run("a.b", "axb"), Some((0, 3)));
    }

    #[test]
    fn captures_recorded() {
        let program = compile(&parse(r"(\w+) oils?").unwrap(), CompileOptions::default()).unwrap();
        let slots = exec(&program, "synthetic motor oil 5qt", 0, false).unwrap();
        // Group 0: whole match. Group 1: the word before " oil".
        let g1 = (slots[2].unwrap(), slots[3].unwrap());
        assert_eq!(&"synthetic motor oil 5qt"[g1.0..g1.1], "motor");
    }

    #[test]
    fn unicode_text_offsets_are_bytes() {
        assert_eq!(run("b", "héllo b"), Some((7, 8)));
    }

    #[test]
    fn paper_rule_rings_matches_titles() {
        for title in [
            "Always & Forever Platinaire Diamond Accent Ring".to_lowercase(),
            "1/4 Carat T.W. Diamond Semi-Eternity Ring in 10kt White Gold".to_lowercase(),
        ] {
            assert!(run("rings?", &title).is_some(), "{title}");
        }
    }

    #[test]
    fn earliest_mode_reports_match() {
        let program = compile(&parse("a+").unwrap(), CompileOptions::default()).unwrap();
        assert!(exec(&program, "baaa", 0, true).is_some());
        assert!(exec(&program, "bbbb", 0, true).is_none());
    }

    #[test]
    fn start_offset_respected() {
        let program = compile(&parse("^b").unwrap(), CompileOptions::default()).unwrap();
        // ^ refers to the absolute start of text, so searching from offset 1
        // must not match.
        assert!(exec(&program, "ab", 1, false).is_none());
        let program = compile(&parse("b").unwrap(), CompileOptions::default()).unwrap();
        let slots = exec(&program, "bab", 1, false).unwrap();
        assert_eq!(slots[0], Some(2));
    }

    #[test]
    fn counted_repetition_matches() {
        assert_eq!(run("a{2,3}", "aaaa"), Some((0, 3)));
        assert_eq!(run("a{2,3}", "a"), None);
        assert_eq!(run("(?:ab){2}", "ababab"), Some((0, 4)));
    }

    #[test]
    fn nested_groups_capture_correctly() {
        let program = compile(&parse("(a(b)c)d").unwrap(), CompileOptions::default()).unwrap();
        let slots = exec(&program, "xabcd", 0, false).unwrap();
        assert_eq!((slots[2], slots[3]), (Some(1), Some(4)));
        assert_eq!((slots[4], slots[5]), (Some(2), Some(3)));
    }

    #[test]
    fn repeated_group_reports_last_iteration() {
        let program = compile(&parse("(?:(a|b))+").unwrap(), CompileOptions::default()).unwrap();
        let slots = exec(&program, "ab", 0, false).unwrap();
        assert_eq!((slots[2], slots[3]), (Some(1), Some(2)));
    }
}
