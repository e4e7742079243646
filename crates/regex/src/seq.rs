//! Literal sequences: patterns that are pieces of literal text joined by
//! `.*`.
//!
//! Rule patterns are overwhelmingly of this shape — `denim.*jeans?`,
//! `(motor|engine) oils?`, `laptop (bag|case|sleeve)s?` — and for them a
//! substring search answers [`Regex::is_match`](crate::Regex::is_match)
//! exactly, with no NFA program and no lazy DFA behind it.
//!
//! A pattern is a literal sequence when its top-level concatenation, split
//! at *gaps* (`.*` or `.*?`), leaves runs that each match a finite set of
//! strings: at most [`MAX_ALTERNATIVES`], each at most [`MAX_PIECE`] bytes,
//! none containing `\n`. A run may use literals, groups, alternation, the
//! empty pattern and repeats bounded by 2 (`s?`, `x{0,2}`).
//!
//! Matching is exact: `.` never matches `\n` and no piece contains one, so
//! the pattern matches iff it matches within one line. Within a line the
//! segments are taken in order, each at the occurrence that *ends* earliest
//! among those starting at or after the previous segment's end — any later
//! end leaves the rest of the line a suffix of what the earliest end
//! leaves, so the greedy choice never loses a match. Case folding is ASCII
//! only, the same as the compiled program's `Ranges` instructions.
//!
//! A search allocates nothing. It looks for a piece's first byte eight
//! bytes at a time and compares the rest where it is found.

use crate::ast::Ast;

/// Most alternatives one segment may expand to.
pub const MAX_ALTERNATIVES: usize = 16;
/// Longest alternative in bytes: a length is packed as one ASCII char.
pub const MAX_PIECE: usize = 127;

/// Appends the packed literal sequence of `ast` to `out` and returns true,
/// or returns false with `out` untouched when `ast` is not one. What a
/// compiled [`Regex`](crate::Regex) keeps of a literal sequence, behind its
/// pattern and literal CNF.
///
/// Each segment is written as its alternative count, then each alternative
/// as its byte length and its text; both counts are chars below 128, so the
/// result stays a `str`. Segments that match the empty string are dropped,
/// and so is every alternative that contains another of its segment's
/// alternatives (an occurrence of the longer one holds one of the shorter,
/// ending no later).
pub fn pack(ast: &Ast, case_insensitive: bool, out: &mut String) -> bool {
    let parts = match ast {
        Ast::Concat(parts) => parts.as_slice(),
        other => std::slice::from_ref(other),
    };
    let mut segments = Vec::new();
    for run in parts.split(is_gap) {
        let Some(set) = expand_concat(run, case_insensitive) else {
            return false;
        };
        let minimal: Vec<String> = set
            .iter()
            .filter(|s| !set.iter().any(|t| t != *s && s.contains(t.as_str())))
            .cloned()
            .collect();
        if !minimal.iter().any(String::is_empty) {
            segments.push(minimal);
        }
    }
    for segment in segments {
        out.push(ascii(segment.len()));
        for piece in segment {
            out.push(ascii(piece.len()));
            out.push_str(&piece);
        }
    }
    true
}

/// Whether the packed sequence matches anywhere in `text`.
pub(crate) fn is_match(packed: &[u8], case_insensitive: bool, text: &str) -> bool {
    text.split('\n').any(|line| matches_line(packed, case_insensitive, line.as_bytes()))
}

fn matches_line(mut packed: &[u8], case_insensitive: bool, line: &[u8]) -> bool {
    let mut at = 0;
    while let Some((&count, rest)) = packed.split_first() {
        packed = rest;
        // Earliest end so far; later alternatives only search before it.
        let mut end = None;
        for _ in 0..count {
            let (&len, rest) = packed.split_first().expect("packed piece length");
            let (piece, rest) = rest.split_at(usize::from(len));
            packed = rest;
            let bound = end.unwrap_or(line.len());
            if let Some(found) = find_end(&line[at..bound], piece, case_insensitive) {
                end = Some(at + found);
            }
        }
        match end {
            Some(e) => at = e,
            None => return false,
        }
    }
    true
}

/// End of the first occurrence of `piece` in `hay`. Pieces are
/// ASCII-lowercased when matching case-insensitively.
fn find_end(hay: &[u8], piece: &[u8], case_insensitive: bool) -> Option<usize> {
    let (&first, rest) = piece.split_first().expect("packed pieces are non-empty");
    let last_start = hay.len().checked_sub(piece.len())?;
    // Setting bit 5 maps exactly the two cases of a letter onto its
    // lowercase form, so a folded letter is found in one scan.
    let fold = if case_insensitive && first.is_ascii_lowercase() { 0x20 } else { 0 };
    let mut from = 0;
    while let Some(at) = find_byte(&hay[from..=last_start], first, fold) {
        let start = from + at;
        let tail = &hay[start + 1..start + piece.len()];
        if if case_insensitive { tail.eq_ignore_ascii_case(rest) } else { tail == rest } {
            return Some(start + piece.len());
        }
        from = start + 1;
    }
    None
}

/// Position of the first byte `b` in `hay` with `b | fold == needle`, eight
/// bytes a step.
fn find_byte(hay: &[u8], needle: u8, fold: u8) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let (fold8, needle8) = (u64::from_le_bytes([fold; 8]), u64::from_le_bytes([needle; 8]));
    let mut words = hay.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        // The lowest flagged byte is the first zero byte of `x`.
        let x = (word | fold8) ^ needle8;
        let zero = x.wrapping_sub(ONES) & !x & HIGHS;
        if zero != 0 {
            return Some(i * 8 + zero.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b | fold == needle).map(|p| hay.len() - tail.len() + p)
}

fn ascii(n: usize) -> char {
    char::from(u8::try_from(n).ok().filter(|b| b.is_ascii()).expect("count below 128"))
}

/// `.*` or `.*?`.
fn is_gap(ast: &Ast) -> bool {
    matches!(ast, Ast::Repeat { inner, min: 0, max: None, .. } if **inner == Ast::AnyChar)
}

/// The strings `ast` matches, when they are few and short enough.
fn expand(ast: &Ast, case_insensitive: bool) -> Option<Vec<String>> {
    match ast {
        Ast::Empty => Some(vec![String::new()]),
        Ast::Literal(_) => expand_concat(std::slice::from_ref(ast), case_insensitive),
        Ast::Group { inner, .. } => expand(inner, case_insensitive),
        Ast::Concat(parts) => expand_concat(parts, case_insensitive),
        Ast::Alternate(arms) => {
            let mut set = Vec::new();
            for arm in arms {
                set.extend(expand(arm, case_insensitive)?);
            }
            bounded(set)
        }
        Ast::Repeat { inner, min, max: Some(max), .. } if *max <= 2 => {
            let once = expand(inner, case_insensitive)?;
            let mut power = vec![String::new()];
            let mut set = Vec::new();
            for k in 0..=*max {
                if k >= *min {
                    set.extend(power.iter().cloned());
                }
                if k < *max {
                    power = product(&power, &once)?;
                }
            }
            bounded(set)
        }
        _ => None,
    }
}

fn expand_concat(parts: &[Ast], case_insensitive: bool) -> Option<Vec<String>> {
    let mut set = vec![String::new()];
    for part in parts {
        match part {
            Ast::Literal('\n') => return None,
            Ast::Literal(c) => {
                let c = if case_insensitive { c.to_ascii_lowercase() } else { *c };
                set.iter_mut().for_each(|s| s.push(c));
            }
            _ => set = product(&set, &expand(part, case_insensitive)?)?,
        }
    }
    bounded(set)
}

fn product(left: &[String], right: &[String]) -> Option<Vec<String>> {
    bounded(left.iter().flat_map(|l| right.iter().map(move |r| format!("{l}{r}"))).collect())
}

/// `set` deduplicated, or `None` past the alternative or length limits.
/// Failing early only ever turns a pattern away from this path.
fn bounded(mut set: Vec<String>) -> Option<Vec<String>> {
    set.sort_unstable();
    set.dedup();
    (set.len() <= MAX_ALTERNATIVES && set.iter().all(|s| s.len() <= MAX_PIECE)).then_some(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn packed(pattern: &str) -> Option<String> {
        let mut out = String::new();
        pack(&parse(pattern).unwrap(), true, &mut out).then_some(out)
    }

    #[test]
    fn segments_pack_their_minimal_alternatives() {
        // `rugs?` keeps "rug": every "rugs" holds a "rug" ending earlier.
        assert_eq!(packed("Shag.*rugs?").unwrap(), "\x01\x04shag\x01\x03rug");
        assert_eq!(packed("(a|bc) d").unwrap(), "\x02\x03a d\x04bc d");
        // Segments that match the empty string are dropped.
        assert_eq!(packed("x?.*.*(|y)").unwrap(), "");
        assert_eq!(packed("").unwrap(), "");
    }

    #[test]
    fn other_shapes_are_not_sequences() {
        for pattern in ["^a", "a$", "[ab]", r"\d", "a+", "a.+b", "a{3}", "(a.*b)", "a\nb", "a.b"] {
            assert_eq!(packed(pattern), None, "{pattern:?}");
        }
    }

    #[test]
    fn matches_within_a_line_at_earliest_ends() {
        let seq = packed("ab.*(b|cd).*d").unwrap();
        let is = |text: &str| is_match(seq.as_bytes(), true, text);
        assert!(is("xAB cd D"));
        assert!(is("abbd"));
        assert!(!is("abcd"));
        assert!(!is("ab cd\nd"));
        assert!(is("ab\nab cd d"));
    }
}
