//! Thompson NFA compiler: turns an [`Ast`] into a linear instruction program
//! executed by the Pike VM.

use crate::ast::{Ast, ClassSet};
use crate::Error;

/// Hard cap on compiled program size, guarding against pathological counted
/// repetition blow-up (`(a{900}){900}` style).
pub(crate) const MAX_PROGRAM: usize = 1 << 18;

/// Distinct range sets the compiler searches before storing a new one. Rule
/// patterns test a few dozen at most; the cap keeps a pattern with
/// thousands of distinct classes compiling in linear time (its later sets
/// are stored without a search, possibly twice).
const MAX_INTERNED_SETS: usize = 64;

/// One NFA instruction (12 bytes: a program is one flat array of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// Consume one character if it falls into one of the (sorted, merged)
    /// inclusive ranges `Program::ranges[start..start + len]`, then go to
    /// the next instruction.
    Ranges {
        /// Index of the set's first range in [`Program::ranges`].
        start: u32,
        /// Number of ranges in the set.
        len: u32,
    },
    /// Consume any character except `\n`.
    Any,
    /// Try `goto1` first (higher priority), then `goto2`.
    Split(u32, u32),
    /// Unconditional jump.
    Jump(u32),
    /// Store the current input position into capture slot `slot`.
    Save(u32),
    /// Zero-width assertion: start of text.
    AssertStart,
    /// Zero-width assertion: end of text.
    AssertEnd,
    /// Accept.
    Match,
}

/// A compiled program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Instruction list; execution starts at instruction 0.
    pub insts: Vec<Inst>,
    /// Every distinct range set the instructions test, back to back; an
    /// [`Inst::Ranges`] names its set by position. Rule patterns repeat a
    /// handful of sets (one per case-folded letter), so this stays short.
    pub ranges: Vec<(char, char)>,
    /// Number of capture slots (2 × (capturing groups + 1)).
    pub slots: usize,
    /// Number of capturing groups, excluding the implicit group 0.
    pub captures: u32,
    /// Whether every match must begin at position 0 (pattern starts with `^`
    /// on every alternation path).
    pub anchored_start: bool,
}

impl Program {
    /// The range set an [`Inst::Ranges`] with these fields tests.
    pub fn class(&self, start: u32, len: u32) -> &[(char, char)] {
        &self.ranges[start as usize..start as usize + len as usize]
    }

    /// Whether `c` falls into the range set at `start..start + len`.
    pub(crate) fn class_contains(&self, start: u32, len: u32, c: char) -> bool {
        let ranges = self.class(start, len);
        // Rule classes are tiny (1–4 ranges); linear scan beats binary search.
        if ranges.len() <= 4 {
            return ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
        }
        ranges
            .binary_search_by(|&(lo, hi)| {
                if c < lo {
                    std::cmp::Ordering::Greater
                } else if c > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }
}

/// Compilation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileOptions {
    /// Fold ASCII case: `a` matches `A`.
    pub case_insensitive: bool,
}

/// Compiles `ast` to a [`Program`].
pub fn compile(ast: &Ast, opts: CompileOptions) -> Result<Program, Error> {
    let captures = ast.capture_count();
    let mut c = Compiler { insts: Vec::new(), ranges: Vec::new(), sets: Vec::new(), opts };
    c.push(Inst::Save(0))?;
    c.emit(ast)?;
    c.push(Inst::Save(1))?;
    c.push(Inst::Match)?;
    let anchored_start = starts_anchored(ast);
    // A rule set keeps one program per pattern: no doubling slack.
    c.insts.shrink_to_fit();
    c.ranges.shrink_to_fit();
    Ok(Program {
        insts: c.insts,
        ranges: c.ranges,
        slots: 2 * (captures as usize + 1),
        captures,
        anchored_start,
    })
}

/// Number of instructions [`compile`] emits for `ast` (saturating): a
/// caller that defers compiling learns now whether it would fail with
/// [`Error::TooLarge`], which it does exactly when this exceeds
/// [`MAX_PROGRAM`].
pub(crate) fn program_len(ast: &Ast) -> usize {
    fn len(ast: &Ast) -> usize {
        match ast {
            Ast::Empty => 0,
            Ast::Literal(_) | Ast::AnyChar | Ast::Class(_) | Ast::StartAnchor | Ast::EndAnchor => 1,
            Ast::Group { index, inner } => {
                len(inner).saturating_add(2 * usize::from(index.is_some()))
            }
            Ast::Concat(parts) => parts.iter().fold(0, |n, p| n.saturating_add(len(p))),
            Ast::Alternate(arms) => arms
                .iter()
                .fold(2 * (arms.len().saturating_sub(1)), |n, a| n.saturating_add(len(a))),
            Ast::Repeat { inner, min, max, .. } => {
                let (body, min) = (len(inner), *min as usize);
                match max {
                    None if min == 0 => body.saturating_add(2),
                    None => body.saturating_mul(min).saturating_add(1),
                    Some(max) => body.saturating_mul(min).saturating_add(
                        (*max as usize).saturating_sub(min).saturating_mul(body.saturating_add(1)),
                    ),
                }
            }
        }
    }
    // Save(0), Save(1), Match.
    len(ast).saturating_add(3)
}

/// Whether every path through `ast` begins with `^`.
fn starts_anchored(ast: &Ast) -> bool {
    match ast {
        Ast::StartAnchor => true,
        Ast::Group { inner, .. } => starts_anchored(inner),
        Ast::Concat(parts) => parts.first().is_some_and(starts_anchored),
        Ast::Alternate(arms) => !arms.is_empty() && arms.iter().all(starts_anchored),
        Ast::Repeat { inner, min, .. } => *min >= 1 && starts_anchored(inner),
        _ => false,
    }
}

struct Compiler {
    insts: Vec<Inst>,
    ranges: Vec<(char, char)>,
    /// `(start, len)` in `ranges` of the first distinct sets stored.
    sets: Vec<(u32, u32)>,
    opts: CompileOptions,
}

impl Compiler {
    fn push(&mut self, inst: Inst) -> Result<u32, Error> {
        if self.insts.len() >= MAX_PROGRAM {
            return Err(Error::TooLarge);
        }
        self.insts.push(inst);
        Ok((self.insts.len() - 1) as u32)
    }

    fn next_pc(&self) -> u32 {
        self.insts.len() as u32
    }

    fn patch_split_second(&mut self, at: u32, to: u32) {
        if let Inst::Split(_, second) = &mut self.insts[at as usize] {
            *second = to;
        } else {
            unreachable!("patch target is not a split");
        }
    }

    fn set_split(&mut self, at: u32, first: u32, second: u32) {
        if let Inst::Split(f, s) = &mut self.insts[at as usize] {
            *f = first;
            *s = second;
        } else {
            unreachable!("patch target is not a split");
        }
    }

    fn patch_jump(&mut self, at: u32, to: u32) {
        if let Inst::Jump(t) = &mut self.insts[at as usize] {
            *t = to;
        } else {
            unreachable!("patch target is not a jump");
        }
    }

    /// A `Ranges` instruction over `set`, stored once per program however
    /// many instructions test it.
    fn ranges_inst(&mut self, set: &[(char, char)]) -> Result<Inst, Error> {
        let len = u32::try_from(set.len()).map_err(|_| Error::TooLarge)?;
        let found = self.sets.iter().find(|&&(start, l)| {
            l == len && self.ranges[start as usize..start as usize + l as usize] == *set
        });
        let start = match found {
            Some(&(start, _)) => start,
            None => {
                let start = u32::try_from(self.ranges.len()).map_err(|_| Error::TooLarge)?;
                self.ranges.extend_from_slice(set);
                if self.sets.len() < MAX_INTERNED_SETS {
                    self.sets.push((start, len));
                }
                start
            }
        };
        Ok(Inst::Ranges { start, len })
    }

    fn char_inst(&mut self, c: char) -> Result<Inst, Error> {
        if self.opts.case_insensitive && c.is_ascii_alphabetic() {
            // Sorted: every ASCII capital precedes every small letter.
            let (up, lo) = (c.to_ascii_uppercase(), c.to_ascii_lowercase());
            self.ranges_inst(&[(up, up), (lo, lo)])
        } else {
            self.ranges_inst(&[(c, c)])
        }
    }

    fn class_inst(&mut self, set: &ClassSet) -> Result<Inst, Error> {
        let mut set = set.clone();
        if self.opts.case_insensitive {
            // Fold before resolving negation so `[^a]` also excludes `A`.
            set.case_fold();
        }
        set.canonicalize();
        self.ranges_inst(&set.ranges)
    }

    fn emit(&mut self, ast: &Ast) -> Result<(), Error> {
        match ast {
            Ast::Empty => Ok(()),
            Ast::Literal(c) => {
                let inst = self.char_inst(*c)?;
                self.push(inst)?;
                Ok(())
            }
            Ast::AnyChar => {
                self.push(Inst::Any)?;
                Ok(())
            }
            Ast::Class(set) => {
                let inst = self.class_inst(set)?;
                self.push(inst)?;
                Ok(())
            }
            Ast::StartAnchor => {
                self.push(Inst::AssertStart)?;
                Ok(())
            }
            Ast::EndAnchor => {
                self.push(Inst::AssertEnd)?;
                Ok(())
            }
            Ast::Group { index, inner } => {
                if let Some(i) = index {
                    self.push(Inst::Save(2 * i))?;
                    self.emit(inner)?;
                    self.push(Inst::Save(2 * i + 1))?;
                } else {
                    self.emit(inner)?;
                }
                Ok(())
            }
            Ast::Concat(parts) => {
                for p in parts {
                    self.emit(p)?;
                }
                Ok(())
            }
            Ast::Alternate(arms) => {
                // Chain of splits; each arm ends with a jump to the join point.
                let mut jumps = Vec::with_capacity(arms.len());
                let mut pending_split: Option<u32> = None;
                for (i, arm) in arms.iter().enumerate() {
                    if let Some(split) = pending_split.take() {
                        let here = self.next_pc();
                        self.patch_split_second(split, here);
                    }
                    if i + 1 < arms.len() {
                        let split = self.push(Inst::Split(self.next_pc() + 1, 0))?;
                        pending_split = Some(split);
                    }
                    self.emit(arm)?;
                    if i + 1 < arms.len() {
                        jumps.push(self.push(Inst::Jump(0))?);
                    }
                }
                let join = self.next_pc();
                for j in jumps {
                    self.patch_jump(j, join);
                }
                Ok(())
            }
            Ast::Repeat { inner, min, max, greedy } => self.emit_repeat(inner, *min, *max, *greedy),
        }
    }

    fn emit_repeat(
        &mut self,
        inner: &Ast,
        min: u32,
        max: Option<u32>,
        greedy: bool,
    ) -> Result<(), Error> {
        match (min, max) {
            (0, Some(1)) => {
                // e? : split(body, after); greedy prefers body, lazy after.
                let split = self.push(Inst::Split(0, 0))?;
                let body = self.next_pc();
                self.emit(inner)?;
                let after = self.next_pc();
                if greedy {
                    self.set_split(split, body, after);
                } else {
                    self.set_split(split, after, body);
                }
                Ok(())
            }
            (0, None) => {
                // e* : L: split(body, after); body; jump L
                let split = self.push(Inst::Split(0, 0))?;
                let body = self.next_pc();
                self.emit(inner)?;
                self.push(Inst::Jump(split))?;
                let after = self.next_pc();
                if greedy {
                    self.set_split(split, body, after);
                } else {
                    self.set_split(split, after, body);
                }
                Ok(())
            }
            (1, None) => {
                // e+ : body; split(body, after)
                let body = self.next_pc();
                self.emit(inner)?;
                if greedy {
                    self.push(Inst::Split(body, self.next_pc() + 1))?;
                } else {
                    self.push(Inst::Split(self.next_pc() + 1, body))?;
                }
                Ok(())
            }
            (m, None) => {
                // e{m,} : m-1 copies then e+
                for _ in 0..m.saturating_sub(1) {
                    self.emit(inner)?;
                }
                self.emit_repeat(inner, 1, None, greedy)
            }
            (m, Some(n)) => {
                // e{m,n} : m mandatory copies, n-m optional (nested so that a
                // later optional is only tried when the earlier one matched).
                for _ in 0..m {
                    self.emit(inner)?;
                }
                let optional = n - m;
                let mut splits = Vec::with_capacity(optional as usize);
                for _ in 0..optional {
                    let split = self.push(Inst::Split(0, 0))?;
                    splits.push((split, self.next_pc()));
                    self.emit(inner)?;
                }
                let after = self.next_pc();
                for (split, body) in splits {
                    if greedy {
                        self.set_split(split, body, after);
                    } else {
                        self.set_split(split, after, body);
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn program(pattern: &str) -> Program {
        compile(&parse(pattern).unwrap(), CompileOptions::default()).unwrap()
    }

    #[test]
    fn literal_program_shape() {
        let p = program("ab");
        assert_eq!(
            p.insts,
            vec![
                Inst::Save(0),
                Inst::Ranges { start: 0, len: 1 },
                Inst::Ranges { start: 1, len: 1 },
                Inst::Save(1),
                Inst::Match,
            ]
        );
        assert_eq!(p.ranges, vec![('a', 'a'), ('b', 'b')]);
        assert_eq!(p.slots, 2);
    }

    #[test]
    fn capture_slots_counted() {
        let p = program("(a)(b)");
        assert_eq!(p.captures, 2);
        assert_eq!(p.slots, 6);
    }

    #[test]
    fn case_insensitive_literal_ranges() {
        let ast = parse("a").unwrap();
        let p = compile(&ast, CompileOptions { case_insensitive: true }).unwrap();
        let Inst::Ranges { start, len } = p.insts[1] else { panic!("not a ranges inst") };
        assert_eq!(p.class(start, len), [('A', 'A'), ('a', 'a')]);
    }

    #[test]
    fn repeated_range_sets_are_stored_once() {
        let ast = parse("[a-c]x[a-c]xX").unwrap();
        let p = compile(&ast, CompileOptions { case_insensitive: true }).unwrap();
        let sets: Vec<Inst> =
            p.insts.iter().copied().filter(|i| matches!(i, Inst::Ranges { .. })).collect();
        assert_eq!(sets.len(), 5);
        assert_eq!(sets[0], sets[2]);
        assert_eq!(sets[1], sets[3]);
        assert_eq!(sets[1], sets[4]);
        assert_eq!(p.ranges, vec![('A', 'C'), ('a', 'c'), ('X', 'X'), ('x', 'x')]);
        assert_eq!(std::mem::size_of::<Inst>(), 12);
    }

    #[test]
    fn anchored_start_detection() {
        assert!(program("^abc").anchored_start);
        assert!(program("^a|^b").anchored_start);
        assert!(!program("a|^b").anchored_start);
        assert!(!program("abc").anchored_start);
        assert!(program("(^a)+").anchored_start);
        assert!(!program("(^a)*x").anchored_start);
    }

    #[test]
    fn counted_repetition_expands() {
        let p = program("a{3}");
        let chars = p.insts.iter().filter(|i| matches!(i, Inst::Ranges { .. })).count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn bounded_repetition_has_optional_tail() {
        let p = program("a{1,3}");
        let chars = p.insts.iter().filter(|i| matches!(i, Inst::Ranges { .. })).count();
        let splits = p.insts.iter().filter(|i| matches!(i, Inst::Split(_, _))).count();
        assert_eq!(chars, 3);
        assert_eq!(splits, 2);
    }

    #[test]
    fn sets_past_the_search_cap_are_still_matched() {
        // 200 distinct single-character sets, then the first and the last again.
        let chars: String = (0..200u32).map(|i| char::from_u32(0x4e00 + i).unwrap()).collect();
        let first = chars.chars().next().unwrap();
        let last = chars.chars().last().unwrap();
        let ast = parse(&format!("{chars}{first}{last}")).unwrap();
        let p = compile(&ast, CompileOptions::default()).unwrap();
        let sets: Vec<Inst> =
            p.insts.iter().copied().filter(|i| matches!(i, Inst::Ranges { .. })).collect();
        assert_eq!(sets[200], sets[0], "an early set is found again");
        assert_ne!(sets[201], sets[199], "a late set is stored again, not searched for");
        assert_eq!(p.ranges.len(), 201);
        let text = format!("x{chars}{first}{last}");
        assert!(crate::pikevm::exec(&p, &text, 0, true).is_some());
    }

    #[test]
    fn program_len_counts_what_compile_emits() {
        for pattern in [
            "",
            "ab",
            "(a)(b)?",
            "a|bc|(d|)",
            "x.*y.*?z",
            "a+b*?c{3}d{2,}e{0,2}f{1,3}g{0}",
            "((?:){0,2}){0,2}",
            "^[a-c]$",
            "(motor|engine) oils?",
        ] {
            let ast = parse(pattern).unwrap();
            let emitted = compile(&ast, CompileOptions::default()).unwrap().insts.len();
            assert_eq!(program_len(&ast), emitted, "{pattern:?}");
        }
        assert!(program_len(&parse("(?:a{900}){900}").unwrap()) > MAX_PROGRAM);
    }

    #[test]
    fn program_size_guard() {
        // 900 * 900 copies would exceed MAX_PROGRAM.
        let ast = parse("(?:a{900}){900}").unwrap();
        assert!(matches!(compile(&ast, CompileOptions::default()), Err(Error::TooLarge)));
    }
}
