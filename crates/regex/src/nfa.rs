//! Thompson NFA compiler: turns an [`Ast`] into a linear instruction program
//! executed by the Pike VM.

use crate::ast::{Ast, ClassSet};
use crate::Error;

/// Hard cap on compiled program size, guarding against pathological counted
/// repetition blow-up (`(a{900}){900}` style).
const MAX_PROGRAM: usize = 1 << 18;

/// One NFA instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// Consume one character if it falls into one of the (sorted, merged)
    /// inclusive ranges, then go to the next instruction.
    Ranges(Box<[(char, char)]>),
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
    /// Number of capture slots (2 × (capturing groups + 1)).
    pub slots: usize,
    /// Number of capturing groups, excluding the implicit group 0.
    pub captures: u32,
    /// Whether every match must begin at position 0 (pattern starts with `^`
    /// on every alternation path).
    pub anchored_start: bool,
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
    let mut c = Compiler { insts: Vec::new(), opts };
    c.push(Inst::Save(0))?;
    c.emit(ast)?;
    c.push(Inst::Save(1))?;
    c.push(Inst::Match)?;
    let anchored_start = starts_anchored(ast);
    // A rule set keeps one program per pattern: no doubling slack.
    c.insts.shrink_to_fit();
    Ok(Program { insts: c.insts, slots: 2 * (captures as usize + 1), captures, anchored_start })
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

    fn char_inst(&self, c: char) -> Inst {
        if self.opts.case_insensitive && c.is_ascii_alphabetic() {
            let lo = c.to_ascii_lowercase();
            let up = c.to_ascii_uppercase();
            let mut ranges = vec![(up, up), (lo, lo)];
            ranges.sort_unstable();
            Inst::Ranges(ranges.into_boxed_slice())
        } else {
            Inst::Ranges(Box::new([(c, c)]))
        }
    }

    fn class_inst(&self, set: &ClassSet) -> Inst {
        let mut set = set.clone();
        if self.opts.case_insensitive {
            // Fold before resolving negation so `[^a]` also excludes `A`.
            set.case_fold();
        }
        set.canonicalize();
        Inst::Ranges(set.ranges.into_boxed_slice())
    }

    fn emit(&mut self, ast: &Ast) -> Result<(), Error> {
        match ast {
            Ast::Empty => Ok(()),
            Ast::Literal(c) => {
                let inst = self.char_inst(*c);
                self.push(inst)?;
                Ok(())
            }
            Ast::AnyChar => {
                self.push(Inst::Any)?;
                Ok(())
            }
            Ast::Class(set) => {
                let inst = self.class_inst(set);
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
                Inst::Ranges(Box::new([('a', 'a')])),
                Inst::Ranges(Box::new([('b', 'b')])),
                Inst::Save(1),
                Inst::Match,
            ]
        );
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
        assert_eq!(p.insts[1], Inst::Ranges(Box::new([('A', 'A'), ('a', 'a')])));
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
        let chars = p.insts.iter().filter(|i| matches!(i, Inst::Ranges(_))).count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn bounded_repetition_has_optional_tail() {
        let p = program("a{1,3}");
        let chars = p.insts.iter().filter(|i| matches!(i, Inst::Ranges(_))).count();
        let splits = p.insts.iter().filter(|i| matches!(i, Inst::Split(_, _))).count();
        assert_eq!(chars, 3);
        assert_eq!(splits, 2);
    }

    #[test]
    fn program_size_guard() {
        // 900 * 900 copies would exceed MAX_PROGRAM.
        let ast = parse("(?:a{900}){900}").unwrap();
        assert!(matches!(compile(&ast, CompileOptions::default()), Err(Error::TooLarge)));
    }
}
