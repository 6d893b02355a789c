//! Compilation of the parsed [`Ast`](crate::ast::Ast) into a Thompson-NFA program.

use crate::ast::{Ast, ByteClass};

/// One NFA instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// Consume one byte if it is a member of the class, then go to the next instruction.
    Byte(ByteClass),
    /// Split execution into two threads (preference order: `prefer` first).
    Split { prefer: usize, other: usize },
    /// Unconditional jump.
    Jump(usize),
    /// Succeed only at the start of the haystack.
    AssertStart,
    /// Succeed only at the end of the haystack.
    AssertEnd,
    /// Accept the match.
    Match,
}

/// A compiled NFA program: a flat instruction list executed by the Pike VM and
/// determinised into the pattern's DFA tables (`crate::table`).
#[derive(Debug, Clone)]
pub struct Program {
    pub insts: Vec<Inst>,
    /// First-byte prefilter: the set of bytes that can begin a match. `None`
    /// when the pattern can match the empty string (a match can then start at
    /// *any* position, including end-of-haystack), which disables the filter.
    /// The Pike VM uses this to skip seeding start threads at positions that
    /// provably cannot begin a match — on log-masking workloads (short digit
    /// or hex-anchored patterns over mostly-alphabetic lines) this removes the
    /// large majority of per-byte thread-seeding work.
    pub start_bytes: Option<StartBytes>,
}

/// 256-entry membership table of the bytes a match can start with.
#[derive(Clone)]
pub struct StartBytes {
    bytes: [bool; 256],
    /// The `Byte` instructions a match attempt starts on, when no anchor lies on the
    /// way to them: the VM seeds these directly instead of walking the epsilon
    /// closure from pc 0 at every offset (a union of many rules has a large one).
    seeds: Option<Box<[usize]>>,
}

impl StartBytes {
    /// True when a match may begin with `byte`.
    #[inline]
    pub fn contains(&self, byte: u8) -> bool {
        self.bytes[byte as usize]
    }

    /// Number of member bytes (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.bytes.iter().filter(|&&b| b).count()
    }

    /// True when no byte can start a match (the pattern is unmatchable on any
    /// non-empty position set — e.g. an alternation of empty-class patterns).
    pub fn is_empty(&self) -> bool {
        !self.bytes.iter().any(|&b| b)
    }

    /// The `Byte` instructions reachable from pc 0 without reading a byte, or `None`
    /// when an anchor lies on the way (their reach then depends on the offset).
    pub(crate) fn seeds(&self) -> Option<&[usize]> {
        self.seeds.as_deref()
    }
}

impl std::fmt::Debug for StartBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StartBytes({} bytes)", self.len())
    }
}

/// Compile `ast` into a [`Program`] ending in [`Inst::Match`].
pub fn compile(ast: &Ast) -> Program {
    let insts = instructions(ast);
    let start_bytes = compute_start_bytes(&insts);
    Program { insts, start_bytes }
}

/// The instruction list of `ast`, ending in [`Inst::Match`], without the prefilter.
pub(crate) fn instructions(ast: &Ast) -> Vec<Inst> {
    let mut c = Compiler { insts: Vec::new() };
    c.emit_ast(ast);
    c.insts.push(Inst::Match);
    c.insts
}

/// Epsilon-closure walk from pc 0 collecting every byte class a match attempt
/// can consume first. Returns `None` when [`Inst::Match`] is reachable without
/// consuming a byte (the pattern matches the empty string, so no position can
/// be skipped). Anchors are traversed conservatively: an `AssertStart` only
/// *restricts* where its successors apply, so including their first bytes keeps
/// the filter sound; an `AssertEnd` reaching `Match` means an empty match at
/// end-of-haystack, which also disables the filter.
fn compute_start_bytes(insts: &[Inst]) -> Option<StartBytes> {
    let mut set = [false; 256];
    let (mut seeds, mut anchored) = (Vec::new(), false);
    let mut seen = vec![false; insts.len()];
    let mut stack = vec![0usize];
    while let Some(pc) = stack.pop() {
        if seen[pc] {
            continue;
        }
        seen[pc] = true;
        match &insts[pc] {
            Inst::Jump(target) => stack.push(*target),
            Inst::Split { prefer, other } => {
                stack.push(*prefer);
                stack.push(*other);
            }
            Inst::AssertStart | Inst::AssertEnd => {
                anchored = true;
                stack.push(pc + 1);
            }
            Inst::Byte(class) => {
                seeds.push(pc);
                for byte in 0..=255u8 {
                    if class.contains(byte) {
                        set[byte as usize] = true;
                    }
                }
            }
            Inst::Match => return None,
        }
    }
    Some(StartBytes {
        bytes: set,
        seeds: (!anchored).then(|| seeds.into_boxed_slice()),
    })
}

struct Compiler {
    insts: Vec<Inst>,
}

impl Compiler {
    fn next_pc(&self) -> usize {
        self.insts.len()
    }

    fn emit_ast(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Class(class) => {
                self.insts.push(Inst::Byte(class.clone()));
            }
            Ast::Concat(items) => {
                for item in items {
                    self.emit_ast(item);
                }
            }
            Ast::Alternate(branches) => self.emit_alternation(branches),
            Ast::Repeat { node, min, max } => self.emit_repeat(node, *min, *max),
            Ast::StartAnchor => self.insts.push(Inst::AssertStart),
            Ast::EndAnchor => self.insts.push(Inst::AssertEnd),
        }
    }

    fn emit_alternation(&mut self, branches: &[Ast]) {
        debug_assert!(branches.len() >= 2);
        // Chain of splits: each split prefers the earlier branch, giving leftmost-biased
        // thread priority (final match selection is longest-at-leftmost, see matcher).
        let mut jump_patches = Vec::new();
        for (i, branch) in branches.iter().enumerate() {
            if i + 1 < branches.len() {
                let split_pc = self.next_pc();
                self.insts.push(Inst::Split {
                    prefer: 0,
                    other: 0,
                });
                let branch_start = self.next_pc();
                self.emit_ast(branch);
                let jump_pc = self.next_pc();
                self.insts.push(Inst::Jump(0));
                jump_patches.push(jump_pc);
                let next_branch = self.next_pc();
                self.insts[split_pc] = Inst::Split {
                    prefer: branch_start,
                    other: next_branch,
                };
            } else {
                self.emit_ast(branch);
            }
        }
        let end = self.next_pc();
        for pc in jump_patches {
            self.insts[pc] = Inst::Jump(end);
        }
    }

    fn emit_repeat(&mut self, node: &Ast, min: u32, max: Option<u32>) {
        // Mandatory prefix: `min` copies.
        for _ in 0..min {
            self.emit_ast(node);
        }
        match max {
            None => {
                // Kleene star over the remaining repetitions: loop with greedy preference.
                let split_pc = self.next_pc();
                self.insts.push(Inst::Split {
                    prefer: 0,
                    other: 0,
                });
                let body_start = self.next_pc();
                self.emit_ast(node);
                self.insts.push(Inst::Jump(split_pc));
                let after = self.next_pc();
                self.insts[split_pc] = Inst::Split {
                    prefer: body_start,
                    other: after,
                };
            }
            Some(max) => {
                // `max - min` optional copies, each guarded by a greedy split.
                let optional = max.saturating_sub(min);
                let mut split_pcs = Vec::with_capacity(optional as usize);
                for _ in 0..optional {
                    let split_pc = self.next_pc();
                    self.insts.push(Inst::Split {
                        prefer: 0,
                        other: 0,
                    });
                    split_pcs.push(split_pc);
                    let body_start = self.next_pc();
                    self.emit_ast(node);
                    let body_start_copy = body_start;
                    let _ = body_start_copy;
                    self.insts[split_pc] = Inst::Split {
                        prefer: body_start,
                        other: 0, // patched below to point past the whole optional chain
                    };
                }
                let after = self.next_pc();
                for pc in split_pcs {
                    if let Inst::Split { prefer, .. } = self.insts[pc] {
                        self.insts[pc] = Inst::Split {
                            prefer,
                            other: after,
                        };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn program(pattern: &str) -> Program {
        compile(&parse(pattern).expect("parse"))
    }

    #[test]
    fn literal_compiles_to_bytes_plus_match() {
        let p = program("abc");
        assert_eq!(p.insts.len(), 4);
        assert!(matches!(p.insts[3], Inst::Match));
    }

    #[test]
    fn star_has_split_and_jump() {
        let p = program("a*");
        assert!(p.insts.iter().any(|i| matches!(i, Inst::Split { .. })));
        assert!(p.insts.iter().any(|i| matches!(i, Inst::Jump(_))));
    }

    #[test]
    fn bounded_repeat_expands() {
        let p3 = program("a{3}");
        let p1 = program("a");
        assert!(p3.insts.len() > p1.insts.len());
    }

    #[test]
    fn alternation_split_targets_are_in_bounds() {
        let p = program("(foo|bar|baz)+");
        for inst in &p.insts {
            match inst {
                Inst::Split { prefer, other } => {
                    assert!(*prefer < p.insts.len());
                    assert!(*other < p.insts.len());
                }
                Inst::Jump(t) => assert!(*t < p.insts.len()),
                _ => {}
            }
        }
    }

    #[test]
    fn anchors_compile_to_asserts() {
        let p = program("^a$");
        assert!(matches!(p.insts[0], Inst::AssertStart));
        assert!(matches!(p.insts[2], Inst::AssertEnd));
    }
}
