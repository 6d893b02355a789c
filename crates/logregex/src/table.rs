//! Per-pattern DFA tables: two subset constructions over byte equivalence classes that
//! together find exactly the Pike VM's leftmost-longest match, in linear time.
//!
//! [`Regex::new`](crate::Regex::new) builds one [`DfaTable`] per pattern, eagerly, and
//! never changes it; clones share it through an `Arc`, so pool workers search it
//! without a lock. Columns are byte classes (bytes no instruction of the program tells
//! apart share a column), so the default mask rules need 3–10 columns each.
//!
//! A search makes two passes:
//!
//! * **Forward, to the match end.** The forward table determinises the VM itself, not
//!   just its NFA: a state is the VM's thread list cut into *groups* by start offset
//!   (earliest first, an instruction owned by the earliest group that reaches it), plus
//!   whether a match has been seen. Reading a byte advances every group, cuts the groups
//!   after the first one that reaches `Match` (a later start can no longer win), and —
//!   until a match is seen — opens a group for a match starting at the next offset. The
//!   last offset at which a state accepts is the VM's match end; the pass stops when no
//!   group is left, where the VM stops.
//! * **Backward, to the match start.** The reversed pattern's anchored table runs from
//!   the end down to the search offset; the lowest offset at which it accepts is the
//!   leftmost start of a match ending there, which is the VM's start (no match starts
//!   further left).
//!
//! Each pass reads every byte at most once, so a search costs at most twice the bytes
//! the VM reads, with no step budget and no restart. A pattern whose table would need
//! more than [`MAX_STATES`] states per direction (or more construction work than
//! [`MAX_BUILD_WORK`]) has no table and runs on the VM alone.

use crate::ast::Ast;
use crate::compile::{instructions, Inst, Program};
use crate::Match;
use std::collections::{HashMap, HashSet};

/// Most states one direction's table may hold; past it the pattern has no table and
/// always runs on the VM (`(a|b)*a(a|b){12}` needs 2¹³).
pub(crate) const MAX_STATES: usize = 2048;

/// Most NFA-instruction visits (plus table cells) one construction may spend before it
/// gives up, so a huge program (nested bounded repeats) costs milliseconds at
/// `Regex::new`, not seconds.
const MAX_BUILD_WORK: usize = 1 << 20;

/// The dead state: no thread is left, so nothing can change the answer any more.
const DEAD: u16 = 0;

/// State flag: a match ends at the offset where this state was entered.
const ACCEPT: u8 = 1;
/// State flag: a match ends here if this is the end of the input (`ACCEPT`, or a path
/// through `$` — `^` in the reversed pattern — to the match instruction).
const ACCEPT_AT_END: u8 = 2;

/// Terminates each thread group in a forward state's interning key.
const GROUP_END: u32 = u32::MAX;

/// The forward and backward tables of one pattern.
pub(crate) struct DfaTable {
    /// Equivalence class of every byte value (shared: both programs consume the same
    /// classes).
    classes: [u8; 256],
    /// Number of classes: the width of one row.
    stride: usize,
    /// Finds where the leftmost-longest match ends.
    forward: Rows,
    /// The reversed pattern, anchored: finds where that match starts.
    reverse: Rows,
    /// Bytes that move the forward pass off its idle state (nothing alive but the
    /// group opened at the current offset); the pass skips every other byte.
    can_start: [bool; 256],
    /// Whether the empty haystack matches (`^` and `$` both hold at offset 0).
    empty_haystack_matches: bool,
}

/// One direction's transition table.
struct Rows {
    /// `next[state * stride + class]`: the state after reading a byte of `class`.
    next: Box<[u16]>,
    /// `ACCEPT` / `ACCEPT_AT_END` bits per state.
    flags: Box<[u8]>,
    /// Initial state at an offset where the leading anchor (`^` forward, `$` backward)
    /// cannot hold.
    start: u16,
    /// Initial state at the input's first offset (forward) or last offset (backward).
    start_at_edge: u16,
}

impl Rows {
    #[inline]
    fn accepts(&self, state: u16, flag: u8) -> bool {
        self.flags[state as usize] & flag != 0
    }
}

impl std::fmt::Debug for DfaTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DfaTable({} + {} states × {} classes)",
            self.forward.flags.len(),
            self.reverse.flags.len(),
            self.stride
        )
    }
}

impl DfaTable {
    /// Build the tables of `ast` (compiled to `program`), or `None` when either
    /// direction needs more than `max_states` states or the construction more work
    /// than [`MAX_BUILD_WORK`].
    pub(crate) fn build(ast: &Ast, program: &Program, max_states: usize) -> Option<DfaTable> {
        let (classes, representatives) = byte_classes(&program.insts);
        let stride = representatives.len();
        let mut work = 0;
        let forward = build_forward(&program.insts, &representatives, max_states, &mut work)?;
        let reversed = instructions(&ast.reversed());
        let reverse = build_anchored(&reversed, &representatives, max_states, &mut work)?;

        let start_row = forward.start as usize * stride;
        let idle = !forward.accepts(forward.start, ACCEPT);
        let mut can_start = [true; 256];
        for (byte, slot) in can_start.iter_mut().enumerate() {
            *slot = !(idle && forward.next[start_row + classes[byte] as usize] == forward.start);
        }
        let mut closure = Closure::new(&program.insts);
        let mut empty = Vec::new();
        closure.scope();
        closure.extend(&[0], true, true, &mut empty);
        Some(DfaTable {
            classes,
            stride,
            empty_haystack_matches: closure.contains_match(&empty),
            forward,
            reverse,
            can_start,
        })
    }

    /// Number of states over both directions, the two dead states included.
    pub(crate) fn states(&self) -> usize {
        self.forward.flags.len() + self.reverse.flags.len()
    }

    /// Leftmost-longest match starting at or after `from`.
    pub(crate) fn find_at(&self, haystack: &[u8], from: usize) -> Option<Match> {
        if from > haystack.len() {
            return None;
        }
        if haystack.is_empty() {
            return self
                .empty_haystack_matches
                .then_some(Match { start: 0, end: 0 });
        }
        let end = self.match_end(haystack, from)?;
        let start = self.match_start(haystack, from, end);
        Some(Match { start, end })
    }

    #[inline]
    fn step(&self, rows: &Rows, state: u16, byte: u8) -> u16 {
        rows.next[state as usize * self.stride + self.classes[byte as usize] as usize]
    }

    /// Forward pass: the end of the leftmost-longest match starting at or after `from`.
    fn match_end(&self, haystack: &[u8], from: usize) -> Option<usize> {
        let rows = &self.forward;
        let len = haystack.len();
        let mut state = if from == 0 {
            rows.start_at_edge
        } else {
            rows.start
        };
        let mut end = rows.accepts(state, ACCEPT).then_some(from);
        let mut pos = from;
        while pos < len {
            if state == rows.start {
                while pos < len && !self.can_start[haystack[pos] as usize] {
                    pos += 1;
                }
                if pos == len {
                    break;
                }
            }
            state = self.step(rows, state, haystack[pos]);
            pos += 1;
            if state == DEAD {
                return end;
            }
            if rows.accepts(state, ACCEPT) {
                end = Some(pos);
            }
        }
        if rows.accepts(state, ACCEPT_AT_END) {
            end = Some(len);
        }
        end
    }

    /// Backward pass: the lowest offset in `from..=end` at which a match ending at
    /// `end` starts.
    fn match_start(&self, haystack: &[u8], from: usize, end: usize) -> usize {
        if end == from {
            return from;
        }
        let rows = &self.reverse;
        let mut state = if end == haystack.len() {
            rows.start_at_edge
        } else {
            rows.start
        };
        let mut start = rows.accepts(state, ACCEPT).then_some(end);
        let mut pos = end;
        while pos > from {
            state = self.step(rows, state, haystack[pos - 1]);
            if state == DEAD {
                break;
            }
            pos -= 1;
            if rows.accepts(state, ACCEPT) {
                start = Some(pos);
            }
        }
        if pos == 0 && rows.accepts(state, ACCEPT_AT_END) {
            start = Some(0);
        }
        start.expect("the forward pass saw a match end here")
    }
}

/// Partition the 256 byte values into the classes no `Byte` instruction tells apart.
/// Returns each byte's class and one representative byte per class.
fn byte_classes(insts: &[Inst]) -> ([u8; 256], Vec<u8>) {
    let mut class_of = [0u16; 256];
    let mut count = 1usize;
    let mut refined = HashSet::new();
    for inst in insts {
        let Inst::Byte(class) = inst else {
            continue;
        };
        if !refined.insert(&class.ranges[..]) {
            continue;
        }
        // Split every current class into its members inside and outside `class`.
        let mut inside = [false; 256];
        for &(lo, hi) in &class.ranges {
            inside[lo as usize..=hi as usize].fill(true);
        }
        let mut renumber = vec![u16::MAX; 2 * count];
        let mut next = 0u16;
        for byte in 0..256 {
            let key = 2 * class_of[byte] as usize + usize::from(inside[byte]);
            if renumber[key] == u16::MAX {
                renumber[key] = next;
                next += 1;
            }
            class_of[byte] = renumber[key];
        }
        count = next as usize;
    }
    let mut classes = [0u8; 256];
    let mut representatives = Vec::with_capacity(count);
    for byte in 0..=255u8 {
        let class = class_of[byte as usize];
        classes[byte as usize] = class as u8;
        if class as usize == representatives.len() {
            representatives.push(byte);
        }
    }
    (classes, representatives)
}

/// For every instruction of `insts`, the byte classes it consumes, as a bitset over
/// class ids (empty for every kind but `Byte`).
fn consumed_classes(insts: &[Inst], representatives: &[u8]) -> Vec<[u64; 4]> {
    insts
        .iter()
        .map(|inst| {
            let mut classes = [0u64; 4];
            if let Inst::Byte(class) = inst {
                for (c, &byte) in representatives.iter().enumerate() {
                    if class.contains(byte) {
                        classes[c / 64] |= 1 << (c % 64);
                    }
                }
            }
            classes
        })
        .collect()
}

/// Whether `class` is in the bitset `classes`.
fn consumes(classes: &[u64; 4], class: usize) -> bool {
    classes[class / 64] & (1 << (class % 64)) != 0
}

/// The anchored table of the program `insts`: a state is the set of instructions a
/// run started at one fixed offset waits on.
fn build_anchored(
    insts: &[Inst],
    representatives: &[u8],
    max_states: usize,
    work: &mut usize,
) -> Option<Rows> {
    let consumed = consumed_classes(insts, representatives);
    let stride = representatives.len();
    let mut closure = Closure::new(insts);
    let mut states = Interner::new(max_states);
    let mut key = Vec::new();
    closure.scope();
    closure.extend(&[0], false, false, &mut key);
    let start = states.intern(&key)?;
    key.clear();
    closure.scope();
    closure.extend(&[0], true, false, &mut key);
    let start_at_edge = states.intern(&key)?;

    // Row 0 is the dead state: every class loops back to it.
    let mut next = vec![DEAD; stride];
    let mut flags = vec![0u8];
    let mut seeds = Vec::new();
    let mut state = 1;
    while state < states.keys.len() {
        let set = std::mem::take(&mut states.keys[state]);
        flags.push(if closure.contains_match(&set) {
            ACCEPT | ACCEPT_AT_END
        } else if closure.accepts_at_end(&set) {
            ACCEPT_AT_END
        } else {
            0
        });
        for class in 0..stride {
            seeds.clear();
            seeds.extend(
                set.iter()
                    .filter(|&&pc| consumes(&consumed[pc as usize], class))
                    .map(|&pc| pc + 1),
            );
            key.clear();
            closure.scope();
            closure.extend(&seeds, false, false, &mut key);
            next.push(states.intern(&key)?);
        }
        *work += closure.take_work() + stride;
        if *work > MAX_BUILD_WORK {
            return None;
        }
        state += 1;
    }
    Some(Rows {
        next: next.into_boxed_slice(),
        flags: flags.into_boxed_slice(),
        start,
        start_at_edge,
    })
}

/// The forward table of the program `insts`: a state is the VM's thread list at one offset,
/// grouped by start offset (see the module docs). Its interning key is
/// `[matched, group₁…, GROUP_END, group₂…, GROUP_END, …]`.
fn build_forward(
    insts: &[Inst],
    representatives: &[u8],
    max_states: usize,
    work: &mut usize,
) -> Option<Rows> {
    let consumed = consumed_classes(insts, representatives);
    let stride = representatives.len();
    let mut closure = Closure::new(insts);
    let mut states = Interner::new(max_states);
    let mut key = Vec::new();
    let mut opening = |closure: &mut Closure, at_edge: bool| {
        key.clear();
        key.push(0);
        closure.scope();
        closure.extend(&[0], at_edge, false, &mut key);
        key[0] = u32::from(closure.contains_match(&key[1..]));
        key.push(GROUP_END);
        states.intern(&key)
    };
    let start = opening(&mut closure, false)?;
    let start_at_edge = opening(&mut closure, true)?;

    let mut next = vec![DEAD; stride];
    let mut flags = vec![0u8];
    let mut seeds = Vec::new();
    let mut state = 1;
    while state < states.keys.len() {
        let current = std::mem::take(&mut states.keys[state]);
        let matched = current[0] == 1;
        let groups: Vec<&[u32]> = current[1..current.len() - 1]
            .split(|&pc| pc == GROUP_END)
            .collect();
        // A group holding `Match` is the last one: later groups were cut.
        flags.push(if closure.contains_match(&current[1..]) {
            ACCEPT | ACCEPT_AT_END
        } else if groups.iter().any(|group| closure.accepts_at_end(group)) {
            ACCEPT_AT_END
        } else {
            0
        });
        for class in 0..stride {
            // One scope per step: an instruction an earlier group reaches is that
            // group's, as the VM admits the earliest start at each instruction.
            closure.scope();
            key.clear();
            key.push(0);
            let mut now_matched = matched;
            for group in &groups {
                seeds.clear();
                seeds.extend(
                    group
                        .iter()
                        .filter(|&&pc| consumes(&consumed[pc as usize], class))
                        .map(|&pc| pc + 1),
                );
                let from = key.len();
                if closure.extend(&seeds, false, false, &mut key) == 0 {
                    continue;
                }
                let hit = closure.contains_match(&key[from..]);
                key.push(GROUP_END);
                if hit {
                    // Later starts can no longer win.
                    now_matched = true;
                    break;
                }
            }
            if !now_matched {
                let from = key.len();
                if closure.extend(&[0], false, false, &mut key) > 0 {
                    now_matched = closure.contains_match(&key[from..]);
                    key.push(GROUP_END);
                }
            }
            key[0] = u32::from(now_matched);
            next.push(if key.len() == 1 {
                DEAD
            } else {
                states.intern(&key)?
            });
        }
        *work += closure.take_work() + stride;
        if *work > MAX_BUILD_WORK {
            return None;
        }
        state += 1;
    }
    Some(Rows {
        next: next.into_boxed_slice(),
        flags: flags.into_boxed_slice(),
        start,
        start_at_edge,
    })
}

/// Interns state keys to ids; id 0 is the dead state and is never interned.
struct Interner {
    ids: HashMap<Box<[u32]>, u16>,
    /// Key of each state; taken (left empty) once the state's row is built.
    keys: Vec<Box<[u32]>>,
    max_states: usize,
}

impl Interner {
    fn new(max_states: usize) -> Self {
        Interner {
            ids: HashMap::default(),
            keys: vec![Box::default()],
            max_states,
        }
    }

    /// The id of `key` (the dead state for an empty one); `None` past the state cap.
    fn intern(&mut self, key: &[u32]) -> Option<u16> {
        if key.is_empty() {
            return Some(DEAD);
        }
        if let Some(&id) = self.ids.get(key) {
            return Some(id);
        }
        if self.keys.len() >= self.max_states {
            return None;
        }
        let id = self.keys.len() as u16;
        self.ids.insert(key.into(), id);
        self.keys.push(key.into());
        Some(id)
    }
}

/// Epsilon closures over one program, deduplicated within a scope.
struct Closure<'p> {
    insts: &'p [Inst],
    seen: Vec<u32>,
    generation: u32,
    stack: Vec<u32>,
    work: usize,
}

impl<'p> Closure<'p> {
    fn new(insts: &'p [Inst]) -> Self {
        Closure {
            insts,
            seen: vec![0; insts.len()],
            generation: 0,
            stack: Vec::new(),
            work: 0,
        }
    }

    /// Start a new scope: until the next call, an instruction reached once is not
    /// reached again.
    fn scope(&mut self) {
        self.generation += 1;
    }

    /// Instructions visited since the last call.
    fn take_work(&mut self) -> usize {
        std::mem::take(&mut self.work)
    }

    /// Append to `out` the instructions reachable from `seeds` without reading a byte
    /// and not yet reached in this scope, sorted, keeping those that wait on the input:
    /// `Byte`, `Match`, and — unless `pass_end` — `$`. `^` holds only when
    /// `pass_start`; `$` is followed only when `pass_end`. Returns how many.
    fn extend(
        &mut self,
        seeds: &[u32],
        pass_start: bool,
        pass_end: bool,
        out: &mut Vec<u32>,
    ) -> usize {
        let from = out.len();
        self.stack.extend_from_slice(seeds);
        while let Some(pc) = self.stack.pop() {
            if self.seen[pc as usize] == self.generation {
                continue;
            }
            self.seen[pc as usize] = self.generation;
            self.work += 1;
            match &self.insts[pc as usize] {
                Inst::Jump(target) => self.stack.push(*target as u32),
                Inst::Split { prefer, other } => {
                    self.stack.push(*prefer as u32);
                    self.stack.push(*other as u32);
                }
                Inst::AssertStart => {
                    if pass_start {
                        self.stack.push(pc + 1);
                    }
                }
                Inst::AssertEnd if pass_end => self.stack.push(pc + 1),
                Inst::AssertEnd | Inst::Byte(_) | Inst::Match => out.push(pc),
            }
        }
        out[from..].sort_unstable();
        out.len() - from
    }

    fn contains_match(&self, set: &[u32]) -> bool {
        set.iter()
            .any(|&pc| pc != GROUP_END && matches!(self.insts[pc as usize], Inst::Match))
    }

    /// Whether `set` holds `Match` or reaches it through its pending `$`s at the end of
    /// the input. That end is never offset 0 here (the empty haystack is decided on its
    /// own), so `^` fails on the way.
    fn accepts_at_end(&mut self, set: &[u32]) -> bool {
        if self.contains_match(set) {
            return true;
        }
        let pending: Vec<u32> = set
            .iter()
            .copied()
            .filter(|&pc| pc != GROUP_END && matches!(self.insts[pc as usize], Inst::AssertEnd))
            .collect();
        if pending.is_empty() {
            return false;
        }
        let mut reached = Vec::new();
        self.scope();
        self.extend(&pending, false, true, &mut reached);
        self.contains_match(&reached)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::matcher;
    use crate::parser::parse;

    fn table(pattern: &str, max_states: usize) -> Option<DfaTable> {
        let ast = parse(pattern).unwrap();
        DfaTable::build(&ast, &compile(&ast), max_states)
    }

    #[test]
    fn byte_classes_merge_bytes_no_instruction_tells_apart() {
        let t = table(r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}", MAX_STATES).unwrap();
        // Hex digits, `-`, everything else.
        assert_eq!(t.stride, 3);
        assert_eq!(t.classes[b'a' as usize], t.classes[b'7' as usize]);
        assert_ne!(t.classes[b'-' as usize], t.classes[b'g' as usize]);
        assert_eq!(t.classes[b'g' as usize], t.classes[0xE7]);
    }

    #[test]
    fn state_cap_leaves_the_pattern_to_the_vm() {
        assert!(table(r"\d+ms", 1).is_none());
        assert!(table(r"(a|b)*a(a|b){12}", MAX_STATES).is_none());
        assert!(table(r"\d+ms", MAX_STATES).is_some());
    }

    #[test]
    fn unmatchable_pattern_never_leaves_its_idle_state() {
        let t = table(r"[^\x00-\xff]", MAX_STATES).unwrap();
        assert!(!t.can_start.iter().any(|&b| b));
        assert_eq!(t.find_at(b"anything", 0), None);
    }

    #[test]
    fn anchors_follow_the_offset() {
        let t = table("^a|b$|^$", MAX_STATES).unwrap();
        assert_eq!(t.find_at(b"", 0), Some(Match { start: 0, end: 0 }));
        assert_eq!(t.find_at(b"ab", 0), Some(Match { start: 0, end: 1 }));
        assert_eq!(t.find_at(b"ab", 1), Some(Match { start: 1, end: 2 }));
        assert_eq!(t.find_at(b"ba", 0), None);
    }

    #[test]
    fn a_later_start_cannot_outrun_the_leftmost_one() {
        // `c` ends first, but the match starting at 0 is the VM's answer.
        let t = table("abcd|c", MAX_STATES).unwrap();
        assert_eq!(t.find_at(b"xabcd", 0), Some(Match { start: 1, end: 5 }));
        assert_eq!(t.find_at(b"xabce", 0), Some(Match { start: 3, end: 4 }));
    }

    #[test]
    fn long_digit_runs_agree_with_the_vm() {
        // Digit runs every start of which walks to the run's end: the VM's threads all
        // live as long, and one forward group per start offset is what the table holds.
        let pattern = r"\d+(\.\d+)?(KB|MB|GB|TB|kb|mb|gb|B)";
        let ast = parse(pattern).unwrap();
        let program = compile(&ast);
        let t = DfaTable::build(&ast, &program, MAX_STATES).unwrap();
        for hay in [
            format!("{} B", "1".repeat(2_000)),
            format!("x {}KB", "7".repeat(2_000)),
        ] {
            let vm = matcher::find_at(&program, hay.as_bytes(), 0, hay.len());
            assert_eq!(t.find_at(hay.as_bytes(), 0), vm);
        }
    }
}
