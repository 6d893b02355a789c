//! Per-pattern DFA tables, built lazily: two subset constructions over byte equivalence
//! classes that together find exactly the Pike VM's leftmost-longest match, in linear
//! time.
//!
//! [`Regex::new`](crate::Regex::new) makes one [`DfaTable`] per pattern and builds only
//! its start states. Every other transition is computed the first time a search needs
//! it, as in RE2's lazy DFA or regex-automata's `hybrid::dfa`, and never changes after.
//! The table lives behind the `Arc` that clones of the pattern share, so every pool
//! worker and every parser warms and reads one table: a filled transition is read
//! without a lock, and a missing one is filled under the table's one mutex. Columns
//! are byte classes (bytes no instruction of the program tells apart share a column).
//!
//! Each direction may intern at most [`MAX_STATES`] states. A search that needs one
//! more gives up, and [`Regex`](crate::Regex) finishes it on the Pike VM, with the same
//! answer; the states already built keep serving every search that stays on them.
//! `Regex::new` therefore costs the same whatever a pattern's state count.
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
//! Each pass reads every byte at most once. Within one `find_iter`, a forward pass may
//! still run far past its match end (a thread of `\d+B` outlives every `\d{2}` match
//! of a digit run), and the next pass would read those bytes again. A [`Trail`] stops
//! that: a pass that runs more than [`TRAIL_LAG`] bytes past its first accept records
//! its state at each offset, and a later pass that holds the recorded state at an
//! offset past the recording pass's last accept stops there — its future is that
//! pass's, which accepted nothing more.

use crate::ast::Ast;
use crate::compile::{instructions, Inst, Program};
use crate::Match;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Most states one direction may intern. A search that needs another finishes on the
/// VM (`(a|b)*a(a|b){12}` needs 2¹³ forward states on a long enough haystack).
pub(crate) const MAX_STATES: usize = 4096;

/// How far past its first accept a forward pass runs before it records a [`Trail`].
/// Shorter runs cost their next pass at most this many bytes again.
pub(crate) const TRAIL_LAG: usize = 32;

/// Rows per allocation: a direction's rows are allocated this many at a time, so a
/// table holds memory for the states it has built, not for its budget.
const CHUNK_ROWS: usize = 256;

// A transition cell holds its target state *encoded*: the offset of the state's row
// (its id times the stride) above `ROW_SHIFT`, the `KNOWN` bit, and the target's
// accept flags, so a step needs neither a multiply nor a second lookup. A zero cell
// has not been computed yet.

/// A transition not computed yet.
const UNKNOWN: u32 = 0;
/// State flag: a match ends at the offset where this state was entered.
const ACCEPT: u32 = 1;
/// State flag: a match ends here if this is the end of the input (`ACCEPT`, or a path
/// through `$` — `^` in the reversed pattern — to the match instruction).
const ACCEPT_AT_END: u32 = 2;
/// Set in every computed cell, so that no encoded state is `UNKNOWN`.
const KNOWN: u32 = 4;
const ROW_SHIFT: u32 = 3;
/// The dead state (id 0, row 0): no thread is left, so nothing can change the answer any more.
const DEAD: u32 = KNOWN;

/// Terminates each thread group in a forward state's interning key.
const GROUP_END: u32 = u32::MAX;

/// The row offset of an encoded state.
#[inline]
fn row_of(state: u32) -> usize {
    (state >> ROW_SHIFT) as usize
}

/// A search needed a state past the budget: the caller finishes it on the VM.
#[derive(Debug)]
pub(crate) struct Exhausted;

#[derive(Clone, Copy)]
enum Dir {
    Forward,
    Reverse,
}

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
    /// What computes a missing transition. Only a miss takes the lock.
    builder: Mutex<Builder>,
}

/// One direction's transition cells, read without a lock.
struct Rows {
    /// The rows of the first `CHUNK_ROWS` states: `first[id * stride + class]` is the
    /// encoded state after reading a byte of `class` in state `id`. States are numbered
    /// in the order searches first reach them, so the busiest ones live here, read with
    /// no further indirection.
    first: Box<[AtomicU32]>,
    /// The rows of later states, `CHUNK_ROWS` per chunk: state `id`'s row is row
    /// `id % CHUNK_ROWS` of `rest[id / CHUNK_ROWS - 1]`. A chunk is allocated (under
    /// the builder's lock) before any cell names a state in it, and a cell is stored
    /// with `Release` after its target's chunk exists; a search loads it with
    /// `Acquire`, so the chunk a loaded cell names is always visible.
    rest: Box<[OnceLock<Box<[AtomicU32]>>]>,
    /// Initial state at an offset where the leading anchor (`^` forward, `$` backward)
    /// cannot hold.
    start: u32,
    /// Initial state at the input's first offset (forward) or last offset (backward).
    start_at_edge: u32,
}

impl Rows {
    /// The cell of the state whose row starts at `row` on `class`. `first` is
    /// `self.first`, which a pass holds on to: the bounds check on it is the test for
    /// the first chunk.
    #[inline]
    fn cell<'r>(&'r self, first: &'r [AtomicU32], row: usize, class: usize) -> &'r AtomicU32 {
        match first.get(row + class) {
            Some(cell) => cell,
            None => {
                let chunk = self.rest[row / first.len() - 1]
                    .get()
                    .expect("a state's rows are allocated before the state is named");
                &chunk[row % first.len() + class]
            }
        }
    }
}

impl std::fmt::Debug for DfaTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DfaTable({} states built × {} classes)",
            self.states(),
            self.stride
        )
    }
}

impl DfaTable {
    /// The table of `ast` (compiled to `program`), with its start states built and each
    /// direction limited to `max_states` states.
    pub(crate) fn build(ast: &Ast, program: &Program, max_states: usize) -> DfaTable {
        let (classes, representatives) = byte_classes(&program.insts);
        let stride = representatives.len();
        let mut forward = Side::new(program.insts.clone(), &representatives, true, max_states);
        let mut reverse = Side::new(
            instructions(&ast.reversed()),
            &representatives,
            false,
            max_states,
        );
        let forward_rows = forward.rows(stride);
        let reverse_rows = reverse.rows(stride);
        let mut empty = Vec::new();
        forward.closure.scope();
        forward.closure.extend(&[0], true, true, &mut empty);
        let mut table = DfaTable {
            classes,
            stride,
            forward: forward_rows,
            reverse: reverse_rows,
            can_start: [true; 256],
            empty_haystack_matches: forward.closure.contains_match(&empty),
            builder: Mutex::new(Builder { forward, reverse }),
        };
        // The idle skip needs the start state's whole row.
        let start = table.forward.start;
        if start & ACCEPT == 0 {
            let moves: Vec<bool> = (0..stride)
                .map(|class| {
                    table
                        .fill(Dir::Forward, row_of(start), class)
                        .map_or(true, |next| next != start)
                })
                .collect();
            for (byte, slot) in table.can_start.iter_mut().enumerate() {
                *slot = moves[classes[byte] as usize];
            }
        }
        table
    }

    /// Number of states built so far over both directions, the two dead states
    /// included.
    pub(crate) fn states(&self) -> usize {
        let builder = self
            .builder
            .lock()
            .expect("no search panics holding the builder");
        builder.forward.keys.len() + builder.reverse.keys.len()
    }

    /// Leftmost-longest match starting at or after `from`, or [`Exhausted`] when the
    /// search needed a state past the budget. `trail` carries the forward states of
    /// earlier passes of one iteration over this `haystack`; the caller settles it
    /// with the answer ([`Trail::settle`]).
    pub(crate) fn find_at(
        &self,
        haystack: &[u8],
        from: usize,
        trail: &mut Trail,
    ) -> Result<Option<Match>, Exhausted> {
        if from > haystack.len() {
            return Ok(None);
        }
        if haystack.is_empty() {
            return Ok(self
                .empty_haystack_matches
                .then_some(Match { start: 0, end: 0 }));
        }
        let Some(end) = self.match_end(haystack, from, trail)? else {
            return Ok(None);
        };
        let start = self.match_start(haystack, from, end)?;
        Ok(Some(Match { start, end }))
    }

    #[inline]
    fn rows(&self, dir: Dir) -> &Rows {
        match dir {
            Dir::Forward => &self.forward,
            Dir::Reverse => &self.reverse,
        }
    }

    /// The encoded state after reading `byte` in `state`, computed now if no search
    /// has needed it yet. `first` is the direction's first chunk.
    #[inline]
    fn step(&self, dir: Dir, first: &[AtomicU32], state: u32, byte: u8) -> Result<u32, Exhausted> {
        let class = self.classes[byte as usize] as usize;
        let row = row_of(state);
        let cell = self
            .rows(dir)
            .cell(first, row, class)
            .load(Ordering::Acquire);
        if cell != UNKNOWN {
            return Ok(cell);
        }
        self.fill(dir, row, class)
    }

    /// Compute and store the transition on `class` of the state whose row starts at
    /// `row`, under the lock.
    #[cold]
    #[inline(never)]
    fn fill(&self, dir: Dir, row: usize, class: usize) -> Result<u32, Exhausted> {
        let mut builder = self
            .builder
            .lock()
            .expect("no search panics holding the builder");
        let rows = self.rows(dir);
        let cell = rows.cell(&rows.first, row, class);
        // Another search may have filled it while this one waited for the lock.
        let known = cell.load(Ordering::Acquire);
        if known != UNKNOWN {
            return Ok(known);
        }
        let side = match dir {
            Dir::Forward => &mut builder.forward,
            Dir::Reverse => &mut builder.reverse,
        };
        let target = side.successor(row / self.stride, class, rows, self.stride)?;
        cell.store(target, Ordering::Release);
        Ok(target)
    }

    /// Forward pass: the end of the leftmost-longest match starting at or after `from`.
    fn match_end(
        &self,
        haystack: &[u8],
        from: usize,
        trail: &mut Trail,
    ) -> Result<Option<usize>, Exhausted> {
        let (rows, len) = (&self.forward, haystack.len());
        let first = &rows.first[..];
        let mut state = if from == 0 {
            rows.start_at_edge
        } else {
            rows.start
        };
        let mut end = (state & ACCEPT != 0).then_some(from);
        let mut first_accept = from;
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
            state = self.step(Dir::Forward, first, state, haystack[pos])?;
            pos += 1;
            if state == DEAD {
                return Ok(end);
            }
            if state & ACCEPT != 0 {
                if end.is_none() {
                    first_accept = pos;
                }
                end = Some(pos);
            } else if end.is_some() {
                if trail.holds(pos, state) {
                    return Ok(end);
                }
                if pos - first_accept > TRAIL_LAG {
                    trail.record(pos, state);
                }
            }
        }
        if state & ACCEPT_AT_END != 0 {
            end = Some(len);
        }
        Ok(end)
    }

    /// Backward pass: the lowest offset in `from..=end` at which a match ending at
    /// `end` starts.
    fn match_start(&self, haystack: &[u8], from: usize, end: usize) -> Result<usize, Exhausted> {
        if end == from {
            return Ok(from);
        }
        let rows = &self.reverse;
        let first = &rows.first[..];
        let mut state = if end == haystack.len() {
            rows.start_at_edge
        } else {
            rows.start
        };
        let mut start = (state & ACCEPT != 0).then_some(end);
        let mut pos = end;
        while pos > from {
            state = self.step(Dir::Reverse, first, state, haystack[pos - 1])?;
            if state == DEAD {
                break;
            }
            pos -= 1;
            if state & ACCEPT != 0 {
                start = Some(pos);
            }
        }
        if pos == 0 && state & ACCEPT_AT_END != 0 {
            start = Some(0);
        }
        Ok(start.expect("the forward pass saw a match end here"))
    }
}

impl Rows {
    /// Rows for `max_states` states of `stride` classes, the first chunk allocated; the
    /// dead state's row (the first) loops back to it.
    fn new(max_states: usize, stride: usize) -> Rows {
        Rows {
            first: (0..CHUNK_ROWS * stride)
                .map(|cell| AtomicU32::new(if cell < stride { DEAD } else { UNKNOWN }))
                .collect(),
            rest: (1..max_states.div_ceil(CHUNK_ROWS))
                .map(|_| OnceLock::new())
                .collect(),
            start: DEAD,
            start_at_edge: DEAD,
        }
    }

    /// Allocate the chunk holding state `id`'s row, if it is not yet.
    fn allocate(&self, id: usize, stride: usize) {
        if let Some(chunk) = (id / CHUNK_ROWS).checked_sub(1) {
            self.rest[chunk].get_or_init(|| {
                (0..CHUNK_ROWS * stride)
                    .map(|_| AtomicU32::new(UNKNOWN))
                    .collect()
            });
        }
    }
}

/// The two directions' construction state, behind the table's mutex.
struct Builder {
    forward: Side,
    reverse: Side,
}

/// What computes one direction's transitions: its program, and the key of every state
/// interned so far.
struct Side {
    /// Forward keys are grouped (see the module docs); reverse keys are plain sets.
    grouped: bool,
    closure: Closure,
    /// For every instruction, the byte classes it consumes (a bitset over class ids).
    consumed: Vec<[u64; 4]>,
    /// The key of every state, by id; id 0 is the dead state, with an empty key.
    keys: Vec<Arc<[u32]>>,
    /// The encoded form of every state, by id.
    encoded: Vec<u32>,
    ids: HashMap<Arc<[u32]>, u32>,
    max_states: usize,
    key: Vec<u32>,
    seeds: Vec<u32>,
}

impl Side {
    fn new(insts: Vec<Inst>, representatives: &[u8], grouped: bool, max_states: usize) -> Side {
        Side {
            grouped,
            consumed: consumed_classes(&insts, representatives),
            closure: Closure::new(insts),
            keys: vec![Arc::from([])],
            encoded: vec![DEAD],
            ids: HashMap::new(),
            max_states,
            key: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// This direction's rows, with the dead state and the two start states built.
    fn rows(&mut self, stride: usize) -> Rows {
        let rows = Rows::new(self.max_states, stride);
        let mut start = |at_edge: bool| {
            self.key.clear();
            self.closure.scope();
            if self.grouped {
                self.key.push(0);
                self.closure.extend(&[0], at_edge, false, &mut self.key);
                self.key[0] = u32::from(self.closure.contains_match(&self.key[1..]));
                self.key.push(GROUP_END);
            } else {
                self.closure.extend(&[0], at_edge, false, &mut self.key);
            }
            self.intern(&rows, stride)
                .expect("every budget holds the start states")
        };
        let (start, start_at_edge) = (start(false), start(true));
        Rows {
            start,
            start_at_edge,
            ..rows
        }
    }

    /// The encoded state after reading a byte of `class` in state `id`, interned (and
    /// its rows allocated) if new.
    fn successor(
        &mut self,
        id: usize,
        class: usize,
        rows: &Rows,
        stride: usize,
    ) -> Result<u32, Exhausted> {
        let current = Arc::clone(&self.keys[id]);
        let consumed = &self.consumed;
        let advance = |seeds: &mut Vec<u32>, set: &[u32]| {
            seeds.clear();
            seeds.extend(
                set.iter()
                    .filter(|&&pc| consumes(&consumed[pc as usize], class))
                    .map(|&pc| pc + 1),
            );
        };
        self.key.clear();
        // One scope per step: an instruction an earlier group reaches is that group's,
        // as the VM admits the earliest start at each instruction.
        self.closure.scope();
        if !self.grouped {
            advance(&mut self.seeds, &current);
            self.closure
                .extend(&self.seeds, false, false, &mut self.key);
            return self.intern(rows, stride);
        }
        let mut matched = current[0] == 1;
        self.key.push(0);
        for group in current[1..current.len() - 1].split(|&pc| pc == GROUP_END) {
            advance(&mut self.seeds, group);
            let from = self.key.len();
            if self
                .closure
                .extend(&self.seeds, false, false, &mut self.key)
                == 0
            {
                continue;
            }
            let hit = self.closure.contains_match(&self.key[from..]);
            self.key.push(GROUP_END);
            if hit {
                // Later starts can no longer win.
                matched = true;
                break;
            }
        }
        if !matched {
            let from = self.key.len();
            if self.closure.extend(&[0], false, false, &mut self.key) > 0 {
                matched = self.closure.contains_match(&self.key[from..]);
                self.key.push(GROUP_END);
            }
        }
        if self.key.len() == 1 {
            return Ok(DEAD);
        }
        self.key[0] = u32::from(matched);
        self.intern(rows, stride)
    }

    /// The encoded state of `self.key` (the dead state for an empty one), interned and
    /// its rows allocated if new; [`Exhausted`] when the budget is spent.
    fn intern(&mut self, rows: &Rows, stride: usize) -> Result<u32, Exhausted> {
        if self.key.is_empty() {
            return Ok(DEAD);
        }
        if let Some(&id) = self.ids.get(&self.key[..]) {
            return Ok(self.encoded[id as usize]);
        }
        let id = self.keys.len();
        if id >= self.max_states {
            return Err(Exhausted);
        }
        // A group holding `Match` is the last one: later groups were cut.
        let set = &self.key[usize::from(self.grouped)..];
        let flags = if self.closure.contains_match(set) {
            ACCEPT | ACCEPT_AT_END
        } else if self.closure.accepts_at_end(set) {
            ACCEPT_AT_END
        } else {
            0
        };
        let key: Arc<[u32]> = Arc::from(&self.key[..]);
        self.ids.insert(Arc::clone(&key), id as u32);
        self.keys.push(key);
        self.encoded
            .push(((id * stride) as u32) << ROW_SHIFT | KNOWN | flags);
        rows.allocate(id, stride);
        Ok(self.encoded[id])
    }
}

/// The forward states one iteration's passes left behind them (see the module docs).
/// Valid for one haystack; an entry at an offset past [`Trail::settle`]'s high-water
/// mark was recorded by a pass whose last accept lies before it.
#[derive(Debug, Default)]
pub(crate) struct Trail {
    /// Offset of `states[0]`.
    base: usize,
    /// Encoded state at each offset from `base`; `UNKNOWN` where none was recorded.
    states: Vec<u32>,
    /// The furthest match end any pass of the iteration returned.
    settled: usize,
}

impl Trail {
    /// Whether a pass recorded `state` at `pos`, past its last accept.
    #[inline]
    fn holds(&self, pos: usize, state: u32) -> bool {
        pos > self.settled
            && pos
                .checked_sub(self.base)
                .and_then(|at| self.states.get(at))
                == Some(&state)
    }

    fn record(&mut self, pos: usize, state: u32) {
        if self.states.is_empty() {
            self.base = pos;
        }
        let Some(at) = pos.checked_sub(self.base) else {
            return;
        };
        if at >= self.states.len() {
            self.states.resize(at + 1, UNKNOWN);
        }
        self.states[at] = state;
    }

    /// Note that a pass of this iteration returned a match ending at `end`.
    pub(crate) fn settle(&mut self, end: usize) {
        self.settled = self.settled.max(end);
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

/// Epsilon closures over one program, deduplicated within a scope.
struct Closure {
    insts: Vec<Inst>,
    seen: Vec<u32>,
    generation: u32,
    stack: Vec<u32>,
}

impl Closure {
    fn new(insts: Vec<Inst>) -> Self {
        Closure {
            seen: vec![0; insts.len()],
            insts,
            generation: 0,
            stack: Vec::new(),
        }
    }

    /// Start a new scope: until the next call, an instruction reached once is not
    /// reached again.
    fn scope(&mut self) {
        self.generation += 1;
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

    fn table(pattern: &str, max_states: usize) -> DfaTable {
        let ast = parse(pattern).unwrap();
        DfaTable::build(&ast, &compile(&ast), max_states)
    }

    fn find(table: &DfaTable, haystack: &[u8], from: usize) -> Option<Match> {
        table
            .find_at(haystack, from, &mut Trail::default())
            .expect("within the budget")
    }

    #[test]
    fn byte_classes_merge_bytes_no_instruction_tells_apart() {
        let t = table(r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}", MAX_STATES);
        // Hex digits, `-`, everything else.
        assert_eq!(t.stride, 3);
        assert_eq!(t.classes[b'a' as usize], t.classes[b'7' as usize]);
        assert_ne!(t.classes[b'-' as usize], t.classes[b'g' as usize]);
        assert_eq!(t.classes[b'g' as usize], t.classes[0xE7]);
    }

    #[test]
    fn states_are_built_as_searches_need_them() {
        let t = table(r"\d+ms", MAX_STATES);
        let built = t.states();
        assert_eq!(find(&t, b"took 35ms", 0), Some(Match { start: 5, end: 9 }));
        assert!(
            t.states() > built,
            "{} states before, {} after",
            built,
            t.states()
        );
        let warm = t.states();
        assert_eq!(find(&t, b"took 42ms", 0), Some(Match { start: 5, end: 9 }));
        assert_eq!(t.states(), warm);
    }

    #[test]
    fn a_search_past_the_budget_gives_up_and_the_built_states_keep_serving() {
        let t = table(r"(a|b)*a(a|b){12}", 64);
        let mut seed = 7u64;
        let haystack: Vec<u8> = (0..400)
            .map(|_| {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                if seed >> 63 == 0 {
                    b'a'
                } else {
                    b'b'
                }
            })
            .collect();
        assert!(t.find_at(&haystack, 0, &mut Trail::default()).is_err());
        assert_eq!(
            t.states(),
            64 + t.builder.lock().unwrap().reverse.keys.len()
        );
        // A haystack that stays on built states is still answered by the table.
        let program = compile(&parse(r"(a|b)*a(a|b){12}").unwrap());
        let short = b"ccc";
        assert_eq!(
            find(&t, short, 0),
            matcher::find_at(&program, short, 0, &mut matcher::Cache::default())
        );
    }

    #[test]
    fn unmatchable_pattern_never_leaves_its_idle_state() {
        let t = table(r"[^\x00-\xff]", MAX_STATES);
        assert!(!t.can_start.iter().any(|&b| b));
        assert_eq!(find(&t, b"anything", 0), None);
    }

    #[test]
    fn anchors_follow_the_offset() {
        let t = table("^a|b$|^$", MAX_STATES);
        assert_eq!(find(&t, b"", 0), Some(Match { start: 0, end: 0 }));
        assert_eq!(find(&t, b"ab", 0), Some(Match { start: 0, end: 1 }));
        assert_eq!(find(&t, b"ab", 1), Some(Match { start: 1, end: 2 }));
        assert_eq!(find(&t, b"ba", 0), None);
    }

    #[test]
    fn a_later_start_cannot_outrun_the_leftmost_one() {
        // `c` ends first, but the match starting at 0 is the VM's answer.
        let t = table("abcd|c", MAX_STATES);
        assert_eq!(find(&t, b"xabcd", 0), Some(Match { start: 1, end: 5 }));
        assert_eq!(find(&t, b"xabce", 0), Some(Match { start: 3, end: 4 }));
    }

    #[test]
    fn long_digit_runs_agree_with_the_vm() {
        // Digit runs every start of which walks to the run's end: the VM's threads all
        // live as long, and one forward group per start offset is what the table holds.
        let pattern = r"\d+(\.\d+)?(KB|MB|GB|TB|kb|mb|gb|B)";
        let ast = parse(pattern).unwrap();
        let program = compile(&ast);
        let t = DfaTable::build(&ast, &program, MAX_STATES);
        for hay in [
            format!("{} B", "1".repeat(2_000)),
            format!("x {}KB", "7".repeat(2_000)),
        ] {
            let vm = matcher::find_at(&program, hay.as_bytes(), 0, &mut matcher::Cache::default());
            assert_eq!(find(&t, hay.as_bytes(), 0), vm);
        }
    }
}
