//! Automaton-compiled matching (ROADMAP item 1): compile the live (non-retired)
//! template set into a single multi-pattern automaton over masked token streams,
//! so matching one record costs one state transition per token instead of one
//! positional comparison per template per token.
//!
//! The construction is the token-trie → subset-construction DFA move reported by
//! production log pipelines (trie with wildcard edges, determinized with
//! structural sharing of suffix state sets, fronted by a keyed match cache):
//!
//! 1. **Trie**: every live template contributes a path of interned const-token
//!    edges and `<*>` wildcard edges. Templates with identical token sequences
//!    share the whole path; templates with a shared prefix share the prefix.
//!    Nodes are reference-counted so template *removal* (retirement during
//!    incremental maintenance) prunes exactly the now-unused suffix.
//! 2. **DFA**: the trie is a nondeterministic automaton (a token can follow a
//!    const edge *and* a wildcard edge), so we determinize: a DFA state is a
//!    hash-consed sorted set of trie nodes, with one transition per const symbol
//!    seen at the set plus a *default* transition following wildcard edges only.
//!    Every DFA state precomputes its winning accept — the minimum-rank template
//!    among its members, where rank is the position in
//!    [`ParserModel::match_order`]. Because the tree walker returns the *first*
//!    match in that order, "first match in a linear scan" ≡ "minimum rank among
//!    all matches", and the DFA reproduces the tree walker byte-for-byte.
//! 3. **NFA fallback**: wildcard-heavy template sets can make subset
//!    construction explode, so determinization is capped
//!    ([`DEFAULT_MAX_DFA_STATES`]); past the cap the matcher falls back to
//!    active-set simulation over the trie, which is always linear in trie size.
//! 4. **Match cache** ([`MatchCache`]): a keyed LRU over raw record lines.
//!    Production log streams are highly repetitive, so an exact-line hit skips
//!    preprocessing *and* matching. Entries are invalidated wholesale when the
//!    compiled snapshot's [`generation`](CompiledMatcher::generation) changes.
//!
//! Lifecycle: the service layer keeps an `Arc<CompiledMatcher>` snapshot next
//! to the model and the saturation ladder. Training compiles from scratch
//! ([`CompiledMatcher::compile`]); a [`ModelDelta`](crate::incremental) boundary
//! patches the previous snapshot ([`CompiledMatcher::refreshed`]) — the trie is
//! updated in place (only changed templates are removed/inserted) and the DFA
//! is re-determinized from the patched trie. Readers never observe a partially
//! updated automaton: they hold the old `Arc` until the swap.

use crate::model::ParserModel;
use crate::tree::{NodeId, TemplateToken};
use logtok::{Preprocessor, TokenScratch, TokenView};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Determinization cap: past this many DFA states the compiler abandons subset
/// construction and matches by NFA active-set simulation instead.
pub const DEFAULT_MAX_DFA_STATES: usize = 65_536;

/// Sentinel for "no node" in trie/DFA link fields.
const NONE: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// FNV hashing (same function family as logtok's token hash-encoder)
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a streaming hasher: fast on the short keys (tokens, log lines) this
/// module hashes, and free of the per-instance random state `SipHash` pays for.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// `BuildHasher` producing [`FnvHasher`]s (deterministic across processes).
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(FNV_OFFSET)
    }
}

type FnvMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// One-shot FNV-1a over `bytes` (the loop form the hot paths inline).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

// ---------------------------------------------------------------------------
// Token interner
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SymbolEntry {
    text: Box<str>,
    /// Number of (template, position) usages; 0 marks a recycled slot.
    refs: u32,
}

/// Interns const template tokens to dense `u32` symbols so trie edges and DFA
/// transitions compare integers, not strings. Slots are reference-counted and
/// recycled when the last template using a token is removed.
#[derive(Debug, Clone, Default)]
struct Interner {
    ids: FnvMap<Box<str>, u32>,
    symbols: Vec<SymbolEntry>,
    free: Vec<u32>,
}

impl Interner {
    /// Intern `text`, bumping its refcount.
    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&sym) = self.ids.get(text) {
            self.symbols[sym as usize].refs += 1;
            return sym;
        }
        let entry = SymbolEntry {
            text: text.into(),
            refs: 1,
        };
        let sym = match self.free.pop() {
            Some(slot) => {
                self.symbols[slot as usize] = entry;
                slot
            }
            None => {
                self.symbols.push(entry);
                (self.symbols.len() - 1) as u32
            }
        };
        self.ids.insert(text.into(), sym);
        sym
    }

    fn text(&self, sym: u32) -> &str {
        &self.symbols[sym as usize].text
    }

    /// Drop one usage of `sym`; recycles the slot when the count reaches zero.
    fn release(&mut self, sym: u32) {
        let entry = &mut self.symbols[sym as usize];
        entry.refs -= 1;
        if entry.refs == 0 {
            self.ids.remove(&entry.text);
            self.free.push(sym);
        }
    }

    /// Number of live interned symbols.
    fn len(&self) -> usize {
        self.ids.len()
    }
}

// ---------------------------------------------------------------------------
// Open-addressing symbol table (the match-path token → symbol lookup)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SymSlot {
    hash: u64,
    /// Interned symbol id, or [`NONE`] for an empty slot.
    sym: u32,
}

/// FNV-keyed open-addressing (linear probing) table mapping masked token text
/// to interned symbol ids. This replaces the std `HashMap` probe on the match
/// hot path: one FNV hash, one masked index, and (almost always) one slot load.
/// Entries are verified against the interner's stored text on a hash hit, so a
/// 64-bit collision degrades to a miss-and-compare, never a wrong symbol —
/// byte-identity with the tree walk is absolute, not probabilistic.
///
/// The table is rebuilt as part of every compiled snapshot (compile and
/// `refreshed` both finish through [`CompiledMatcher::finalize`]) and shared
/// read-only by every worker via the snapshot `Arc`.
#[derive(Debug, Clone, Default)]
struct SymbolTable {
    slots: Vec<SymSlot>,
    mask: usize,
}

impl SymbolTable {
    /// Build from the interner's live symbols at ≤ 50% load factor.
    fn build(interner: &Interner) -> Self {
        let live = interner.len();
        if live == 0 {
            return SymbolTable::default();
        }
        let capacity = (live * 2).next_power_of_two().max(16);
        let mask = capacity - 1;
        let mut slots = vec![SymSlot { hash: 0, sym: NONE }; capacity];
        for (text, &sym) in &interner.ids {
            let hash = fnv1a(text.as_bytes());
            let mut idx = (hash as usize) & mask;
            while slots[idx].sym != NONE {
                idx = (idx + 1) & mask;
            }
            slots[idx] = SymSlot { hash, sym };
        }
        SymbolTable { slots, mask }
    }

    /// Resolve `token` to its symbol id, or `None` when never interned.
    #[inline]
    fn lookup(&self, token: &str, interner: &Interner) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let hash = fnv1a(token.as_bytes());
        let mut idx = (hash as usize) & self.mask;
        loop {
            let slot = self.slots[idx];
            if slot.sym == NONE {
                return None;
            }
            if slot.hash == hash && interner.text(slot.sym) == token {
                return Some(slot.sym);
            }
            idx = (idx + 1) & self.mask;
        }
    }
}

// ---------------------------------------------------------------------------
// Template trie
// ---------------------------------------------------------------------------

/// One token of an interned template sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TplSym {
    Const(u32),
    Wildcard,
}

#[derive(Debug, Clone, Default)]
struct TrieNode {
    /// Const-token edges, sorted by symbol id for binary search.
    edges: Vec<(u32, u32)>,
    /// Wildcard (`<*>`) edge, taken by *any* token.
    wildcard: u32,
    /// Templates whose token sequence ends exactly here.
    accepts: Vec<NodeId>,
    /// Number of template sequences whose path passes through (or ends at)
    /// this node; 0 marks a recycled slot.
    refs: u32,
}

impl TrieNode {
    fn fresh() -> Self {
        TrieNode {
            edges: Vec::new(),
            wildcard: NONE,
            accepts: Vec::new(),
            refs: 0,
        }
    }

    fn child(&self, sym: u32) -> Option<u32> {
        self.edges
            .binary_search_by_key(&sym, |&(s, _)| s)
            .ok()
            .map(|pos| self.edges[pos].1)
    }
}

const TRIE_ROOT: u32 = 0;

// ---------------------------------------------------------------------------
// DFA
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct DfaState {
    /// Const-symbol transitions, sorted by symbol id.
    edges: Vec<(u32, u32)>,
    /// Transition for any token without a const edge here ([`NONE`] = dead:
    /// no template can match any extension of this prefix).
    default: u32,
    /// Winning template if the record ends in this state: the minimum-rank
    /// member accept, i.e. exactly what the linear tree walk would return.
    accept: Option<NodeId>,
}

impl DfaState {
    fn new() -> Self {
        DfaState {
            edges: Vec::new(),
            default: NONE,
            accept: None,
        }
    }
}

#[derive(Debug, Clone)]
enum Exec {
    Dfa(Vec<DfaState>),
    /// Subset construction exceeded the state cap; match by active-set
    /// simulation over the trie instead.
    Nfa,
}

// ---------------------------------------------------------------------------
// CompiledMatcher
// ---------------------------------------------------------------------------

/// Monotone generation counter: every compiled snapshot gets a process-unique
/// generation, which is the cache-invalidation key for [`MatchCache`].
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// A compiled snapshot of one model's live template set. Immutable once built;
/// the service layer shares it via `Arc` and swaps whole snapshots at delta
/// boundaries (same lifecycle as the saturation ladder).
#[derive(Debug, Clone)]
pub struct CompiledMatcher {
    interner: Interner,
    trie: Vec<TrieNode>,
    free_trie: Vec<u32>,
    /// Live template sequences by `NodeId.0`, so a later
    /// [`refreshed`](CompiledMatcher::refreshed) knows which path to remove
    /// when a template is retired or rewritten.
    templates: FnvMap<usize, Vec<TplSym>>,
    /// `rank[id]` = position of `NodeId(id)` in the model's match order
    /// (`u32::MAX` for non-live nodes). Lower rank wins.
    ranks: Vec<u32>,
    /// Open-addressing token → symbol lookup used by the match hot path;
    /// rebuilt in [`finalize`](CompiledMatcher::finalize) for every snapshot.
    symbols: SymbolTable,
    exec: Exec,
    max_dfa_states: usize,
    generation: u64,
}

impl CompiledMatcher {
    /// Compile `model`'s live (non-retired) template set from scratch.
    pub fn compile(model: &ParserModel) -> Self {
        Self::compile_with_limit(model, DEFAULT_MAX_DFA_STATES)
    }

    /// [`compile`](CompiledMatcher::compile) with an explicit determinization
    /// cap — tests use a tiny cap to force the NFA fallback path.
    pub fn compile_with_limit(model: &ParserModel, max_dfa_states: usize) -> Self {
        let mut compiled = CompiledMatcher {
            interner: Interner::default(),
            trie: vec![TrieNode {
                refs: 1, // the root is never recycled
                ..TrieNode::fresh()
            }],
            free_trie: Vec::new(),
            templates: FnvMap::default(),
            ranks: Vec::new(),
            symbols: SymbolTable::default(),
            exec: Exec::Nfa,
            max_dfa_states,
            generation: 0,
        };
        compiled.reconcile(model);
        compiled.finalize();
        compiled
    }

    /// Produce a new snapshot consistent with `model` by *patching* this one:
    /// templates that are unchanged keep their trie paths untouched; retired
    /// or rewritten templates are pruned; new templates are inserted; the DFA
    /// is rebuilt from the patched trie. Called at every `apply_delta`/
    /// `swap_model` boundary. Equivalent (proven by the property suite) to
    /// [`CompiledMatcher::compile`] on the post-delta model.
    pub fn refreshed(&self, model: &ParserModel) -> Self {
        let mut next = self.clone();
        next.reconcile(model);
        next.finalize();
        next
    }

    /// Shared tail of compile/refresh: rebuild the open-addressing symbol
    /// table, re-determinize, and stamp a fresh generation.
    fn finalize(&mut self) {
        self.symbols = SymbolTable::build(&self.interner);
        self.determinize();
        self.generation = GENERATION.fetch_add(1, Ordering::Relaxed);
    }

    /// Process-unique id of this snapshot; [`MatchCache`] keys on it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live templates compiled in.
    pub fn live_templates(&self) -> usize {
        self.templates.len()
    }

    /// Number of live trie nodes (structural sharing makes this far smaller
    /// than total template tokens on real template sets).
    pub fn trie_nodes(&self) -> usize {
        self.trie.len() - self.free_trie.len()
    }

    /// Number of DFA states, or `None` when running in NFA fallback mode.
    pub fn dfa_states(&self) -> Option<usize> {
        match &self.exec {
            Exec::Dfa(states) => Some(states.len()),
            Exec::Nfa => None,
        }
    }

    /// Number of distinct interned const tokens.
    pub fn interned_symbols(&self) -> usize {
        self.interner.len()
    }

    /// True when subset construction hit the cap and matching runs by NFA
    /// active-set simulation.
    pub fn uses_nfa_fallback(&self) -> bool {
        matches!(self.exec, Exec::Nfa)
    }

    // -- construction ------------------------------------------------------

    /// Bring trie + templates + ranks in sync with `model`'s live set.
    fn reconcile(&mut self, model: &ParserModel) {
        // Refresh ranks first: matching priority may change even when no
        // template text does (saturation updates reorder the match order).
        self.ranks = vec![NONE; model.nodes.len()];
        for (rank, &id) in model.match_order().iter().enumerate() {
            self.ranks[id.0] = rank as u32;
        }

        // Remove templates that are gone (retired) or rewritten (delta patched
        // the template text, e.g. new wildcard positions after absorption).
        let stale: Vec<usize> = self
            .templates
            .keys()
            .copied()
            .filter(|&id| {
                model
                    .nodes
                    .get(id)
                    .map(|node| node.retired || !self.template_unchanged(id, &node.template))
                    .unwrap_or(true)
            })
            .collect();
        for id in stale {
            self.remove_template(id);
        }

        // Insert live templates not yet present.
        for node in &model.nodes {
            if !node.retired && !self.templates.contains_key(&node.id.0) {
                self.insert_template(node.id, &node.template);
            }
        }
    }

    fn template_unchanged(&self, id: usize, template: &[TemplateToken]) -> bool {
        let Some(stored) = self.templates.get(&id) else {
            return false;
        };
        stored.len() == template.len()
            && stored
                .iter()
                .zip(template)
                .all(|(sym, tok)| match (sym, tok) {
                    (TplSym::Wildcard, TemplateToken::Wildcard) => true,
                    (TplSym::Const(s), TemplateToken::Const(c)) => self.interner.text(*s) == &**c,
                    _ => false,
                })
    }

    fn alloc_trie_node(&mut self) -> u32 {
        match self.free_trie.pop() {
            Some(slot) => {
                self.trie[slot as usize] = TrieNode::fresh();
                slot
            }
            None => {
                self.trie.push(TrieNode::fresh());
                (self.trie.len() - 1) as u32
            }
        }
    }

    fn insert_template(&mut self, id: NodeId, template: &[TemplateToken]) {
        let mut seq = Vec::with_capacity(template.len());
        let mut at = TRIE_ROOT;
        for token in template {
            let (sym, existing) = match token {
                TemplateToken::Wildcard => (TplSym::Wildcard, {
                    let w = self.trie[at as usize].wildcard;
                    (w != NONE).then_some(w)
                }),
                TemplateToken::Const(text) => {
                    let s = self.interner.intern(text);
                    (TplSym::Const(s), self.trie[at as usize].child(s))
                }
            };
            let next = match existing {
                Some(node) => node,
                None => {
                    let node = self.alloc_trie_node();
                    match sym {
                        TplSym::Wildcard => self.trie[at as usize].wildcard = node,
                        TplSym::Const(s) => {
                            let edges = &mut self.trie[at as usize].edges;
                            let pos = edges.partition_point(|&(e, _)| e < s);
                            edges.insert(pos, (s, node));
                        }
                    }
                    node
                }
            };
            self.trie[next as usize].refs += 1;
            seq.push(sym);
            at = next;
        }
        self.trie[at as usize].accepts.push(id);
        self.templates.insert(id.0, seq);
    }

    fn remove_template(&mut self, id: usize) {
        let seq = self.templates.remove(&id).expect("template present");
        // Walk the path once to find it (children still linked), recording it.
        let mut path = Vec::with_capacity(seq.len());
        let mut at = TRIE_ROOT;
        for &sym in &seq {
            let next = match sym {
                TplSym::Wildcard => self.trie[at as usize].wildcard,
                TplSym::Const(s) => self.trie[at as usize].child(s).expect("edge present"),
            };
            debug_assert_ne!(next, NONE);
            path.push((at, sym, next));
            at = next;
        }
        self.trie[at as usize].accepts.retain(|a| a.0 != id);
        // Unwind: drop one reference per path node; unlink and recycle any
        // node whose count reaches zero (no other template shares its suffix).
        for &(parent, sym, node) in path.iter().rev() {
            self.trie[node as usize].refs -= 1;
            if self.trie[node as usize].refs == 0 {
                debug_assert!(self.trie[node as usize].accepts.is_empty());
                debug_assert!(self.trie[node as usize].edges.is_empty());
                debug_assert_eq!(self.trie[node as usize].wildcard, NONE);
                match sym {
                    TplSym::Wildcard => self.trie[parent as usize].wildcard = NONE,
                    TplSym::Const(s) => {
                        self.trie[parent as usize].edges.retain(|&(e, _)| e != s);
                    }
                }
                self.free_trie.push(node);
            }
            if let TplSym::Const(s) = sym {
                self.interner.release(s);
            }
        }
    }

    /// Winning accept of a set of trie nodes: minimum rank, i.e. the template
    /// the linear scan over `match_order` would hit first.
    fn best_accept(&self, members: &[u32]) -> Option<NodeId> {
        let mut best: Option<(u32, NodeId)> = None;
        for &member in members {
            for &id in &self.trie[member as usize].accepts {
                let rank = self.ranks.get(id.0).copied().unwrap_or(NONE);
                debug_assert_ne!(rank, NONE, "accept for non-live template");
                if best.map(|(r, _)| rank < r).unwrap_or(true) {
                    best = Some((rank, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Subset construction over the trie. DFA state = sorted set of trie
    /// nodes; identical sets are hash-consed so shared suffixes collapse into
    /// shared DFA tails.
    fn determinize(&mut self) {
        let mut states: Vec<DfaState> = Vec::new();
        let mut members_of: Vec<Box<[u32]>> = Vec::new();
        let mut index: FnvMap<Box<[u32]>, u32> = FnvMap::default();

        let start: Box<[u32]> = vec![TRIE_ROOT].into_boxed_slice();
        index.insert(start.clone(), 0);
        members_of.push(start);
        states.push(DfaState::new());

        let mut next_state = 0usize;
        while next_state < states.len() {
            if states.len() > self.max_dfa_states {
                self.exec = Exec::Nfa;
                return;
            }
            let members = members_of[next_state].clone();

            // Wildcard-only successors form the default transition.
            let mut default_set: Vec<u32> = members
                .iter()
                .map(|&m| self.trie[m as usize].wildcard)
                .filter(|&w| w != NONE)
                .collect();
            default_set.sort_unstable();
            default_set.dedup();

            // One transition per const symbol present at any member; a token
            // equal to that symbol also follows every wildcard edge.
            let mut symbols: Vec<u32> = members
                .iter()
                .flat_map(|&m| self.trie[m as usize].edges.iter().map(|&(s, _)| s))
                .collect();
            symbols.sort_unstable();
            symbols.dedup();

            let mut edges = Vec::with_capacity(symbols.len());
            for sym in symbols {
                let mut target: Vec<u32> = default_set.clone();
                for &m in members.iter() {
                    if let Some(child) = self.trie[m as usize].child(sym) {
                        target.push(child);
                    }
                }
                target.sort_unstable();
                target.dedup();
                let state = self.intern_state(target, &mut states, &mut members_of, &mut index);
                edges.push((sym, state));
            }

            let default = if default_set.is_empty() {
                NONE
            } else {
                self.intern_state(default_set, &mut states, &mut members_of, &mut index)
            };

            states[next_state].edges = edges;
            states[next_state].default = default;
            states[next_state].accept = self.best_accept(&members_of[next_state]);
            next_state += 1;
        }
        self.exec = Exec::Dfa(states);
    }

    fn intern_state(
        &self,
        set: Vec<u32>,
        states: &mut Vec<DfaState>,
        members_of: &mut Vec<Box<[u32]>>,
        index: &mut FnvMap<Box<[u32]>, u32>,
    ) -> u32 {
        let key: Box<[u32]> = set.into_boxed_slice();
        if let Some(&state) = index.get(&key) {
            return state;
        }
        let state = states.len() as u32;
        index.insert(key.clone(), state);
        members_of.push(key);
        states.push(DfaState::new());
        state
    }

    // -- matching ----------------------------------------------------------

    /// Match a token stream; `tokens` yields each masked token once, in order.
    fn match_symbols<'a, I: Iterator<Item = &'a str>>(&self, tokens: I) -> Option<NodeId> {
        match &self.exec {
            Exec::Dfa(states) => {
                let mut at = 0u32;
                for token in tokens {
                    let state = &states[at as usize];
                    let next = match self.symbols.lookup(token, &self.interner) {
                        Some(sym) => state
                            .edges
                            .binary_search_by_key(&sym, |&(s, _)| s)
                            .map(|pos| state.edges[pos].1)
                            .unwrap_or(state.default),
                        None => state.default,
                    };
                    if next == NONE {
                        return None;
                    }
                    at = next;
                }
                states[at as usize].accept
            }
            Exec::Nfa => {
                let mut active: Vec<u32> = vec![TRIE_ROOT];
                let mut next: Vec<u32> = Vec::new();
                for token in tokens {
                    let sym = self.symbols.lookup(token, &self.interner);
                    next.clear();
                    for &node in &active {
                        let trie_node = &self.trie[node as usize];
                        if let Some(child) = sym.and_then(|s| trie_node.child(s)) {
                            next.push(child);
                        }
                        if trie_node.wildcard != NONE {
                            next.push(trie_node.wildcard);
                        }
                    }
                    next.sort_unstable();
                    next.dedup();
                    std::mem::swap(&mut active, &mut next);
                    if active.is_empty() {
                        return None;
                    }
                }
                self.best_accept(&active)
            }
        }
    }

    /// Match a preprocessed [`TokenView`] (the zero-copy streaming path).
    pub fn match_view(&self, view: &TokenView<'_>) -> Option<NodeId> {
        self.match_symbols(view.iter())
    }

    // -- equivalence -------------------------------------------------------

    /// Canonical description of the compiled template set: a deterministic
    /// trie traversal with edges ordered by token text and accepts ordered by
    /// rank, independent of insertion/removal history and node numbering. Two
    /// matchers with equal canonical forms and equal rank tables are
    /// behaviorally identical (the DFA is a pure function of both). The
    /// property suite uses this to prove patched ≡ recompiled.
    pub fn canonical_form(&self) -> String {
        let mut out = String::new();
        self.canonical_node(TRIE_ROOT, &mut String::new(), &mut out);
        out
    }

    fn canonical_node(&self, node: u32, prefix: &mut String, out: &mut String) {
        let trie_node = &self.trie[node as usize];
        if !trie_node.accepts.is_empty() {
            let mut accepts: Vec<(u32, usize)> = trie_node
                .accepts
                .iter()
                .map(|id| (self.ranks.get(id.0).copied().unwrap_or(NONE), id.0))
                .collect();
            accepts.sort_unstable();
            out.push_str(prefix);
            out.push_str(" => ");
            for (rank, id) in accepts {
                out.push_str(&format!("[rank {rank} node {id}]"));
            }
            out.push('\n');
        }
        let mut edges: Vec<(&str, u32)> = trie_node
            .edges
            .iter()
            .map(|&(sym, child)| (self.interner.text(sym), child))
            .collect();
        edges.sort_unstable();
        for (text, child) in edges {
            let saved = prefix.len();
            prefix.push(' ');
            prefix.push_str(text);
            self.canonical_node(child, prefix, out);
            prefix.truncate(saved);
        }
        if trie_node.wildcard != NONE {
            let saved = prefix.len();
            prefix.push_str(" <*>");
            self.canonical_node(trie_node.wildcard, prefix, out);
            prefix.truncate(saved);
        }
    }
}

// ---------------------------------------------------------------------------
// Match cache
// ---------------------------------------------------------------------------

/// Keyed LRU cache over raw record lines. Log streams are dominated by a small
/// set of exact-duplicate lines; a hit skips preprocessing and matching
/// entirely. Implemented as a segmented (two-generation) LRU — constant-time
/// probe/insert, bounded at `2 × capacity` entries — and owned per worker
/// thread, so the hot path takes no lock. Entries are tagged with the compiled
/// snapshot's generation and the whole cache is dropped on a snapshot swap.
///
/// Keys are precomputed 64-bit FNV line hashes ([`logtok::hash_line`]): the
/// stream layer hashes each record once at admission and carries the
/// hash through the job, so a cache probe re-hashes 8 bytes instead of the
/// whole line. Each entry stores the full line and verifies it on a hit, so a
/// hash collision degrades to a miss — results stay byte-identical.
#[derive(Debug)]
pub struct MatchCache {
    capacity: usize,
    generation: u64,
    current: FnvMap<u64, CacheEntry>,
    previous: FnvMap<u64, CacheEntry>,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    line: Box<str>,
    node: Option<NodeId>,
}

/// Default per-worker cache capacity (segment size).
pub const DEFAULT_MATCH_CACHE_CAPACITY: usize = 4_096;

impl Default for MatchCache {
    fn default() -> Self {
        Self::new(DEFAULT_MATCH_CACHE_CAPACITY)
    }
}

impl MatchCache {
    /// Cache holding up to `2 × capacity` lines.
    pub fn new(capacity: usize) -> Self {
        MatchCache {
            capacity: capacity.max(1),
            generation: 0,
            current: FnvMap::default(),
            previous: FnvMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Match `record` through the cache, hashing the line first. Prefer
    /// [`match_record_hashed`](MatchCache::match_record_hashed) when the
    /// caller already carries the record's line hash.
    pub fn match_record(
        &mut self,
        compiled: &CompiledMatcher,
        preprocessor: &Preprocessor,
        scratch: &mut TokenScratch,
        record: &str,
    ) -> Option<NodeId> {
        let line_hash = logtok::hash_line(record);
        self.match_record_hashed(compiled, preprocessor, scratch, record, line_hash)
    }

    /// Match `record` through the cache keyed by its precomputed FNV line
    /// hash: exact-line hits return the stored assignment; misses preprocess
    /// and match via `compiled` and remember the result. A `compiled`
    /// snapshot from a different generation than the cached entries
    /// invalidates the whole cache first.
    pub fn match_record_hashed(
        &mut self,
        compiled: &CompiledMatcher,
        preprocessor: &Preprocessor,
        scratch: &mut TokenScratch,
        record: &str,
        line_hash: u64,
    ) -> Option<NodeId> {
        if self.generation != compiled.generation {
            self.current.clear();
            self.previous.clear();
            self.generation = compiled.generation;
        }
        if let Some(entry) = self.current.get(&line_hash) {
            if &*entry.line == record {
                self.hits += 1;
                return entry.node;
            }
        }
        if let Some(entry) = self.previous.remove(&line_hash) {
            if &*entry.line == record {
                self.hits += 1;
                let node = entry.node;
                self.insert(line_hash, entry);
                return node;
            }
        }
        self.misses += 1;
        let view = preprocessor.token_view(record, scratch);
        let node = compiled.match_view(&view);
        self.insert(
            line_hash,
            CacheEntry {
                line: record.into(),
                node,
            },
        );
        node
    }

    fn insert(&mut self, line_hash: u64, entry: CacheEntry) {
        if self.current.len() >= self.capacity {
            // Rotate segments: the old `current` becomes `previous` (probed,
            // promoted on hit) and the evicted segment is dropped wholesale.
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(line_hash, entry);
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of currently cached lines.
    pub fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// True when no lines are cached.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty() && self.previous.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::matcher::match_view;
    use crate::train::train;
    use logtok::Preprocessor;

    fn corpus() -> Vec<String> {
        let mut records = Vec::new();
        for i in 0..60 {
            records.push(format!(
                "Accepted password for user{} from 10.0.0.{} port 22",
                i % 5,
                i % 9
            ));
            records.push(format!(
                "Failed password for user{} from 10.0.0.{} port 22",
                i % 5,
                i % 9
            ));
            records.push(format!("Connection closed by 10.0.0.{}", i % 9));
            records.push(format!("block blk_{} replicated to node{}", i, i % 4));
        }
        records
    }

    fn trained() -> (ParserModel, Preprocessor) {
        let config = TrainConfig::default();
        let outcome = train(&corpus(), &config);
        (outcome.model, Preprocessor::new(config.preprocess.clone()))
    }

    fn probes() -> Vec<String> {
        vec![
            "Accepted password for userX from 10.0.0.200 port 22".into(),
            "Failed password for user1 from 10.0.0.3 port 22".into(),
            "Connection closed by 10.0.0.77".into(),
            "block blk_999 replicated to node9".into(),
            "block blk_999 deleted from node9".into(),
            "totally novel statement never seen".into(),
            "".into(),
        ]
    }

    /// Match a literal token sequence (no preprocessing).
    fn match_literal(compiled: &CompiledMatcher, tokens: &[&str]) -> Option<NodeId> {
        compiled.match_symbols(tokens.iter().copied())
    }

    fn assert_agrees(model: &ParserModel, compiled: &CompiledMatcher, pre: &Preprocessor) {
        let mut scratch = TokenScratch::new();
        for line in corpus().iter().chain(probes().iter()) {
            let view = pre.token_view(line, &mut scratch);
            assert_eq!(
                compiled.match_view(&view),
                match_view(model, &view),
                "automaton diverged from tree walk on {line:?}"
            );
        }
    }

    #[test]
    fn compiled_matches_agree_with_tree_walk() {
        let (model, pre) = trained();
        let compiled = CompiledMatcher::compile(&model);
        assert!(!compiled.uses_nfa_fallback());
        assert_agrees(&model, &compiled, &pre);
    }

    #[test]
    fn nfa_fallback_agrees_with_tree_walk() {
        let (model, pre) = trained();
        let compiled = CompiledMatcher::compile_with_limit(&model, 2);
        assert!(compiled.uses_nfa_fallback());
        assert_eq!(compiled.dfa_states(), None);
        assert_agrees(&model, &compiled, &pre);
    }

    #[test]
    fn empty_model_matches_nothing() {
        let model = ParserModel::new();
        let compiled = CompiledMatcher::compile(&model);
        assert_eq!(match_literal(&compiled, &["anything"]), None);
        assert_eq!(match_literal(&compiled, &[]), None);
        assert_eq!(compiled.live_templates(), 0);
    }

    #[test]
    fn temporary_templates_are_compiled_in_and_retirement_prunes_them() {
        let (mut model, _) = trained();
        let compiled = CompiledMatcher::compile(&model);
        let before = compiled.canonical_form();
        let tokens = ["gamma", "ray", "burst"];
        let id = model.insert_temporary(&tokens.map(String::from));
        let with_temp = compiled.refreshed(&model);
        assert_eq!(match_literal(&with_temp, &tokens), Some(id));
        assert_eq!(with_temp.live_templates(), compiled.live_templates() + 1);
        model.retire(id);
        model.rebuild_match_order();
        let pruned = with_temp.refreshed(&model);
        assert_eq!(match_literal(&pruned, &tokens), None);
        // Structural GC: pruning the only template through those nodes returns
        // the trie (and interner) to its pre-insertion shape.
        assert_eq!(pruned.canonical_form(), before);
        assert_eq!(pruned.trie_nodes(), compiled.trie_nodes());
        assert_eq!(pruned.interned_symbols(), compiled.interned_symbols());
    }

    #[test]
    fn refreshed_equals_scratch_compile() {
        let (mut model, _) = trained();
        let compiled = CompiledMatcher::compile(&model);
        model.insert_temporary(&["one".into(), "off".into()]);
        let id = model.insert_temporary(&["another".into(), "one".into()]);
        model.retire(id);
        model.rebuild_match_order();
        let patched = compiled.refreshed(&model);
        let scratch = CompiledMatcher::compile(&model);
        assert_eq!(patched.canonical_form(), scratch.canonical_form());
    }

    #[test]
    fn generation_is_unique_per_snapshot() {
        let (model, _) = trained();
        let a = CompiledMatcher::compile(&model);
        let b = CompiledMatcher::compile(&model);
        let c = a.refreshed(&model);
        assert_ne!(a.generation(), b.generation());
        assert_ne!(a.generation(), c.generation());
        assert_ne!(b.generation(), c.generation());
    }

    #[test]
    fn most_precise_template_wins_in_dfa_accepts() {
        // Two templates match "x y": the exact one must win over the wildcard
        // one, mirroring the match-order scan.
        let mut model = ParserModel::new();
        use crate::tree::{TemplateToken as T, TreeNode};
        let mk = |template: Vec<T>, saturation: f64, depth: usize| TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template,
            saturation,
            depth,
            log_count: 1,
            unique_count: 1,
            temporary: false,
            retired: false,
        };
        let coarse = model.push_node(mk(vec![T::Const("x".into()), T::Wildcard], 0.4, 0));
        let precise = model.push_node(mk(vec![T::Const("x".into()), T::Const("y".into())], 1.0, 1));
        model.add_root(coarse);
        model.rebuild_match_order();
        let compiled = CompiledMatcher::compile(&model);
        assert_eq!(match_literal(&compiled, &["x", "y"]), Some(precise));
        assert_eq!(match_literal(&compiled, &["x", "z"]), Some(coarse));
        assert_eq!(match_literal(&compiled, &["x"]), None);
        assert_eq!(match_literal(&compiled, &["x", "y", "z"]), None);
        // Sanity: identical to the linear scan.
        let pre = Preprocessor::default_pipeline();
        let mut scratch = TokenScratch::new();
        let view = pre.token_view("x y", &mut scratch);
        assert_eq!(match_view(&model, &view), Some(precise));
    }

    #[test]
    fn empty_template_accepts_empty_token_stream() {
        let mut model = ParserModel::new();
        let id = model.insert_temporary(&[]);
        let compiled = CompiledMatcher::compile(&model);
        assert_eq!(match_literal(&compiled, &[]), Some(id));
        assert_eq!(match_literal(&compiled, &["x"]), None);
    }

    #[test]
    fn match_cache_hits_agree_with_misses_and_invalidate_on_swap() {
        let (mut model, pre) = trained();
        let compiled = CompiledMatcher::compile(&model);
        let mut cache = MatchCache::new(8);
        let mut scratch = TokenScratch::new();
        let line = "Accepted password for user1 from 10.0.0.2 port 22";
        let miss = cache.match_record(&compiled, &pre, &mut scratch, line);
        let hit = cache.match_record(&compiled, &pre, &mut scratch, line);
        assert_eq!(miss, hit);
        assert_eq!(cache.stats(), (1, 1));
        assert!(miss.is_some());

        // A new snapshot invalidates every cached line.
        let id = model.insert_temporary(&["fresh".into(), "template".into()]);
        let swapped = compiled.refreshed(&model);
        let after = cache.match_record(&swapped, &pre, &mut scratch, line);
        assert_eq!(after, miss);
        assert_eq!(cache.stats(), (1, 2), "generation change must re-match");
        let _ = id;
    }

    #[test]
    fn match_cache_capacity_is_bounded() {
        let (model, pre) = trained();
        let compiled = CompiledMatcher::compile(&model);
        let mut cache = MatchCache::new(4);
        let mut scratch = TokenScratch::new();
        for i in 0..100 {
            let line = format!("Connection closed by 10.0.0.{i}");
            cache.match_record(&compiled, &pre, &mut scratch, &line);
        }
        assert!(cache.len() <= 8, "segmented cache exceeded 2x capacity");
        assert!(!cache.is_empty());
    }

    #[test]
    fn structural_sharing_collapses_shared_suffixes_in_dfa() {
        let (model, _) = trained();
        let compiled = CompiledMatcher::compile(&model);
        // The DFA must stay small relative to total template tokens: shared
        // prefixes share trie paths, and hash-consed state sets share tails.
        let total_tokens: usize = model
            .nodes
            .iter()
            .filter(|n| !n.retired)
            .map(|n| n.template.len() + 1)
            .sum();
        let states = compiled.dfa_states().expect("DFA mode");
        assert!(
            states <= total_tokens,
            "no sharing: {states} states for {total_tokens} template tokens"
        );
    }
}
