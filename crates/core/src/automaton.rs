//! Automaton-compiled matching: compile the live (non-retired) template set into a
//! single multi-pattern automaton over masked token streams, so matching one record
//! costs one state transition per token instead of one positional comparison per
//! template per token.
//!
//! A compiled snapshot ([`CompiledMatcher`]) is two things, for two readers. The
//! **match tables** ([`MatchTables`]) are everything a match reads, as flat vectors:
//! transition rows, the text of every interned symbol in one arena, and an
//! open-addressing probe table from token text to symbol id. A holder that never
//! patches keeps only these ([`CompiledMatcher::into_tables`]), as
//! [`ByteBrainParser`](crate::ByteBrainParser) does. The **patch state** — token
//! interner, template trie, ranks — is read only by [`CompiledMatcher::refreshed`].
//!
//! The construction is the token-trie → subset-construction DFA move reported by
//! production log pipelines (trie with wildcard edges, determinized with structural
//! sharing of suffix state sets, fronted by a keyed match cache):
//!
//! 1. **Trie** (patch state): every live template contributes a path of interned
//!    const-token edges and `<*>` wildcard edges. Templates with identical token
//!    sequences share the whole path; templates with a shared prefix share the prefix.
//!    Nodes are reference-counted so template *removal* (retirement during incremental
//!    maintenance) prunes exactly the now-unused suffix.
//! 2. **DFA rows**: the trie is a nondeterministic automaton (a token can follow a
//!    const edge *and* a wildcard edge), so it is determinized: a DFA state is a
//!    hash-consed sorted set of trie nodes, held once in an arena while the construction
//!    runs. Its row — one edge per const symbol seen at the set, a *default* following
//!    wildcard edges only, and the winning accept — is appended to the tables as the
//!    state is finalised. The accept is the minimum-rank template among the members,
//!    rank being the position in [`ParserModel::match_order`]: the tree walker returns
//!    the *first* match in that order, "first match in a linear scan" ≡ "minimum rank
//!    among all matches", and so the DFA reproduces the tree walker byte-for-byte.
//! 3. **NFA rows**: wildcard-heavy template sets can make subset construction explode,
//!    so determinization is capped ([`DEFAULT_MAX_DFA_STATES`]); past the cap the same
//!    row format is laid over the trie nodes themselves and matching is active-set
//!    simulation over those rows, always linear in trie size. Either way a match reads
//!    the tables only.
//! 4. **Match cache** ([`MatchCache`]): a keyed LRU over raw record lines.
//!    Production log streams are highly repetitive, so an exact-line hit skips
//!    preprocessing *and* matching. Entries are invalidated wholesale when the
//!    compiled snapshot's [`generation`](CompiledMatcher::generation) changes.
//!
//! Lifecycle: the service layer keeps an `Arc<CompiledMatcher>` snapshot next to the
//! model and the saturation ladder. Training compiles from scratch
//! ([`CompiledMatcher::compile`]); a [`ModelDelta`](crate::incremental) boundary or a
//! batch of temporary insertions patches the previous snapshot
//! ([`CompiledMatcher::refreshed`]): the patch state is copied, only changed templates
//! are removed/inserted, and new tables are built from the patched trie. Readers never
//! observe a partially updated automaton: they hold the old `Arc` until the swap.

use crate::model::ParserModel;
use crate::tree::{NodeId, TemplateToken};
use logtok::{Preprocessor, TokenScratch, TokenView};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Determinization cap: past this many DFA states the compiler abandons subset
/// construction and lays the rows over the trie instead (NFA simulation).
pub const DEFAULT_MAX_DFA_STATES: usize = 65_536;

/// Sentinel for "none" in trie links, row targets, accepts and probe slots.
const NONE: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// FNV hashing (same function family as logtok's token hash-encoder)
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a streaming hasher: fast on the short keys (tokens, log lines) this
/// module hashes, and free of the per-instance random state `SipHash` pays for
/// (so deterministic across processes).
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes.iter().copied());
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// FNV-1a over `bytes`, continuing from `hash` ([`FNV_OFFSET`] to start).
#[inline]
fn fnv1a(mut hash: u64, bytes: impl Iterator<Item = u8>) -> u64 {
    for byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

// ---------------------------------------------------------------------------
// Match tables
// ---------------------------------------------------------------------------

/// Entry `i` of an arena addressed through `offsets`: `offsets[i]..offsets[i + 1]`.
#[inline]
fn span(offsets: &[u32], i: u32) -> std::ops::Range<usize> {
    offsets[i as usize] as usize..offsets[i as usize + 1] as usize
}

/// The target of `symbol` in a row's edges (sorted by symbol id).
#[inline]
fn edge_target(edges: &[(u32, u32)], symbol: u32) -> Option<u32> {
    let pos = edges.binary_search_by_key(&symbol, |&(s, _)| s).ok()?;
    Some(edges[pos].1)
}

/// Transition rows, one flat format for both execution modes: row `r` owns
/// `edges[offsets[r]..offsets[r + 1]]`, `(symbol, target row)` sorted by symbol id.
#[derive(Debug, Clone, Default)]
struct Rows {
    offsets: Vec<u32>,
    edges: Vec<(u32, u32)>,
    /// Target for a token without an edge in the row ([`NONE`] = no such target). A DFA
    /// state's default follows its members' wildcard edges; an NFA row's is its trie
    /// node's wildcard edge, taken *beside* a const edge.
    default: Vec<u32>,
    /// `NodeId.0` of the template a record ending in this row is assigned, or [`NONE`].
    /// A DFA state's accept is the minimum-rank accept among its members, i.e. exactly
    /// what the linear tree walk would return.
    accept: Vec<u32>,
    /// NFA rows only: the rank of `accept`, to pick the winner of an active set.
    accept_rank: Vec<u32>,
}

impl Rows {
    /// Close the row whose edges were just pushed.
    fn finish_row(&mut self, default: u32, accept: u32) {
        self.offsets.push(self.edges.len() as u32);
        self.default.push(default);
        self.accept.push(accept);
    }

    #[inline]
    fn edge(&self, row: u32, symbol: u32) -> Option<u32> {
        edge_target(&self.edges[span(&self.offsets, row)], symbol)
    }
}

/// Everything a match reads and nothing a patch needs (module docs); immutable once built.
#[derive(Debug, Clone)]
pub struct MatchTables {
    rows: Rows,
    /// Rows are trie nodes, matched by active-set simulation (the DFA hit the cap).
    nfa: bool,
    /// Text of symbol `s` is `symbol_text[symbol_offsets[s]..symbol_offsets[s + 1]]`
    /// (empty for a recycled id, which no row and no probe slot names).
    symbol_offsets: Vec<u32>,
    symbol_text: String,
    /// Token text → symbol id, open addressing with linear probing at ≤ 50 % load: a
    /// slot is `(tag, symbol)` — 32 bits of the text's FNV hash; [`NONE`] marks an empty
    /// slot. One hash, one masked index and (almost always) one slot load per token; a
    /// tag hit is confirmed against the arena, so a collision costs a comparison, never
    /// a wrong symbol: byte-identity with the tree walk is absolute, not probabilistic.
    symbol_slots: Vec<(u32, u32)>,
    /// `model.nodes.len()` at compile time. Nodes appended since (temporary templates)
    /// are not compiled in: [`match_compiled`](crate::matcher::match_compiled) checks them.
    pub(crate) nodes: usize,
}

/// Probe tag of a token text: where its slot search starts, and what a slot remembers.
#[inline]
fn symbol_tag(text: &str) -> u32 {
    let hash = fnv1a(FNV_OFFSET, text.bytes());
    (hash ^ (hash >> 32)) as u32
}

impl MatchTables {
    fn symbol_text(&self, symbol: u32) -> &str {
        &self.symbol_text[span(&self.symbol_offsets, symbol)]
    }

    /// Resolve `token` to its symbol id, or `None` when no live template holds it.
    #[inline]
    fn symbol_of(&self, token: &str) -> Option<u32> {
        let (tag, mask) = (symbol_tag(token), self.symbol_slots.len() - 1);
        let mut idx = tag as usize & mask;
        loop {
            let (slot_tag, symbol) = self.symbol_slots[idx];
            if symbol == NONE {
                return None;
            }
            if slot_tag == tag && self.symbol_text(symbol) == token {
                return Some(symbol);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Match a token stream; `tokens` yields each masked token once, in order.
    fn match_symbols<'a>(&self, tokens: impl Iterator<Item = &'a str>) -> Option<NodeId> {
        let rows = &self.rows;
        let accept = if self.nfa {
            // A trie node has one parent, so successor sets never repeat a node.
            let mut active: Vec<u32> = vec![TRIE_ROOT];
            let mut next: Vec<u32> = Vec::new();
            for token in tokens {
                let symbol = self.symbol_of(token);
                next.clear();
                for &row in &active {
                    next.extend(symbol.and_then(|s| rows.edge(row, s)));
                    if rows.default[row as usize] != NONE {
                        next.push(rows.default[row as usize]);
                    }
                }
                std::mem::swap(&mut active, &mut next);
                if active.is_empty() {
                    return None;
                }
            }
            let ranked = |&row: &u32| (rows.accept_rank[row as usize], rows.accept[row as usize]);
            active.iter().map(ranked).min().map_or(NONE, |(_, id)| id)
        } else {
            let mut at = 0u32;
            for token in tokens {
                let edge = self.symbol_of(token).and_then(|s| rows.edge(at, s));
                at = edge.unwrap_or(rows.default[at as usize]);
                if at == NONE {
                    return None;
                }
            }
            rows.accept[at as usize]
        };
        (accept != NONE).then_some(NodeId(accept as usize))
    }

    /// Match a preprocessed [`TokenView`] (the zero-copy streaming path).
    pub fn match_view(&self, view: &TokenView<'_>) -> Option<NodeId> {
        self.match_symbols(view.iter())
    }

    /// Number of DFA states, or `None` when running in NFA fallback mode.
    pub fn dfa_states(&self) -> Option<usize> {
        (!self.nfa).then_some(self.rows.default.len())
    }

    /// True when subset construction hit the cap and matching simulates the NFA rows.
    pub fn uses_nfa_fallback(&self) -> bool {
        self.nfa
    }

    /// Heap bytes the tables hold, counted from capacities.
    pub fn heap_bytes(&self) -> usize {
        let (rows, slots) = (&self.rows, &self.symbol_slots);
        let words = [
            &rows.offsets,
            &rows.default,
            &rows.accept,
            &rows.accept_rank,
        ];
        let words = words.iter().map(|v| v.capacity()).sum::<usize>();
        4 * (words + self.symbol_offsets.capacity())
            + 8 * (rows.edges.capacity() + slots.capacity())
            + self.symbol_text.capacity()
    }
}

// ---------------------------------------------------------------------------
// Patch state: token interner
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
}

// ---------------------------------------------------------------------------
// Patch state: template trie
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
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
    /// The node this one hangs off, and the symbol on that edge ([`NONE`] for the
    /// wildcard edge): a template's tokens read back from where it ends.
    parent: u32,
    via: u32,
}

impl TrieNode {
    fn fresh(parent: u32, via: u32) -> Self {
        TrieNode {
            edges: Vec::new(),
            wildcard: NONE,
            accepts: Vec::new(),
            refs: 0,
            parent,
            via,
        }
    }

    /// The child along `via` ([`NONE`] for the wildcard edge), or [`NONE`].
    fn child(&self, via: u32) -> u32 {
        match via {
            NONE => self.wildcard,
            sym => edge_target(&self.edges, sym).unwrap_or(NONE),
        }
    }
}

const TRIE_ROOT: u32 = 0;

/// What [`CompiledMatcher::refreshed`] patches and the tables are built from; no match
/// reads it.
#[derive(Debug, Clone)]
struct PatchState {
    interner: Interner,
    trie: Vec<TrieNode>,
    free_trie: Vec<u32>,
    /// Where each live template's path ends, by `NodeId.0`, so a later patch knows
    /// which path to remove when a template is retired or rewritten.
    templates: FnvMap<usize, u32>,
    /// `rank[id]` = position of `NodeId(id)` in the model's match order
    /// (`u32::MAX` for non-live nodes). Lower rank wins.
    ranks: Vec<u32>,
}

/// The member sets of the DFA states under construction, each stored once: state `s`
/// is `members[offsets[s]..offsets[s + 1]]` (sorted trie nodes), hash-consed so shared
/// suffixes collapse into shared DFA tails — `newest` maps a set's hash to the latest
/// state with it, `older[s]` chains to the one before.
#[derive(Default)]
struct StateSets {
    members: Vec<u32>,
    offsets: Vec<u32>,
    newest: FnvMap<u64, u32>,
    older: Vec<u32>,
}

impl StateSets {
    fn get(&self, state: u32) -> &[u32] {
        &self.members[span(&self.offsets, state)]
    }

    /// The state whose member set is `set` (sorted), created if new.
    fn intern(&mut self, set: &[u32]) -> u32 {
        let hash = fnv1a(FNV_OFFSET, set.iter().flat_map(|m| m.to_le_bytes()));
        let mut state = self.newest.get(&hash).copied().unwrap_or(NONE);
        while state != NONE {
            if self.get(state) == set {
                return state;
            }
            state = self.older[state as usize];
        }
        let state = self.older.len() as u32;
        self.members.extend_from_slice(set);
        self.offsets.push(self.members.len() as u32);
        self.older
            .push(self.newest.insert(hash, state).unwrap_or(NONE));
        state
    }
}

impl PatchState {
    fn new() -> Self {
        PatchState {
            interner: Interner::default(),
            trie: vec![TrieNode {
                refs: 1, // the root is never recycled
                ..TrieNode::fresh(NONE, NONE)
            }],
            free_trie: Vec::new(),
            templates: FnvMap::default(),
            ranks: Vec::new(),
        }
    }

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
                let node = model.nodes.get(id);
                node.is_none_or(|n| n.retired || !self.template_unchanged(id, &n.template))
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

    /// Whether the path ending where template `id` was inserted still spells `template`.
    fn template_unchanged(&self, id: usize, template: &[TemplateToken]) -> bool {
        let Some(&end) = self.templates.get(&id) else {
            return false;
        };
        let mut at = end;
        for token in template.iter().rev() {
            let node = &self.trie[at as usize];
            let same = match token {
                _ if at == TRIE_ROOT => false,
                TemplateToken::Wildcard => node.via == NONE,
                TemplateToken::Const(c) => node.via != NONE && self.interner.text(node.via) == &**c,
            };
            if !same {
                return false;
            }
            at = node.parent;
        }
        at == TRIE_ROOT
    }

    fn insert_template(&mut self, id: NodeId, template: &[TemplateToken]) {
        let mut at = TRIE_ROOT;
        for token in template {
            let via = match token {
                TemplateToken::Wildcard => NONE,
                TemplateToken::Const(text) => self.interner.intern(text),
            };
            let mut next = self.trie[at as usize].child(via);
            if next == NONE {
                let node = TrieNode::fresh(at, via);
                next = match self.free_trie.pop() {
                    Some(slot) => {
                        self.trie[slot as usize] = node;
                        slot
                    }
                    None => {
                        self.trie.push(node);
                        (self.trie.len() - 1) as u32
                    }
                };
                let parent = &mut self.trie[at as usize];
                match via {
                    NONE => parent.wildcard = next,
                    sym => {
                        let pos = parent.edges.partition_point(|&(e, _)| e < sym);
                        parent.edges.insert(pos, (sym, next));
                    }
                }
            }
            self.trie[next as usize].refs += 1;
            at = next;
        }
        self.trie[at as usize].accepts.push(id);
        self.templates.insert(id.0, at);
    }

    fn remove_template(&mut self, id: usize) {
        let mut at = self.templates.remove(&id).expect("template present");
        self.trie[at as usize].accepts.retain(|a| a.0 != id);
        // Walk back to the root: drop one reference per path node; unlink and recycle
        // any node whose count reaches zero (no other template shares its suffix).
        while at != TRIE_ROOT {
            let node = &mut self.trie[at as usize];
            let (parent, via) = (node.parent, node.via);
            node.refs -= 1;
            if node.refs == 0 {
                debug_assert!(node.accepts.is_empty() && node.edges.is_empty());
                debug_assert_eq!(node.wildcard, NONE);
                match via {
                    NONE => self.trie[parent as usize].wildcard = NONE,
                    sym => self.trie[parent as usize].edges.retain(|&(e, _)| e != sym),
                }
                self.free_trie.push(at);
            }
            if via != NONE {
                self.interner.release(via);
            }
            at = parent;
        }
    }

    /// Winning `(rank, NodeId.0)` of a set of trie nodes: minimum rank, i.e. the
    /// template the linear scan over `match_order` would hit first; `(NONE, NONE)`
    /// when no member accepts.
    fn best_accept(&self, members: &[u32]) -> (u32, u32) {
        let mut best = (NONE, NONE);
        for &member in members {
            for &id in &self.trie[member as usize].accepts {
                let rank = self.ranks.get(id.0).copied().unwrap_or(NONE);
                debug_assert_ne!(rank, NONE, "accept for non-live template");
                if rank < best.0 {
                    best = (rank, id.0 as u32);
                }
            }
        }
        best
    }

    /// Subset construction over the trie, writing each state's row as the state is
    /// finalised (states are numbered in the order they are discovered, which is the
    /// order they are processed). `None` past `max_states`.
    fn determinize(&self, max_states: usize) -> Option<Rows> {
        let mut sets = StateSets {
            offsets: vec![0],
            ..StateSets::default()
        };
        sets.intern(&[TRIE_ROOT]);
        let mut rows = Rows {
            offsets: vec![0],
            ..Rows::default()
        };
        let (mut members, mut default_set) = (Vec::new(), Vec::new());
        let (mut const_edges, mut target) = (Vec::new(), Vec::new());
        while rows.default.len() < sets.older.len() {
            if sets.older.len() > max_states {
                return None;
            }
            members.clear();
            members.extend_from_slice(sets.get(rows.default.len() as u32));
            // A trie node has one parent, so successor sets need sorting (their
            // canonical form) but never deduplication.
            // Wildcard-only successors form the default transition.
            default_set.clear();
            default_set.extend(members.iter().map(|&m| self.trie[m as usize].wildcard));
            default_set.retain(|&w| w != NONE);
            default_set.sort_unstable();
            // One transition per const symbol present at any member; a token
            // equal to that symbol also follows every wildcard edge.
            const_edges.clear();
            for &m in &members {
                const_edges.extend_from_slice(&self.trie[m as usize].edges);
            }
            const_edges.sort_unstable();
            for same_symbol in const_edges.chunk_by(|a, b| a.0 == b.0) {
                target.clear();
                target.extend_from_slice(&default_set);
                target.extend(same_symbol.iter().map(|&(_, child)| child));
                target.sort_unstable();
                rows.edges.push((same_symbol[0].0, sets.intern(&target)));
            }
            let default = if default_set.is_empty() {
                NONE
            } else {
                sets.intern(&default_set)
            };
            rows.finish_row(default, self.best_accept(&members).1);
        }
        Some(rows)
    }

    /// The row format laid over the trie itself: row `n` is trie node `n` (a recycled
    /// slot is an empty row nothing points at).
    fn nfa_rows(&self) -> Rows {
        let mut rows = Rows {
            offsets: vec![0],
            ..Rows::default()
        };
        for (n, node) in self.trie.iter().enumerate() {
            rows.edges.extend_from_slice(&node.edges);
            let (rank, accept) = self.best_accept(&[n as u32]);
            rows.finish_row(node.wildcard, accept);
            rows.accept_rank.push(rank);
        }
        rows
    }

    /// Build the match tables from the (reconciled) patch state.
    fn tables(&self, max_dfa_states: usize) -> MatchTables {
        let symbols = &self.interner.symbols;
        let mut symbol_text = String::new();
        let mut symbol_offsets = Vec::with_capacity(symbols.len() + 1);
        let slots = (self.interner.ids.len() * 2).next_power_of_two().max(16);
        let mut symbol_slots = vec![(0, NONE); slots];
        for (symbol, entry) in symbols.iter().enumerate() {
            symbol_offsets.push(symbol_text.len() as u32);
            if entry.refs > 0 {
                symbol_text.push_str(&entry.text);
                let tag = symbol_tag(&entry.text);
                let mut idx = tag as usize & (slots - 1);
                while symbol_slots[idx].1 != NONE {
                    idx = (idx + 1) & (slots - 1);
                }
                symbol_slots[idx] = (tag, symbol as u32);
            }
        }
        symbol_offsets.push(symbol_text.len() as u32);
        symbol_text.shrink_to_fit();
        let dfa = self.determinize(max_dfa_states);
        let nfa = dfa.is_none();
        let mut rows = dfa.unwrap_or_else(|| self.nfa_rows());
        // The rows grew by pushes; what stays resident is what they hold.
        rows.edges.shrink_to_fit();
        for words in [
            &mut rows.offsets,
            &mut rows.default,
            &mut rows.accept,
            &mut rows.accept_rank,
        ] {
            words.shrink_to_fit();
        }
        MatchTables {
            rows,
            nfa,
            symbol_offsets,
            symbol_text,
            symbol_slots,
            nodes: self.ranks.len(),
        }
    }

    fn canonical_node(&self, node: u32, prefix: &mut String, out: &mut String) {
        let trie_node = &self.trie[node as usize];
        if !trie_node.accepts.is_empty() {
            let ranked = |id: &NodeId| (self.ranks.get(id.0).copied().unwrap_or(NONE), id.0);
            let mut accepts: Vec<(u32, usize)> = trie_node.accepts.iter().map(ranked).collect();
            accepts.sort_unstable();
            let listed = accepts
                .iter()
                .map(|(rank, id)| format!("[rank {rank} node {id}]"));
            out.push_str(&format!("{prefix} => {}\n", listed.collect::<String>()));
        }
        let text = |&(sym, child): &(u32, u32)| (self.interner.text(sym), child);
        let mut edges: Vec<(&str, u32)> = trie_node.edges.iter().map(text).collect();
        edges.sort_unstable();
        // The wildcard edge last, whatever the texts sort like.
        edges.extend(Some(("<*>", trie_node.wildcard)).filter(|&(_, child)| child != NONE));
        for (text, child) in edges {
            let saved = prefix.len();
            prefix.push(' ');
            prefix.push_str(text);
            self.canonical_node(child, prefix, out);
            prefix.truncate(saved);
        }
    }
}

// ---------------------------------------------------------------------------
// CompiledMatcher
// ---------------------------------------------------------------------------

/// Monotone generation counter: every compiled snapshot gets a process-unique
/// generation, which is the cache-invalidation key for [`MatchCache`].
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// A compiled snapshot of one model's live template set: the [`MatchTables`] plus the
/// patch state the next [`refreshed`](CompiledMatcher::refreshed) starts from.
/// Immutable once built; the service layer shares it via `Arc` and swaps whole
/// snapshots at delta boundaries (same lifecycle as the saturation ladder).
#[derive(Debug, Clone)]
pub struct CompiledMatcher {
    tables: MatchTables,
    patch: PatchState,
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
        Self::finalize(PatchState::new(), model, max_dfa_states)
    }

    /// Produce a new snapshot consistent with `model` by *patching* this one:
    /// templates that are unchanged keep their trie paths untouched; retired
    /// or rewritten templates are pruned; new templates are inserted; the tables
    /// are rebuilt from the patched trie. Only the patch state is copied. Called at
    /// every `apply_delta`/`swap_model` boundary. Equivalent (proven by the property
    /// suite) to [`CompiledMatcher::compile`] on the post-delta model.
    pub fn refreshed(&self, model: &ParserModel) -> Self {
        Self::finalize(self.patch.clone(), model, self.max_dfa_states)
    }

    /// Shared tail of compile/refresh: reconcile the patch state with `model`,
    /// build the tables from it, and stamp a fresh generation.
    fn finalize(mut patch: PatchState, model: &ParserModel, max_dfa_states: usize) -> Self {
        patch.reconcile(model);
        CompiledMatcher {
            tables: patch.tables(max_dfa_states),
            patch,
            max_dfa_states,
            generation: GENERATION.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// What matching reads.
    pub fn tables(&self) -> &MatchTables {
        &self.tables
    }

    /// Keep what matching reads and drop the patch state: for a holder that will
    /// compile again rather than patch.
    pub fn into_tables(self) -> MatchTables {
        self.tables
    }

    /// Process-unique id of this snapshot; [`MatchCache`] keys on it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live templates compiled in.
    pub fn live_templates(&self) -> usize {
        self.patch.templates.len()
    }

    /// Number of live trie nodes (structural sharing makes this far smaller
    /// than total template tokens on real template sets).
    pub fn trie_nodes(&self) -> usize {
        self.patch.trie.len() - self.patch.free_trie.len()
    }

    /// [`MatchTables::dfa_states`] of this snapshot.
    pub fn dfa_states(&self) -> Option<usize> {
        self.tables.dfa_states()
    }

    /// Number of distinct interned const tokens.
    pub fn interned_symbols(&self) -> usize {
        self.patch.interner.ids.len()
    }

    /// [`MatchTables::uses_nfa_fallback`] of this snapshot.
    pub fn uses_nfa_fallback(&self) -> bool {
        self.tables.uses_nfa_fallback()
    }

    /// [`MatchTables::match_view`] of this snapshot.
    pub fn match_view(&self, view: &TokenView<'_>) -> Option<NodeId> {
        self.tables.match_view(view)
    }

    /// Canonical description of the compiled template set: a deterministic
    /// trie traversal with edges ordered by token text and accepts ordered by
    /// rank, independent of insertion/removal history and node numbering. Two
    /// matchers with equal canonical forms and equal rank tables are
    /// behaviorally identical (the tables are a pure function of both). The
    /// property suite uses this to prove patched ≡ recompiled.
    pub fn canonical_form(&self) -> String {
        let mut out = String::new();
        self.patch
            .canonical_node(TRIE_ROOT, &mut String::new(), &mut out);
        out
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

    /// Match `record` through the cache, hashing the line first; a miss is matched on
    /// `compiled`'s tables. Prefer
    /// [`match_record_hashed`](MatchCache::match_record_hashed) when the caller already
    /// carries the record's line hash.
    pub fn match_record(
        &mut self,
        compiled: &CompiledMatcher,
        preprocessor: &Preprocessor,
        scratch: &mut TokenScratch,
        record: &str,
    ) -> Option<NodeId> {
        let miss = || compiled.match_view(&preprocessor.token_view(record, scratch));
        self.match_record_hashed(compiled.generation, record, logtok::hash_line(record), miss)
    }

    /// Look `record` up by its precomputed FNV line hash: an exact-line hit returns the
    /// stored assignment; on a miss `miss` matches the record (against the snapshot
    /// `generation` names) and the result is remembered. A `generation` other than the
    /// cached entries' invalidates the whole cache first.
    pub fn match_record_hashed(
        &mut self,
        generation: u64,
        record: &str,
        line_hash: u64,
        miss: impl FnOnce() -> Option<NodeId>,
    ) -> Option<NodeId> {
        if self.generation != generation {
            self.current.clear();
            self.previous.clear();
            self.generation = generation;
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
        let node = miss();
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
        compiled.tables.match_symbols(tokens.iter().copied())
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
