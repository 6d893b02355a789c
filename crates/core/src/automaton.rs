//! Automaton-compiled matching: compile the live (non-retired) template set into a
//! single multi-pattern automaton over masked token streams, so matching one record
//! costs one state transition per token instead of one positional comparison per
//! template per token.
//!
//! A compiled snapshot ([`CompiledMatcher`]) is everything a match reads, as flat
//! vectors: transition rows, the text of every interned symbol in one arena, and an
//! open-addressing probe table from token text to symbol id. What the rows are built
//! from — a token interner and a template trie — lives only while
//! [`CompiledMatcher::compile`] runs.
//!
//! The construction is the token-trie → subset-construction DFA move reported by
//! production log pipelines (trie with wildcard edges, determinized with structural
//! sharing of suffix state sets, fronted by a keyed match cache):
//!
//! 1. **Trie** (a local of compile): every live template contributes a path of interned
//!    const-token edges and `<*>` wildcard edges. Templates with identical token
//!    sequences share the whole path; templates with a shared prefix share the prefix.
//!    A trie node remembers the one template ending at it that the tree walk would try
//!    first.
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
//!    preprocessing *and* matching, and hands back the variable slots the miss
//!    extracted (spans of the line, so valid for every copy of it). An entry is an
//!    answer under one pair — the snapshot's
//!    [`generation`](CompiledMatcher::generation) and the length of the model whose
//!    appended nodes the kernel scans — and the cache is dropped wholesale when the
//!    pair changes.
//!
//! Lifecycle: one snapshot lives next to its model and is compiled from the whole model
//! when the model is trained, lands a delta or (in the service) is recovered — at no
//! other time, and never patched. A temporary template inserted in between is an
//! appended node, which [`match_compiled`](crate::matcher::match_compiled) scans after
//! the tables miss: it costs a scan of the nodes appended since the compile, paid only
//! by records the tables miss, not a compile. Readers never observe a partially built
//! automaton: they hold the old `Arc` until the swap.

use crate::matcher::{SlotBuffer, SlotRange};
use crate::model::ParserModel;
use crate::tree::{NodeId, TemplateToken};
use logtok::{hash_line, FnvHasher, FnvMap, Preprocessor, TokenScratch, TokenView};
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};

/// Determinization cap: past this many DFA states the compiler abandons subset
/// construction and lays the rows over the trie instead (NFA simulation).
pub const DEFAULT_MAX_DFA_STATES: usize = 65_536;

/// Sentinel for "none" in trie links, row targets, accepts and probe slots.
const NONE: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Transition rows
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
    fn new() -> Self {
        Rows {
            offsets: vec![0],
            ..Rows::default()
        }
    }

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

// ---------------------------------------------------------------------------
// Template trie (lives while compile runs)
// ---------------------------------------------------------------------------

struct TrieNode {
    /// Const-token edges, sorted by symbol id for binary search.
    edges: Vec<(u32, u32)>,
    /// Wildcard (`<*>`) edge, taken by *any* token.
    wildcard: u32,
    /// `(rank, NodeId.0)` of the lowest-rank template whose token sequence ends here,
    /// or `(NONE, NONE)`; rank is the position in [`ParserModel::match_order`].
    accept: (u32, u32),
}

impl TrieNode {
    const EMPTY: TrieNode = TrieNode {
        edges: Vec::new(),
        wildcard: NONE,
        accept: (NONE, NONE),
    };
}

const TRIE_ROOT: u32 = 0;

/// The live templates as a trie over interned symbols: what compile determinizes.
struct Trie<'a> {
    nodes: Vec<TrieNode>,
    /// Text of each const token, by symbol id.
    symbols: Vec<&'a str>,
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
        let mut hasher = FnvHasher::default();
        set.iter().for_each(|m| hasher.write(&m.to_le_bytes()));
        let hash = hasher.finish();
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

impl<'a> Trie<'a> {
    /// The trie of `model`'s live templates, i.e. its match order.
    fn build(model: &'a ParserModel) -> Self {
        let mut trie = Trie {
            nodes: vec![TrieNode::EMPTY],
            symbols: Vec::new(),
        };
        let mut ids: FnvMap<&'a str, u32> = FnvMap::default();
        for (rank, &id) in model.match_order().iter().enumerate() {
            let mut at = TRIE_ROOT;
            for token in &model.nodes[id.0].template {
                let via = match token {
                    TemplateToken::Wildcard => NONE,
                    TemplateToken::Const(text) => *ids.entry(text).or_insert_with(|| {
                        trie.symbols.push(text);
                        trie.symbols.len() as u32 - 1
                    }),
                };
                at = trie.child(at, via);
            }
            let end = &mut trie.nodes[at as usize];
            if (rank as u32) < end.accept.0 {
                end.accept = (rank as u32, id.0 as u32);
            }
        }
        trie
    }

    /// The child of `at` along `via` ([`NONE`] for the wildcard edge), created if new.
    fn child(&mut self, at: u32, via: u32) -> u32 {
        let fresh = self.nodes.len() as u32;
        let parent = &mut self.nodes[at as usize];
        let child = match via {
            NONE if parent.wildcard == NONE => {
                parent.wildcard = fresh;
                fresh
            }
            NONE => parent.wildcard,
            sym => {
                let pos = parent.edges.partition_point(|&(e, _)| e < sym);
                match parent.edges.get(pos) {
                    Some(&(e, child)) if e == sym => child,
                    _ => {
                        parent.edges.insert(pos, (sym, fresh));
                        fresh
                    }
                }
            }
        };
        if child == fresh {
            self.nodes.push(TrieNode::EMPTY);
        }
        child
    }

    /// `NodeId.0` of the winning accept of a set of trie nodes: minimum rank, i.e. the
    /// template the linear scan over `match_order` would hit first; [`NONE`] when no
    /// member accepts.
    fn best_accept(&self, members: &[u32]) -> u32 {
        let mut best = (NONE, NONE);
        for &member in members {
            let (rank, id) = self.nodes[member as usize].accept;
            if rank < best.0 {
                best = (rank, id);
            }
        }
        best.1
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
        let mut rows = Rows::new();
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
            default_set.extend(members.iter().map(|&m| self.nodes[m as usize].wildcard));
            default_set.retain(|&w| w != NONE);
            default_set.sort_unstable();
            // One transition per const symbol present at any member; a token
            // equal to that symbol also follows every wildcard edge.
            const_edges.clear();
            for &m in &members {
                const_edges.extend_from_slice(&self.nodes[m as usize].edges);
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
            rows.finish_row(default, self.best_accept(&members));
        }
        Some(rows)
    }

    /// The row format laid over the trie itself: row `n` is trie node `n`.
    fn nfa_rows(&self) -> Rows {
        let mut rows = Rows::new();
        for node in &self.nodes {
            rows.edges.extend_from_slice(&node.edges);
            rows.finish_row(node.wildcard, node.accept.1);
            rows.accept_rank.push(node.accept.0);
        }
        rows
    }
}

// ---------------------------------------------------------------------------
// CompiledMatcher
// ---------------------------------------------------------------------------

/// Monotone generation counter: every compiled snapshot gets a process-unique
/// generation, half of the cache-invalidation key of [`MatchCache`].
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// A compiled snapshot of one model's live template set: everything a match reads and
/// nothing else (module docs). Immutable once built; the service layer shares it via
/// `Arc` and swaps whole snapshots when a model lands (same lifecycle as the saturation
/// ladder).
#[derive(Debug, Clone)]
pub struct CompiledMatcher {
    rows: Rows,
    /// Rows are trie nodes, matched by active-set simulation (the DFA hit the cap).
    nfa: bool,
    /// Text of symbol `s` is `symbol_text[symbol_offsets[s]..symbol_offsets[s + 1]]`.
    symbol_offsets: Vec<u32>,
    symbol_text: String,
    /// Token text → symbol id, open addressing with linear probing at ≤ 50 % load: a
    /// slot is `(tag, symbol)` — 32 bits of the text's FNV hash; [`NONE`] marks an empty
    /// slot. One hash, one masked index and (almost always) one slot load per token; a
    /// tag hit is confirmed against the arena, so a collision costs a comparison, never
    /// a wrong symbol: byte-identity with the tree walk is absolute, not probabilistic.
    symbol_slots: Vec<(u32, u32)>,
    /// `model.len()` at compile time. Nodes appended since (temporary templates) are not
    /// compiled in: [`match_compiled`](crate::matcher::match_compiled) scans them.
    nodes: usize,
    max_dfa_states: usize,
    generation: u64,
}

/// Probe tag of a token text: where its slot search starts, and what a slot remembers.
#[inline]
fn symbol_tag(text: &str) -> u32 {
    let hash = hash_line(text);
    (hash ^ (hash >> 32)) as u32
}

impl CompiledMatcher {
    /// Compile `model`'s live (non-retired) template set.
    pub fn compile(model: &ParserModel) -> Self {
        Self::compile_with_limit(model, DEFAULT_MAX_DFA_STATES)
    }

    /// [`compile`](CompiledMatcher::compile) with an explicit determinization
    /// cap — tests use a tiny cap to force the NFA fallback path.
    pub fn compile_with_limit(model: &ParserModel, max_dfa_states: usize) -> Self {
        let trie = Trie::build(model);
        let mut symbol_text = String::new();
        let mut symbol_offsets = Vec::with_capacity(trie.symbols.len() + 1);
        let slots = (trie.symbols.len() * 2).next_power_of_two().max(16);
        let mut symbol_slots = vec![(0, NONE); slots];
        for (symbol, text) in trie.symbols.iter().enumerate() {
            symbol_offsets.push(symbol_text.len() as u32);
            symbol_text.push_str(text);
            let tag = symbol_tag(text);
            let mut idx = tag as usize & (slots - 1);
            while symbol_slots[idx].1 != NONE {
                idx = (idx + 1) & (slots - 1);
            }
            symbol_slots[idx] = (tag, symbol as u32);
        }
        symbol_offsets.push(symbol_text.len() as u32);
        symbol_text.shrink_to_fit();
        let dfa = trie.determinize(max_dfa_states);
        let nfa = dfa.is_none();
        let mut rows = dfa.unwrap_or_else(|| trie.nfa_rows());
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
        CompiledMatcher {
            rows,
            nfa,
            symbol_offsets,
            symbol_text,
            symbol_slots,
            nodes: model.len(),
            max_dfa_states,
            generation: GENERATION.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Compile `model` under this snapshot's determinization cap — what a holder calls
    /// when its model is trained, lands a delta or is recovered. Nothing else of `self`
    /// is read: a snapshot is never patched.
    pub fn refreshed(&self, model: &ParserModel) -> Self {
        Self::compile_with_limit(model, self.max_dfa_states)
    }

    /// Process-unique id of this snapshot; [`MatchCache`] keys on it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// `model.len()` when this snapshot was compiled: the nodes appended since are the
    /// tail [`match_compiled`](crate::matcher::match_compiled) scans.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

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

    /// Match a token stream on the tables; `tokens` yields each masked token once, in
    /// order.
    pub(crate) fn match_symbols<'a>(
        &self,
        tokens: impl Iterator<Item = &'a str>,
    ) -> Option<NodeId> {
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

    /// Match a preprocessed [`TokenView`] on the tables alone: the nodes appended to the
    /// model since the compile are not looked at. Benchmarks and tests call it;
    /// production matching is [`match_compiled`](crate::matcher::match_compiled).
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

    /// Heap bytes the snapshot holds, counted from capacities.
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
// Match cache
// ---------------------------------------------------------------------------

/// Keyed LRU cache over raw record lines. Log streams are dominated by a small
/// set of exact-duplicate lines; a hit skips preprocessing and matching
/// entirely. Implemented as a segmented (two-generation) LRU — constant-time
/// probe/insert, bounded at `2 × capacity` entries — and owned per worker
/// thread, so the hot path takes no lock. Entries are tagged with the
/// `(generation, model length)` pair they were decided under, and the whole cache is
/// dropped when the pair changes.
///
/// Keys are precomputed 64-bit FNV line hashes ([`logtok::hash_line`]): the
/// stream layer hashes each record once at admission and carries the
/// hash through the job, so a cache probe re-hashes 8 bytes instead of the
/// whole line. Each entry stores the full line and verifies it on a hit, so a
/// hash collision degrades to a miss — results stay byte-identical. An entry's slots
/// live in its segment's one [`SlotBuffer`], so remembering them allocates nothing
/// per line.
#[derive(Debug)]
pub struct MatchCache {
    capacity: usize,
    snapshot: (u64, usize),
    current: FnvMap<u64, CacheEntry>,
    previous: FnvMap<u64, CacheEntry>,
    /// The slots of `current`'s and `previous`'s entries.
    current_slots: SlotBuffer,
    previous_slots: SlotBuffer,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    line: Box<str>,
    node: Option<NodeId>,
    /// The slots the miss extracted, in its segment's buffer: spans of the line, so
    /// valid for every copy of it.
    slots: SlotRange,
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
            snapshot: (0, 0),
            current: FnvMap::default(),
            previous: FnvMap::default(),
            current_slots: SlotBuffer::new(),
            previous_slots: SlotBuffer::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Match `record` through the cache, hashing the line first; a miss is matched on
    /// `compiled`'s tables alone ([`CompiledMatcher::match_view`] — no tail of appended
    /// nodes) and extracts no slots. Benchmarks and tests call it; the pool worker calls
    /// [`match_record_hashed`](MatchCache::match_record_hashed) with the kernel.
    pub fn match_record(
        &mut self,
        compiled: &CompiledMatcher,
        preprocessor: &Preprocessor,
        scratch: &mut TokenScratch,
        record: &str,
    ) -> Option<NodeId> {
        let miss =
            |_: &mut SlotBuffer| compiled.match_view(&preprocessor.token_view(record, scratch));
        let snapshot = (compiled.generation, compiled.nodes);
        let hash = logtok::hash_line(record);
        let mut no_slots = SlotBuffer::new();
        self.match_record_hashed(snapshot, record, hash, &mut no_slots, miss)
            .0
    }

    /// Look `record` up by its precomputed FNV line hash: an exact-line hit returns the
    /// stored assignment and appends the stored slots to `slots`; on a miss `miss`
    /// matches the record, appending its slots to `slots`, and both are remembered.
    /// `snapshot` names everything `miss` decides on — the compiled snapshot's
    /// generation and the length of the model whose appended nodes it scans — and a
    /// pair other than the cached entries' invalidates the whole cache first.
    pub fn match_record_hashed(
        &mut self,
        snapshot: (u64, usize),
        record: &str,
        line_hash: u64,
        slots: &mut SlotBuffer,
        miss: impl FnOnce(&mut SlotBuffer) -> Option<NodeId>,
    ) -> (Option<NodeId>, SlotRange) {
        if self.snapshot != snapshot {
            self.current.clear();
            self.previous.clear();
            self.current_slots.clear();
            self.previous_slots.clear();
            self.snapshot = snapshot;
        }
        if let Some(entry) = self.current.get(&line_hash) {
            if &*entry.line == record {
                self.hits += 1;
                return (
                    entry.node,
                    slots.append_from(&self.current_slots, entry.slots),
                );
            }
        }
        if let Some(entry) = self.previous.remove(&line_hash) {
            if &*entry.line == record {
                self.hits += 1;
                let (node, range) = (
                    entry.node,
                    slots.append_from(&self.previous_slots, entry.slots),
                );
                self.insert(line_hash, entry, slots, range);
                return (node, range);
            }
        }
        self.misses += 1;
        let before = slots.len();
        let node = miss(slots);
        let range = slots.since(before);
        let entry = CacheEntry {
            line: record.into(),
            node,
            slots: SlotRange::default(),
        };
        self.insert(line_hash, entry, slots, range);
        (node, range)
    }

    /// Remember `entry` with the slots `range` of `slots` (the caller's buffer, which
    /// already holds them: a promoted entry's own segment may be the one rotated out).
    fn insert(
        &mut self,
        line_hash: u64,
        mut entry: CacheEntry,
        slots: &SlotBuffer,
        range: SlotRange,
    ) {
        if self.current.len() >= self.capacity {
            // Rotate segments: the old `current` becomes `previous` (probed,
            // promoted on hit) and the evicted segment is dropped wholesale.
            self.previous = std::mem::take(&mut self.current);
            std::mem::swap(&mut self.previous_slots, &mut self.current_slots);
            self.current_slots.clear();
        }
        entry.slots = self.current_slots.append_from(slots, range);
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
    use crate::matcher::{match_view, SlotBuffer};
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
        let pre = Preprocessor::new(config.preprocess.clone());
        let outcome = train(&corpus(), &pre, &config);
        (outcome.model, pre)
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
        assert_eq!(compiled.nodes(), 0);
    }

    #[test]
    fn refreshed_compiles_the_given_model_under_the_same_cap() {
        let (mut model, pre) = trained();
        let capped = CompiledMatcher::compile_with_limit(&model, 2);
        let tokens = ["gamma", "ray", "burst"];
        let id = model.insert_temporary(&tokens.map(String::from));
        assert_eq!(
            match_literal(&capped, &tokens),
            None,
            "a snapshot never changes"
        );
        let recompiled = capped.refreshed(&model);
        assert!(recompiled.uses_nfa_fallback());
        assert_eq!(recompiled.nodes(), model.len());
        assert_eq!(match_literal(&recompiled, &tokens), Some(id));
        assert_agrees(&model, &recompiled, &pre);
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
        model.insert_temporary(&["fresh".into(), "template".into()]);
        let swapped = compiled.refreshed(&model);
        let after = cache.match_record(&swapped, &pre, &mut scratch, line);
        assert_eq!(after, miss);
        assert_eq!(cache.stats(), (1, 2), "generation change must re-match");
    }

    /// Slots come back from a hit in either segment — a promoted entry's included, and
    /// across the rotation its promotion may trigger — as the miss extracted them.
    #[test]
    fn match_cache_hits_hand_back_the_slots_their_miss_extracted() {
        let mut cache = MatchCache::new(2);
        let lines: Vec<String> = (0..7)
            .map(|i| format!("job {i} took {}ms", 10 * i))
            .collect();
        let probe = |cache: &mut MatchCache, line: &str| {
            let mut slots = SlotBuffer::new();
            slots.push_values("unrelated line", ["line"]);
            let miss = |slots: &mut SlotBuffer| {
                let values = line.split(' ').filter(|t| t.starts_with(char::is_numeric));
                slots.push_values(line, values);
                Some(NodeId(line.len()))
            };
            let hash = logtok::hash_line(line);
            let (node, range) = cache.match_record_hashed((1, 1), line, hash, &mut slots, miss);
            assert_eq!(node, Some(NodeId(line.len())));
            slots
                .values(line, range)
                .map(String::from)
                .collect::<Vec<_>>()
        };
        let want = |line: &str| {
            let values = line.split(' ').filter(|t| t.starts_with(char::is_numeric));
            values.map(String::from).collect::<Vec<_>>()
        };
        for round in 0..3 {
            for line in lines.iter().chain(lines.iter().rev()) {
                assert_eq!(probe(&mut cache, line), want(line), "round {round}");
            }
        }
        let (hits, misses) = cache.stats();
        assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
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
