//! Online matching (§4.8): match incoming logs against stored template texts.
//!
//! Templates are tried in descending saturation order (deepest/most precise first); a
//! template matches when the log has the same token count and every position equals the
//! template token or the template holds a wildcard. This avoids recomputing positional
//! similarity distances and traversing the tree online, which is what keeps the model
//! small (no per-node token statistics) and matching cheap.
//!
//! That definition is [`match_view`], the linear tree walk. Nothing in production runs
//! it: every match decision — [`ByteBrainParser`](crate::ByteBrainParser), the service's
//! batch path, pool workers and stale re-match — is one call of [`match_compiled`]. It
//! reads the [`CompiledMatcher`] its holder compiled when the model was last trained,
//! landed or recovered, scans the temporary templates appended since when that misses,
//! and under debug assertions checks itself against the walk.
//!
//! A match decides a template *and* the record's variables: the tokens at the matched
//! template's wildcard positions. [`SlotBuffer::extract`] takes them from the
//! [`TokenView`] the match was decided on, so a record is masked once — the structured
//! form (template id + slots) is what the match produces, not something re-derived
//! later. [`match_line`] is that step — mask, decide, extract — and the only one a
//! kernel runs per line: [`match_ids_batch`] on every line, a service stream worker on
//! every miss of its line cache.

use crate::automaton::CompiledMatcher;
use crate::model::ParserModel;
use crate::parallel::run_parallel;
use crate::tree::{NodeId, TemplateToken};
use logtok::{Preprocessor, TokenScratch, TokenView};
use serde::{Deserialize, Serialize};

/// The result of matching one log: ids only. The template text is rendered on demand,
/// by [`ByteBrainParser::template`](crate::ByteBrainParser::template).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchResult {
    /// Matched node (most precise template), `None` when no template matched.
    pub node: Option<NodeId>,
    /// Saturation of the matched node (0 when unmatched).
    pub saturation: f64,
}

impl MatchResult {
    /// True when a template matched.
    pub fn is_matched(&self) -> bool {
        self.node.is_some()
    }

    /// The match decision `node` of `model`.
    pub(crate) fn of(model: &ParserModel, node: Option<NodeId>) -> Self {
        MatchResult {
            node,
            saturation: node.map_or(0.0, |id| model.nodes[id.0].saturation),
        }
    }
}

/// The linear tree walk (§4.8), kept as the **oracle**: match a [`TokenView`] produced by
/// [`Preprocessor::token_view`] against the templates in match order and return the first
/// (most precise) matching template id. It has no production caller — [`match_compiled`]'s
/// debug assertion and the differential suites are what run it.
pub fn match_view(model: &ParserModel, view: &TokenView<'_>) -> Option<NodeId> {
    walk(model, view.iter())
}

/// [`match_view`] over any masked token stream.
fn walk<'t>(
    model: &ParserModel,
    tokens: impl ExactSizeIterator<Item = &'t str> + Clone,
) -> Option<NodeId> {
    model
        .match_order()
        .iter()
        .copied()
        .find(|id| model.nodes[id.0].matches(tokens.clone()))
}

/// The one production match decision: `compiled`, compiled from `model` at its last
/// training, landing or recovery, plus a linear look at the nodes appended to `model`
/// since — the tail. Those can only be temporary templates
/// ([`ParserModel::insert_temporary`]; every other model change compiles anew) —
/// exact-token templates of lines that everything older missed, so at most one of them
/// matches a record, and only a record the tables miss. Together that is the live model:
/// a temporary costs a scan, paid only by records the tables miss, never a compile.
/// Builds with debug assertions hold every decision to the tree walk.
///
/// `tokens` are the record's masked tokens, in order: a [`TokenView`]'s
/// [`iter`](TokenView::iter), or the tokens a unique log of a preprocessed batch kept.
pub fn match_compiled<'t>(
    model: &ParserModel,
    compiled: &CompiledMatcher,
    tokens: impl ExactSizeIterator<Item = &'t str> + Clone,
) -> Option<NodeId> {
    let node = compiled.match_symbols(tokens.clone()).or_else(|| {
        let mut appended = model.nodes[compiled.nodes()..].iter();
        appended.find(|n| n.matches(tokens.clone())).map(|n| n.id)
    });
    debug_assert_eq!(
        node,
        walk(model, tokens.clone()),
        "automaton diverged from the tree walk on {:?}",
        tokens.collect::<Vec<_>>()
    );
    node
}

/// Where one variable slot's text lives, in 32 bits: a byte span of the record's own
/// line — its start in the low 16 bits, its length in the next 15 — when masking left
/// the token intact there, or, with [`HELD`] set, the index of a value the
/// [`SlotBuffer`] holds itself: a token as masking rewrote it, or one past what a span
/// can address (a line longer than 64 KiB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot(u32);

/// Flag bit of a [`Slot`] whose value the buffer holds.
const HELD: u32 = 1 << 31;
/// Exclusive bounds of a span's start and length.
const SPAN_START: usize = 1 << 16;
const SPAN_LEN: usize = 1 << 15;

/// One record's slots: `len` consecutive slots of a [`SlotBuffer`] from `start`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotRange {
    /// Index of the record's first slot in the buffer.
    pub start: u32,
    /// Number of slots.
    pub len: u32,
}

impl SlotRange {
    fn slots(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// The range once its buffer was appended to another at `offset`
    /// ([`SlotBuffer::append`]).
    pub fn shifted(self, offset: u32) -> SlotRange {
        SlotRange {
            start: self.start + offset,
            ..self
        }
    }
}

/// The variable slots of matched records: per record, the tokens at its matched
/// template's wildcard positions, in order (§3: a template plus the values in its
/// wildcard slots is the structured log). A slot is a span of the record's *raw* line
/// wherever the token occurs there — every token masking left intact — so the values
/// of a record's [`SlotRange`] are read against that line, from any copy of it; only a
/// token masking rewrote (`user<*>`) is copied into the buffer. Slots are a function
/// of the line and the template, so a line cache can hand out the slots it extracted
/// once for every later copy of the line. A slot takes four bytes.
///
/// The definition is that of the scan oracle's `variables_of`: the masked tokens at
/// the wildcard positions, none at all when the token count disagrees with the
/// template.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotBuffer {
    slots: Vec<Slot>,
    /// The values held slots name, back to back, and where each ends.
    held: String,
    held_ends: Vec<u32>,
}

impl SlotBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drop every slot, keeping the capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.held.clear();
        self.held_ends.clear();
    }

    /// Give back the capacity the buffer grew beyond what it holds.
    pub fn shrink_to_fit(&mut self) {
        self.slots.shrink_to_fit();
        self.held.shrink_to_fit();
        self.held_ends.shrink_to_fit();
    }

    /// The range of the slots pushed since the buffer held `start` of them.
    pub(crate) fn since(&self, start: usize) -> SlotRange {
        let len = self.slots.len() - start;
        SlotRange {
            start: u32::try_from(start).expect("slot index fits u32"),
            len: u32::try_from(len).expect("slot count fits u32"),
        }
    }

    /// A slot for `line[start..end]`: the span, or the value held when the span does
    /// not fit.
    fn push_span(&mut self, line: &str, (start, end): (usize, usize)) {
        if start < SPAN_START && end - start < SPAN_LEN {
            self.slots
                .push(Slot(start as u32 | ((end - start) as u32) << 16));
        } else {
            self.push_held(&line[start..end]);
        }
    }

    fn push_held(&mut self, value: &str) {
        let index = u32::try_from(self.held_ends.len()).expect("held values fit u32");
        assert!(index & HELD == 0, "more than 2³¹ held slot values");
        self.held.push_str(value);
        let end = u32::try_from(self.held.len()).expect("held values fit 4 GiB");
        self.held_ends.push(end);
        self.slots.push(Slot(HELD | index));
    }

    /// Append the slots of `line` matched to `node` of `model`, read off `view` — the
    /// view the match was decided on: the tokens at the template's wildcard positions,
    /// none when the token count disagrees with it. A line no template matched
    /// (`node` is `None`) gets every token: they are the constants of the temporary
    /// template it is about to become, read off the same view.
    pub fn extract(
        &mut self,
        model: &ParserModel,
        node: Option<NodeId>,
        line: &str,
        view: &TokenView<'_>,
    ) -> SlotRange {
        let start = self.slots.len();
        let template = node.map(|id| &model.nodes[id.0].template);
        if template.is_some_and(|template| template.len() != view.len()) {
            return self.since(start);
        }
        let slots = (0..view.len()).filter(|&i| {
            template.is_none_or(|template| matches!(template[i], TemplateToken::Wildcard))
        });
        for i in slots {
            match view.raw_span(i) {
                Some(span) => {
                    debug_assert_eq!(&line[span.0..span.1], view.get(i), "raw span of {i}");
                    self.push_span(line, span);
                }
                None => self.push_held(view.get(i)),
            }
        }
        self.since(start)
    }

    /// Append slots holding `values`, each a span of `line` where it occurs there and a
    /// copy where it does not (a token masking rewrote). Tokens appear in the line in
    /// order, so each search starts where the previous value was found.
    pub fn push_values<'v>(
        &mut self,
        line: &str,
        values: impl IntoIterator<Item = &'v str>,
    ) -> SlotRange {
        let start = self.slots.len();
        let mut from = 0;
        for value in values {
            self.push_value(line, value, &mut from);
        }
        self.since(start)
    }

    fn push_value(&mut self, line: &str, value: &str, from: &mut usize) {
        match line[*from..].find(value) {
            Some(at) => {
                let at = *from + at;
                self.push_span(line, (at, at + value.len()));
                *from = at + value.len();
            }
            None => self.push_held(value),
        }
    }

    /// Append a copy of `other`'s slots `range` (spans stay spans of the same line).
    pub fn append_from(&mut self, other: &SlotBuffer, range: SlotRange) -> SlotRange {
        let start = self.slots.len();
        for &slot in &other.slots[range.slots()] {
            if slot.0 & HELD == 0 {
                self.slots.push(slot);
            } else {
                self.push_held(other.value("", slot));
            }
        }
        self.since(start)
    }

    /// Append every slot of `other`, returning where they start: a range of `other`
    /// moves up by that much.
    pub fn append(&mut self, other: &SlotBuffer) -> u32 {
        let all = other.since(0);
        self.append_from(other, all).start
    }

    fn value<'a>(&'a self, line: &'a str, Slot(slot): Slot) -> &'a str {
        if slot & HELD == 0 {
            let start = (slot & 0xFFFF) as usize;
            return &line[start..start + (slot >> 16) as usize];
        }
        let index = (slot & !HELD) as usize;
        let start = index.checked_sub(1).map_or(0, |prev| self.held_ends[prev]);
        &self.held[start as usize..self.held_ends[index] as usize]
    }

    /// The values of the slots `range`, read against `line`, the record they belong to.
    pub fn values<'a>(
        &'a self,
        line: &'a str,
        range: SlotRange,
    ) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        self.slots[range.slots()]
            .iter()
            .map(move |&slot| self.value(line, slot))
    }
}

/// What a match kernel decided for a batch: [`match_ids_batch`], or a streaming
/// worker running [`match_line`] behind its line cache.
#[derive(Debug, Default)]
pub struct BatchMatch {
    /// Per record, in input order: the matched node (`None` when no template matched)
    /// and the record's slots in `slots` (see [`SlotBuffer::extract`]; every token when
    /// unmatched).
    pub ids: Vec<(Option<NodeId>, SlotRange)>,
    /// The slots `ids` name, spans of the records they were extracted from.
    pub slots: SlotBuffer,
}

impl BatchMatch {
    /// Append the decisions for the records that follow this batch's.
    pub fn append(&mut self, other: BatchMatch) {
        if self.ids.is_empty() {
            *self = other;
            return;
        }
        let moved = self.slots.append(&other.slots);
        let ids = other.ids.into_iter();
        self.ids
            .extend(ids.map(|(node, slots)| (node, slots.shifted(moved))));
    }
}

/// The per-line step of every match kernel: mask `line` into `scratch`, decide it with
/// [`match_compiled`], and append its slots, read off the same view, to `slots`.
/// [`match_ids_batch`]'s workers run it on every line; the service's stream workers run
/// it behind their line cache ([`MatchCache`](crate::MatchCache)), on a miss.
pub fn match_line(
    model: &ParserModel,
    compiled: &CompiledMatcher,
    preprocessor: &Preprocessor,
    scratch: &mut TokenScratch,
    line: &str,
    slots: &mut SlotBuffer,
) -> (Option<NodeId>, SlotRange) {
    let view = preprocessor.token_view(line, scratch);
    let node = match_compiled(model, compiled, view.iter());
    (node, slots.extract(model, node, line, &view))
}

/// Match a batch of raw records, optionally across `workers` threads (§3 "Parallel": the
/// online phase parallelises template matching across logs), without rendering template
/// texts: [`match_line`] on every record, with a per-thread scratch.
pub fn match_ids_batch<S: AsRef<str> + Sync>(
    model: &ParserModel,
    compiled: &CompiledMatcher,
    preprocessor: &Preprocessor,
    records: &[S],
    workers: usize,
) -> BatchMatch {
    thread_local! {
        static SCRATCH: std::cell::RefCell<TokenScratch> =
            std::cell::RefCell::new(TokenScratch::new());
    }
    let lines: Vec<&str> = records.iter().map(|record| record.as_ref()).collect();
    let chunk = lines.len().div_ceil(workers.max(1)).max(1);
    let parts = run_parallel(workers, lines.chunks(chunk).collect(), |lines| {
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let mut part = BatchMatch::default();
            for &line in lines {
                let id = match_line(
                    model,
                    compiled,
                    preprocessor,
                    &mut scratch,
                    line,
                    &mut part.slots,
                );
                part.ids.push(id);
            }
            part
        })
    });
    let mut whole = BatchMatch::default();
    for part in parts {
        whole.append(part);
    }
    whole
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::train::train;

    #[test]
    fn kernel_sees_temporaries_appended_since_the_tables_were_built() {
        let records: Vec<String> = (0..40)
            .map(|i| format!("Connection closed by 10.0.0.{}", i % 9))
            .collect();
        let config = TrainConfig::default();
        let pre = Preprocessor::new(config.preprocess.clone());
        let mut model = train(&records, &pre, &config).model;
        let compiled = CompiledMatcher::compile(&model);
        assert_eq!(compiled.nodes(), model.len());
        let novel = [
            "kernel panic: attempted to kill init",
            "segfault at deadbeef",
        ];
        let ids = novel.map(|line| model.insert_temporary(&pre.tokens_of(line)));
        let mut probes: Vec<String> = novel.iter().map(|line| line.to_string()).collect();
        probes.push("Connection closed by 10.0.0.77".into());
        probes.push("matches nothing at all".into());
        // Input order is kept across workers; the seam assertion runs on every line.
        let results = match_ids_batch(&model, &compiled, &pre, &probes, 3).ids;
        assert_eq!(results[0].0, Some(ids[0]));
        assert_eq!(results[1].0, Some(ids[1]));
        assert!(results[2].0.is_some_and(|id| id.0 < compiled.nodes()));
        assert_eq!(results[3].0, None);
    }

    /// The tokens at the matched template's wildcard positions — all of them when
    /// nothing matched — masked and tokenised afresh: what a batch's slots must read
    /// back as.
    fn wildcard_tokens(model: &ParserModel, pre: &Preprocessor, line: &str) -> Vec<String> {
        let tokens = pre.tokens_of(line);
        let compiled = CompiledMatcher::compile(model);
        let mut scratch = TokenScratch::new();
        let node = match_compiled(model, &compiled, pre.token_view(line, &mut scratch).iter());
        let Some(node) = node.map(|id| &model.nodes[id.0]) else {
            return tokens;
        };
        let slots = tokens.into_iter().zip(&node.template);
        let wildcards = slots.filter(|(_, t)| matches!(t, TemplateToken::Wildcard));
        wildcards.map(|(token, _)| token).collect()
    }

    #[test]
    fn batch_slots_read_back_as_the_wildcard_tokens_across_workers() {
        // `node<x><ip>` masks to `node<x><*>`: a variable masking rewrote, which no span
        // of the line holds. The user and the port are plain spans.
        let line = |i: usize| {
            let host = ["nodeA", "nodeB", "edge"][i % 3];
            format!(
                "conn user{} from {host}10.0.0.{} port {}",
                i % 7,
                i % 5,
                i % 11
            )
        };
        let config = TrainConfig::default();
        let pre = Preprocessor::new(config.preprocess.clone());
        let model = train(&(0..60).map(line).collect::<Vec<_>>(), &pre, &config).model;
        let compiled = CompiledMatcher::compile(&model);
        let mut probes: Vec<String> = (100..130).map(line).collect();
        probes.push("conn user3 from 用户10.0.0.9 port 4".into());
        probes.push("never seen before at 10.1.2.3".into());
        // A span cannot reach past 64 KiB: the buffer holds such a variable itself.
        probes.push(format!(
            "conn user{} from edge10.0.0.1 port 9",
            "9".repeat(70_000)
        ));
        for workers in [1, 3] {
            let batch = match_ids_batch(&model, &compiled, &pre, &probes, workers);
            assert_eq!(batch.ids.len(), probes.len());
            for (probe, &(_, range)) in probes.iter().zip(&batch.ids) {
                let got: Vec<&str> = batch.slots.values(probe, range).collect();
                assert_eq!(got, wildcard_tokens(&model, &pre, probe), "{probe:?}");
            }
            assert!(
                batch.slots.held.contains("<*>"),
                "a rewritten variable is held by the buffer"
            );
        }
    }
}
