//! The record store: a topic's records in their structured form (§3), as columns.
//!
//! A record is what the match phase produced for it — its raw text, the most precise
//! template it matched, and the values in that template's wildcard slots — and the
//! store keeps exactly that, in blocks of about 1 MiB of text each:
//!
//! ```text
//! block   text    its records' raw bytes back to back, allocated once at its full
//!                 capacity and never moved (a POST's lines are appended, never
//!                 allocated one by one; a record longer than a block gets its own)
//!         rows    per record, 12 bytes: where its text ends, its template (u32,
//!                 NO_NODE when unassigned), where its slots end
//!         slots   a SlotBuffer, 4 bytes a slot: a span of the record's own text,
//!                 or one of the few tokens masking rewrote
//! ```
//!
//! No record is its own heap allocation, and a block is trimmed to size once the
//! next one opens, so only the open block carries growth slack. The slot column is
//! kept equal to [`variables_of`](crate::topic::variables_of) of every record — the
//! tokens at its template's wildcard positions — by whoever changes a template: the
//! match that assigns it (ingest, stale re-match, maintenance re-match) extracts the
//! slots from the view it decided on, a delta patch derives them from the constants it
//! generalised, and recovery loads them from segments or re-derives them. Queries read
//! them here instead of masking the text again.

use crate::storage::wal::{decode_node, encode_node};
use bytebrain::{NodeId, SlotBuffer, SlotRange};

/// One stored record, borrowed from the [`RecordStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRecord<'a> {
    /// The raw log text.
    pub record: &'a str,
    /// Most precise matched template, when a model existed at ingest time.
    pub template: Option<NodeId>,
}

/// Text capacity of a block.
const BLOCK_BYTES: usize = 1 << 20;

/// One record's row in its block.
#[derive(Debug, Clone, Copy)]
struct Row {
    text_end: u32,
    template: u32,
    slot_end: u32,
}

/// A run of consecutive records; see the module docs.
#[derive(Debug, Clone, Default)]
struct Block {
    text: String,
    rows: Vec<Row>,
    slots: SlotBuffer,
}

impl Block {
    fn with_room(bytes: usize) -> Self {
        Block {
            text: String::with_capacity(bytes.max(BLOCK_BYTES)),
            ..Block::default()
        }
    }

    fn has_room(&self, bytes: usize) -> bool {
        self.text.capacity() - self.text.len() >= bytes
    }

    fn text(&self, row: usize) -> &str {
        let start = row
            .checked_sub(1)
            .map_or(0, |prev| self.rows[prev].text_end);
        &self.text[start as usize..self.rows[row].text_end as usize]
    }

    fn slot_range(&self, row: usize) -> SlotRange {
        let start = row
            .checked_sub(1)
            .map_or(0, |prev| self.rows[prev].slot_end);
        SlotRange {
            start,
            len: self.rows[row].slot_end - start,
        }
    }

    fn push(&mut self, text: &str, template: Option<NodeId>, slots: &SlotBuffer, range: SlotRange) {
        self.text.push_str(text);
        self.slots.append_from(slots, range);
        self.rows.push(Row {
            text_end: u32::try_from(self.text.len()).expect("a record under 4 GiB"),
            template: encode_node(template),
            slot_end: u32::try_from(self.slots.len()).expect("slot count fits u32"),
        });
    }

    /// The block's slots with the rows `updates` names — `(row, range of fresh)`,
    /// ascending — taking theirs from `fresh`, and the rows from `from` on only.
    fn rebuild_slots(&mut self, from: usize, fresh: &SlotBuffer, updates: &[(usize, SlotRange)]) {
        let mut slots = SlotBuffer::new();
        let mut updates = updates.iter().peekable();
        let mut start = from
            .checked_sub(1)
            .map_or(0, |prev| self.rows[prev].slot_end);
        for (at, row) in self.rows.iter_mut().enumerate().skip(from) {
            let kept = SlotRange {
                start,
                len: row.slot_end - start,
            };
            start = row.slot_end;
            match updates.next_if(|&&(update, _)| update == at) {
                Some(&(_, range)) => slots.append_from(fresh, range),
                None => slots.append_from(&self.slots, kept),
            };
            row.slot_end = u32::try_from(slots.len()).expect("slot count fits u32");
        }
        slots.shrink_to_fit();
        self.slots = slots;
    }

    /// Drop the first `count` rows.
    fn drain_front(&mut self, count: usize) {
        self.rebuild_slots(count, &SlotBuffer::new(), &[]);
        let bytes = self.rows[count - 1].text_end;
        self.text.drain(..bytes as usize);
        self.rows.drain(..count);
        for row in &mut self.rows {
            row.text_end -= bytes;
        }
    }
}

/// A topic's records as columns, block by block; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct RecordStore {
    blocks: Vec<Block>,
    /// Index of the first record of every block, ascending.
    block_first: Vec<usize>,
}

impl RecordStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        let last = self.blocks.last().map_or(0, |block| block.rows.len());
        self.block_first.last().map_or(0, |&first| first + last)
    }

    /// True when no record is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block record `idx` is in, and its row there.
    fn locate(&self, idx: usize) -> (usize, usize) {
        let block = self.block_first.partition_point(|&first| first <= idx) - 1;
        (block, idx - self.block_first[block])
    }

    /// The raw text of record `idx`.
    pub fn text(&self, idx: usize) -> &str {
        let (block, row) = self.locate(idx);
        self.blocks[block].text(row)
    }

    /// The template record `idx` is assigned to.
    pub fn template(&self, idx: usize) -> Option<NodeId> {
        let (block, row) = self.locate(idx);
        decode_node(self.blocks[block].rows[row].template)
    }

    /// The variables of record `idx`: the tokens at its template's wildcard positions,
    /// in order, read from the slot column — equal to what
    /// [`variables_of`](crate::topic::variables_of) re-derives from the text.
    pub fn variables(&self, idx: usize) -> impl ExactSizeIterator<Item = &str> {
        let (block, row) = self.locate(idx);
        let block = &self.blocks[block];
        block.slots.values(block.text(row), block.slot_range(row))
    }

    /// [`RecordStore::variables`], owned (what a sealed segment's variable column holds).
    pub fn owned_variables(&self, idx: usize) -> Vec<String> {
        self.variables(idx).map(str::to_owned).collect()
    }

    /// Every record, in store order.
    pub fn iter(&self) -> impl Iterator<Item = StoredRecord<'_>> {
        self.blocks.iter().flat_map(|block| {
            (0..block.rows.len()).map(move |row| StoredRecord {
                record: block.text(row),
                template: decode_node(block.rows[row].template),
            })
        })
    }

    /// Append a record: its text, its template and the slots `range` of `slots` that its
    /// match extracted from that text.
    pub fn push(
        &mut self,
        text: &str,
        template: Option<NodeId>,
        slots: &SlotBuffer,
        range: SlotRange,
    ) {
        if !self
            .blocks
            .last()
            .is_some_and(|block| block.has_room(text.len()))
        {
            let first = self.len();
            if let Some(full) = self.blocks.last_mut() {
                full.rows.shrink_to_fit();
                full.slots.shrink_to_fit();
            }
            self.blocks.push(Block::with_room(text.len()));
            self.block_first.push(first);
        }
        let block = self.blocks.last_mut().expect("a block with room");
        block.push(text, template, slots, range);
    }

    /// Re-assign record `idx`, returning its previous template. Its slots are the
    /// caller's to replace ([`RecordStore::replace_slots`]).
    pub(crate) fn set_template(&mut self, idx: usize, template: Option<NodeId>) -> Option<NodeId> {
        let (block, row) = self.locate(idx);
        let row = &mut self.blocks[block].rows[row];
        let old = decode_node(row.template);
        row.template = encode_node(template);
        old
    }

    /// Replace the slots of the records `updates` names — `(record, range of fresh)`,
    /// ascending by record — keeping everyone else's. Only the blocks holding an
    /// updated record are rebuilt.
    pub(crate) fn replace_slots(&mut self, fresh: &SlotBuffer, updates: &[(usize, SlotRange)]) {
        debug_assert!(updates.windows(2).all(|pair| pair[0].0 < pair[1].0));
        let mut rest = updates;
        while let Some(&(idx, _)) = rest.first() {
            let (block, _) = self.locate(idx);
            let (first, end) = (self.block_first[block], self.block_first.get(block + 1));
            let count = rest.partition_point(|&(idx, _)| end.is_none_or(|&end| idx < end));
            let rows: Vec<(usize, SlotRange)> = rest[..count]
                .iter()
                .map(|&(idx, range)| (idx - first, range))
                .collect();
            self.blocks[block].rebuild_slots(0, fresh, &rows);
            rest = &rest[count..];
        }
    }

    /// Drop the first `count` records (retention), every column in lockstep: the blocks
    /// before record `count`'s are freed, its own is cut to start at it.
    pub(crate) fn drain_front(&mut self, count: usize) {
        if count == 0 {
            return;
        }
        if count == self.len() {
            *self = RecordStore::new();
            return;
        }
        let (block, row) = self.locate(count);
        self.blocks.drain(..block);
        self.block_first.drain(..block);
        if row > 0 {
            self.blocks[0].drain_front(row);
        }
        self.block_first[0] = count;
        for first in &mut self.block_first {
            *first -= count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store of `lines`, each with the given slot values (spans where they occur).
    fn store_of(lines: &[(&str, Option<usize>, &[&str])]) -> RecordStore {
        let mut store = RecordStore::new();
        for &(text, node, values) in lines {
            let mut slots = SlotBuffer::new();
            let range = slots.push_values(text, values.iter().copied());
            store.push(text, node.map(NodeId), &slots, range);
        }
        store
    }

    fn variables(store: &RecordStore) -> Vec<Vec<&str>> {
        (0..store.len())
            .map(|idx| store.variables(idx).collect())
            .collect()
    }

    #[test]
    fn columns_read_back_what_was_pushed() {
        let store = store_of(&[
            ("user u1 login from 10.0.0.1", Some(3), &["u1"]),
            ("", None, &[]),
            ("user u2 at node<*>", Some(3), &["u2", "node<*>"]),
        ]);
        assert_eq!(store.len(), 3);
        let texts: Vec<&str> = store.iter().map(|r| r.record).collect();
        assert_eq!(
            texts,
            ["user u1 login from 10.0.0.1", "", "user u2 at node<*>"]
        );
        assert_eq!(store.template(0), Some(NodeId(3)));
        assert_eq!(store.template(1), None);
        assert_eq!(
            variables(&store),
            [vec!["u1"], vec![], vec!["u2", "node<*>"]]
        );
        assert_eq!(store.owned_variables(2), ["u2", "node<*>"]);
    }

    #[test]
    fn replaced_slots_and_drained_prefixes_keep_the_columns_aligned() {
        let mut store = store_of(&[
            ("a 1 x", Some(0), &["1"]),
            ("b 2 y", Some(1), &["2"]),
            ("c 3 z", Some(1), &["3", "z"]),
            ("d 4 w", None, &[]),
        ]);
        let mut fresh = SlotBuffer::new();
        let second = fresh.push_values("b 2 y", ["b", "y"]);
        let fourth = fresh.push_values("d 4 w", ["rewritten"]);
        store.replace_slots(&fresh, &[(1, second), (3, fourth)]);
        assert_eq!(store.set_template(3, Some(NodeId(7))), None);
        assert_eq!(
            variables(&store),
            [vec!["1"], vec!["b", "y"], vec!["3", "z"], vec!["rewritten"]]
        );
        store.drain_front(2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.text(0), "c 3 z");
        assert_eq!(store.template(1), Some(NodeId(7)));
        assert_eq!(variables(&store), [vec!["3", "z"], vec!["rewritten"]]);
        store.drain_front(2);
        assert!(store.is_empty());
    }

    #[test]
    fn records_fill_blocks_whole_and_drain_across_them() {
        // Lines that do not divide a block evenly, and one longer than a block.
        let line = |i: usize| match i {
            5 => "x".repeat(BLOCK_BYTES + 3),
            _ => format!("record {i} {}", "y".repeat(300_000 + i)),
        };
        let mut store = RecordStore::new();
        for i in 0..12 {
            let text = line(i);
            let mut slots = SlotBuffer::new();
            let range = slots.push_values(&text, [format!("{i}").as_str()]);
            store.push(&text, Some(NodeId(i)), &slots, range);
        }
        assert!(store.blocks.len() > 4, "{} blocks", store.blocks.len());
        let sealed = &store.blocks[..store.blocks.len() - 1];
        assert!(sealed.iter().all(|b| b.rows.len() == b.rows.capacity()));
        let check = |store: &RecordStore, from: usize| {
            for idx in 0..store.len() {
                assert_eq!(store.text(idx), line(from + idx), "record {idx}");
                assert_eq!(store.template(idx), Some(NodeId(from + idx)));
                assert_eq!(store.owned_variables(idx), [format!("{}", from + idx)]);
            }
        };
        check(&store, 0);
        // Mid-block, then just past the long record, then at a block's first record.
        for (drop, from) in [(2, 2), (4, 6), (1, 7)] {
            store.drain_front(drop);
            check(&store, from);
        }
        let first_of_next_block = store.block_first[1];
        store.drain_front(first_of_next_block);
        check(&store, 7 + first_of_next_block);
        // Slots replaced across blocks land on the right records.
        let mut fresh = SlotBuffer::new();
        let last = store.len() - 1;
        let updates: Vec<(usize, SlotRange)> = [0, last]
            .into_iter()
            .map(|idx| (idx, fresh.push_values(store.text(idx), ["record"])))
            .collect();
        store.replace_slots(&fresh, &updates);
        assert_eq!(store.owned_variables(0), ["record"]);
        assert_eq!(store.owned_variables(last), ["record"]);
        assert_eq!(
            store.owned_variables(1),
            [format!("{}", 8 + first_of_next_block)]
        );
    }
}
