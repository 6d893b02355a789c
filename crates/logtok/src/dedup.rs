//! Deduplication of identical token sequences (§4.1.3).
//!
//! Log streams contain a large fraction of exact duplicates, and the fraction grows after
//! common-variable replacement (Fig. 4). Collapsing duplicates while keeping a count both
//! shrinks the clustering input and lets every downstream statistic (position frequencies,
//! saturation, grouping accuracy) be computed over weighted unique logs.

use crate::hashenc::{hash_token, EncodedLog, FnvMap};

/// Summary statistics of one deduplication pass: how many records a batch collapsed into
/// how few unique logs (`lpbench` reports the factor as `logtok.dedup_factor`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupStats {
    /// Number of raw records processed.
    pub total_records: u64,
    /// Number of unique token sequences.
    pub unique_records: u64,
}

impl DedupStats {
    /// Average number of raw records per unique record.
    pub fn duplication_factor(&self) -> f64 {
        if self.unique_records == 0 {
            0.0
        } else {
            self.total_records as f64 / self.unique_records as f64
        }
    }
}

/// Streaming deduplicator keyed by the hashed token sequence.
#[derive(Debug, Default)]
pub struct Deduplicator {
    /// Key: (sequence hash, token count) → slot in `unique`. Two different sequences
    /// with one key are told apart by their texts; the later one is filed under the next
    /// free sequence hash (see `push_keyed`).
    index: FnvMap<(u64, usize), usize>,
    /// The unique logs, in first-occurrence order; each one's `count` is its weight.
    unique: Vec<EncodedLog>,
    total: u64,
    /// The token hashes of the record being pushed; a new unique log keeps a copy.
    hashes: Vec<u64>,
}

impl Deduplicator {
    /// Create an empty deduplicator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one tokenized record and return the slot of its unique log.
    ///
    /// Each token is hashed once, and the hashes become the new unique log's encoding.
    /// `tokens` is walked once more per candidate whose hashes agree; token texts are
    /// copied only when the sequence is new.
    pub fn push<I>(&mut self, tokens: I) -> usize
    where
        I: IntoIterator + Clone,
        I::Item: AsRef<str>,
    {
        self.push_keyed(tokens, |seq_hash| seq_hash)
    }

    /// [`Deduplicator::push`] with the sequence hash the record is filed under mapped
    /// through `key`: a key no other record shares (its index) keeps every record apart,
    /// which is how preprocessing runs without deduplication; tests force collisions
    /// through it.
    pub(crate) fn push_keyed<I>(&mut self, tokens: I, key: impl FnOnce(u64) -> u64) -> usize
    where
        I: IntoIterator + Clone,
        I::Item: AsRef<str>,
    {
        self.hashes.clear();
        let mut seq_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for t in tokens.clone() {
            let hash = hash_token(t.as_ref());
            // Order-sensitive combination of per-token hashes.
            seq_hash = seq_hash.rotate_left(5).wrapping_mul(0x0000_0100_0000_01b3) ^ hash;
            self.hashes.push(hash);
        }
        let mut key = (key(seq_hash), self.hashes.len());
        self.total += 1;
        // Every hit is verified against the token texts. On a mismatch (a sequence-hash
        // collision, astronomically unlikely) the probe moves to the next sequence hash:
        // the colliding sequences chain along consecutive keys, each keeps its own slot,
        // and nothing is ever evicted.
        while let Some(&slot) = self.index.get(&key) {
            let existing = &mut self.unique[slot];
            // The key holds the token count, so the two sequences are equally long.
            debug_assert_eq!(existing.len(), key.1);
            // Equal texts have equal hashes: comparing those first only skips the text
            // comparison of a sequence that differs.
            if existing.encoded == self.hashes
                && existing
                    .tokens()
                    .zip(tokens.clone())
                    .all(|(a, b)| a == b.as_ref())
            {
                existing.count += 1;
                return slot;
            }
            key.0 = key.0.wrapping_add(1);
        }
        let slot = self.unique.len();
        self.unique
            .push(EncodedLog::from_hashed(tokens, self.hashes.clone()));
        self.index.insert(key, slot);
        slot
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DedupStats {
        DedupStats {
            total_records: self.total,
            unique_records: self.unique.len() as u64,
        }
    }

    /// Consume the deduplicator and return the unique logs.
    pub fn into_unique(self) -> Vec<EncodedLog> {
        self.unique
    }

    /// Borrow the unique logs accumulated so far.
    pub fn unique(&self) -> &[EncodedLog] {
        &self.unique
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(d: &Deduplicator) -> Vec<u64> {
        d.unique().iter().map(|u| u.count).collect()
    }

    #[test]
    fn duplicates_collapse_with_counts() {
        let mut d = Deduplicator::new();
        let slots: Vec<usize> = [
            ["user", "login", "ok"],
            ["user", "logout", "ok"],
            ["user", "login", "ok"],
            ["user", "login", "ok"],
        ]
        .iter()
        .map(|tokens| d.push(tokens))
        .collect();
        assert_eq!(slots, vec![0, 1, 0, 0]);
        assert_eq!(
            d.stats(),
            DedupStats {
                total_records: 4,
                unique_records: 2
            }
        );
        assert_eq!(counts(&d), vec![3, 1]);
        let mut login = EncodedLog::from_tokens(["user", "login", "ok"]);
        login.count = 3;
        assert_eq!(d.into_unique()[0], login);
    }

    #[test]
    fn same_slot_returned_for_duplicates() {
        let mut d = Deduplicator::new();
        let a = d.push(&["a", "b"]);
        let b = d.push(&["a", "b"]);
        let c = d.push(&["a", "c"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn order_matters() {
        let mut d = Deduplicator::new();
        d.push(&["a", "b"]);
        d.push(&["b", "a"]);
        assert_eq!(d.stats().unique_records, 2);
    }

    #[test]
    fn different_lengths_never_collide() {
        let mut d = Deduplicator::new();
        d.push(&["a", "b", ""]);
        d.push(&["a", "b"]);
        assert_eq!(d.stats().unique_records, 2);
    }

    #[test]
    fn stats_and_duplication_factor() {
        let mut d = Deduplicator::new();
        for _ in 0..10 {
            d.push(&["heartbeat", "ok"]);
        }
        d.push(&["heartbeat", "failed"]);
        let stats = d.stats();
        assert_eq!(stats.total_records, 11);
        assert_eq!(stats.unique_records, 2);
        assert!((stats.duplication_factor() - 5.5).abs() < 1e-9);
    }

    /// Two sequences forced onto one sequence hash keep one slot each, however often and
    /// in whatever order they repeat (the old index let them evict each other, so every
    /// later repeat opened a fresh unique log).
    #[test]
    fn colliding_sequences_keep_their_slots() {
        let mut d = Deduplicator::new();
        let (a, b, c) = (["a", "x"], ["b", "y"], ["c", "z"]);
        let mut slots = Vec::new();
        for tokens in [a, b, a, b, b, a, c, a, c] {
            slots.push(d.push_keyed(tokens, |_| 42));
        }
        assert_eq!(slots, vec![0, 1, 0, 1, 1, 0, 2, 0, 2]);
        assert_eq!(d.stats().unique_records, 3);
        // A sequence whose own hash is the key a collision spilled into is unaffected.
        assert_eq!(d.push_keyed(&["d", "w"], |_| 43), 3);
        assert_eq!(d.push_keyed(&["d", "w"], |_| 43), 3);
        assert_eq!(d.push_keyed(b, |_| 42), 1);
        // Every count is the number of pushes that returned its slot.
        slots.extend([3, 3, 1]);
        for (slot, &count) in counts(&d).iter().enumerate() {
            assert_eq!(count, slots.iter().filter(|&&s| s == slot).count() as u64);
        }
        assert_eq!(counts(&d), vec![4, 4, 2, 2]);
        assert_eq!(d.stats().total_records, 12);
    }

    /// A key no two records share keeps identical sequences apart: one unique log per
    /// record, in order, each of count 1.
    #[test]
    fn distinct_keys_keep_identical_records_apart() {
        let mut d = Deduplicator::new();
        let slots: Vec<usize> = (0..4u64)
            .map(|i| d.push_keyed(["same", "log"], |_| i))
            .collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        assert_eq!(counts(&d), vec![1; 4]);
        assert_eq!(d.stats().duplication_factor(), 1.0);
    }

    #[test]
    fn empty_dedup_stats() {
        let d = Deduplicator::new();
        assert_eq!(d.stats().duplication_factor(), 0.0);
        assert_eq!(d.stats().unique_records, 0);
    }
}
