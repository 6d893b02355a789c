//! Per-segment column summaries serving query push-down.
//!
//! A [`SegmentSummary`] condenses one sealed segment's **variable column**
//! into a membership filter the planner can consult before touching any
//! postings or records: a small bloom filter over the variable tokens plus
//! the lexicographic min/max token. A required `VariableEquals` conjunct
//! whose value the summary rules out proves that *no* record in the segment
//! can match, so the whole segment is skipped. (Time-window conjuncts prune
//! on the segment's sequence range, which the manifest already carries.)
//!
//! Summaries are **derived, in-memory state**: they are computed from the
//! variable column at seal time and recomputed from the decoded segments on
//! recovery — nothing about them is persisted, so the segment and manifest
//! formats are unchanged and a summary can never disagree with the column it
//! indexes.
//!
//! Soundness under maintenance: the variable column is extracted with the
//! model as of seal time. A later delta — a retrain lands as one too — can
//! re-match sealed records or patch node templates, changing what query-time
//! extraction returns — so the planner only trusts a summary for segments
//! sealed *after* the latest delta event
//! ([`super::TopicStorage::last_delta_seq`]); an epoch checkpoint rewrites
//! every segment with current assignments and resets that bound. Stale
//! segments are never pruned, merely evaluated record by record.

/// Bloom bits budgeted per variable token (~3% false positives at 3 probes).
const BITS_PER_ITEM: usize = 8;
/// Number of bloom probes per value (double hashing).
const PROBES: u64 = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Summary of one segment's variable column: bloom filter + min/max token.
/// `may_contain` answers "could any record in this segment carry this exact
/// variable token?" with no false negatives.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSummary {
    /// Bit set, power-of-two sized (in bits), 64-bit words.
    bloom: Vec<u64>,
    /// Lexicographically smallest variable token; `None` when the segment
    /// has no variables at all.
    min_var: Option<String>,
    /// Lexicographically largest variable token.
    max_var: Option<String>,
}

impl SegmentSummary {
    /// Build the summary of a segment's per-record variable tokens.
    pub fn build(variables: &[Vec<String>]) -> Self {
        let items: usize = variables.iter().map(|vars| vars.len()).sum();
        let bits = (items * BITS_PER_ITEM).next_power_of_two().max(64);
        let mut summary = SegmentSummary {
            bloom: vec![0u64; bits / 64],
            min_var: None,
            max_var: None,
        };
        for vars in variables {
            for var in vars {
                summary.insert(var);
            }
        }
        summary
    }

    fn insert(&mut self, value: &str) {
        let bits = (self.bloom.len() * 64) as u64;
        let h1 = fnv1a(FNV_OFFSET, value.as_bytes());
        let h2 = fnv1a(FNV_OFFSET ^ 0x5bd1_e995_5bd1_e995, value.as_bytes()) | 1;
        for probe in 0..PROBES {
            let bit = h1.wrapping_add(probe.wrapping_mul(h2)) % bits;
            self.bloom[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        if self.min_var.as_deref().is_none_or(|min| value < min) {
            self.min_var = Some(value.to_string());
        }
        if self.max_var.as_deref().is_none_or(|max| value > max) {
            self.max_var = Some(value.to_string());
        }
    }

    /// Could any record in the segment carry `value` as an exact variable
    /// token? `false` is definitive; `true` may be a false positive.
    pub fn may_contain(&self, value: &str) -> bool {
        let (Some(min), Some(max)) = (self.min_var.as_deref(), self.max_var.as_deref()) else {
            return false; // no variables in the whole segment
        };
        if value < min || value > max {
            return false;
        }
        let bits = (self.bloom.len() * 64) as u64;
        let h1 = fnv1a(FNV_OFFSET, value.as_bytes());
        let h2 = fnv1a(FNV_OFFSET ^ 0x5bd1_e995_5bd1_e995, value.as_bytes()) | 1;
        (0..PROBES).all(|probe| {
            let bit = h1.wrapping_add(probe.wrapping_mul(h2)) % bits;
            self.bloom[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(rows: &[&[&str]]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|row| row.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn no_false_negatives() {
        let rows = vars(&[&["10.0.0.5", "22"], &[], &["10.0.0.9", "443", "alice"]]);
        let summary = SegmentSummary::build(&rows);
        for row in &rows {
            for var in row {
                assert!(summary.may_contain(var), "inserted token {var:?} must hit");
            }
        }
    }

    #[test]
    fn out_of_range_values_are_definitively_absent() {
        let summary = SegmentSummary::build(&vars(&[&["bbb", "ccc"]]));
        assert!(!summary.may_contain("aaa"), "below min");
        assert!(!summary.may_contain("zzz"), "above max");
    }

    #[test]
    fn empty_segment_contains_nothing() {
        let summary = SegmentSummary::build(&vars(&[&[], &[]]));
        assert!(!summary.may_contain("anything"));
        assert!(!summary.may_contain(""));
    }

    #[test]
    fn absent_in_range_values_mostly_miss() {
        // Selectivity sanity: with ~1k distinct tokens inserted, the vast
        // majority of absent in-range probes must miss (the bloom is sized
        // for ~3% false positives).
        let rows: Vec<Vec<String>> = (0..1_000).map(|i| vec![format!("tok-{i:04}")]).collect();
        let summary = SegmentSummary::build(&rows);
        let false_positives = (0..1_000)
            .filter(|i| summary.may_contain(&format!("tok-{:04}x", i)))
            .count();
        assert!(
            false_positives < 150,
            "bloom saturated: {false_positives}/1000 false positives"
        );
    }
}
