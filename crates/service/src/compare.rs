//! Template-distribution comparison across time periods (§1, §6): users compare the
//! templates generated in two windows to understand how system behaviour changed.
//!
//! [`compare_windows`] compares any two `(template, count)` distributions. Those of
//! a topic come from the indexed query path ([`compare_snapshots`] aggregates
//! per-node postings up the saturation ladder), so comparing two snapshots of a
//! 100k-record topic costs O(templates), not O(records). A snapshot's distribution is
//! cumulative — it counts every record the topic holds — so two snapshots of one topic
//! compare everything up to one point against everything up to a later one, not two
//! disjoint windows.

use crate::query::QuerySnapshot;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// The change of a single template between two windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributionShift {
    /// Template text.
    pub template: String,
    /// Count in the first (baseline) window.
    pub before: u64,
    /// Count in the second (comparison) window.
    pub after: u64,
    /// `after/total_after − before/total_before`: the change of the template's share of
    /// the stream, in percentage points (−1..1).
    pub share_delta: f64,
}

/// Compare two template distributions (`(template, count)` pairs of a distribution
/// query) and return one entry per template seen in either
/// window, ordered by the absolute change of stream share (largest first).
pub fn compare_windows(
    before: &[(String, u64)],
    after: &[(String, u64)],
) -> Vec<DistributionShift> {
    let before_map: HashMap<&str, u64> = before.iter().map(|(t, c)| (t.as_str(), *c)).collect();
    let after_map: HashMap<&str, u64> = after.iter().map(|(t, c)| (t.as_str(), *c)).collect();
    let total_before: u64 = before_map.values().sum();
    let total_after: u64 = after_map.values().sum();
    let share = |count: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            count as f64 / total as f64
        }
    };
    let templates: HashSet<&str> = before_map.keys().chain(after_map.keys()).copied().collect();
    let mut shifts: Vec<DistributionShift> = templates
        .into_iter()
        .map(|template| {
            let b = before_map.get(template).copied().unwrap_or(0);
            let a = after_map.get(template).copied().unwrap_or(0);
            DistributionShift {
                template: template.to_string(),
                before: b,
                after: a,
                share_delta: share(a, total_after) - share(b, total_before),
            }
        })
        .collect();
    shifts.sort_by(|x, y| {
        y.share_delta
            .abs()
            .partial_cmp(&x.share_delta.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.template.cmp(&y.template))
    });
    shifts
}

/// Compare two topic query snapshots at the given saturation threshold: both
/// distributions are computed through the indexed path (postings aggregated up the
/// saturation ladder — no record scan) and fed to [`compare_windows`]. Each counts
/// every record its snapshot holds, so of two snapshots of one topic the later also
/// counts every record of the earlier one (unless retention dropped it since): the
/// shifts are between two cumulative distributions, not two disjoint windows.
pub fn compare_snapshots(
    before: &QuerySnapshot,
    after: &QuerySnapshot,
    threshold: f64,
) -> Vec<DistributionShift> {
    compare_windows(
        &before.distribution(threshold),
        &after.distribution(threshold),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn identical_windows_have_zero_deltas() {
        let w = counts(&[("a *", 50), ("b *", 50)]);
        let shifts = compare_windows(&w, &w);
        assert_eq!(shifts.len(), 2);
        for s in shifts {
            assert!(s.share_delta.abs() < 1e-12);
        }
    }

    #[test]
    fn growing_template_has_positive_delta() {
        let before = counts(&[("error *", 10), ("ok *", 90)]);
        let after = counts(&[("error *", 50), ("ok *", 50)]);
        let shifts = compare_windows(&before, &after);
        let error = shifts.iter().find(|s| s.template == "error *").unwrap();
        assert!(error.share_delta > 0.3);
        let ok = shifts.iter().find(|s| s.template == "ok *").unwrap();
        assert!(ok.share_delta < -0.3);
    }

    #[test]
    fn templates_missing_from_one_window_are_included() {
        let before = counts(&[("old *", 100)]);
        let after = counts(&[("new *", 100)]);
        let shifts = compare_windows(&before, &after);
        assert_eq!(shifts.len(), 2);
        assert!(shifts.iter().any(|s| s.template == "old *" && s.after == 0));
        assert!(shifts
            .iter()
            .any(|s| s.template == "new *" && s.before == 0));
    }

    #[test]
    fn largest_shift_comes_first() {
        let before = counts(&[("stable *", 100), ("shrinking *", 100), ("growing *", 10)]);
        let after = counts(&[("stable *", 100), ("shrinking *", 10), ("growing *", 200)]);
        let shifts = compare_windows(&before, &after);
        assert!(shifts[0].share_delta.abs() >= shifts[1].share_delta.abs());
        assert!(shifts[1].share_delta.abs() >= shifts[2].share_delta.abs());
    }

    #[test]
    fn snapshot_comparison_matches_manual_distributions() {
        use crate::topic::{LogTopic, TopicConfig};
        let mut topic = LogTopic::new(TopicConfig::new("cmp").with_volume_threshold(u64::MAX));
        let first: Vec<String> = (0..200)
            .map(|i| format!("request {} served in {}ms", i, i % 30))
            .collect();
        topic.ingest(&first);
        let before = topic.query_snapshot();
        let second: Vec<String> = (0..150)
            .map(|i| format!("session {} expired after {} minutes", i, i % 60))
            .collect();
        topic.ingest(&second);
        let after = topic.query_snapshot();
        let shifts = compare_snapshots(&before, &after, 0.9);
        assert_eq!(
            shifts,
            compare_windows(&before.distribution(0.9), &after.distribution(0.9))
        );
        // The new family gained share; something in the old family lost share.
        assert!(shifts
            .iter()
            .any(|s| s.before == 0 && s.after > 0 && s.share_delta > 0.0));
    }

    #[test]
    fn empty_windows_do_not_divide_by_zero() {
        let empty = Vec::new();
        let after = counts(&[("x *", 5)]);
        let shifts = compare_windows(&empty, &after);
        assert_eq!(shifts.len(), 1);
        assert!((shifts[0].share_delta - 1.0).abs() < 1e-9);
    }
}
