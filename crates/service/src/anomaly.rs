//! Out-of-the-box log anomaly detection built on parsing results (§1, §6): the service
//! flags (a) templates that newly appear and (b) templates whose record count shifts
//! abnormally between two time windows.
//!
//! Distributions come from the planned query path: callers either pass precomputed
//! `(template, count)` distributions (a
//! [`QueryValue::Distribution`](crate::query::QueryValue::Distribution)), one per
//! window, to [`detect`], or hand two [`QuerySnapshot`]s to
//! [`detect_snapshots`], which aggregates per-node postings up the
//! saturation ladder — O(templates) per snapshot, never a record scan. A snapshot's
//! distribution is cumulative (every record the topic holds), so two snapshots of one
//! topic compare everything up to one point against everything up to a later one.

use crate::query::QuerySnapshot;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The kind of anomaly detected for a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// The template did not appear in the baseline window.
    NewTemplate,
    /// The template's count increased by more than [`SURGE_FACTOR`].
    CountSurge,
    /// The template's count decreased by more than [`DROP_FACTOR`] (including
    /// disappearing entirely).
    CountDrop,
}

/// One detected anomaly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyReport {
    /// Template text (presentation form).
    pub template: String,
    /// Anomaly kind.
    pub kind: AnomalyKind,
    /// Count in the baseline window.
    pub baseline_count: u64,
    /// Count in the current window.
    pub current_count: u64,
}

/// A template whose count grows by more than this factor is a surge (3.0 = 3×).
pub const SURGE_FACTOR: f64 = 3.0;
/// A template whose count shrinks by more than this factor is a drop.
pub const DROP_FACTOR: f64 = 3.0;
/// Minimum count for a surge (current) or a drop (baseline) to be reported: suppresses
/// noise from templates with a handful of records. A new template is reported from
/// its first record.
pub const MIN_COUNT: u64 = 10;

/// Compare a baseline template distribution against the current one and report
/// anomalies, most severe (largest relative change) first. Distributions are
/// `(template, count)` pairs of a distribution query.
pub fn detect(baseline: &[(String, u64)], current: &[(String, u64)]) -> Vec<AnomalyReport> {
    let baseline_by_template: HashMap<&str, u64> =
        baseline.iter().map(|(t, c)| (t.as_str(), *c)).collect();
    let current_by_template: HashMap<&str, u64> =
        current.iter().map(|(t, c)| (t.as_str(), *c)).collect();
    let mut reports = Vec::new();
    for (template, current_count) in current.iter().map(|(t, c)| (t, *c)) {
        match baseline_by_template.get(template.as_str()).copied() {
            None => {
                if current_count > 0 {
                    reports.push(AnomalyReport {
                        template: template.clone(),
                        kind: AnomalyKind::NewTemplate,
                        baseline_count: 0,
                        current_count,
                    });
                }
            }
            Some(baseline_count) => {
                if current_count >= MIN_COUNT
                    && current_count as f64 > baseline_count as f64 * SURGE_FACTOR
                {
                    reports.push(AnomalyReport {
                        template: template.clone(),
                        kind: AnomalyKind::CountSurge,
                        baseline_count,
                        current_count,
                    });
                } else if baseline_count >= MIN_COUNT
                    && (current_count as f64) < baseline_count as f64 / DROP_FACTOR
                {
                    reports.push(AnomalyReport {
                        template: template.clone(),
                        kind: AnomalyKind::CountDrop,
                        baseline_count,
                        current_count,
                    });
                }
            }
        }
    }
    // Templates that vanished entirely.
    for (template, baseline_count) in baseline.iter().map(|(t, c)| (t, *c)) {
        if !current_by_template.contains_key(template.as_str()) && baseline_count >= MIN_COUNT {
            reports.push(AnomalyReport {
                template: template.clone(),
                kind: AnomalyKind::CountDrop,
                baseline_count,
                current_count: 0,
            });
        }
    }
    rank(&mut reports);
    reports
}

/// Compare two topic query snapshots at the given saturation threshold and report
/// anomalies. Both distributions are computed through the indexed path (postings
/// aggregated up the ladder), so the comparison cost is bounded by the number of
/// templates, not the number of stored records. Each counts every record its
/// snapshot holds: of two snapshots of one topic, `current` also counts every
/// record of `baseline` (unless retention dropped it since), so this compares two
/// cumulative distributions, not two disjoint windows.
pub fn detect_snapshots(
    baseline: &QuerySnapshot,
    current: &QuerySnapshot,
    threshold: f64,
) -> Vec<AnomalyReport> {
    detect(
        &baseline.distribution(threshold),
        &current.distribution(threshold),
    )
}

/// Order reports most severe (largest relative change) first.
fn rank(reports: &mut [AnomalyReport]) {
    reports.sort_by(|a, b| {
        let severity = |r: &AnomalyReport| {
            let base = r.baseline_count.max(1) as f64;
            let cur = r.current_count.max(1) as f64;
            (cur / base).max(base / cur)
        };
        severity(b)
            .partial_cmp(&severity(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.template.cmp(&b.template))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn new_template_is_reported() {
        let baseline = counts(&[("user login *", 100)]);
        let current = counts(&[("user login *", 110), ("disk failure on *", 5)]);
        let reports = detect(&baseline, &current);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, AnomalyKind::NewTemplate);
        assert_eq!(reports[0].template, "disk failure on *");
    }

    #[test]
    fn count_surge_is_reported() {
        let baseline = counts(&[("timeout calling *", 10)]);
        let current = counts(&[("timeout calling *", 200)]);
        let reports = detect(&baseline, &current);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, AnomalyKind::CountSurge);
    }

    #[test]
    fn count_drop_and_disappearance_are_reported() {
        let baseline = counts(&[("heartbeat from *", 500), ("request served *", 300)]);
        let current = counts(&[("heartbeat from *", 20)]);
        let reports = detect(&baseline, &current);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.kind == AnomalyKind::CountDrop));
    }

    #[test]
    fn stable_distribution_reports_nothing() {
        let baseline = counts(&[("a *", 100), ("b *", 50)]);
        let current = counts(&[("a *", 120), ("b *", 45)]);
        assert!(detect(&baseline, &current).is_empty());
    }

    #[test]
    fn most_severe_anomaly_comes_first() {
        let baseline = counts(&[("mild *", 10), ("wild *", 10)]);
        let current = counts(&[("mild *", 40), ("wild *", 1000)]);
        let reports = detect(&baseline, &current);
        assert_eq!(reports[0].template, "wild *");
    }

    #[test]
    fn snapshot_detection_matches_manual_distributions() {
        use crate::topic::{LogTopic, TopicConfig};
        let mut topic = LogTopic::new(TopicConfig::new("anom").with_volume_threshold(u64::MAX));
        let healthy: Vec<String> = (0..300)
            .map(|i| format!("request {} served in {}ms", i, i % 30))
            .collect();
        topic.ingest(&healthy);
        let baseline = topic.query_snapshot();
        let incident: Vec<String> = (0..80)
            .map(|i| format!("upstream timeout calling billing after {}ms", 1000 + i))
            .collect();
        topic.ingest(&incident);
        topic.run_training();
        let current = topic.query_snapshot();
        let reports = detect_snapshots(&baseline, &current, 0.9);
        assert_eq!(
            reports,
            detect(&baseline.distribution(0.9), &current.distribution(0.9))
        );
        assert!(
            reports.iter().any(|r| r.kind == AnomalyKind::NewTemplate),
            "the incident template must be flagged as new: {reports:?}"
        );
    }

    #[test]
    fn small_counts_are_suppressed() {
        let baseline = counts(&[("rare *", 1)]);
        let current = counts(&[("rare *", 5)]);
        assert!(detect(&baseline, &current).is_empty());
    }
}
