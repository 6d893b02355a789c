//! The saturation score (§4.5, Eq. 3).
//!
//! Saturation measures how completely the token positions of a group of logs have been
//! resolved into constants or variables; it controls when hierarchical clustering stops
//! refining a node and, at query time, which ancestor template satisfies a user-requested
//! precision threshold.
//!
//! The exact formula in the paper is ambiguous in one detail (the `−1` in the variability
//! scale factor); the interpretation implemented here — documented in `DESIGN.md` §4 — is
//! the one that reproduces the worked example of Fig. 5:
//!
//! * `f_c = m_c / m` — fraction of positions whose token is identical in every log.
//! * For every unresolved position `i`, `f_v^(i) = ln(n_u) / ln(n)` clamped to `[0, 1]`,
//!   where `n_u` is the number of distinct tokens at `i` and `n` the number of distinct
//!   logs; `f_v = min_i f_v^(i)` so that the most *structural* unresolved position (the
//!   one with the fewest distinct values) exerts the strongest pressure to keep splitting.
//! * `p_c = 1 / (2^(m − m_c) − 1)` — confidence that shrinks as more positions remain
//!   unresolved.
//! * `s = (f_v · p_c + (1 − p_c)) · f_c`.
//!
//! Fully-resolved special cases score exactly 1: a group with at most one distinct log, a
//! group whose positions are all constant, and a group whose single unresolved position is
//! completely distinct (a definite variable).

use crate::config::AblationConfig;

/// Classification of the positions of a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionBreakdown {
    /// Total number of positions (`m`).
    pub total: usize,
    /// Positions with exactly one distinct token (`m_c`).
    pub constants: usize,
    /// Indices of unresolved positions (more than one distinct token).
    pub unresolved: Vec<usize>,
    /// Unresolved positions whose distinct-token count equals the number of distinct logs
    /// (i.e. every log has a different value there — a definite variable).
    pub completely_distinct: Vec<usize>,
}

/// Classify the positions of a cluster from its per-position distinct-token counts
/// (`distinct`) and its number of distinct logs.
pub fn breakdown(distinct: &[u32], distinct_logs: usize) -> PositionBreakdown {
    let mut constants = 0usize;
    let mut unresolved = Vec::new();
    let mut completely_distinct = Vec::new();
    for (i, &n_u) in distinct.iter().enumerate() {
        let n_u = n_u as usize;
        if n_u <= 1 {
            constants += 1;
        } else {
            unresolved.push(i);
            if n_u >= distinct_logs && distinct_logs > 1 {
                completely_distinct.push(i);
            }
        }
    }
    PositionBreakdown {
        total: distinct.len(),
        constants,
        unresolved,
        completely_distinct,
    }
}

/// Compute the saturation score of a cluster under the given ablation switches, from its
/// per-position distinct-token counts and its number of distinct logs `n`. Both the
/// trainer's [`DenseProfile`](crate::distance::DenseProfile) and the reference
/// [`ClusterProfile`](crate::distance::ClusterProfile) are scored through this function.
pub fn saturation(distinct: &[u32], n: usize, ablation: &AblationConfig) -> f64 {
    // Degenerate groups are fully resolved by definition.
    if distinct.is_empty() || n <= 1 {
        return 1.0;
    }
    let parts = breakdown(distinct, n);
    let f_c = parts.constants as f64 / parts.total as f64;
    if parts.unresolved.is_empty() {
        return 1.0;
    }
    // A single unresolved position that is completely distinct is a definite variable:
    // splitting on it can never produce a meaningful template (§4.7, early-stop rule 2/3;
    // Fig. 5 Set 1 is scored 1.0 for this reason).
    if parts.unresolved.len() == 1 && parts.completely_distinct.len() == 1 {
        return 1.0;
    }
    if !ablation.variable_in_saturation {
        // "w/o variable in saturation": s = f_c.
        return f_c;
    }
    // Variability factor: minimum over unresolved positions of ln(n_u)/ln(n).
    let ln_n = (n as f64).ln().max(f64::MIN_POSITIVE);
    let f_v = parts
        .unresolved
        .iter()
        .map(|&i| {
            let n_u = distinct[i] as f64;
            (n_u.ln() / ln_n).clamp(0.0, 1.0)
        })
        .fold(f64::INFINITY, f64::min);
    let f_v = if f_v.is_finite() { f_v } else { 1.0 };

    if !ablation.confidence_factor {
        // "w/o confidence factor": s = f_v · f_c.
        return (f_v * f_c).clamp(0.0, 1.0);
    }
    // Confidence factor p_c = 1 / (2^(m − m_c) − 1), clamped to [0, 1].
    let exponent = (parts.total - parts.constants).min(63) as u32;
    let denominator = (1u64 << exponent).saturating_sub(1).max(1) as f64;
    let p_c = (1.0 / denominator).clamp(0.0, 1.0);
    ((f_v * p_c + (1.0 - p_c)) * f_c).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::ClusterProfile;
    use logtok::EncodedLog;

    fn profile(logs: &[&[&str]]) -> ClusterProfile {
        let encoded: Vec<EncodedLog> = logs.iter().map(|t| EncodedLog::from_tokens(*t)).collect();
        ClusterProfile::from_logs(logs[0].len(), encoded.iter())
    }

    fn saturation(profile: &ClusterProfile, ablation: &AblationConfig) -> f64 {
        super::saturation(&profile.distinct(), profile.unique_count(), ablation)
    }

    fn full() -> AblationConfig {
        AblationConfig::full()
    }

    #[test]
    fn fig5_set1_is_fully_saturated() {
        // "UserService createUser token=<value> success": only the token value varies and
        // it is different in every log → definite variable → saturation 1.
        let p = profile(&[
            &["UserService", "createUser", "token", "abc123", "success"],
            &["UserService", "createUser", "token", "xyz789", "success"],
            &["UserService", "createUser", "token", "def456", "success"],
        ]);
        assert!((saturation(&p, &full()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig5_set2_root_is_poorly_saturated() {
        // Action, token and status all vary → far from saturated (paper illustrates 0.4).
        let p = profile(&[
            &["UserService", "createUser", "token", "abc123", "success"],
            &["UserService", "deleteUser", "token", "xyz789", "failed"],
            &["UserService", "queryUser", "token", "def456", "success"],
        ]);
        let s = saturation(&p, &full());
        assert!(s > 0.2 && s < 0.5, "expected ≈0.4, got {s}");
    }

    #[test]
    fn fig5_subset_46_saturation() {
        // Logs 4 and 6 share status "success": constants are UserService, token, success
        // → f_c = 0.6; both unresolved positions are completely distinct → s = f_c = 0.6.
        let p = profile(&[
            &["UserService", "createUser", "token", "abc123", "success"],
            &["UserService", "queryUser", "token", "def456", "success"],
        ]);
        let s = saturation(&p, &full());
        assert!((s - 0.6).abs() < 0.05, "expected ≈0.6, got {s}");
    }

    #[test]
    fn single_log_is_fully_saturated() {
        let p = profile(&[&["only", "one", "log"]]);
        assert_eq!(saturation(&p, &full()), 1.0);
    }

    #[test]
    fn all_constant_positions_fully_saturated() {
        let p = profile(&[&["heartbeat", "ok"], &["heartbeat", "ok"]]);
        assert_eq!(saturation(&p, &full()), 1.0);
    }

    #[test]
    fn saturation_increases_when_structure_is_resolved() {
        // Parent mixes two actions; each child (single action) must score higher.
        let parent = profile(&[
            &["svc", "start", "a"],
            &["svc", "start", "b"],
            &["svc", "stop", "a"],
            &["svc", "stop", "b"],
        ]);
        let child_start = profile(&[&["svc", "start", "a"], &["svc", "start", "b"]]);
        let child_stop = profile(&[&["svc", "stop", "a"], &["svc", "stop", "b"]]);
        let sp = saturation(&parent, &full());
        assert!(saturation(&child_start, &full()) > sp);
        assert!(saturation(&child_stop, &full()) > sp);
    }

    #[test]
    fn score_is_always_in_unit_interval() {
        let cases: Vec<Vec<&[&str]>> = vec![
            vec![&["a"], &["b"], &["c"]],
            vec![&["x", "y", "z"], &["x", "q", "z"], &["x", "y", "w"]],
            vec![&["1", "2"], &["1", "2"], &["3", "4"]],
        ];
        for logs in cases {
            let p = profile(&logs);
            let s = saturation(&p, &full());
            assert!((0.0..=1.0).contains(&s), "saturation out of range: {s}");
        }
    }

    #[test]
    fn ablation_without_variable_reduces_to_constant_fraction() {
        let p = profile(&[&["svc", "start", "a"], &["svc", "stop", "b"]]);
        let config = AblationConfig {
            variable_in_saturation: false,
            ..full()
        };
        // constants: "svc" only → f_c = 1/3.
        assert!((saturation(&p, &config) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn ablation_without_confidence_factor() {
        let p = profile(&[
            &["svc", "start", "a", "x"],
            &["svc", "stop", "b", "x"],
            &["svc", "start", "c", "x"],
        ]);
        let without = AblationConfig {
            confidence_factor: false,
            ..full()
        };
        let s_without = saturation(&p, &without);
        let s_with = saturation(&p, &full());
        // Both are valid scores; the confidence factor softens the variability penalty, so
        // the full formula is never smaller.
        assert!(s_with >= s_without - 1e-12);
    }

    #[test]
    fn breakdown_identifies_position_classes() {
        let p = profile(&[
            &["op", "read", "id1"],
            &["op", "write", "id2"],
            &["op", "read", "id3"],
        ]);
        let b = breakdown(&p.distinct(), p.unique_count());
        assert_eq!(b.total, 3);
        assert_eq!(b.constants, 1);
        assert_eq!(b.unresolved, vec![1, 2]);
        assert_eq!(b.completely_distinct, vec![2]);
    }
}
