//! Initial grouping (§4.2): cheap rules that split the training logs into independent
//! groups *before* clustering, so that (a) logs that cannot share a template are separated
//! immediately and (b) hierarchical clustering can run in parallel per group.
//!
//! Two rules are applied:
//!
//! 1. **Length** — logs with different token counts can never share a (fixed-length)
//!    template, so they are always separated.
//! 2. **Prefix** — optionally, the first `k` tokens (user-configured, 0 by default) must
//!    also agree.

use logtok::EncodedLog;
use std::collections::HashMap;

/// Key identifying one initial group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey {
    /// Token count of the member logs.
    pub length: usize,
    /// Combined hash of the first `k` tokens (0 when `k == 0`).
    pub prefix_hash: u64,
}

/// One initial group: the key plus the indices (into the unique-log array) of its members.
#[derive(Debug, Clone)]
pub struct InitialGroup {
    /// The grouping key.
    pub key: GroupKey,
    /// Indices into the batch's unique-log vector.
    pub members: Vec<usize>,
}

/// Partition `logs` into initial groups using token count and a `prefix_tokens`-token
/// prefix. Groups are returned in a deterministic order (sorted by key) so that training
/// is reproducible regardless of hash-map iteration order.
pub fn initial_groups(logs: &[EncodedLog], prefix_tokens: usize) -> Vec<InitialGroup> {
    let mut map: HashMap<GroupKey, Vec<usize>> = HashMap::new();
    for (idx, log) in logs.iter().enumerate() {
        let length = log.len();
        let prefix_hash = if prefix_tokens == 0 {
            0
        } else {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &token in log.encoded.iter().take(prefix_tokens) {
                h = h.rotate_left(7).wrapping_mul(0x100_0000_01b3) ^ token;
            }
            h
        };
        map.entry(GroupKey {
            length,
            prefix_hash,
        })
        .or_default()
        .push(idx);
    }
    let mut groups: Vec<InitialGroup> = map
        .into_iter()
        .map(|(key, members)| InitialGroup { key, members })
        .collect();
    groups.sort_by_key(|g| g.key);
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique(tokens: &[&str]) -> EncodedLog {
        EncodedLog::from_tokens(tokens)
    }

    #[test]
    fn groups_by_length() {
        let logs = vec![
            unique(&["a", "b"]),
            unique(&["c", "d"]),
            unique(&["a", "b", "c"]),
        ];
        let groups = initial_groups(&logs, 0);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].key.length, 2);
        assert_eq!(groups[0].members.len(), 2);
        assert_eq!(groups[1].key.length, 3);
    }

    #[test]
    fn prefix_zero_ignores_content() {
        let logs = vec![unique(&["start", "x"]), unique(&["stop", "y"])];
        let groups = initial_groups(&logs, 0);
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn prefix_one_separates_different_first_tokens() {
        let logs = vec![
            unique(&["start", "x"]),
            unique(&["start", "y"]),
            unique(&["stop", "x"]),
        ];
        let groups = initial_groups(&logs, 1);
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(|g| g.members.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn prefix_longer_than_log_uses_available_tokens() {
        let logs = vec![unique(&["a"]), unique(&["a"]), unique(&["b"])];
        let groups = initial_groups(&logs, 5);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn empty_input_gives_no_groups() {
        assert!(initial_groups(&[], 0).is_empty());
    }

    #[test]
    fn order_is_deterministic() {
        let logs = vec![
            unique(&["a", "b", "c"]),
            unique(&["x"]),
            unique(&["p", "q"]),
        ];
        let a = initial_groups(&logs, 0);
        let b = initial_groups(&logs, 0);
        let keys_a: Vec<GroupKey> = a.iter().map(|g| g.key).collect();
        let keys_b: Vec<GroupKey> = b.iter().map(|g| g.key).collect();
        assert_eq!(keys_a, keys_b);
        assert_eq!(keys_a[0].length, 1);
        assert_eq!(keys_a[2].length, 3);
    }

    #[test]
    fn every_log_lands_in_exactly_one_group() {
        let logs: Vec<EncodedLog> = (0..50)
            .map(|i| {
                let tokens: Vec<String> = (0..(i % 5 + 1)).map(|j| format!("t{j}")).collect();
                let refs: Vec<&str> = tokens.iter().map(|s| s.as_str()).collect();
                unique(&refs)
            })
            .collect();
        let groups = initial_groups(&logs, 0);
        let mut seen = vec![false; logs.len()];
        for g in &groups {
            for &m in &g.members {
                assert!(!seen[m], "log {m} appears in two groups");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
