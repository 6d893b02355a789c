//! Hierarchical clustering of one initial group (§4.3–§4.7).
//!
//! Every initial group becomes the root of a clustering tree. A node is split by the
//! *single clustering process* (§4.4): a K-Means-style iteration using the positional
//! similarity distance, seeded K-Means++-style, that grows the number of clusters whenever
//! a cluster's saturation fails to improve on its parent. Nodes stop splitting when their
//! saturation reaches [`SATURATION_TARGET`] (§4.5), when an early-stop rule applies (§4.7),
//! or when a split cannot separate the members any further.
//!
//! The group's token hashes are interned once into a [`TokenTable`]; each node being
//! split re-interns its own rows, so the flat count tables of its clusters are sized by
//! the node's token cardinality and shrink as the tree deepens. Nothing below the
//! interning hashes a token.
//!
//! Refinement is incremental. A cluster's member statistics change only as rows move in
//! or out of it, and the split keeps every member's distance to every cluster in one
//! column per cluster, re-scored only after that cluster's members changed. The profile
//! the split ends with is the profile its child node is rendered from.

use crate::config::TrainConfig;
use crate::distance::{DenseProfile, TokenTable};
use crate::saturation::{breakdown, saturation};
use crate::tree::TemplateToken;
use logtok::EncodedLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// Saturation at or above which a node is fully resolved and is not split further.
pub const SATURATION_TARGET: f64 = 1.0;

/// A node of the per-group clustering tree, using indices local to the group.
#[derive(Debug, Clone)]
pub struct LocalNode {
    /// Indices (into the group's unique-log slice) of the member logs.
    pub members: Vec<usize>,
    /// Parent node index within the local tree.
    pub parent: Option<usize>,
    /// Child node indices within the local tree.
    pub children: Vec<usize>,
    /// Saturation score.
    pub saturation: f64,
    /// Depth within the group tree (root = 0).
    pub depth: usize,
    /// Rendered template.
    pub template: Vec<TemplateToken>,
    /// Total raw-record count covered.
    pub log_count: u64,
}

/// One cluster of a split: its members plus the statistics its node is rendered from.
struct Cluster {
    members: Vec<usize>,
    /// Per position: number of distinct tokens among the members.
    distinct: Vec<u32>,
    log_count: u64,
}

/// Build the clustering tree for one initial group. `logs` are the group's unique logs
/// (all with the same token count); the returned vector's first element is the root.
pub fn cluster_group(logs: &[&EncodedLog], config: &TrainConfig, seed: u64) -> Vec<LocalNode> {
    let mut rng = StdRng::seed_from_u64(seed);
    let positions = logs.first().map_or(0, |log| log.len());
    let mut splitter = Splitter {
        group: TokenTable::intern(positions, logs.iter().copied()),
        config,
        node: TokenTable::default(),
        remap: Vec::new(),
        profiles: Vec::new(),
        spare: Vec::new(),
        seed: DenseProfile::default(),
        columns: Vec::new(),
        stale: Vec::new(),
        live: Vec::new(),
        distances: Vec::new(),
    };
    let root = Cluster {
        members: (0..logs.len()).collect(),
        distinct: splitter.group.distinct().to_vec(),
        log_count: splitter.group.total_weight(),
    };
    let mut nodes = vec![make_node(logs, root, None, 0, config)];
    let mut work = vec![0usize];

    while let Some(node_idx) = work.pop() {
        let node = &nodes[node_idx];
        let (node_saturation, depth) = (node.saturation, node.depth);
        if node.members.len() <= 1
            || node_saturation >= SATURATION_TARGET
            || depth >= config.max_depth
        {
            continue;
        }
        let Some(clusters) = splitter.split(&node.members, node_saturation, &mut rng) else {
            continue;
        };
        for cluster in clusters {
            let child_idx = nodes.len();
            let child = make_node(logs, cluster, Some(node_idx), depth + 1, config);
            // Saturation must not decrease from parent to child; clamp for the pathological
            // cases where floating point noise or a forced split would violate it.
            let child_saturation = child.saturation.max(node_saturation);
            nodes.push(LocalNode {
                saturation: child_saturation,
                ..child
            });
            nodes[node_idx].children.push(child_idx);
            work.push(child_idx);
        }
    }
    nodes
}

/// Construct a node (template + saturation) for a cluster: constant positions keep their
/// token text, others become wildcards.
fn make_node(
    logs: &[&EncodedLog],
    cluster: Cluster,
    parent: Option<usize>,
    depth: usize,
    config: &TrainConfig,
) -> LocalNode {
    let template = match cluster.members.first() {
        Some(&first) => logs[first]
            .tokens()
            .zip(&cluster.distinct)
            .map(|(token, &distinct)| {
                if distinct <= 1 {
                    TemplateToken::Const(token.to_string())
                } else {
                    TemplateToken::Wildcard
                }
            })
            .collect(),
        None => Vec::new(),
    };
    LocalNode {
        saturation: saturation(&cluster.distinct, cluster.members.len(), &config.ablation),
        members: cluster.members,
        parent,
        children: Vec::new(),
        depth,
        template,
        log_count: cluster.log_count,
    }
}

/// The single clustering process (§4.4) over one group, with the scratch it reuses from
/// node to node.
struct Splitter<'a> {
    config: &'a TrainConfig,
    /// Token ids of the whole group; row = index into the group's unique-log slice.
    group: TokenTable,
    /// Token ids of the node being split; row = slot in its member list.
    node: TokenTable,
    /// Scratch of [`TokenTable::project_into`].
    remap: Vec<u32>,
    /// Per cluster of the split in progress: the statistics of its members, kept current
    /// as rows move in and out.
    profiles: Vec<DenseProfile>,
    /// Profiles not in use, kept for their allocations.
    spare: Vec<DenseProfile>,
    /// The one-member profile a seed's column is scored from; empty between seeds.
    seed: DenseProfile,
    /// Every member slot's distance to every cluster, column-major: cluster `c`'s column
    /// is `columns[c × slots..(c + 1) × slots]`.
    columns: Vec<f64>,
    /// Per cluster: its members changed since its column was scored.
    stale: Vec<bool>,
    /// The clusters the next read of the columns takes, in index order.
    live: Vec<usize>,
    /// Per member slot: a distance, while looking for the farthest member.
    distances: Vec<f64>,
}

impl Splitter<'_> {
    /// Split a node. Returns the member partition, or `None` when the node should stay a
    /// leaf (early stop, or no meaningful split exists).
    fn split(
        &mut self,
        members: &[usize],
        parent_saturation: f64,
        rng: &mut StdRng,
    ) -> Option<Vec<Cluster>> {
        let config = self.config;
        let ablation = &config.ablation;
        if self.group.positions() == 0 {
            return None;
        }

        // Early-stop rules (§4.7). (1) Few logs: two or fewer distinct logs form one
        // cluster each.
        if ablation.early_stopping && members.len() <= 2 {
            return (members.len() == 2).then(|| self.singletons(members));
        }
        if members.len() <= 1 {
            return None;
        }
        self.group
            .project_into(members, &mut self.remap, &mut self.node);
        if ablation.early_stopping {
            let parts = breakdown(self.node.distinct(), members.len());
            // (2) A single unresolved position cannot increase saturation by splitting.
            if parts.unresolved.len() == 1 && parts.completely_distinct.is_empty() {
                return None;
            }
            // (3) Completely distinct unresolved positions: every log is inherently its own
            // cluster.
            if !parts.unresolved.is_empty()
                && parts.unresolved.len() == parts.completely_distinct.len()
            {
                return Some(self.singletons(members));
            }
        }
        let slots = members.len();

        // --- K-Means-style refinement ---------------------------------------------------
        // Seeding: first centre random; second centre farthest from the first
        // (K-Means++-like) unless the ablation asks for random centroid selection.
        self.spare.append(&mut self.profiles);
        self.columns.clear();
        self.stale.clear();
        self.seed.reset(&self.node);
        let first = rng.gen_range(0..slots);
        self.push_seed(first);
        let second = if ablation.kmeanspp_centroids {
            // `max_by` keeps the last of equally distant members.
            let first_column = &self.columns[..slots];
            (0..slots)
                .filter(|&slot| slot != first)
                .map(|slot| (slot, first_column[slot]))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))?
                .0
        } else {
            // Random distinct member.
            let candidate = rng.gen_range(0..slots - 1);
            candidate + usize::from(candidate >= first)
        };
        self.push_seed(second);

        // Clusters from this index on are seeds that have not been through an assignment
        // step: they have no members yet, and their columns are their seeds'.
        let mut seeded_from = 0;
        let mut assignment: Vec<Option<usize>> = vec![None; slots];
        let mut best: Vec<usize> = Vec::new();
        for _iteration in 0..config.max_cluster_iters {
            // Assignment step, against the clusters as they stand before it: a row moves
            // only when its cluster changes.
            self.refresh(seeded_from);
            let mut changed = false;
            for (slot, assigned) in assignment.iter_mut().enumerate() {
                best.clear();
                let mut best_distance = f64::INFINITY;
                for &cluster_idx in &self.live {
                    let d = self.columns[cluster_idx * slots + slot];
                    if d < best_distance - 1e-12 {
                        best_distance = d;
                        best.clear();
                        best.push(cluster_idx);
                    } else if (d - best_distance).abs() <= 1e-12 {
                        best.push(cluster_idx);
                    }
                }
                let chosen = if best.is_empty() {
                    0
                } else if best.len() == 1 || !ablation.balanced_grouping {
                    best[0]
                } else {
                    // Balanced grouping (§4.6): break ties uniformly at random.
                    best[rng.gen_range(0..best.len())]
                };
                if *assigned != Some(chosen) {
                    changed = true;
                    let (row, weight) = (self.node.row(slot), self.node.weight(slot));
                    if let Some(old) = *assigned {
                        self.profiles[old].remove(row, weight);
                        self.stale[old] = true;
                    }
                    self.profiles[chosen].add(row, weight);
                    self.stale[chosen] = true;
                    *assigned = Some(chosen);
                }
            }
            seeded_from = self.profiles.len();

            // Growth step: when a non-trivial cluster fails to improve on the parent's
            // saturation, add a cluster seeded by the member farthest from every centre.
            let needs_growth = ablation.ensure_saturation_increase
                && self.profiles.iter().any(|profile| {
                    profile.unique_count() > 1
                        && saturation(profile.distinct(), profile.unique_count(), ablation)
                            <= parent_saturation + 1e-12
                });
            let position_bound = self.node.positions() + 1;
            if needs_growth && self.profiles.len() < position_bound.min(slots) {
                self.refresh(seeded_from);
                self.distances.clear();
                for slot in 0..slots {
                    let nearest = self
                        .live
                        .iter()
                        .map(|&cluster_idx| self.columns[cluster_idx * slots + slot])
                        .fold(f64::INFINITY, f64::min);
                    self.distances.push(nearest);
                }
                let farthest = (0..slots)
                    .max_by(|&a, &b| {
                        self.distances[a]
                            .partial_cmp(&self.distances[b])
                            .unwrap_or(Ordering::Equal)
                    })
                    .expect("members is non-empty");
                self.push_seed(farthest);
                // Re-run assignment against the enlarged cluster set.
                continue;
            }
            if !changed {
                break;
            }
        }
        debug_assert!(
            self.profiles
                .iter()
                .enumerate()
                .all(|(cluster_idx, profile)| {
                    let mut rebuilt = DenseProfile::default();
                    rebuilt.reset(&self.node);
                    for (slot, _) in assignment
                        .iter()
                        .enumerate()
                        .filter(|(_, &a)| a == Some(cluster_idx))
                    {
                        rebuilt.add(self.node.row(slot), self.node.weight(slot));
                    }
                    profile.same_statistics(&rebuilt)
                }),
            "incremental cluster statistics diverged from a rebuild from the members"
        );

        // Materialise the partition, dropping empty clusters. `profiles[c]` holds exactly
        // the members assigned to `c`: a seed pushed by a final growth step has none.
        let mut clusters: Vec<Cluster> = self
            .profiles
            .iter()
            .map(|profile| Cluster {
                members: Vec::new(),
                distinct: profile.distinct().to_vec(),
                log_count: profile.total_weight(),
            })
            .collect();
        for (&member, assigned) in members.iter().zip(&assignment) {
            clusters[assigned.unwrap_or(0)].members.push(member);
        }
        clusters.retain(|cluster| !cluster.members.is_empty());
        if clusters.len() < 2 {
            return None;
        }
        if ablation.ensure_saturation_increase {
            // Reject splits that fail to improve any child: they would only deepen the tree
            // without adding precision.
            let improved = clusters.iter().any(|cluster| {
                saturation(&cluster.distinct, cluster.members.len(), ablation)
                    > parent_saturation + 1e-12
            });
            if !improved {
                return None;
            }
        }
        Some(clusters)
    }

    /// Every member as its own cluster.
    fn singletons(&self, members: &[usize]) -> Vec<Cluster> {
        members
            .iter()
            .map(|&member| Cluster {
                members: vec![member],
                distinct: vec![1; self.group.positions()],
                log_count: self.group.weight(member),
            })
            .collect()
    }

    /// Open a cluster seeded with one member of the node being split: its column is the
    /// seed's, scored once, and its member statistics start empty.
    fn push_seed(&mut self, slot: usize) {
        let mut profile = self.spare.pop().unwrap_or_default();
        profile.reset(&self.node);
        self.profiles.push(profile);
        self.stale.push(false);
        let (row, weight) = (self.node.row(slot), self.node.weight(slot));
        self.seed.add(row, weight);
        self.seed
            .seal(&self.node, self.config.ablation.position_importance);
        let start = self.columns.len();
        self.columns.resize(start + self.node.rows(), 0.0);
        self.seed.score(&self.node, &mut self.columns[start..]);
        self.seed.remove(row, weight);
    }

    /// Decide which clusters the next read of the columns takes: the seeds from
    /// `seeded_from` on, and every cluster with members. Re-score each stale one of them.
    fn refresh(&mut self, seeded_from: usize) {
        let slots = self.node.rows();
        self.live.clear();
        for (cluster_idx, profile) in self.profiles.iter_mut().enumerate() {
            if cluster_idx < seeded_from && profile.is_empty() {
                continue;
            }
            if self.stale[cluster_idx] {
                profile.seal(&self.node, self.config.ablation.position_importance);
                let column = &mut self.columns[cluster_idx * slots..(cluster_idx + 1) * slots];
                profile.score(&self.node, column);
                self.stale[cluster_idx] = false;
            }
            self.live.push(cluster_idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;

    fn unique(tokens: &[&str], count: u64) -> EncodedLog {
        let mut encoded = EncodedLog::from_tokens(tokens);
        encoded.count = count;
        encoded
    }

    fn config() -> TrainConfig {
        TrainConfig::default()
    }

    fn refs(logs: &[EncodedLog]) -> Vec<&EncodedLog> {
        logs.iter().collect()
    }

    #[test]
    fn fig5_set1_stays_a_single_node() {
        let logs = vec![
            unique(
                &["UserService", "createUser", "token", "abc123", "success"],
                1,
            ),
            unique(
                &["UserService", "createUser", "token", "xyz789", "success"],
                1,
            ),
            unique(
                &["UserService", "createUser", "token", "def456", "success"],
                1,
            ),
        ];
        let tree = cluster_group(&refs(&logs), &config(), 1);
        assert_eq!(tree.len(), 1, "a fully-saturated root must not split");
        assert!((tree[0].saturation - 1.0).abs() < 1e-9);
        assert_eq!(
            tree[0].template_text_for_test(),
            "UserService createUser token * success"
        );
    }

    impl LocalNode {
        fn template_text_for_test(&self) -> String {
            self.template
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        }
    }

    #[test]
    fn fig5_set2_splits_until_saturated() {
        let logs = vec![
            unique(
                &["UserService", "createUser", "token", "abc123", "success"],
                1,
            ),
            unique(
                &["UserService", "deleteUser", "token", "xyz789", "failed"],
                1,
            ),
            unique(
                &["UserService", "queryUser", "token", "def456", "success"],
                1,
            ),
        ];
        let tree = cluster_group(&refs(&logs), &config(), 1);
        assert!(tree.len() > 1, "the mixed set must split");
        // Children always have saturation >= their parent.
        for (idx, node) in tree.iter().enumerate() {
            if let Some(parent) = node.parent {
                assert!(
                    node.saturation >= tree[parent].saturation - 1e-12,
                    "node {idx} has lower saturation than its parent"
                );
            }
        }
        // All leaves are fully saturated.
        for node in tree.iter().filter(|n| n.children.is_empty()) {
            assert!(
                node.saturation >= 0.99,
                "leaf saturation {}",
                node.saturation
            );
        }
    }

    #[test]
    fn two_distinct_actions_separate_into_two_clusters() {
        let logs = vec![
            unique(&["release", "lock", "1"], 5),
            unique(&["release", "lock", "2"], 5),
            unique(&["release", "lock", "3"], 5),
            unique(&["acquire", "lock", "4"], 5),
            unique(&["acquire", "lock", "5"], 5),
            unique(&["acquire", "lock", "6"], 5),
        ];
        let tree = cluster_group(&refs(&logs), &config(), 3);
        // Some descendant must have the "release lock *" template and another "acquire lock *".
        let texts: Vec<String> = tree.iter().map(|n| n.template_text_for_test()).collect();
        assert!(
            texts.iter().any(|t| t == "release lock *"),
            "missing release template in {texts:?}"
        );
        assert!(
            texts.iter().any(|t| t == "acquire lock *"),
            "missing acquire template in {texts:?}"
        );
    }

    #[test]
    fn root_covers_all_records() {
        let logs = vec![
            unique(&["a", "b", "c"], 10),
            unique(&["a", "x", "c"], 20),
            unique(&["a", "y", "z"], 30),
        ];
        let tree = cluster_group(&refs(&logs), &config(), 5);
        assert_eq!(tree[0].log_count, 60);
        assert_eq!(tree[0].members.len(), 3);
        // Children partition the parent's members.
        for node in &tree {
            if !node.children.is_empty() {
                let child_total: usize = node.children.iter().map(|&c| tree[c].members.len()).sum();
                assert_eq!(child_total, node.members.len());
            }
        }
    }

    #[test]
    fn single_log_group_is_one_leaf() {
        let logs = vec![unique(&["only", "log"], 1)];
        let tree = cluster_group(&refs(&logs), &config(), 1);
        assert_eq!(tree.len(), 1);
        assert!(tree[0].children.is_empty());
        assert_eq!(tree[0].saturation, 1.0);
    }

    #[test]
    fn two_log_group_splits_into_singletons_when_unrelated() {
        let logs = vec![
            unique(&["alpha", "beta"], 1),
            unique(&["gamma", "delta"], 1),
        ];
        let tree = cluster_group(&refs(&logs), &config(), 1);
        // Early-stop rule 1: each log its own cluster (or stays one node if saturated).
        let leaves: Vec<&LocalNode> = tree.iter().filter(|n| n.children.is_empty()).collect();
        assert!(!leaves.is_empty());
        for leaf in leaves {
            assert!(leaf.saturation >= tree[0].saturation);
        }
    }

    #[test]
    fn deep_recursion_is_bounded() {
        // Many logs sharing no structure: the tree must stay bounded and finite.
        let logs: Vec<EncodedLog> = (0..64)
            .map(|i| unique(&[&format!("tok{i}"), &format!("val{}", i % 7), "end"], 1))
            .collect();
        let shallow = TrainConfig {
            max_depth: 3,
            ..TrainConfig::default()
        };
        let tree = cluster_group(&refs(&logs), &shallow, 7);
        for node in &tree {
            assert!(node.depth <= 4);
        }
    }

    #[test]
    fn disabling_early_stop_still_terminates() {
        let logs = vec![
            unique(&["a", "1"], 1),
            unique(&["a", "2"], 1),
            unique(&["b", "3"], 1),
        ];
        let mut cfg = config();
        cfg.ablation.early_stopping = false;
        let tree = cluster_group(&refs(&logs), &cfg, 11);
        assert!(!tree.is_empty());
        assert!(tree.len() < 20);
    }

    #[test]
    fn without_saturation_guarantee_splits_are_still_partitions() {
        let logs = vec![
            unique(&["put", "key", "1"], 1),
            unique(&["put", "key", "2"], 1),
            unique(&["get", "key", "3"], 1),
            unique(&["get", "key", "4"], 1),
        ];
        let mut cfg = config();
        cfg.ablation.ensure_saturation_increase = false;
        let tree = cluster_group(&refs(&logs), &cfg, 13);
        for node in &tree {
            if !node.children.is_empty() {
                let mut members: Vec<usize> = node
                    .children
                    .iter()
                    .flat_map(|&c| tree[c].members.clone())
                    .collect();
                members.sort_unstable();
                let mut expected = node.members.clone();
                expected.sort_unstable();
                assert_eq!(members, expected);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let logs = vec![
            unique(&["svc", "start", "a"], 1),
            unique(&["svc", "start", "b"], 1),
            unique(&["svc", "stop", "a"], 1),
            unique(&["svc", "stop", "b"], 1),
        ];
        let t1 = cluster_group(&refs(&logs), &config(), 99);
        let t2 = cluster_group(&refs(&logs), &config(), 99);
        assert_eq!(t1.len(), t2.len());
        for (a, b) in t1.iter().zip(t2.iter()) {
            assert_eq!(a.members, b.members);
            assert_eq!(a.template, b.template);
        }
    }
}
