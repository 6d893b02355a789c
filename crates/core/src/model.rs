//! The trained parser model: every tree node from every initial group, plus the matching
//! order used by the online phase. This is the state the production system persists to its
//! "internal topic" (§3) — template texts, saturation scores and parent/child links only,
//! no per-node token statistics.

use crate::tree::{NodeId, TemplateToken, TreeNode};
use serde::{Deserialize, Serialize};

/// A trained ByteBrain model.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParserModel {
    /// All nodes, indexed by `NodeId.0`.
    pub nodes: Vec<TreeNode>,
    /// Root node ids (one per initial group).
    pub roots: Vec<NodeId>,
    /// Node ids in matching order: descending saturation, deeper nodes first on ties
    /// (§4.8 — the most precise templates are tried first).
    match_order: Vec<NodeId>,
}

impl ParserModel {
    /// An empty model (matches nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (templates at all precision levels).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the model has no templates.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Look up a node.
    pub fn node(&self, id: NodeId) -> Option<&TreeNode> {
        self.nodes.get(id.0)
    }

    /// Append a node and return its id. The caller is responsible for linking it to its
    /// parent via [`ParserModel::attach_child`], or registering it as a root.
    pub fn push_node(&mut self, mut node: TreeNode) -> NodeId {
        let id = NodeId(self.nodes.len());
        node.id = id;
        self.nodes.push(node);
        id
    }

    /// Register `id` as the root of a clustering tree.
    pub fn add_root(&mut self, id: NodeId) {
        self.roots.push(id);
    }

    /// Link `child` under `parent`.
    pub fn attach_child(&mut self, parent: NodeId, child: NodeId) {
        self.nodes[child.0].parent = Some(parent);
        self.nodes[parent.0].children.push(child);
    }

    /// Ancestor chain of `id`, from the node itself up to its root.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut chain = vec![id];
        let mut current = id;
        while let Some(parent) = self.nodes[current.0].parent {
            chain.push(parent);
            current = parent;
        }
        chain
    }

    /// Leaf nodes (most precise templates). Retired nodes are excluded.
    pub fn leaves(&self) -> impl Iterator<Item = &TreeNode> {
        self.nodes.iter().filter(|n| n.is_leaf() && !n.retired)
    }

    /// The matching order's comparator: descending saturation; on ties templates with
    /// fewer wildcards (more specific) first, then deeper nodes, so that a
    /// wildcard-heavy saturated node cannot shadow an exact one; then ascending id.
    fn match_order_cmp(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        let na = &self.nodes[a.0];
        let nb = &self.nodes[b.0];
        nb.saturation
            .partial_cmp(&na.saturation)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(na.wildcard_count().cmp(&nb.wildcard_count()))
            .then(nb.depth.cmp(&na.depth))
            .then(a.0.cmp(&b.0))
    }

    /// Recompute the matching order. Must be called after the last structural change
    /// made through [`ParserModel::push_node`] or a direct edit of `nodes` (training,
    /// merging, applying a [`ModelDelta`](crate::incremental::ModelDelta));
    /// [`ParserModel::insert_temporary`] and [`ParserModel::retire`] keep the order
    /// current themselves. Retired nodes are excluded.
    pub fn rebuild_match_order(&mut self) {
        let mut order: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|n| !n.retired)
            .map(|n| n.id)
            .collect();
        order.sort_by(|&a, &b| self.match_order_cmp(a, b));
        self.match_order = order;
    }

    /// Node ids in matching order (descending saturation).
    pub fn match_order(&self) -> &[NodeId] {
        &self.match_order
    }

    /// Total number of raw records the model was trained on.
    pub fn trained_records(&self) -> u64 {
        self.roots.iter().map(|&r| self.nodes[r.0].log_count).sum()
    }

    /// Approximate serialized size of the model in bytes: template text plus fixed
    /// per-node metadata. Reported in the Table 5 reproduction ("Model Size").
    pub fn approx_size_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                let text: usize = n
                    .template
                    .iter()
                    .map(|t| match t {
                        TemplateToken::Const(s) => s.len() + 1,
                        TemplateToken::Wildcard => 2,
                    })
                    .sum();
                // id + parent + saturation + depth + counts ≈ 40 bytes of metadata.
                (text + 40) as u64
            })
            .sum()
    }

    /// Insert a temporary template for an unmatched log (§3 "Online Matching"): the log
    /// itself becomes a new root-level node with saturation 1 and is flagged temporary so
    /// the next training cycle can absorb it.
    pub fn insert_temporary(&mut self, tokens: &[String]) -> NodeId {
        let node = TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template: tokens
                .iter()
                .map(|t| TemplateToken::Const(t.clone()))
                .collect(),
            saturation: 1.0,
            depth: 0,
            log_count: 1,
            unique_count: 1,
            temporary: true,
            retired: false,
        };
        let id = self.push_node(node);
        self.add_root(id);
        // One slot in an order that is already sorted: re-sorting it per unmatched
        // record made every insertion cost the whole model.
        let at = self
            .match_order
            .partition_point(|&other| self.match_order_cmp(other, id).is_lt());
        self.match_order.insert(at, id);
        id
    }

    /// Number of temporary (unmatched-log) templates currently active in the model.
    /// Temporaries that were retired by incremental maintenance are not counted.
    pub fn temporary_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.temporary && !n.retired)
            .count()
    }

    /// Number of retired nodes (slots kept for id stability but excluded from matching).
    pub fn retired_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.retired).count()
    }

    /// Retire `id`: remove it from the root set (when present) and from the matching
    /// order while keeping its slot so other [`NodeId`]s remain stable.
    pub fn retire(&mut self, id: NodeId) {
        self.nodes[id.0].retired = true;
        self.roots.retain(|&r| r != id);
        self.match_order.retain(|&n| n != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_node(template: &[&str], saturation: f64, depth: usize) -> TreeNode {
        TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template: template
                .iter()
                .map(|t| {
                    if *t == "*" {
                        TemplateToken::Wildcard
                    } else {
                        TemplateToken::Const(t.to_string())
                    }
                })
                .collect(),
            saturation,
            depth,
            log_count: 1,
            unique_count: 1,
            temporary: false,
            retired: false,
        }
    }

    #[test]
    fn push_and_link_nodes() {
        let mut model = ParserModel::new();
        let root = model.push_node(simple_node(&["a", "*"], 0.5, 0));
        model.add_root(root);
        let child = model.push_node(simple_node(&["a", "b"], 1.0, 1));
        model.attach_child(root, child);
        assert_eq!(model.len(), 2);
        assert_eq!(model.node(child).unwrap().parent, Some(root));
        assert_eq!(model.node(root).unwrap().children, vec![child]);
        assert_eq!(model.ancestors(child), vec![child, root]);
    }

    #[test]
    fn match_order_is_descending_saturation_then_depth() {
        let mut model = ParserModel::new();
        let coarse = model.push_node(simple_node(&["x", "*"], 0.4, 0));
        let shallow_precise = model.push_node(simple_node(&["x", "y"], 1.0, 1));
        let deep_precise = model.push_node(simple_node(&["x", "z"], 1.0, 2));
        model.add_root(coarse);
        model.rebuild_match_order();
        let order = model.match_order();
        assert_eq!(order[0], deep_precise);
        assert_eq!(order[1], shallow_precise);
        assert_eq!(order[2], coarse);
    }

    #[test]
    fn temporary_insertion() {
        let mut model = ParserModel::new();
        let id = model.insert_temporary(&["never".into(), "seen".into(), "before".into()]);
        assert_eq!(model.temporary_count(), 1);
        assert!(model.node(id).unwrap().temporary);
        assert_eq!(model.node(id).unwrap().template_text(), "never seen before");
        assert!(model.match_order().contains(&id));
    }

    #[test]
    fn size_estimate_grows_with_nodes() {
        let mut model = ParserModel::new();
        let empty_size = model.approx_size_bytes();
        model.push_node(simple_node(&["some", "template", "*"], 1.0, 0));
        assert!(model.approx_size_bytes() > empty_size);
    }

    #[test]
    fn leaves_are_childless() {
        let mut model = ParserModel::new();
        let root = model.push_node(simple_node(&["a", "*"], 0.5, 0));
        let child = model.push_node(simple_node(&["a", "b"], 1.0, 1));
        model.add_root(root);
        model.attach_child(root, child);
        let leaves: Vec<NodeId> = model.leaves().map(|n| n.id).collect();
        assert_eq!(leaves, vec![child]);
    }

    #[test]
    fn trained_records_sums_roots_only() {
        let mut model = ParserModel::new();
        let mut root_node = simple_node(&["a"], 1.0, 0);
        root_node.log_count = 10;
        let root = model.push_node(root_node);
        model.add_root(root);
        let mut child_node = simple_node(&["a"], 1.0, 1);
        child_node.log_count = 4;
        let child = model.push_node(child_node);
        model.attach_child(root, child);
        assert_eq!(model.trained_records(), 10);
    }
}
