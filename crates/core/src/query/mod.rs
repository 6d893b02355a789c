//! Query-time precision control (§3 "Query") and the wildcard-merging presentation
//! optimisation (§7).
//!
//! Online matching always records the *most precise* template id for every log. At query
//! time the user supplies a saturation threshold; the system resolves the recorded node to
//! the **coarsest** live ancestor whose saturation still meets the threshold. Precision can
//! therefore be changed per query — the interactive slider in the production UI — without
//! reparsing logs or storing templates redundantly.
//!
//! Two resolution paths exist:
//!
//! * [`resolve_with_threshold`] — the pointer-chasing reference path: walk the ancestor
//!   chain of the matched node on every call.
//! * [`SaturationLadder`] — the indexed path: a precomputed, per-node flat array of
//!   `(ancestor, saturation)` rungs ordered coarsest-first, so resolution is a single
//!   scan over contiguous memory instead of repeated pointer-chasing through tree nodes.
//!   A ladder is built whole from the model ([`SaturationLadder::build`]) whenever the
//!   model is trained, lands a maintenance delta or is recovered, and extended one node
//!   at a time as temporaries are inserted ([`SaturationLadder::push_root`]). It is never
//!   patched: on a drifting stream a rebuild costs less than recomputing the subtrees a
//!   delta touches (ROADMAP, finding J).
//!
//! Both paths implement the same semantics and are kept differential-identical by test:
//!
//! 1. **Retired nodes never resolve.** A chain only contains live (non-retired)
//!    ancestors; records that still point at a retired template (e.g. a temporary
//!    absorbed by incremental maintenance mid-stream) resolve to the nearest live
//!    ancestor.
//! 2. **The full chain is scanned.** Delta-patched trees do not guarantee that
//!    saturation increases monotonically from root to leaf, so resolution cannot stop at
//!    the first ancestor below the threshold: the coarsest qualifying ancestor anywhere
//!    on the chain wins, exactly as documented.
//! 3. **Thresholds are clamped** by [`clamp_threshold`] — NaN falls back to
//!    [`DEFAULT_THRESHOLD`], anything outside `[0, 1]` is clamped to the range.

pub mod ast;
pub mod plan;

use crate::model::ParserModel;
use crate::tree::{NodeId, TemplateToken};
use std::collections::HashMap;

/// The default saturation threshold used when a query supplies none (or NaN): the value
/// the production UI's precision slider starts at.
pub const DEFAULT_THRESHOLD: f64 = 0.9;

/// Sanitize a user-supplied saturation threshold: NaN becomes [`DEFAULT_THRESHOLD`],
/// finite values are clamped to `[0, 1]`. Every query entry point funnels through this
/// single function, so silent nonsense thresholds cannot reach resolution. Resolution
/// called directly ([`resolve_with_threshold`], [`SaturationLadder::resolve_batch`])
/// honours the exact threshold it is given; planned queries additionally snap it to
/// the slider's 1/1000 grid ([`QueryPlan::from_query`](plan::QueryPlan::from_query)),
/// so a plan's fingerprint always names exactly the threshold its result was computed
/// at.
pub fn clamp_threshold(threshold: f64) -> f64 {
    if threshold.is_nan() {
        DEFAULT_THRESHOLD
    } else {
        threshold.clamp(0.0, 1.0)
    }
}

/// Resolve `node` to the coarsest live ancestor whose saturation is at least `threshold`.
///
/// The entire live ancestor chain (the node itself included, when live) is scanned
/// coarsest-first; retired nodes are skipped. When no live node on the chain meets the
/// threshold, the most precise live node is returned (precision can only be reduced, not
/// invented), and when the chain holds no live node at all — a retired root with no
/// ancestors — the node itself is returned unchanged.
pub fn resolve_with_threshold(model: &ParserModel, node: NodeId, threshold: f64) -> NodeId {
    let threshold = clamp_threshold(threshold);
    // Coarsest-first scan without materialising the chain: remember the first (i.e.
    // coarsest) qualifying live node seen while walking root-ward, plus the most
    // precise live node as the fallback.
    let mut coarsest_qualifying = None;
    let mut most_precise_live = None;
    let mut current = Some(node);
    while let Some(id) = current {
        let n = &model.nodes[id.0];
        if !n.retired {
            if most_precise_live.is_none() {
                most_precise_live = Some(id);
            }
            if n.saturation >= threshold {
                // Walking precise→coarse: the last qualifying node seen is the coarsest.
                coarsest_qualifying = Some(id);
            }
        }
        current = n.parent;
    }
    coarsest_qualifying.or(most_precise_live).unwrap_or(node)
}

/// One step of a node's precomputed ancestor ladder: a live ancestor and its saturation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderRung {
    /// The live ancestor (or the node itself).
    pub node: NodeId,
    /// That ancestor's saturation score.
    pub saturation: f64,
}

/// The indexed resolution structure: for every node of a model, the chain of **live**
/// ancestors (the node itself included when live) annotated with their saturations,
/// ordered coarsest (root) first.
///
/// [`SaturationLadder::resolve`] is a single forward scan over one flat rung array —
/// no pointer-chasing, no tree-node loads — and returns exactly what
/// [`resolve_with_threshold`] returns on the same model.
///
/// Lifecycle: built whole via [`SaturationLadder::build`] whenever the model is
/// trained, lands a maintenance delta or is recovered; extended one rung array at a
/// time when the online matcher inserts a temporary template via
/// [`SaturationLadder::push_root`]; never patched. Any other structural change
/// (manual [`ParserModel::retire`], re-parenting) requires a rebuild.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SaturationLadder {
    /// `rungs[id]` = live ancestor chain of node `id`, coarsest first. Empty when the
    /// node has no live ancestor at all (a retired root).
    rungs: Vec<Vec<LadderRung>>,
}

impl SaturationLadder {
    /// Precompute the ladder of every node in `model`.
    pub fn build(model: &ParserModel) -> Self {
        let mut ladder = SaturationLadder {
            rungs: Vec::with_capacity(model.len()),
        };
        for id in 0..model.len() {
            ladder.rungs.push(Self::chain_of(model, NodeId(id)));
        }
        ladder
    }

    /// The live ancestor chain of one node, coarsest first (direct walk).
    fn chain_of(model: &ParserModel, node: NodeId) -> Vec<LadderRung> {
        let mut chain: Vec<LadderRung> = Vec::new();
        let mut current = Some(node);
        while let Some(id) = current {
            let n = &model.nodes[id.0];
            if !n.retired {
                chain.push(LadderRung {
                    node: id,
                    saturation: n.saturation,
                });
            }
            current = n.parent;
        }
        chain.reverse();
        chain
    }

    /// Number of per-node rung arrays (equals the model's node count).
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// True when the ladder covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// The precomputed rung array of `node`, coarsest first.
    pub fn rungs_of(&self, node: NodeId) -> &[LadderRung] {
        &self.rungs[node.0]
    }

    /// Resolve `node` against `threshold` with one forward scan over its rung array.
    /// Semantics identical to [`resolve_with_threshold`] (verified by test).
    pub fn resolve(&self, node: NodeId, threshold: f64) -> NodeId {
        let threshold = clamp_threshold(threshold);
        let rungs = &self.rungs[node.0];
        let Some(last) = rungs.last() else {
            return node;
        };
        rungs
            .iter()
            .find(|r| r.saturation >= threshold)
            .unwrap_or(last)
            .node
    }

    /// Resolve a batch of node ids, amortizing ladder lookups: records matched to the
    /// same template (the overwhelmingly common case in log workloads) resolve once.
    pub fn resolve_batch(&self, nodes: &[NodeId], threshold: f64) -> Vec<NodeId> {
        let threshold = clamp_threshold(threshold);
        let mut memo: HashMap<NodeId, NodeId> = HashMap::new();
        nodes
            .iter()
            .map(|&n| *memo.entry(n).or_insert_with(|| self.resolve(n, threshold)))
            .collect()
    }

    /// Append the rung array of a node just pushed onto `model` (the online matcher's
    /// temporary-template insertion). The node must be `model`'s last node.
    pub fn push_root(&mut self, model: &ParserModel, node: NodeId) {
        debug_assert_eq!(node.0, model.len() - 1, "push_root expects the newest node");
        debug_assert_eq!(self.rungs.len(), node.0, "ladder out of sync with model");
        self.rungs.push(Self::chain_of(model, node));
    }
}

/// Template text for a node after applying the query-result optimisation of §7: runs of
/// consecutive wildcards collapse into a single `*`, so `users * * *` and `users *`
/// present identically even though the underlying fixed-length templates differ.
///
/// Rendered in one pass into one allocation — a query renders one per resolved node —
/// and equal, by test, to [`merge_consecutive_wildcards`] of the node's
/// [`template_text`](crate::TreeNode::template_text).
pub fn presentation_template(model: &ParserModel, node: NodeId) -> String {
    fn text(token: &TemplateToken) -> &str {
        match token {
            TemplateToken::Const(constant) => constant,
            TemplateToken::Wildcard => "*",
        }
    }
    let template = &model.nodes[node.0].template;
    let mut out = String::with_capacity(template.iter().map(|t| text(t).len() + 1).sum());
    let mut previous_was_wildcard = false;
    for piece in template
        .iter()
        .flat_map(|token| text(token).split_whitespace())
    {
        let is_wildcard = piece == "*";
        if is_wildcard && previous_was_wildcard {
            continue;
        }
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(piece);
        previous_was_wildcard = is_wildcard;
    }
    out
}

/// Collapse runs of consecutive `*` tokens in a space-separated template string.
pub fn merge_consecutive_wildcards(template: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    let mut previous_was_wildcard = false;
    for token in template.split_whitespace() {
        let is_wildcard = token == "*";
        if is_wildcard && previous_was_wildcard {
            continue;
        }
        out.push(token);
        previous_was_wildcard = is_wildcard;
    }
    out.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::train;
    use crate::tree::{TemplateToken, TreeNode};
    use crate::TrainConfig;
    use logtok::Preprocessor;

    fn make_node(sat: f64, depth: usize, text: &[&str]) -> TreeNode {
        TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template: text
                .iter()
                .map(|t| {
                    if *t == "*" {
                        TemplateToken::Wildcard
                    } else {
                        TemplateToken::Const(t.to_string())
                    }
                })
                .collect(),
            saturation: sat,
            depth,
            log_count: 1,
            unique_count: 1,
            temporary: false,
            retired: false,
        }
    }

    /// The one-pass rendering is the two-pass definition, on the tokens that make them
    /// differ from a plain join: runs of wildcards, a constant `*`, constants holding
    /// whitespace, and the empty template.
    #[test]
    fn presentation_template_is_merged_wildcards_of_the_template_text() {
        use TemplateToken::{Const, Wildcard};
        let c = |text: &str| Const(text.to_string());
        let templates = [
            vec![],
            vec![Wildcard],
            vec![c("users"), Wildcard, Wildcard, Wildcard],
            vec![Wildcard, c("*"), Wildcard, c("a"), Wildcard, Wildcard],
            vec![
                c("a b"),
                Wildcard,
                c(" * "),
                Wildcard,
                c("x\u{2003}y"),
                c("\t"),
            ],
            vec![
                c("用户"),
                Wildcard,
                c("登录"),
                Wildcard,
                Wildcard,
                c("成功"),
            ],
        ];
        let mut model = ParserModel::new();
        for template in templates {
            let id = model.push_node(TreeNode {
                template,
                ..make_node(1.0, 0, &[])
            });
            let node = &model.nodes[id.0];
            assert_eq!(
                presentation_template(&model, id),
                merge_consecutive_wildcards(&node.template_text()),
                "{:?}",
                node.template
            );
        }
    }

    /// Build a linear chain root → mid → leaf with increasing saturation.
    fn chain_model() -> (ParserModel, NodeId, NodeId, NodeId) {
        let mut model = ParserModel::new();
        let root = model.push_node(make_node(0.3, 0, &["*", "lock", "*", "*"]));
        let mid = model.push_node(make_node(0.7, 1, &["release", "lock", "*", "*"]));
        let leaf = model.push_node(make_node(0.95, 2, &["release", "lock", "*", "null"]));
        model.add_root(root);
        model.attach_child(root, mid);
        model.attach_child(mid, leaf);
        model.rebuild_match_order();
        (model, root, mid, leaf)
    }

    #[test]
    fn low_threshold_selects_the_root() {
        let (model, root, _, leaf) = chain_model();
        assert_eq!(resolve_with_threshold(&model, leaf, 0.1), root);
    }

    #[test]
    fn medium_threshold_selects_the_middle_node() {
        let (model, _, mid, leaf) = chain_model();
        assert_eq!(resolve_with_threshold(&model, leaf, 0.6), mid);
    }

    #[test]
    fn high_threshold_keeps_the_leaf() {
        let (model, _, _, leaf) = chain_model();
        assert_eq!(resolve_with_threshold(&model, leaf, 0.9), leaf);
        // Threshold above the leaf's own saturation still returns the leaf.
        assert_eq!(resolve_with_threshold(&model, leaf, 0.99), leaf);
    }

    #[test]
    fn resolving_from_an_interior_node_walks_up_only() {
        let (model, root, mid, _) = chain_model();
        assert_eq!(resolve_with_threshold(&model, mid, 0.2), root);
        assert_eq!(resolve_with_threshold(&model, mid, 0.65), mid);
    }

    // -- bugfix: retired nodes never resolve --------------------------------

    #[test]
    fn retired_nodes_are_skipped_to_the_nearest_live_ancestor() {
        let (mut model, root, mid, leaf) = chain_model();
        model.retire(leaf);
        model.rebuild_match_order();
        // A record still pointing at the retired leaf resolves to live nodes only.
        assert_eq!(resolve_with_threshold(&model, leaf, 0.99), mid);
        assert_eq!(resolve_with_threshold(&model, leaf, 0.6), mid);
        assert_eq!(resolve_with_threshold(&model, leaf, 0.1), root);
        let ladder = SaturationLadder::build(&model);
        assert_eq!(ladder.resolve(leaf, 0.99), mid);
        assert_eq!(ladder.resolve(leaf, 0.1), root);
    }

    #[test]
    fn retired_interior_node_is_transparent() {
        let (mut model, root, mid, leaf) = chain_model();
        model.nodes[mid.0].retired = true;
        model.rebuild_match_order();
        // The chain of the leaf is now leaf → root; mid can never be returned.
        assert_eq!(resolve_with_threshold(&model, leaf, 0.6), leaf);
        assert_eq!(resolve_with_threshold(&model, leaf, 0.2), root);
        let ladder = SaturationLadder::build(&model);
        assert_eq!(ladder.resolve(leaf, 0.6), leaf);
        assert_eq!(ladder.resolve(leaf, 0.2), root);
    }

    #[test]
    fn fully_retired_chain_returns_the_node_itself() {
        let mut model = ParserModel::new();
        let lonely = model.push_node(make_node(1.0, 0, &["ephemeral", "event"]));
        model.add_root(lonely);
        model.retire(lonely);
        model.rebuild_match_order();
        assert_eq!(resolve_with_threshold(&model, lonely, 0.5), lonely);
        assert_eq!(SaturationLadder::build(&model).resolve(lonely, 0.5), lonely);
    }

    // -- bugfix: non-monotone chains scan fully -----------------------------

    #[test]
    fn coarser_qualifying_ancestor_wins_even_after_a_dip() {
        // Delta-patched trees can dip: root 0.8, mid 0.4, leaf 0.9.
        let mut model = ParserModel::new();
        let root = model.push_node(make_node(0.8, 0, &["*", "lock", "*"]));
        let mid = model.push_node(make_node(0.4, 1, &["acquire", "lock", "*"]));
        let leaf = model.push_node(make_node(0.9, 2, &["acquire", "lock", "7"]));
        model.add_root(root);
        model.attach_child(root, mid);
        model.attach_child(mid, leaf);
        model.rebuild_match_order();
        // The old walk stopped at mid (0.4 < 0.7) and kept the leaf; the doc promises
        // the coarsest qualifying ancestor — the root.
        assert_eq!(resolve_with_threshold(&model, leaf, 0.7), root);
        // Below the dip everything qualifies: still the root.
        assert_eq!(resolve_with_threshold(&model, leaf, 0.3), root);
        // Only the leaf qualifies above 0.8.
        assert_eq!(resolve_with_threshold(&model, leaf, 0.85), leaf);
        let ladder = SaturationLadder::build(&model);
        for t in [0.3, 0.7, 0.85] {
            assert_eq!(
                ladder.resolve(leaf, t),
                resolve_with_threshold(&model, leaf, t)
            );
        }
    }

    // -- threshold clamping --------------------------------------------------

    #[test]
    fn thresholds_are_clamped_in_one_place() {
        assert_eq!(clamp_threshold(f64::NAN), DEFAULT_THRESHOLD);
        assert_eq!(clamp_threshold(-0.5), 0.0);
        assert_eq!(clamp_threshold(1.5), 1.0);
        assert_eq!(clamp_threshold(0.0), 0.0);
        assert_eq!(clamp_threshold(1.0), 1.0);
        assert_eq!(clamp_threshold(0.42), 0.42);
        assert_eq!(clamp_threshold(f64::INFINITY), 1.0);
        assert_eq!(clamp_threshold(f64::NEG_INFINITY), 0.0);
        // Core resolution honours exact in-range thresholds — no silent snapping.
        assert_eq!(clamp_threshold(0.8995), 0.8995);
    }

    #[test]
    fn resolution_applies_the_clamp() {
        let (model, root, _, leaf) = chain_model();
        // NaN → default 0.9 → leaf; negative → 0 → root; >1 → 1 → leaf (nothing
        // qualifies, most precise live wins).
        assert_eq!(resolve_with_threshold(&model, leaf, f64::NAN), leaf);
        assert_eq!(resolve_with_threshold(&model, leaf, -3.0), root);
        assert_eq!(resolve_with_threshold(&model, leaf, 7.0), leaf);
        let ladder = SaturationLadder::build(&model);
        assert_eq!(ladder.resolve(leaf, f64::NAN), leaf);
        assert_eq!(ladder.resolve(leaf, -3.0), root);
    }

    // -- ladder --------------------------------------------------------------

    #[test]
    fn ladder_matches_pointer_walk_on_a_trained_model() {
        let records: Vec<String> = (0..80)
            .map(|i| format!("request {} served from cache {} in {}ms", i, i % 4, i % 9))
            .collect();
        let model = train(
            &records,
            &Preprocessor::default_pipeline(),
            &TrainConfig::default(),
        )
        .model;
        let ladder = SaturationLadder::build(&model);
        assert_eq!(ladder.len(), model.len());
        for id in 0..model.len() {
            for t in [0.0, 0.2, 0.45, 0.6, 0.8, 0.95, 1.0] {
                assert_eq!(
                    ladder.resolve(NodeId(id), t),
                    resolve_with_threshold(&model, NodeId(id), t),
                    "ladder diverged for node {id} at threshold {t}"
                );
            }
        }
    }

    #[test]
    fn ladder_rungs_are_coarsest_first() {
        let (model, root, mid, leaf) = chain_model();
        let ladder = SaturationLadder::build(&model);
        let rungs: Vec<NodeId> = ladder.rungs_of(leaf).iter().map(|r| r.node).collect();
        assert_eq!(rungs, vec![root, mid, leaf]);
        assert!(!ladder.is_empty());
    }

    #[test]
    fn ladder_batch_resolution_matches_individual() {
        let (model, root, mid, leaf) = chain_model();
        let ladder = SaturationLadder::build(&model);
        let out = ladder.resolve_batch(&[leaf, mid, leaf, leaf], 0.6);
        assert_eq!(out, vec![mid, mid, mid, mid]);
        // Batch ≡ one resolution per node, at every threshold.
        let nodes = [leaf, root, mid, leaf, root];
        for t in [0.0, 0.2, 0.5, 0.65, 0.9, 1.0] {
            let single: Vec<NodeId> = nodes
                .iter()
                .map(|&n| resolve_with_threshold(&model, n, t))
                .collect();
            assert_eq!(ladder.resolve_batch(&nodes, t), single, "threshold {t}");
        }
    }

    #[test]
    fn ladder_push_root_tracks_temporary_insertion() {
        let records: Vec<String> = (0..40)
            .map(|i| format!("request {} served in {}ms", i, i % 9))
            .collect();
        let mut model = train(
            &records,
            &Preprocessor::default_pipeline(),
            &TrainConfig::default(),
        )
        .model;
        let mut ladder = SaturationLadder::build(&model);
        let temp = model.insert_temporary(&["never".into(), "seen".into()]);
        ladder.push_root(&model, temp);
        assert_eq!(ladder.len(), model.len());
        assert_eq!(ladder.resolve(temp, 0.5), temp);
        assert_eq!(ladder, SaturationLadder::build(&model));
    }

    // -- presentation merging -------------------------------------------------

    #[test]
    fn wildcard_merging_examples_from_the_paper() {
        // print(f"users={users}") with 1, 2 and 3 elements → identical presentation.
        assert_eq!(merge_consecutive_wildcards("users *"), "users *");
        assert_eq!(merge_consecutive_wildcards("users * *"), "users *");
        assert_eq!(merge_consecutive_wildcards("users * * *"), "users *");
        // Interior runs collapse too, separated constants keep their own wildcard.
        assert_eq!(
            merge_consecutive_wildcards("copy * * to * done"),
            "copy * to * done"
        );
    }

    #[test]
    fn presentation_template_uses_merged_wildcards() {
        let (model, root, _, _) = chain_model();
        assert_eq!(presentation_template(&model, root), "* lock *");
    }

    #[test]
    fn merging_is_idempotent() {
        let once = merge_consecutive_wildcards("a * * b * * * c");
        let twice = merge_consecutive_wildcards(&once);
        assert_eq!(once, twice);
        assert_eq!(once, "a * b * c");
    }
}
