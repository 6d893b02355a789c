//! Model merging (§3 "Offline Training"): the model produced by a new training cycle is
//! merged into the previous one. Trees whose root templates are sufficiently similar are
//! combined (counts accumulate, children are merged recursively); dissimilar trees are
//! kept side by side as new roots. Temporary templates inserted by the online matcher are
//! dropped once a training cycle has had the chance to absorb their logs.

use crate::model::ParserModel;
use crate::tree::{NodeId, TemplateToken, TreeNode};

/// The template similarity at or above which a landing folds an incoming template into an
/// existing one ([`merge_models`] and [`train_delta`](crate::incremental::train_delta)
/// alike); below it the incoming template is kept beside the existing ones.
pub const MERGE_THRESHOLD: f64 = 0.6;

/// Similarity between two templates of the same length: the fraction of positions holding
/// exactly the same token (wildcards only match wildcards). Different lengths score 0.
pub fn template_similarity(a: &[TemplateToken], b: &[TemplateToken]) -> f64 {
    if a.len() != b.len() || a.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let matching = a.iter().zip(b.iter()).filter(|(x, y)| x == y).count();
    matching as f64 / a.len() as f64
}

/// Merge `incoming` into `base`. Roots of `incoming` whose template similarity with some
/// root of `base` reaches [`MERGE_THRESHOLD`] are merged into that root (recursively); the rest
/// are appended as new roots. Temporary templates in `base` are removed first — their
/// logs are represented in `incoming` by construction (the service retrains on recent
/// logs, which include previously-unmatched ones).
///
/// This is the **reference** definition of the merge — an oracle with no production
/// caller: it rebuilds the tree and renumbers every node. Every landing, the service's
/// retrains and [`ByteBrainParser::train_incremental`](crate::ByteBrainParser::train_incremental)
/// alike, goes through [`train_delta`](crate::incremental::train_delta), the same rules
/// expressed against stable node ids, and the differential suites hold that path to this
/// one.
pub fn merge_models(base: &ParserModel, incoming: &ParserModel) -> ParserModel {
    let mut merged = ParserModel::new();
    // 1. Copy the non-temporary part of `base`.
    let mut base_to_merged: Vec<Option<NodeId>> = vec![None; base.nodes.len()];
    for root in &base.roots {
        if base.nodes[root.0].temporary || base.nodes[root.0].retired {
            continue;
        }
        copy_subtree(base, *root, None, &mut merged, &mut base_to_merged);
        let new_root = base_to_merged[root.0].expect("root was just copied");
        merged.add_root(new_root);
    }
    // 2. Fold in every tree of `incoming`.
    for root in &incoming.roots {
        let incoming_root = &incoming.nodes[root.0];
        // Find the most similar existing root of the same length.
        let mut best: Option<(NodeId, f64)> = None;
        for &candidate in &merged.roots {
            let similarity =
                template_similarity(&merged.nodes[candidate.0].template, &incoming_root.template);
            if best.map(|(_, s)| similarity > s).unwrap_or(true) {
                best = Some((candidate, similarity));
            }
        }
        match best {
            Some((target, similarity)) if similarity >= MERGE_THRESHOLD => {
                merge_subtree(incoming, *root, target, &mut merged);
            }
            _ => {
                let mut incoming_to_merged: Vec<Option<NodeId>> = vec![None; incoming.nodes.len()];
                copy_subtree(incoming, *root, None, &mut merged, &mut incoming_to_merged);
                let new_root = incoming_to_merged[root.0].expect("root was just copied");
                merged.add_root(new_root);
            }
        }
    }
    merged.rebuild_match_order();
    merged
}

/// Deep-copy the subtree rooted at `node` from `source` into `target`.
fn copy_subtree(
    source: &ParserModel,
    node: NodeId,
    parent: Option<NodeId>,
    target: &mut ParserModel,
    mapping: &mut Vec<Option<NodeId>>,
) {
    let source_node = &source.nodes[node.0];
    let new_id = target.push_node(TreeNode {
        id: NodeId(0),
        parent: None,
        children: Vec::new(),
        template: source_node.template.clone(),
        saturation: source_node.saturation,
        depth: source_node.depth,
        log_count: source_node.log_count,
        unique_count: source_node.unique_count,
        temporary: source_node.temporary,
        retired: source_node.retired,
    });
    mapping[node.0] = Some(new_id);
    if let Some(parent) = parent {
        target.attach_child(parent, new_id);
    }
    for &child in &source_node.children {
        copy_subtree(source, child, Some(new_id), target, mapping);
    }
}

/// Merge the subtree rooted at `incoming_node` into the existing node `target_node`:
/// counts accumulate; each incoming child is merged into the most similar existing child
/// when similarity reaches [`MERGE_THRESHOLD`], and copied as a new child otherwise.
fn merge_subtree(
    incoming: &ParserModel,
    incoming_node: NodeId,
    target_node: NodeId,
    merged: &mut ParserModel,
) {
    let source = &incoming.nodes[incoming_node.0];
    {
        let target = &mut merged.nodes[target_node.0];
        target.log_count += source.log_count;
        target.unique_count += source.unique_count;
        // Generalise the template where the two trees disagree: any position that differs
        // becomes a wildcard (the merged node covers both populations).
        if target.template.len() == source.template.len() {
            for (t, s) in target.template.iter_mut().zip(source.template.iter()) {
                if t != s {
                    *t = TemplateToken::Wildcard;
                }
            }
        }
        // The merged node is at least as coarse as either input.
        target.saturation = target.saturation.min(source.saturation);
    }
    for &incoming_child in &incoming.nodes[incoming_node.0].children {
        let child_template = &incoming.nodes[incoming_child.0].template;
        let mut best: Option<(NodeId, f64)> = None;
        for &existing_child in &merged.nodes[target_node.0].children {
            let similarity =
                template_similarity(&merged.nodes[existing_child.0].template, child_template);
            if best.map(|(_, s)| similarity > s).unwrap_or(true) {
                best = Some((existing_child, similarity));
            }
        }
        match best {
            Some((existing, similarity)) if similarity >= MERGE_THRESHOLD => {
                merge_subtree(incoming, incoming_child, existing, merged);
            }
            _ => {
                let mut mapping: Vec<Option<NodeId>> = vec![None; incoming.nodes.len()];
                copy_subtree(
                    incoming,
                    incoming_child,
                    Some(target_node),
                    merged,
                    &mut mapping,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::matcher::match_view;
    use crate::train::train;
    use logtok::{Preprocessor, TokenScratch};

    /// The tree walk's answer for `line` (these tests are about the model, not the engine).
    fn walk(model: &ParserModel, pre: &Preprocessor, line: &str) -> Option<NodeId> {
        match_view(model, &pre.token_view(line, &mut TokenScratch::new()))
    }

    fn t(parts: &[&str]) -> Vec<TemplateToken> {
        parts
            .iter()
            .map(|p| {
                if *p == "*" {
                    TemplateToken::Wildcard
                } else {
                    TemplateToken::Const(p.to_string())
                }
            })
            .collect()
    }

    #[test]
    fn similarity_of_identical_templates_is_one() {
        let a = t(&["open", "*", "ok"]);
        assert_eq!(template_similarity(&a, &a), 1.0);
    }

    #[test]
    fn similarity_of_different_lengths_is_zero() {
        assert_eq!(template_similarity(&t(&["a"]), &t(&["a", "b"])), 0.0);
    }

    #[test]
    fn similarity_counts_matching_positions() {
        let a = t(&["open", "*", "ok"]);
        let b = t(&["open", "*", "failed"]);
        assert!((template_similarity(&a, &b) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn merging_identical_corpora_keeps_matching_working_and_accumulates_counts() {
        let records: Vec<String> = (0..40)
            .map(|i| format!("job {} finished in {}ms", i, i * 3))
            .collect();
        let config = TrainConfig::default();
        let pre = Preprocessor::new(config.preprocess.clone());
        let first = train(&records, &pre, &config).model;
        let second = train(&records, &pre, &config).model;
        let merged = merge_models(&first, &second);
        assert_eq!(merged.trained_records(), 2 * records.len() as u64);
        assert!(walk(&merged, &pre, "job 999 finished in 5ms").is_some());
    }

    #[test]
    fn dissimilar_trees_stay_separate_roots() {
        let a_records: Vec<String> = (0..20).map(|i| format!("cache hit for key {i}")).collect();
        let b_records: Vec<String> = (0..20)
            .map(|i| format!("connection refused from 10.0.0.{i} after retry"))
            .collect();
        let config = TrainConfig::default();
        let pre = Preprocessor::new(config.preprocess.clone());
        let a = train(&a_records, &pre, &config).model;
        let b = train(&b_records, &pre, &config).model;
        let merged = merge_models(&a, &b);
        assert_eq!(merged.roots.len(), a.roots.len() + b.roots.len());
        assert!(walk(&merged, &pre, "cache hit for key 7").is_some());
        assert!(walk(
            &merged,
            &pre,
            "connection refused from 10.0.0.9 after retry"
        )
        .is_some());
    }

    #[test]
    fn temporary_templates_are_dropped_on_merge() {
        let records: Vec<String> = (0..20).map(|i| format!("metric {} emitted", i)).collect();
        let config = TrainConfig::default();
        let pre = Preprocessor::new(config.preprocess.clone());
        let mut base = train(&records, &pre, &config).model;
        base.insert_temporary(&["unseen".into(), "event".into()]);
        assert_eq!(base.temporary_count(), 1);
        let incoming = train(&records, &pre, &config).model;
        let merged = merge_models(&base, &incoming);
        assert_eq!(merged.temporary_count(), 0);
    }

    #[test]
    fn merged_template_generalises_disagreements() {
        let mut base = ParserModel::new();
        let root_a = base.push_node(TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template: t(&["status", "ok", "code", "200"]),
            saturation: 1.0,
            depth: 0,
            log_count: 5,
            unique_count: 1,
            temporary: false,
            retired: false,
        });
        base.add_root(root_a);
        base.rebuild_match_order();

        let mut incoming = ParserModel::new();
        let root_b = incoming.push_node(TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template: t(&["status", "ok", "code", "404"]),
            saturation: 1.0,
            depth: 0,
            log_count: 3,
            unique_count: 1,
            temporary: false,
            retired: false,
        });
        incoming.add_root(root_b);
        incoming.rebuild_match_order();

        let merged = merge_models(&base, &incoming);
        assert_eq!(merged.roots.len(), 1);
        let root = &merged.nodes[merged.roots[0].0];
        assert_eq!(root.template_text(), "status ok code *");
        assert_eq!(root.log_count, 8);
    }
}
