//! Online incremental model maintenance.
//!
//! The paper's two-phase design keeps matching fast by pushing everything expensive
//! into periodic offline training — but merging a retrained model the obvious way
//! ([`merge_models`](crate::merge::merge_models)) renumbers every template, so every
//! structure keyed by node id has to be rebuilt. This module expresses the same merge
//! as a *delta* against stable node ids — every retrain, the service's and the library
//! facade's, lands through it; `merge_models` itself is only the test oracle —
//! and, for long-running topics whose workload *drifts* (new log statements appear,
//! old ones decay), provides the middle path, analogous to answering queries under
//! updates: small deltas are absorbed without recomputation.
//!
//! Three pieces:
//!
//! * [`DriftDetector`] — one deterministic sliding window over match outcomes.
//!   It raises [`DriftDecision::UnmatchedSurge`] when the windowed unmatched
//!   rate exceeds a bound and [`DriftDecision::SaturationDecay`] when the mean
//!   saturation of matched records decays below the baseline established on
//!   healthy traffic (coarse ancestors start absorbing what used to hit precise
//!   leaves).
//! * [`train_delta`] — folds a batch (a topic's training window, or just its
//!   unmatched records) into an existing model *as a delta*: the batch is clustered
//!   on its own and the resulting trees are expressed as copy-on-write [`NodePatch`]es against
//!   existing nodes plus [`NewNode`] subtrees, using exactly the same
//!   similarity-driven cluster-merge rules as [`merge_models`](crate::merge::merge_models).
//! * [`apply_delta`] — materialises a new [`ParserModel`] from a base model and a
//!   [`ModelDelta`]. Existing [`NodeId`]s are preserved (patches mutate in place,
//!   new nodes append), so stored records keep valid template ids and no re-match
//!   pass is needed; absorbed temporary templates are retired, not removed.
//!
//! [`ModelDelta`] is serializable, so the model store can persist delta lineage
//! (base snapshot + chain of deltas) and reconstruct any version.
//!
//! ```
//! use bytebrain::incremental::{apply_delta, train_delta};
//! use bytebrain::train::train;
//! use bytebrain::TrainConfig;
//!
//! let config = TrainConfig::default();
//! let base: Vec<String> = (0..50).map(|i| format!("request {i} served in {i}ms")).collect();
//! let model = train(&base, &config).model;
//! let drift: Vec<String> = (0..20).map(|i| format!("cache miss for key k{i}")).collect();
//! let delta = train_delta(&model, &drift, &config, 0.6);
//! let updated = apply_delta(&model, &delta);
//! assert!(updated.len() > model.len());
//! ```

use crate::merge::template_similarity;
use crate::model::ParserModel;
use crate::train::train;
use crate::tree::{NodeId, TemplateToken, TreeNode};
use crate::TrainConfig;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Drift detection
// ---------------------------------------------------------------------------

/// Configuration of the [`DriftDetector`]'s sliding window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Number of most recent observations kept.
    pub window: usize,
    /// Minimum observations in the window before it is assessed.
    pub min_samples: usize,
    /// The topic drifts when the windowed unmatched rate reaches this bound.
    pub max_unmatched_rate: f64,
    /// The topic drifts when the windowed mean saturation of matched records falls
    /// this far below the baseline established on healthy traffic.
    pub max_saturation_drop: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 1_024,
            min_samples: 256,
            max_unmatched_rate: 0.05,
            max_saturation_drop: 0.15,
        }
    }
}

impl DriftConfig {
    /// Override the window size (clamped to at least 2; `min_samples` is clamped to it).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(2);
        self.min_samples = self.min_samples.min(self.window);
        self
    }

    /// Override the minimum sample count (clamped to `1..=window`).
    pub fn with_min_samples(mut self, min_samples: usize) -> Self {
        self.min_samples = min_samples.clamp(1, self.window);
        self
    }

    /// Override the unmatched-rate bound.
    pub fn with_max_unmatched_rate(mut self, rate: f64) -> Self {
        self.max_unmatched_rate = rate;
        self
    }
}

/// The verdict of one [`DriftDetector::assess`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftDecision {
    /// The window shows no drift.
    Stable,
    /// The windowed unmatched rate exceeded the configured bound.
    UnmatchedSurge {
        /// Observed unmatched rate in the window.
        rate: f64,
    },
    /// The windowed mean matched saturation decayed below the baseline.
    SaturationDecay {
        /// Baseline mean saturation established on healthy traffic.
        baseline: f64,
        /// Current windowed mean saturation.
        current: f64,
    },
}

impl DriftDecision {
    /// True for any decision other than [`DriftDecision::Stable`].
    pub fn is_drifting(&self) -> bool {
        !matches!(self, DriftDecision::Stable)
    }
}

/// Deterministic drift detector: one sliding window over `(matched, saturation)`
/// observations. No wall-clock state — identical observation sequences always
/// produce identical decisions, which is what the differential test harness
/// relies on.
#[derive(Debug, Default, Clone)]
pub struct DriftDetector {
    config: DriftConfig,
    /// `(matched, saturation)` of the most recent observations, oldest first.
    events: VecDeque<(bool, f64)>,
    unmatched: usize,
    matched_saturation_sum: f64,
    /// Mean matched saturation over the first full window of healthy traffic.
    baseline: Option<f64>,
    baseline_sum: f64,
    baseline_count: u64,
    observations: u64,
}

impl DriftDetector {
    /// A detector with the given window configuration.
    pub fn new(config: DriftConfig) -> Self {
        DriftDetector {
            config,
            ..DriftDetector::default()
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Total observations fed so far (including those the window has dropped).
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// The baseline mean matched saturation, once established.
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// Record one match outcome. `saturation` is the matched template's
    /// saturation (ignored for unmatched records).
    pub fn observe(&mut self, matched: bool, saturation: f64) {
        self.observations += 1;
        // Establish the baseline from the first window's worth of matched records.
        if self.baseline.is_none() && matched {
            self.baseline_sum += saturation;
            self.baseline_count += 1;
            if self.baseline_count >= self.config.window as u64 {
                self.baseline = Some(self.baseline_sum / self.baseline_count as f64);
            }
        }
        self.events.push_back((matched, saturation));
        if matched {
            self.matched_saturation_sum += saturation;
        } else {
            self.unmatched += 1;
        }
        while self.events.len() > self.config.window {
            let (was_matched, sat) = self.events.pop_front().expect("window is non-empty");
            if was_matched {
                self.matched_saturation_sum -= sat;
            } else {
                self.unmatched -= 1;
            }
        }
    }

    /// Assess the window (unmatched surge checked before saturation decay).
    pub fn assess(&self) -> DriftDecision {
        let n = self.events.len();
        if n < self.config.min_samples {
            return DriftDecision::Stable;
        }
        let rate = self.unmatched as f64 / n as f64;
        if rate >= self.config.max_unmatched_rate {
            return DriftDecision::UnmatchedSurge { rate };
        }
        let matched = n - self.unmatched;
        if let Some(baseline) = self.baseline {
            if matched >= self.config.min_samples / 2 && matched > 0 {
                let current = self.matched_saturation_sum / matched as f64;
                if baseline - current >= self.config.max_saturation_drop {
                    return DriftDecision::SaturationDecay { baseline, current };
                }
            }
        }
        DriftDecision::Stable
    }

    /// Clear the window (called after maintenance absorbed the drift). The
    /// established baseline is kept: it describes healthy traffic, and the
    /// refreshed model is expected to return to it.
    pub fn reset_window(&mut self) {
        self.events.clear();
        self.unmatched = 0;
        self.matched_saturation_sum = 0.0;
    }
}

// ---------------------------------------------------------------------------
// Model deltas
// ---------------------------------------------------------------------------

/// Where a [`NewNode`] attaches in the patched model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaParent {
    /// The node becomes a new clustering-tree root.
    Root,
    /// The node becomes a child of an existing node of the base model.
    Existing(NodeId),
    /// The node becomes a child of another new node (index into
    /// [`ModelDelta::new_nodes`]; always smaller than the child's own index).
    New(usize),
}

/// A copy-on-write patch against one existing node of the base model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodePatch {
    /// The patched node (id in the base model).
    pub node: NodeId,
    /// Raw-record count to add.
    pub log_count_add: u64,
    /// Distinct-log count to add.
    pub unique_count_add: u64,
    /// The node's new template (positions that disagreed with the folded batch
    /// become wildcards, exactly as in [`merge_models`](crate::merge::merge_models)).
    pub template: Vec<TemplateToken>,
    /// The node's new saturation (the merged node is at least as coarse as either
    /// input, so this is the minimum of the two).
    pub saturation: f64,
}

/// One node appended by a delta.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NewNode {
    /// Attachment point.
    pub parent: DeltaParent,
    /// Template of the new node.
    pub template: Vec<TemplateToken>,
    /// Saturation score.
    pub saturation: f64,
    /// Tree depth carried over from the delta-trained tree.
    pub depth: usize,
    /// Raw-record count covered.
    pub log_count: u64,
    /// Distinct-log count covered.
    pub unique_count: u64,
}

/// A serializable description of an incremental model update: copy-on-write
/// patches against existing nodes plus appended subtrees. Produced by
/// [`train_delta`], consumed by [`apply_delta`], persisted by the service's
/// model store to record delta lineage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelDelta {
    /// Number of nodes in the base model this delta was computed against
    /// (checked by [`apply_delta`]).
    pub base_nodes: usize,
    /// Patches to existing nodes.
    pub patches: Vec<NodePatch>,
    /// Appended nodes, parents always before children.
    pub new_nodes: Vec<NewNode>,
    /// Retire every active temporary template (their logs are represented in the
    /// folded batch by construction, mirroring how a full retrain drops them).
    pub retire_temporaries: bool,
    /// Number of raw records folded into this delta.
    pub batch_records: u64,
}

impl ModelDelta {
    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty() && self.new_nodes.is_empty() && !self.retire_temporaries
    }

    /// Number of nodes this delta appends.
    pub fn added_nodes(&self) -> usize {
        self.new_nodes.len()
    }

    /// Number of existing nodes this delta patches.
    pub fn patched_nodes(&self) -> usize {
        self.patches.len()
    }
}

// ---------------------------------------------------------------------------
// Delta training
// ---------------------------------------------------------------------------

/// A node handle inside the delta builder: either an existing base node or a
/// new node being assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Existing(NodeId),
    New(usize),
}

/// The merge fold of one incoming node into a target's working state: counts
/// accumulate, positions that disagree become wildcards, and the merged node is
/// at least as coarse as either input — exactly `merge_subtree`'s rules in
/// [`merge_models`](crate::merge::merge_models).
fn fold_node(
    log_count: &mut u64,
    unique_count: &mut u64,
    template: &mut [TemplateToken],
    saturation: &mut f64,
    source: &TreeNode,
) {
    *log_count += source.log_count;
    *unique_count += source.unique_count;
    if template.len() == source.template.len() {
        for (t, s) in template.iter_mut().zip(source.template.iter()) {
            if t != s {
                *t = TemplateToken::Wildcard;
            }
        }
    }
    *saturation = saturation.min(source.saturation);
}

/// Builder state: working copies of patched templates and the growing new-node
/// list, so that later merge decisions see earlier generalisations exactly as
/// [`merge_models`](crate::merge::merge_models) would.
struct DeltaBuilder<'m> {
    base: &'m ParserModel,
    threshold: f64,
    /// Patch working state per base node, indexed by `NodeId.0` (sparse).
    patches: Vec<Option<ExistingNodeState>>,
    /// Patched base nodes in first-touch order (deterministic output order).
    patched_order: Vec<NodeId>,
    new_nodes: Vec<NewNodeState>,
}

struct ExistingNodeState {
    log_count_add: u64,
    unique_count_add: u64,
    template: Vec<TemplateToken>,
    saturation: f64,
    /// New children appended under this existing node.
    children_added: Vec<usize>,
}

struct NewNodeState {
    parent: DeltaParent,
    template: Vec<TemplateToken>,
    saturation: f64,
    depth: usize,
    log_count: u64,
    unique_count: u64,
    children: Vec<usize>,
}

impl<'m> DeltaBuilder<'m> {
    fn new(base: &'m ParserModel, threshold: f64) -> Self {
        DeltaBuilder {
            base,
            threshold,
            patches: (0..base.nodes.len()).map(|_| None).collect(),
            patched_order: Vec::new(),
            new_nodes: Vec::new(),
        }
    }

    /// The current template of a slot, reflecting any generalisation applied so far.
    fn template_of(&self, slot: Slot) -> &[TemplateToken] {
        match slot {
            Slot::Existing(id) => match &self.patches[id.0] {
                Some(patch) => &patch.template,
                None => &self.base.nodes[id.0].template,
            },
            Slot::New(idx) => &self.new_nodes[idx].template,
        }
    }

    /// Current children of a slot: base children first (base order), then new
    /// children in insertion order — matching the candidate order
    /// [`merge_models`](crate::merge::merge_models) iterates.
    fn children_of(&self, slot: Slot) -> Vec<Slot> {
        match slot {
            Slot::Existing(id) => {
                let mut out: Vec<Slot> = self.base.nodes[id.0]
                    .children
                    .iter()
                    .map(|&c| Slot::Existing(c))
                    .collect();
                if let Some(patch) = &self.patches[id.0] {
                    out.extend(patch.children_added.iter().map(|&i| Slot::New(i)));
                }
                out
            }
            Slot::New(idx) => self.new_nodes[idx]
                .children
                .iter()
                .map(|&i| Slot::New(i))
                .collect(),
        }
    }

    /// Ensure a patch working copy exists for `id` and return it.
    fn patch_mut(&mut self, id: NodeId) -> &mut ExistingNodeState {
        if self.patches[id.0].is_none() {
            let node = &self.base.nodes[id.0];
            self.patches[id.0] = Some(ExistingNodeState {
                log_count_add: 0,
                unique_count_add: 0,
                template: node.template.clone(),
                saturation: node.saturation,
                children_added: Vec::new(),
            });
            self.patched_order.push(id);
        }
        self.patches[id.0].as_mut().expect("patch just ensured")
    }

    /// Merge the subtree rooted at `incoming_node` (of the delta-trained mini
    /// model) into `target`: the delta-building mirror of `merge_subtree`.
    fn merge_subtree(&mut self, incoming: &ParserModel, incoming_node: NodeId, target: Slot) {
        let source = &incoming.nodes[incoming_node.0];
        // Accumulate counts and generalise the template where the inputs disagree —
        // one shared fold so the patch path and the new-node path cannot diverge.
        let (log_count, unique_count, template, saturation) = match target {
            Slot::Existing(id) => {
                let patch = self.patch_mut(id);
                (
                    &mut patch.log_count_add,
                    &mut patch.unique_count_add,
                    &mut patch.template,
                    &mut patch.saturation,
                )
            }
            Slot::New(idx) => {
                let node = &mut self.new_nodes[idx];
                (
                    &mut node.log_count,
                    &mut node.unique_count,
                    &mut node.template,
                    &mut node.saturation,
                )
            }
        };
        fold_node(log_count, unique_count, template, saturation, source);
        // Fold every incoming child into the most similar current child, or copy
        // it as a new child.
        for &incoming_child in &incoming.nodes[incoming_node.0].children {
            let child_template = &incoming.nodes[incoming_child.0].template;
            let mut best: Option<(Slot, f64)> = None;
            for candidate in self.children_of(target) {
                let similarity = template_similarity(self.template_of(candidate), child_template);
                if best.map(|(_, s)| similarity > s).unwrap_or(true) {
                    best = Some((candidate, similarity));
                }
            }
            match best {
                Some((existing, similarity)) if similarity >= self.threshold => {
                    self.merge_subtree(incoming, incoming_child, existing);
                }
                _ => {
                    let parent = match target {
                        Slot::Existing(id) => DeltaParent::Existing(id),
                        Slot::New(idx) => DeltaParent::New(idx),
                    };
                    self.copy_subtree(incoming, incoming_child, parent);
                }
            }
        }
    }

    /// Deep-copy the subtree rooted at `node` into the new-node list.
    fn copy_subtree(&mut self, incoming: &ParserModel, node: NodeId, parent: DeltaParent) -> usize {
        let source = &incoming.nodes[node.0];
        let idx = self.new_nodes.len();
        self.new_nodes.push(NewNodeState {
            parent,
            template: source.template.clone(),
            saturation: source.saturation,
            depth: source.depth,
            log_count: source.log_count,
            unique_count: source.unique_count,
            children: Vec::new(),
        });
        match parent {
            DeltaParent::Existing(id) => self.patch_mut(id).children_added.push(idx),
            DeltaParent::New(parent_idx) => self.new_nodes[parent_idx].children.push(idx),
            DeltaParent::Root => {}
        }
        for &child in &source.children {
            self.copy_subtree(incoming, child, DeltaParent::New(idx));
        }
        idx
    }

    fn finish(self, batch_records: u64) -> ModelDelta {
        let mut patches = Vec::new();
        for id in &self.patched_order {
            let state = self.patches[id.0].as_ref().expect("id was patched");
            patches.push(NodePatch {
                node: *id,
                log_count_add: state.log_count_add,
                unique_count_add: state.unique_count_add,
                template: state.template.clone(),
                saturation: state.saturation,
            });
        }
        let new_nodes = self
            .new_nodes
            .into_iter()
            .map(|n| NewNode {
                parent: n.parent,
                template: n.template,
                saturation: n.saturation,
                depth: n.depth,
                log_count: n.log_count,
                unique_count: n.unique_count,
            })
            .collect();
        ModelDelta {
            base_nodes: self.base.nodes.len(),
            patches,
            new_nodes,
            retire_temporaries: true,
            batch_records,
        }
    }
}

/// Train an incremental delta: cluster `records` (a topic's training window, or just
/// its unmatched records) on their own and express the result as a [`ModelDelta`]
/// against `model`, using the same similarity-driven merge rules as
/// [`merge_models`](crate::merge::merge_models) with `merge_threshold`.
///
/// `apply_delta(model, train_delta(model, records, ..))` produces the same
/// templates as `merge_models(model, train(records, ..).model, ..)` — verified
/// by test — while preserving every existing [`NodeId`].
pub fn train_delta<S: AsRef<str>>(
    model: &ParserModel,
    records: &[S],
    config: &TrainConfig,
    merge_threshold: f64,
) -> ModelDelta {
    let mut builder = DeltaBuilder::new(model, merge_threshold);
    if records.is_empty() {
        let mut delta = builder.finish(0);
        // Nothing was folded: keep active temporaries alive, they are not
        // represented anywhere else yet.
        delta.retire_temporaries = false;
        return delta;
    }
    let incoming = train(records, config).model;
    // Candidate roots: active (non-temporary, non-retired) base roots first, in
    // base order, then delta roots as they are added — the exact candidate order
    // `merge_models` sees.
    let mut root_candidates: Vec<Slot> = model
        .roots
        .iter()
        .filter(|r| {
            let node = &model.nodes[r.0];
            !node.temporary && !node.retired
        })
        .map(|&r| Slot::Existing(r))
        .collect();
    for root in &incoming.roots {
        let incoming_root = &incoming.nodes[root.0];
        let mut best: Option<(Slot, f64)> = None;
        for &candidate in &root_candidates {
            let similarity =
                template_similarity(builder.template_of(candidate), &incoming_root.template);
            if best.map(|(_, s)| similarity > s).unwrap_or(true) {
                best = Some((candidate, similarity));
            }
        }
        match best {
            Some((target, similarity)) if similarity >= merge_threshold => {
                builder.merge_subtree(&incoming, *root, target);
            }
            _ => {
                let idx = builder.copy_subtree(&incoming, *root, DeltaParent::Root);
                root_candidates.push(Slot::New(idx));
            }
        }
    }
    builder.finish(records.len() as u64)
}

/// Apply `delta` to `base`, returning the patched model. Existing node ids are
/// preserved: patches mutate in place, new nodes append after the base nodes,
/// and absorbed temporaries are retired rather than removed — so template ids
/// stored at ingest time stay valid and no re-match pass is required.
///
/// `base` may have *fewer* nodes than the model the delta was computed against:
/// the missing tail can only be temporary templates inserted after `base` was
/// persisted (nothing else appends nodes between maintenance runs), and the
/// delta retires them anyway. The base is padded with retired placeholder slots
/// so that appended node ids stay aligned with the live model — this is what
/// lets the model store replay a delta chain on top of a full snapshot that
/// never saw the ephemeral temporaries.
///
/// # Panics
/// Panics when `base` has more nodes than the model the delta was computed
/// against (the delta would mis-reference them — the store's lineage chain
/// prevents this).
pub fn apply_delta(base: &ParserModel, delta: &ModelDelta) -> ParserModel {
    assert!(
        base.nodes.len() <= delta.base_nodes,
        "delta was computed against a model with {} nodes, got {}",
        delta.base_nodes,
        base.nodes.len()
    );
    let mut model = base.clone();
    // Placeholder slots for live-only temporaries the persisted base never saw:
    // retired on arrival, never matched, never referenced by the delta.
    while model.nodes.len() < delta.base_nodes {
        model.push_node(TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template: Vec::new(),
            saturation: 1.0,
            depth: 0,
            log_count: 0,
            unique_count: 0,
            temporary: true,
            retired: true,
        });
    }
    for patch in &delta.patches {
        let node = &mut model.nodes[patch.node.0];
        node.log_count += patch.log_count_add;
        node.unique_count += patch.unique_count_add;
        node.template = patch.template.clone();
        node.saturation = patch.saturation;
    }
    let mut new_ids: Vec<NodeId> = Vec::with_capacity(delta.new_nodes.len());
    for new in &delta.new_nodes {
        let id = model.push_node(TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template: new.template.clone(),
            saturation: new.saturation,
            depth: new.depth,
            log_count: new.log_count,
            unique_count: new.unique_count,
            temporary: false,
            retired: false,
        });
        match new.parent {
            DeltaParent::Root => model.add_root(id),
            DeltaParent::Existing(parent) => model.attach_child(parent, id),
            DeltaParent::New(idx) => model.attach_child(new_ids[idx], id),
        }
        new_ids.push(id);
    }
    if delta.retire_temporaries {
        // In bulk rather than one `retire` each: a retrain absorbs thousands of
        // temporaries, and the order is rebuilt below anyway.
        for node in model.nodes.iter_mut().filter(|n| n.temporary) {
            node.retired = true;
        }
        let nodes = &model.nodes;
        model.roots.retain(|r| !nodes[r.0].retired);
    }
    model.rebuild_match_order();
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_view;
    use crate::merge::merge_models;
    use logtok::{Preprocessor, TokenScratch};

    /// The tree walk's answer for `line` (these tests are about the model, not the engine).
    fn walk(model: &ParserModel, pre: &Preprocessor, line: &str) -> Option<NodeId> {
        match_view(model, &pre.token_view(line, &mut TokenScratch::new()))
    }

    fn base_records() -> Vec<String> {
        (0..60)
            .map(|i| format!("request {} served from cache {} in {}ms", i, i % 4, i % 9))
            .collect()
    }

    fn drift_records() -> Vec<String> {
        (0..30)
            .map(|i| format!("circuit breaker opened for upstream svc-{}", i % 6))
            .collect()
    }

    fn sorted_texts(model: &ParserModel) -> Vec<String> {
        let mut texts: Vec<String> = model
            .nodes
            .iter()
            .filter(|n| !n.retired)
            .map(|n| n.template_text())
            .collect();
        texts.sort();
        texts
    }

    #[test]
    fn delta_matches_merge_models_on_new_root_family() {
        let config = TrainConfig::default();
        let model = train(&base_records(), &config).model;
        let batch = drift_records();
        let delta = train_delta(&model, &batch, &config, 0.6);
        let patched = apply_delta(&model, &delta);
        let merged = merge_models(&model, &train(&batch, &config).model, 0.6);
        assert_eq!(sorted_texts(&patched), sorted_texts(&merged));
        assert_eq!(patched.roots.len(), merged.roots.len());
    }

    #[test]
    fn delta_matches_merge_models_when_folding_into_existing_trees() {
        let config = TrainConfig::default();
        let model = train(&base_records(), &config).model;
        // Same family, different value distribution: folds into the existing trees.
        let batch: Vec<String> = (100..140)
            .map(|i| format!("request {} served from cache {} in {}ms", i, i % 3, i % 7))
            .collect();
        let delta = train_delta(&model, &batch, &config, 0.6);
        let patched = apply_delta(&model, &delta);
        let merged = merge_models(&model, &train(&batch, &config).model, 0.6);
        assert_eq!(sorted_texts(&patched), sorted_texts(&merged));
        assert_eq!(patched.trained_records(), merged.trained_records());
    }

    #[test]
    fn apply_delta_preserves_existing_node_ids() {
        let config = TrainConfig::default();
        let model = train(&base_records(), &config).model;
        let delta = train_delta(&model, &drift_records(), &config, 0.6);
        let patched = apply_delta(&model, &delta);
        assert!(patched.len() >= model.len());
        for (before, after) in model.nodes.iter().zip(patched.nodes.iter()) {
            assert_eq!(before.id, after.id);
            assert_eq!(before.len(), after.len(), "template length changed");
            assert_eq!(before.parent, after.parent);
        }
    }

    #[test]
    fn patched_model_matches_both_old_and_new_patterns() {
        let config = TrainConfig::default();
        let model = train(&base_records(), &config).model;
        let delta = train_delta(&model, &drift_records(), &config, 0.6);
        let patched = apply_delta(&model, &delta);
        let pre = Preprocessor::new(config.preprocess.clone());
        assert!(walk(&patched, &pre, "request 999 served from cache 1 in 3ms").is_some());
        assert!(walk(&patched, &pre, "circuit breaker opened for upstream svc-99").is_some());
    }

    #[test]
    fn delta_retires_absorbed_temporaries() {
        let config = TrainConfig::default();
        let mut model = train(&base_records(), &config).model;
        let pre = Preprocessor::new(config.preprocess.clone());
        let temp_id =
            model.insert_temporary(&pre.tokens_of("circuit breaker opened for upstream svc-0"));
        assert_eq!(model.temporary_count(), 1);
        let delta = train_delta(&model, &drift_records(), &config, 0.6);
        let patched = apply_delta(&model, &delta);
        assert_eq!(patched.temporary_count(), 0);
        assert_eq!(patched.retired_count(), 1);
        assert!(patched.nodes[temp_id.0].retired);
        assert!(!patched.match_order().contains(&temp_id));
        // The absorbed pattern still matches — via a real template now.
        let node = walk(&patched, &pre, "circuit breaker opened for upstream svc-0");
        assert!(node.is_some());
        assert_ne!(node, Some(temp_id));
    }

    #[test]
    fn empty_batch_yields_empty_delta() {
        let config = TrainConfig::default();
        let model = train(&base_records(), &config).model;
        let delta = train_delta(&model, &[] as &[String], &config, 0.6);
        assert!(delta.is_empty());
        assert_eq!(delta.batch_records, 0);
        let patched = apply_delta(&model, &delta);
        assert_eq!(patched.len(), model.len());
    }

    #[test]
    fn delta_round_trips_through_json() {
        let config = TrainConfig::default();
        let model = train(&base_records(), &config).model;
        let delta = train_delta(&model, &drift_records(), &config, 0.6);
        let payload = serde_json::to_string(&delta).expect("delta serializes");
        let restored: ModelDelta = serde_json::from_str(&payload).expect("delta deserializes");
        let a = apply_delta(&model, &delta);
        let b = apply_delta(&model, &restored);
        assert_eq!(sorted_texts(&a), sorted_texts(&b));
        assert_eq!(a.len(), b.len());
    }

    #[test]
    #[should_panic(expected = "delta was computed against a model")]
    fn apply_delta_rejects_wider_base() {
        let config = TrainConfig::default();
        let model = train(&base_records(), &config).model;
        let mut delta = train_delta(&model, &drift_records(), &config, 0.6);
        // Pretend the delta was computed against a narrower model: the wider live
        // model could hold nodes the delta never saw.
        delta.base_nodes = model.len() - 1;
        apply_delta(&model, &delta);
    }

    #[test]
    fn apply_delta_pads_narrower_base_with_retired_slots() {
        let config = TrainConfig::default();
        let persisted = train(&base_records(), &config).model;
        // The live model accumulated temporaries after `persisted` was stored.
        let mut live = persisted.clone();
        live.insert_temporary(&["ephemeral".into(), "event".into(), "one".into()]);
        live.insert_temporary(&["ephemeral".into(), "event".into(), "two".into()]);
        let delta = train_delta(&live, &drift_records(), &config, 0.6);
        let from_live = apply_delta(&live, &delta);
        let from_persisted = apply_delta(&persisted, &delta);
        // Node ids align: same width, and every active node carries the same template.
        assert_eq!(from_live.len(), from_persisted.len());
        for (a, b) in from_live.nodes.iter().zip(from_persisted.nodes.iter()) {
            if !a.retired && !b.retired {
                assert_eq!(a.template_text(), b.template_text());
            }
            assert_eq!(a.retired, b.retired, "retirement must align at {:?}", a.id);
        }
        assert_eq!(sorted_texts(&from_live), sorted_texts(&from_persisted));
    }

    // -- drift detector -----------------------------------------------------

    fn drift_config() -> DriftConfig {
        DriftConfig::default()
            .with_window(100)
            .with_min_samples(50)
            .with_max_unmatched_rate(0.2)
    }

    #[test]
    fn stable_traffic_is_stable() {
        let mut detector = DriftDetector::new(drift_config());
        for _ in 0..500 {
            detector.observe(true, 0.9);
        }
        assert_eq!(detector.assess(), DriftDecision::Stable);
        assert_eq!(detector.observations(), 500);
    }

    #[test]
    fn unmatched_surge_is_detected() {
        let mut detector = DriftDetector::new(drift_config());
        for _ in 0..400 {
            detector.observe(true, 0.9);
        }
        // Unknown logs start arriving: 20 of the last 100 is exactly the bound.
        for _ in 0..20 {
            detector.observe(false, 0.0);
        }
        match detector.assess() {
            DriftDecision::UnmatchedSurge { rate } => assert!(rate >= 0.2),
            other => panic!("expected unmatched surge, got {other:?}"),
        }
    }

    #[test]
    fn saturation_decay_is_detected() {
        let mut config = drift_config();
        config.max_saturation_drop = 0.2;
        let mut detector = DriftDetector::new(config);
        // Healthy traffic establishes a baseline near 0.95.
        for _ in 0..200 {
            detector.observe(true, 0.95);
        }
        assert!(detector.baseline().is_some());
        // Matches degrade to coarse ancestors.
        for _ in 0..100 {
            detector.observe(true, 0.5);
        }
        match detector.assess() {
            DriftDecision::SaturationDecay { baseline, current } => assert!(baseline > current),
            other => panic!("expected saturation decay, got {other:?}"),
        }
    }

    #[test]
    fn reset_clears_the_window_but_keeps_baseline() {
        let mut detector = DriftDetector::new(drift_config());
        for _ in 0..200 {
            detector.observe(true, 0.9);
        }
        for _ in 0..100 {
            detector.observe(false, 0.0);
        }
        assert!(detector.assess().is_drifting());
        let baseline = detector.baseline();
        detector.reset_window();
        assert_eq!(detector.assess(), DriftDecision::Stable);
        assert_eq!(detector.baseline(), baseline);
    }

    #[test]
    fn detection_is_deterministic() {
        let run = || {
            let mut detector = DriftDetector::new(drift_config());
            for i in 0..1_000u64 {
                let matched = i % 7 != 0;
                detector.observe(matched, if matched { 0.8 } else { 0.0 });
            }
            format!("{:?}", detector.assess())
        };
        assert_eq!(run(), run());
    }
}
