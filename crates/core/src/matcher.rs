//! Online matching (§4.8): match incoming logs against stored template texts.
//!
//! Templates are tried in descending saturation order (deepest/most precise first); a
//! template matches when the log has the same token count and every position equals the
//! template token or the template holds a wildcard. This avoids recomputing positional
//! similarity distances and traversing the tree online, which is what keeps the model
//! small (no per-node token statistics) and matching cheap.

use crate::automaton::CompiledMatcher;
use crate::model::ParserModel;
use crate::parallel::run_parallel;
use crate::tree::NodeId;
use logtok::{Preprocessor, TokenScratch, TokenView};
use serde::{Deserialize, Serialize};

/// The result of matching one log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchResult {
    /// Matched node (most precise template), `None` when no template matched.
    pub node: Option<NodeId>,
    /// Saturation of the matched node (0 when unmatched).
    pub saturation: f64,
    /// Rendered template text (the raw log itself when unmatched).
    pub template: String,
}

impl MatchResult {
    /// True when a template matched.
    pub fn is_matched(&self) -> bool {
        self.node.is_some()
    }
}

/// The linear tree walk (§4.8): match a [`TokenView`] produced by
/// [`Preprocessor::token_view`] against the templates in match order, without
/// allocating owned token strings or a rendered template. Returns the first (most
/// precise) matching template id. This is [`ByteBrainParser`](crate::ByteBrainParser)'s
/// engine and the reference the compiled automaton is differentially tested against.
pub fn match_view(model: &ParserModel, view: &TokenView<'_>) -> Option<NodeId> {
    model
        .match_order()
        .iter()
        .copied()
        .find(|id| model.nodes[id.0].matches(view.iter()))
}

/// [`match_record`] through caller-provided scratch buffers: only the rendered
/// template of the *result* allocates; preprocessing and matching reuse `scratch`.
fn match_record_with_scratch(
    model: &ParserModel,
    preprocessor: &Preprocessor,
    record: &str,
    scratch: &mut TokenScratch,
) -> MatchResult {
    let view = preprocessor.token_view(record, scratch);
    match match_view(model, &view) {
        Some(id) => {
            let node = &model.nodes[id.0];
            MatchResult {
                node: Some(id),
                saturation: node.saturation,
                template: node.template_text(),
            }
        }
        None => MatchResult {
            node: None,
            saturation: 0.0,
            template: record.to_string(),
        },
    }
}

/// Match a raw log record (running the same preprocessing pipeline used for training).
pub fn match_record(model: &ParserModel, preprocessor: &Preprocessor, record: &str) -> MatchResult {
    let mut scratch = TokenScratch::new();
    match_record_with_scratch(model, preprocessor, record, &mut scratch)
}

/// Match a batch of raw records, optionally across `workers` threads (§3 "Parallel": the
/// online phase parallelises template matching across logs).
pub fn match_batch(
    model: &ParserModel,
    preprocessor: &Preprocessor,
    records: &[String],
    workers: usize,
) -> Vec<MatchResult> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<TokenScratch> =
            std::cell::RefCell::new(TokenScratch::new());
    }
    let indexed: Vec<(usize, &String)> = records.iter().enumerate().collect();
    let mut results = run_parallel(workers, indexed, |(idx, record)| {
        SCRATCH.with(|scratch| {
            let result =
                match_record_with_scratch(model, preprocessor, record, &mut scratch.borrow_mut());
            (idx, result)
        })
    });
    results.sort_by_key(|(idx, _)| *idx);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Lean batch matcher: like [`match_batch`] but returns `(node, saturation)` pairs
/// without rendering template texts — the service layer's ingest and maintenance
/// re-match paths only need the assignment. Records go through `compiled`, the
/// automaton compiled from `model`; debug builds check every decision against
/// the tree walk.
pub fn match_ids_batch<S: AsRef<str> + Sync>(
    model: &ParserModel,
    compiled: &CompiledMatcher,
    preprocessor: &Preprocessor,
    records: &[S],
    workers: usize,
) -> Vec<(Option<NodeId>, f64)> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<TokenScratch> =
            std::cell::RefCell::new(TokenScratch::new());
    }
    let indexed: Vec<(usize, &str)> = records
        .iter()
        .map(|record| record.as_ref())
        .enumerate()
        .collect();
    let mut results = run_parallel(workers, indexed, |(idx, record)| {
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let view = preprocessor.token_view(record, &mut scratch);
            let node = compiled.match_view(&view);
            debug_assert_eq!(
                node,
                match_view(model, &view),
                "automaton diverged from the tree walk on {record:?}"
            );
            let saturation = node.map(|id| model.nodes[id.0].saturation).unwrap_or(0.0);
            (idx, (node, saturation))
        })
    });
    results.sort_by_key(|(idx, _)| *idx);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::train::train;

    fn trained_model() -> (ParserModel, Preprocessor) {
        let mut records = Vec::new();
        for i in 0..40 {
            records.push(format!(
                "Accepted password for user{} from 10.0.0.{} port 22",
                i % 5,
                i % 9
            ));
            records.push(format!(
                "Failed password for user{} from 10.0.0.{} port 22",
                i % 5,
                i % 9
            ));
            records.push(format!("Connection closed by 10.0.0.{}", i % 9));
        }
        let config = TrainConfig::default();
        let outcome = train(&records, &config);
        (outcome.model, Preprocessor::new(config.preprocess.clone()))
    }

    #[test]
    fn known_patterns_match_trained_templates() {
        let (model, pre) = trained_model();
        let result = match_record(
            &model,
            &pre,
            "Accepted password for user99 from 10.0.0.77 port 22",
        );
        assert!(result.is_matched());
        assert!(result.template.contains("Accepted password for"));
        assert!(result.saturation > 0.5);
    }

    #[test]
    fn unknown_pattern_is_unmatched() {
        let (model, pre) = trained_model();
        let result = match_record(&model, &pre, "kernel panic: attempted to kill init");
        assert!(!result.is_matched());
        assert_eq!(result.template, "kernel panic: attempted to kill init");
        assert_eq!(result.saturation, 0.0);
    }

    #[test]
    fn most_precise_template_wins() {
        let (model, pre) = trained_model();
        let result = match_record(
            &model,
            &pre,
            "Failed password for user1 from 10.0.0.3 port 22",
        );
        let node = model.node(result.node.unwrap()).unwrap();
        // The matched node must distinguish Accepted from Failed (i.e. not be a coarse
        // ancestor with a wildcard at the first position).
        assert!(node.template_text().starts_with("Failed"));
    }

    #[test]
    fn batch_matching_preserves_order_and_agrees_with_single() {
        let (model, pre) = trained_model();
        let records: Vec<String> = vec![
            "Connection closed by 10.0.0.3".into(),
            "Accepted password for userX from 10.0.0.1 port 22".into(),
            "totally novel log statement".into(),
        ];
        let batch = match_batch(&model, &pre, &records, 3);
        assert_eq!(batch.len(), 3);
        for (record, result) in records.iter().zip(&batch) {
            let single = match_record(&model, &pre, record);
            assert_eq!(single.node, result.node);
        }
    }

    #[test]
    fn empty_model_matches_nothing() {
        let model = ParserModel::new();
        let pre = Preprocessor::default_pipeline();
        let result = match_record(&model, &pre, "anything at all");
        assert!(!result.is_matched());
    }

    #[test]
    fn training_assignment_agrees_with_online_matching_most_of_the_time() {
        // §5.4.1: text-based matching does not compromise accuracy. On the training data
        // the online matcher should group logs (almost) identically to the clustering
        // assignment.
        let mut records = Vec::new();
        for i in 0..60 {
            records.push(format!("block blk_{} replicated to node{}", i, i % 4));
            records.push(format!("block blk_{} deleted from node{}", i, i % 4));
        }
        let config = TrainConfig::default();
        let outcome = train(&records, &config);
        let pre = Preprocessor::new(config.preprocess.clone());
        let mut agree = 0usize;
        for (record, assigned) in records.iter().zip(&outcome.training_assignment) {
            let matched = match_record(&outcome.model, &pre, record);
            if matched.node == Some(*assigned) {
                agree += 1;
            }
        }
        let ratio = agree as f64 / records.len() as f64;
        assert!(
            ratio > 0.8,
            "online matching diverged from training assignment: {ratio}"
        );
    }
}
