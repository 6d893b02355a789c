//! Online matching (§4.8): match incoming logs against stored template texts.
//!
//! Templates are tried in descending saturation order (deepest/most precise first); a
//! template matches when the log has the same token count and every position equals the
//! template token or the template holds a wildcard. This avoids recomputing positional
//! similarity distances and traversing the tree online, which is what keeps the model
//! small (no per-node token statistics) and matching cheap.
//!
//! That definition is [`match_view`], the linear tree walk. Nothing in production runs
//! it: every match decision — [`ByteBrainParser`](crate::ByteBrainParser), the service's
//! batch path, pool workers and stale re-match — is one call of [`match_compiled`]. It
//! reads the [`CompiledMatcher`] its holder compiled when the model was last trained,
//! landed or recovered, scans the temporary templates appended since when that misses,
//! and under debug assertions checks itself against the walk.

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

    /// Render the match decision `node` for `record`.
    pub(crate) fn of(model: &ParserModel, record: &str, node: Option<NodeId>) -> Self {
        let hit = node.map(|id| &model.nodes[id.0]);
        MatchResult {
            node,
            saturation: hit.map_or(0.0, |n| n.saturation),
            template: hit.map_or_else(|| record.to_string(), |n| n.template_text()),
        }
    }
}

/// The linear tree walk (§4.8), kept as the **oracle**: match a [`TokenView`] produced by
/// [`Preprocessor::token_view`] against the templates in match order and return the first
/// (most precise) matching template id. It has no production caller — [`match_compiled`]'s
/// debug assertion and the differential suites are what run it.
pub fn match_view(model: &ParserModel, view: &TokenView<'_>) -> Option<NodeId> {
    model
        .match_order()
        .iter()
        .copied()
        .find(|id| model.nodes[id.0].matches(view.iter()))
}

/// The one production match decision: `compiled`, compiled from `model` at its last
/// training, landing or recovery, plus a linear look at the nodes appended to `model`
/// since — the tail. Those can only be temporary templates
/// ([`ParserModel::insert_temporary`]; every other model change compiles anew) —
/// exact-token templates of lines that everything older missed, so at most one of them
/// matches a record, and only a record the tables miss. Together that is the live model:
/// a temporary costs a scan, paid only by records the tables miss, never a compile.
/// Builds with debug assertions hold every decision to the tree walk.
pub fn match_compiled(
    model: &ParserModel,
    compiled: &CompiledMatcher,
    view: &TokenView<'_>,
) -> Option<NodeId> {
    let node = compiled.match_symbols(view.iter()).or_else(|| {
        let mut appended = model.nodes[compiled.nodes()..].iter();
        appended.find(|n| n.matches(view.iter())).map(|n| n.id)
    });
    debug_assert_eq!(
        node,
        match_view(model, view),
        "automaton diverged from the tree walk on {:?}",
        view.iter().collect::<Vec<_>>()
    );
    node
}

/// Match a batch of raw records, optionally across `workers` threads (§3 "Parallel": the
/// online phase parallelises template matching across logs), returning
/// `(node, saturation)` pairs in input order without rendering template texts. Each record
/// is preprocessed on a per-thread scratch and decided by [`match_compiled`].
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
    let lines: Vec<&str> = records.iter().map(|record| record.as_ref()).collect();
    run_parallel(workers, lines, |record| {
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let view = preprocessor.token_view(record, &mut scratch);
            let node = match_compiled(model, compiled, &view);
            (node, node.map_or(0.0, |id| model.nodes[id.0].saturation))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::train::train;

    #[test]
    fn kernel_sees_temporaries_appended_since_the_tables_were_built() {
        let records: Vec<String> = (0..40)
            .map(|i| format!("Connection closed by 10.0.0.{}", i % 9))
            .collect();
        let config = TrainConfig::default();
        let mut model = train(&records, &config).model;
        let pre = Preprocessor::new(config.preprocess.clone());
        let compiled = CompiledMatcher::compile(&model);
        assert_eq!(compiled.nodes(), model.len());
        let novel = [
            "kernel panic: attempted to kill init",
            "segfault at deadbeef",
        ];
        let ids = novel.map(|line| model.insert_temporary(&pre.tokens_of(line)));
        let mut probes: Vec<String> = novel.iter().map(|line| line.to_string()).collect();
        probes.push("Connection closed by 10.0.0.77".into());
        probes.push("matches nothing at all".into());
        // Input order is kept across workers; the seam assertion runs on every line.
        let results = match_ids_batch(&model, &compiled, &pre, &probes, 3);
        assert_eq!(results[0], (Some(ids[0]), 1.0));
        assert_eq!(results[1], (Some(ids[1]), 1.0));
        assert!(results[2].0.is_some_and(|id| id.0 < compiled.nodes()));
        assert_eq!(results[3], (None, 0.0));
    }
}
