//! The reference a `FullRetrain` topic is held to, shared by `differential.rs` and
//! `accuracy.rs`: a library-only twin that maintains its model the way
//! `LogTopic::run_training` did before a retrain landed as a delta — train the
//! window, `merge_models` it into the live model (renumbering every node), re-match
//! every stored record through the tree walk.

use bytebrain_repro::bytebrain::matcher::match_view;
use bytebrain_repro::bytebrain::merge::merge_models;
use bytebrain_repro::bytebrain::query::{presentation_template, resolve_with_threshold};
use bytebrain_repro::bytebrain::train::train;
use bytebrain_repro::bytebrain::{NodeId, ParserModel};
use bytebrain_repro::logtok::{Preprocessor, TokenScratch};
use bytebrain_repro::service::{LogTopic, TopicConfig};

/// Base seed of the seeded suites: `BYTEBRAIN_TEST_SEED` (default 1); CI runs a matrix.
pub fn base_seed() -> u64 {
    std::env::var("BYTEBRAIN_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// The library-only twin. Feed it what the topic is fed, call
/// [`MergeReference::retrain`] whenever the topic trained.
pub struct MergeReference {
    config: TopicConfig,
    preprocessor: Preprocessor,
    scratch: TokenScratch,
    pub model: ParserModel,
    records: Vec<String>,
    pub assigned: Vec<Option<NodeId>>,
    window_start: usize,
}

impl MergeReference {
    pub fn new(config: &TopicConfig) -> Self {
        MergeReference {
            config: config.clone(),
            preprocessor: Preprocessor::new(config.train.preprocess.clone()),
            scratch: TokenScratch::new(),
            model: ParserModel::new(),
            records: Vec::new(),
            assigned: Vec::new(),
            window_start: 0,
        }
    }

    fn match_line(&mut self, line: &str) -> Option<NodeId> {
        let view = self.preprocessor.token_view(line, &mut self.scratch);
        match_view(&self.model, &view)
    }

    /// Online matching: a line every template misses becomes a temporary one.
    pub fn ingest(&mut self, batch: &[String]) {
        for line in batch {
            let mut node = self.match_line(line);
            if node.is_none() && !self.model.is_empty() {
                let tokens = self.preprocessor.tokens_of(line);
                node = Some(self.model.insert_temporary(&tokens));
            }
            self.records.push(line.clone());
            self.assigned.push(node);
        }
    }

    /// One training cycle over the first `training_buffer` records since the last.
    pub fn retrain(&mut self) {
        let window = &self.records[self.window_start..];
        let window = &window[..window.len().min(self.config.training_buffer)];
        let trained = train(window, &self.preprocessor, &self.config.train).model;
        self.model = if self.model.is_empty() {
            trained
        } else {
            merge_models(&self.model, &trained)
        };
        self.window_start = self.records.len();
        for idx in 0..self.records.len() {
            let line = std::mem::take(&mut self.records[idx]);
            self.assigned[idx] = self.match_line(&line);
            self.records[idx] = line;
        }
    }

    /// What `TopicStats::templates` counts.
    pub fn templates(&self) -> usize {
        self.model.len() - self.model.retired_count()
    }
}

/// Every record's presentation template at `threshold` (`None` while unassigned) —
/// the text a query groups it under, which is what must agree however differently
/// two models number their nodes.
pub fn presentations(
    model: &ParserModel,
    assigned: impl Iterator<Item = Option<NodeId>>,
    threshold: f64,
) -> Vec<Option<String>> {
    assigned
        .map(|node| {
            node.map(|id| {
                presentation_template(model, resolve_with_threshold(model, id, threshold))
            })
        })
        .collect()
}

/// [`presentations`] of a topic's stored records.
pub fn topic_presentations(topic: &LogTopic, threshold: f64) -> Vec<Option<String>> {
    let assigned = topic.records().iter().map(|r| r.template);
    presentations(topic.model(), assigned, threshold)
}
