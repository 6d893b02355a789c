//! High-level parser facade combining training, matching, querying and merging.

use crate::automaton::CompiledMatcher;
use crate::config::TrainConfig;
use crate::incremental::{apply_delta, train_delta};
use crate::matcher::{match_compiled, match_ids_batch, MatchResult};
use crate::model::ParserModel;
use crate::query::{presentation_template, resolve_with_threshold};
use crate::train::{spread_sample, train, train_keeping_batch};
use crate::tree::NodeId;
use logtok::Preprocessor;

/// The ByteBrain log parser: owns the preprocessing pipeline, the trained model, the
/// automaton compiled from it, and the configuration. This is the type examples and the
/// paper-protocol benchmark interact with.
#[derive(Debug)]
pub struct ByteBrainParser {
    config: TrainConfig,
    preprocessor: Preprocessor,
    model: ParserModel,
    /// `model` as the last training call compiled it. A temporary inserted since is an
    /// appended node, which [`match_compiled`](crate::matcher::match_compiled) scans after
    /// the tables miss.
    compiled: CompiledMatcher,
    /// Per-record node assignment of the last [`train`](ByteBrainParser::train) batch (the
    /// "w/ naive match" ablation and accuracy on training data read it), `None` for a
    /// record the training sample left out. Empty after
    /// [`train_incremental`](ByteBrainParser::train_incremental): a batch clustered on its
    /// own and folded in as a delta has node ids that name nothing in the merged model.
    last_training_assignment: Vec<Option<NodeId>>,
}

impl ByteBrainParser {
    /// Create an untrained parser.
    pub fn new(config: TrainConfig) -> Self {
        let preprocessor = Preprocessor::new(config.preprocess.clone());
        let model = ParserModel::new();
        ByteBrainParser {
            config,
            preprocessor,
            compiled: CompiledMatcher::compile(&model),
            model,
            last_training_assignment: Vec::new(),
        }
    }

    /// Parser with the default configuration.
    pub fn default_parser() -> Self {
        Self::new(TrainConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The current model (empty before the first training cycle).
    pub fn model(&self) -> &ParserModel {
        &self.model
    }

    /// The preprocessing pipeline (shared between training and matching).
    pub fn preprocessor(&self) -> &Preprocessor {
        &self.preprocessor
    }

    /// Train on a batch of raw records, replacing any existing model.
    pub fn train(&mut self, records: &[String]) -> &ParserModel {
        let outcome = train(records, &self.preprocessor, &self.config);
        self.install(outcome.model, outcome.training_assignment);
        &self.model
    }

    /// Train on a new batch and merge the result into the existing model (periodic
    /// retraining in production, §3) the way every service landing does — a
    /// [`train_delta`] applied against stable node ids, absorbing the temporaries.
    pub fn train_incremental(&mut self, records: &[String]) {
        if self.model.is_empty() {
            self.train(records);
            return;
        }
        let delta = train_delta(&self.model, records, &self.preprocessor, &self.config);
        self.install(apply_delta(&self.model, &delta), Vec::new());
    }

    /// Take `model` as the current one and compile it.
    fn install(&mut self, model: ParserModel, training_assignment: Vec<Option<NodeId>>) {
        self.model = model;
        self.compiled = CompiledMatcher::compile(&self.model);
        self.last_training_assignment = training_assignment;
    }

    fn match_node(&self, record: &str) -> Option<NodeId> {
        let pre = &self.preprocessor;
        match_ids_batch(&self.model, &self.compiled, pre, &[record], 1).ids[0].0
    }

    /// Match one raw log against the model. Unmatched logs are inserted as temporary
    /// templates (§3 "Online Matching") so subsequent identical logs match.
    pub fn match_log(&mut self, record: &str) -> MatchResult {
        let node = self.match_or_insert(record);
        MatchResult::of(&self.model, Some(node))
    }

    /// The node `record` matches, inserted as a temporary template when there is none.
    fn match_or_insert(&mut self, record: &str) -> NodeId {
        self.match_node(record).unwrap_or_else(|| {
            let tokens = self.preprocessor.tokens_of(record);
            self.model.insert_temporary(&tokens)
        })
    }

    /// Match one raw log without inserting temporary templates (read-only).
    pub fn match_log_readonly(&self, record: &str) -> MatchResult {
        MatchResult::of(&self.model, self.match_node(record))
    }

    /// Match a batch of raw logs (read-only) using the configured parallelism.
    pub fn match_batch(&self, records: &[String]) -> Vec<MatchResult> {
        let (model, workers) = (&self.model, self.config.parallelism);
        let batch = match_ids_batch(model, &self.compiled, &self.preprocessor, records, workers);
        let decided = batch.ids.into_iter();
        decided
            .map(|(node, _)| MatchResult::of(model, node))
            .collect()
    }

    /// The template text of a match (`*` at each wildcard), `None` when nothing matched.
    /// Matching renders no text; this is where a caller that shows one pays for it.
    pub fn template(&self, result: &MatchResult) -> Option<String> {
        result.node.map(|id| self.model.nodes[id.0].template_text())
    }

    /// Train on `records` and return, for every record, an opaque group id at the given
    /// saturation threshold. This is the entry point used by the grouping-accuracy
    /// experiments: records sharing a group id are considered to have the same template.
    ///
    /// A record takes the node the text match gives it, or its clustering assignment
    /// when the match misses; "w/ naive match" takes the clustering assignment first. A
    /// record outside the training sample goes through [`match_log`](Self::match_log):
    /// the first one of its text that no template matches becomes a temporary.
    ///
    /// A record of the training batch is masked once: the batch's unique logs are
    /// matched from the tokens preprocessing kept, and each decision is copied to every
    /// record that collapsed into the log.
    pub fn parse_with_threshold(&mut self, records: &[String], threshold: f64) -> Vec<usize> {
        let (outcome, batch, sample) =
            train_keeping_batch(records, &self.preprocessor, &self.config);
        self.install(outcome.model, outcome.training_assignment);
        let (model, compiled) = (&self.model, &self.compiled);
        let unique_logs = batch.unique_logs.iter();
        let by_unique: Vec<Option<NodeId>> = unique_logs
            .map(|unique| match_compiled(model, compiled, unique.tokens()))
            .collect();
        let by_record: Vec<Option<NodeId>> = batch
            .record_to_unique
            .iter()
            .map(|&u| by_unique[u])
            .collect();
        // A record the sample left out has neither: `match_or_insert` matches its text.
        let text = match &sample {
            None => by_record,
            Some(indices) => spread_sample(indices, &by_record, records.len()),
        };
        let naive = !self.config.ablation.text_based_matching;
        let decided = text.into_iter().zip(&self.last_training_assignment);
        let nodes: Vec<Option<NodeId>> = decided
            .map(|(text, &clustered)| {
                if naive {
                    clustered.or(text)
                } else {
                    text.or(clustered)
                }
            })
            .collect();
        nodes
            .into_iter()
            .zip(records)
            .map(|(node, record)| {
                let node = node.unwrap_or_else(|| self.match_or_insert(record));
                resolve_with_threshold(&self.model, node, threshold).0
            })
            .collect()
    }

    /// Resolve a matched node to the coarsest template meeting `threshold` and render it
    /// with consecutive wildcards merged (what the production UI shows).
    pub fn template_at_threshold(&self, node: NodeId, threshold: f64) -> String {
        let resolved = resolve_with_threshold(&self.model, node, threshold);
        presentation_template(&self.model, resolved)
    }

    /// All template texts whose saturation is at least `threshold`, most precise first.
    pub fn templates_at_threshold(&self, threshold: f64) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for &id in self.model.match_order() {
            let node = &self.model.nodes[id.0];
            if node.saturation + 1e-12 >= threshold {
                let text = presentation_template(&self.model, id);
                if seen.insert(text.clone()) {
                    out.push(text);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::train_from_batch;

    fn wakelock_records() -> Vec<String> {
        let mut records = Vec::new();
        let tags = ["View Lock", "*launch*", "WindowManager", "RILJ_ACK_WL"];
        let names = ["systemui", "android", "phone", "audioserver"];
        for i in 0..80 {
            let action = if i % 2 == 0 { "release" } else { "acquire" };
            records.push(format!(
                "{}:lock={}, flg=0x{:x}, tag=\"{}\", name={}, ws={}",
                action,
                i * 13 % 2400,
                i % 2,
                tags[i % tags.len()],
                names[i % names.len()],
                if i % 3 == 0 { "null" } else { "WS{10113}" },
            ));
        }
        records
    }

    fn ssh_parser() -> ByteBrainParser {
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
        let mut parser = ByteBrainParser::default_parser();
        parser.train(&records);
        parser
    }

    #[test]
    fn known_patterns_match_trained_templates() {
        let parser = ssh_parser();
        let result =
            parser.match_log_readonly("Accepted password for user99 from 10.0.0.77 port 22");
        assert!(result.is_matched());
        let template = parser.template(&result).unwrap();
        assert!(template.contains("Accepted password for"));
        assert!(result.saturation > 0.5);
    }

    #[test]
    fn unknown_pattern_is_unmatched() {
        let parser = ssh_parser();
        let result = parser.match_log_readonly("kernel panic: attempted to kill init");
        assert!(!result.is_matched());
        assert_eq!(parser.template(&result), None);
        assert_eq!(result.saturation, 0.0);
    }

    #[test]
    fn most_precise_template_wins() {
        let parser = ssh_parser();
        let result = parser.match_log_readonly("Failed password for user1 from 10.0.0.3 port 22");
        let node = parser.model().node(result.node.unwrap()).unwrap();
        // The matched node must distinguish Accepted from Failed (i.e. not be a coarse
        // ancestor with a wildcard at the first position).
        assert!(node.template_text().starts_with("Failed"));
    }

    #[test]
    fn batch_matching_preserves_order_and_agrees_with_single() {
        let mut parser = ssh_parser();
        parser.config.parallelism = 3;
        let records: Vec<String> = vec![
            "Connection closed by 10.0.0.3".into(),
            "Accepted password for userX from 10.0.0.1 port 22".into(),
            "totally novel log statement".into(),
        ];
        let batch = parser.match_batch(&records);
        assert_eq!(batch.len(), 3);
        for (record, result) in records.iter().zip(&batch) {
            assert_eq!(&parser.match_log_readonly(record), result);
        }
        assert_eq!(batch[2].node, None);
    }

    #[test]
    fn untrained_parser_matches_nothing() {
        let parser = ByteBrainParser::default_parser();
        assert!(!parser.match_log_readonly("anything at all").is_matched());
        assert_eq!(
            parser.match_batch(&["anything at all".to_string()])[0].node,
            None
        );
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
        let mut parser = ByteBrainParser::default_parser();
        parser.train(&records);
        let matched = parser.match_batch(&records);
        let assigned = parser.last_training_assignment.iter();
        let agree = matched.iter().zip(assigned).filter(|(m, a)| m.node == **a);
        let ratio = agree.count() as f64 / records.len() as f64;
        assert!(
            ratio > 0.8,
            "online matching diverged from training assignment: {ratio}"
        );
    }

    /// Every stored training-assignment id names the node of `parser.model()` whose
    /// template covers its record — after `train`, and (the ids of a batch clustered on
    /// its own would name unrelated nodes of the merged model) after `train_incremental`.
    #[test]
    fn training_assignment_resolves_against_the_current_model() {
        let covers_its_record = |parser: &ByteBrainParser, batch: &[String]| {
            let assigned = parser.last_training_assignment.iter();
            batch.iter().zip(assigned).all(|(record, id)| {
                let tokens = parser.preprocessor().tokens_of(record);
                let node = id.and_then(|id| parser.model().node(id));
                node.is_some_and(|n| !n.retired && n.matches(tokens.iter().map(String::as_str)))
            })
        };
        let records = wakelock_records();
        let mut parser = ByteBrainParser::default_parser();
        parser.train(&records);
        assert_eq!(parser.last_training_assignment.len(), records.len());
        assert!(covers_its_record(&parser, &records));
        let gc_records: Vec<String> = (0..30)
            .map(|i| format!("GC pause of {}ms in generation {}", i * 3 + 1, i % 3))
            .collect();
        parser.train_incremental(&gc_records);
        assert!(covers_its_record(&parser, &gc_records));
        assert!(parser.last_training_assignment.is_empty());
        // The first call of an untrained parser is a plain `train`.
        let mut fresh = ByteBrainParser::default_parser();
        fresh.train_incremental(&gc_records);
        assert_eq!(fresh.last_training_assignment.len(), gc_records.len());
        assert!(covers_its_record(&fresh, &gc_records));
    }

    #[test]
    fn end_to_end_fig1_scenario() {
        let records = wakelock_records();
        let mut parser = ByteBrainParser::default_parser();
        parser.train(&records);
        let release = parser.match_log_readonly(
            "release:lock=62, flg=0x0, tag=\"WindowManager\", name=android, ws=WS{1013}",
        );
        let acquire = parser.match_log_readonly(
            "acquirelock=23, flg=0x1, tag=\"View Lock\", name=systemui, ws=null",
        );
        assert!(release.is_matched());
        // The acquire record in Fig. 1 is missing the colon, so it has a different token
        // layout; it may or may not match, but it must not match the release template.
        if let (Some(r), Some(a)) = (release.node, acquire.node) {
            assert_ne!(r, a);
        }
        let template = parser.template(&release).unwrap();
        assert!(template.contains("lock"));
        // The matched template must not claim the opposite action.
        assert!(!template.starts_with("acquire"));
    }

    #[test]
    fn unmatched_log_becomes_temporary_template_and_then_matches() {
        let mut parser = ByteBrainParser::default_parser();
        parser.train(&wakelock_records());
        let before = parser.model().temporary_count();
        let first = parser.match_log("segfault at deadbeef ip 00007f pid 4242");
        assert!(first.is_matched());
        assert_eq!(parser.model().temporary_count(), before + 1);
        // An identical log now matches the temporary template without creating another.
        let second = parser.match_log("segfault at deadbeef ip 00007f pid 4242");
        assert_eq!(second.node, first.node);
        assert_eq!(parser.model().temporary_count(), before + 1);
    }

    #[test]
    fn threshold_controls_template_granularity() {
        let records = wakelock_records();
        let mut parser = ByteBrainParser::default_parser();
        let coarse_groups = parser.parse_with_threshold(&records, 0.05);
        let fine_groups = parser.parse_with_threshold(&records, 0.95);
        let distinct = |v: &[usize]| v.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(
            distinct(&coarse_groups) <= distinct(&fine_groups),
            "a lower threshold must never produce more groups"
        );
    }

    #[test]
    fn templates_at_threshold_are_deduplicated_and_sorted_by_precision() {
        let mut parser = ByteBrainParser::default_parser();
        parser.train(&wakelock_records());
        let templates = parser.templates_at_threshold(0.0);
        let mut unique = templates.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), templates.len());
        assert!(!templates.is_empty());
    }

    #[test]
    fn incremental_training_extends_coverage() {
        let mut parser = ByteBrainParser::default_parser();
        parser.train(&wakelock_records());
        assert!(!parser
            .match_log_readonly("GC pause of 35ms in generation 2")
            .is_matched());
        let gc_records: Vec<String> = (0..30)
            .map(|i| format!("GC pause of {}ms in generation {}", i * 3 + 1, i % 3))
            .collect();
        parser.train_incremental(&gc_records);
        assert!(parser
            .match_log_readonly("GC pause of 7ms in generation 1")
            .is_matched());
        // Original coverage is retained.
        assert!(parser
            .match_log_readonly(
                "release:lock=100, flg=0x0, tag=\"View Lock\", name=systemui, ws=null"
            )
            .is_matched());
    }

    /// A batch over `max_training_records` is clustered on a sample. Every record still
    /// gets a group id under both matching settings, and identical records share one,
    /// whether or not the sample holds them.
    #[test]
    fn sampled_training_groups_every_record() {
        let mut records: Vec<String> = (0..1000)
            .map(|i| match i % 3 {
                0 => format!("job {i} started on node{}", i % 7),
                1 => format!("job {i} finished in {} ms", i % 50),
                _ => format!("disk sd{} is {}% full", i % 4, i % 100),
            })
            .collect();
        for i in [500, 501, 700] {
            records[i] = "kernel panic at cpu 3 after watchdog timeout".to_string();
        }
        for text_based_matching in [true, false] {
            let ablation = crate::config::AblationConfig {
                text_based_matching,
                ..crate::config::AblationConfig::full()
            };
            let config = TrainConfig {
                max_training_records: 100,
                ..TrainConfig::default().with_ablation(ablation)
            };
            let mut parser = ByteBrainParser::new(config);
            let groups = parser.parse_with_threshold(&records, 0.6);
            assert_eq!(groups.len(), records.len(), "{text_based_matching}");
            assert_eq!(groups[500], groups[501], "{text_based_matching}");
            assert_eq!(groups[500], groups[700], "{text_based_matching}");
            let sampled = parser.last_training_assignment.iter().flatten().count();
            assert_eq!(sampled, 100, "{text_based_matching}");
            // The sample holds none of the three copies, and no trained template matches
            // them: the first became a temporary, which the other two matched.
            let temporaries = parser.model.nodes.iter().filter(|n| n.temporary).count();
            assert_eq!(temporaries, 1, "{text_based_matching}");
        }
    }

    /// A parser trains with the preprocessor it matches with, user masks included: its
    /// model is the one `train_from_batch` builds from a preprocessor made afresh from
    /// the same configuration, and a token the user's rule masks is `<*>` in every
    /// template. Without the rule, the block ids stay constants of some templates.
    #[test]
    fn parser_trains_with_its_own_masks() {
        let records: Vec<String> = (0..90)
            .map(|i| {
                let block = [7, -7, 12][i % 3];
                format!("block blk_{block} replicated to node{}", i % 4)
            })
            .collect();
        let mut config = TrainConfig::default();
        let block = ("block".to_string(), r"blk_-?\d+".to_string());
        config.preprocess.extra_masks.push(block);
        let mut parser = ByteBrainParser::new(config.clone());
        parser.train(&records);
        let fresh = Preprocessor::new(config.preprocess.clone());
        let reference = train_from_batch(&fresh.preprocess(&records), &config).model;
        assert_eq!(format!("{:?}", parser.model()), format!("{reference:?}"));
        let texts = |model: &ParserModel| -> Vec<String> {
            model.nodes.iter().map(|n| n.template_text()).collect()
        };
        for text in texts(parser.model()) {
            assert!(text.starts_with("block <*> replicated to"), "{text:?}");
        }
        let mut unmasked = ByteBrainParser::default_parser();
        unmasked.train(&records);
        assert!(texts(unmasked.model()).iter().any(|t| t.contains("blk_")));
    }

    #[test]
    fn naive_match_variant_uses_training_assignment() {
        let records = wakelock_records();
        let config = TrainConfig::default().with_ablation(crate::config::AblationConfig {
            text_based_matching: false,
            ..crate::config::AblationConfig::full()
        });
        let mut parser = ByteBrainParser::new(config);
        let groups = parser.parse_with_threshold(&records, 0.9);
        assert_eq!(groups.len(), records.len());
    }
}
