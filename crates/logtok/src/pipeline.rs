//! The end-to-end preprocessing pipeline (§4.1): masking → tokenization → deduplication →
//! hash encoding. Both the offline trainer and the online matcher run the same pipeline so
//! that templates and incoming logs live in the same token space.

use crate::dedup::{DedupStats, Deduplicator, UniqueLog};
use crate::hashenc::EncodedLog;
use crate::masking::{KeptRun, MaskRule, Masker};
use crate::tokenizer::{Tokenizer, TokenizerConfig};
use serde::{Deserialize, Serialize};

/// Configuration of the preprocessing pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PreprocessConfig {
    /// Tokenizer configuration (delimiters, truncation).
    pub tokenizer: TokenizerConfig,
    /// Whether the default common-variable masking rules are applied.
    pub use_default_masks: bool,
    /// Additional user-supplied masking rules: (name, pattern).
    pub extra_masks: Vec<(String, String)>,
    /// Whether duplicate token sequences are collapsed (the paper's §4.1.3 optimisation;
    /// disabled by the "w/o deduplication & related techs" ablation variant).
    pub deduplicate: bool,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            tokenizer: TokenizerConfig::default(),
            use_default_masks: true,
            extra_masks: Vec::new(),
            deduplicate: true,
        }
    }
}

/// Output of preprocessing a batch of raw records.
#[derive(Debug)]
pub struct PreprocessedBatch {
    /// Unique (deduplicated) logs. With deduplication disabled there is one entry per
    /// input record.
    pub unique_logs: Vec<UniqueLog>,
    /// For every input record, the index of its unique log in `unique_logs`.
    pub record_to_unique: Vec<usize>,
    /// Deduplication statistics for the batch.
    pub stats: DedupStats,
}

/// Reusable per-thread scratch buffers for the zero-copy preprocessing fast path.
///
/// [`Preprocessor::token_view`] masks and tokenizes a record into these buffers instead
/// of allocating a fresh `Vec<String>` per record (what [`Preprocessor::tokens_of`]
/// does). A pool worker of the streaming ingestion engine keeps one `TokenScratch`
/// alive for its whole lifetime, so after the first few records the hot path performs
/// no heap allocation.
#[derive(Debug, Default)]
pub struct TokenScratch {
    /// The masked record text (reused capacity).
    masked: String,
    /// Byte spans of the tokens within `masked`.
    spans: Vec<(usize, usize)>,
    /// The runs of `masked` that masking left as they were in the record.
    kept: Vec<KeptRun>,
}

impl TokenScratch {
    /// Fresh scratch buffers (empty until the first [`Preprocessor::token_view`] call).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A borrowed view of one preprocessed record: the masked text plus token spans, both
/// living inside a [`TokenScratch`]. Provides positional access without owning any
/// token storage, and maps every token masking left intact back to the record.
#[derive(Debug, Clone, Copy)]
pub struct TokenView<'s> {
    text: &'s str,
    spans: &'s [(usize, usize)],
    kept: &'s [KeptRun],
}

impl<'s> TokenView<'s> {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the record produced no tokens.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `i`-th token.
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    pub fn get(&self, i: usize) -> &'s str {
        let (start, end) = self.spans[i];
        &self.text[start..end]
    }

    /// Iterator over the tokens, in record order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'s str> + Clone + '_ {
        self.spans.iter().map(move |&(s, e)| &self.text[s..e])
    }

    /// Byte span `[start, end)` of the `i`-th token in the *raw* record the view was
    /// made from, when masking left the whole token as it was there; `None` for a token
    /// masking rewrote (in whole or in part, such as `user<*>`).
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    pub fn raw_span(&self, i: usize) -> Option<(usize, usize)> {
        let (start, end) = self.spans[i];
        let at = self.kept.partition_point(|run| run.masked <= start);
        let run = self.kept[..at].last()?;
        (end <= run.masked + run.len).then(|| {
            let raw = run.raw + start - run.masked;
            (raw, raw + end - start)
        })
    }

    /// Materialise the tokens as owned strings (used when a cold path — e.g. inserting
    /// a temporary template for an unmatched record — needs to keep them).
    pub fn to_owned_tokens(&self) -> Vec<String> {
        self.iter().map(str::to_string).collect()
    }
}

/// Reusable preprocessor (the configuration is parsed/compiled once).
#[derive(Debug, Clone)]
pub struct Preprocessor {
    tokenizer: Tokenizer,
    masker: Masker,
    deduplicate: bool,
}

impl Preprocessor {
    /// Build a preprocessor from `config`.
    ///
    /// # Panics
    /// Panics if one of the `extra_masks` patterns fails to compile; user-facing layers
    /// (the service crate) validate patterns before constructing the pipeline.
    pub fn new(config: PreprocessConfig) -> Self {
        let base = if config.use_default_masks {
            Masker::default_rules()
        } else {
            Masker::empty()
        };
        let extra = config.extra_masks.iter().map(|(name, pattern)| {
            MaskRule::new(name, pattern)
                .unwrap_or_else(|e| panic!("mask rule {name:?} failed to compile: {e}"))
        });
        let masker = base.with_rules(extra);
        Preprocessor {
            tokenizer: Tokenizer::new(config.tokenizer),
            masker,
            deduplicate: config.deduplicate,
        }
    }

    /// Preprocessor with all defaults.
    pub fn default_pipeline() -> Self {
        Preprocessor::new(PreprocessConfig::default())
    }

    /// Mask and tokenize a single record, returning owned token strings.
    pub fn tokens_of(&self, record: &str) -> Vec<String> {
        let masked = self.masker.mask(record);
        self.tokenizer
            .tokenize(&masked)
            .into_iter()
            .map(|t| t.to_string())
            .collect()
    }

    /// Zero-copy fast path: mask and tokenize `record` into `scratch`, returning a
    /// borrowed [`TokenView`] over the result. Unlike [`Preprocessor::tokens_of`], this
    /// performs no heap allocation once the scratch buffers have grown to a typical
    /// record size, which is what keeps the online matching path of the streaming
    /// ingestion engine cheap. The view maps the tokens masking left intact back to
    /// `record` ([`TokenView::raw_span`]), which is what a match stores its slots as.
    pub fn token_view<'s>(&self, record: &str, scratch: &'s mut TokenScratch) -> TokenView<'s> {
        self.masker
            .mask_kept(record, &mut scratch.masked, Some(&mut scratch.kept));
        self.tokenizer
            .tokenize_spans(&scratch.masked, &mut scratch.spans);
        TokenView {
            text: &scratch.masked,
            spans: &scratch.spans,
            kept: &scratch.kept,
        }
    }

    /// The masked tokens of `record`, in `scratch` — [`Preprocessor::token_view`]
    /// without the map back to the record, which training has no use for.
    fn masked_tokens<'s>(
        &self,
        record: &str,
        scratch: &'s mut TokenScratch,
    ) -> impl ExactSizeIterator<Item = &'s str> + Clone {
        self.masker.mask_kept(record, &mut scratch.masked, None);
        self.tokenizer
            .tokenize_spans(&scratch.masked, &mut scratch.spans);
        let (text, spans) = (&scratch.masked, &scratch.spans);
        spans.iter().map(move |&(s, e)| &text[s..e])
    }

    /// Run the full pipeline over a batch of raw records.
    ///
    /// Every record is masked and tokenized into one reused [`TokenScratch`]; token
    /// texts are copied out only for the first record of each unique sequence, into
    /// one string per unique log.
    pub fn preprocess<S: AsRef<str>>(&self, records: &[S]) -> PreprocessedBatch {
        let mut scratch = TokenScratch::new();
        let mut record_to_unique = Vec::with_capacity(records.len());
        if self.deduplicate {
            let mut dedup = Deduplicator::new();
            for (idx, record) in records.iter().enumerate() {
                let tokens = self.masked_tokens(record.as_ref(), &mut scratch);
                record_to_unique.push(dedup.push(idx, tokens));
            }
            let stats = dedup.stats();
            PreprocessedBatch {
                unique_logs: dedup.into_unique(),
                record_to_unique,
                stats,
            }
        } else {
            // One unique log per record: downstream code paths are identical, only the
            // collapse step is skipped (used by the ablation study, Fig. 9).
            let mut unique_logs = Vec::with_capacity(records.len());
            for (idx, record) in records.iter().enumerate() {
                let tokens = self.masked_tokens(record.as_ref(), &mut scratch);
                unique_logs.push(UniqueLog {
                    encoded: EncodedLog::from_tokens(tokens),
                    record_indices: vec![idx],
                });
                record_to_unique.push(idx);
            }
            let stats = DedupStats {
                total_records: records.len() as u64,
                unique_records: records.len() as u64,
            };
            PreprocessedBatch {
                unique_logs,
                record_to_unique,
                stats,
            }
        }
    }

    /// The configured masker (the `lpbench` ledger times masking alone through it, as
    /// `logtok.mask_ns_per_rec`).
    pub fn masker(&self) -> &Masker {
        &self.masker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<String> {
        vec![
            "2025-04-12 08:00:01 Accepted password for alice from 10.0.0.5 port 5022".into(),
            "2025-04-12 08:00:02 Accepted password for bob from 10.0.0.9 port 5022".into(),
            "2025-04-12 08:00:03 Accepted password for carol from 10.0.0.7 port 5022".into(),
            "2025-04-12 08:00:04 Connection closed by 10.0.0.5".into(),
        ]
    }

    #[test]
    fn masking_plus_dedup_collapses_similar_records() {
        let pre = Preprocessor::default_pipeline();
        let records = sample_records();
        let batch = pre.preprocess(&records);
        // After masking timestamps/IPs the first three records still differ by user name,
        // so they stay distinct; dedup only collapses exact duplicates.
        assert_eq!(batch.stats.total_records, 4);
        assert_eq!(batch.unique_logs.len(), 4);
        assert_eq!(batch.record_to_unique.len(), 4);
    }

    #[test]
    fn exact_duplicates_after_masking_collapse() {
        let mut config = PreprocessConfig::default();
        config
            .extra_masks
            .push(("user".into(), r"for \w+ from".into()));
        let pre = Preprocessor::new(config);
        let records = sample_records();
        let batch = pre.preprocess(&records);
        // With user names also masked, the first three records become identical.
        assert_eq!(batch.unique_logs.len(), 2);
        assert_eq!(batch.unique_logs[0].encoded.count, 3);
        assert_eq!(batch.record_to_unique[0], batch.record_to_unique[2]);
    }

    #[test]
    fn dedup_disabled_keeps_every_record() {
        let config = PreprocessConfig {
            deduplicate: false,
            ..PreprocessConfig::default()
        };
        let pre = Preprocessor::new(config);
        let records = vec!["same log", "same log", "same log"];
        let batch = pre.preprocess(&records);
        assert_eq!(batch.unique_logs.len(), 3);
        assert_eq!(batch.record_to_unique, vec![0, 1, 2]);
    }

    #[test]
    fn raw_spans_map_intact_tokens_back_to_the_record() {
        let mut config = PreprocessConfig::default();
        config.extra_masks.push(("pid".into(), r"pid\d+".into()));
        let pre = Preprocessor::new(config);
        let mut scratch = TokenScratch::new();
        for record in [
            "2025-04-12 08:00:01 user alice from 10.0.0.5 took 35ms ok",
            "no rule fires on this line at all",
            "at10.0.0.5 pid42 pid7x 10.1.1.1:80 用户 é 12:00:01",
            "",
        ] {
            let view = pre.token_view(record, &mut scratch);
            for i in 0..view.len() {
                let token = view.get(i);
                match view.raw_span(i) {
                    Some((start, end)) => assert_eq!(&record[start..end], token),
                    None => assert!(token.contains("<*>"), "{token:?} of {record:?}"),
                }
            }
        }
        // Every token of a line no rule touched maps back; a rewritten one does not.
        let view = pre.token_view("no rule fires here", &mut scratch);
        assert!((0..view.len()).all(|i| view.raw_span(i).is_some()));
        let view = pre.token_view("from at10.0.0.5 to", &mut scratch);
        assert_eq!(view.get(1), "at<*>");
        assert_eq!((view.raw_span(0), view.raw_span(1)), (Some((0, 4)), None));
        assert_eq!(view.raw_span(2), Some((16, 18)));
    }

    #[test]
    fn tokens_of_applies_masking() {
        let pre = Preprocessor::default_pipeline();
        let tokens = pre.tokens_of("error at 2025-01-01 10:11:12 on 192.168.1.1");
        assert!(tokens.contains(&"<*>".to_string()));
        assert!(!tokens.iter().any(|t| t.contains("192.168")));
    }

    #[test]
    fn no_default_masks_keeps_raw_values() {
        let config = PreprocessConfig {
            use_default_masks: false,
            ..PreprocessConfig::default()
        };
        let pre = Preprocessor::new(config);
        let tokens = pre.tokens_of("ping 10.1.2.3 ok");
        assert!(tokens.contains(&"10.1.2.3".to_string()));
    }

    #[test]
    fn record_to_unique_is_consistent() {
        let pre = Preprocessor::default_pipeline();
        let records = vec!["a b c", "d e f", "a b c", "a b c", "d e f"];
        let batch = pre.preprocess(&records);
        for (i, &slot) in batch.record_to_unique.iter().enumerate() {
            assert!(batch.unique_logs[slot].record_indices.contains(&i));
        }
        let total: u64 = batch.unique_logs.iter().map(|u| u.encoded.count).sum();
        assert_eq!(total, records.len() as u64);
    }
}
