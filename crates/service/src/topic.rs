//! The log topic: the unit of ingestion, parsing, storage and analysis (§3).
//!
//! Records ingested into a topic are matched online against the topic's current model (so
//! their template id is available to the indexing pipeline before the record is written to
//! the append-only store) and retained with their most-precise template id for querying;
//! the record store is also what training reads — there is no second copy of the text.
//! Training is triggered by volume or time and the refreshed model is merged with the
//! previous one.
//!
//! After the first training every model change lands the same way (`land_delta`): a
//! window of stored records is clustered and folded into the live model as a
//! copy-on-write delta ([`bytebrain::incremental`]) — node ids stay stable, the ladder is
//! rebuilt and the automaton compiled anew, stored records are re-matched and a durable
//! topic logs one event carrying the delta. The maintenance policies
//! decide only *when* that runs and *what* it is handed.
//! [`MaintenancePolicy::FullRetrain`] (the default) fires on the volume/time trigger,
//! trains on the training window (the records stored since the last training run,
//! capped at `training_buffer`) and re-matches every stored record.
//! [`MaintenancePolicy::Incremental`] also watches drift (unmatched-rate surges,
//! saturation decay), trains on the records that matched nothing since the last run,
//! re-matches only records left unassigned or on a retired temporary, and checks every
//! `check_interval` records: the ingest driver matches and applies a batch in chunks of
//! that length on either route, so each chunk is matched against the model the
//! previous chunk's maintenance left.
//!
//! Storing a record (`apply_record`) and landing a delta (`land`, `finish_run`,
//! `apply_moves`) each have one definition, which ingest and [`LogTopic::open`]'s
//! replay both run: a reopened topic is the live one by construction, and replay adds
//! only what is on disk in place of what the live topic computed (the flag and node of
//! each record, the delta, run time and moves of each landing).

use crate::ingest::{drive, IngestConfig, IngestStats, MatchContext, Route};
use crate::query::{QueryCache, QueryIndex, RecordAccess};
use crate::records::RecordStore;
use crate::storage::{
    DeltaEvent, RecordMove, RecoveredTopic, RetentionOutcome, StorageConfig, TopicMeta,
    TopicStorage,
};
use crate::trigger::{TrainingTrigger, TriggerDecision};
use bytebrain::incremental::{apply_delta, train_delta, DriftConfig, DriftDetector, ModelDelta};
use bytebrain::train::train;
use bytebrain::{
    BatchMatch, CompiledMatcher, NodeId, ParserModel, QueryPlan, SaturationLadder, SlotBuffer,
    SlotRange, TemplateToken, TrainConfig,
};
use logtok::{Preprocessor, TokenScratch};
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a topic keeps its model current as the workload evolves.
#[derive(Debug, Clone, Default)]
pub enum MaintenancePolicy {
    /// Volume/time triggers retrain over the training window, merge the result into
    /// the previous model and re-match every stored record (the paper's baseline
    /// behaviour).
    #[default]
    FullRetrain,
    /// Drift detection and volume/time triggers fold the unmatched records into the
    /// current model — only records the fold orphaned are re-matched.
    Incremental {
        /// Sliding-window drift detection bounds.
        drift: DriftConfig,
        /// Chunk length of every ingest, on both routes: each chunk of this many
        /// records is matched, applied and checked for drift before the next one is
        /// matched (clamped to at least 1).
        check_interval: usize,
    },
}

/// Configuration of a log topic.
#[derive(Debug, Clone)]
pub struct TopicConfig {
    /// Topic name (used in reports and as the standalone durable topic's key).
    pub name: String,
    /// Parser training configuration.
    pub train: TrainConfig,
    /// Train after this many newly ingested records.
    pub volume_threshold: u64,
    /// Train after this much time since the last training run.
    pub interval: Duration,
    /// Maximum number of records one training cycle reads: the first this many stored
    /// since the last cycle (the rest stay in the topic store, outside the window).
    pub training_buffer: usize,
    /// Full-retrain or incremental model maintenance.
    pub maintenance: MaintenancePolicy,
}

impl TopicConfig {
    /// A topic configuration with production-flavoured defaults.
    pub fn new(name: &str) -> Self {
        TopicConfig {
            name: name.to_string(),
            train: TrainConfig::default(),
            volume_threshold: 50_000,
            interval: Duration::from_secs(600),
            training_buffer: 500_000,
            maintenance: MaintenancePolicy::FullRetrain,
        }
    }

    /// Override the volume threshold.
    pub fn with_volume_threshold(mut self, threshold: u64) -> Self {
        self.volume_threshold = threshold;
        self
    }

    /// Switch the topic to incremental maintenance with the given drift bounds and a
    /// default check interval of 2,048 records (the chunk length of every ingest).
    pub fn with_incremental_maintenance(mut self, drift: DriftConfig) -> Self {
        self.maintenance = MaintenancePolicy::Incremental {
            drift,
            check_interval: 2_048,
        };
        self
    }

    /// Override the full maintenance policy.
    pub fn with_maintenance(mut self, maintenance: MaintenancePolicy) -> Self {
        self.maintenance = maintenance;
        self
    }
}

/// Outcome of one `ingest` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Records matched to an existing template.
    pub matched: usize,
    /// Records that matched no template (inserted as temporary templates).
    pub unmatched: usize,
    /// Whether this ingest call triggered a full training run.
    pub trained: bool,
    /// Number of incremental maintenance runs this call triggered.
    pub maintained: usize,
}

/// Aggregate statistics of a topic (reported in the Table 5 reproduction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopicStats {
    /// Total records ingested.
    pub total_records: u64,
    /// Total bytes ingested.
    pub total_bytes: u64,
    /// Number of templates in the current model.
    pub templates: usize,
    /// Approximate model size in bytes.
    pub model_size_bytes: u64,
    /// Number of completed training runs.
    pub training_runs: u64,
    /// Wall-clock time of the most recent training run, in seconds.
    pub last_training_seconds: f64,
    /// Number of completed incremental maintenance runs.
    pub maintenance_runs: u64,
    /// Wall-clock time of the most recent incremental maintenance run, in seconds.
    pub last_maintenance_seconds: f64,
}

/// Outcome of one [`LogTopic::ingest_stream`] call: the usual ingest outcome plus the
/// streaming engine's counters and back-pressure statistics.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Matched/unmatched/trained counters, identical in meaning to [`LogTopic::ingest`].
    pub outcome: IngestOutcome,
    /// Counters and back-pressure stats of the streaming run (all zero when the
    /// cold-start fallback took the batch path).
    pub stats: IngestStats,
}

/// A log topic with online matching and periodic training.
#[derive(Debug)]
pub struct LogTopic {
    config: TopicConfig,
    preprocessor: Arc<Preprocessor>,
    model: Arc<ParserModel>,
    /// Compiled automaton snapshot paired with `model`: compiled from the whole model
    /// when it is trained, lands a delta or is recovered (`recompile`), and at no other
    /// time. Temporaries inserted since are the tail the match kernel scans.
    compiled: Arc<CompiledMatcher>,
    /// Precomputed per-node ancestor ladders for indexed query resolution: built whole
    /// when the model is trained, lands a delta or is recovered, extended per temporary
    /// insertion, never patched.
    ladder: SaturationLadder,
    /// Per-node postings (record index lists) maintained at ingest time so queries
    /// never scan the record store.
    index: QueryIndex,
    /// Bumped on every model change (training, delta, temporary insertion); part of
    /// the query cache key.
    model_version: u64,
    /// LRU cache of query results, cleared when maintenance replaces the model.
    query_cache: QueryCache,
    trigger: TrainingTrigger,
    /// Index into `records` of the first record stored since the last training run.
    window_start: usize,
    /// Indices into `records` of the records that matched no template since the last
    /// maintenance landing, pending absorption (at most `training_buffer` of them).
    unmatched: Vec<usize>,
    drift: Option<DriftDetector>,
    records: RecordStore,
    total_bytes: u64,
    training_runs: u64,
    last_training_seconds: f64,
    maintenance_runs: u64,
    last_maintenance_seconds: f64,
    /// Durable storage tier (WAL + segments + model log); `None` for in-memory topics.
    storage: Option<TopicStorage>,
}

impl LogTopic {
    /// Create an empty topic.
    pub fn new(config: TopicConfig) -> Self {
        let preprocessor = Arc::new(Preprocessor::new(config.train.preprocess.clone()));
        let trigger = TrainingTrigger::new(config.volume_threshold, config.interval);
        let drift = match &config.maintenance {
            MaintenancePolicy::FullRetrain => None,
            MaintenancePolicy::Incremental { drift, .. } => Some(DriftDetector::new(drift.clone())),
        };
        let model = ParserModel::new();
        LogTopic {
            config,
            preprocessor,
            compiled: Arc::new(CompiledMatcher::compile(&model)),
            model: Arc::new(model),
            ladder: SaturationLadder::default(),
            index: QueryIndex::default(),
            model_version: 0,
            query_cache: QueryCache::default(),
            trigger,
            window_start: 0,
            unmatched: Vec::new(),
            drift,
            records: RecordStore::new(),
            total_bytes: 0,
            training_runs: 0,
            last_training_seconds: 0.0,
            maintenance_runs: 0,
            last_maintenance_seconds: 0.0,
            storage: None,
        }
    }

    /// Create an empty **durable** topic backed by the storage tier in `dir`
    /// (standalone flavour: the persisted meta carries no tenant key).
    pub fn durable(config: TopicConfig, dir: &Path, storage: StorageConfig) -> io::Result<Self> {
        let topic_key = config.name.clone();
        Self::durable_keyed("", &topic_key, config, dir, storage)
    }

    /// Create an empty durable topic whose persisted meta records the tenant/topic
    /// keys (used by [`ServiceManager`](crate::manager::ServiceManager) so recovery
    /// can re-key the fleet).
    pub fn durable_keyed(
        tenant: &str,
        topic: &str,
        config: TopicConfig,
        dir: &Path,
        storage: StorageConfig,
    ) -> io::Result<Self> {
        let meta = TopicMeta::from_config(tenant, topic, &config);
        let storage = TopicStorage::create(dir, storage, &meta)?;
        let mut created = LogTopic::new(config);
        created.storage = Some(storage);
        Ok(created)
    }

    /// Reopen a durable topic from its storage directory, replaying WAL + segments +
    /// event log on top of the epoch's base model file.
    ///
    /// The replay is **deterministic and match-free**, and runs the live topic's own
    /// steps: every record, sealed or in the WAL tail, is stored by
    /// `LogTopic::apply_record` under the template id stored beside it — a flagged
    /// record re-executes the deterministic temporary-template insertion it performed
    /// live (no matching: the flag and the resulting node id are on disk) — and every
    /// maintenance event, retrains included, goes through the live landing's steps with
    /// the [`ModelDelta`], run time and record moves it carries. Storage is attached
    /// only once the replay is done, so nothing is logged twice. A recovered topic
    /// therefore answers every query byte-identically to one that never restarted,
    /// never retrains on open, and goes on to train on the same window — and land on
    /// the same trigger count and drift window — as the live topic would have.
    pub fn open(dir: &Path, storage_config: StorageConfig) -> io::Result<Self> {
        let (storage, mut recovered) = TopicStorage::open(dir, storage_config)?;
        let mut topic = LogTopic::new(recovered.meta.to_config());

        // Epoch base: the full model and the counters the replay builds on.
        topic.model = Arc::new(std::mem::take(&mut recovered.base));
        topic.ladder = SaturationLadder::build(&topic.model);
        let manifest = &recovered.manifest;
        let first_live = manifest.first_live_seq;
        topic.model_version = manifest.model_version_at_epoch;
        topic.total_bytes = manifest.bytes_dropped;
        topic.training_runs = manifest.training_runs;
        topic.last_training_seconds = manifest.last_training_seconds;
        topic.maintenance_runs = manifest.maintenance_runs_at_epoch;
        topic.last_maintenance_seconds = manifest.last_maintenance_seconds_at_epoch;
        // The epoch began with a training run, which reset the windows and the trigger.
        let epoch_start = manifest.epoch_start_seq;
        let mut last_reset_seq = epoch_start.max(first_live);
        topic.window_start = (last_reset_seq - first_live) as usize;

        let mut events = recovered.events.iter().peekable();
        let segments = recovered.segments.iter();
        let mut stored = segments.flat_map(|s| &s.records).chain(storage.wal_tail());
        let (mut scratch, mut slots) = (TokenScratch::new(), SlotBuffer::new());
        loop {
            let rec = stored.next();
            // An event landed before the record stored at its `at_seq`; a landing
            // after the last stored record trails them all.
            let upto = rec.map_or(u64::MAX, |rec| rec.seq);
            while let Some(event) = events.next_if(|event| event.at_seq <= upto) {
                topic.land(&event.delta);
                topic.finish_run(event.retrain, event.elapsed_seconds);
                // Records dropped by retention since the event are simply gone.
                let live = event.moves.iter().filter(|mv| mv.seq >= first_live);
                let moves: Vec<_> = live
                    .map(|mv| ((mv.seq - first_live) as usize, mv.old, mv.new))
                    .collect();
                topic.apply_moves(&moves);
                last_reset_seq = event.at_seq;
            }
            let Some(rec) = rec else { break };
            // A flagged record's tokens, read as the live match read them; every
            // other record's slots are filled in below, once every template settled.
            slots.clear();
            let (matched, range) = if rec.unmatched {
                let view = topic.preprocessor.token_view(&rec.text, &mut scratch);
                (None, slots.extract(&topic.model, None, &rec.text, &view))
            } else {
                (rec.node, SlotRange::default())
            };
            let node = topic.apply_record(&rec.text, rec.unmatched, matched, (&slots, range));
            if node != rec.node {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "replay diverged at seq {}: temporary {node:?} != stored {:?}",
                        rec.seq, rec.node
                    ),
                ));
            }
            // The epoch's training reset the drift window; what was stored since
            // fills it as it did live.
            if rec.seq >= epoch_start {
                topic.observe_drift(matched);
            }
        }

        let next_seq = storage.next_seq();
        topic.recover_slots(&recovered, storage.last_delta_seq());
        topic.recompile();
        // Trigger state: trained (if a model exists), with the volume counter
        // covering the records since the last training/maintenance reset.
        if !topic.model.is_empty() {
            topic.trigger.mark_trained(Instant::now());
        }
        topic
            .trigger
            .observe(next_seq - last_reset_seq.min(next_seq));
        topic.storage = Some(storage);
        Ok(topic)
    }

    /// The topic name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The topic's configuration (as provisioned at creation).
    pub fn config(&self) -> &TopicConfig {
        &self.config
    }

    /// The current model.
    pub fn model(&self) -> &ParserModel {
        &self.model
    }

    /// The record store: every record's raw text, matched template and variable slots
    /// — the structured form the match produced, which queries read and segments seal.
    pub fn records(&self) -> &RecordStore {
        &self.records
    }

    /// The current model version: bumped on every model change (training run,
    /// incremental delta, temporary-template insertion). Part of the query cache key,
    /// so stale cached results can never be served after a model change.
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// `(hits, misses)` of the topic's query cache since creation.
    pub fn query_cache_stats(&self) -> (u64, u64) {
        self.query_cache.stats()
    }

    /// The monotonic topic generation, which the storage manifest keeps: bumped on
    /// recovery and TTL retention (always 0 for in-memory topics). Part of the
    /// query-cache key — a record *set* change without a model change must still miss
    /// the cache.
    pub fn generation(&self) -> u64 {
        self.storage.as_ref().map_or(0, TopicStorage::generation)
    }

    /// The durable storage tier, when this topic was created via
    /// [`LogTopic::durable`] or reopened via [`LogTopic::open`].
    pub fn storage(&self) -> Option<&TopicStorage> {
        self.storage.as_ref()
    }

    /// The precomputed saturation ladder (kept in lockstep with the model).
    pub(crate) fn ladder(&self) -> &SaturationLadder {
        &self.ladder
    }

    /// The per-node postings index.
    pub(crate) fn query_index(&self) -> &QueryIndex {
        &self.index
    }

    /// The topic's query cache.
    pub(crate) fn query_cache(&self) -> &QueryCache {
        &self.query_cache
    }

    /// The topic's preprocessor (masking + tokenization): the one the ingest path
    /// matched with, and so the one the scan oracle's `variables_of` re-derives with.
    pub(crate) fn preprocessor(&self) -> &Preprocessor {
        &self.preprocessor
    }

    /// Sequence number of `records()[0]`: `first_live_seq` for durable topics
    /// (retention may have dropped a prefix), 0 for in-memory topics.
    pub fn first_record_seq(&self) -> u64 {
        self.storage
            .as_ref()
            .map(|storage| storage.first_live_seq())
            .unwrap_or(0)
    }

    /// Assemble record access for a plan's record-level predicates, push-down
    /// included: the record store plus skip ranges for segments the storage
    /// summaries proved cannot match (none for a node-only plan, which postings
    /// alone answer).
    pub(crate) fn record_access(&self, plan: &QueryPlan) -> RecordAccess<'_> {
        let first_seq = self.first_record_seq();
        RecordAccess {
            records: &self.records,
            preprocessor: &self.preprocessor,
            first_seq,
            skip: self.prune_ranges(plan, first_seq),
        }
    }

    /// Half-open record-index ranges proven non-matching by segment summaries
    /// (sorted and disjoint because segments are ordered and non-overlapping;
    /// empty for in-memory topics). A segment is skipped when a required
    /// time-window conjunct is disjoint from its sequence range (always
    /// sound), or when a required variable-equals value is provably absent
    /// from its variable column — the latter only for segments sealed at or
    /// after the latest incremental delta
    /// ([`TopicStorage::last_delta_seq`]), since deltas can re-match sealed
    /// records or patch node templates and thereby change their variables.
    /// WAL-tail and in-memory records are never pruned.
    fn prune_ranges(&self, plan: &QueryPlan, first_seq: u64) -> Vec<(usize, usize)> {
        let Some(storage) = self.storage.as_ref() else {
            return Vec::new();
        };
        let required_values = plan.required_variable_equals();
        let window = plan.required_window();
        if required_values.is_empty() && window.is_none() {
            return Vec::new();
        }
        let last_delta_seq = storage.last_delta_seq();
        let mut skip = Vec::new();
        for (meta, summary) in storage.segment_summaries() {
            debug_assert!(meta.first_seq >= first_seq);
            let start = (meta.first_seq - first_seq) as usize;
            let end = start + meta.records as usize;
            let seg_end_seq = meta.first_seq + meta.records; // half-open, like TimeWindow
            let window_prunes = window.is_some_and(|(win_start, win_end)| {
                seg_end_seq <= win_start || meta.first_seq >= win_end
            });
            let summary_fresh = meta.first_seq >= last_delta_seq;
            let value_prunes = summary_fresh
                && required_values
                    .iter()
                    .any(|value| !summary.may_contain(value));
            if window_prunes || value_prunes {
                skip.push((start, end));
            }
        }
        skip
    }

    /// The drift detector, when the topic runs incremental maintenance.
    pub fn drift_detector(&self) -> Option<&DriftDetector> {
        self.drift.as_ref()
    }

    /// The records the next training run reads: the first `training_buffer` stored
    /// since the last one — a range of the record store, which retention never drains.
    fn training_window(&self) -> Range<usize> {
        let end = self.records.len();
        self.window_start..end.min(self.window_start + self.config.training_buffer)
    }

    /// [`LogTopic::training_window`] as sequence numbers: what retention must keep.
    fn training_window_seqs(&self) -> Range<u64> {
        let (first, window) = (self.first_record_seq(), self.training_window());
        first + window.start as u64..first + window.end as u64
    }

    /// Ingest a batch of records: match them online, store them, and run a
    /// training cycle (or, under [`MaintenancePolicy::Incremental`], an incremental
    /// maintenance run) if the trigger fires or drift is detected — under
    /// `Incremental`, checked after every `check_interval` records.
    pub fn ingest<S: AsRef<str> + Sync>(&mut self, batch: &[S]) -> IngestOutcome {
        let records = batch.iter().map(|r| r.as_ref().to_owned()).collect();
        drive(self, records, Route::Batch).0.outcome
    }

    /// Phase one of an ingest (see [`drive`]): snapshot what matching reads, stamped
    /// with the model version the apply phase will check. `None` while no model exists
    /// — there is nothing to match against.
    pub(crate) fn prepare(&self) -> Option<MatchContext> {
        if self.model.is_empty() {
            return None;
        }
        Some(MatchContext {
            compiled: self.compiled_snapshot(),
            model: self.model_snapshot(),
            preprocessor: self.preprocessor_snapshot(),
            model_version: self.model_version,
            parallelism: self.config.train.parallelism,
            check_interval: match &self.config.maintenance {
                MaintenancePolicy::FullRetrain => None,
                MaintenancePolicy::Incremental { check_interval, .. } => {
                    Some((*check_interval).max(1))
                }
            },
        })
    }

    /// Storage commit point: seal full segments out of the WAL and fsync every dirty
    /// log in one batch. Called at the end of every ingest chunk. No-op for
    /// in-memory topics.
    pub(crate) fn commit_storage(&mut self) {
        let Some(storage) = &mut self.storage else {
            return;
        };
        // A sealed segment's variable column is a copy of the slot column.
        let (records, first_live) = (&self.records, storage.first_live_seq());
        storage
            .commit(|rec| records.owned_variables((rec.seq - first_live) as usize))
            .expect("storage commit");
    }

    /// TTL retention. Expired segments outside the training window (and holding no
    /// replay-relevant flagged records) are dropped oldest-first and the in-memory
    /// record prefix is drained in lockstep. A drop bumps the topic generation and
    /// clears the query cache. No-op for in-memory topics.
    pub fn run_storage_maintenance(&mut self) -> RetentionOutcome {
        let window = self.training_window_seqs();
        let Some(storage) = &mut self.storage else {
            return RetentionOutcome::default();
        };
        let outcome = storage.retention_pass(window).expect("retention pass");
        if outcome.dropped_records > 0 {
            let dropped = outcome.dropped_records as usize;
            self.records.drain_front(dropped);
            // Every record index shifted: the window start and the pending unmatched
            // records (retention drops neither) move along, the postings are rebuilt.
            self.window_start = self.window_start.saturating_sub(dropped);
            for idx in &mut self.unmatched {
                *idx -= dropped;
            }
            self.index = QueryIndex::rebuild(&self.records);
        }
        if outcome.dropped_segments > 0 {
            self.query_cache.clear();
        }
        outcome
    }

    /// Run whatever maintenance the policy calls for right now: the policy decides
    /// when a landing fires and which one — a retrain over the training window under
    /// [`MaintenancePolicy::FullRetrain`], an absorption of the unmatched records
    /// under [`MaintenancePolicy::Incremental`]. The first training is the same under
    /// both.
    pub(crate) fn maintain(&mut self, outcome: &mut IngestOutcome) {
        let decision = self.trigger.decide(Instant::now());
        let incremental = matches!(
            self.config.maintenance,
            MaintenancePolicy::Incremental { .. }
        );
        // The first model is trained whole: there is nothing to fold a delta into yet.
        if !incremental || decision == TriggerDecision::InitialTraining {
            if decision.should_train() {
                self.run_training();
                outcome.trained = true;
            }
            return;
        }
        let drifting = self
            .drift
            .as_ref()
            .map(|d| d.assess().is_drifting())
            .unwrap_or(false);
        if (decision.should_train() || drifting) && self.run_incremental_maintenance() {
            outcome.maintained += 1;
        }
    }

    /// Store one record — the one definition, live or replayed: a record `unmatched`
    /// at ingest joins the pending unmatched list and, once a model exists, becomes a
    /// temporary template (§3) — its tokens are the `slots` the missed match read off
    /// its view; any other record is stored under `matched`. Bytes are accounted, the
    /// WAL appended when storage is attached, and the record appended to the store —
    /// the one copy of its text, which the training window and the unmatched list
    /// point into — with the slots its match extracted. Returns the node it is stored
    /// under.
    fn apply_record(
        &mut self,
        record: &str,
        unmatched: bool,
        matched: Option<NodeId>,
        (slots, range): (&SlotBuffer, SlotRange),
    ) -> Option<NodeId> {
        let template = if !unmatched {
            matched
        } else {
            if self.unmatched.len() < self.config.training_buffer {
                self.unmatched.push(self.records.len());
            }
            // Rare/unseen logs become temporary templates so identical records match
            // until the next training cycle absorbs them (§3). With no model at all
            // there is nothing to insert into yet.
            (!self.model.is_empty()).then(|| {
                let tokens: Vec<String> = slots.values(record, range).map(Into::into).collect();
                let id = Arc::make_mut(&mut self.model).insert_temporary(&tokens);
                // The ladder and the cache key track every model change; the
                // automaton does not — the match kernel scans appended nodes.
                self.ladder.push_root(&self.model, id);
                self.model_version += 1;
                id
            })
        };
        if let Some(storage) = &mut self.storage {
            // WAL first: the flag is the ingest-time outcome (replay re-executes the
            // temporary insertion), the node is the final assignment.
            storage
                .append_record(unmatched, template, record)
                .expect("WAL append");
        }
        self.total_bytes += record.len() as u64 + 1;
        // A temporary template has no wildcard, nor an unassigned record a template.
        let range = if unmatched {
            SlotRange::default()
        } else {
            range
        };
        self.records.push(record, template, slots, range);
        if let Some(node) = template {
            // Postings grow in ingest order, so per-node index lists stay sorted.
            self.index.assign(node, self.records.len() - 1);
        }
        template
    }

    /// Feed the drift detector one record's match: the saturation of the node it
    /// matched in the current model, none when it matched nothing.
    fn observe_drift(&mut self, matched: Option<NodeId>) {
        if let Some(detector) = &mut self.drift {
            let saturation = matched.map_or(0.0, |id| self.model.nodes[id.0].saturation);
            detector.observe(matched.is_some(), saturation);
        }
    }

    /// A cheap shared snapshot of the current model (what a match context or a
    /// stream engine holds; it stays valid while training replaces the topic's copy).
    pub fn model_snapshot(&self) -> Arc<ParserModel> {
        Arc::clone(&self.model)
    }

    /// The compiled automaton snapshot paired with the current model: compiled at its
    /// last training, landing or recovery, with the temporaries inserted since left to
    /// the match kernel's tail.
    pub fn compiled_snapshot(&self) -> Arc<CompiledMatcher> {
        Arc::clone(&self.compiled)
    }

    /// Compile the automaton from the whole current model: the one way a snapshot is
    /// built once the topic exists, at a training, a landing or a recovery.
    fn recompile(&mut self) {
        self.compiled = Arc::new(self.compiled.refreshed(&self.model));
    }

    /// A cheap shared handle to the topic's preprocessing pipeline.
    pub fn preprocessor_snapshot(&self) -> Arc<Preprocessor> {
        Arc::clone(&self.preprocessor)
    }

    /// Ingest a stream of records through the streaming engine
    /// ([`StreamIngestor`](crate::ingest::StreamIngestor)): records are cut into
    /// `batch_records`-sized batches, matched in parallel against an immutable snapshot of the current
    /// model (the match phase of [`drive`]), and then applied to the topic exactly as
    /// [`LogTopic::ingest`] would — unmatched records become temporary templates,
    /// everything lands in the store, and the volume/time trigger may start a
    /// training run.
    ///
    /// Under [`MaintenancePolicy::Incremental`], the stream is cut into chunks of
    /// `check_interval` records, as [`LogTopic::ingest`] cuts a batch: each chunk runs
    /// through its own engine and is applied before the next one is matched, so when
    /// drift or a volume trigger fires, the unmatched records are folded into the
    /// model as a delta and the next chunk matches against the patched model —
    /// ingestion never pauses for a full retrain.
    ///
    /// Falls back to the batch path when no model exists yet (the first training run
    /// needs buffered records, not matching throughput).
    pub fn ingest_stream<I>(&mut self, records: I, config: &IngestConfig) -> StreamOutcome
    where
        I: IntoIterator<Item = String>,
    {
        let route = Route::Stream {
            config,
            wait: None,
            clamp_to_topic: false,
        };
        let (outcome, rejected) = drive(self, records.into_iter().collect(), route);
        debug_assert!(rejected.is_empty(), "unbounded stream never rejects");
        outcome
    }

    /// Apply matched records (in arrival order, `matches.ids[i]` deciding `lines[i]`)
    /// to the topic state, feeding the drift detector the saturation of each record's
    /// node in the model checked against `matched_at` — a stale chunk is re-matched
    /// first, so that is the model the node was decided on.
    ///
    /// `matched_at` is the model version the chunk's ids belong to (the context's at
    /// [`LogTopic::prepare`]). The phases rest on nothing changing the model in
    /// between; should something have — a retrain generalises and retires nodes — the
    /// ids are discarded and the lines re-matched here, against the live model, exactly
    /// as a one-shot ingest would have matched them.
    ///
    /// The lines are borrowed: the store copies each record's text, and the caller
    /// frees the lines after releasing whatever hold it applied under.
    pub(crate) fn apply_stream_records(
        &mut self,
        lines: &[String],
        matches: &mut BatchMatch,
        matched_at: u64,
        outcome: &mut IngestOutcome,
    ) {
        if self.model_version != matched_at {
            let context = self
                .prepare()
                .expect("matched against a model, so one exists");
            *matches = context.match_batch(lines);
        }
        let BatchMatch { ids, slots } = matches;
        for (line, &(node, range)) in lines.iter().zip(ids.iter()) {
            match node {
                Some(_) => outcome.matched += 1,
                None => outcome.unmatched += 1,
            }
            self.apply_record(line, node.is_none(), node, (slots, range));
            self.observe_drift(node);
        }
        self.trigger.observe(lines.len() as u64);
    }

    /// Force a training cycle on the training window: the first training builds the
    /// model, every later one lands as a delta (`land_delta`) and re-matches
    /// every stored record against the merged model.
    pub fn run_training(&mut self) {
        if self.training_window().is_empty() {
            return;
        }
        if self.model.is_empty() {
            self.run_first_training();
        } else {
            self.land_delta(true);
        }
    }

    /// Fold the unmatched records into the current model (`land_delta`):
    /// existing node ids stay valid, absorbed temporaries are retired, and only the
    /// records the fold orphaned are re-matched. Returns `true` when a delta was
    /// applied. With nothing to absorb it changes nothing — not the trigger count,
    /// not the drift window — since nothing would be logged for a reopen to replay.
    pub fn run_incremental_maintenance(&mut self) -> bool {
        let nothing_to_absorb = self.unmatched.is_empty() && self.model.temporary_count() == 0;
        if self.model.is_empty() || nothing_to_absorb {
            return false;
        }
        self.land_delta(false);
        true
    }

    /// The text a run trains on, borrowed from the record store: the training window
    /// for a training run, the pending unmatched records for an incremental one.
    fn window_texts(&self, retrain: bool) -> Vec<&str> {
        let text = |idx: usize| self.records.text(idx);
        if retrain {
            self.training_window().map(text).collect()
        } else {
            self.unmatched.iter().map(|&idx| text(idx)).collect()
        }
    }

    /// The first training: there is no model to fold a delta into and no assignment
    /// to move a record *from*, so the model, the automaton and the ladder are built
    /// whole, every stored record is matched, and a durable topic starts its first
    /// epoch from the result.
    fn run_first_training(&mut self) {
        let started = Instant::now();
        let texts = self.window_texts(true);
        let model = train(&texts, &self.preprocessor, &self.config.train).model;
        self.model = Arc::new(model);
        self.recompile();
        self.ladder = SaturationLadder::build(&self.model);
        self.finish_run(true, started.elapsed().as_secs_f64());
        self.rematch(true);
        self.checkpoint_epoch();
    }

    /// The one way a model change lands once a model exists. The window (see
    /// [`LogTopic::window_texts`]) is clustered on its own and merged into the live
    /// model as a delta (node ids stay stable) by the land step replay runs too
    /// ([`LogTopic::land`]); the automaton is compiled anew, stored records are
    /// re-matched (all of them after a retrain, the orphaned ones otherwise), and a
    /// durable topic appends one event carrying the delta: everything replay needs to
    /// fold it back in without matching a single line. An in-memory topic serializes
    /// nothing.
    fn land_delta(&mut self, retrain: bool) {
        let started = Instant::now();
        let delta = train_delta(
            &self.model,
            &self.window_texts(retrain),
            &self.preprocessor,
            &self.config.train,
        );
        let before = self.land(&delta);
        // A retrain's re-match re-derives every record's slots; otherwise the records
        // on nodes the delta's patches generalised keep their node but gain slots. Done
        // before the re-match: a record it moves onto a patched node brings its slots.
        if !retrain {
            self.generalise_slots(&before, &delta);
        }
        drop(before);
        // Before the re-match, which matches on it.
        self.recompile();
        let elapsed_seconds = started.elapsed().as_secs_f64();
        self.finish_run(retrain, elapsed_seconds);
        let moves = self.rematch(retrain);
        let window = self.training_window_seqs();
        let Some(storage) = &mut self.storage else {
            return;
        };
        let first_live = storage.first_live_seq();
        let moved = |&(idx, old, new): &(usize, _, _)| RecordMove {
            seq: first_live + idx as u64,
            old,
            new,
        };
        let event = DeltaEvent {
            at_seq: storage.next_seq(),
            elapsed_seconds,
            moves: moves.iter().map(moved).collect(),
            retrain,
            delta,
        };
        storage.append_delta_event(&event).expect("event append");
        // Flagged records pin their segments until an epoch checkpoint clears the
        // flags. A retrain has just absorbed every one of them, so it is the point
        // where a checkpoint is sound — taken only if retention is stalled on it.
        if retrain && storage.retention_waiting(window) {
            self.checkpoint_epoch();
        }
    }

    /// The land step, live or replayed: fold `delta` into the model and rebuild the
    /// saturation ladder, which is derived from its node set, whole. Returns the model
    /// it replaced.
    fn land(&mut self, delta: &ModelDelta) -> Arc<ParserModel> {
        let landed = Arc::new(apply_delta(&self.model, delta));
        let before = std::mem::replace(&mut self.model, landed);
        self.ladder = SaturationLadder::build(&self.model);
        before
    }

    /// Bookkeeping shared by every model change, live or replayed: counters and the
    /// run's wall-clock seconds, the trigger clock, the drift window, the windows the
    /// next run will read, the model version and the query cache.
    fn finish_run(&mut self, retrain: bool, elapsed_seconds: f64) {
        if retrain {
            self.last_training_seconds = elapsed_seconds;
            self.training_runs += 1;
            self.window_start = self.records.len();
        } else {
            self.last_maintenance_seconds = elapsed_seconds;
            self.maintenance_runs += 1;
        }
        self.trigger.mark_trained(Instant::now());
        // Either window contained every pending unmatched record.
        self.unmatched.clear();
        if let Some(detector) = &mut self.drift {
            detector.reset_window();
        }
        self.model_version += 1;
        self.query_cache.clear();
    }

    /// Epoch checkpoint of a durable topic: write the current model as the epoch's base
    /// file, rewrite every live record as baseline segments carrying its current
    /// assignment, and truncate the WAL and event log — restart replays from here.
    /// Called right after a training run's re-match, when no temporary is live and no
    /// unmatched record is pending. No-op for in-memory topics.
    fn checkpoint_epoch(&mut self) {
        let stats = self.stats();
        let Some(storage) = &mut self.storage else {
            return;
        };
        storage
            .checkpoint_epoch(&self.records, &self.model, self.model_version, &stats)
            .expect("storage epoch checkpoint");
    }

    /// The slots of the records on nodes `delta` patched, re-derived without a re-match:
    /// a patch only turns constants into wildcards (the token count stays), so a record
    /// that matched the old template holds, at every newly wildcarded position, the
    /// constant it matched there; its other slots are the ones it had.
    fn generalise_slots(&mut self, before: &ParserModel, delta: &ModelDelta) {
        let is_wildcard = |token: &TemplateToken| matches!(token, TemplateToken::Wildcard);
        let mut fresh = SlotBuffer::new();
        let mut updates = Vec::new();
        for patch in &delta.patches {
            let old = &before.nodes[patch.node.0].template;
            let new = &self.model.nodes[patch.node.0].template;
            let positions = || old.iter().zip(new).filter(|(_, n)| is_wildcard(n));
            if positions().all(|(o, _)| is_wildcard(o)) {
                continue;
            }
            for &idx in self.index.postings_of(patch.node) {
                let idx = idx as usize;
                let mut kept = self.records.variables(idx);
                let values = positions().map(|(o, _)| match o {
                    TemplateToken::Const(constant) => constant.as_str(),
                    TemplateToken::Wildcard => kept.next().expect("one slot per old wildcard"),
                });
                updates.push((idx, fresh.push_values(self.records.text(idx), values)));
            }
        }
        updates.sort_unstable_by_key(|&(idx, _)| idx);
        self.records.replace_slots(&fresh, &updates);
    }

    /// Fill the slot column of a topic just replayed from `recovered`: a segment whose
    /// records all arrived after the last delta (`first_seq >= last_delta_seq`, the
    /// freshness rule pruning uses) carries the column as it stands and is loaded;
    /// older segments — a delta since may have moved their records or patched their
    /// templates — and the WAL tail, which has no column, are re-derived from the text.
    fn recover_slots(&mut self, recovered: &RecoveredTopic, last_delta_seq: u64) {
        let mut scratch = TokenScratch::new();
        let mut fresh = SlotBuffer::new();
        let mut updates = Vec::with_capacity(self.records.len());
        let segments = recovered.segments.iter();
        let mut loaded = segments.flat_map(|segment| {
            let current = segment.first_seq >= last_delta_seq;
            let column = segment.variables.iter();
            column.map(move |vars| current.then_some(vars))
        });
        // The WAL tail follows the segments, with no column.
        for idx in 0..self.records.len() {
            let column = loaded.next().flatten();
            let text = self.records.text(idx);
            let range = match (column, self.records.template(idx)) {
                (Some(vars), _) => fresh.push_values(text, vars.iter().map(String::as_str)),
                (None, None) => SlotRange::default(),
                (None, node) => {
                    let view = self.preprocessor.token_view(text, &mut scratch);
                    fresh.extract(&self.model, node, text, &view)
                }
            };
            updates.push((idx, range));
        }
        self.records.replace_slots(&fresh, &updates);
    }

    /// Re-assign template ids against the current model: for every stored record after
    /// a training run, otherwise only for records that are unassigned or point at a
    /// retired node (everyone else's id is still valid). Returns the
    /// `(record index, old, new)` of the assignments that changed, which the storage
    /// tier logs as part of the maintenance event.
    fn rematch(&mut self, every_record: bool) -> Vec<(usize, Option<NodeId>, Option<NodeId>)> {
        let Some(context) = self.prepare() else {
            return Vec::new();
        };
        let orphaned = |idx: usize| match self.records.template(idx) {
            None => true,
            Some(id) => self.model.node(id).map(|node| node.retired).unwrap_or(true),
        };
        let candidates: Vec<usize> = (0..self.records.len())
            .filter(|&idx| every_record || orphaned(idx))
            .collect();
        let texts: Vec<&str> = candidates
            .iter()
            .map(|&idx| self.records.text(idx))
            .collect();
        let results = context.match_batch(&texts);
        let mut moves = Vec::new();
        let mut updates = Vec::with_capacity(candidates.len());
        for (&idx, &(node, slots)) in candidates.iter().zip(&results.ids) {
            let old = self.records.template(idx);
            if old != node {
                moves.push((idx, old, node));
            }
            // A record left unassigned has no variables (its slots are its tokens).
            updates.push((idx, node.map_or(SlotRange::default(), |_| slots)));
        }
        // Every re-matched record's slots come from its re-match, moved or not.
        self.records.replace_slots(&results.slots, &updates);
        self.apply_moves(&moves);
        moves
    }

    /// Move records, live or replayed: each `(record index, old, new)` re-assigns the
    /// record in the store and in the postings.
    fn apply_moves(&mut self, moves: &[(usize, Option<NodeId>, Option<NodeId>)]) {
        for &(idx, _, new) in moves {
            self.records.set_template(idx, new);
        }
        self.index.reassign(moves);
    }

    /// Current topic statistics.
    pub fn stats(&self) -> TopicStats {
        TopicStats {
            total_records: self.first_record_seq() + self.records.len() as u64,
            total_bytes: self.total_bytes,
            templates: self.model.len() - self.model.retired_count(),
            model_size_bytes: self.model.approx_size_bytes(),
            training_runs: self.training_runs,
            last_training_seconds: self.last_training_seconds,
            maintenance_runs: self.maintenance_runs,
            last_maintenance_seconds: self.last_maintenance_seconds,
        }
    }
}

/// The definition of a record's variables, kept as the **oracle**: mask and tokenise
/// the text afresh and take the tokens at the wildcard positions of the assigned
/// template. Empty when the record has no assignment, the node is gone, or the token
/// count disagrees with the template. No production path calls it — the slot column
/// ([`RecordStore::variables`]) is what ingest stores, segments seal and queries read;
/// the scan oracle evaluates predicates on this, and the planned path's one
/// `debug_assert_eq!` holds the column to it, so `VariableEquals` semantics cannot drift.
pub fn variables_of(
    model: &ParserModel,
    preprocessor: &Preprocessor,
    text: &str,
    node: Option<NodeId>,
) -> Vec<String> {
    let Some(id) = node else {
        return Vec::new();
    };
    let Some(node) = model.node(id) else {
        return Vec::new();
    };
    let tokens = preprocessor.tokens_of(text);
    if tokens.len() != node.template.len() {
        return Vec::new();
    }
    tokens
        .into_iter()
        .zip(&node.template)
        .filter(|(_, slot)| matches!(slot, TemplateToken::Wildcard))
        .map(|(token, _)| token)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::TopicAccess;

    fn web_access_batch(offset: usize, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                let code = [200, 200, 200, 404, 500][(offset + i) % 5];
                format!(
                    "GET /api/v1/items/{} HTTP/1.1 status {} bytes {} latency {}ms",
                    (offset + i) % 50,
                    code,
                    100 + (offset + i) % 900,
                    1 + (offset + i) % 40
                )
            })
            .collect()
    }

    fn novel_batch(offset: usize, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                format!(
                    "disk scrubber pass {} repaired sector {} on volume vol-{}",
                    (offset + i) % 7,
                    offset + i,
                    (offset + i) % 3
                )
            })
            .collect()
    }

    fn small_topic(volume_threshold: u64) -> LogTopic {
        LogTopic::new(TopicConfig::new("web-access").with_volume_threshold(volume_threshold))
    }

    fn incremental_topic(volume_threshold: u64) -> LogTopic {
        LogTopic::new(
            TopicConfig::new("web-access-inc")
                .with_volume_threshold(volume_threshold)
                .with_incremental_maintenance(
                    DriftConfig::default()
                        .with_window(200)
                        .with_min_samples(50)
                        .with_max_unmatched_rate(0.3),
                ),
        )
    }

    #[test]
    fn first_ingest_triggers_initial_training() {
        let mut topic = small_topic(1_000_000);
        let outcome = topic.ingest(&web_access_batch(0, 200));
        assert!(
            outcome.trained,
            "initial training must run on the first batch"
        );
        assert!(topic.stats().templates > 0);
        assert_eq!(topic.stats().training_runs, 1);
    }

    #[test]
    fn records_receive_template_ids_after_training() {
        let mut topic = small_topic(1_000_000);
        topic.ingest(&web_access_batch(0, 300));
        // After initial training, previously-unassigned records are backfilled.
        let assigned = topic
            .records()
            .iter()
            .filter(|r| r.template.is_some())
            .count();
        assert_eq!(assigned, topic.records().len());
    }

    #[test]
    fn subsequent_batches_match_online() {
        let mut topic = small_topic(1_000_000);
        topic.ingest(&web_access_batch(0, 300));
        let outcome = topic.ingest(&web_access_batch(300, 100));
        assert_eq!(outcome.matched + outcome.unmatched, 100);
        assert!(
            outcome.matched > 90,
            "most records of the same shape should match online: {outcome:?}"
        );
        assert!(!outcome.trained);
    }

    #[test]
    fn volume_threshold_triggers_retraining() {
        let mut topic = small_topic(500);
        topic.ingest(&web_access_batch(0, 300)); // initial training
        let runs_before = topic.stats().training_runs;
        topic.ingest(&web_access_batch(300, 300));
        topic.ingest(&web_access_batch(600, 300));
        assert!(topic.stats().training_runs > runs_before);
    }

    #[test]
    fn unmatched_records_become_temporary_templates() {
        let mut topic = small_topic(1_000_000);
        topic.ingest(&web_access_batch(0, 200));
        let before_templates = topic.model().len();
        let novel = vec!["kernel oops at address ffffffffc0401234 cpu 3".to_string()];
        let outcome = topic.ingest(&novel);
        assert_eq!(outcome.unmatched, 1);
        assert_eq!(topic.model().len(), before_templates + 1);
        assert_eq!(topic.model().temporary_count(), 1);
        // The identical record now matches.
        let outcome2 = topic.ingest(&novel);
        assert_eq!(outcome2.matched, 1);
    }

    /// The automaton's one lifecycle: compiled from the whole model when the model is
    /// trained, lands a delta (retrain or incremental) or is recovered — each leaving no
    /// tail of uncompiled nodes and a new generation — and at no other time: temporaries
    /// ride the kernel's tail, and `prepare` hands out the topic's own snapshot.
    #[test]
    fn automaton_is_compiled_at_training_landing_and_recovery_only() {
        let compiled_whole = |topic: &LogTopic| {
            let compiled = topic.compiled_snapshot();
            assert_eq!(
                compiled.nodes(),
                topic.model().len(),
                "a landing leaves no tail"
            );
            compiled.generation()
        };
        let dir = std::env::temp_dir().join(format!("bb-lifecycle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = TopicConfig::new("lifecycle").with_volume_threshold(1_000_000);
        let mut topic = LogTopic::durable(config, &dir, StorageConfig::default()).unwrap();
        topic.ingest(&web_access_batch(0, 300));
        let trained = compiled_whole(&topic);

        let novel = [
            "kernel oops at address ffffffffc0401234 cpu 3",
            "gpu watchdog fired while idle",
        ];
        assert_eq!(topic.ingest(&novel).unmatched, 2);
        let compiled = topic.compiled_snapshot();
        assert_eq!(
            compiled.generation(),
            trained,
            "a temporary compiles nothing"
        );
        assert_eq!(compiled.nodes() + 2, topic.model().len());
        let nodes = topic.model().len();
        assert_eq!(
            topic.ingest(&novel).matched,
            2,
            "the tail matches its temporaries"
        );
        assert_eq!(topic.model().len(), nodes);
        let context = topic.prepare().expect("a model exists");
        assert!(
            Arc::ptr_eq(&context.compiled, &compiled),
            "prepare never compiles"
        );
        drop((context, compiled));

        topic.run_training();
        let retrained = compiled_whole(&topic);
        assert_ne!(retrained, trained);
        // Leave a tail behind for recovery to compile in.
        assert_eq!(topic.ingest(&["segfault while idle"]).unmatched, 1);
        drop(topic);
        let reopened = LogTopic::open(&dir, StorageConfig::default()).unwrap();
        assert_ne!(compiled_whole(&reopened), retrained);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();

        let mut topic = incremental_topic(1_000_000);
        topic.ingest(&web_access_batch(0, 400));
        let trained = compiled_whole(&topic);
        assert!(topic.ingest(&novel_batch(0, 200)).maintained >= 1);
        assert_ne!(compiled_whole(&topic), trained);
    }

    /// `StorageConfig`'s fields are public: a `segment_records` of 0 is clamped to 1 on
    /// create and on open, as `with_segment_records` clamps it, so every commit seals
    /// one segment per record instead of draining an empty chunk.
    #[test]
    fn zero_segment_records_seals_one_record_per_segment() {
        let dir = std::env::temp_dir().join(format!("bb-zero-segment-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = StorageConfig {
            segment_records: 0,
            fsync: false,
            ..StorageConfig::default()
        };
        let config = TopicConfig::new("zero").with_volume_threshold(1_000_000);
        let mut topic = LogTopic::durable(config, &dir, storage.clone()).unwrap();
        topic.ingest(&web_access_batch(0, 3));
        topic.ingest(&web_access_batch(3, 2));
        let sealed = |topic: &LogTopic| {
            let segments = topic.storage().expect("durable").segments();
            assert!(segments.iter().all(|segment| segment.records == 1));
            segments.len()
        };
        assert_eq!(sealed(&topic), 5);
        drop(topic);
        let mut reopened = LogTopic::open(&dir, storage).unwrap();
        assert_eq!(reopened.records().len(), 5);
        reopened.ingest(&web_access_batch(5, 2));
        assert_eq!(sealed(&reopened), 7);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retraining_absorbs_temporary_templates() {
        let mut topic = small_topic(1_000_000);
        topic.ingest(&web_access_batch(0, 200));
        let novel: Vec<String> = (0..20)
            .map(|i| format!("cache eviction of key session:{i} after 300s"))
            .collect();
        topic.ingest(&novel);
        assert!(topic.model().temporary_count() > 0);
        topic.run_training();
        assert_eq!(topic.model().temporary_count(), 0);
        // And the new pattern is covered by a real template now.
        let outcome = topic.ingest(&["cache eviction of key session:999 after 300s"]);
        assert_eq!(outcome.matched, 1);
    }

    #[test]
    fn stats_track_bytes_and_model_size() {
        let mut topic = small_topic(1_000_000);
        topic.ingest(&web_access_batch(0, 150));
        let stats = topic.stats();
        assert_eq!(stats.total_records, 150);
        assert!(stats.total_bytes > 1_000);
        assert!(stats.model_size_bytes > 0);
        assert!(stats.last_training_seconds >= 0.0);
        assert_eq!(topic.name(), "web-access");
    }

    // -- incremental maintenance --------------------------------------------

    #[test]
    fn drift_triggers_incremental_maintenance_not_retraining() {
        let mut topic = incremental_topic(1_000_000);
        topic.ingest(&web_access_batch(0, 400)); // initial (full) training
        assert_eq!(topic.stats().training_runs, 1);
        let templates_before = topic.stats().templates;
        // A novel family floods in: unmatched rate in the drift window surges.
        let outcome = topic.ingest(&novel_batch(0, 200));
        assert!(outcome.unmatched > 100, "novel family must not match");
        assert!(!outcome.trained, "no full retrain under incremental policy");
        assert!(
            outcome.maintained >= 1,
            "drift must trigger incremental maintenance: {outcome:?}"
        );
        let stats = topic.stats();
        assert_eq!(stats.training_runs, 1, "still exactly one full train");
        assert!(stats.maintenance_runs >= 1);
        assert!(stats.templates > templates_before);
        // The absorbed family now matches as real (non-temporary) templates.
        let followup = topic.ingest(&novel_batch(500, 50));
        assert_eq!(followup.matched, 50, "absorbed family must match");
        assert_eq!(topic.model().temporary_count(), 0);
    }

    #[test]
    fn incremental_maintenance_keeps_node_ids_stable() {
        let mut topic = incremental_topic(1_000_000);
        topic.ingest(&web_access_batch(0, 400));
        let assignment_before: Vec<Option<NodeId>> =
            topic.records().iter().map(|r| r.template).collect();
        let outcome = topic.ingest(&novel_batch(0, 200));
        assert!(outcome.maintained >= 1);
        // Every pre-drift record kept its template id — no re-match pass happened.
        for (before, stored) in assignment_before.iter().zip(topic.records().iter()) {
            assert_eq!(*before, stored.template, "node id changed for {stored:?}");
        }
    }

    #[test]
    fn volume_trigger_under_incremental_policy_folds_deltas() {
        let mut topic = incremental_topic(300);
        topic.ingest(&web_access_batch(0, 400)); // initial training
                                                 // Mostly-matching traffic with a sprinkle of novelty: volume trigger fires,
                                                 // and the unmatched sprinkle is folded incrementally.
        let mut mixed = web_access_batch(400, 280);
        mixed.extend(novel_batch(0, 40));
        let outcome = topic.ingest(&mixed);
        assert!(!outcome.trained);
        assert!(outcome.maintained >= 1, "volume trigger must maintain");
        assert_eq!(topic.stats().training_runs, 1);
    }

    #[test]
    fn streaming_ingest_maintains_between_chunks() {
        let mut topic = LogTopic::new(
            TopicConfig::new("stream-inc")
                .with_volume_threshold(1_000_000)
                .with_maintenance(MaintenancePolicy::Incremental {
                    drift: DriftConfig::default()
                        .with_window(1_024)
                        .with_min_samples(256)
                        .with_max_unmatched_rate(0.2),
                    check_interval: 512,
                }),
        );
        // Cold start: full training.
        topic.ingest(&web_access_batch(0, 500));
        // Stream: known traffic first, then a sustained novel family, long enough
        // that a drift check between two chunks is guaranteed to see the surge.
        let mut stream = web_access_batch(500, 2_000);
        stream.extend(novel_batch(0, 4_000));
        let result = topic.ingest_stream(
            stream,
            &IngestConfig::default()
                .with_batch_records(64)
                .with_max_in_flight(4),
        );
        assert!(
            result.outcome.maintained >= 1,
            "drift between chunks must trigger maintenance: {:?}",
            result.outcome
        );
        assert!(!result.outcome.trained, "no stop-the-world retrain");
        assert_eq!(result.stats.records, 6_000);
        // The last chunk matched against the patched model: its share of the novel
        // family sits on trained templates, not on temporaries.
        let model = topic.model();
        for stored in topic.records().iter().skip(500 + 6_000 - 512) {
            let node = &model.nodes[stored.template.expect("matched").0];
            assert!(!node.temporary && !node.retired, "{stored:?}");
        }
        let followup = topic.ingest(&novel_batch(9_000, 50));
        assert_eq!(followup.matched, 50);
    }

    /// Reaches the topic as `&mut LogTopic` does, but lets `meddle` at it between
    /// the prepare phase and the apply phase.
    struct Meddled<'a> {
        topic: &'a mut LogTopic,
        phases: usize,
        meddle: fn(&mut LogTopic),
    }

    impl TopicAccess for Meddled<'_> {
        fn with<R>(&mut self, f: impl FnOnce(&mut LogTopic) -> R) -> R {
            self.phases += 1;
            if self.phases == 2 {
                (self.meddle)(self.topic);
            }
            f(self.topic)
        }
    }

    #[test]
    fn stale_context_is_rematched_like_a_one_shot_ingest() {
        const OOPS: &str = "kernel oops at address ffffffffc0401234 cpu 3";
        let meddles: [fn(&mut LogTopic); 2] = [
            // A temporary the context has not seen: its stale `None` would insert a twin.
            |topic| _ = topic.ingest(&[OOPS]),
            // A retrain absorbs the novel family: its temporaries are retired.
            LogTopic::run_training,
        ];
        let config = IngestConfig::default().with_batch_records(64);
        let stream = Route::Stream {
            config: &config,
            wait: None,
            clamp_to_topic: false,
        };
        for (meddle, route) in meddles
            .into_iter()
            .flat_map(|m| [(m, Route::Batch), (m, stream)])
        {
            let seeded = || {
                let mut topic = small_topic(1_000_000);
                topic.ingest(&web_access_batch(0, 300));
                topic.ingest(&novel_batch(0, 40));
                topic
            };
            let mut batch = web_access_batch(300, 200);
            batch.push(OOPS.to_string());
            batch.extend(novel_batch(40, 20));

            let mut one_shot = seeded();
            meddle(&mut one_shot);
            let expected = drive(&mut one_shot, batch.clone(), route).0.outcome;

            let mut phased = seeded();
            let mut access = Meddled {
                topic: &mut phased,
                phases: 0,
                meddle,
            };
            assert_eq!(drive(&mut access, batch, route).0.outcome, expected);
            assert_eq!(access.phases, 2, "prepare, then one apply");
            assert_eq!(phased.model_version(), one_shot.model_version());
            assert_eq!(phased.model().len(), one_shot.model().len());
            let assigned =
                |t: &LogTopic| t.records().iter().map(|r| r.template).collect::<Vec<_>>();
            assert_eq!(assigned(&phased), assigned(&one_shot));
            assert_eq!(slot_column(&phased), slot_column(&one_shot));
        }
    }

    /// Every record's slots as the column holds them, each held to the oracle.
    fn slot_column(topic: &LogTopic) -> Vec<Vec<String>> {
        let records = topic.records();
        let column = (0..records.len()).map(|idx| {
            let (text, node) = (records.text(idx), records.template(idx));
            let slots = records.owned_variables(idx);
            let oracle = variables_of(topic.model(), topic.preprocessor(), text, node);
            assert_eq!(slots, oracle, "record {idx} {text:?}");
            slots
        });
        column.collect()
    }

    #[test]
    fn incremental_topic_with_stable_traffic_never_maintains() {
        let mut topic = incremental_topic(1_000_000);
        topic.ingest(&web_access_batch(0, 400));
        let outcome = topic.ingest(&web_access_batch(400, 400));
        assert_eq!(outcome.maintained, 0);
        assert_eq!(topic.stats().maintenance_runs, 0);
    }
}
