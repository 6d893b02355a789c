//! Batched streaming ingestion engine (§3 "System Design": online matching must keep up
//! with ingestion across thousands of topics).
//!
//! [`StreamIngestor`] is the high-throughput alternative to matching a whole
//! in-memory batch on the calling thread. [`StreamIngestor::push`] appends records to
//! the one open batch, which is flushed when it reaches `batch_records`, and
//! [`StreamIngestor::finish`] flushes the remainder. Every flushed batch is a
//! contiguous run of arrivals, and flushed batches are matched in parallel by the
//! shared [`MatcherPool`] over one immutable (model, automaton) snapshot pair.
//!
//! The matching hot path is zero-copy end to end: records travel to the workers and
//! back by move, as the `String`s they were pushed as, and every pool worker runs the
//! batch kernel's per-line step ([`bytebrain::matcher::match_line`], on a private
//! [`logtok::TokenScratch`]) behind its line cache ([`bytebrain::MatchCache`]), in
//! arrival order. The decisions come back as the [`BatchMatch`] the batch kernel also
//! produces — no rendered template text, only each record's node and the range of its
//! variable slots, which the topic stores as they are.
//!
//! Back-pressure is explicit: at most `max_in_flight` batches may be submitted and
//! unharvested; a `push` that would exceed the bound first blocks on the next finished
//! batch — indefinitely, or for the caller's wait bound, after which the record comes
//! back in [`Overloaded`]. [`IngestStats`] reports the waits, the high-water mark, and
//! the record/batch counters so saturation is observable rather than silent.
//!
//! ```text
//!        push
//!         │
//!         ▼
//!    [open batch]            one buffer; size-bound flush, or finish
//!         │ contiguous run of arrivals
//!         ▼
//!    MatcherPool             worker threads, the engine's (model, automaton)
//!         │                  pair, per-worker TokenScratch and MatchCache
//!         ▼
//!    (lines, BatchMatch) ──► joined in batch order (= arrival order) at finish
//! ```
//!
//! The module also holds the ingest **driver**, [`drive`]: the prepare → match → apply
//! sequence every ingest entry point runs, once per chunk, written once and
//! parameterised by how it reaches the topic ([`TopicAccess`]) and by which engine
//! matches ([`Route`]).

use crate::matcher_pool::{IdBatchResult, MatcherPool};
use crate::topic::{IngestOutcome, LogTopic, StreamOutcome};
use bytebrain::matcher::match_ids_batch;
use bytebrain::{BatchMatch, CompiledMatcher, ParserModel, SlotBuffer, SlotRange};
use logtok::Preprocessor;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Configuration of the streaming ingestion engine.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Size bound: the open batch flushes when it holds this many records.
    pub batch_records: usize,
    /// Back-pressure bound: the maximum number of flushed-but-unharvested batches.
    pub max_in_flight: usize,
    /// Matcher pool worker threads (the paper bounds production topics to 1–5 cores).
    pub workers: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            batch_records: 512,
            max_in_flight: 8,
            workers: 4,
        }
    }
}

impl IngestConfig {
    /// Override the per-batch record bound (clamped to at least 1).
    pub fn with_batch_records(mut self, batch_records: usize) -> Self {
        self.batch_records = batch_records.max(1);
        self
    }

    /// Override the worker thread count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Override the back-pressure bound (clamped to at least 1).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
        self
    }
}

/// Monotonic counters of one streaming run, including back-pressure behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records accepted.
    pub records: u64,
    /// Bytes accepted (record text only).
    pub bytes: u64,
    /// Harvested records matched to an existing template.
    pub matched: u64,
    /// Harvested records that matched no template.
    pub unmatched: u64,
    /// Batches submitted to the matcher pool: one per size-bound flush, plus one if
    /// `finish` found a partial batch open.
    pub submitted_batches: u64,
    /// Batches whose results have been harvested.
    pub completed_batches: u64,
    /// Blocked back-pressure episodes: times a flush parked on the results channel
    /// because `max_in_flight` batches were outstanding. Counted once per episode
    /// (not once per wake-up), so it is bounded by `submitted_batches` — a spin-poll
    /// regression would blow far past that bound.
    pub backpressure_waits: u64,
    /// High-water mark of outstanding batches.
    pub max_in_flight_observed: usize,
    /// Records rejected by a bounded [`StreamIngestor::push`] because the pool stayed
    /// saturated past the caller's wait bound.
    pub overload_rejections: u64,
}

/// Typed rejection from a bounded [`StreamIngestor::push`]: the pool stayed at
/// `max_in_flight` for the whole wait bound, so the record was **not** accepted.
/// The record rides back in the error so the caller can retry or shed it without
/// cloning up front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overloaded {
    /// The rejected record, returned unconsumed.
    pub record: String,
    /// How long the caller was willing to wait for a free slot.
    pub waited: Duration,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ingest overloaded: no pool slot freed within {:?} (max_in_flight saturated)",
            self.waited
        )
    }
}

impl std::error::Error for Overloaded {}

/// The streaming ingestion engine: accumulates records into one open batch and
/// drives flushed batches through a [`MatcherPool`] in parallel. See the module
/// documentation for the data flow.
///
/// # Example
///
/// ```
/// use bytebrain::{train::train, TrainConfig};
/// use logtok::Preprocessor;
/// use service::{IngestConfig, StreamIngestor};
/// use std::sync::Arc;
///
/// let lines: Vec<String> = (0..200)
///     .map(|i| format!("GET /api/items/{} took {}ms", i % 20, i % 90))
///     .collect();
/// let config = TrainConfig::default();
/// let preprocessor = Arc::new(Preprocessor::new(config.preprocess.clone()));
/// let model = Arc::new(train(&lines, &preprocessor, &config).model);
///
/// let mut ingestor = StreamIngestor::new(model, preprocessor, IngestConfig::default());
/// for line in lines {
///     // `None`: park on back-pressure, never shed; `Some(wait)` sheds past `wait`.
///     ingestor.push(line, None).expect("an unbounded push never sheds");
/// }
/// // Every line, in arrival order, with its node and variable slots.
/// let (lines, matches, stats) = ingestor.finish();
/// assert_eq!(lines.len(), 200);
/// assert_eq!(matches.ids.len(), 200);
/// assert_eq!(stats.matched, 200);
/// ```
#[derive(Debug)]
pub struct StreamIngestor {
    config: IngestConfig,
    pool: MatcherPool,
    /// The model snapshot every batch is matched against.
    model: Arc<ParserModel>,
    /// The automaton compiled from `model`. An engine handed none compiles one at
    /// its first flush.
    compiled: OnceLock<Arc<CompiledMatcher>>,
    /// Records of the open batch.
    pending: Vec<String>,
    stats: IngestStats,
    /// Finished batches, indexed by batch id (None until it lands). Batches are
    /// contiguous runs of arrivals submitted in order, so joining them front to back
    /// returns records in arrival order however the batches raced through the pool.
    completed: Vec<Option<IdBatchResult>>,
    in_flight: usize,
}

impl StreamIngestor {
    /// Build an engine over an immutable model snapshot. The model is shared with the
    /// pool workers via `Arc`; a changed model means a new engine, which is how
    /// [`drive`] starts every chunk.
    pub fn new(
        model: Arc<ParserModel>,
        preprocessor: Arc<Preprocessor>,
        config: IngestConfig,
    ) -> Self {
        let config = IngestConfig {
            batch_records: config.batch_records.max(1),
            max_in_flight: config.max_in_flight.max(1),
            workers: config.workers.max(1),
        };
        StreamIngestor {
            pool: MatcherPool::new(preprocessor, config.workers),
            config,
            model,
            compiled: OnceLock::new(),
            pending: Vec::new(),
            stats: IngestStats::default(),
            completed: Vec::new(),
            in_flight: 0,
        }
    }

    /// Hand the engine an automaton already compiled from its model, sparing it the
    /// compile at the first flush (builder-style; call before pushing records).
    pub fn with_compiled(mut self, compiled: Arc<CompiledMatcher>) -> Self {
        self.compiled = OnceLock::from(compiled);
        self
    }

    /// Current statistics (updated as batches flush and results are harvested).
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Ingest one record into the open batch.
    ///
    /// `wait` bounds the back-pressure park. `None` never rejects: the record is
    /// buffered and, if that fills the batch while `max_in_flight` batches are
    /// outstanding, the flush parks until a slot frees. `Some(bound)` first makes sure
    /// a slot is free, waiting at most `bound` for one, and returns the record inside
    /// [`Overloaded`] if none frees — so on `Ok` the flush the record may trigger is
    /// guaranteed non-blocking (one push causes at most one flush, and a slot was just
    /// verified free). `Some(Duration::ZERO)` is a pure try-push.
    pub fn push(
        &mut self,
        record: impl Into<String>,
        wait: Option<Duration>,
    ) -> Result<(), Overloaded> {
        if let Some(wait) = wait {
            self.drain_ready();
            if self.in_flight >= self.config.max_in_flight {
                self.stats.backpressure_waits += 1;
                let deadline = Instant::now() + wait;
                while self.in_flight >= self.config.max_in_flight {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    match self.pool.recv_ids_timeout(remaining) {
                        Some(result) => self.absorb(result),
                        None => {
                            self.stats.overload_rejections += 1;
                            return Err(Overloaded {
                                record: record.into(),
                                waited: wait,
                            });
                        }
                    }
                }
            }
        }
        let record = record.into();
        self.stats.records += 1;
        self.stats.bytes += record.len() as u64;
        self.pending.push(record);
        if self.pending.len() >= self.config.batch_records {
            // Harvest finished batches at flush boundaries (bounded lag: at
            // most `max_in_flight` batches ever wait in the result channel).
            self.drain_ready();
            self.flush();
        }
        Ok(())
    }

    /// Submit the open batch, if any, to the pool.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        // Back-pressure: park on the results channel until a slot frees up. One
        // blocked episode is counted once, however many batches it takes to drain
        // below the bound — `recv_ids` is a blocking channel `recv`, so a stalled
        // worker parks this thread instead of burning a core.
        if self.in_flight >= self.config.max_in_flight {
            self.stats.backpressure_waits += 1;
            while self.in_flight >= self.config.max_in_flight {
                self.absorb_next();
            }
        }
        let compiled = Arc::clone(
            self.compiled
                .get_or_init(|| Arc::new(CompiledMatcher::compile(&self.model))),
        );
        self.pool
            .submit_ids(batch, Arc::clone(&self.model), compiled);
        self.in_flight += 1;
        self.stats.submitted_batches += 1;
        self.stats.max_in_flight_observed = self.stats.max_in_flight_observed.max(self.in_flight);
    }

    /// Harvest every batch the pool has already finished, without blocking.
    fn drain_ready(&mut self) {
        while let Some(result) = self.pool.try_recv_ids() {
            self.absorb(result);
        }
    }

    /// Block on the next finished batch. A closed result channel while batches are
    /// outstanding means pool workers died (a panic in matching/preprocessing).
    /// Records would be silently lost if this were treated as a clean shutdown —
    /// fail loudly instead.
    fn absorb_next(&mut self) {
        match self.pool.recv_ids() {
            Some(result) => self.absorb(result),
            None => panic!(
                "matcher pool workers terminated with {} batch(es) outstanding — \
                 {} record(s) would be lost",
                self.in_flight,
                self.stats.records - self.stats.matched - self.stats.unmatched
            ),
        }
    }

    fn absorb(&mut self, result: IdBatchResult) {
        self.in_flight -= 1;
        self.stats.completed_batches += 1;
        let ids = &result.matches.ids;
        let matched = ids.iter().filter(|(node, _)| node.is_some()).count() as u64;
        self.stats.matched += matched;
        self.stats.unmatched += ids.len() as u64 - matched;
        let slot = result.batch_id as usize;
        if slot >= self.completed.len() {
            self.completed.resize_with(slot + 1, || None);
        }
        self.completed[slot] = Some(result);
    }

    /// Force-flush the open batch and block until every in-flight batch has been
    /// absorbed.
    ///
    /// # Panics
    /// Panics if pool workers died with batches outstanding.
    fn settle(&mut self) {
        self.flush();
        while self.in_flight > 0 {
            self.absorb_next();
        }
    }

    /// Flush everything, wait for all outstanding batches, shut the pool down, and
    /// return every pushed record, in arrival order, with its match and the counters
    /// of the whole run.
    ///
    /// # Panics
    /// Panics if pool workers died with batches outstanding (records would otherwise
    /// be silently dropped).
    pub fn finish(mut self) -> (Vec<String>, BatchMatch, IngestStats) {
        self.settle();
        let mut lines = Vec::with_capacity(self.stats.records as usize);
        let mut matches = BatchMatch::default();
        for batch in self.completed.drain(..) {
            let batch = batch.expect("settled: every submitted batch landed");
            lines.extend(batch.lines);
            matches.append(batch.matches);
        }
        (lines, matches, std::mem::take(&mut self.stats))
    }
}

impl IngestStats {
    /// Fold the counters of one engine run into these (the high-water mark is a max).
    fn add(&mut self, run: IngestStats) {
        self.records += run.records;
        self.bytes += run.bytes;
        self.matched += run.matched;
        self.unmatched += run.unmatched;
        self.submitted_batches += run.submitted_batches;
        self.completed_batches += run.completed_batches;
        self.backpressure_waits += run.backpressure_waits;
        self.max_in_flight_observed = self.max_in_flight_observed.max(run.max_in_flight_observed);
        self.overload_rejections += run.overload_rejections;
    }
}

/// How [`drive`] reaches its topic for the phases that touch it. A `&mut LogTopic`
/// is its own access; the HTTP server's engine thread implements this by taking the
/// manager's write lock inside `with` and releasing it on return, so whatever
/// `drive` does between two `with` calls — all of the matching — holds no lock.
pub trait TopicAccess {
    /// Run `f` on the topic. Whatever exclusivity that needs is held for exactly
    /// this call.
    fn with<R>(&mut self, f: impl FnOnce(&mut LogTopic) -> R) -> R;
}

impl TopicAccess for LogTopic {
    fn with<R>(&mut self, f: impl FnOnce(&mut LogTopic) -> R) -> R {
        f(self)
    }
}

/// Which engine matches a batch handed to [`drive`].
#[derive(Debug, Clone, Copy)]
pub enum Route<'a> {
    /// The direct batch path: each chunk in one `match_ids_batch`.
    Batch,
    /// The streaming engine ([`StreamIngestor`]).
    Stream {
        /// Streaming-engine tuning.
        config: &'a IngestConfig,
        /// Back-pressure bound per push; `None` parks and never sheds.
        wait: Option<Duration>,
        /// Bound the pool's workers by the topic's provisioned parallelism (the
        /// paper's 1–5 cores per topic), as every multi-tenant caller does.
        clamp_to_topic: bool,
    },
}

/// Everything the match phase of an ingest reads, snapshotted by `LogTopic::prepare`:
/// matching on it touches no topic state, so it may run while readers hold the topic.
#[derive(Debug)]
pub(crate) struct MatchContext {
    pub(crate) model: Arc<ParserModel>,
    pub(crate) compiled: Arc<CompiledMatcher>,
    pub(crate) preprocessor: Arc<Preprocessor>,
    /// The topic's model key (`LogTopic::model_key`) when the snapshots were taken.
    pub(crate) model_key: (u64, usize),
    /// The topic's provisioned worker bound.
    pub(crate) parallelism: usize,
    /// Chunk length under `MaintenancePolicy::Incremental`; `None` takes the whole
    /// batch as one chunk.
    pub(crate) check_interval: Option<usize>,
}

impl MatchContext {
    /// Match a batch on the calling thread's scoped workers (the batch path).
    pub(crate) fn match_batch<S: AsRef<str> + Sync>(&self, batch: &[S]) -> BatchMatch {
        match_ids_batch(
            &self.model,
            &self.compiled,
            &self.preprocessor,
            batch,
            self.parallelism,
        )
    }
}

/// One ingest, cut into chunks: under `MaintenancePolicy::Incremental` every
/// `check_interval` records, otherwise the whole batch. Each chunk runs three phases,
/// of which only the outer two touch the topic:
///
/// 1. **prepare** (`LogTopic::prepare`, microseconds): snapshot
///    `(model, automaton, preprocessor)` and note the model key; it never compiles.
///    With no model yet there is nothing to match against, and the cold-start batch
///    is applied (and trained on) whole inside this one `with`.
/// 2. **match** (no topic state): mask → tokenise → DFA over the snapshots, on the
///    batch path or through a [`StreamIngestor`] built for the chunk. A push that
///    stays saturated past `wait` ends the ingest after the accepted prefix; the
///    unconsumed suffix is returned as shed.
/// 3. **apply**: store the records, insert temporaries, feed the drift window and
///    the trigger, run whatever maintenance fires — a retrain included — and commit
///    storage.
///
/// The route chooses only the engine, so both routes make the same maintenance
/// decisions at the same records. The chunk's snapshots are released before its
/// apply phase, so a temporary insertion patches the topic's model in place.
///
/// Returns the outcome of the applied prefix and the shed suffix (empty unless a
/// bounded stream overloaded).
pub fn drive<A: TopicAccess>(
    access: &mut A,
    records: Vec<String>,
    route: Route<'_>,
) -> (StreamOutcome, Vec<String>) {
    let mut outcome = IngestOutcome::default();
    let mut stats = IngestStats::default();
    let mut rejected = Vec::new();
    let mut rest = records.into_iter();
    loop {
        let prepared = access.with(|topic| {
            let context = topic.prepare();
            if context.is_none() {
                let lines = rest.as_slice();
                let mut nothing_matches = BatchMatch {
                    ids: vec![(None, SlotRange::default()); lines.len()],
                    slots: SlotBuffer::new(),
                };
                let key = topic.model_key();
                apply(topic, lines, &mut nothing_matches, key, &mut outcome);
            }
            context
        });
        let Some(context) = prepared else {
            break;
        };
        let matched_at = context.model_key;
        let len = context
            .check_interval
            .map_or(rest.len(), |n| n.min(rest.len()));
        match route {
            Route::Batch => {
                let chunk = &rest.as_slice()[..len];
                let mut matches = context.match_batch(chunk);
                drop(context); // the snapshots
                access.with(|topic| apply(topic, chunk, &mut matches, matched_at, &mut outcome));
                // The store copied the text: free the chunk outside the hold.
                rest.by_ref().take(len).for_each(drop);
            }
            Route::Stream {
                config,
                wait,
                clamp_to_topic,
            } => {
                let workers = if clamp_to_topic {
                    config.workers.min(context.parallelism)
                } else {
                    config.workers
                };
                let mut ingestor = StreamIngestor::new(
                    context.model,
                    context.preprocessor,
                    config.clone().with_workers(workers),
                )
                .with_compiled(context.compiled);
                let pushed = rest
                    .by_ref()
                    .take(len)
                    .try_for_each(|record| ingestor.push(record, wait));
                if let Err(overloaded) = pushed {
                    // Shed: keep the consistent accepted prefix, hand the rejected
                    // record and the un-pushed tail back verbatim.
                    rejected.push(overloaded.record);
                    rejected.extend(rest.by_ref());
                }
                // `finish` drops the engine and with it the snapshots.
                let (lines, mut matches, run) = ingestor.finish();
                stats.add(run);
                access.with(|topic| apply(topic, &lines, &mut matches, matched_at, &mut outcome));
            }
        }
        if rest.len() == 0 {
            break;
        }
    }
    (StreamOutcome { outcome, stats }, rejected)
}

/// The apply phase of [`drive`], on whatever hold `with` took: store the lines with
/// their matches, maintain, commit. The store copies the text; the lines, a string per
/// record, are the caller's to drop — after `with` returns, so no reader waits on the
/// frees.
fn apply(
    topic: &mut LogTopic,
    lines: &[String],
    matches: &mut BatchMatch,
    matched_at: (u64, usize),
    outcome: &mut IngestOutcome,
) {
    topic.apply_stream_records(lines, matches, matched_at, outcome);
    topic.maintain(outcome);
    topic.commit_storage();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytebrain::train::train;
    use bytebrain::TrainConfig;

    fn trained() -> (Arc<ParserModel>, Arc<Preprocessor>) {
        let records: Vec<String> = (0..200)
            .map(|i| {
                format!(
                    "job {} finished on host node-{:02} in {}ms",
                    i,
                    i % 16,
                    i % 500
                )
            })
            .collect();
        let config = TrainConfig::default();
        let preprocessor = Preprocessor::new(config.preprocess.clone());
        let model = train(&records, &preprocessor, &config).model;
        (Arc::new(model), Arc::new(preprocessor))
    }

    /// Push with an unbounded park, which never rejects.
    fn push_all(ingestor: &mut StreamIngestor, records: impl IntoIterator<Item = String>) {
        for record in records {
            ingestor.push(record, None).expect("unbounded push");
        }
    }

    fn stream(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                format!(
                    "job {} finished on host node-{:02} in {}ms",
                    i + 1000,
                    i % 16,
                    i % 777
                )
            })
            .collect()
    }

    #[test]
    fn every_pushed_record_comes_back_in_order() {
        let (model, pre) = trained();
        let mut ingestor =
            StreamIngestor::new(model, pre, IngestConfig::default().with_batch_records(64));
        push_all(&mut ingestor, stream(1_000));
        let (lines, matches, stats) = ingestor.finish();
        assert_eq!(
            lines,
            stream(1_000),
            "records must come back in arrival order"
        );
        assert_eq!(matches.ids.len(), 1_000);
        assert_eq!(stats.records, 1_000);
        assert!(stats.bytes > 0);
        assert_eq!(stats.matched + stats.unmatched, 1_000);
        assert!(stats.matched > 900, "stream shape was trained: {stats:?}");
    }

    #[test]
    fn batches_are_contiguous_runs_of_arrivals() {
        let (model, pre) = trained();
        let config = IngestConfig::default().with_batch_records(64);
        let mut ingestor = StreamIngestor::new(model, pre, config);
        push_all(&mut ingestor, stream(1_000));
        ingestor.settle();
        // ⌈1000/64⌉ batches, all full but the last, each one run of arrivals.
        let all = stream(1_000);
        assert_eq!(ingestor.completed.len(), 16);
        for (i, slot) in ingestor.completed.iter().enumerate() {
            let batch = slot.as_ref().expect("synced");
            let start = i * 64;
            let end = (start + 64).min(1_000);
            assert_eq!(batch.batch_id, i as u64);
            assert_eq!(batch.lines, all[start..end]);
        }
        assert_eq!(ingestor.stats().submitted_batches, 16);
        assert_eq!(ingestor.finish().0.len(), 1_000);
    }

    #[test]
    fn backpressure_bounds_outstanding_batches() {
        let (model, pre) = trained();
        let config = IngestConfig::default()
            .with_batch_records(10)
            .with_max_in_flight(2);
        let mut ingestor = StreamIngestor::new(model, pre, config);
        push_all(&mut ingestor, stream(2_000));
        let (lines, _, stats) = ingestor.finish();
        assert_eq!(lines.len(), 2_000);
        assert!(
            stats.max_in_flight_observed <= 2,
            "bound violated: {}",
            stats.max_in_flight_observed
        );
        assert_eq!(stats.submitted_batches, stats.completed_batches);
        // The blocked-wait counter must still increment (200 batches through a
        // 2-deep window has to park), but each episode is counted exactly once:
        // a busy-wait loop would rack up counts far past the number of batches
        // that could possibly have released it.
        assert!(
            stats.backpressure_waits > 0,
            "200 batches through max_in_flight=2 must block at least once"
        );
        assert!(
            stats.backpressure_waits <= stats.submitted_batches,
            "spin-poll detected: {} waits for {} batches",
            stats.backpressure_waits,
            stats.submitted_batches
        );
    }

    #[test]
    fn finishing_an_empty_engine_returns_nothing() {
        let (model, pre) = trained();
        let ingestor = StreamIngestor::new(model, pre, IngestConfig::default());
        let (lines, matches, stats) = ingestor.finish();
        assert!(lines.is_empty());
        assert!(matches.ids.is_empty());
        assert_eq!(stats, IngestStats::default());
    }

    #[test]
    fn unmatched_records_are_counted() {
        let (model, pre) = trained();
        let mut ingestor = StreamIngestor::new(model, pre, IngestConfig::default());
        push_all(
            &mut ingestor,
            [
                "job 77 finished on host node-03 in 9ms".to_string(),
                "segfault at 0xffff in thread reaper".to_string(),
            ],
        );
        let (lines, matches, stats) = ingestor.finish();
        assert_eq!(stats.matched, 1);
        assert_eq!(stats.unmatched, 1);
        let unmatched = matches.ids.iter().position(|(node, _)| node.is_none());
        assert!(lines[unmatched.unwrap()].contains("segfault"));
    }

    #[test]
    fn saturated_pool_yields_overloaded_instead_of_hanging() {
        let (model, pre) = trained();
        // One worker, one slot: the 40k-record batch flushed below keeps the single
        // worker busy for tens of milliseconds, so the zero-wait push that follows
        // finds the pool saturated before the worker can drain it.
        let config = IngestConfig::default()
            .with_batch_records(40_000)
            .with_max_in_flight(1)
            .with_workers(1);
        let mut ingestor = StreamIngestor::new(model, pre, config);
        push_all(&mut ingestor, stream(40_000));
        assert_eq!(
            ingestor.stats().submitted_batches,
            1,
            "the size bound must have flushed exactly one in-flight batch"
        );
        let rejected = ingestor
            .push(
                "job 99999 finished on host node-03 in 5ms",
                Some(Duration::ZERO),
            )
            .expect_err("zero-wait push against a saturated pool must be rejected");
        assert_eq!(rejected.record, "job 99999 finished on host node-03 in 5ms");
        assert_eq!(ingestor.stats().overload_rejections, 1);
        // A generous bound lets the slot free up: the same record is then accepted.
        ingestor
            .push(rejected.record, Some(Duration::from_secs(30)))
            .expect("bounded push must succeed once the worker drains the batch");
        let (lines, _, stats) = ingestor.finish();
        assert_eq!(lines.len(), 40_001, "rejected record re-admitted");
        assert_eq!(stats.overload_rejections, 1);
    }
}
