//! Batched streaming ingestion engine (§3 "System Design": online matching must keep up
//! with ingestion across thousands of topics).
//!
//! [`StreamIngestor`] is the high-throughput alternative to calling
//! [`LogTopic::ingest`](crate::topic::LogTopic::ingest) one record (or one small batch)
//! at a time. [`StreamIngestor::push`] appends records to the one open batch, which is
//! flushed when it reaches `batch_records` (size bound) or when its oldest record has
//! waited `flush_interval` (time bound). Every flushed batch is a contiguous run of
//! arrival sequence numbers, and flushed batches are matched in parallel by the shared
//! [`MatcherPool`] over an immutable (model, automaton) snapshot pair.
//!
//! The matching hot path is zero-copy end to end: every pool worker keeps a private
//! [`logtok::TokenScratch`], records travel to the workers and back by move, and the
//! lean [`MatchId`](crate::matcher_pool::MatchId) results carry no rendered template
//! text — only the node and the range of the record's variable slots, which the worker
//! read off the view it matched on and the topic stores as they are.
//!
//! Back-pressure is explicit: at most `max_in_flight` batches may be submitted and
//! unharvested; a `push` that would exceed the bound first blocks on the next finished
//! batch — indefinitely, or for the caller's wait bound, after which the record comes
//! back in [`Overloaded`]. [`IngestStats`] reports the waits, the high-water mark, and
//! the record/flush counters so saturation is observable rather than silent.
//!
//! ```text
//!        push
//!         │
//!         ▼
//!    [open batch]            one buffer; size / time / forced flush
//!         │ contiguous seq run
//!         ▼
//!    MatcherPool             worker threads, one (model, automaton) pair per
//!         │                  batch, per-worker TokenScratch and MatchCache
//!         ▼
//!    IdBatchResult  ──────►  released in batch order (= arrival order)
//! ```
//!
//! The module also holds the ingest **driver**, [`drive`]: the prepare → match → apply
//! sequence every ingest entry point runs, written once and parameterised by how it
//! reaches the topic ([`TopicAccess`]) and by which engine matches ([`Route`]).

use crate::matcher_pool::{IdBatchResult, MatcherPool, StreamRecord};
use crate::topic::{IngestOutcome, LogTopic, StreamOutcome, StreamOverloaded};
use bytebrain::matcher::match_ids_batch;
use bytebrain::{BatchMatch, CompiledMatcher, NodeId, ParserModel, SlotBuffer, SlotRange};
use logtok::Preprocessor;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Pushes between time-bound staleness checks on the hot path: `push` consults
/// the clock only every this many records (plus whenever a batch flushes),
/// keeping `Instant::now` off the per-record cost. [`StreamIngestor::poll`]
/// always applies the time bound exactly.
const STALE_CHECK_INTERVAL: u64 = 64;

/// Configuration of the streaming ingestion engine.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Size bound: the open batch flushes when it holds this many records.
    pub batch_records: usize,
    /// Time bound: a partial batch flushes once its oldest record has waited this
    /// long (checked periodically on push and exactly in [`StreamIngestor::poll`]).
    pub flush_interval: Duration,
    /// Back-pressure bound: the maximum number of flushed-but-unharvested batches.
    pub max_in_flight: usize,
    /// Matcher pool worker threads (the paper bounds production topics to 1–5 cores).
    pub workers: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            batch_records: 512,
            flush_interval: Duration::from_millis(50),
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

    /// Override the time-based flush bound.
    pub fn with_flush_interval(mut self, interval: Duration) -> Self {
        self.flush_interval = interval;
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
    /// Flushes triggered by the size bound.
    pub size_flushes: u64,
    /// Flushes triggered by the time bound.
    pub time_flushes: u64,
    /// Flushes triggered by an explicit [`StreamIngestor::flush`] / `finish`.
    pub forced_flushes: u64,
    /// Batches submitted to the matcher pool (the sum of the three flush counters).
    pub submitted_batches: u64,
    /// Batches whose results have been harvested.
    pub completed_batches: u64,
    /// Blocked back-pressure episodes: times a flush parked on the results channel
    /// because `max_in_flight` batches were outstanding. Counted once per episode
    /// (not once per poll), so it is bounded by `submitted_batches` — a spin-poll
    /// regression would blow far past that bound.
    pub backpressure_waits: u64,
    /// High-water mark of outstanding batches.
    pub max_in_flight_observed: usize,
    /// Model snapshots hot-swapped in via [`StreamIngestor::swap_model`].
    pub model_swaps: u64,
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

/// One record that has completed matching.
#[derive(Debug, Clone)]
pub struct MatchedRecord {
    /// Arrival sequence number (0-based); [`IngestReport::records`] is sorted by it.
    pub seq: u64,
    /// The raw record text.
    pub record: String,
    /// Matched template, `None` when no template matched.
    pub node: Option<NodeId>,
    /// Saturation of the matched template (0 when unmatched).
    pub saturation: f64,
    /// The record's variable slots, in the [`SlotBuffer`] it travels with — every
    /// token when no template matched ([`SlotBuffer::extract`]).
    pub slots: SlotRange,
}

/// Records that completed matching, in arrival order, and the variable slots their
/// matches extracted (each record's [`MatchedRecord::slots`] names a range of `slots`).
#[derive(Debug, Default)]
pub struct MatchedChunk {
    /// The records with their match outcomes.
    pub records: Vec<MatchedRecord>,
    /// The slots the records' ranges point into.
    pub slots: SlotBuffer,
}

/// Result of a completed streaming run.
#[derive(Debug)]
pub struct IngestReport {
    /// The completed records with their match outcomes, sorted by arrival order.
    /// When [`StreamIngestor::drain_completed`] harvested records mid-stream, this
    /// holds only the records released after the last harvest; [`IngestStats`]
    /// always covers the full run.
    pub records: Vec<MatchedRecord>,
    /// The variable slots `records` name.
    pub slots: SlotBuffer,
    /// Counters and back-pressure statistics of the run.
    pub stats: IngestStats,
    /// Wall-clock duration from engine construction to `finish`.
    pub elapsed: Duration,
}

impl IngestReport {
    /// Records matched to an existing template.
    pub fn matched(&self) -> u64 {
        self.stats.matched
    }

    /// Records that matched no template.
    pub fn unmatched(&self) -> u64 {
        self.stats.unmatched
    }

    /// Throughput of the run in records per second, counting every ingested record
    /// (including those harvested mid-stream via
    /// [`StreamIngestor::drain_completed`]).
    ///
    /// A report taken before any measurable work (elapsed ≈ 0) yields `0.0`, never
    /// `inf`/`NaN`.
    pub fn records_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 && self.stats.records > 0 {
            self.stats.records as f64 / secs
        } else {
            0.0
        }
    }
}

/// Why a batch is being flushed (drives the flush counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    Size,
    Time,
    Forced,
}

/// The streaming ingestion engine: accumulates records into one open batch and
/// drives flushed batches through a [`MatcherPool`] in parallel. See the module
/// documentation for the data flow.
#[derive(Debug)]
pub struct StreamIngestor {
    config: IngestConfig,
    pool: MatcherPool,
    /// The model snapshot captured at the next flush. [`StreamIngestor::swap_model`]
    /// replaces it; already-flushed batches keep the snapshot they were flushed under.
    model: Arc<ParserModel>,
    /// The automaton compiled from `model`, swapped together with it so a flushed
    /// batch always carries a mutually consistent pair. An engine handed no
    /// snapshot compiles one at its first flush.
    compiled: OnceLock<Arc<CompiledMatcher>>,
    /// Records of the open batch, each carrying its admission-time line hash.
    pending: Vec<StreamRecord>,
    /// When the oldest pending record arrived (None while the batch is empty).
    opened_at: Option<Instant>,
    stats: IngestStats,
    /// Finished batches as a batch-indexed ring: slot `i` holds batch
    /// `next_release + i` (None until it lands). Batches are contiguous sequence
    /// runs submitted in order, so releasing them front to back releases records
    /// in arrival order however the batches raced through the pool.
    completed: VecDeque<Option<IdBatchResult>>,
    /// First batch id not yet released by [`StreamIngestor::drain_completed`].
    next_release: u64,
    in_flight: usize,
    /// Emptied batch buffers recycled into the open batch, so steady-state pushes
    /// append into already-allocated Vecs.
    spare_batches: Vec<Vec<StreamRecord>>,
    started: Instant,
}

impl StreamIngestor {
    /// Build an engine over an immutable model snapshot. The model is shared with the
    /// pool workers via `Arc`; training a new model means building a new engine, which
    /// mirrors how the production system rolls models forward without locking the
    /// ingestion path.
    pub fn new(
        model: Arc<ParserModel>,
        preprocessor: Arc<Preprocessor>,
        config: IngestConfig,
    ) -> Self {
        let config = IngestConfig {
            batch_records: config.batch_records.max(1),
            max_in_flight: config.max_in_flight.max(1),
            workers: config.workers.max(1),
            ..config
        };
        StreamIngestor {
            pool: MatcherPool::new(preprocessor, config.workers),
            config,
            model,
            compiled: OnceLock::new(),
            pending: Vec::new(),
            opened_at: None,
            stats: IngestStats::default(),
            completed: VecDeque::new(),
            next_release: 0,
            in_flight: 0,
            spare_batches: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Hand the engine an automaton already compiled from its current model, sparing
    /// it the compile at the first flush (builder-style; call before pushing records
    /// or swap via [`StreamIngestor::swap_model`]).
    pub fn with_compiled(mut self, compiled: Arc<CompiledMatcher>) -> Self {
        self.compiled = OnceLock::from(compiled);
        self
    }

    /// Hot-swap the model snapshot and the automaton compiled from it. The swap
    /// takes effect at flush boundaries: batches flushed after this call are matched
    /// against `model`, batches already submitted keep the snapshot pair they were
    /// flushed under. This is how incremental maintenance rolls a patched model into
    /// a live stream without tearing down the worker pool or pausing ingestion.
    pub fn swap_model(&mut self, model: Arc<ParserModel>, compiled: Arc<CompiledMatcher>) {
        self.model = model;
        self.compiled = OnceLock::from(compiled);
        self.stats.model_swaps += 1;
    }

    /// The model snapshot that the next flushed batch will be matched against.
    pub fn current_model(&self) -> &Arc<ParserModel> {
        &self.model
    }

    /// The engine's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
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
        let seq = self.stats.records;
        self.stats.records += 1;
        self.stats.bytes += record.len() as u64;
        if self.pending.is_empty() {
            self.opened_at = Some(Instant::now());
        }
        self.pending.push(StreamRecord::new(seq, record));
        if self.pending.len() >= self.config.batch_records {
            // Harvest finished batches at flush boundaries (bounded lag: at
            // most `max_in_flight` batches ever wait in the result channel).
            self.drain_ready();
            self.flush_batch(FlushReason::Size);
        } else if seq.is_multiple_of(STALE_CHECK_INTERVAL) {
            self.flush_if_stale();
        }
        Ok(())
    }

    /// Flush the open batch if it has exceeded the time bound and harvest finished
    /// results. Long-lived callers with bursty input should call this periodically;
    /// `push` also applies the time bound every few records.
    pub fn poll(&mut self) {
        self.flush_if_stale();
        self.drain_ready();
    }

    /// Force-flush the open batch regardless of the size/time bounds.
    pub fn flush(&mut self) {
        self.flush_batch(FlushReason::Forced);
    }

    fn flush_if_stale(&mut self) {
        let interval = self.config.flush_interval;
        if self
            .opened_at
            .is_some_and(|opened| opened.elapsed() >= interval)
        {
            self.flush_batch(FlushReason::Time);
        }
    }

    fn flush_batch(&mut self, reason: FlushReason) {
        if self.pending.is_empty() {
            return;
        }
        let refill = self.spare_batches.pop().unwrap_or_default();
        let batch = std::mem::replace(&mut self.pending, refill);
        self.opened_at = None;
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
        match reason {
            FlushReason::Size => self.stats.size_flushes += 1,
            FlushReason::Time => self.stats.time_flushes += 1,
            FlushReason::Forced => self.stats.forced_flushes += 1,
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
        let matched = result.results.iter().filter(|id| id.node.is_some()).count() as u64;
        self.stats.matched += matched;
        self.stats.unmatched += result.results.len() as u64 - matched;
        // Slot `batch_id - next_release` in the completed ring; a released batch
        // never lands again, so the index never underflows.
        let slot = (result.batch_id - self.next_release) as usize;
        if slot >= self.completed.len() {
            self.completed.resize_with(slot + 1, || None);
        }
        self.completed[slot] = Some(result);
    }

    /// Harvest finished batches without blocking and return the records that form a
    /// contiguous arrival-order prefix (i.e. every batch up to the first one still
    /// outstanding). Long-lived callers use this to apply results — and detect
    /// drift — while the stream is still running; the contiguity guarantee keeps
    /// downstream application order identical to the batch path regardless of how
    /// batches raced through the pool.
    pub fn drain_completed(&mut self) -> MatchedChunk {
        self.drain_ready();
        let mut out = MatchedChunk::default();
        while matches!(self.completed.front(), Some(Some(_))) {
            let IdBatchResult {
                mut records,
                results,
                slots,
                ..
            } = self.completed.pop_front().flatten().expect("checked Some");
            let moved = out.slots.append(&slots);
            out.records.extend(
                records
                    .drain(..)
                    .zip(results)
                    .map(|(record, id)| MatchedRecord {
                        seq: record.seq,
                        record: record.line,
                        node: id.node,
                        saturation: id.saturation,
                        slots: id.slots.shifted(moved),
                    }),
            );
            self.spare_batches.push(records);
            self.next_release += 1;
        }
        out
    }

    /// Force-flush the open batch and block until every in-flight batch has been
    /// absorbed: after `sync` returns, [`StreamIngestor::drain_completed`]
    /// releases everything pushed so far.
    /// [`LogTopic::ingest_stream`](crate::LogTopic::ingest_stream) calls this at
    /// drift-check boundaries so maintenance decisions — and mid-stream model
    /// hot-swaps — depend only on the record sequence, never on worker
    /// scheduling. That determinism is what lets the differential suite assert
    /// *byte-identical* assignments across runs.
    ///
    /// # Panics
    /// Panics if pool workers died with batches outstanding.
    pub fn sync(&mut self) {
        self.flush();
        while self.in_flight > 0 {
            self.absorb_next();
        }
    }

    /// Flush everything, wait for all outstanding batches, shut the pool down, and
    /// return the full report with records in arrival order. When
    /// [`StreamIngestor::drain_completed`] harvested records mid-stream, the report
    /// contains only the records released after the last harvest.
    ///
    /// # Panics
    /// Panics if pool workers died with batches outstanding (records would otherwise
    /// be silently dropped from the report).
    pub fn finish(mut self) -> IngestReport {
        self.sync();
        let MatchedChunk { records, slots } = self.drain_completed();
        IngestReport {
            elapsed: self.started.elapsed(),
            records,
            slots,
            stats: std::mem::take(&mut self.stats),
        }
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
    /// The direct batch path: the whole batch in one `match_ids_batch`.
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
    /// The topic's model version when the snapshots were taken.
    pub(crate) model_version: u64,
    /// The topic's provisioned worker bound.
    pub(crate) parallelism: usize,
    /// Mid-stream checkpoint spacing under `MaintenancePolicy::Incremental`.
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

/// One ingest, in three phases, of which only the outer two touch the topic:
///
/// 1. **prepare** (`LogTopic::prepare`, microseconds): snapshot
///    `(model, automaton, preprocessor)` and note the model version; it never compiles.
///    With no model yet there is nothing to match against, and the cold-start batch
///    is applied (and trained on) whole inside this one `with`.
/// 2. **match** (no topic state): mask → tokenise → DFA over the snapshots, on the
///    batch path or through a [`StreamIngestor`]. A push that stays saturated past
///    `wait` ends the stream; the unconsumed suffix is returned as shed.
/// 3. **apply**: store the records, insert temporaries, feed the drift window and
///    the trigger, run whatever maintenance fires — a retrain included — and commit
///    storage. Under incremental maintenance a stream checkpoints every
///    `check_interval` records: sync, apply the drained prefix, and roll a patched
///    model into the running engine. Each checkpoint is one more apply phase.
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
    let prepared = access.with(|topic| match topic.prepare() {
        Some(context) => Some((context, records)),
        None => {
            let nothing_matches = BatchMatch {
                ids: vec![(None, 0.0, SlotRange::default()); records.len()],
                slots: SlotBuffer::new(),
            };
            let mut cold = matched_chunk(records, nothing_matches);
            apply(topic, &mut cold, topic.model_version(), false, &mut outcome);
            None
        }
    });
    let Some((context, records)) = prepared else {
        return (StreamOutcome { outcome, stats }, rejected);
    };
    match route {
        Route::Batch => {
            let results = context.match_batch(&records);
            let matched_at = context.model_version;
            // Release the snapshots before applying: a temporary insertion must
            // patch the topic's model in place, not copy a shared one.
            drop(context);
            let mut chunk = matched_chunk(records, results);
            access.with(|topic| apply(topic, &mut chunk, matched_at, false, &mut outcome));
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
            let mut matched_at = context.model_version;
            let mut ingestor = StreamIngestor::new(
                context.model,
                context.preprocessor,
                config.clone().with_workers(workers),
            )
            .with_compiled(context.compiled);
            let mut since_check = 0usize;
            let mut swapped = false;
            let mut records = records.into_iter();
            for record in records.by_ref() {
                if let Err(overloaded) = ingestor.push(record, wait) {
                    // Shed: keep the consistent accepted prefix, hand the
                    // rejected record and the un-pushed tail back verbatim.
                    rejected.push(overloaded.record);
                    rejected.extend(records);
                    break;
                }
                since_check += 1;
                if context.check_interval.is_some_and(|n| since_check >= n) {
                    since_check = 0;
                    // Deterministic checkpoint: flush the open batch and wait for
                    // all in-flight batches, so the drift detector always sees
                    // the exact pushed prefix. An opportunistic (non-blocking)
                    // harvest here made maintenance timing — and therefore the
                    // patched model — depend on worker scheduling, which broke
                    // run-to-run byte-identity of the incremental path.
                    ingestor.sync();
                    let mut drained = ingestor.drain_completed();
                    // Durability tracks the checkpoint: the drained records and any
                    // maintenance event land on disk before the stream resumes.
                    let swap = access.with(|topic| {
                        let replaced =
                            apply(topic, &mut drained, matched_at, swapped, &mut outcome);
                        matched_at = topic.model_version();
                        replaced.then(|| (topic.model_snapshot(), topic.compiled_snapshot()))
                    });
                    if let Some((model, compiled)) = swap {
                        // Roll the topic's model and its automaton into the
                        // running stream as one consistent snapshot pair;
                        // batches flushed from here on match against it.
                        ingestor.swap_model(model, compiled);
                        swapped = true;
                    }
                }
            }
            // `finish` drops the engine and with it the snapshots, so a temporary
            // insertion below does not copy the model.
            let report = ingestor.finish();
            stats = report.stats;
            let mut chunk = MatchedChunk {
                records: report.records,
                slots: report.slots,
            };
            access.with(|topic| apply(topic, &mut chunk, matched_at, swapped, &mut outcome));
        }
    }
    (StreamOutcome { outcome, stats }, rejected)
}

/// What [`drive`] returns as the bounded entry points' `Result`: a shed suffix makes
/// the call an `Err` carrying the committed prefix's outcome.
pub(crate) fn shed_as_error(
    (outcome, rejected): (StreamOutcome, Vec<String>),
) -> Result<StreamOutcome, Box<StreamOverloaded>> {
    if rejected.is_empty() {
        Ok(outcome)
    } else {
        Err(Box::new(StreamOverloaded { outcome, rejected }))
    }
}

/// Pair a batch's records with their match results, in arrival order.
fn matched_chunk(records: Vec<String>, results: BatchMatch) -> MatchedChunk {
    let pairs = records.into_iter().zip(results.ids).enumerate();
    let records = pairs
        .map(|(seq, (record, (node, saturation, slots)))| MatchedRecord {
            seq: seq as u64,
            record,
            node,
            saturation,
            slots,
        })
        .collect();
    MatchedChunk {
        records,
        slots: results.slots,
    }
}

/// The apply phase of [`drive`], on whatever hold `with` took: store the chunk,
/// maintain, commit. The store copies the chunk's text; the chunk, a string per
/// record, is the caller's to drop — after `with` returns, so no reader waits on the
/// frees. Returns whether the model the chunk was matched against has
/// been replaced — by a maintenance run this phase, or before it (a stale context,
/// re-matched by `LogTopic::apply_stream_records`) — so a running stream must
/// take the topic's new snapshot pair.
fn apply(
    topic: &mut LogTopic,
    chunk: &mut MatchedChunk,
    matched_at: u64,
    rematch_stale: bool,
    outcome: &mut IngestOutcome,
) -> bool {
    let stale_context = topic.apply_stream_records(chunk, matched_at, rematch_stale, outcome);
    let maintained_before = outcome.maintained;
    topic.maintain(outcome);
    topic.commit_storage();
    stale_context || outcome.maintained > maintained_before
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
        let model = train(&records, &config).model;
        (
            Arc::new(model),
            Arc::new(Preprocessor::new(config.preprocess.clone())),
        )
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
        let report = ingestor.finish();
        assert_eq!(report.records.len(), 1_000);
        for (i, record) in report.records.iter().enumerate() {
            assert_eq!(record.seq, i as u64, "records must be seq-ordered");
        }
        assert_eq!(report.stats.records, 1_000);
        assert!(report.stats.bytes > 0);
        assert_eq!(report.matched() + report.unmatched(), 1_000);
        assert!(
            report.matched() > 900,
            "stream shape was trained: {report:?}"
        );
    }

    #[test]
    fn batches_are_contiguous_sequence_runs() {
        let (model, pre) = trained();
        let config = IngestConfig::default()
            .with_batch_records(64)
            .with_flush_interval(Duration::from_secs(3_600));
        let mut ingestor = StreamIngestor::new(model, pre, config);
        push_all(&mut ingestor, stream(1_000));
        ingestor.sync();
        // ⌈1000/64⌉ batches, all full but the last, each one run of sequence numbers.
        assert_eq!(ingestor.completed.len(), 16);
        for (i, slot) in ingestor.completed.iter().enumerate() {
            let batch = slot.as_ref().expect("synced");
            let start = i as u64 * 64;
            let len = if i < 15 { 64 } else { 1_000 - 15 * 64 };
            assert_eq!(batch.batch_id, i as u64);
            assert!(batch.records.iter().map(|r| r.seq).eq(start..start + len));
        }
        assert_eq!(ingestor.stats().size_flushes, 15);
        assert_eq!(ingestor.stats().forced_flushes, 1);
        assert_eq!(ingestor.finish().records.len(), 1_000);
    }

    #[test]
    fn time_bound_flushes_partial_batches() {
        let (model, pre) = trained();
        let config = IngestConfig::default()
            .with_batch_records(1_000_000)
            .with_flush_interval(Duration::from_millis(1));
        let mut ingestor = StreamIngestor::new(model, pre, config);
        push_all(
            &mut ingestor,
            ["job 1 finished on host node-01 in 5ms".to_string()],
        );
        std::thread::sleep(Duration::from_millis(5));
        ingestor.poll();
        assert_eq!(
            ingestor.stats().time_flushes,
            1,
            "stale partial batch must flush on poll"
        );
        let report = ingestor.finish();
        assert_eq!(report.records.len(), 1);
    }

    #[test]
    fn backpressure_bounds_outstanding_batches() {
        let (model, pre) = trained();
        let config = IngestConfig::default()
            .with_batch_records(10)
            .with_max_in_flight(2);
        let mut ingestor = StreamIngestor::new(model, pre, config);
        push_all(&mut ingestor, stream(2_000));
        let report = ingestor.finish();
        assert_eq!(report.records.len(), 2_000);
        assert!(
            report.stats.max_in_flight_observed <= 2,
            "bound violated: {}",
            report.stats.max_in_flight_observed
        );
        assert_eq!(
            report.stats.submitted_batches,
            report.stats.completed_batches
        );
        // The blocked-wait counter must still increment (200 batches through a
        // 2-deep window has to park), but each episode is counted exactly once:
        // a busy-wait loop would rack up counts far past the number of batches
        // that could possibly have released it.
        assert!(
            report.stats.backpressure_waits > 0,
            "200 batches through max_in_flight=2 must block at least once"
        );
        assert!(
            report.stats.backpressure_waits <= report.stats.submitted_batches,
            "spin-poll detected: {} waits for {} batches",
            report.stats.backpressure_waits,
            report.stats.submitted_batches
        );
    }

    #[test]
    fn empty_report_throughput_is_finite_zero() {
        let (model, pre) = trained();
        // Finish immediately: no records, elapsed ≈ 0 — the old code returned
        // `inf` here, which is now persisted into segment metadata and must be 0.
        let ingestor = StreamIngestor::new(model, pre, IngestConfig::default());
        let report = ingestor.finish();
        assert_eq!(report.records.len(), 0);
        assert_eq!(report.stats, IngestStats::default());
        let rps = report.records_per_second();
        assert!(rps.is_finite(), "throughput must be finite, got {rps}");
        assert_eq!(rps, 0.0);

        // Zero-duration report constructed directly (fields are public).
        let zero = IngestReport {
            records: Vec::new(),
            slots: SlotBuffer::new(),
            stats: report.stats,
            elapsed: Duration::ZERO,
        };
        assert_eq!(zero.records_per_second(), 0.0);
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
        let report = ingestor.finish();
        assert_eq!(report.matched(), 1);
        assert_eq!(report.unmatched(), 1);
        let unmatched_record = report.records.iter().find(|r| r.node.is_none()).unwrap();
        assert!(unmatched_record.record.contains("segfault"));
        assert_eq!(unmatched_record.saturation, 0.0);
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
        let report = ingestor.finish();
        assert_eq!(report.records.len(), 40_001, "rejected record re-admitted");
        assert_eq!(report.stats.overload_rejections, 1);
    }

    #[test]
    fn report_throughput_is_positive() {
        let (model, pre) = trained();
        let mut ingestor = StreamIngestor::new(model, pre, IngestConfig::default());
        push_all(&mut ingestor, stream(100));
        let report = ingestor.finish();
        assert!(report.records_per_second() > 0.0);
        assert!(report.elapsed > Duration::ZERO);
    }
}
