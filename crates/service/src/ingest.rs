//! Sharded streaming ingestion engine (§3 "System Design": online matching must keep up
//! with ingestion across thousands of topics).
//!
//! [`StreamIngestor`] is the high-throughput alternative to calling
//! [`LogTopic::ingest`](crate::topic::LogTopic::ingest) one record (or one small batch)
//! at a time. [`StreamIngestor::push`] routes records to one of `shards` per-topic
//! shard buffers by a rotating counter (maximally balanced; the completed-record ring
//! restores arrival order whatever the routing). Each shard accumulates a batch that
//! is flushed when it reaches `batch_records` (size bound) or when its oldest record
//! has waited `flush_interval` (time bound), and flushed batches are matched in
//! parallel by the shared [`MatcherPool`] over an immutable model snapshot.
//!
//! The matching hot path is zero-copy end to end: every pool worker keeps a private
//! [`logtok::TokenScratch`], records travel to the workers and back by move, and the
//! lean [`MatchId`](crate::matcher_pool::MatchId) results carry no rendered template
//! text.
//!
//! Back-pressure is explicit: at most `max_in_flight` batches may be submitted and
//! unharvested; a `push` that would exceed the bound first blocks on the next finished
//! batch — indefinitely, or for the caller's wait bound, after which the record comes
//! back in [`Overloaded`]. [`IngestStats`] reports the waits, the high-water mark, and
//! per-shard counters so saturation is observable rather than silent.
//!
//! ```text
//!                   push
//!                    │ route (round-robin)
//!        ┌───────────┼─────────────┐
//!        ▼           ▼             ▼
//!    [shard 0]   [shard 1]  …  [shard N-1]     per-shard batch buffers
//!        │ size / time flush     │
//!        ▼                       ▼
//!            MatcherPool (worker threads, shared model snapshot,
//!            per-worker TokenScratch — zero-copy preprocessing)
//!        │                       │
//!        ▼                       ▼
//!     IdBatchResult  ──────►  completed records (seq-ordered on finish)
//! ```

use crate::matcher_pool::{IdBatchResult, MatcherPool, StreamRecord};
use bytebrain::{CompiledMatcher, NodeId, ParserModel};
use logtok::{hash_line, Preprocessor};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pushes between time-bound staleness checks on the hot path: `push` consults
/// the clock only every this many records (plus whenever a batch flushes),
/// keeping `Instant::now` off the per-record cost. [`StreamIngestor::poll`]
/// always applies the time bound exactly.
const STALE_CHECK_INTERVAL: u64 = 64;

/// Configuration of the sharded streaming ingestion engine.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Number of shard buffers records are routed to.
    pub shards: usize,
    /// Size bound: a shard flushes its batch when it holds this many records.
    pub batch_records: usize,
    /// Time bound: a shard flushes a partial batch once its oldest record has waited
    /// this long (checked on every push and in [`StreamIngestor::poll`]).
    pub flush_interval: Duration,
    /// Back-pressure bound: the maximum number of flushed-but-unharvested batches.
    pub max_in_flight: usize,
    /// Matcher pool worker threads (the paper bounds production topics to 1–5 cores).
    pub workers: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            shards: 4,
            batch_records: 512,
            flush_interval: Duration::from_millis(50),
            max_in_flight: 8,
            workers: 4,
        }
    }
}

impl IngestConfig {
    /// Override the shard count (clamped to at least 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

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

/// Monotonic counters of one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Records routed to this shard.
    pub records: u64,
    /// Bytes routed to this shard (record text only).
    pub bytes: u64,
    /// Batches flushed from this shard.
    pub batches: u64,
    /// Records of this shard matched to an existing template.
    pub matched: u64,
    /// Records of this shard that matched no template.
    pub unmatched: u64,
    /// Flushes triggered by the size bound.
    pub size_flushes: u64,
    /// Flushes triggered by the time bound.
    pub time_flushes: u64,
    /// Flushes triggered by an explicit [`StreamIngestor::flush`] / `finish`.
    pub forced_flushes: u64,
}

/// Aggregate statistics of one streaming run, including back-pressure behaviour.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardCounters>,
    /// Batches submitted to the matcher pool.
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

impl IngestStats {
    /// Total records routed, across shards.
    pub fn records(&self) -> u64 {
        self.shards.iter().map(|s| s.records).sum()
    }

    /// Total records matched to an existing template, across shards.
    pub fn matched(&self) -> u64 {
        self.shards.iter().map(|s| s.matched).sum()
    }

    /// Total records that matched no template, across shards.
    pub fn unmatched(&self) -> u64 {
        self.shards.iter().map(|s| s.unmatched).sum()
    }
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
    /// Shard the record was routed to.
    pub shard: usize,
    /// The raw record text.
    pub record: String,
    /// Matched template, `None` when no template matched.
    pub node: Option<NodeId>,
    /// Saturation of the matched template (0 when unmatched).
    pub saturation: f64,
}

/// Result of a completed streaming run.
#[derive(Debug)]
pub struct IngestReport {
    /// The completed records with their match outcomes, sorted by arrival order.
    /// When [`StreamIngestor::drain_completed`] harvested records mid-stream, this
    /// holds only the records released after the last harvest; [`IngestStats`]
    /// always covers the full run.
    pub records: Vec<MatchedRecord>,
    /// Shard/back-pressure statistics of the run.
    pub stats: IngestStats,
    /// Wall-clock duration from engine construction to `finish`.
    pub elapsed: Duration,
}

impl IngestReport {
    /// Records matched to an existing template.
    pub fn matched(&self) -> u64 {
        self.stats.matched()
    }

    /// Records that matched no template.
    pub fn unmatched(&self) -> u64 {
        self.stats.unmatched()
    }

    /// Throughput of the run in records per second, counting every ingested record
    /// (including those harvested mid-stream via
    /// [`StreamIngestor::drain_completed`]).
    ///
    /// A report taken before any measurable work (elapsed ≈ 0) yields `0.0`, never
    /// `inf`/`NaN` — the value is persisted into segment metadata, which forbids
    /// non-finite floats.
    pub fn records_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 && self.stats.records() > 0 {
            self.stats.records() as f64 / secs
        } else {
            0.0
        }
    }
}

/// One shard's batch buffer.
#[derive(Debug, Default)]
struct ShardBuffer {
    /// Records of the open batch, each carrying its admission-time line hash.
    pending: Vec<StreamRecord>,
    /// When the oldest pending record arrived (None while empty).
    opened_at: Option<Instant>,
}

/// Why a shard batch is being flushed (drives the per-shard flush counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    Size,
    Time,
    Forced,
}

/// The sharded streaming ingestion engine: routes records to shard buffers, batches
/// them, and drives batches through a [`MatcherPool`] in parallel. See the module
/// documentation for the data flow.
#[derive(Debug)]
pub struct StreamIngestor {
    config: IngestConfig,
    pool: MatcherPool,
    /// The model snapshot captured at the next shard flush. [`StreamIngestor::swap_model`]
    /// replaces it; already-flushed batches keep the snapshot they were flushed under.
    model: Arc<ParserModel>,
    /// Compiled automaton paired with `model`; `None` keeps the stream on the
    /// tree walker. Swapped together with the model, so a flushed batch always
    /// carries a mutually consistent (model, automaton) snapshot pair.
    compiled: Option<Arc<CompiledMatcher>>,
    buffers: Vec<ShardBuffer>,
    stats: IngestStats,
    /// Completed records as a sequence-indexed ring: slot `i` holds the record
    /// with sequence `next_release + i` (None until its batch lands). O(1)
    /// absorb and pop-front, replacing the former `BTreeMap` (whose per-record
    /// rebalancing showed up on the stream hot path); mid-stream harvesting
    /// still releases a contiguous, deterministic arrival-order prefix.
    completed: VecDeque<Option<MatchedRecord>>,
    /// Number of `Some` slots in `completed` (for loss accounting).
    completed_count: usize,
    /// First sequence number not yet released by [`StreamIngestor::drain_completed`].
    next_release: u64,
    next_seq: u64,
    round_robin: usize,
    in_flight: usize,
    /// Emptied batch buffers recycled back to the shards, so steady-state
    /// pushes append into already-allocated Vecs.
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
            shards: config.shards.max(1),
            batch_records: config.batch_records.max(1),
            max_in_flight: config.max_in_flight.max(1),
            workers: config.workers.max(1),
            ..config
        };
        let pool = MatcherPool::new(preprocessor, config.workers);
        let buffers = (0..config.shards).map(|_| ShardBuffer::default()).collect();
        let stats = IngestStats {
            shards: vec![ShardCounters::default(); config.shards],
            ..IngestStats::default()
        };
        StreamIngestor {
            config,
            pool,
            model,
            compiled: None,
            buffers,
            stats,
            completed: VecDeque::new(),
            completed_count: 0,
            next_release: 0,
            next_seq: 0,
            round_robin: 0,
            in_flight: 0,
            spare_batches: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Route flushed batches through a compiled automaton snapshot instead of
    /// the tree walker (builder-style; call before pushing records or swap via
    /// [`StreamIngestor::swap_model`]). The snapshot must be compiled from the
    /// engine's current model.
    pub fn with_compiled(mut self, compiled: Arc<CompiledMatcher>) -> Self {
        self.compiled = Some(compiled);
        self
    }

    /// Hot-swap the model snapshot and its paired compiled automaton (`None`
    /// drops the stream back to the tree walker). The swap takes effect at
    /// shard-flush boundaries: batches flushed after this call are matched
    /// against `model`, batches already submitted keep the snapshot pair they
    /// were flushed under. This is how incremental maintenance rolls a patched
    /// model into a live stream without tearing down the worker pool or
    /// pausing ingestion.
    pub fn swap_model(&mut self, model: Arc<ParserModel>, compiled: Option<Arc<CompiledMatcher>>) {
        self.model = model;
        self.compiled = compiled;
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

    /// Number of records accepted so far.
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// Ingest one record, routed round-robin across shards.
    ///
    /// `wait` bounds the back-pressure park. `None` never rejects: the record is
    /// buffered and, if that fills a batch while `max_in_flight` batches are
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
        let shard = self.round_robin;
        self.round_robin = (self.round_robin + 1) % self.config.shards;
        self.push_to_shard(shard, record.into());
        Ok(())
    }

    fn push_to_shard(&mut self, shard: usize, record: String) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let line_hash = hash_line(&record);
        let counters = &mut self.stats.shards[shard];
        counters.records += 1;
        counters.bytes += record.len() as u64;
        let buffer = &mut self.buffers[shard];
        if buffer.pending.is_empty() {
            buffer.opened_at = Some(Instant::now());
        }
        buffer.pending.push(StreamRecord {
            seq,
            line_hash,
            line: record,
        });
        if buffer.pending.len() >= self.config.batch_records {
            // Harvest finished batches at flush boundaries (bounded lag: at
            // most `max_in_flight` batches ever wait in the result channel).
            self.drain_ready();
            self.flush_shard(shard, FlushReason::Size);
        } else if seq.is_multiple_of(STALE_CHECK_INTERVAL) {
            self.flush_if_stale(shard);
        }
    }

    /// Flush any shard whose open batch has exceeded the time bound and harvest
    /// finished results. Long-lived callers with bursty input should call this
    /// periodically; `push` also applies the time bound to the shard it touches.
    pub fn poll(&mut self) {
        for shard in 0..self.config.shards {
            self.flush_if_stale(shard);
        }
        self.drain_ready();
    }

    /// Force-flush every shard's open batch regardless of the size/time bounds.
    pub fn flush(&mut self) {
        for shard in 0..self.config.shards {
            if !self.buffers[shard].pending.is_empty() {
                self.flush_shard(shard, FlushReason::Forced);
            }
        }
    }

    fn flush_if_stale(&mut self, shard: usize) {
        let stale = match self.buffers[shard].opened_at {
            Some(opened) => opened.elapsed() >= self.config.flush_interval,
            None => false,
        };
        if stale && !self.buffers[shard].pending.is_empty() {
            self.flush_shard(shard, FlushReason::Time);
        }
    }

    fn flush_shard(&mut self, shard: usize, reason: FlushReason) {
        let refill = self.spare_batches.pop().unwrap_or_default();
        let batch = std::mem::replace(&mut self.buffers[shard].pending, refill);
        self.buffers[shard].opened_at = None;
        if batch.is_empty() {
            self.spare_batches.push(batch);
            return;
        }
        // Back-pressure: park on the results channel until a slot frees up. One
        // blocked episode is counted once, however many batches it takes to drain
        // below the bound — `recv_ids` is a blocking channel `recv`, so a stalled
        // worker parks this thread instead of burning a core.
        if self.in_flight >= self.config.max_in_flight {
            self.stats.backpressure_waits += 1;
            while self.in_flight >= self.config.max_in_flight {
                match self.pool.recv_ids() {
                    Some(result) => self.absorb(result),
                    None => self.panic_workers_died(),
                }
            }
        }
        let counters = &mut self.stats.shards[shard];
        counters.batches += 1;
        match reason {
            FlushReason::Size => counters.size_flushes += 1,
            FlushReason::Time => counters.time_flushes += 1,
            FlushReason::Forced => counters.forced_flushes += 1,
        }
        self.pool
            .submit_ids(shard, batch, Arc::clone(&self.model), self.compiled.clone());
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

    fn absorb(&mut self, result: IdBatchResult) {
        self.in_flight -= 1;
        self.stats.completed_batches += 1;
        let IdBatchResult {
            shard,
            mut records,
            results,
            ..
        } = result;
        let counters = &mut self.stats.shards[shard];
        for (record, id) in records.drain(..).zip(results) {
            match id.node {
                Some(_) => counters.matched += 1,
                None => counters.unmatched += 1,
            }
            // Slot `seq - next_release` in the completed ring; batches never
            // carry a released sequence, so the index never underflows.
            let slot = (record.seq - self.next_release) as usize;
            if slot >= self.completed.len() {
                self.completed.resize_with(slot + 1, || None);
            }
            self.completed[slot] = Some(MatchedRecord {
                seq: record.seq,
                shard,
                record: record.line,
                node: id.node,
                saturation: id.saturation,
            });
            self.completed_count += 1;
        }
        // Hand the emptied batch buffer back to the shards.
        self.spare_batches.push(records);
    }

    /// Harvest finished batches without blocking and return the records that form a
    /// contiguous arrival-order prefix (i.e. every record up to the first one still
    /// outstanding). Long-lived callers use this to apply results — and detect
    /// drift — while the stream is still running; the contiguity guarantee keeps
    /// downstream application order identical to the batch path regardless of how
    /// batches raced through the pool.
    pub fn drain_completed(&mut self) -> Vec<MatchedRecord> {
        self.drain_ready();
        let mut out = Vec::new();
        while matches!(self.completed.front(), Some(Some(_))) {
            let record = self.completed.pop_front().flatten().expect("checked Some");
            out.push(record);
            self.next_release += 1;
            self.completed_count -= 1;
        }
        out
    }

    /// Force-flush every shard and block until every in-flight batch has been
    /// absorbed: after `sync` returns, [`StreamIngestor::drain_completed`]
    /// releases the full contiguous prefix of everything pushed so far.
    /// [`LogTopic::ingest_stream`](crate::LogTopic::ingest_stream) calls this at
    /// drift-check boundaries so maintenance decisions — and mid-stream model
    /// hot-swaps — depend only on the record sequence, never on worker
    /// scheduling. That determinism is what lets the differential suite assert
    /// *byte-identical* assignments across engines and runs.
    ///
    /// # Panics
    /// Panics if pool workers died with batches outstanding.
    pub fn sync(&mut self) {
        self.flush();
        while self.in_flight > 0 {
            match self.pool.recv_ids() {
                Some(result) => self.absorb(result),
                None => self.panic_workers_died(),
            }
        }
    }

    /// A closed result channel while batches are outstanding means pool workers died
    /// (a panic in matching/preprocessing). Records would be silently lost if this
    /// were treated as a clean shutdown — fail loudly instead.
    fn panic_workers_died(&self) -> ! {
        panic!(
            "matcher pool workers terminated with {} batch(es) outstanding — \
             {} record(s) would be lost",
            self.in_flight,
            self.stats.records() - self.next_release - self.completed_count as u64
        );
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
        self.flush();
        while self.in_flight > 0 {
            match self.pool.recv_ids() {
                Some(result) => self.absorb(result),
                None => self.panic_workers_died(),
            }
        }
        let elapsed = self.started.elapsed();
        // After sync-ing every batch the ring is fully contiguous: the flatten
        // drops nothing (trailing None slots can only exist from a resize past
        // the highest landed sequence, which absorb never leaves behind).
        let records: Vec<MatchedRecord> = std::mem::take(&mut self.completed)
            .into_iter()
            .flatten()
            .collect();
        self.completed_count = 0;
        IngestReport {
            records,
            stats: std::mem::take(&mut self.stats),
            elapsed,
        }
    }
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
        assert_eq!(report.matched() + report.unmatched(), 1_000);
        assert!(
            report.matched() > 900,
            "stream shape was trained: {report:?}"
        );
    }

    #[test]
    fn records_spread_across_all_shards() {
        let (model, pre) = trained();
        let config = IngestConfig::default()
            .with_shards(4)
            .with_batch_records(32);
        let mut ingestor = StreamIngestor::new(model, pre, config);
        push_all(&mut ingestor, stream(640));
        let report = ingestor.finish();
        assert_eq!(report.stats.shards.len(), 4);
        for (shard, counters) in report.stats.shards.iter().enumerate() {
            assert_eq!(counters.records, 160, "shard {shard} starved: {counters:?}");
            assert!(counters.batches >= 5);
            assert!(counters.bytes > 0);
        }
    }

    #[test]
    fn size_bound_flushes_full_batches() {
        let (model, pre) = trained();
        let config = IngestConfig::default()
            .with_shards(2)
            .with_batch_records(50);
        let mut ingestor = StreamIngestor::new(model, pre, config);
        push_all(&mut ingestor, stream(500));
        let report = ingestor.finish();
        let size_flushes: u64 = report.stats.shards.iter().map(|s| s.size_flushes).sum();
        assert_eq!(size_flushes, 10, "250 records per shard / 50 per batch");
    }

    #[test]
    fn time_bound_flushes_partial_batches() {
        let (model, pre) = trained();
        let config = IngestConfig::default()
            .with_shards(1)
            .with_batch_records(1_000_000)
            .with_flush_interval(Duration::from_millis(1));
        let mut ingestor = StreamIngestor::new(model, pre, config);
        push_all(
            &mut ingestor,
            ["job 1 finished on host node-01 in 5ms".to_string()],
        );
        std::thread::sleep(Duration::from_millis(5));
        ingestor.poll();
        let time_flushes: u64 = ingestor.stats().shards.iter().map(|s| s.time_flushes).sum();
        assert_eq!(time_flushes, 1, "stale partial batch must flush on poll");
        let report = ingestor.finish();
        assert_eq!(report.records.len(), 1);
    }

    #[test]
    fn backpressure_bounds_outstanding_batches() {
        let (model, pre) = trained();
        let config = IngestConfig::default()
            .with_shards(4)
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
        let rps = report.records_per_second();
        assert!(rps.is_finite(), "throughput must be finite, got {rps}");
        assert_eq!(rps, 0.0);

        // Zero-duration report constructed directly (fields are public).
        let zero = IngestReport {
            records: Vec::new(),
            stats: report.stats,
            elapsed: Duration::ZERO,
        };
        assert_eq!(zero.records_per_second(), 0.0);
    }

    #[test]
    fn unmatched_records_are_counted_per_shard() {
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
    fn compiled_stream_agrees_with_tree_walk_stream() {
        let (model, pre) = trained();
        let compiled = Arc::new(CompiledMatcher::compile(&model));
        let config = IngestConfig::default()
            .with_shards(4)
            .with_batch_records(64);
        let mut fast = StreamIngestor::new(Arc::clone(&model), Arc::clone(&pre), config.clone())
            .with_compiled(compiled);
        let mut reference = StreamIngestor::new(model, pre, config);
        push_all(&mut fast, stream(1_000));
        push_all(&mut reference, stream(1_000));
        let fast_report = fast.finish();
        let reference_report = reference.finish();
        assert_eq!(fast_report.records.len(), reference_report.records.len());
        for (a, b) in fast_report.records.iter().zip(&reference_report.records) {
            assert_eq!(a.node, b.node, "engines diverged on {:?}", a.record);
            assert_eq!(a.saturation, b.saturation);
        }
    }

    #[test]
    fn saturated_pool_yields_overloaded_instead_of_hanging() {
        let (model, pre) = trained();
        // One shard, one worker, one slot: the 40k-record batch flushed below keeps
        // the single worker busy for tens of milliseconds, so the zero-wait push
        // that follows finds the pool saturated before the worker can drain it.
        let config = IngestConfig::default()
            .with_shards(1)
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
