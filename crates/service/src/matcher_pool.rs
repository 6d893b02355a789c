//! Online matching worker pool (§3 "Online Matching" / "Parallel").
//!
//! In production, template ids must be computed together with the traditional text
//! indices before a record can be written to the append-only topic storage, so matching
//! sits on the ingestion latency path. The system therefore distributes matching across
//! multiple processing queues: independent worker threads each own a handle to the shared
//! (read-only) model and drain a work queue of log batches.
//!
//! This module implements that pool with `std::sync::mpsc` channels (workers share the
//! job queue through a mutex — matching a batch dwarfs the cost of one lock
//! acquisition per batch). Every worker keeps a private [`TokenScratch`] alive, so
//! per-record preprocessing runs on the zero-copy fast path.
//!
//! Jobs are lean ([`MatcherPool::submit_ids`]): a batch returns its records with the
//! [`BatchMatch`] the batch kernel also produces — a node and a slot range per record —
//! skipping template rendering entirely. This is the path the streaming ingestion
//! engine ([`crate::ingest`]) drives.

use bytebrain::matcher::match_compiled;
use bytebrain::{BatchMatch, CompiledMatcher, MatchCache, ParserModel, SlotBuffer, SlotRange};
use logtok::{Preprocessor, TokenScratch};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One record travelling through the lean streaming path: the FNV line hash computed
/// once at admission ([`logtok::hash_line`]) and the raw line. The hash rides along so
/// nothing downstream — batch reordering, the per-worker match cache — re-hashes the
/// full text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRecord {
    /// FNV-1a hash of `line`, computed exactly once at admission.
    pub line_hash: u64,
    /// The raw record text.
    pub line: String,
}

impl StreamRecord {
    /// Wrap `line`, hashing it. The streaming engine is the normal caller; the
    /// constructor is public so tests and benches can build batches directly.
    pub fn new(line: String) -> Self {
        let line_hash = logtok::hash_line(&line);
        StreamRecord { line_hash, line }
    }
}

/// A batch of records submitted to the pool, tagged so results can be re-associated.
/// The job carries the (model, automaton) snapshot pair it must match against: the
/// pool holds no model of its own.
#[derive(Debug)]
struct Job {
    batch_id: u64,
    records: Vec<StreamRecord>,
    model: Arc<ParserModel>,
    compiled: Arc<CompiledMatcher>,
}

/// The result of one lean (ingestion) batch: the original records travel back with
/// what was decided for them, so the coordinator never has to clone or re-associate
/// them.
#[derive(Debug)]
pub struct IdBatchResult {
    /// Identifier returned by [`MatcherPool::submit_ids`].
    pub batch_id: u64,
    /// The records exactly as submitted (workers reorder internally for cache
    /// warmth but always hand the batch back in submission order).
    pub records: Vec<StreamRecord>,
    /// One decision per record, in submission order. Records repeating a line share
    /// its slot range.
    pub matches: BatchMatch,
}

/// A pool of matcher workers. Every job names the (model, automaton) snapshot pair it
/// matches against.
#[derive(Debug)]
pub struct MatcherPool {
    job_tx: Option<Sender<Job>>,
    result_rx: Receiver<IdBatchResult>,
    workers: Vec<JoinHandle<()>>,
    next_batch: u64,
}

impl MatcherPool {
    /// Spawn `workers` matcher threads sharing one preprocessing pipeline.
    pub fn new(preprocessor: Arc<Preprocessor>, workers: usize) -> Self {
        let workers = workers.max(1);
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = channel::<IdBatchResult>();
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let job_rx = Arc::clone(&job_rx);
            let result_tx = result_tx.clone();
            let preprocessor = Arc::clone(&preprocessor);
            handles.push(std::thread::spawn(move || {
                // One scratch per worker: the whole pool runs preprocessing on the
                // zero-copy fast path. The match cache is also per-worker, so
                // the automaton hot path takes no lock; snapshot tags keep it
                // consistent across jobs that carry different snapshots. The order buffer
                // (cache-warm batch reordering) is likewise recycled across
                // batches, so the steady-state loop performs no per-record
                // heap allocation.
                let mut scratch = TokenScratch::new();
                let mut cache = MatchCache::default();
                let mut order: Vec<u32> = Vec::new();
                loop {
                    // Hold the lock only while dequeueing, never while matching. A
                    // poisoned lock means a sibling worker panicked mid-dequeue; exit
                    // cleanly instead of cascading the panic across the pool — the
                    // coordinator detects the closed result channel and reports the
                    // loss loudly.
                    let job = {
                        let guard = match job_rx.lock() {
                            Ok(guard) => guard,
                            Err(_) => break,
                        };
                        match guard.recv() {
                            Ok(job) => job,
                            Err(_) => break,
                        }
                    };
                    let Job {
                        batch_id,
                        records,
                        model: job_model,
                        compiled,
                    } = job;
                    // Cache-warm batch reordering: process records grouped by their
                    // precomputed line hash so exact duplicates run back-to-back (the
                    // dominant shape of production streams) — the duplicate of the
                    // record just matched reuses its result directly, and
                    // near-duplicates keep the MatchCache and DFA working set hot.
                    // Results are written through the permutation, so the batch is
                    // handed back in submission order regardless.
                    order.clear();
                    order.extend(0..records.len() as u32);
                    order.sort_unstable_by_key(|&i| records[i as usize].line_hash);
                    let mut ids = vec![(None, SlotRange::default()); records.len()];
                    let mut slots = SlotBuffer::new();
                    let mut prev = None;
                    for &idx in &order {
                        let record = &records[idx as usize];
                        if let Some((prev_idx, id)) = prev {
                            let p = &records[prev_idx as usize];
                            if p.line_hash == record.line_hash && p.line == record.line {
                                ids[idx as usize] = id;
                                continue;
                            }
                        }
                        let line = &record.line;
                        // Masked once: the slots come off the view the match decided on.
                        let miss = |slots: &mut SlotBuffer| {
                            let view = preprocessor.token_view(line, &mut scratch);
                            let node = match_compiled(&job_model, &compiled, view.iter());
                            slots.extract(&job_model, node, line, &view);
                            node
                        };
                        // The answer reads the tables *and* the temporaries appended
                        // to the job's model since they were compiled, which move
                        // no generation.
                        let snapshot = (compiled.generation(), job_model.len());
                        let hash = record.line_hash;
                        let id = cache.match_record_hashed(snapshot, line, hash, &mut slots, miss);
                        ids[idx as usize] = id;
                        prev = Some((idx, id));
                    }
                    // The receiver may already be gone during shutdown; that is fine.
                    let _ = result_tx.send(IdBatchResult {
                        batch_id,
                        records,
                        matches: BatchMatch { ids, slots },
                    });
                }
            }));
        }
        MatcherPool {
            job_tx: Some(job_tx),
            result_rx,
            workers: handles,
            next_batch: 0,
        }
    }

    /// Submit a batch to be matched against `model` through `compiled`, the
    /// automaton compiled from it; returns the batch id (consecutive from 0). Used
    /// by the streaming ingestion engine, which needs template ids but not rendered
    /// templates and passes the one snapshot pair it was built with.
    pub fn submit_ids(
        &mut self,
        records: Vec<StreamRecord>,
        model: Arc<ParserModel>,
        compiled: Arc<CompiledMatcher>,
    ) -> u64 {
        let batch_id = self.next_batch;
        self.next_batch += 1;
        self.job_tx
            .as_ref()
            .expect("pool is running")
            .send(Job {
                batch_id,
                records,
                model,
                compiled,
            })
            .expect("workers are alive");
        batch_id
    }

    /// Block until the next finished batch is available (`None` when the workers
    /// are gone).
    pub fn recv_ids(&mut self) -> Option<IdBatchResult> {
        self.result_rx.recv().ok()
    }

    /// Bounded-wait variant of [`MatcherPool::recv_ids`]: blocks for at most
    /// `timeout`, returning `None` either when no batch finished in time or
    /// when the workers are gone.
    pub fn recv_ids_timeout(&mut self, timeout: std::time::Duration) -> Option<IdBatchResult> {
        self.result_rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking variant of [`MatcherPool::recv_ids`]: returns immediately with
    /// `None` when no batch has finished yet.
    pub fn try_recv_ids(&mut self) -> Option<IdBatchResult> {
        self.result_rx.try_recv().ok()
    }
}

impl Drop for MatcherPool {
    /// Shuts the pool down, waiting for the workers to drain their queue.
    fn drop(&mut self) {
        self.job_tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytebrain::train::train;
    use bytebrain::TrainConfig;

    fn trained() -> (Arc<ParserModel>, Arc<CompiledMatcher>, Arc<Preprocessor>) {
        let records: Vec<String> = (0..100)
            .map(|i| format!("request {} routed to shard {} in {}ms", i, i % 8, i % 90))
            .collect();
        let config = TrainConfig::default();
        let preprocessor = Preprocessor::new(config.preprocess.clone());
        let model = train(&records, &preprocessor, &config).model;
        let compiled = CompiledMatcher::compile(&model);
        (Arc::new(model), Arc::new(compiled), Arc::new(preprocessor))
    }

    fn requests(range: std::ops::Range<u64>) -> Vec<StreamRecord> {
        range
            .map(|i| {
                StreamRecord::new(format!(
                    "request {} routed to shard {} in {}ms",
                    i,
                    i % 8,
                    i % 50
                ))
            })
            .collect()
    }

    #[test]
    fn pool_matches_batches_in_parallel() {
        let (model, compiled, pre) = trained();
        let mut pool = MatcherPool::new(pre, 4);
        let b_range = |b: u64| b * 50..(b + 1) * 50;
        for b in 0..8 {
            let id = pool.submit_ids(
                requests(b_range(b)),
                Arc::clone(&model),
                Arc::clone(&compiled),
            );
            assert_eq!(id, b);
        }
        let mut results: Vec<IdBatchResult> =
            (0..8).map(|_| pool.recv_ids().expect("batch")).collect();
        results.sort_by_key(|b| b.batch_id);
        for (expected_id, batch) in results.iter().enumerate() {
            assert_eq!(batch.batch_id, expected_id as u64);
            assert_eq!(batch.records, requests(b_range(expected_id as u64)));
            assert_eq!(batch.matches.ids.len(), 50);
            assert!(batch.matches.ids.iter().all(|(node, _)| node.is_some()));
        }
        assert!(pool.try_recv_ids().is_none());
    }

    #[test]
    fn unmatched_records_are_reported_not_dropped() {
        let (model, compiled, pre) = trained();
        let mut pool = MatcherPool::new(pre, 1);
        let record = StreamRecord::new("completely novel kernel message".to_string());
        pool.submit_ids(vec![record], model, compiled);
        let result = pool.recv_ids().expect("one batch");
        assert_eq!(result.matches.ids.len(), 1);
        assert_eq!(result.matches.ids[0].0, None);
    }

    /// A worker's line cache names what its answer depends on: the compiled tables *and*
    /// the temporaries appended to the job's model since. A miss cached for a line must
    /// not outlive the temporary a later job's model holds for it under the same
    /// compiled snapshot.
    #[test]
    fn cached_miss_yields_to_a_temporary_appended_under_the_same_snapshot() {
        let (model, compiled, pre) = trained();
        let mut pool = MatcherPool::new(Arc::clone(&pre), 1);
        let line = "completely novel kernel message";
        let mut submit = |model: Arc<ParserModel>| {
            let record = StreamRecord::new(line.to_string());
            pool.submit_ids(vec![record], model, Arc::clone(&compiled));
            pool.recv_ids().expect("one batch").matches.ids[0].0
        };
        assert_eq!(submit(Arc::clone(&model)), None);
        let mut grown = (*model).clone();
        let id = grown.insert_temporary(&pre.tokens_of(line));
        assert_eq!(submit(Arc::new(grown)), Some(id));
    }

    #[test]
    fn dropping_the_pool_joins_workers() {
        let (_, _, pre) = trained();
        let pool = MatcherPool::new(pre, 3);
        drop(pool); // must not hang or panic
    }

    #[test]
    fn lean_batches_return_ids_and_records() {
        let (model, compiled, pre) = trained();
        let mut pool = MatcherPool::new(pre, 2);
        // Repeat records so the per-worker match cache (and the in-batch
        // duplicate-reuse path behind hash reordering) sees hits too.
        let records: Vec<StreamRecord> = (0..40)
            .map(|i| {
                StreamRecord::new(format!(
                    "request {} routed to shard {} in {}ms",
                    i % 5,
                    i % 2,
                    i % 3
                ))
            })
            .collect();
        let id = pool.submit_ids(records.clone(), model, compiled);
        let result = pool.recv_ids().expect("one lean batch");
        assert_eq!(result.batch_id, id);
        assert_eq!(result.records, records);
        assert_eq!(result.matches.ids.len(), 40);
        assert!(result.matches.ids.iter().all(|(node, _)| node.is_some()));
    }
}
