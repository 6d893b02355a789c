//! Cross-crate tests of the sharded streaming ingestion engine at scale: a 100k-line
//! synthetic corpus flows through ≥ 4 shards with batched parallel matching, both via
//! the raw [`StreamIngestor`] and via the topic/manager entry points.

use bytebrain_repro::bytebrain::train::train;
use bytebrain_repro::bytebrain::TrainConfig;
use bytebrain_repro::datasets::LabeledDataset;
use bytebrain_repro::logtok::Preprocessor;
use bytebrain_repro::service::{
    IngestConfig, LogTopic, ServiceManager, StreamIngestor, TenantDefaults, TopicConfig,
};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn stream_ingestor_handles_100k_lines_through_four_shards() {
    let corpus = LabeledDataset::loghub2("Apache", 100_000);
    // Train on a prefix; stream the full corpus against the snapshot.
    let config = TrainConfig::default();
    let model = Arc::new(train(&corpus.records[..10_000], &config).model);
    let preprocessor = Arc::new(Preprocessor::new(config.preprocess.clone()));

    let ingest = IngestConfig::default()
        .with_shards(4)
        .with_batch_records(1_024)
        .with_workers(4);
    let mut ingestor = StreamIngestor::new(model, preprocessor, ingest);
    for record in &corpus.records {
        ingestor
            .push(record.clone(), None)
            .expect("an unbounded push never rejects");
    }
    let report = ingestor.finish();

    // Every line came back, in arrival order.
    assert_eq!(report.records.len(), 100_000);
    assert!(report.records.windows(2).all(|w| w[0].seq < w[1].seq));

    // All four shards did real batched work.
    assert_eq!(report.stats.shards.len(), 4);
    for (shard, counters) in report.stats.shards.iter().enumerate() {
        assert_eq!(counters.records, 25_000, "shard {shard} starved");
        assert!(
            counters.batches >= 20,
            "shard {shard} did not batch: {counters:?}"
        );
    }
    assert_eq!(
        report.stats.submitted_batches,
        report.stats.completed_batches
    );

    // The trained prefix covers the corpus shape: the stream overwhelmingly matches.
    let matched_ratio = report.matched() as f64 / 100_000.0;
    assert!(
        matched_ratio > 0.95,
        "only {matched_ratio:.3} of the stream matched"
    );
    eprintln!(
        "[ingest_stream] 100k lines, 4 shards: {:.0} records/s, {} batches, {} backpressure waits",
        report.records_per_second(),
        report.stats.submitted_batches,
        report.stats.backpressure_waits
    );
}

#[test]
fn topic_ingest_stream_matches_batch_ingest_semantics() {
    let corpus = LabeledDataset::loghub2("OpenSSH", 12_000);
    let (first, rest) = corpus.records.split_at(4_000);

    // Batch topic: the reference behaviour.
    let mut batch_topic =
        LogTopic::new(TopicConfig::new("ssh-batch").with_volume_threshold(1_000_000));
    batch_topic.ingest(first);
    let batch_outcome = batch_topic.ingest(rest);

    // Streaming topic over the same data: cold-start batch, then streamed.
    let mut stream_topic =
        LogTopic::new(TopicConfig::new("ssh-stream").with_volume_threshold(1_000_000));
    stream_topic.ingest(first);
    let stream_result =
        stream_topic.ingest_stream(rest.to_vec(), &IngestConfig::default().with_shards(4));

    // Same records stored, same match totals (matching is deterministic against the
    // same model), stats populated.
    assert_eq!(stream_topic.records().len(), batch_topic.records().len());
    assert_eq!(
        stream_result.outcome.matched + stream_result.outcome.unmatched,
        rest.len()
    );
    assert_eq!(stream_result.outcome.matched, batch_outcome.matched);
    assert_eq!(stream_result.outcome.unmatched, batch_outcome.unmatched);
    assert_eq!(stream_result.stats.records(), rest.len() as u64);
    // Streamed records are stored in arrival order.
    for (stored, original) in stream_topic.records().iter().skip(4_000).zip(rest) {
        assert_eq!(&stored.record, original);
    }
}

#[test]
fn manager_ingest_stream_routes_to_tenant_topics() {
    let mut manager = ServiceManager::new();
    manager.set_tenant_defaults(
        "acme",
        TenantDefaults {
            volume_threshold: 1_000_000,
            parallelism: 4,
            ..TenantDefaults::default()
        },
    );
    let corpus = LabeledDataset::loghub2("HDFS", 9_000);
    let (train_part, stream_part) = corpus.records.split_at(3_000);
    manager.ingest("acme", "hdfs", train_part);
    let result = manager
        .ingest_stream_bounded(
            "acme",
            "hdfs",
            stream_part.to_vec(),
            &IngestConfig::default().with_shards(4),
            Duration::from_secs(60),
        )
        .expect("a minute-long wait bound never sheds here");
    assert_eq!(
        result.outcome.matched + result.outcome.unmatched,
        stream_part.len()
    );
    assert!(result.stats.shards.iter().all(|s| s.records > 0));
    let stats = manager.topic("acme", "hdfs").unwrap().stats();
    assert_eq!(stats.total_records, corpus.records.len() as u64);
}
