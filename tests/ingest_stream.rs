//! Cross-crate tests of the batched streaming ingestion engine at scale: a 100k-line
//! synthetic corpus flows through contiguous batches with parallel matching, both via
//! the raw [`StreamIngestor`] and via the topic/manager entry points.

use bytebrain_repro::bytebrain::incremental::DriftConfig;
use bytebrain_repro::bytebrain::train::train;
use bytebrain_repro::bytebrain::TrainConfig;
use bytebrain_repro::datasets::LabeledDataset;
use bytebrain_repro::logtok::Preprocessor;
use bytebrain_repro::service::{
    IngestConfig, LogTopic, MaintenancePolicy, ServiceManager, StreamIngestor, TenantDefaults,
    TopicConfig,
};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn stream_ingestor_handles_100k_lines_in_contiguous_batches() {
    let corpus = LabeledDataset::loghub2("Apache", 100_000);
    // Train on a prefix; stream the full corpus against the snapshot.
    let config = TrainConfig::default();
    let model = Arc::new(train(&corpus.records[..10_000], &config).model);
    let preprocessor = Arc::new(Preprocessor::new(config.preprocess.clone()));

    // No time bound, so only the size bound and the final flush cut batches.
    let ingest = IngestConfig::default()
        .with_batch_records(512)
        .with_flush_interval(Duration::from_secs(3_600))
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
    assert!(report.records.iter().map(|r| r.seq).eq(0..100_000));

    // ⌈100000/512⌉ batches: 195 full ones cut by the size bound and one 160-record
    // remainder cut by `finish` (the engine's unit tests check each is one
    // contiguous sequence run).
    assert_eq!(report.stats.records, 100_000);
    assert_eq!(report.stats.size_flushes, 195);
    assert_eq!(report.stats.forced_flushes, 1);
    assert_eq!(report.stats.time_flushes, 0);
    assert_eq!(report.stats.submitted_batches, 196);
    assert_eq!(report.stats.completed_batches, 196);

    // The trained prefix covers the corpus shape: the stream overwhelmingly matches.
    let matched_ratio = report.matched() as f64 / 100_000.0;
    assert!(
        matched_ratio > 0.95,
        "only {matched_ratio:.3} of the stream matched"
    );
    eprintln!(
        "[ingest_stream] 100k lines: {:.0} records/s, {} batches, {} backpressure waits",
        report.records_per_second(),
        report.stats.submitted_batches,
        report.stats.backpressure_waits
    );
}

/// `ingest` and `ingest_stream` share one definition of drift: the same drifting
/// records leave the detector in the same state and fire the same maintenance.
#[test]
fn batch_and_stream_ingest_agree_on_drift() {
    let corpus = LabeledDataset::loghub2("Apache", 2_000);
    let novel: Vec<String> = (0..400)
        .map(|i| format!("disk scrubber repaired sector {i} on vol-{}", i % 3))
        .collect();
    let run = |stream: bool| {
        let mut topic = LogTopic::new(
            TopicConfig::new("drift")
                .with_volume_threshold(u64::MAX)
                .with_maintenance(MaintenancePolicy::Incremental {
                    drift: DriftConfig::default()
                        .with_window(400)
                        .with_min_samples(200)
                        .with_max_unmatched_rate(0.5),
                    // No mid-stream check: both paths assess once, at the end.
                    check_interval: novel.len(),
                }),
        );
        topic.ingest(&corpus.records);
        let maintained = if stream {
            let result = topic.ingest_stream(novel.clone(), &IngestConfig::default());
            result.outcome.maintained
        } else {
            topic.ingest(&novel).maintained
        };
        let detector = topic.drift_detector().expect("incremental topic");
        (maintained, detector.observations(), detector.assess())
    };
    let (batch, streamed) = (run(false), run(true));
    assert_eq!(
        batch.0, 1,
        "400 novel records must trip the 200-sample window"
    );
    assert_eq!(streamed, batch);
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
    let stream_result = stream_topic.ingest_stream(rest.to_vec(), &IngestConfig::default());

    // Same records stored, same match totals (matching is deterministic against the
    // same model), stats populated.
    assert_eq!(stream_topic.records().len(), batch_topic.records().len());
    assert_eq!(
        stream_result.outcome.matched + stream_result.outcome.unmatched,
        rest.len()
    );
    assert_eq!(stream_result.outcome.matched, batch_outcome.matched);
    assert_eq!(stream_result.outcome.unmatched, batch_outcome.unmatched);
    assert_eq!(stream_result.stats.records, rest.len() as u64);
    // Streamed records are stored in arrival order.
    for (stored, original) in stream_topic.records().iter().skip(4_000).zip(rest) {
        assert_eq!(stored.record, original);
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
            &IngestConfig::default(),
            Duration::from_secs(60),
        )
        .expect("a minute-long wait bound never sheds here");
    assert_eq!(
        result.outcome.matched + result.outcome.unmatched,
        stream_part.len()
    );
    assert_eq!(result.stats.records, stream_part.len() as u64);
    let stats = manager.topic("acme", "hdfs").unwrap().stats();
    assert_eq!(stats.total_records, corpus.records.len() as u64);
}
