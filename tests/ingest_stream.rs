//! Cross-crate tests of the batched streaming ingestion engine at scale: a 100k-line
//! synthetic corpus flows through contiguous batches with parallel matching, both via
//! the raw [`StreamIngestor`] and via the topic entry points and the driver behind them.

use bytebrain_repro::bytebrain::incremental::DriftConfig;
use bytebrain_repro::bytebrain::train::train;
use bytebrain_repro::bytebrain::TrainConfig;
use bytebrain_repro::datasets::LabeledDataset;
use bytebrain_repro::logtok::Preprocessor;
use bytebrain_repro::service::{
    drive, IngestConfig, LogTopic, MaintenancePolicy, Route, ServiceManager, StreamIngestor,
    TenantDefaults, TopicConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn stream_ingestor_handles_100k_lines_in_contiguous_batches() {
    let corpus = LabeledDataset::loghub2("Apache", 100_000);
    // Train on a prefix; stream the full corpus against the snapshot.
    let config = TrainConfig::default();
    let preprocessor = Arc::new(Preprocessor::new(config.preprocess.clone()));
    let model = Arc::new(train(&corpus.records[..10_000], &preprocessor, &config).model);

    let ingest = IngestConfig::default()
        .with_batch_records(512)
        .with_workers(4);
    let started = Instant::now();
    let mut ingestor = StreamIngestor::new(model, preprocessor, ingest);
    for record in &corpus.records {
        ingestor
            .push(record.clone(), None)
            .expect("an unbounded push never rejects");
    }
    let (lines, matches, stats) = ingestor.finish();
    let elapsed = started.elapsed();

    // Every line came back, in arrival order, with one decision each.
    assert_eq!(lines, corpus.records);
    assert_eq!(matches.ids.len(), 100_000);

    // ⌈100000/512⌉ batches: 195 full ones cut by the size bound and one 160-record
    // remainder cut by `finish` (the engine's unit tests check each is one
    // contiguous run of arrivals).
    assert_eq!(stats.records, 100_000);
    assert_eq!(stats.submitted_batches, 196);
    assert_eq!(stats.completed_batches, 196);

    // The trained prefix covers the corpus shape: the stream overwhelmingly matches.
    let matched = matches
        .ids
        .iter()
        .filter(|(node, _)| node.is_some())
        .count();
    assert_eq!(matched as u64, stats.matched);
    let matched_ratio = matched as f64 / 100_000.0;
    assert!(
        matched_ratio > 0.95,
        "only {matched_ratio:.3} of the stream matched"
    );
    eprintln!(
        "[ingest_stream] 100k lines: {:.0} records/s, {} batches, {} backpressure waits",
        100_000.0 / elapsed.as_secs_f64(),
        stats.submitted_batches,
        stats.backpressure_waits
    );
}

/// `ingest` and `ingest_stream` share one definition of drift and one checkpoint
/// rule: the same matched traffic sets the same saturation baseline, and the same
/// drifting records leave the detector in the same state, fire the same maintenance
/// and leave the same model and assignment — whether the drift check runs once, at
/// the end of the batch, or every `check_interval` records inside it.
#[test]
fn batch_and_stream_ingest_agree_on_drift() {
    let corpus = LabeledDataset::loghub2("Apache", 3_000);
    let (known, healthy) = corpus.records.split_at(2_000);
    let novel: Vec<String> = (0..400)
        .map(|i| format!("disk scrubber repaired sector {i} on vol-{}", i % 3))
        .collect();
    let run = |stream: bool, check_interval: usize| {
        let mut topic = LogTopic::new(
            TopicConfig::new("drift")
                .with_volume_threshold(u64::MAX)
                .with_maintenance(MaintenancePolicy::Incremental {
                    drift: DriftConfig::default()
                        .with_window(400)
                        .with_min_samples(200)
                        .with_max_unmatched_rate(0.5),
                    check_interval,
                }),
        );
        topic.ingest(known);
        let mut route = |records: &[String]| {
            if stream {
                let result = topic.ingest_stream(records.to_vec(), &IngestConfig::default());
                result.outcome.maintained
            } else {
                topic.ingest(records).maintained
            }
        };
        // Matched traffic first: it sets the baseline the saturation check reads.
        let healthy_maintained = route(healthy);
        let maintained = route(&novel);
        let detector = topic.drift_detector().expect("incremental topic");
        let assignment: Vec<_> = topic.records().iter().map(|r| r.template).collect();
        (
            (healthy_maintained, maintained),
            (
                detector.baseline(),
                detector.observations(),
                detector.assess(),
            ),
            (
                assignment,
                topic.model().len(),
                topic.model().retired_count(),
            ),
        )
    };
    // No check inside either call: both routes assess once, at the end.
    let (batch, streamed) = (run(false, novel.len()), run(true, novel.len()));
    assert_eq!(
        batch.0,
        (0, 1),
        "400 novel records must trip the 200-sample window"
    );
    assert!(
        batch.1 .0.is_some(),
        "1,000 matched records must set the 400-record baseline"
    );
    assert_eq!(streamed, batch);
    // A check every 128 records, inside each call, on both routes.
    let (batch, streamed) = (run(false, 128), run(true, 128));
    assert_eq!(batch.0 .0, 0, "matched traffic must not drift");
    assert!(batch.0 .1 >= 1, "the novel records must maintain");
    assert_eq!(streamed, batch);
}

/// Every chunk releases its snapshots before its apply phase, on both routes, so a
/// temporary inserted there patches the topic's model in place: with no landing, an
/// incremental ingest leaves the model in the very allocation it found it in.
#[test]
fn incremental_ingest_patches_the_model_in_place_on_both_routes() {
    let corpus = LabeledDataset::loghub2("Apache", 3_000);
    let (known, healthy) = corpus.records.split_at(2_000);
    for stream in [false, true] {
        let mut topic = LogTopic::new(
            TopicConfig::new("in-place")
                .with_volume_threshold(u64::MAX)
                .with_maintenance(MaintenancePolicy::Incremental {
                    // A window no ingest here fills: drift is never assessed.
                    drift: DriftConfig::default()
                        .with_window(4_096)
                        .with_min_samples(4_096),
                    check_interval: 128,
                }),
        );
        topic.ingest(known);
        // Novel lines first, so the first chunk inserts temporaries.
        let mut batch: Vec<String> = (0..20)
            .map(|i| format!("gpu {i} fell off the bus"))
            .collect();
        batch.extend_from_slice(healthy);
        let (model, nodes) = (Arc::as_ptr(&topic.model_snapshot()), topic.model().len());
        let outcome = if stream {
            topic.ingest_stream(batch, &IngestConfig::default()).outcome
        } else {
            topic.ingest(&batch)
        };
        assert_eq!(outcome.maintained, 0, "stream={stream}: no landing");
        assert!(outcome.unmatched > 0 && topic.model().len() > nodes);
        assert_eq!(
            Arc::as_ptr(&topic.model_snapshot()),
            model,
            "stream={stream}: a temporary insertion copied the model"
        );
    }
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
    manager.topic_mut("acme", "hdfs").ingest(train_part);
    // The route the server takes for a large POST: bounded pushes, workers clamped to
    // the topic's provisioned parallelism.
    let route = Route::Stream {
        config: &IngestConfig::default(),
        wait: Some(Duration::from_secs(60)),
        clamp_to_topic: true,
    };
    let topic = manager.topic_mut("acme", "hdfs");
    let (result, shed) = drive(topic, stream_part.to_vec(), route);
    assert!(shed.is_empty(), "a minute-long wait bound never sheds here");
    assert_eq!(
        result.outcome.matched + result.outcome.unmatched,
        stream_part.len()
    );
    assert_eq!(result.stats.records, stream_part.len() as u64);
    let stats = manager.topic("acme", "hdfs").unwrap().stats();
    assert_eq!(stats.total_records, corpus.records.len() as u64);
}
