//! Cross-crate test of the cloud-service workflow: topic ingestion, triggered training,
//! querying, anomaly detection, alerting and the durable model log on a realistic
//! synthetic stream.

use bytebrain_repro::bytebrain::incremental::DriftConfig;
use bytebrain_repro::bytebrain::Query;
use bytebrain_repro::datasets::LabeledDataset;
use bytebrain_repro::service::library::AlertRule;
use bytebrain_repro::service::storage::framing::FrameLog;
use bytebrain_repro::service::storage::DeltaEvent;
use bytebrain_repro::service::{
    anomaly, AnomalyKind, IngestConfig, LogTopic, MaintenancePolicy, StorageConfig, TemplateGroup,
    TemplateLibrary, TopicConfig,
};
use std::sync::Arc;

/// The topic's template groups at `threshold`, through the one planned query path.
fn groups_at(topic: &LogTopic, threshold: f64) -> Arc<Vec<TemplateGroup>> {
    let plan = Query::group_by().at_threshold(threshold).plan().unwrap();
    Arc::clone(topic.execute(&plan).groups().expect("groups plan"))
}

/// The topic's `(template, count)` distribution at `threshold`.
fn distribution_at(topic: &LogTopic, threshold: f64) -> Arc<Vec<(String, u64)>> {
    let plan = Query::distribution()
        .at_threshold(threshold)
        .plan()
        .unwrap();
    Arc::clone(
        topic
            .execute(&plan)
            .distribution()
            .expect("distribution plan"),
    )
}

#[test]
fn topic_lifecycle_ingest_train_query() {
    let corpus = LabeledDataset::loghub2("Apache", 12_000);
    let mut topic = LogTopic::new(TopicConfig::new("apache-access").with_volume_threshold(5_000));
    for chunk in corpus.records.chunks(4_000) {
        topic.ingest(chunk);
    }
    let stats = topic.stats();
    assert_eq!(stats.total_records, corpus.records.len() as u64);
    assert!(
        stats.training_runs >= 2,
        "volume trigger should have re-trained"
    );
    assert!(stats.templates > 0);
    // The model is small relative to the data it describes (storage-efficiency goal).
    assert!(stats.model_size_bytes * 2 < stats.total_bytes);

    let groups = groups_at(&topic, 0.9);
    let covered: usize = groups.iter().map(|g| g.count()).sum();
    assert_eq!(covered as u64, stats.total_records);
}

#[test]
fn new_error_template_is_detected_as_anomaly() {
    let mut topic = LogTopic::new(TopicConfig::new("payments").with_volume_threshold(u64::MAX));
    let healthy: Vec<String> = (0..3_000)
        .map(|i| format!("payment {} authorized in {}ms", i, i % 40))
        .collect();
    topic.ingest(&healthy);
    let baseline = distribution_at(&topic, 0.9);

    let incident: Vec<String> = (0..500)
        .map(|i| {
            format!(
                "payment {} declined: fraud score {} exceeds limit",
                i,
                80 + i % 20
            )
        })
        .collect();
    topic.ingest(&incident);
    topic.run_training();
    let current = distribution_at(&topic, 0.9);

    let reports = anomaly::detect(&baseline, &current);
    assert!(
        reports
            .iter()
            .any(|r| r.kind == AnomalyKind::NewTemplate && r.template.contains("declined")),
        "expected a new-template anomaly, got {reports:?}"
    );
}

#[test]
fn library_alert_fires_on_known_failure_scenario() {
    let mut topic = LogTopic::new(TopicConfig::new("kernel").with_volume_threshold(u64::MAX));
    let mut logs: Vec<String> = (0..2_000)
        .map(|i| format!("usb device {} enumerated on bus {}", i, i % 4))
        .collect();
    logs.extend((0..200).map(|i| format!("Out of memory: Killed process {} (java)", 4_000 + i)));
    topic.ingest(&logs);
    topic.run_training();

    let mut library = TemplateLibrary::new();
    // Template text as the parser renders it: the tokenizer strips ':' and parentheses.
    library.save(
        "oom-killer",
        "Out of memory Killed process * java",
        vec![AlertRule::CountAbove(50), AlertRule::OnAppearance],
    );
    let distribution = distribution_at(&topic, 0.9);
    let alerts = library.evaluate_alerts(&distribution);
    assert!(
        alerts.iter().any(|a| a.entry == "oom-killer"),
        "expected the OOM alert to fire; distribution: {distribution:?}"
    );
}

/// Regression: records matched to temporary templates that incremental maintenance
/// later absorbed (retired) must never resolve to — or group under — the retired
/// nodes. Before the fix, `resolve_with_threshold` ignored `TreeNode::retired` and
/// group queries reported retired temporaries as template groups.
#[test]
fn queries_after_incremental_maintenance_return_no_retired_templates() {
    let mut topic = LogTopic::new(
        TopicConfig::new("drift-query")
            .with_volume_threshold(u64::MAX)
            .with_maintenance(MaintenancePolicy::Incremental {
                drift: DriftConfig::default()
                    .with_window(200)
                    .with_min_samples(50)
                    .with_max_unmatched_rate(0.3),
                check_interval: 512,
            }),
    );
    let base: Vec<String> = (0..400)
        .map(|i| format!("request {} served from cache {} in {}ms", i, i % 4, i % 9))
        .collect();
    topic.ingest(&base); // initial full training
    let novel: Vec<String> = (0..200)
        .map(|i| format!("circuit breaker opened for upstream svc-{}", i % 6))
        .collect();
    let outcome = topic.ingest(&novel); // drift → temporaries → incremental absorption
    assert!(outcome.maintained >= 1, "drift must maintain: {outcome:?}");
    assert!(
        topic.model().retired_count() > 0,
        "absorbed temporaries must leave retired slots behind"
    );
    for threshold in [0.0, 0.3, 0.6, 0.9, 1.0] {
        let groups = groups_at(&topic, threshold);
        let covered: usize = groups.iter().map(|g| g.count()).sum();
        assert_eq!(covered, topic.records().len(), "no record may be dropped");
        for group in groups.iter() {
            let node = &topic.model().nodes[group.node.0];
            assert!(
                !node.retired,
                "retired template leaked into query results at threshold {threshold}: \
                 {} ({})",
                group.template, group.node
            );
        }
    }
}

/// A stream under incremental maintenance is matched and applied in `check_interval`
/// chunks: maintenance between two chunks retires the temporaries it absorbs, and no
/// stored record — nor any query — may still point at one of them.
#[test]
fn chunked_stream_leaves_no_records_on_retired_templates() {
    let mut topic = LogTopic::new(
        TopicConfig::new("stream-drift-query")
            .with_volume_threshold(u64::MAX)
            .with_maintenance(MaintenancePolicy::Incremental {
                drift: DriftConfig::default()
                    .with_window(1_024)
                    .with_min_samples(256)
                    .with_max_unmatched_rate(0.2),
                check_interval: 512,
            }),
    );
    let base: Vec<String> = (0..500)
        .map(|i| format!("GET /api/items/{} took {}ms", i % 20, i % 90))
        .collect();
    topic.ingest(&base);
    let mut stream: Vec<String> = (0..2_000)
        .map(|i| format!("GET /api/items/{} took {}ms", i % 30, i % 400))
        .collect();
    stream.extend(
        (0..4_000).map(|i| format!("disk scrubber repaired sector {} on vol-{}", i, i % 3)),
    );
    let result = topic.ingest_stream(
        stream,
        &IngestConfig::default()
            .with_batch_records(64)
            .with_max_in_flight(4),
    );
    assert!(
        result.outcome.maintained >= 1,
        "drift between chunks must maintain"
    );
    assert!(
        topic.model().retired_count() > 0,
        "absorbed temporaries must leave retired slots behind"
    );
    // No stored record may point at a retired node, and no query may return one.
    for stored in topic.records().iter() {
        if let Some(id) = stored.template {
            assert!(
                !topic.model().nodes[id.0].retired,
                "stored record still points at retired node {id}: {stored:?}"
            );
        }
    }
    for group in groups_at(&topic, 0.9).iter() {
        assert!(!topic.model().nodes[group.node.0].retired);
    }
}

/// A durable topic's model lives in one log: the first training writes the epoch's
/// base file, a landing since rides in one event carrying its delta — smaller than the
/// base it applies to — and a reopen folds that event into the base to the live model.
#[test]
fn model_changes_round_trip_through_the_one_log() {
    let dir = std::env::temp_dir().join(format!("bb-one-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = TopicConfig::new("one-log")
        .with_volume_threshold(u64::MAX)
        .with_incremental_maintenance(
            DriftConfig::default()
                .with_window(200)
                .with_min_samples(50)
                .with_max_unmatched_rate(0.3),
        );
    let mut topic = LogTopic::durable(config, &dir, StorageConfig::default()).unwrap();
    let known: Vec<String> = (0..400)
        .map(|i| format!("request {} served from cache {} in {}ms", i, i % 4, i % 9))
        .collect();
    assert!(topic.ingest(&known).trained, "the first training");
    let novel: Vec<String> = (0..200)
        .map(|i| format!("circuit breaker opened for upstream svc-{}", i % 6))
        .collect();
    assert_eq!(
        topic.ingest(&novel).maintained,
        1,
        "one incremental landing"
    );

    let files = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path());
    let bases: Vec<_> = files
        .filter(|path| {
            path.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("base-")
        })
        .collect();
    assert_eq!(bases.len(), 1, "one base file: {bases:?}");
    let base_bytes = std::fs::metadata(&bases[0]).unwrap().len() as usize;
    let mut events = Vec::new();
    FrameLog::open(&dir.join("events.log"), |frame| {
        events.push(DeltaEvent::decode(frame).unwrap())
    })
    .unwrap();
    assert_eq!(events.len(), 1, "one event");
    assert!(!events[0].retrain);
    let delta_bytes = serde_json::to_string(&events[0].delta).unwrap().len();
    assert!(
        delta_bytes < base_bytes,
        "the delta ({delta_bytes} B) undercuts the base it applies to ({base_bytes} B)"
    );

    let live = serde_json::to_string(topic.model()).unwrap();
    drop(topic);
    let reopened = LogTopic::open(&dir, StorageConfig::default()).unwrap();
    assert_eq!(serde_json::to_string(reopened.model()).unwrap(), live);
    std::fs::remove_dir_all(&dir).unwrap();
}
