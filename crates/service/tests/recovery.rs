//! Kill-and-recover differential tests for the durable storage tier.
//!
//! Every test follows the same shape: run a durable topic through a workload,
//! capture its externally observable state (stats, model JSON, query output at a
//! ladder of thresholds, template distribution), simulate a crash by dropping the
//! in-process state (optionally snapshotting the directory mid-flight, the way a
//! `kill -9` freezes the disk), reopen with [`LogTopic::open`] /
//! [`ServiceManager::open_with`], and assert the recovered topic is byte-identical
//! to the never-restarted one. The fuzz test varies the interleaving of
//! ingest / retrain / delta maintenance / retention with the base seed taken
//! from `BYTEBRAIN_TEST_SEED` (CI varies it across a matrix), holds the
//! directory to its one model log after every step, and at every step continues
//! the reopened topic beside a never-restarted twin until a trigger lands.

use bytebrain::incremental::{DriftConfig, ModelDelta};
use bytebrain::{Predicate, Query, QueryPlan};
use service::ingest::IngestConfig;
use service::storage::framing::FrameLog;
use service::storage::DeltaEvent;
use service::{
    LogTopic, MaintenancePolicy, QueryValue, ServiceManager, StorageConfig, TopicConfig,
    TopicStats, TopicStorage,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Harness helpers
// ---------------------------------------------------------------------------

fn base_seed() -> u64 {
    std::env::var("BYTEBRAIN_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xB10C_5EED)
}

/// Tiny deterministic generator (splitmix64) for the interleaving fuzz test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bb-recovery-{tag}-{}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn copy_dir_all(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("create snapshot dir");
    for entry in fs::read_dir(src).expect("read src dir") {
        let entry = entry.expect("dir entry");
        let target = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir_all(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), &target).expect("copy file");
        }
    }
}

fn fast_storage() -> StorageConfig {
    // Small segments exercise seal/replay paths; fsync off keeps the suite quick
    // (crash simulation copies the live directory, so OS-cache durability is moot).
    StorageConfig::default()
        .with_segment_records(64)
        .with_fsync(false)
}

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

fn auth_batch(offset: usize, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "user u{} login from 10.0.{}.{} session {}",
                (offset + i) % 40,
                (offset + i) % 16,
                (offset + i) % 250,
                offset + i
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

/// The topic directory's base files (`base-<id>.json`), sorted.
fn base_files(dir: &Path) -> Vec<String> {
    let names = fs::read_dir(dir).expect("read topic dir").map(|entry| {
        let name = entry.expect("dir entry").file_name();
        name.to_string_lossy().into_owned()
    });
    let mut bases: Vec<String> = names.filter(|name| name.starts_with("base-")).collect();
    bases.sort_unstable();
    bases
}

/// Every event `events.log` holds, decoded.
fn logged_events(dir: &Path) -> Vec<DeltaEvent> {
    let mut frames = Vec::new();
    FrameLog::open(&dir.join("events.log"), |frame| frames.push(frame.to_vec()))
        .expect("read events.log");
    let decode = |frame: &Vec<u8>| DeltaEvent::decode(frame).expect("event decodes");
    frames.iter().map(decode).collect()
}

const THRESHOLDS: [f64; 6] = [0.0, 0.35, 0.6, 0.8, 0.9, 1.0];

/// The topic's groups at `threshold`, through the one planned query path.
fn groups_at(topic: &LogTopic, threshold: f64) -> QueryValue {
    topic.execute(&Query::group_by().at_threshold(threshold).plan().unwrap())
}

/// The topic's `(template, count)` distribution at the default precision.
fn distribution_of(topic: &LogTopic) -> QueryValue {
    topic.execute(&Query::distribution().at_threshold(0.9).plan().unwrap())
}

/// Everything a client can observe about a topic, captured for the differential.
struct Expectation {
    stats: TopicStats,
    model_json: String,
    record_count: usize,
    records: Vec<String>,
    groups: Vec<QueryValue>,
    distribution: QueryValue,
}

fn capture(topic: &LogTopic) -> Expectation {
    Expectation {
        stats: topic.stats(),
        model_json: serde_json::to_string(topic.model()).expect("model serializes"),
        record_count: topic.records().len(),
        records: topic
            .records()
            .iter()
            .map(|r| r.record.to_owned())
            .collect(),
        groups: THRESHOLDS.iter().map(|&t| groups_at(topic, t)).collect(),
        distribution: distribution_of(topic),
    }
}

fn assert_recovered(recovered: &LogTopic, expected: &Expectation, ctx: &str) {
    assert_eq!(
        recovered.records().len(),
        expected.record_count,
        "{ctx}: record count"
    );
    let recovered_records: Vec<String> = recovered
        .records()
        .iter()
        .map(|r| r.record.to_owned())
        .collect();
    assert_eq!(recovered_records, expected.records, "{ctx}: record texts");
    assert_eq!(
        serde_json::to_string(recovered.model()).expect("model serializes"),
        expected.model_json,
        "{ctx}: model JSON (byte-identical)"
    );
    assert_eq!(recovered.stats(), expected.stats, "{ctx}: topic stats");
    for (i, &t) in THRESHOLDS.iter().enumerate() {
        assert_eq!(
            groups_at(recovered, t),
            expected.groups[i],
            "{ctx}: groups at threshold {t}"
        );
    }
    assert_eq!(
        distribution_of(recovered),
        expected.distribution,
        "{ctx}: template distribution"
    );
}

/// Two topics that went through the same operations on their own — a live one and
/// one reopened along the way — agree on everything but what the wall clock wrote.
fn assert_same_but_for_clocks(live: &LogTopic, reopened: &LogTopic, ctx: &str) {
    let clockless = |stats: TopicStats| TopicStats {
        last_training_seconds: 0.0,
        last_maintenance_seconds: 0.0,
        ..stats
    };
    let (live, reopened) = (capture(live), capture(reopened));
    assert_eq!(reopened.records, live.records, "{ctx}: record texts");
    assert_eq!(reopened.model_json, live.model_json, "{ctx}: model JSON");
    assert_eq!(
        clockless(reopened.stats),
        clockless(live.stats),
        "{ctx}: topic stats"
    );
    assert_eq!(reopened.groups, live.groups, "{ctx}: group battery");
    assert_eq!(
        reopened.distribution, live.distribution,
        "{ctx}: template distribution"
    );
}

// ---------------------------------------------------------------------------
// Durable wiring is semantically invisible
// ---------------------------------------------------------------------------

#[test]
fn durable_topic_matches_in_memory_twin() {
    let dir = scratch_dir("twin");
    let config = TopicConfig::new("web-access").with_volume_threshold(250);
    let mut durable =
        LogTopic::durable(config.clone(), &dir, fast_storage()).expect("create durable topic");
    let mut twin = LogTopic::new(config);

    for batch in [
        web_access_batch(0, 200),
        novel_batch(0, 120),
        web_access_batch(200, 150),
        novel_batch(120, 80),
    ] {
        durable.ingest(&batch);
        twin.ingest(&batch);
    }

    let d = durable.stats();
    let t = twin.stats();
    assert_eq!(d.total_records, t.total_records);
    assert_eq!(d.total_bytes, t.total_bytes);
    assert_eq!(d.templates, t.templates);
    assert_eq!(d.training_runs, t.training_runs);
    assert_eq!(d.maintenance_runs, t.maintenance_runs);
    for &threshold in &THRESHOLDS {
        assert_eq!(
            groups_at(&durable, threshold),
            groups_at(&twin, threshold),
            "durable and in-memory topics must serve identical groups at {threshold}"
        );
    }
    assert_eq!(distribution_of(&durable), distribution_of(&twin));
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Kill-and-recover differentials
// ---------------------------------------------------------------------------

#[test]
fn kill_and_recover_full_retrain_byte_identical() {
    let dir = scratch_dir("full-retrain");
    let config = TopicConfig::new("web-access").with_volume_threshold(250);
    let mut topic = LogTopic::durable(config, &dir, fast_storage()).expect("create durable topic");

    // Two full training runs (initial + volume-triggered) with temporary templates
    // from the novel family layered on top of the second epoch.
    topic.ingest(&web_access_batch(0, 200));
    topic.ingest(&novel_batch(0, 120));
    topic.ingest(&web_access_batch(200, 150));
    topic.ingest(&novel_batch(120, 80));
    assert!(topic.stats().training_runs >= 2, "retrain must have run");

    let expected = capture(&topic);
    drop(topic); // kill: all in-process state gone

    let recovered = LogTopic::open(&dir, fast_storage()).expect("recover topic");
    assert_recovered(&recovered, &expected, "full-retrain recovery");
    assert!(recovered.storage().is_some());

    // A second restart replays the state just as faithfully.
    drop(recovered);
    let again = LogTopic::open(&dir, fast_storage()).expect("recover topic twice");
    assert_recovered(&again, &expected, "second recovery");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_and_recover_incremental_stream_maintenance() {
    let dir = scratch_dir("incremental");
    let config = TopicConfig::new("web-access-inc")
        .with_volume_threshold(100_000)
        .with_maintenance(MaintenancePolicy::Incremental {
            drift: DriftConfig::default()
                .with_window(400)
                .with_min_samples(100)
                .with_max_unmatched_rate(0.3),
            check_interval: 64,
        });
    let mut topic = LogTopic::durable(config, &dir, fast_storage()).expect("create durable topic");

    // Cold-start train on the known family, then stream a drifting workload so the
    // drift check between its chunks fires incremental maintenance (delta events in the
    // event log, moves re-applied on replay).
    topic.ingest(&web_access_batch(0, 300));
    let stream_config = IngestConfig {
        batch_records: 64,
        workers: 2,
        ..IngestConfig::default()
    };
    topic.ingest_stream(novel_batch(0, 400), &stream_config);
    topic.ingest(&web_access_batch(300, 100));
    assert!(
        topic.stats().maintenance_runs >= 1,
        "drift maintenance must have produced at least one delta event"
    );

    let expected = capture(&topic);
    drop(topic);

    let recovered = LogTopic::open(&dir, fast_storage()).expect("recover topic");
    assert_recovered(&recovered, &expected, "incremental recovery");
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// A meta.json from before the engine option was removed still opens
// ---------------------------------------------------------------------------

/// One plan per query operator, plus a composed one mixing every predicate kind.
fn operator_battery(records: u64) -> Vec<QueryPlan> {
    let half = Predicate::time_window(0, records / 2);
    [
        Query::group_by(),
        Query::top_k(3).at_threshold(0.6),
        Query::distribution(),
        Query::count_distinct(),
        Query::group_by().filter(Predicate::template_matches("login from")),
        Query::group_by().filter(Predicate::variable_equals("u3")),
        Query::distribution().filter(Predicate::variable_contains("u1")),
        Query::distribution().filter(Predicate::time_window(records / 4, records / 2)),
        Query::top_k(5).at_threshold(0.75).filter(
            Predicate::variable_equals("u7").or(half.and(Predicate::variable_contains("u2").not())),
        ),
    ]
    .into_iter()
    .map(|query| query.plan().expect("valid plan"))
    .collect()
}

#[test]
fn meta_carrying_the_retired_match_engine_tag_reopens() {
    let dir = scratch_dir("old-meta");
    let config = TopicConfig::new("old-meta").with_volume_threshold(1_000_000);
    let mut topic = LogTopic::durable(config, &dir, fast_storage()).expect("create durable topic");
    let mut batch = web_access_batch(0, 200);
    batch.extend(auth_batch(0, 200));
    topic.ingest(&batch);
    topic.ingest(&novel_batch(0, 40));
    let battery = operator_battery(topic.records().len() as u64);
    let answers: Vec<QueryValue> = battery.iter().map(|plan| topic.execute(plan)).collect();
    let expected = capture(&topic);
    drop(topic);

    // Older stores persisted an engine tag. The derive reads fields by name, so
    // the stale key is ignored.
    let meta_path = dir.join("meta.json");
    let meta = fs::read_to_string(&meta_path).expect("read meta.json");
    assert!(!meta.contains("match_engine"));
    let old = meta.replacen('{', "{\"match_engine\":\"TreeWalk\",", 1);
    fs::write(&meta_path, old).expect("patch meta.json");

    let recovered = LogTopic::open(&dir, fast_storage()).expect("old meta.json must open");
    assert_recovered(&recovered, &expected, "old meta");
    for (plan, want) in battery.iter().zip(&answers) {
        assert_eq!(
            &recovered.execute(plan),
            want,
            "old meta: {:?}",
            plan.output()
        );
    }
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// WAL replay ≡ live state at every event boundary (seeded fuzz)
// ---------------------------------------------------------------------------

/// One step of the interleaving fuzz.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Ingest `n` known-family records from `offset`.
    Known(usize, usize),
    /// Ingest `n` novel-family records from `offset`.
    Novel(usize, usize),
    Retrain,
    Absorb,
    Retention,
}

fn take(topic: &mut LogTopic, step: Step) {
    match step {
        Step::Known(offset, n) => _ = topic.ingest(&web_access_batch(offset, n)),
        Step::Novel(offset, n) => _ = topic.ingest(&novel_batch(offset, n)),
        Step::Retrain => topic.run_training(),
        Step::Absorb => _ = topic.run_incremental_maintenance(),
        Step::Retention => _ = topic.run_storage_maintenance(),
    }
}

/// Ingest into `live` and `reopened` alike, in small batches that end past the
/// volume threshold and carry a family no fuzz step ingests, and never call a
/// maintenance function: whatever lands, lands on the trigger count, the drift
/// window, the training window and the pending unmatched records each topic holds.
/// Every call must have the same outcome on both — a trigger that counts
/// differently fires at a different call — and the topics must end alike.
fn continue_alike(live: &mut LogTopic, reopened: &mut LogTopic, offset: usize, ctx: &str) {
    const BATCH: usize = 50;
    let batches = live.config().volume_threshold as usize / BATCH + 2;
    let mut landed = false;
    for i in 0..batches {
        let start = offset + i * BATCH;
        let mut batch = web_access_batch(start, BATCH - 5);
        batch.extend(auth_batch(start, 5));
        let outcome = live.ingest(&batch);
        assert_eq!(
            reopened.ingest(&batch),
            outcome,
            "{ctx}: continued ingest {i}"
        );
        landed |= outcome.trained || outcome.maintained > 0;
    }
    assert!(
        landed,
        "{ctx}: the continuation crossed the volume threshold"
    );
    assert_same_but_for_clocks(live, reopened, &format!("{ctx}, continued"));
}

#[test]
fn wal_replay_equals_live_at_every_boundary() {
    let incremental = MaintenancePolicy::Incremental {
        drift: DriftConfig::default()
            .with_window(200)
            .with_min_samples(50)
            .with_max_unmatched_rate(0.3),
        check_interval: 128,
    };
    // TTL-0 retention makes nearly every retrain take an epoch checkpoint; the
    // topic that keeps everything never takes one after the first training, so its
    // training window is replayed from retrain events alone.
    let configurations = [
        (incremental, Some(Duration::ZERO)),
        (MaintenancePolicy::FullRetrain, Some(Duration::ZERO)),
        (MaintenancePolicy::FullRetrain, None),
    ];
    let seeds = base_seed()..base_seed() + 3;
    for (seed, (index, (policy, ttl))) in
        seeds.flat_map(|seed| configurations.iter().enumerate().map(move |c| (seed, c)))
    {
        let tag = format!("fuzz-{seed}-{index}");
        let dir = scratch_dir(&tag);
        let config = TopicConfig::new("fuzz")
            .with_volume_threshold(400)
            .with_maintenance(policy.clone());
        let storage = StorageConfig {
            retention_ttl: *ttl,
            ..fast_storage()
        };
        let create = |dir: &Path| {
            LogTopic::durable(config.clone(), dir, storage.clone()).expect("create durable topic")
        };
        let mut topic = create(&dir);

        let mut rng = Rng(seed);
        let mut offset = 0usize;
        let mut steps: Vec<Step> = Vec::new();
        // The landings since the last checkpoint, `(at_seq, retrain)`, and the base
        // file that checkpoint wrote.
        let mut landings: Vec<(u64, bool)> = Vec::new();
        let mut base = base_files(&dir);
        const OPS: usize = 10;
        for op_index in 0..OPS {
            let runs = |stats: TopicStats| (stats.training_runs, stats.maintenance_runs);
            let runs_before = runs(topic.stats());
            let step = match rng.below(6) {
                0 | 1 => Step::Known(offset, 40 + rng.below(80) as usize),
                2 => Step::Novel(offset, 30 + rng.below(60) as usize),
                3 => Step::Retrain,
                4 => Step::Absorb,
                _ => Step::Retention,
            };
            if let Step::Known(_, n) | Step::Novel(_, n) = step {
                offset += n;
            }
            take(&mut topic, step);
            steps.push(step);
            let ctx = format!("{tag} boundary after op {op_index} ({step:?})");

            // One model log: a base file once a model exists, no lineage log, and an
            // event per landing since the checkpoint that wrote that base file.
            let bases = base_files(&dir);
            let want_bases = usize::from(!topic.model().is_empty());
            assert_eq!(bases.len(), want_bases, "{ctx}: base files {bases:?}");
            assert!(!dir.join("lineage.log").exists(), "{ctx}: lineage.log");
            let (trainings, maintenances) = runs(topic.stats());
            if bases != base {
                landings.clear();
                base = bases;
            } else if (trainings, maintenances) != runs_before {
                let at_seq = topic.first_record_seq() + topic.records().len() as u64;
                landings.push((at_seq, trainings != runs_before.0));
            }
            let events = logged_events(&dir);
            let logged: Vec<(u64, bool)> = events.iter().map(|e| (e.at_seq, e.retrain)).collect();
            assert_eq!(logged, landings, "{ctx}: events.log");

            // Kill here: freeze the directory exactly as the crash would leave it,
            // then recover from the frozen copy and compare against the live topic.
            let frozen = scratch_dir(&format!("{tag}-boundary-{op_index}"));
            fs::remove_dir_all(&frozen).ok();
            copy_dir_all(&dir, &frozen);
            let expected = capture(&topic);
            let mut recovered = LogTopic::open(&frozen, storage.clone())
                .unwrap_or_else(|e| panic!("{ctx}: recover: {e}"));
            assert_recovered(&recovered, &expected, &ctx);

            // Recovery continues where live does. The live topic's own run goes on
            // past this boundary, so a twin that never stopped takes the same steps
            // from scratch and continues in its place.
            let twin_dir = scratch_dir(&format!("{tag}-twin-{op_index}"));
            let mut twin = create(&twin_dir);
            steps.iter().for_each(|&step| take(&mut twin, step));
            continue_alike(&mut twin, &mut recovered, offset, &ctx);
            drop((twin, recovered));
            fs::remove_dir_all(&twin_dir).ok();
            fs::remove_dir_all(&frozen).ok();
        }
        fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// A directory in the format-1 layout (model history in lineage.log) is refused
// ---------------------------------------------------------------------------

#[test]
fn format_1_directory_is_refused_with_invalid_data() {
    let root = scratch_dir("format-1");
    let mut manager = ServiceManager::durable(&root, fast_storage()).expect("durable manager");
    manager
        .topic_mut("acme", "web")
        .ingest(&web_access_batch(0, 200));
    let topic = manager.topic("acme", "web").expect("topic exists");
    let dir = topic.storage().expect("durable").dir().to_path_buf();
    drop(manager);

    // The manifest as format 1 wrote it: it named a lineage-log version, not a base file.
    let format_1 = r#"{
  "format": 1,
  "generation": 1,
  "wal_base_seq": 200,
  "first_live_seq": 0,
  "epoch_start_seq": 200,
  "epoch_base_version": 1,
  "model_version_at_epoch": 1,
  "maintenance_runs_at_epoch": 0,
  "last_maintenance_seconds_at_epoch": 0.0,
  "training_runs": 1,
  "last_training_seconds": 0.01,
  "bytes_dropped": 0,
  "next_segment_id": 5,
  "segments": []
}"#;
    fs::write(dir.join("MANIFEST.json"), format_1).expect("write format-1 manifest");

    let refused = |result: std::io::Result<()>, what: &str| {
        let error = result.expect_err(what);
        assert_eq!(
            error.kind(),
            std::io::ErrorKind::InvalidData,
            "{what}: {error}"
        );
        assert!(error.to_string().contains("format 1"), "{what}: {error}");
    };
    refused(
        LogTopic::open(&dir, fast_storage()).map(drop),
        "LogTopic::open",
    );
    refused(
        ServiceManager::open_with(&root, fast_storage()).map(drop),
        "ServiceManager::open",
    );
    fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// A reopen reads the store and writes no manifest
// ---------------------------------------------------------------------------

#[test]
fn reopening_leaves_the_manifest_byte_identical() {
    let dir = scratch_dir("manifest-reopen");
    let config = TopicConfig::new("web-access").with_volume_threshold(1_000_000);
    let mut topic = LogTopic::durable(config, &dir, fast_storage()).expect("create durable topic");
    topic.ingest(&web_access_batch(0, 200));
    topic.ingest(&novel_batch(0, 120));
    assert_eq!(topic.stats().training_runs, 1, "past the first training");
    drop(topic);

    let manifest = || fs::read(dir.join("MANIFEST.json")).expect("read MANIFEST.json");
    let written = manifest();
    for reopen in 1..=2 {
        drop(LogTopic::open(&dir, fast_storage()).expect("reopen"));
        assert!(
            manifest() == written,
            "reopen {reopen} rewrote MANIFEST.json"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// A delta event trained against another model is refused, not landed
// ---------------------------------------------------------------------------

/// A forged event whose delta names one node more, or one node fewer, than the
/// model replay holds when it reaches the event makes the reopen fail with
/// `InvalidData` naming the event, instead of landing it on the wrong node ids.
#[test]
fn a_delta_event_of_another_model_width_is_refused_on_reopen() {
    for (tag, offset) in [("wider", 1), ("narrower", -1)] {
        let dir = scratch_dir(&format!("forged-delta-{tag}"));
        let config = TopicConfig::new("forged").with_volume_threshold(1_000_000);
        let mut topic =
            LogTopic::durable(config, &dir, fast_storage()).expect("create durable topic");
        topic.ingest(&web_access_batch(0, 200));
        // Temporaries replay re-inserts before it reaches the forged event.
        topic.ingest(&novel_batch(0, 3));
        let nodes = topic.model().len();
        drop(topic);

        let (mut storage, _) = TopicStorage::open(&dir, fast_storage()).expect("open store");
        let at_seq = storage.next_seq();
        let forged = DeltaEvent {
            at_seq,
            elapsed_seconds: 0.0,
            moves: Vec::new(),
            retrain: false,
            delta: ModelDelta {
                base_nodes: nodes.checked_add_signed(offset).expect("a node count"),
                patches: Vec::new(),
                new_nodes: Vec::new(),
                retire_temporaries: false,
            },
        };
        storage
            .append_delta_event(&forged)
            .expect("append the forged event");
        drop(storage);

        let error = LogTopic::open(&dir, fast_storage()).expect_err("forged event refused");
        assert_eq!(
            error.kind(),
            std::io::ErrorKind::InvalidData,
            "{tag}: {error}"
        );
        assert!(
            error.to_string().contains(&format!("at seq {at_seq}")),
            "{tag}: {error}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Segments keep variables longer than 64 KiB
// ---------------------------------------------------------------------------

#[test]
fn variables_longer_than_64_kib_survive_a_reopen() {
    let dir = scratch_dir("long-variables");
    let config = TopicConfig::new("long").with_volume_threshold(1_000_000);
    let mut topic = LogTopic::durable(config, &dir, fast_storage()).expect("create durable topic");
    let letters = |n: usize| {
        (b'a'..=b'z')
            .cycle()
            .take(n)
            .map(char::from)
            .collect::<String>()
    };
    let lines: Vec<String> = (0..200)
        .map(|i| format!("upload from user{} body {}", i % 5, letters(70_000 + i)))
        .collect();
    topic.ingest(&lines);
    assert!(!topic.storage().expect("durable").segments().is_empty());
    let column = |topic: &LogTopic| {
        let records = topic.records();
        let column = (0..records.len()).map(|idx| records.owned_variables(idx));
        column.collect::<Vec<_>>()
    };
    let live = column(&topic);
    let longest = live.iter().flatten().map(String::len).max();
    assert!(
        longest >= Some(70_000),
        "the body is a variable: {longest:?}"
    );
    drop(topic);

    let reopened = LogTopic::open(&dir, fast_storage()).expect("recover topic");
    assert!(column(&reopened) == live, "reopened slots ≡ live slots");
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The query cache keys on the live sequence range
// ---------------------------------------------------------------------------

#[test]
fn query_cache_generation_prevents_stale_hits_after_retention() {
    let dir = scratch_dir("cache-gen");
    let config = TopicConfig::new("cache-gen").with_volume_threshold(1_000_000);
    let storage = fast_storage().with_retention_ttl(Duration::ZERO);
    let mut topic = LogTopic::durable(config, &dir, storage).expect("create durable topic");

    // Train over two families, then query: the result (web + auth groups) lands in
    // the cache under the model and the live sequence range [0, 300).
    let mut batch = web_access_batch(0, 150);
    batch.extend(auth_batch(0, 150));
    topic.ingest(&batch);
    let model_stats = |topic: &LogTopic| TopicStats {
        total_records: 0,
        total_bytes: 0,
        ..topic.stats()
    };
    let model_before = model_stats(&topic);
    let stale = groups_at(&topic, 0.9);
    assert!(!stale.groups().expect("groups plan").is_empty());

    // TTL retention evicts every record: the live range now starts past them.
    let outcome = topic.run_storage_maintenance();
    assert_eq!(outcome.dropped_records, 300, "TTL=0 must evict everything");
    assert!(topic.records().is_empty());
    assert_eq!(topic.first_record_seq(), 300);
    assert_eq!(
        topic.stats().total_records,
        300,
        "records ingested, like bytes ingested, survive retention"
    );

    // Refill to the *same* record count under the *same* model with a different
    // record set. A key of the record count and the model alone collides with the
    // stale entry, and the query would serve the evicted web+auth groups.
    topic.ingest(&auth_batch(1_000, 300));
    assert_eq!(
        model_stats(&topic),
        model_before,
        "the refill matches: no temporary, no training (the collision scenario)"
    );
    assert_eq!(topic.records().len(), 300);

    let fresh = groups_at(&topic, 0.9);
    assert_ne!(fresh, stale, "cache must not serve pre-eviction groups");
    let fresh = fresh.groups().expect("groups plan");
    let total: usize = fresh.iter().map(|g| g.count()).sum();
    assert_eq!(
        total, 300,
        "fresh result must cover exactly the live records"
    );
    let (hits, misses) = topic.query_cache_stats();
    assert_eq!(hits, 0, "no query may hit across the eviction");
    assert_eq!(misses, 2);

    // The evicted 300 still count after a reopen, beside the 300 live ones.
    drop(topic);
    let reopened = LogTopic::open(&dir, fast_storage()).expect("reopen");
    assert_eq!(reopened.records().len(), 300);
    assert_eq!(reopened.stats().total_records, 600);
    fs::remove_dir_all(&dir).ok();
}

/// With a TTL of 0 every segment is expired, so retention drops exactly the segments
/// that end at or before the training window's start — the last retrain's sequence
/// number, not the epoch's, since these retrains take no checkpoint (nothing is
/// flagged) — on a live topic and on a twin reopened from disk before each pass. The
/// next retrain then reads the same window on both.
#[test]
fn ttl_zero_retention_stops_at_the_training_window_live_and_reopened() {
    let storage = || fast_storage().with_retention_ttl(Duration::ZERO);
    let config = TopicConfig::new("window").with_volume_threshold(1_000_000);
    let (live_dir, twin_dir) = (scratch_dir("window-live"), scratch_dir("window-twin"));
    let mut live = LogTopic::durable(config.clone(), &live_dir, storage()).expect("create");
    let mut twin = LogTopic::durable(config, &twin_dir, storage()).expect("create");
    for topic in [&mut live, &mut twin] {
        let mut first = web_access_batch(0, 200);
        first.extend(auth_batch(0, 100));
        topic.ingest(&first);
        topic.run_training();
    }
    let epoch_start = 300;
    let mut offset = epoch_start;
    for round in 0..2 {
        for topic in [&mut live, &mut twin] {
            let outcome = topic.ingest(&web_access_batch(offset, 200));
            assert_eq!(outcome.unmatched, 0, "round {round}: no record is flagged");
            topic.run_training();
            topic.ingest(&web_access_batch(offset + 200, 90));
        }
        offset += 290;
        let window_start = (offset - 90) as u64;
        drop(twin);
        twin = LogTopic::open(&twin_dir, storage()).expect("reopen");
        let segments = live.storage().expect("durable").segments().to_vec();
        let kept = segments.iter().position(|seg| seg.end_seq() > window_start);
        let kept = &segments[kept.expect("a segment reaches into the window")];
        // The window start falls inside a segment, past the epoch's start.
        assert!(kept.first_seq < window_start && kept.first_seq > epoch_start as u64);
        for (name, topic) in [("live", &mut live), ("reopened", &mut twin)] {
            let ctx = format!("round {round}, {name}");
            let before = topic.storage().expect("durable").first_live_seq();
            let outcome = topic.run_storage_maintenance();
            let storage = topic.storage().expect("durable");
            assert_eq!(
                storage.first_live_seq(),
                kept.first_seq,
                "{ctx}: first live"
            );
            assert_eq!(outcome.dropped_records, kept.first_seq - before, "{ctx}");
            assert_eq!(
                storage.segments()[0].id,
                kept.id,
                "{ctx}: first kept segment"
            );
            assert_eq!(
                topic.records().len() as u64,
                storage.next_seq() - kept.first_seq
            );
        }
    }
    for topic in [&mut live, &mut twin] {
        topic.ingest(&web_access_batch(offset, 50));
        topic.run_training();
    }
    assert_eq!(live.stats().training_runs, 4);
    assert_same_but_for_clocks(&live, &twin, "after the next retrain");
    drop((live, twin));
    fs::remove_dir_all(&live_dir).ok();
    fs::remove_dir_all(&twin_dir).ok();
}

// ---------------------------------------------------------------------------
// Crash windows: torn WAL tail, orphan segment files
// ---------------------------------------------------------------------------

#[test]
fn torn_wal_tail_and_orphan_segments_are_discarded() {
    use std::io::Write;

    let dir = scratch_dir("crash-window");
    let config = TopicConfig::new("crash").with_volume_threshold(1_000_000);
    let mut topic = LogTopic::durable(config, &dir, fast_storage()).expect("create durable topic");
    topic.ingest(&web_access_batch(0, 200));
    topic.ingest(&web_access_batch(200, 90)); // 26 records stay in the WAL tail
    let expected = capture(&topic);
    drop(topic);

    // Torn tail: the process died halfway through framing the next record.
    let mut wal = fs::OpenOptions::new()
        .append(true)
        .open(dir.join("wal.log"))
        .expect("open wal for corruption");
    wal.write_all(&[0x42, 0x00, 0x00, 0x00, 0xDE, 0xAD])
        .expect("append torn frame");
    drop(wal);

    // Orphan segment: flushed to disk but the crash hit before the manifest
    // recorded it. The manifest is the source of truth; the file must be ignored
    // and garbage-collected.
    let orphan = dir.join("segments").join("seg-99999999.seg");
    fs::write(&orphan, b"not a segment").expect("plant orphan segment");
    // Orphan base files: a checkpoint wrote them, the crash hit before the manifest
    // swap named one.
    let orphan_bases = ["base-99999999.json", "base-99999999.json.tmp"].map(|name| dir.join(name));
    for orphan_base in &orphan_bases {
        fs::write(orphan_base, b"not a model").expect("plant orphan base file");
    }

    let recovered = LogTopic::open(&dir, fast_storage()).expect("recover after crash");
    assert_recovered(&recovered, &expected, "crash-window recovery");
    assert!(
        !orphan.exists(),
        "orphan segment file must be garbage-collected on open"
    );
    assert!(
        orphan_bases.iter().all(|orphan_base| !orphan_base.exists()),
        "orphan base files must be garbage-collected on open"
    );
    assert_eq!(base_files(&dir).len(), 1, "the manifest's base file stays");
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Fleet recovery through ServiceManager::open
// ---------------------------------------------------------------------------

#[test]
fn manager_fleet_recovery_round_trips_all_topics() {
    let root = scratch_dir("fleet");
    let storage = fast_storage();
    let mut manager =
        ServiceManager::durable(&root, storage.clone()).expect("create durable manager");

    // Tenant/topic names with separators and non-ASCII exercise the directory
    // encoding; each topic gets a distinct workload.
    manager
        .topic_mut("acme", "web")
        .ingest(&web_access_batch(0, 200));
    manager
        .topic_mut("acme", "auth:prod")
        .ingest(&auth_batch(0, 180));
    manager
        .topic_mut("globex/β", "scrub")
        .ingest(&novel_batch(0, 160));
    manager
        .topic_mut("acme", "web")
        .ingest(&web_access_batch(200, 120));

    let keys = [
        ("acme", "web"),
        ("acme", "auth:prod"),
        ("globex/β", "scrub"),
    ];
    let expected: Vec<Expectation> = keys
        .iter()
        .map(|(tenant, topic)| capture(manager.topic(tenant, topic).expect("topic exists")))
        .collect();
    let fleet_before = manager.fleet_stats();
    drop(manager);

    let recovered = ServiceManager::open_with(&root, storage).expect("reopen fleet");
    assert_eq!(recovered.topic_count(), 3);
    let mut acme_topics = recovered.topics_of("acme");
    acme_topics.sort_unstable();
    assert_eq!(acme_topics, vec!["auth:prod", "web"]);
    assert_eq!(recovered.topics_of("globex/β"), vec!["scrub"]);
    for ((tenant, topic), exp) in keys.iter().zip(&expected) {
        let recovered_topic = recovered
            .topic(tenant, topic)
            .unwrap_or_else(|| panic!("topic {tenant}/{topic} missing after recovery"));
        assert_recovered(
            recovered_topic,
            exp,
            &format!("fleet topic {tenant}/{topic}"),
        );
    }
    assert_eq!(recovered.fleet_stats(), fleet_before);
    fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Variable queries read the slot column, which a reopen loads or re-derives
// ---------------------------------------------------------------------------

/// `worker <name> finished job <n> on <host><ip> in <t>ms after <k> steps`, cycling
/// through `names`; the host and address mask to `<host><*>`, a slot masking rewrote.
fn worker_batch(rng: &mut Rng, names: &[&str], n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "worker {} finished job {} on {}10.0.{}.{} in {}ms after {} steps",
                names[i % names.len()],
                rng.below(5_000),
                ["edge", "core", "db"][rng.below(3) as usize],
                rng.below(8),
                rng.below(250),
                1 + rng.below(900),
                1 + rng.below(40)
            )
        })
        .collect()
}

/// `var_eq` and `window_var` read the slot column. A reopen loads it from segments
/// whose records all arrived after the last delta and re-derives it for the rest: here
/// a delta generalised nodes holding sealed records — `alpha`, a constant when they
/// were sealed, is a slot of theirs now — so those segments' stored columns are stale,
/// and the reopened topic must answer both shapes, and every other, exactly as live.
#[test]
fn variable_queries_recover_after_a_delta_generalised_sealed_records() {
    let dir = scratch_dir("generalised");
    let config = TopicConfig::new("generalised")
        .with_volume_threshold(100_000)
        .with_incremental_maintenance(
            DriftConfig::default()
                .with_window(200)
                .with_min_samples(50)
                .with_max_unmatched_rate(0.2),
        );
    let mut topic = LogTopic::durable(config, &dir, fast_storage()).expect("create durable topic");
    let mut rng = Rng(base_seed());
    let var_eq = Query::group_by()
        .at_threshold(0.6)
        .filter(Predicate::variable_equals("alpha"))
        .plan()
        .expect("valid plan");
    let alpha_records = |topic: &LogTopic| match topic.execute(&var_eq) {
        QueryValue::Groups(groups) => groups
            .iter()
            .flat_map(|group| group.record_indices.clone())
            .collect::<Vec<usize>>(),
        other => panic!("groups plan answered {other:?}"),
    };

    topic.ingest(&worker_batch(&mut rng, &["alpha"], 300));
    assert!(alpha_records(&topic).is_empty(), "`alpha` is a constant");
    let segments = topic.storage().expect("durable").segments();
    let sealed_before: u64 = segments.iter().map(|segment| segment.records).sum();
    let sealed_before = sealed_before as usize;
    topic.ingest(&worker_batch(&mut rng, &["beta", "alpha", "gamma"], 300));
    assert!(
        topic.stats().maintenance_runs >= 1,
        "the drift lands a delta"
    );
    assert!(
        alpha_records(&topic).iter().any(|&idx| idx < sealed_before),
        "the delta made `alpha` a slot of records sealed while it was a constant"
    );
    // Segments sealed after the delta: their stored columns load as they are.
    topic.ingest(&worker_batch(&mut rng, &["alpha", "delta"], 300));

    let records = topic.records().len() as u64;
    let mut plans = operator_battery(records);
    plans.push(var_eq.clone());
    plans.push(
        Query::distribution()
            .at_threshold(0.6)
            .filter(Predicate::time_window(records / 4, 3 * records / 4))
            .filter(Predicate::variable_contains("1"))
            .plan()
            .expect("valid plan"),
    );
    let answers: Vec<QueryValue> = plans.iter().map(|plan| topic.execute(plan)).collect();
    let column = |topic: &LogTopic| {
        let records = topic.records();
        let column = (0..records.len()).map(|idx| records.owned_variables(idx));
        column.collect::<Vec<_>>()
    };
    let live_column = column(&topic);
    let expected = capture(&topic);
    drop(topic);

    let recovered = LogTopic::open(&dir, fast_storage()).expect("recover topic");
    assert_recovered(&recovered, &expected, "generalised recovery");
    for (plan, want) in plans.iter().zip(&answers) {
        assert_eq!(
            &recovered.execute(plan),
            want,
            "{:?} {:?}",
            plan.output(),
            plan.predicate()
        );
    }
    assert_eq!(column(&recovered), live_column, "slot column");
    fs::remove_dir_all(&dir).ok();
}
