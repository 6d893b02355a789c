//! Nightly soak test for the automaton match path (run with `--ignored`).
//!
//! A 1M-line drifting generator stream flows through batched streaming
//! ingestion with incremental maintenance on the compiled automaton,
//! while every chunk's query snapshot is interrogated from a concurrent thread
//! as the next chunk ingests. Invariants held throughout:
//!
//! * zero retired-template leakage — no query group ever points at a retired
//!   node and no stored record ever sits on a retired template;
//! * monotone record counts — topic totals and snapshot postings only grow,
//!   and every snapshot's groups cover exactly its postings.
//!
//! Line volume can be scaled down for local runs with `BYTEBRAIN_SOAK_LINES`; from
//! 60,000 lines (three chunks) on, the stream lands at least two deltas, which is the
//! size every CI run uses.

use bytebrain_repro::bytebrain::incremental::DriftConfig;
use bytebrain_repro::bytebrain::Query;
use bytebrain_repro::datasets::{GeneratorConfig, LabeledDataset};
use bytebrain_repro::service::{IngestConfig, LogTopic, MaintenancePolicy, TopicConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn soak_lines() -> usize {
    std::env::var("BYTEBRAIN_SOAK_LINES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

fn base_seed() -> u64 {
    std::env::var("BYTEBRAIN_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// One chunk of the drifting stream: the Apache base family mixed with an
/// escalating share of novel families as `progress` advances — the second and third
/// arrive a third and two thirds of the way in — so incremental maintenance keeps
/// firing (temporaries piling up, deltas absorbing them, retirements) for the whole
/// run rather than only at the start.
fn chunk(progress: f64, len: usize, seed: u64) -> Vec<String> {
    let families = 1 + (progress * 3.0) as u32;
    let base =
        LabeledDataset::generate(&GeneratorConfig::loghub2("Apache", len).with_seed(seed ^ 0x50AC));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50AD);
    base.records
        .iter()
        .map(|record| {
            let p_drift = (progress * 0.8).min(0.8);
            if rng.gen_bool(p_drift) {
                match rng.gen_range(0..families.min(3)) {
                    0 => format!(
                        "gpu worker {} evicted tensor block {} after {} allocations",
                        rng.gen_range(0..8u32),
                        rng.gen_range(0..500u32),
                        rng.gen_range(1..10_000u32),
                    ),
                    1 => format!(
                        "circuit breaker opened for upstream svc-{} attempt {}",
                        rng.gen_range(0..12u32),
                        rng.gen_range(0..40u32),
                    ),
                    _ => format!(
                        "compaction of shard {} reclaimed {} bytes in {}ms",
                        rng.gen_range(0..64u32),
                        rng.gen_range(0..1_000_000u64),
                        rng.gen_range(0..5_000u32),
                    ),
                }
            } else {
                record.clone()
            }
        })
        .collect()
}

#[test]
#[ignore = "nightly soak: ~1M lines, run with --ignored"]
fn soak_automaton_stream_with_concurrent_queries() {
    const CHUNK: usize = 20_000;
    let total = soak_lines();
    let seed = base_seed();

    let mut config = TopicConfig::new("soak")
        .with_volume_threshold(u64::MAX)
        .with_maintenance(MaintenancePolicy::Incremental {
            drift: DriftConfig::default()
                .with_window(8_192)
                .with_min_samples(2_048)
                .with_max_unmatched_rate(0.05),
            check_interval: 2_048,
        });
    config.training_buffer = 16_000;
    let mut topic = LogTopic::new(config);

    let ingest = IngestConfig::default()
        .with_batch_records(1_024)
        .with_workers(2);
    let thresholds = [0.0, 0.3, 0.6, 0.9, 1.0];

    let chunks = total.div_ceil(CHUNK);
    let mut ingested = 0usize;
    let mut last_snapshot_records = 0usize;
    for i in 0..chunks {
        let len = CHUNK.min(total - ingested);
        let progress = i as f64 / chunks.max(1) as f64;
        let batch = chunk(progress, len, seed ^ (i as u64) << 8);

        // Query the pre-chunk snapshot from a concurrent thread while the
        // chunk ingests (the production serving pattern: immutable snapshots
        // answer queries while the live topic moves on).
        let snapshot = topic.query_snapshot();
        std::thread::scope(|scope| {
            let verifier = scope.spawn(move || {
                let records = snapshot.records();
                for &threshold in &thresholds {
                    let plan = Query::group_by().at_threshold(threshold).plan().unwrap();
                    let value = snapshot.execute(&plan).expect("node-only plan");
                    let groups = value.groups().expect("groups plan");
                    let covered: usize = groups.iter().map(|g| g.count()).sum();
                    assert_eq!(
                        covered, records,
                        "snapshot groups must cover all postings (threshold {threshold})"
                    );
                    for group in groups.iter() {
                        assert!(
                            !snapshot.model().nodes[group.node.0].retired,
                            "retired template leaked into snapshot query: {}",
                            group.template
                        );
                    }
                }
                records
            });
            topic.ingest_stream(batch, &ingest);
            let records = verifier.join().expect("query thread panicked");
            assert!(
                records >= last_snapshot_records,
                "snapshot postings went backwards: {records} < {last_snapshot_records}"
            );
            last_snapshot_records = records;
        });

        ingested += len;
        let stats = topic.stats();
        assert_eq!(
            stats.total_records, ingested as u64,
            "record count must track ingested volume exactly"
        );
        // Live-topic leakage check: no stored record on a retired template.
        let model = topic.model();
        for record in topic.records().iter() {
            if let Some(node) = record.template {
                assert!(
                    !model.nodes[node.0].retired,
                    "stored record sits on retired template after chunk {i}"
                );
            }
        }
    }

    let stats = topic.stats();
    eprintln!(
        "[soak] {} lines, {} training runs, {} maintenance runs, {} templates, {} retired slots",
        ingested,
        stats.training_runs,
        stats.maintenance_runs,
        stats.templates,
        topic.model().retired_count(),
    );
    assert_eq!(stats.training_runs, 1, "cold start only — no retrains");
    // From three chunks on, the later waves of novelty land a second delta.
    let waves = chunks.clamp(2, 3) - 1;
    assert!(
        stats.maintenance_runs >= waves as u64,
        "drift must have been absorbed incrementally, a delta per later wave"
    );
    assert!(
        topic.model().retired_count() > 0,
        "absorbed temporaries must leave retired slots (the leakage hazard)"
    );
}
