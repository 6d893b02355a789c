//! Differential test harness: every ingestion path of the service must agree.
//!
//! Seeded random workloads from `datasets::generator` flow through (a) batch
//! `LogTopic::ingest`, (b) streaming `LogTopic::ingest_stream` under 1/2/4
//! workers, and (c) the incremental-maintenance path — and all
//! of them must produce identical template assignments and identical ingest stats.
//! A second harness drives a drifting 100k-line workload through a full-retrain
//! topic and an incremental topic side by side and proves the incremental path
//! converges to the same template groupings without a single stop-the-world
//! retrain. A third holds the one path every retrain lands through to its
//! library-only reference (`common::MergeReference`): train the window, `merge_models`,
//! re-match everything. A fourth holds every landing of a drifting stream to the
//! template tree's covering invariants: a parent covers its children, and every stored
//! record fits the template it resolves to.
//!
//! The base seed is `BYTEBRAIN_TEST_SEED` (default 1); CI runs a seed matrix.

use bytebrain_repro::bytebrain::incremental::DriftConfig;
use bytebrain_repro::bytebrain::matcher::match_ids_batch;
use bytebrain_repro::bytebrain::{
    resolve_with_threshold, ByteBrainParser, NodeId, SlotRange, TrainConfig,
};
use bytebrain_repro::datasets::{
    dataset_names, loghub2_dataset_names, GeneratorConfig, LabeledDataset,
};
use bytebrain_repro::eval::ga::grouping_report;
use bytebrain_repro::service::{IngestConfig, LogTopic, MaintenancePolicy, TopicConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::base_seed;

/// A seeded random workload: a generated corpus split into a warm-up prefix (cold-start
/// training) and the measured stream.
fn workload(dataset: &str, total: usize, warmup: usize) -> (Vec<String>, Vec<String>) {
    let config = GeneratorConfig::loghub2(dataset, total).with_seed(base_seed() ^ 0xD1FF);
    let ds = LabeledDataset::generate(&config);
    let (warm, stream) = ds.records.split_at(warmup);
    (warm.to_vec(), stream.to_vec())
}

/// The per-record template assignment of everything ingested after the warm-up.
fn assignment_after(topic: &LogTopic, warmup: usize) -> Vec<Option<NodeId>> {
    let stored = topic.records().iter().skip(warmup);
    stored.map(|r| r.template).collect()
}

/// Reference behaviour: one batch `ingest` call over the whole stream.
fn batch_reference(
    warm: &[String],
    stream: &[String],
) -> (LogTopic, Vec<Option<NodeId>>, usize, usize) {
    let mut topic = LogTopic::new(TopicConfig::new("ref").with_volume_threshold(u64::MAX));
    topic.ingest(warm);
    let outcome = topic.ingest(stream);
    assert!(
        !outcome.trained,
        "reference run must not retrain mid-stream"
    );
    let assignment = assignment_after(&topic, warm.len());
    (topic, assignment, outcome.matched, outcome.unmatched)
}

#[test]
fn streaming_paths_agree_with_batch_ingest() {
    for dataset in ["Apache", "OpenSSH"] {
        let (warm, stream) = workload(dataset, 6_000, 2_500);
        let (_ref_topic, ref_assignment, ref_matched, ref_unmatched) =
            batch_reference(&warm, &stream);
        assert_eq!(ref_assignment.len(), stream.len());

        for workers in [1usize, 2, 4] {
            let mut topic =
                LogTopic::new(TopicConfig::new("stream").with_volume_threshold(u64::MAX));
            topic.ingest(&warm);
            let config = IngestConfig::default()
                .with_batch_records(256)
                .with_workers(workers);
            let result = topic.ingest_stream(stream.clone(), &config);
            let label = format!("{dataset}/workers={workers}");
            assert_eq!(
                result.outcome.matched, ref_matched,
                "matched diverged for {label}"
            );
            assert_eq!(
                result.outcome.unmatched, ref_unmatched,
                "unmatched diverged for {label}"
            );
            assert!(!result.outcome.trained, "{label} must not retrain");
            assert_eq!(
                result.stats.records,
                stream.len() as u64,
                "stats lost records for {label}"
            );
            assert_eq!(
                result.stats.matched as usize, ref_matched,
                "engine matched counter diverged for {label}"
            );
            assert_eq!(
                assignment_after(&topic, warm.len()),
                ref_assignment,
                "template assignment diverged for {label}"
            );
        }
    }
}

#[test]
fn incremental_path_agrees_with_batch_ingest_on_stable_workloads() {
    // On a stable workload the drift detector stays quiet and the incremental
    // topic must behave byte-for-byte like the batch path — same template ids,
    // same stats, no maintenance.
    for dataset in ["Apache", "HDFS"] {
        let (warm, stream) = workload(dataset, 6_000, 2_500);
        let (_ref_topic, ref_assignment, ref_matched, ref_unmatched) =
            batch_reference(&warm, &stream);

        let mut topic = LogTopic::new(
            TopicConfig::new("inc")
                .with_volume_threshold(u64::MAX)
                .with_maintenance(MaintenancePolicy::Incremental {
                    // Thresholds a healthy workload never trips (the generated
                    // corpora keep a small unmatched tail of rare templates, so the
                    // rate bound sits far above it).
                    drift: DriftConfig::default()
                        .with_window(4_096)
                        .with_min_samples(1_024)
                        .with_max_unmatched_rate(0.5),
                    check_interval: 512,
                }),
        );
        topic.ingest(&warm);
        let result = topic.ingest_stream(
            stream.clone(),
            &IngestConfig::default().with_batch_records(256),
        );
        assert_eq!(result.outcome.matched, ref_matched, "{dataset}: matched");
        assert_eq!(
            result.outcome.unmatched, ref_unmatched,
            "{dataset}: unmatched"
        );
        assert_eq!(
            result.outcome.maintained, 0,
            "{dataset}: spurious maintenance"
        );
        assert!(!result.outcome.trained);
        assert_eq!(
            assignment_after(&topic, warm.len()),
            ref_assignment,
            "{dataset}: incremental path diverged from batch path"
        );
    }
}

/// A drifting workload: the base family dominates early, a novel family ramps up to
/// dominance late. Deterministic for a given seed.
fn drifting_workload(total: usize, seed: u64) -> Vec<String> {
    let base = LabeledDataset::generate(
        &GeneratorConfig::loghub2("Apache", total).with_seed(seed ^ 0xBA5E),
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD21F7);
    let mut out = Vec::with_capacity(total);
    for (i, record) in base.records.iter().enumerate() {
        let progress = i as f64 / total as f64;
        // Drift family probability ramps from 0 (first half) to ~0.8 (end).
        let p_drift = ((progress - 0.5) * 1.6).max(0.0);
        if rng.gen_bool(p_drift.min(0.95)) {
            out.push(format!(
                "gpu worker {} evicted tensor block {} after {} allocations",
                rng.gen_range(0..8u32),
                rng.gen_range(0..500u32),
                rng.gen_range(1..10_000u32),
            ));
        } else {
            out.push(record.clone());
        }
    }
    out
}

/// Probe records from both families, freshly drawn (not part of the ingested stream).
fn probes(seed: u64, n: usize) -> Vec<String> {
    let base = LabeledDataset::generate(
        &GeneratorConfig::loghub2("Apache", n).with_seed(seed ^ 0x0907_6BE5),
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0907_6BE6);
    base.records
        .iter()
        .enumerate()
        .map(|(i, record)| {
            if i % 2 == 0 {
                record.clone()
            } else {
                format!(
                    "gpu worker {} evicted tensor block {} after {} allocations",
                    rng.gen_range(0..8u32),
                    rng.gen_range(0..500u32),
                    rng.gen_range(1..10_000u32),
                )
            }
        })
        .collect()
}

#[test]
fn incremental_maintenance_converges_with_full_retrain_on_drifting_workload() {
    const TOTAL: usize = 100_000;
    const CHUNK: usize = 10_000;
    let seed = base_seed();
    let stream = drifting_workload(TOTAL, seed);

    // Full-retrain topic: volume trigger fires repeatedly, each firing a
    // stop-the-world retrain (bounded training buffer keeps each one tractable).
    let mut full_config = TopicConfig::new("drift-full").with_volume_threshold(40_000);
    full_config.training_buffer = 12_000;
    let mut full_topic = LogTopic::new(full_config);

    // Incremental topic: same triggers, but drift detection + delta folding.
    let mut inc_config = TopicConfig::new("drift-inc")
        .with_volume_threshold(40_000)
        .with_maintenance(MaintenancePolicy::Incremental {
            drift: DriftConfig::default()
                .with_window(8_192)
                .with_min_samples(2_048)
                .with_max_unmatched_rate(0.1),
            check_interval: 2_048,
        });
    inc_config.training_buffer = 12_000;
    let mut inc_topic = LogTopic::new(inc_config);

    let ingest = IngestConfig::default().with_batch_records(1_024);
    for chunk in stream.chunks(CHUNK) {
        full_topic.ingest_stream(chunk.to_vec(), &ingest);
        inc_topic.ingest_stream(chunk.to_vec(), &ingest);
    }

    let full_stats = full_topic.stats();
    let inc_stats = inc_topic.stats();
    eprintln!(
        "[differential] full: {} retrains (last {:.2}s); incremental: {} retrain, {} maintenance runs (last {:.3}s)",
        full_stats.training_runs,
        full_stats.last_training_seconds,
        inc_stats.training_runs,
        inc_stats.maintenance_runs,
        inc_stats.last_maintenance_seconds,
    );
    // The full-retrain topic paid repeated stop-the-world pauses; the incremental
    // topic trained exactly once (cold start) and absorbed the drift as deltas.
    assert!(
        full_stats.training_runs >= 3,
        "drift must retrain repeatedly"
    );
    assert_eq!(
        inc_stats.training_runs, 1,
        "incremental path must not retrain"
    );
    assert!(inc_stats.maintenance_runs >= 1, "drift must be absorbed");

    // Convergence: fresh probes from both families group identically under both
    // maintenance strategies, and both models cover the drifted workload.
    let probe_records = probes(seed, 2_000);
    let preprocessor = full_topic.preprocessor_snapshot();
    let match_probes = |topic: &LogTopic| {
        let compiled = topic.compiled_snapshot();
        match_ids_batch(topic.model(), &compiled, &preprocessor, &probe_records, 2).ids
    };
    let full_results = match_probes(&full_topic);
    let inc_results = match_probes(&inc_topic);
    let full_matched = full_results.iter().filter(|r| r.0.is_some()).count();
    let inc_matched = inc_results.iter().filter(|r| r.0.is_some()).count();
    assert!(
        full_matched as f64 >= 0.98 * probe_records.len() as f64,
        "full-retrain model must cover the workload ({full_matched}/{})",
        probe_records.len()
    );
    assert!(
        inc_matched as f64 >= 0.98 * probe_records.len() as f64,
        "incremental model must cover the workload ({inc_matched}/{})",
        probe_records.len()
    );
    // Partition agreement: the two tree *shapes* legitimately differ below the
    // saturation threshold (the whole point of query-time precision), so probes are
    // grouped the way every evaluation in this repo groups them — by the template
    // resolved at the standard threshold (0.6), compared as normalized template
    // text. Unmatched probes become singletons.
    let label = |model: &bytebrain_repro::bytebrain::ParserModel,
                 results: &[(Option<NodeId>, SlotRange)]|
     -> Vec<usize> {
        use bytebrain_repro::bytebrain::merge_consecutive_wildcards;
        use bytebrain_repro::bytebrain::query::{presentation_template, resolve_with_threshold};
        let mut interner: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        results
            .iter()
            .enumerate()
            .map(|(i, r)| match r.0 {
                Some(id) => {
                    let resolved = resolve_with_threshold(model, id, 0.6);
                    let text = merge_consecutive_wildcards(&presentation_template(model, resolved));
                    let next = interner.len();
                    *interner.entry(text).or_insert(next)
                }
                None => 1_000_000 + i,
            })
            .collect()
    };
    let full_labels = label(full_topic.model(), &full_results);
    let inc_labels = label(inc_topic.model(), &inc_results);
    let agreement = grouping_report(&inc_labels, &full_labels).accuracy();
    eprintln!("[differential] grouping agreement incremental vs full retrain: {agreement:.4}");
    assert!(
        agreement >= 0.9,
        "incremental maintenance diverged from full retrain: agreement {agreement:.4}"
    );
}

/// A retrain lands as a delta against the live model — stable node ids, patched
/// ladder and automaton, changed assignments logged as moves — where it used to
/// `merge_models` into a renumbered tree and rebuild everything. The two must be the
/// same algorithm: after every training run of a drifting stream, in memory and
/// durable, each stored record presents the same template text at every threshold as
/// under the library-only reference, and the template counts agree.
#[test]
fn retrain_landing_is_byte_identical_to_merge_and_rematch_reference() {
    use bytebrain_repro::service::StorageConfig;
    use common::{presentations, topic_presentations, MergeReference};
    const TOTAL: usize = 24_000;
    const CHUNK: usize = 800;
    const THRESHOLDS: [f64; 5] = [0.0, 0.35, 0.6, 0.9, 1.0];
    let stream = drifting_workload(TOTAL, base_seed());

    let mut config = TopicConfig::new("landing").with_volume_threshold(4_800);
    // Smaller than the volume between two retrains: the window's cap binds.
    config.training_buffer = 3_000;
    let dir = std::env::temp_dir().join(format!("bb-diff-landing-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    let storage = StorageConfig::default()
        .with_segment_records(512)
        .with_fsync(false);
    let mut topics = [
        LogTopic::new(config.clone()),
        LogTopic::durable(config.clone(), &dir, storage).expect("create durable topic"),
    ];
    let mut reference = MergeReference::new(&config);

    let agrees = |topic: &LogTopic, reference: &MergeReference, at: &str| {
        assert_eq!(
            topic.stats().templates,
            reference.templates(),
            "{at}: template count"
        );
        for threshold in THRESHOLDS {
            let want = reference.assigned.iter().copied();
            let want = presentations(&reference.model, want, threshold);
            let got = topic_presentations(topic, threshold);
            if let Some(idx) = (0..want.len()).find(|&idx| got[idx] != want[idx]) {
                panic!(
                    "{at}, threshold {threshold}: record {idx} {:?} presents as {:?}, reference {:?}",
                    topic.records().text(idx),
                    got[idx],
                    want[idx]
                );
            }
        }
    };
    for (round, chunk) in stream.chunks(CHUNK).enumerate() {
        let trained = topics.each_mut().map(|topic| topic.ingest(chunk).trained);
        assert_eq!(trained[0], trained[1], "round {round}: same trigger");
        reference.ingest(chunk);
        if trained[0] {
            reference.retrain();
            for topic in &topics {
                agrees(
                    topic,
                    &reference,
                    &format!("after the retrain of round {round}"),
                );
            }
        }
    }
    let runs = topics[0].stats().training_runs;
    assert!(
        runs >= 5,
        "first training + at least 4 retrains, got {runs}"
    );
    for topic in &topics {
        assert_eq!(topic.stats().training_runs, runs);
        agrees(topic, &reference, "at the end of the stream");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The planned query path (postings aggregated up the saturation ladder) must return
/// **byte-identical** groups to the per-record scan oracle —
/// across thresholds (including pathological ones), maintenance policies, and the
/// seeded workload matrix CI sweeps via `BYTEBRAIN_TEST_SEED`.
#[test]
fn indexed_query_path_is_byte_identical_to_scan_path() {
    use bytebrain_repro::bytebrain::Query;

    let seed = base_seed();
    let thresholds = [
        0.0,
        0.15,
        0.3,
        0.45,
        0.6,
        0.75,
        0.9,
        1.0,
        f64::NAN, // clamps to the default
        -1.0,     // clamps to 0
        2.0,      // clamps to 1
    ];

    // One topic per maintenance policy, both driven by the same drifting workload so
    // the incremental topic's tree contains patched nodes, appended subtrees and
    // retired temporaries — the shapes where the two paths historically diverged.
    let stream = drifting_workload(20_000, seed);
    let policies: Vec<(&str, TopicConfig)> = vec![
        (
            "full-retrain",
            TopicConfig::new("diff-full").with_volume_threshold(8_000),
        ),
        (
            "incremental",
            TopicConfig::new("diff-inc")
                .with_volume_threshold(8_000)
                .with_maintenance(MaintenancePolicy::Incremental {
                    drift: DriftConfig::default()
                        .with_window(4_096)
                        .with_min_samples(1_024)
                        .with_max_unmatched_rate(0.1),
                    check_interval: 1_024,
                }),
        ),
    ];
    for (label, mut config) in policies {
        config.training_buffer = 12_000;
        let mut topic = LogTopic::new(config);
        let ingest = IngestConfig::default().with_batch_records(512);
        for chunk in stream.chunks(5_000) {
            topic.ingest_stream(chunk.to_vec(), &ingest);
        }
        if label == "incremental" {
            assert!(
                topic.stats().maintenance_runs >= 1,
                "the incremental topic must have absorbed drift"
            );
        }
        for &threshold in &thresholds {
            let all_groups = Query::group_by().at_threshold(threshold).plan().unwrap();
            let top_five = Query::top_k(5).at_threshold(threshold).plan().unwrap();
            for plan in [&all_groups, &top_five] {
                assert_eq!(
                    topic.execute(plan),
                    topic.execute_scan(plan),
                    "planned and scan paths diverged ({label}, threshold {threshold}, \
                     {:?})",
                    plan.output()
                );
            }
            // The counts-only distribution agrees with the full grouping — and
            // comes back in the canonical deterministic order (count descending,
            // template ascending).
            let plan = Query::distribution()
                .at_threshold(threshold)
                .plan()
                .unwrap();
            let distribution = topic.execute(&plan);
            let groups = topic.execute(&all_groups);
            let mut from_groups: Vec<(String, u64)> = groups
                .groups()
                .expect("groups plan")
                .iter()
                .map(|g| (g.template.clone(), g.record_indices.len() as u64))
                .collect();
            from_groups.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            assert_eq!(
                **distribution.distribution().expect("distribution plan"),
                from_groups,
                "distribution diverged from grouping ({label}, threshold {threshold})"
            );
        }
        // The snapshot (the concurrent-serving surface) agrees with the live topic.
        let plan = Query::group_by().plan().unwrap();
        assert_eq!(
            topic.query_snapshot().execute(&plan),
            Some(topic.execute(&plan)),
            "snapshot diverged from the live topic ({label})"
        );
    }
}

/// The compiled automaton match path must be **byte-identical** to the tree walk
/// it replaced. The contract is stated where it is used: the one kernel every
/// production match decision goes through, `matcher::match_compiled`,
/// `debug_assert_eq!`s its decision against `matcher::match_view` on the very model
/// it matched with. This test drives the service's two call sites of it —
/// `match_ids_batch` and the pool worker behind the line cache — as three
/// trajectories (batch, stream, drifting stream maintained between its chunks) on
/// one topic; per-decision equality along one trajectory is, by induction, equality
/// of the whole run (`tests/facade.rs` does the same for
/// the library facade). Runs under the CI seed matrix via `BYTEBRAIN_TEST_SEED`.
#[test]
// Constant per build, which is the point: a release run without the seam
// assertions must fail, not pass vacuously.
#[allow(clippy::assertions_on_constants)]
fn automaton_match_path_is_byte_identical_to_tree_walk() {
    assert!(
        cfg!(debug_assertions),
        "the tree-walk seam assertions are compiled out"
    );
    let stream = drifting_workload(40_000, base_seed());
    let mut config = TopicConfig::new("engine")
        .with_volume_threshold(u64::MAX)
        .with_maintenance(MaintenancePolicy::Incremental {
            drift: DriftConfig::default()
                .with_window(4_096)
                .with_min_samples(1_024)
                .with_max_unmatched_rate(0.1),
            check_interval: 1_024,
        });
    config.training_buffer = 12_000;
    let mut topic = LogTopic::new(config);
    let ingest = IngestConfig::default().with_batch_records(512);

    // Batch: the cold start re-matches the store through `match_ids_batch`, the
    // second call matches online through it.
    topic.ingest(&stream[..8_000]);
    let batch = topic.ingest(&stream[8_000..12_000]);
    assert_eq!(batch.matched + batch.unmatched, 4_000);
    // Stream over still-stable traffic: the pool worker's cached match.
    let stable = topic.ingest_stream(stream[12_000..16_000].to_vec(), &ingest);
    assert_eq!(stable.stats.matched + stable.stats.unmatched, 4_000);
    assert_eq!(stable.outcome.maintained, 0, "no drift before the ramp");
    // The drifting tail as ONE stream call, cut into `check_interval` chunks: deltas
    // fold in between chunks, and each chunk's engine matches against the patched
    // (model, automaton) pair. Then a second novel family, five lines on repeat:
    // each first sighting in a chunk misses the tables and becomes a temporary,
    // every repeat in the chunk hits it on the kernel's tail after the tables — until
    // a landing absorbs the family.
    let regions = ["north", "south", "east", "west", "core"];
    let mut tail = stream[16_000..].to_vec();
    tail.extend((0..3_000).map(|i| format!("cache ring {} rebalanced", regions[i % 5])));
    let drifting = topic.ingest_stream(tail, &ingest);
    assert!(
        drifting.outcome.maintained >= 1,
        "drift must maintain between chunks: {drifting:?}"
    );
    let model = topic.model();
    for stored in topic.records().iter().skip(stream.len()) {
        let node = stored.template.map(|id| &model.nodes[id.0]);
        assert!(
            node.is_some_and(|node| !node.temporary),
            "no record of the novel tail may sit on a temporary: {stored:?}"
        );
    }
    assert_eq!(topic.records().len(), stream.len() + 3_000);
    assert_eq!(topic.stats().training_runs, 1, "cold start only");
}

/// Every AST operator must be **byte-identical** between the planned push-down
/// path ([`LogTopic::execute`]: batched ladder resolution, postings, segment
/// pruning, aggregation) and the naive scan oracle ([`LogTopic::execute_scan`]:
/// per-record ancestor walks, no postings, no pruning) — over durable topics,
/// under both maintenance policies, with mid-stream delta maintenance, and after
/// kill-and-open crash recovery (where summaries are recomputed from the decoded
/// segments). Runs under the CI seed matrix via `BYTEBRAIN_TEST_SEED`.
#[test]
fn planned_operators_match_scan_oracle_under_maintenance_and_recovery() {
    use bytebrain_repro::bytebrain::{Predicate, Query, QueryPlan};
    use bytebrain_repro::service::StorageConfig;

    // Auth-style records carry variables worth filtering on (user ids, IPs);
    // the scrubber family is novel relative to the warm-up, so streaming it
    // into the incremental topic trips the drift detector mid-stream.
    let auth_batch = |offset: usize, n: usize| -> Vec<String> {
        (0..n)
            .map(|i| {
                format!(
                    "user u{} logged {} from 10.0.{}.{}",
                    (offset + i) % 40,
                    if (offset + i).is_multiple_of(3) {
                        "out"
                    } else {
                        "in"
                    },
                    (offset + i) % 16,
                    (offset + i) % 250,
                )
            })
            .collect()
    };
    let scrub_batch = |offset: usize, n: usize| -> Vec<String> {
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
    };

    // One plan per operator, plus a composed query mixing all predicate kinds.
    let battery = |records: u64| -> Vec<(&'static str, QueryPlan)> {
        vec![
            ("group_by", Query::group_by().plan().unwrap()),
            ("top_k", Query::top_k(3).at_threshold(0.6).plan().unwrap()),
            ("distribution", Query::distribution().plan().unwrap()),
            ("count_distinct", Query::count_distinct().plan().unwrap()),
            (
                "text_predicate",
                Query::group_by()
                    .filter(Predicate::template_matches("logged (in|out)"))
                    .plan()
                    .unwrap(),
            ),
            (
                "variable_equals",
                Query::group_by()
                    .filter(Predicate::variable_equals("u3"))
                    .plan()
                    .unwrap(),
            ),
            (
                "variable_contains",
                Query::distribution()
                    .filter(Predicate::variable_contains("10.0."))
                    .plan()
                    .unwrap(),
            ),
            (
                "time_window",
                Query::distribution()
                    .filter(Predicate::time_window(records / 4, records / 2))
                    .plan()
                    .unwrap(),
            ),
            (
                "composed",
                Query::top_k(5)
                    .at_threshold(0.75)
                    .filter(
                        Predicate::variable_equals("u7").or(Predicate::time_window(0, records / 2)
                            .and(Predicate::variable_contains("10.0.3").not())),
                    )
                    .plan()
                    .unwrap(),
            ),
        ]
    };

    let assert_agree = |topic: &LogTopic, ctx: &str| {
        for (name, plan) in battery(topic.records().len() as u64) {
            assert_eq!(
                topic.execute(&plan),
                topic.execute_scan(&plan),
                "planned path diverged from scan oracle: {ctx}/{name}"
            );
        }
    };

    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("bb-diff-ast-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
        }
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    };
    let storage = StorageConfig::default()
        .with_segment_records(64)
        .with_fsync(false);

    // --- Full-retrain policy: volume triggers fire stop-the-world retrains. ---
    let dir = scratch("full");
    let config = TopicConfig::new("ast-full").with_volume_threshold(300);
    let mut topic = LogTopic::durable(config, &dir, storage.clone()).expect("create durable topic");
    topic.ingest(&auth_batch(0, 250));
    assert_agree(&topic, "full/after-ingest");
    topic.ingest(&auth_batch(250, 200)); // crosses the volume threshold → retrain
    topic.ingest(&scrub_batch(0, 150));
    assert!(topic.stats().training_runs >= 1, "retrain must have fired");
    assert_agree(&topic, "full/after-retrain");
    drop(topic); // kill: all in-process state gone
    let recovered = LogTopic::open(&dir, storage.clone()).expect("recover topic");
    assert_agree(&recovered, "full/after-recovery");
    std::fs::remove_dir_all(&dir).ok();

    // --- Incremental policy: drift folds deltas in mid-stream. ---
    let dir = scratch("inc");
    let config = TopicConfig::new("ast-inc")
        .with_volume_threshold(100_000)
        .with_maintenance(MaintenancePolicy::Incremental {
            drift: DriftConfig::default()
                .with_window(400)
                .with_min_samples(100)
                .with_max_unmatched_rate(0.3),
            check_interval: 64,
        });
    let mut topic = LogTopic::durable(config, &dir, storage.clone()).expect("create durable topic");
    topic.ingest(&auth_batch(0, 300));
    assert_agree(&topic, "inc/after-ingest");
    let stream_config = IngestConfig::default().with_batch_records(64);
    topic.ingest_stream(scrub_batch(0, 400), &stream_config);
    assert!(
        topic.stats().maintenance_runs >= 1,
        "drift maintenance must have produced at least one delta"
    );
    // Sealed pre-delta segments are now stale for variable pruning; the
    // differential proves the staleness rule keeps the planned path exact.
    assert_agree(&topic, "inc/after-delta");
    topic.ingest(&auth_batch(300, 150)); // fresh post-delta records (and segments)
    assert_agree(&topic, "inc/after-delta-ingest");
    drop(topic);
    let recovered = LogTopic::open(&dir, storage).expect("recover topic");
    assert_agree(&recovered, "inc/after-recovery");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every stored record's slots against the oracle: what `variables_of` re-derives by
/// masking and tokenising the text again, under the topic's current model.
fn assert_slots_are_the_oracle(topic: &LogTopic, at: &str) {
    use bytebrain_repro::service::topic::variables_of;
    let (records, preprocessor) = (topic.records(), topic.preprocessor_snapshot());
    for idx in 0..records.len() {
        let (text, node) = (records.text(idx), records.template(idx));
        let oracle = variables_of(topic.model(), &preprocessor, text, node);
        let column: Vec<&str> = records.variables(idx).collect();
        assert_eq!(column, oracle, "{at}: record {idx} {text:?} on {node:?}");
    }
}

/// The slot column is the match's output, stored once and never re-derived from the
/// text: after every step of a seeded run — the batch route, the stream route with a
/// landing between its chunks, both maintenance policies (an incremental delta generalising
/// nodes that hold records among them), retention and a reopen — every record's slots
/// equal what the oracle re-derives.
#[test]
fn slot_column_equals_the_variables_oracle_at_every_step() {
    use bytebrain_repro::service::StorageConfig;
    use std::time::Duration;
    let seed = base_seed();
    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("bb-diff-slots-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
        }
        dir
    };
    let stream_config = IngestConfig::default().with_batch_records(64);

    // Full retrain: every landing re-matches the store; retention drains a prefix.
    let dir = scratch("full");
    let storage = StorageConfig::default()
        .with_segment_records(128)
        .with_fsync(false)
        .with_retention_ttl(Duration::ZERO);
    let mut config = TopicConfig::new("slots-full").with_volume_threshold(1_500);
    config.training_buffer = 1_000;
    let mut topic = LogTopic::durable(config, &dir, storage.clone()).expect("durable topic");
    let stream = drifting_workload(6_000, seed);
    topic.ingest(&stream[..1_000]);
    assert_slots_are_the_oracle(&topic, "full: batch, first training");
    topic.ingest_stream(stream[1_000..3_000].to_vec(), &stream_config);
    assert_slots_are_the_oracle(&topic, "full: stream, retrain");
    topic.ingest(&stream[3_000..6_000]);
    assert!(
        topic.stats().training_runs >= 3,
        "retrains must have landed"
    );
    assert_slots_are_the_oracle(&topic, "full: batch, retrain");
    let retention = topic.run_storage_maintenance();
    assert!(
        retention.dropped_records > 0,
        "retention must drain a prefix"
    );
    assert_slots_are_the_oracle(&topic, "full: retention");
    drop(topic);
    let reopened = LogTopic::open(&dir, storage).expect("reopen");
    assert_slots_are_the_oracle(&reopened, "full: reopened");
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();

    // Incremental: `worker alpha …` trains the model with `alpha` a constant; other
    // names drift in, and the delta that absorbs them generalises the name position
    // of nodes holding `alpha` records, which stay where they are. `on edge10.0.1.2`
    // masks to `on edge<*>`: a slot masking rewrote.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5107);
    let mut line = |name: &str| {
        let host = ["edge", "core", "db"][rng.gen_range(0..3usize)];
        format!(
            "worker {name} finished job {} on {host}10.0.{}.{} in {}ms after {} steps",
            rng.gen_range(0..5_000u32),
            rng.gen_range(0..8u32),
            rng.gen_range(0..250u32),
            rng.gen_range(1..900u32),
            rng.gen_range(1..40u32),
        )
    };
    let warm: Vec<String> = (0..400).map(|_| line("alpha")).collect();
    let drifting: Vec<String> = (0..1_200)
        .map(|i| line(["alpha", "beta", "gamma"][i % 3]))
        .collect();
    let late: Vec<String> = (0..300).map(|i| line(["delta", "alpha"][i % 2])).collect();
    let dir = scratch("inc");
    let storage = StorageConfig::default()
        .with_segment_records(64)
        .with_fsync(false);
    let config = TopicConfig::new("slots-inc")
        .with_volume_threshold(100_000)
        .with_maintenance(MaintenancePolicy::Incremental {
            drift: DriftConfig::default()
                .with_window(200)
                .with_min_samples(50)
                .with_max_unmatched_rate(0.2),
            check_interval: 64,
        });
    let mut topic = LogTopic::durable(config, &dir, storage.clone()).expect("durable topic");
    topic.ingest(&warm);
    assert_slots_are_the_oracle(&topic, "inc: batch, first training");
    let streamed = topic.ingest_stream(drifting, &stream_config);
    assert!(
        streamed.outcome.maintained >= 1,
        "drift must land a delta between chunks: {streamed:?}"
    );
    assert_slots_are_the_oracle(&topic, "inc: stream, chunked");
    let generalised = (0..warm.len())
        .filter(|&idx| topic.records().variables(idx).any(|v| v == "alpha"))
        .count();
    assert!(
        generalised > 0,
        "a delta must have turned `alpha` into a slot of records it did not move"
    );
    topic.ingest(&late);
    assert_slots_are_the_oracle(&topic, "inc: batch, delta");
    drop(topic);
    let reopened = LogTopic::open(&dir, storage).expect("reopen");
    assert_slots_are_the_oracle(&reopened, "inc: reopened");
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

/// `parse_with_threshold` masks a record once: it matches the training batch's unique
/// logs from the tokens preprocessing kept and copies each decision to the records that
/// collapsed into the log. Every record must get the node the raw-text match gives it,
/// on all 16 LogHub and 14 LogHub-2.0 corpora — with the whole batch clustered, and with
/// a sample of a third, whose left-out records are matched from their text. At
/// threshold 1.0 a group id is the record's node: an ancestor never reaches saturation
/// 1.0, or it would not have been split.
#[test]
fn parse_with_threshold_gives_every_record_its_raw_text_match() {
    let seed = base_seed() ^ 0x9A75_E0CE;
    let loghub = dataset_names().into_iter().map(GeneratorConfig::loghub);
    let loghub2 = loghub2_dataset_names()
        .into_iter()
        .map(|name| GeneratorConfig::loghub2(name, 1_000));
    for corpus in loghub.chain(loghub2) {
        let records = LabeledDataset::generate(&corpus.clone().with_seed(seed)).records;
        for max_training_records in [usize::MAX, records.len() / 3] {
            let at = format!(
                "{} at max_training_records {max_training_records}",
                corpus.dataset
            );
            let config = TrainConfig {
                max_training_records,
                ..TrainConfig::default()
            };
            let mut parser = ByteBrainParser::new(config);
            let groups = parser.parse_with_threshold(&records, 1.0);
            // Read-only, on the model the parse left: its temporaries are those of the
            // left-out records no template matched, each the node its record got.
            let raw = parser.match_batch(&records);
            let mut compared = 0;
            for ((record, group), raw) in records.iter().zip(&groups).zip(&raw) {
                if let Some(node) = raw.node {
                    let node = resolve_with_threshold(parser.model(), node, 1.0);
                    assert_eq!(*group, node.0, "{at}: {record:?}");
                    compared += 1;
                }
            }
            // A record the raw match misses takes its clustering assignment.
            assert!(
                compared * 100 >= records.len() * 95,
                "{at}: only {compared} of {} records matched",
                records.len()
            );
        }
    }
}

/// A drifting stream from `datasets`' generator, in `phases` phases of `per_phase`
/// records: a steady HDFS core throughout, and in each phase a share of lines from one
/// more family, which that phase introduces.
fn phased_drift(phases: usize, per_phase: usize, seed: u64) -> Vec<String> {
    const NOVEL: [&str; 4] = ["OpenSSH", "Hadoop", "Zookeeper", "Proxifier"];
    let total = phases * per_phase;
    let core = GeneratorConfig::loghub2("HDFS", total).with_seed(seed ^ 0xC07E);
    let core = LabeledDataset::generate(&core).records;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A5E);
    let mut out = Vec::with_capacity(total);
    for (phase, core) in core.chunks(per_phase).enumerate() {
        let family = NOVEL[phase % NOVEL.len()];
        let novel = GeneratorConfig::loghub2(family, per_phase).with_seed(seed ^ phase as u64);
        let mut novel = LabeledDataset::generate(&novel).records.into_iter();
        for line in core {
            let drifted = rng.gen_bool(0.4).then(|| novel.next()).flatten();
            out.push(drifted.unwrap_or_else(|| line.clone()));
        }
    }
    out
}

/// Two invariants a query's precision control rests on, held after every training run
/// and landing of a drifting stream under both maintenance policies:
///
/// 1. **A parent template covers its children.** Every live node has the length of
///    its nearest live ancestor, and that ancestor's constant wherever the ancestor
///    has one — so whatever a child matches, its ancestors match too.
/// 2. **Every stored record fits the template it resolves to**: its masked tokens
///    match its node resolved at thresholds 0.3, 0.5, 0.6 and 0.9.
///
/// Runs under the CI seed matrix via `BYTEBRAIN_TEST_SEED`.
#[test]
fn parent_templates_cover_their_children_and_records_fit_what_they_resolve_to() {
    use bytebrain_repro::bytebrain::{ParserModel, TemplateToken};
    use bytebrain_repro::logtok::Preprocessor;

    const THRESHOLDS: [f64; 4] = [0.3, 0.5, 0.6, 0.9];
    let nearest_live_ancestor = |model: &ParserModel, id: NodeId| {
        let mut current = model.nodes[id.0].parent;
        while let Some(parent) = current.filter(|p| model.nodes[p.0].retired) {
            current = model.nodes[parent.0].parent;
        }
        current
    };
    // Returns the number of parent → child edges and record resolutions checked.
    let check = |topic: &LogTopic, tokens: &[Vec<String>], at: &str| -> (usize, usize) {
        let model = topic.model();
        let mut edges = 0;
        for child in model.nodes.iter().filter(|n| !n.retired) {
            let Some(parent) = nearest_live_ancestor(model, child.id) else {
                continue;
            };
            let parent = &model.nodes[parent.0];
            assert_eq!(
                parent.template.len(),
                child.template.len(),
                "{at}: {} is not as long as its parent {}",
                child.id,
                parent.id
            );
            for (p, c) in parent.template.iter().zip(&child.template) {
                assert!(
                    matches!(p, TemplateToken::Wildcard) || p == c,
                    "{at}: {} does not keep the constant {p} of its parent {}",
                    child.id,
                    parent.id
                );
            }
            edges += 1;
        }
        let mut resolutions = 0;
        for (stored, tokens) in topic.records().iter().zip(tokens) {
            let Some(node) = stored.template else {
                continue;
            };
            for threshold in THRESHOLDS {
                let resolved = resolve_with_threshold(model, node, threshold);
                assert!(
                    model.nodes[resolved.0].matches(tokens.iter().map(String::as_str)),
                    "{at}: {:?} does not fit {resolved}, its node {node} at {threshold}",
                    stored.record
                );
                resolutions += 1;
            }
        }
        (edges, resolutions)
    };

    let stream = phased_drift(4, 2_560, base_seed());
    let incremental = MaintenancePolicy::Incremental {
        drift: DriftConfig::default()
            .with_window(2_048)
            .with_min_samples(512)
            .with_max_unmatched_rate(0.1),
        check_interval: 1_024,
    };
    for (label, policy) in [
        ("full-retrain", MaintenancePolicy::FullRetrain),
        ("incremental", incremental),
    ] {
        let config = TopicConfig::new("cover")
            .with_volume_threshold(2_048)
            .with_maintenance(policy);
        let preprocessor = Preprocessor::new(config.train.preprocess.clone());
        let mut topic = LogTopic::new(config);
        let mut tokens = Vec::with_capacity(stream.len());
        let (mut landings, mut edges, mut resolutions) = (0, 0, 0);
        for (i, post) in stream.chunks(128).enumerate() {
            let outcome = topic.ingest(post);
            tokens.extend(post.iter().map(|line| preprocessor.tokens_of(line)));
            if outcome.trained || outcome.maintained > 0 {
                landings += 1;
                let (e, r) = check(&topic, &tokens, &format!("{label}, ingest {i}"));
                edges += e;
                resolutions += r;
            }
        }
        check(&topic, &tokens, &format!("{label}, at the end"));
        eprintln!("[cover] {label}: {landings} landings, {edges} edges, {resolutions} resolutions");
        assert!(landings >= 3, "{label}: only {landings} landings");
        assert!(edges > 0 && resolutions > 0, "{label}: nothing checked");
    }
}
