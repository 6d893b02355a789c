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
//! re-match everything.
//!
//! The base seed is `BYTEBRAIN_TEST_SEED` (default 1); CI runs a seed matrix.

use bytebrain_repro::bytebrain::incremental::DriftConfig;
use bytebrain_repro::bytebrain::matcher::match_ids_batch;
use bytebrain_repro::bytebrain::NodeId;
use bytebrain_repro::datasets::{GeneratorConfig, LabeledDataset};
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
    topic.records()[warmup..]
        .iter()
        .map(|r| r.template)
        .collect()
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
        match_ids_batch(topic.model(), &compiled, &preprocessor, &probe_records, 2)
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
                 results: &[(Option<NodeId>, f64)]|
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
                    topic.records()[idx].record,
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
    use bytebrain_repro::service::QueryEngine;

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
        let engine = QueryEngine::new(&topic);
        for &threshold in &thresholds {
            let all_groups = Query::group_by().at_threshold(threshold).plan().unwrap();
            let top_five = Query::top_k(5).at_threshold(threshold).plan().unwrap();
            for plan in [&all_groups, &top_five] {
                assert_eq!(
                    engine.execute(plan),
                    engine.execute_scan(plan),
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
            Some(engine.execute(&plan)),
            "snapshot diverged from the live topic ({label})"
        );
    }
}

/// The compiled automaton match path must be **byte-identical** to the tree walk
/// it replaced. The contract is stated where it is used: the one kernel every
/// production match decision goes through, `matcher::match_compiled`,
/// `debug_assert_eq!`s its decision against `matcher::match_view` on the very model
/// it matched with. This test drives the service's three call sites of it —
/// `match_ids_batch`, the pool worker behind the line cache, and the stale re-match
/// after a hot swap — as three trajectories (batch, stream, drifting stream with a
/// mid-stream hot swap) on one topic; per-decision equality along one trajectory
/// is, by induction, equality of the whole run (`tests/facade.rs` does the same for
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
    assert_eq!(stable.stats.model_swaps, 0, "no drift before the ramp");
    // The drifting tail as ONE stream call: deltas fold in mid-stream and the
    // (model, automaton) pair is hot-swapped. Then a second novel family, five
    // lines on repeat: each first sighting misses the swapped-in snapshot and
    // becomes a temporary, every repeat is a stale re-match hit — on the
    // temporaries appended this chunk, on the kernel's tail after the tables.
    let regions = ["north", "south", "east", "west", "core"];
    let mut tail = stream[16_000..].to_vec();
    tail.extend((0..3_000).map(|i| format!("cache ring {} rebalanced", regions[i % 5])));
    let drifting = topic.ingest_stream(tail, &ingest);
    assert!(
        drifting.outcome.maintained >= 1 && drifting.stats.model_swaps >= 1,
        "drift must trigger a mid-stream hot swap: {drifting:?}"
    );
    let repeated: std::collections::HashSet<Option<NodeId>> = topic.records()[stream.len()..]
        .iter()
        .map(|r| r.template)
        .collect();
    assert_eq!(repeated.len(), 5, "repeats must re-match, not re-insert");
    assert_eq!(topic.records().len(), stream.len() + 3_000);
    assert_eq!(topic.stats().training_runs, 1, "cold start only");
}

/// Every AST operator must be **byte-identical** between the planned push-down
/// path ([`QueryEngine::execute`]: batched ladder resolution, postings, segment
/// pruning, aggregation) and the naive scan oracle ([`QueryEngine::execute_scan`]:
/// per-record ancestor walks, no postings, no pruning) — over durable topics,
/// under both maintenance policies, with mid-stream delta maintenance, and after
/// kill-and-open crash recovery (where summaries are recomputed from the decoded
/// segments). Runs under the CI seed matrix via `BYTEBRAIN_TEST_SEED`.
#[test]
fn planned_operators_match_scan_oracle_under_maintenance_and_recovery() {
    use bytebrain_repro::bytebrain::{Predicate, Query, QueryPlan};
    use bytebrain_repro::service::{QueryEngine, StorageConfig};

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
        let engine = QueryEngine::new(topic);
        for (name, plan) in battery(topic.records().len() as u64) {
            assert_eq!(
                engine.execute(&plan),
                engine.execute_scan(&plan),
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
