//! The library facade held to its oracles. `ByteBrainParser` matches through the
//! compiled match tables and lands `train_incremental` as a delta, like the service;
//! the tree walk (`matcher::match_view`) and `merge_models` are what it must equal.
//! A third test bounds what the tables keep resident, since the paper-protocol
//! benchmark keeps one parser alive per family.
//!
//! The base seed is `BYTEBRAIN_TEST_SEED` (default 1); CI runs a seed matrix.

use bytebrain_repro::bytebrain::matcher::match_view;
use bytebrain_repro::bytebrain::train::train;
use bytebrain_repro::bytebrain::{ByteBrainParser, CompiledMatcher, NodeId, TrainConfig};
use bytebrain_repro::datasets::{loghub2_dataset_names, GeneratorConfig, LabeledDataset};
use bytebrain_repro::logtok::TokenScratch;
use bytebrain_repro::service::TopicConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// `topic_presentations` is for the suites that drive a `LogTopic`.
#[allow(dead_code)]
mod common;
use common::{base_seed, presentations, MergeReference};

fn family(name: &str, records: usize, seed: u64) -> Vec<String> {
    LabeledDataset::generate(&GeneratorConfig::loghub2(name, records).with_seed(seed)).records
}

/// What the tree walk assigns `line` under the parser's current model.
fn walk(parser: &ByteBrainParser, line: &str) -> Option<NodeId> {
    let mut scratch = TokenScratch::new();
    let view = parser.preprocessor().token_view(line, &mut scratch);
    match_view(parser.model(), &view)
}

/// Every entry point of the facade against the tree walk: `match_batch` and
/// `match_log_readonly` over `known`, then `match_log` over `novel` lines interleaved
/// with repeats of them and with known lines — each miss must append exactly one
/// temporary, and the walk over the grown model must then agree.
fn assert_facade_walks(parser: &mut ByteBrainParser, known: &[String], novel: &[String], at: &str) {
    let batch = parser.match_batch(known);
    for (idx, (line, got)) in known.iter().zip(&batch).enumerate() {
        assert_eq!(
            got.node,
            walk(parser, line),
            "{at}: match_batch on {line:?}"
        );
        if idx % 8 == 0 {
            assert_eq!(&parser.match_log_readonly(line), got, "{at}: {line:?}");
        }
    }
    let mut rng = StdRng::seed_from_u64(base_seed() ^ 0xFACADE);
    let mut inserted = 0;
    for step in 0..novel.len() * 3 {
        let line = match step % 3 {
            0 => &novel[step / 3],
            1 => &novel[rng.gen_range(0..step / 3 + 1)],
            _ => &known[rng.gen_range(0..known.len())],
        };
        let expected = walk(parser, line);
        let nodes_before = parser.model().len();
        let got = parser.match_log(line);
        match expected {
            Some(id) => assert_eq!(got.node, Some(id), "{at}: match_log on {line:?}"),
            None => {
                assert_eq!(got.node, Some(NodeId(nodes_before)), "{at}: {line:?}");
                assert!(parser.model().nodes[nodes_before].temporary);
                inserted += 1;
            }
        }
        assert_eq!(
            parser.model().len(),
            nodes_before + usize::from(expected.is_none())
        );
        assert_eq!(walk(parser, line), got.node, "{at}: walk after {line:?}");
        assert_eq!(parser.match_log_readonly(line), got, "{at}: {line:?}");
    }
    assert!(inserted > 0, "{at}: no novel line missed");
}

#[test]
fn facade_equals_tree_walk_on_every_family() {
    let names = loghub2_dataset_names();
    assert_eq!(names.len(), 14);
    for (f, name) in names.iter().enumerate() {
        let seed = base_seed() ^ (f as u64) << 8;
        let known = family(name, 2_048, seed);
        // Another family's lines: nothing this one trained on covers them.
        let novel = family(names[(f + 1) % names.len()], 256, seed ^ 0x0E1);
        let (first, second) = known.split_at(1_024);
        let mut parser = ByteBrainParser::new(TrainConfig::default().with_parallelism(2));
        parser.train(first);
        assert_facade_walks(
            &mut parser,
            &known,
            &novel[..128],
            &format!("{name}, trained"),
        );
        // Absorbs the temporaries above; the rest of `novel` is novel again.
        parser.train_incremental(second, 0.6);
        assert_eq!(parser.model().temporary_count(), 0);
        let at = format!("{name}, after train_incremental");
        assert_facade_walks(&mut parser, &known, &novel[128..], &at);
    }
}

/// `train_incremental` lands as `train_delta` → `apply_delta` against stable node ids.
/// That must be `merge_models` by another name: over a drifting stream with a training
/// cycle every fourth chunk, the online assignments (temporaries included) and, after
/// every cycle, the re-match of everything seen present the same template text at
/// every threshold as the library-only reference.
#[test]
fn train_incremental_equals_merge_reference() {
    const THRESHOLDS: [f64; 5] = [0.0, 0.35, 0.6, 0.9, 1.0];
    let seed = base_seed();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
    // One statement drifts in, as in `differential.rs`. A drifting *family* would do
    // too, up to one thing: two of its templates can tie on (saturation, wildcards,
    // depth) for the same line, the match order breaks such a tie by node id, and ids
    // are exactly what the renumbering reference and the stable-id delta disagree on.
    let stream: Vec<String> = family("Apache", 8_000, seed)
        .into_iter()
        .enumerate()
        .map(
            |(i, line)| match rng.gen_bool((i as f64 / 8_000.0 - 0.33).max(0.0) * 1.4) {
                true => format!(
                    "gpu worker {} evicted tensor block {} after {} allocations",
                    rng.gen_range(0..8u32),
                    rng.gen_range(0..500u32),
                    rng.gen_range(1..10_000u32),
                ),
                false => line,
            },
        )
        .collect();

    let mut config = TopicConfig::new("facade");
    // Smaller than the volume between two cycles: the window's cap binds.
    config.training_buffer = 1_500;
    let mut reference = MergeReference::new(&config);
    let mut parser = ByteBrainParser::new(config.train.clone());
    let mut assigned: Vec<Option<NodeId>> = Vec::new();
    let mut window_start = 0;

    let agrees = |parser: &ByteBrainParser,
                  assigned: &[Option<NodeId>],
                  reference: &MergeReference,
                  at: &str| {
        for threshold in THRESHOLDS {
            let got = presentations(parser.model(), assigned.iter().copied(), threshold);
            let want = reference.assigned.iter().copied();
            let want = presentations(&reference.model, want, threshold);
            if let Some(idx) = (0..want.len()).find(|&idx| got[idx] != want[idx]) {
                panic!(
                    "{at}, threshold {threshold}: record {idx} {:?} presents as {:?}, reference {:?}",
                    stream[idx], got[idx], want[idx]
                );
            }
        }
    };
    for (round, chunk) in stream.chunks(500).enumerate() {
        reference.ingest(chunk);
        for line in chunk {
            // Before the first model there is nothing to match or insert into.
            let trained = !parser.model().is_empty();
            assigned.push(trained.then(|| parser.match_log(line).node).flatten());
        }
        agrees(
            &parser,
            &assigned,
            &reference,
            &format!("online, round {round}"),
        );
        if round % 4 == 0 {
            reference.retrain();
            let window = &stream[window_start..assigned.len()];
            let window = &window[..window.len().min(config.training_buffer)];
            parser.train_incremental(window, config.merge_threshold);
            window_start = assigned.len();
            let rematched = parser.match_batch(&stream[..assigned.len()]);
            assigned = rematched.into_iter().map(|result| result.node).collect();
            let live = parser.model().len() - parser.model().retired_count();
            assert_eq!(live, reference.templates(), "round {round}: template count");
            agrees(
                &parser,
                &assigned,
                &reference,
                &format!("after the cycle of round {round}"),
            );
        }
    }
    assert_eq!(
        window_start, 6_500,
        "the first training and three cycles ran"
    );
}

/// The paper-protocol benchmark keeps 14 trained parsers alive, and its `peak_rss_mb`
/// bound is what kept the facade off the automaton (a resident `CompiledMatcher` with
/// its trie and interner was ≈ 0.7 MiB each). A `CompiledMatcher` now is match tables
/// only — no trie, interner or per-template sequence outlives the compile, and
/// `heap_bytes` counts every heap field — so bounding that over the 14 families at the
/// benchmark's 1,024 records bounds the resident cost where `cargo test` sees it.
#[test]
fn resident_match_tables_stay_within_their_budget() {
    const BUDGET: usize = 1_536 * 1_024;
    let mut total = 0;
    for (f, name) in loghub2_dataset_names().iter().enumerate() {
        let records = family(name, 1_024, base_seed() ^ (f as u64) << 8);
        let model = train(&records, &TrainConfig::default()).model;
        let compiled = CompiledMatcher::compile(&model);
        let states = compiled
            .dfa_states()
            .expect("no family needs the NFA fallback");
        let bytes = compiled.heap_bytes();
        eprintln!(
            "[tables] {name}: {} templates, {states} DFA states, {bytes} bytes ({} per state)",
            model.len(),
            bytes / states
        );
        total += bytes;
    }
    eprintln!("[tables] 14 families: {total} bytes resident");
    assert!(
        total <= BUDGET,
        "{total} bytes of match tables over {BUDGET}"
    );
}
