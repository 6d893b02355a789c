//! Randomized property tests for the core algorithm's invariants.
//!
//! Ported from proptest to seeded randomized loops (the offline build environment has
//! no proptest); every case is drawn from a fixed-seed [`StdRng`], so failures are
//! deterministic and reproducible.

use bytebrain::distance::{ClusterProfile, DenseProfile, TokenTable};
use bytebrain::query::merge_consecutive_wildcards;
use bytebrain::saturation::{breakdown, saturation};
use bytebrain::train::train;
use bytebrain::{AblationConfig, TrainConfig};
use logtok::{EncodedLog, Preprocessor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small corpus of random logs built from a bounded vocabulary so that structure
/// (shared templates) actually emerges.
fn corpus(rng: &mut StdRng) -> Vec<Vec<String>> {
    const VOCAB: [&str; 14] = [
        "open", "close", "read", "write", "file", "socket", "ok", "failed", "retry", "x1", "x2",
        "x3", "x4", "x5",
    ];
    let num_logs = rng.gen_range(1..40usize);
    (0..num_logs)
        .map(|_| {
            let len = rng.gen_range(1..6usize);
            (0..len)
                .map(|_| VOCAB[rng.gen_range(0..VOCAB.len())].to_string())
                .collect()
        })
        .collect()
}

/// Saturation is always within [0, 1] for any cluster of equal-length logs, under every
/// ablation variant.
#[test]
fn saturation_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0xC0DE1);
    for _ in 0..60 {
        let corpus = corpus(&mut rng);
        // Group by length so profiles are well-formed.
        let mut by_len: std::collections::HashMap<usize, Vec<EncodedLog>> =
            std::collections::HashMap::new();
        for tokens in &corpus {
            by_len
                .entry(tokens.len())
                .or_default()
                .push(EncodedLog::from_tokens(tokens));
        }
        for (len, logs) in by_len {
            let profile = ClusterProfile::from_logs(len, logs.iter());
            for (_, ablation) in AblationConfig::named_variants() {
                let s = saturation(&profile.distinct(), profile.unique_count(), &ablation);
                assert!((0.0..=1.0).contains(&s), "saturation {s} out of range");
            }
        }
    }
}

/// Positional similarity is within [0, 1] and equals 1 for a log identical to a
/// singleton cluster's only member.
#[test]
fn similarity_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0xC0DE2);
    for _ in 0..40 {
        let corpus = corpus(&mut rng);
        for tokens in &corpus {
            let log = EncodedLog::from_tokens(tokens);
            let profile = ClusterProfile::from_logs(log.len(), [&log]);
            let s = profile.similarity(&log, true);
            assert!((s - 1.0).abs() < 1e-9);
            for other in &corpus {
                if other.len() == tokens.len() {
                    let other_log = EncodedLog::from_tokens(other);
                    let sim = profile.similarity(&other_log, true);
                    assert!((0.0..=1.0 + 1e-9).contains(&sim));
                }
            }
        }
    }
}

/// Training always produces a model whose assignment (a) covers every record, (b)
/// points at templates that actually match the record's token layout, and (c) keeps
/// saturation monotone along every tree path.
#[test]
fn training_invariants() {
    let mut rng = StdRng::seed_from_u64(0xC0DE3);
    for _ in 0..30 {
        let corpus = corpus(&mut rng);
        let records: Vec<String> = corpus.iter().map(|t| t.join(" ")).collect();
        let config = TrainConfig::default();
        let pre = Preprocessor::new(config.preprocess.clone());
        let outcome = train(&records, &pre, &config);
        assert_eq!(outcome.training_assignment.len(), records.len());
        for node in &outcome.model.nodes {
            if let Some(parent) = node.parent {
                let parent_node = outcome.model.node(parent).unwrap();
                assert!(node.saturation + 1e-9 >= parent_node.saturation);
            }
            assert!((0.0..=1.0).contains(&node.saturation));
        }
        // Root log counts sum to the number of records.
        assert_eq!(outcome.model.trained_records(), records.len() as u64);
    }
}

/// Wildcard merging is idempotent and never increases the number of tokens.
#[test]
fn wildcard_merging_properties() {
    let mut rng = StdRng::seed_from_u64(0xC0DE4);
    const TOKENS: [&str; 4] = ["*", "a", "b", "c"];
    for _ in 0..300 {
        let len = rng.gen_range(0..20usize);
        let tokens: Vec<&str> = (0..len).map(|_| TOKENS[rng.gen_range(0..4usize)]).collect();
        let template = tokens.join(" ");
        let once = merge_consecutive_wildcards(&template);
        let twice = merge_consecutive_wildcards(&once);
        assert_eq!(once, twice);
        assert!(once.split_whitespace().count() <= tokens.len());
        // No two consecutive wildcards survive.
        let out_tokens: Vec<&str> = once.split_whitespace().collect();
        for pair in out_tokens.windows(2) {
            assert!(!(pair[0] == "*" && pair[1] == "*"));
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded suites (CI varies BYTEBRAIN_TEST_SEED)
// ---------------------------------------------------------------------------

/// Base seed for the adversarial cases; CI runs a small matrix of values.
fn adversarial_seed() -> u64 {
    std::env::var("BYTEBRAIN_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Random weighted logs of `positions` tokens, each position drawn from a vocabulary of
/// 1, 2, 3 or 50 tokens: small vocabularies give shared tokens, large ones completely
/// distinct positions.
fn weighted_logs(rng: &mut StdRng, positions: usize, rows: usize) -> Vec<EncodedLog> {
    let vocab: Vec<usize> = (0..positions)
        .map(|_| [1, 2, 3, 50][rng.gen_range(0..4usize)])
        .collect();
    (0..rows)
        .map(|_| {
            let tokens: Vec<String> = vocab
                .iter()
                .map(|&v| format!("t{}", rng.gen_range(0..v)))
                .collect();
            let mut log = EncodedLog::from_tokens(&tokens);
            log.count = rng.gen_range(1..1_000u64);
            log
        })
        .collect()
}

/// The trainer's dense kernel (`TokenTable` + `DenseProfile`) equals the reference
/// `ClusterProfile` bit for bit: for random equal-length weighted log sets, a random
/// node (subset, re-interned) and a random partition of it into clusters, every
/// member-to-cluster distance, every per-position distinct count, and the saturation and
/// position breakdown under every ablation variant agree — including single-log seed
/// clusters and both settings of position importance.
#[test]
fn dense_kernel_equals_reference_profile() {
    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xDE5E);
    for case in 0..120 {
        let positions = rng.gen_range(1..7usize);
        let rows = rng.gen_range(1..30usize);
        let logs = weighted_logs(&mut rng, positions, rows);
        let group = TokenTable::intern(positions, logs.iter());

        // The node: a random non-empty subset of the group, in group order.
        let mut members: Vec<usize> = (0..logs.len()).filter(|_| rng.gen_bool(0.7)).collect();
        if members.is_empty() {
            members.push(rng.gen_range(0..logs.len()));
        }
        let mut remap = Vec::new();
        let mut node = TokenTable::default();
        group.project_into(&members, &mut remap, &mut node);
        assert!(remap.iter().all(|&slot| slot == u32::MAX), "case {case}");
        assert!(node.id_count() <= group.id_count());

        // The partition: every member in a random cluster, plus one cluster seeded with
        // a single member (what K-Means++ seeding and the growth step build).
        let clusters = rng.gen_range(1..5usize);
        let mut partition: Vec<Vec<usize>> = vec![Vec::new(); clusters];
        for slot in 0..members.len() {
            partition[rng.gen_range(0..clusters)].push(slot);
        }
        partition.push(vec![rng.gen_range(0..members.len())]);

        for slots in &partition {
            let reference =
                ClusterProfile::from_logs(positions, slots.iter().map(|&s| &logs[members[s]]));
            let mut dense = DenseProfile::default();
            dense.reset(&node);
            for &slot in slots {
                dense.add(node.row(slot), node.weight(slot));
            }
            assert_eq!(dense.distinct(), reference.distinct(), "case {case}");
            assert_eq!(dense.unique_count(), reference.unique_count());
            assert_eq!(dense.total_weight(), reference.total_weight());
            assert_eq!(dense.is_empty(), reference.is_empty());
            for importance in [true, false] {
                dense.seal(&node, importance);
                let mut column = vec![0.0; node.rows()];
                dense.score(&node, &mut column);
                for (slot, &member) in members.iter().enumerate() {
                    assert_eq!(
                        column[slot].to_bits(),
                        reference.distance(&logs[member], importance).to_bits(),
                        "case {case}: distance of member {member}, importance {importance}"
                    );
                }
            }
            assert_eq!(
                breakdown(dense.distinct(), dense.unique_count()),
                breakdown(&reference.distinct(), reference.unique_count())
            );
            for (name, ablation) in AblationConfig::named_variants() {
                assert_eq!(
                    saturation(dense.distinct(), dense.unique_count(), &ablation).to_bits(),
                    saturation(&reference.distinct(), reference.unique_count(), &ablation)
                        .to_bits(),
                    "case {case}: saturation under {name}"
                );
            }
        }
        // A table's own distinct counts are those of the profile over all its rows.
        let whole = ClusterProfile::from_logs(positions, members.iter().map(|&m| &logs[m]));
        assert_eq!(node.distinct(), whole.distinct());
        assert_eq!(node.total_weight(), whole.total_weight());
    }
}

/// The column of `profile` over `table`, sealed with `importance`, as raw bits.
fn column_bits(profile: &mut DenseProfile, table: &TokenTable, importance: bool) -> Vec<u64> {
    profile.seal(table, importance);
    let mut column = vec![0.0; table.rows()];
    profile.score(table, &mut column);
    column.iter().map(|d| d.to_bits()).collect()
}

/// A profile kept by moves — random sequences of `add` and `remove` — is exactly the
/// profile rebuilt from the rows it holds: counts, distinct counts, totals, and every
/// distance bit for bit, under both settings of position importance.
#[test]
fn profile_kept_by_moves_equals_a_rebuild() {
    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0x30E5);
    for case in 0..80 {
        let positions = rng.gen_range(1..7usize);
        let rows = rng.gen_range(1..24usize);
        let table = TokenTable::intern(positions, weighted_logs(&mut rng, positions, rows).iter());
        let mut kept = DenseProfile::default();
        kept.reset(&table);
        let mut members = vec![false; rows];
        for step in 0..rng.gen_range(1..60usize) {
            let row = rng.gen_range(0..rows);
            if members[row] {
                kept.remove(table.row(row), table.weight(row));
            } else {
                kept.add(table.row(row), table.weight(row));
            }
            members[row] = !members[row];

            let mut rebuilt = DenseProfile::default();
            rebuilt.reset(&table);
            for row in (0..rows).filter(|&row| members[row]) {
                rebuilt.add(table.row(row), table.weight(row));
            }
            assert!(kept.same_statistics(&rebuilt), "case {case}, step {step}");
            assert_eq!(kept.distinct(), rebuilt.distinct());
            assert_eq!(kept.total_weight(), rebuilt.total_weight());
            assert_eq!(kept.unique_count(), rebuilt.unique_count());
            for importance in [true, false] {
                assert_eq!(
                    column_bits(&mut kept, &table, importance),
                    column_bits(&mut rebuilt, &table, importance),
                    "case {case}, step {step}, importance {importance}"
                );
            }
        }
    }
}

/// The column scorer equals the reference distance bit for bit at every row count from
/// 1 to 9, which takes every tail of its four-row blocks, for both settings of position
/// importance; an empty profile scores every row 1.0.
#[test]
fn column_scorer_equals_reference_at_every_tail() {
    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xC011);
    for rows in 1..=9usize {
        for case in 0..20 {
            let positions = rng.gen_range(1..7usize);
            let logs = weighted_logs(&mut rng, positions, rows);
            let table = TokenTable::intern(positions, logs.iter());
            let members: Vec<usize> = (0..rows).filter(|_| rng.gen_bool(0.5)).collect();
            let reference = ClusterProfile::from_logs(positions, members.iter().map(|&m| &logs[m]));
            let mut dense = DenseProfile::default();
            dense.reset(&table);
            for &row in &members {
                dense.add(table.row(row), table.weight(row));
            }
            for importance in [true, false] {
                let expected: Vec<u64> = logs
                    .iter()
                    .map(|log| reference.distance(log, importance).to_bits())
                    .collect();
                assert_eq!(
                    column_bits(&mut dense, &table, importance),
                    expected,
                    "{rows} rows, case {case}, importance {importance}"
                );
                if members.is_empty() {
                    assert!(expected.iter().all(|&bits| bits == 1.0f64.to_bits()));
                }
            }
        }
    }
}

/// Adversarial probe records for the matcher: trained shapes with substituted
/// values, unicode, empty lines, very long tokens, and wildcard-token injection.
fn matcher_probe(rng: &mut StdRng) -> String {
    match rng.gen_range(0..8u32) {
        0 => String::new(),
        1 => "   \t  ".to_string(),
        2 => format!(
            "job {} finished on host node-{:02} in {}ms",
            rng.gen_range(0..100_000u64),
            rng.gen_range(0..100u64),
            rng.gen_range(0..100_000u64)
        ),
        3 => format!(
            "任务 {} 在 节点 {} 完成",
            rng.gen_range(0..99u64),
            rng.gen_range(0..9u64)
        ),
        4 => format!(
            "job {} finished",
            "x".repeat(rng.gen_range(500..5_000usize))
        ),
        5 => format!("<*> {} <*>", rng.gen_range(0..50u64)),
        6 => "job <*> finished on host <*> in <*>".to_string(),
        _ => format!(
            "completely novel statement {} with {} entropy",
            rng.gen_range(0..1_000u64),
            "very ".repeat(rng.gen_range(1..200usize))
        ),
    }
}

/// The facade's entry points agree with the tree walk on adversarial probes:
/// `match_batch` (per-thread scratches) and the one-record `match_log_readonly` return
/// the node `match_view` finds through a long-lived scratch, with its saturation, and
/// `template` renders that node's text — and the matched template positionally matches the owned tokens
/// `tokens_of` produces.
#[test]
fn zero_copy_matching_agrees_with_owned_path() {
    use bytebrain::matcher::match_view;
    use bytebrain::ByteBrainParser;
    use logtok::TokenScratch;

    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xAD7E_0004);
    let mut records = Vec::new();
    for i in 0..120 {
        records.push(format!(
            "job {} finished on host node-{:02} in {}ms",
            i,
            i % 16,
            i % 500
        ));
        records.push(format!("任务 {} 在 节点 {} 完成", i, i % 4));
        records.push(format!("cache {} invalidated after {} hits", i % 9, i * 3));
    }
    let mut parser = ByteBrainParser::new(TrainConfig::default().with_parallelism(2));
    parser.train(&records);
    let (model, pre) = (parser.model(), parser.preprocessor());
    let mut scratch = TokenScratch::new();
    let probes: Vec<String> = (0..600).map(|_| matcher_probe(&mut rng)).collect();
    let batched = parser.match_batch(&probes);
    for (probe, batched) in probes.iter().zip(&batched) {
        let owned = parser.match_log_readonly(probe);
        assert_eq!(&owned, batched, "batch path diverged on {probe:?}");
        let view = pre.token_view(probe, &mut scratch);
        let view_node = match_view(model, &view);
        assert_eq!(owned.node, view_node, "view path diverged on {probe:?}");
        match view_node {
            Some(id) => {
                let tokens = pre.tokens_of(probe);
                assert!(
                    model.nodes[id.0].matches(tokens.iter().map(String::as_str)),
                    "owned tokens disagree with the view on {probe:?}"
                );
                assert_eq!(owned.saturation, model.nodes[id.0].saturation);
                let template = model.nodes[id.0].template_text();
                assert_eq!(parser.template(&owned), Some(template));
            }
            None => assert_eq!(parser.template(&owned), None),
        }
    }
}

/// Ladder resolution and the pointer-walk reference agree with a naive full-chain
/// specification on randomly shaped trees with randomly perturbed (non-monotone)
/// saturations and random retirements — the exact conditions delta-patched trees
/// create.
#[test]
fn ladder_resolution_matches_reference_on_perturbed_trees() {
    use bytebrain::query::{clamp_threshold, resolve_with_threshold, SaturationLadder};
    use bytebrain::{NodeId, ParserModel, TemplateToken, TreeNode};

    let make_node = |sat: f64, depth: usize, retired: bool| TreeNode {
        id: NodeId(0),
        parent: None,
        children: Vec::new(),
        template: vec![TemplateToken::Const("x".into()), TemplateToken::Wildcard],
        saturation: sat,
        depth,
        log_count: 1,
        unique_count: 1,
        temporary: false,
        retired,
    };

    // The naive specification: collect the live chain coarsest-first, return the first
    // entry meeting the threshold, else the most precise live entry, else the node.
    let reference = |model: &ParserModel, node: NodeId, threshold: f64| -> NodeId {
        let threshold = clamp_threshold(threshold);
        let live: Vec<NodeId> = model
            .ancestors(node)
            .into_iter()
            .rev()
            .filter(|id| !model.nodes[id.0].retired)
            .collect();
        live.iter()
            .copied()
            .find(|id| model.nodes[id.0].saturation >= threshold)
            .or_else(|| live.last().copied())
            .unwrap_or(node)
    };

    let mut rng = StdRng::seed_from_u64(0x1ADD_E201);
    for _ in 0..80 {
        let mut model = ParserModel::new();
        let nodes = rng.gen_range(1..40usize);
        for i in 0..nodes {
            let sat = rng.gen_range(0.0..1.0f64);
            let retired = rng.gen_bool(0.2);
            let id = model.push_node(make_node(sat, 0, retired));
            if i == 0 || rng.gen_bool(0.25) {
                model.add_root(id);
            } else {
                // Attach under any earlier node: arbitrary shapes, arbitrary dips.
                let parent = NodeId(rng.gen_range(0..i));
                model.attach_child(parent, id);
                model.nodes[id.0].depth = model.nodes[parent.0].depth + 1;
            }
        }
        model.rebuild_match_order();
        let ladder = SaturationLadder::build(&model);
        for _ in 0..40 {
            let node = NodeId(rng.gen_range(0..nodes));
            let threshold = match rng.gen_range(0..10u32) {
                0 => f64::NAN,
                1 => rng.gen_range(-2.0..0.0),
                2 => rng.gen_range(1.0..3.0),
                _ => rng.gen_range(0.0..1.0),
            };
            let expected = reference(&model, node, threshold);
            assert_eq!(
                resolve_with_threshold(&model, node, threshold),
                expected,
                "pointer walk diverged from spec (node {node}, threshold {threshold})"
            );
            assert_eq!(
                ladder.resolve(node, threshold),
                expected,
                "ladder diverged from spec (node {node}, threshold {threshold})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Automaton: one-lifecycle property (tables of the last landing + tail) + compiler/cache fuzzing
// ---------------------------------------------------------------------------

/// Record families the delta property test mixes: the base family trains the
/// initial model, drift families arrive via `train_delta` patches.
fn family_record(rng: &mut StdRng, family: u32) -> String {
    match family {
        0 => format!(
            "request {} served from cache {} in {}ms",
            rng.gen_range(0..10_000u64),
            rng.gen_range(0..6u64),
            rng.gen_range(0..900u64)
        ),
        1 => format!(
            "circuit breaker opened for upstream svc-{}",
            rng.gen_range(0..8u64)
        ),
        2 => format!(
            "gpu worker {} evicted tensor block {} after {} allocations",
            rng.gen_range(0..8u64),
            rng.gen_range(0..500u64),
            rng.gen_range(1..10_000u64)
        ),
        _ => format!(
            "节点 {} 重新加载配置 版本 {}",
            rng.gen_range(0..9u64),
            rng.gen_range(0..400u64)
        ),
    }
}

/// The automaton's one lifecycle, held to the tree walk: a snapshot is compiled when the
/// model lands a change and never patched; the temporaries online matching appends in
/// between (0–300 lines per round, each one the kernel missed) are the tail the kernel
/// scans after the tables. Across rounds of that churn and landings of deltas,
/// retirements and saturation moves, the kernel on the snapshot compiled at the last
/// landing ≡ the tree walk ≡ the kernel on a fresh compile — as DFA rows and, under a
/// determinization cap of 2, as NFA rows.
#[test]
fn kernel_on_the_last_landing_equals_tree_walk_and_fresh_compile_under_churn() {
    use bytebrain::incremental::{apply_delta, train_delta};
    use bytebrain::matcher::{match_compiled, match_view};
    use bytebrain::{CompiledMatcher, NodeId, ParserModel};
    use logtok::TokenScratch;

    fn compile(model: &ParserModel) -> [CompiledMatcher; 2] {
        let compiled = CompiledMatcher::compile(model);
        let capped = CompiledMatcher::compile_with_limit(model, 2);
        assert!(!compiled.uses_nfa_fallback() && capped.uses_nfa_fallback());
        [compiled, capped]
    }
    fn agree(
        model: &ParserModel,
        landed: &[CompiledMatcher; 2],
        probes: &[String],
        pre: &Preprocessor,
        at: &str,
    ) {
        let fresh = compile(model);
        let mut scratch = TokenScratch::new();
        for probe in probes {
            let view = pre.token_view(probe, &mut scratch);
            let tree = match_view(model, &view);
            for (mode, rows) in [("DFA", 0), ("NFA", 1)] {
                let on_last = match_compiled(model, &landed[rows], view.iter());
                let on_fresh = match_compiled(model, &fresh[rows], view.iter());
                assert_eq!(
                    (on_last, on_fresh),
                    (tree, tree),
                    "{mode} rows diverged ({at}, {probe:?})"
                );
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xA070_0001);
    let config = TrainConfig::default();
    let pre = Preprocessor::new(config.preprocess.clone());
    let mut scratch = TokenScratch::new();
    let mut tails = Vec::new();

    for case in 0..4 {
        let warm: Vec<String> = (0..rng.gen_range(40..120usize))
            .map(|_| family_record(&mut rng, 0))
            .collect();
        let mut model = train(&warm, &pre, &config).model;
        let mut landed = compile(&model);
        let mut inserted: Vec<String> = Vec::new();

        for round in 0..8 {
            // Online matching between two landings: what the kernel misses becomes a
            // temporary, and stays in the tail until the next landing.
            for _ in 0..rng.gen_range(0..301usize) {
                let line = match rng.gen_range(0..10u32) {
                    0 => fuzz_line(&mut rng),
                    1..=2 => format!("novel {round} {}", family_record(&mut rng, 0)),
                    _ => {
                        let family = rng.gen_range(0..4u32);
                        family_record(&mut rng, family)
                    }
                };
                let view = pre.token_view(&line, &mut scratch);
                if match_compiled(&model, &landed[0], view.iter()).is_none() {
                    model.insert_temporary(&pre.tokens_of(&line));
                    inserted.push(line);
                }
            }
            tails.push(model.len() - landed[0].nodes());
            let mut probes: Vec<String> = (0..40)
                .map(|i| match i % 4 {
                    0 if !inserted.is_empty() => inserted[rng.gen_range(0..inserted.len())].clone(),
                    1 => fuzz_line(&mut rng),
                    _ => {
                        let family = rng.gen_range(0..4u32);
                        family_record(&mut rng, family)
                    }
                })
                .collect();
            agree(
                &model,
                &landed,
                &probes,
                &pre,
                &format!("case {case}, round {round}"),
            );

            // A landing, then the one compile.
            match rng.gen_range(0..3u32) {
                0 => {
                    let family = rng.gen_range(1..4u32);
                    let batch: Vec<String> = (0..rng.gen_range(5..40usize))
                        .map(|_| family_record(&mut rng, family))
                        .collect();
                    let delta = train_delta(&model, &batch, &pre, &config);
                    model = apply_delta(&model, &delta);
                }
                1 => {
                    let live: Vec<NodeId> = model.match_order().to_vec();
                    for _ in 0..rng.gen_range(1..4usize).min(live.len()) {
                        model.retire(live[rng.gen_range(0..live.len())]);
                    }
                    model.rebuild_match_order();
                }
                _ => {
                    for _ in 0..3 {
                        let idx = rng.gen_range(0..model.nodes.len());
                        model.nodes[idx].saturation = rng.gen_range(0.0..1.0);
                    }
                    model.rebuild_match_order();
                }
            }
            let generations = landed.each_ref().map(CompiledMatcher::generation);
            landed = landed.each_ref().map(|compiled| compiled.refreshed(&model));
            assert!(landed.iter().all(|c| c.nodes() == model.len()));
            assert_ne!(
                generations,
                landed.each_ref().map(CompiledMatcher::generation)
            );
            probes.truncate(20);
            agree(
                &model,
                &landed,
                &probes,
                &pre,
                &format!("case {case}, landing {round}"),
            );
        }
    }
    // The churn did grow tails, long ones included.
    assert!(tails.iter().any(|&tail| tail >= 100), "tails: {tails:?}");
}

/// `insert_temporary` slots the new id into the match order and `retire` takes one
/// out, instead of re-sorting the whole order per call: after **any** interleaving
/// of the two with `apply_delta`, the order is exactly what `rebuild_match_order`
/// computes from scratch.
#[test]
fn match_order_is_maintained_across_insert_retire_and_delta() {
    use bytebrain::incremental::{apply_delta, train_delta};
    use bytebrain::NodeId;

    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xA070_0003);
    let config = TrainConfig::default();
    let pre = Preprocessor::new(config.preprocess.clone());

    for case in 0..8 {
        let warm: Vec<String> = (0..rng.gen_range(40..120usize))
            .map(|_| family_record(&mut rng, 0))
            .collect();
        let mut model = train(&warm, &pre, &config).model;
        for step in 0..40 {
            match rng.gen_range(0..6u32) {
                0 => {
                    let family = rng.gen_range(1..4u32);
                    let batch: Vec<String> = (0..rng.gen_range(5..40usize))
                        .map(|_| family_record(&mut rng, family))
                        .collect();
                    let delta = train_delta(&model, &batch, &pre, &config);
                    model = apply_delta(&model, &delta);
                }
                1 => {
                    let live: Vec<NodeId> = model
                        .nodes
                        .iter()
                        .filter(|n| !n.retired)
                        .map(|n| n.id)
                        .collect();
                    if !live.is_empty() {
                        model.retire(live[rng.gen_range(0..live.len())]);
                    }
                }
                // Temporaries dominate, as they do between two maintenance runs;
                // token counts vary so ties on (saturation, wildcards, depth) do too.
                _ => {
                    let family = rng.gen_range(0..4u32);
                    let line = family_record(&mut rng, family);
                    let tokens = pre.tokens_of(&format!("novel {step} {line}"));
                    model.insert_temporary(&tokens[..rng.gen_range(1..tokens.len() + 1)]);
                }
            }
            let maintained = model.match_order().to_vec();
            let mut rebuilt = model.clone();
            rebuilt.rebuild_match_order();
            assert_eq!(
                maintained,
                rebuilt.match_order(),
                "match order drifted from a rebuild (case {case}, step {step})"
            );
        }
    }
}

/// The sorted-edge DFA produces **byte-identical** assignments to the tree walk on
/// a model whose start state fans out over hundreds of const edges (the widest
/// binary search a transition can face), across delta/retire/temporary churn compiled
/// anew at every landing. The hashed match cache, kept across the landings,
/// must agree too — as DFA rows and, on a second chain compiled under a tiny
/// determinization cap, as NFA rows over the trie.
#[test]
fn sorted_edge_dfa_equals_tree_walk_under_wide_fanout_and_churn() {
    use bytebrain::incremental::{apply_delta, train_delta};
    use bytebrain::matcher::match_view;
    use bytebrain::{CompiledMatcher, MatchCache, NodeId};
    use logtok::TokenScratch;

    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xDE2E_0002);
    let config = TrainConfig::default();
    let pre = Preprocessor::new(config.preprocess.clone());
    let mut scratch = TokenScratch::new();
    // One temporary per distinct leading token: each adds a const edge to the
    // start state and two more interned symbols.
    let wide_line = |round: usize, i: usize| format!("kind-r{round}-{i} unit-r{round}-{i} stalled");

    for case in 0..4 {
        let warm: Vec<String> = (0..rng.gen_range(40..120usize))
            .map(|_| family_record(&mut rng, 0))
            .collect();
        let mut model = train(&warm, &pre, &config).model;
        let mut wide: Vec<(NodeId, String)> = (0..300)
            .map(|i| {
                let line = wide_line(0, i);
                (model.insert_temporary(&pre.tokens_of(&line)), line)
            })
            .collect();
        let leading: std::collections::HashSet<String> = wide
            .iter()
            .map(|(_, line)| pre.tokens_of(line).swap_remove(0))
            .collect();
        assert_eq!(leading.len(), 300, "masking collapsed the fan-out");
        let mut compiled = CompiledMatcher::compile(&model);
        let mut capped = CompiledMatcher::compile_with_limit(&model, 2);
        // Kept *across* landings: generation invalidation (not staleness) must
        // keep hits equal to misses.
        let mut cache = MatchCache::new(64);

        for step in 0..8 {
            match rng.gen_range(0..4u32) {
                0 => {
                    let family = rng.gen_range(1..4u32);
                    let batch: Vec<String> = (0..rng.gen_range(5..40usize))
                        .map(|_| family_record(&mut rng, family))
                        .collect();
                    let delta = train_delta(&model, &batch, &pre, &config);
                    model = apply_delta(&model, &delta);
                    // The delta absorbs temporaries; probe only the survivors.
                    wide.retain(|(id, _)| !model.nodes[id.0].retired);
                }
                1 => {
                    let family = rng.gen_range(0..4u32);
                    let line = family_record(&mut rng, family);
                    let tokens = pre.tokens_of(&format!("novel {step} {line}"));
                    model.insert_temporary(&tokens);
                }
                2 => {
                    let live: Vec<NodeId> = model
                        .nodes
                        .iter()
                        .filter(|n| !n.retired)
                        .map(|n| n.id)
                        .collect();
                    if !live.is_empty() {
                        let gone = live[rng.gen_range(0..live.len())];
                        model.retire(gone);
                        model.rebuild_match_order();
                        wide.retain(|(id, _)| *id != gone);
                    }
                }
                _ => {
                    if !model.nodes.is_empty() {
                        let idx = rng.gen_range(0..model.nodes.len());
                        model.nodes[idx].saturation = rng.gen_range(0.0..1.0);
                        model.rebuild_match_order();
                    }
                }
            }
            // Churn: retire half of the wide temporaries and insert as many with
            // fresh tokens, so every compile sees hundreds of symbols come and go.
            let keep = wide.split_off(wide.len() / 2);
            for (id, _) in std::mem::replace(&mut wide, keep) {
                model.retire(id);
            }
            model.rebuild_match_order();
            for i in 0..150 {
                let line = wide_line(step + 1, i);
                wide.push((model.insert_temporary(&pre.tokens_of(&line)), line));
            }

            // A landing: the whole model compiled anew, each chain under
            // its own cap.
            compiled = compiled.refreshed(&model);
            assert!(!compiled.uses_nfa_fallback());
            capped = capped.refreshed(&model);
            assert!(capped.uses_nfa_fallback());
            assert_eq!(capped.dfa_states(), None);

            for i in 0..50 {
                let probe = if i < 20 {
                    wide[rng.gen_range(0..wide.len())].1.clone()
                } else if rng.gen_bool(0.8) {
                    let family = rng.gen_range(0..4u32);
                    family_record(&mut rng, family)
                } else {
                    fuzz_line(&mut rng)
                };
                let view = pre.token_view(&probe, &mut scratch);
                let tree = match_view(&model, &view);
                for (mode, rows) in [("DFA", &compiled), ("NFA", &capped)] {
                    assert_eq!(
                        rows.match_view(&view),
                        tree,
                        "{mode} rows diverged (case {case}, step {step}, {probe:?})"
                    );
                }
                let cached = cache.match_record(&compiled, &pre, &mut scratch, &probe);
                assert_eq!(
                    cached, tree,
                    "hashed cache diverged (case {case}, step {step}, {probe:?})"
                );
            }
        }
        // The fan-out survived the churn (otherwise this silently degrades to the
        // narrow models of the test above).
        assert!(wide.len() >= 100, "wide fan-out collapsed: {}", wide.len());
    }
}

/// Arbitrary masked-token line for the compiler/cache fuzzer: unicode, empty
/// lines, whitespace-only lines, 20k-char tokens, wildcard-token injection,
/// control characters, and very wide lines.
fn fuzz_line(rng: &mut StdRng) -> String {
    match rng.gen_range(0..10u32) {
        0 => String::new(),
        1 => " \t \u{00a0} ".to_string(),
        2 => format!("x{}", "y".repeat(rng.gen_range(10_000..20_000usize))),
        3 => {
            let n = rng.gen_range(1..12usize);
            (0..n)
                .map(|_| if rng.gen_bool(0.7) { "<*>" } else { "lit" })
                .collect::<Vec<_>>()
                .join(" ")
        }
        4 => format!(
            "任务 {} 在 节点 {} 完成 ✓ λ=∞",
            rng.gen_range(0..99u64),
            rng.gen_range(0..9u64)
        ),
        5 => format!("ctl\u{1}chars\u{7f}here {}", rng.gen_range(0..100u64)),
        6 => "tok ".repeat(rng.gen_range(1..400usize)),
        7 => format!(
            "job {} finished on host node-{:02} in {}ms",
            rng.gen_range(0..100_000u64),
            rng.gen_range(0..100u64),
            rng.gen_range(0..100_000u64)
        ),
        8 => format!("<*> {} <*> <*>", rng.gen_range(0..50u64)),
        _ => {
            let n = rng.gen_range(0..8usize);
            (0..n)
                .map(|_| {
                    let c = char::from_u32(rng.gen_range(0x21..0x2_00AD_u32) % 0xD700 + 0x21)
                        .unwrap_or('?');
                    format!("{c}{}", rng.gen_range(0..10u32))
                })
                .collect::<Vec<_>>()
                .join(" ")
        }
    }
}

/// The compiler and the match cache never panic on arbitrary input — models
/// trained on fuzzed corpora plus fuzzed temporary templates, matched against
/// fuzzed probes through both the DFA and the forced-NFA fallback — and cache
/// hits always return the same assignment as cache misses.
#[test]
fn fuzz_compiler_and_match_cache_on_arbitrary_lines() {
    use bytebrain::matcher::match_view;
    use bytebrain::{CompiledMatcher, MatchCache};
    use logtok::TokenScratch;

    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xF0_22ED);
    let config = TrainConfig::default();
    let pre = Preprocessor::new(config.preprocess.clone());
    let mut scratch = TokenScratch::new();

    for case in 0..8 {
        let corpus: Vec<String> = (0..rng.gen_range(1..50usize))
            .map(|_| fuzz_line(&mut rng))
            .collect();
        let mut model = train(&corpus, &pre, &config).model;
        // Fuzzed temporaries: raw token sequences, including wildcard-text
        // tokens and empty templates.
        for _ in 0..rng.gen_range(0..8usize) {
            let tokens = pre.tokens_of(&fuzz_line(&mut rng));
            model.insert_temporary(&tokens);
        }

        // Tiny determinization cap forces the NFA fallback; both execution
        // modes must survive and agree with the tree walker.
        let dfa = CompiledMatcher::compile(&model);
        let nfa = CompiledMatcher::compile_with_limit(&model, 2);
        for (mode, compiled) in [("dfa", &dfa), ("nfa", &nfa)] {
            if mode == "nfa" && !compiled.uses_nfa_fallback() {
                // Trivial template sets may determinize under any cap; the
                // larger cases in the loop still exercise the fallback.
                continue;
            }
            let mut cache = MatchCache::new(16);
            let mut probes = Vec::new();
            for _ in 0..150 {
                let probe = fuzz_line(&mut rng);
                let view = pre.token_view(&probe, &mut scratch);
                let direct = compiled.match_view(&view);
                assert_eq!(
                    direct,
                    match_view(&model, &view),
                    "{mode} diverged from tree walk (case {case}, probe {probe:?})"
                );
                let miss = cache.match_record(compiled, &pre, &mut scratch, &probe);
                assert_eq!(miss, direct, "cache miss diverged on {probe:?}");
                probes.push((probe, direct));
            }
            // Replay every probe: hit or (evicted) re-miss, same assignment.
            for (probe, expected) in &probes {
                let replay = cache.match_record(compiled, &pre, &mut scratch, probe);
                assert_eq!(
                    replay, *expected,
                    "{mode} cache replay diverged (case {case}, probe {probe:?})"
                );
            }
            let (hits, misses) = cache.stats();
            assert!(hits > 0, "replay must produce cache hits");
            assert!(misses >= 150, "first pass must miss");
            assert!(cache.len() <= 32, "cache exceeded its bound");
        }
    }
}
