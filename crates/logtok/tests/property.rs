//! Randomized property tests for the preprocessing substrate.
//!
//! The original proptest-based versions are preserved as seeded randomized loops (the
//! offline build environment has no proptest): each test draws a few hundred cases
//! from a fixed-seed [`StdRng`], so failures are deterministic and reproducible.

use logtok::{hash_token, Deduplicator, Masker, Preprocessor, Tokenizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random printable-ASCII string of length `0..max_len`.
fn printable(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| rng.gen_range(0x20u8..0x7F) as char)
        .collect()
}

/// A random string over an explicit alphabet.
fn over_alphabet(rng: &mut StdRng, alphabet: &[char], min_len: usize, max_len: usize) -> String {
    let len = rng.gen_range(min_len..max_len + 1);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

/// Tokenization never produces empty tokens and never produces tokens containing the
/// default delimiters.
#[test]
fn tokens_are_nonempty_and_delimiter_free() {
    let mut rng = StdRng::seed_from_u64(0x70C1);
    let tokenizer = Tokenizer::default_rules();
    for _ in 0..300 {
        let record = printable(&mut rng, 200);
        for token in tokenizer.tokenize(&record) {
            assert!(!token.is_empty());
            if token == "<*>" {
                continue;
            }
            for forbidden in [' ', '\t', ';', ',', '(', ')', '[', ']', '{', '}', '"'] {
                assert!(
                    !token.contains(forbidden),
                    "token {token:?} contains delimiter {forbidden:?} (record {record:?})"
                );
            }
        }
    }
}

/// Every non-delimiter character of the input survives tokenization (tokens partition
/// the non-delimiter content).
#[test]
fn tokenization_preserves_alphanumeric_content() {
    let mut rng = StdRng::seed_from_u64(0x70C2);
    let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 =,:"
        .chars()
        .collect();
    let tokenizer = Tokenizer::default_rules();
    for _ in 0..300 {
        let record = over_alphabet(&mut rng, &alphabet, 0, 200);
        let tokens = tokenizer.tokenize(&record);
        let mut joined: String = tokens.concat();
        joined.retain(|c| c.is_ascii_alphanumeric());
        let mut original = record.clone();
        original.retain(|c| c.is_ascii_alphanumeric());
        assert_eq!(joined, original, "content lost tokenizing {record:?}");
    }
}

/// Spans-based tokenization (the zero-copy fast path) agrees with the allocating API
/// on arbitrary printable input.
#[test]
fn span_tokenization_agrees_with_slice_tokenization() {
    let mut rng = StdRng::seed_from_u64(0x70C5);
    let tokenizer = Tokenizer::default_rules();
    let mut spans = Vec::new();
    for _ in 0..300 {
        let record = printable(&mut rng, 200);
        let slices = tokenizer.tokenize(&record);
        tokenizer.tokenize_spans(&record, &mut spans);
        let from_spans: Vec<&str> = spans.iter().map(|&(s, e)| &record[s..e]).collect();
        assert_eq!(slices, from_spans, "span mismatch on {record:?}");
    }
}

/// Hashing is deterministic and (practically) injective on small random token sets.
#[test]
fn hashing_is_deterministic_and_collision_free_on_samples() {
    let mut rng = StdRng::seed_from_u64(0x70C3);
    let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789_".chars().collect();
    for _ in 0..100 {
        let tokens: std::collections::HashSet<String> = (0..rng.gen_range(1..50usize))
            .map(|_| over_alphabet(&mut rng, &alphabet, 1, 12))
            .collect();
        let mut hashes = std::collections::HashSet::new();
        for token in &tokens {
            assert_eq!(hash_token(token), hash_token(token));
            hashes.insert(hash_token(token));
        }
        assert_eq!(hashes.len(), tokens.len());
    }
}

/// Deduplication conserves record counts: the per-unique counts always sum to the
/// number of pushed records, regardless of input distribution.
#[test]
fn dedup_conserves_counts() {
    let mut rng = StdRng::seed_from_u64(0x70C4);
    let alphabet: Vec<char> = "abc".chars().collect();
    for _ in 0..200 {
        let records: Vec<Vec<String>> = (0..rng.gen_range(1..60usize))
            .map(|_| {
                (0..rng.gen_range(1..5usize))
                    .map(|_| over_alphabet(&mut rng, &alphabet, 1, 3))
                    .collect()
            })
            .collect();
        let mut dedup = Deduplicator::new();
        for tokens in &records {
            dedup.push(tokens);
        }
        let stats = dedup.stats();
        assert_eq!(stats.total_records, records.len() as u64);
        let sum: u64 = dedup.unique().iter().map(|u| u.count).sum();
        assert_eq!(sum, records.len() as u64);
        assert!(stats.unique_records <= stats.total_records);
    }
}

/// Masking never panics and never grows the number of maskable spans (applying the
/// default rules twice is the same as applying them once).
#[test]
fn masking_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0x70C6);
    let masker = Masker::default_rules();
    for _ in 0..300 {
        let record = printable(&mut rng, 160);
        let once = masker.mask(&record);
        let twice = masker.mask(&once);
        assert_eq!(once, twice, "masking not idempotent on {record:?}");
    }
}

/// The buffer-reusing masking fast path agrees with the allocating one.
#[test]
fn mask_into_agrees_with_mask() {
    let mut rng = StdRng::seed_from_u64(0x70C7);
    let masker = Masker::default_rules();
    let mut out = String::new();
    let mut swap = String::new();
    for _ in 0..300 {
        let record = printable(&mut rng, 160);
        masker.mask_into(&record, &mut out, &mut swap);
        assert_eq!(
            out,
            masker.mask(&record),
            "mask_into mismatch on {record:?}"
        );
    }
}

/// The full preprocessing pipeline maps every record to exactly one unique log.
#[test]
fn pipeline_assigns_every_record() {
    let mut rng = StdRng::seed_from_u64(0x70C8);
    let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789 .:=".chars().collect();
    let pre = Preprocessor::default_pipeline();
    for _ in 0..150 {
        let records: Vec<String> = (0..rng.gen_range(1..40usize))
            .map(|_| over_alphabet(&mut rng, &alphabet, 1, 40))
            .collect();
        let batch = pre.preprocess(&records);
        assert_eq!(batch.record_to_unique.len(), records.len());
        for &slot in &batch.record_to_unique {
            assert!(slot < batch.unique_logs.len());
        }
    }
}

/// The zero-copy `token_view` fast path produces exactly the tokens of `tokens_of`.
#[test]
fn token_view_agrees_with_tokens_of() {
    let mut rng = StdRng::seed_from_u64(0x70C9);
    let pre = Preprocessor::default_pipeline();
    let mut scratch = logtok::TokenScratch::new();
    for _ in 0..300 {
        let record = printable(&mut rng, 160);
        let owned = pre.tokens_of(&record);
        let view = pre.token_view(&record, &mut scratch);
        assert_eq!(
            view.len(),
            owned.len(),
            "token count mismatch on {record:?}"
        );
        let viewed: Vec<String> = view.iter().map(str::to_string).collect();
        assert_eq!(viewed, owned, "token mismatch on {record:?}");
    }
}

// ---------------------------------------------------------------------------
// Adversarial zero-copy equivalence (seeded; CI varies BYTEBRAIN_TEST_SEED)
// ---------------------------------------------------------------------------

/// Base seed for the adversarial cases; CI runs a small matrix of values.
fn adversarial_seed() -> u64 {
    std::env::var("BYTEBRAIN_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// An adversarial record: unicode runs, empty lines, very long tokens, delimiter
/// bursts, embedded wildcards, maskable variables and control characters — the
/// inputs most likely to expose divergence between the owned-allocation
/// preprocessing path and the zero-copy scratch path.
fn adversarial_record(rng: &mut StdRng) -> String {
    const UNICODE: &[&str] = &[
        "用户",
        "登录",
        "ßß",
        "émoji🦀",
        "Ωmega",
        "\u{200b}",
        "naïve",
    ];
    const MASKABLE: &[&str] = &[
        "2025-04-12 08:00:01",
        "10.0.0.5:8080",
        "123e4567-e89b-12d3-a456-426614174000",
        "0xDEADBEEF",
        "512MB",
        "35ms",
        "d41d8cd98f00b204e9800998ecf8427e",
    ];
    const DELIMS: &[&str] = &[
        "  ", "\t", "::", ",,", "=[]{}", "(?)", "<>", "\"''\"", "\\\"", ". ",
    ];
    match rng.gen_range(0..10u32) {
        // Empty and whitespace-only lines.
        0 => String::new(),
        1 => " \t ".repeat(rng.gen_range(1..10usize)),
        // One very long token (far beyond any scratch warm-up size).
        2 => "x".repeat(rng.gen_range(1_000..20_000usize)),
        // A very long token glued to maskable fragments.
        3 => format!(
            "{} {} {}",
            "payload".repeat(rng.gen_range(200..2_000usize)),
            MASKABLE[rng.gen_range(0..MASKABLE.len())],
            "y".repeat(rng.gen_range(0..50usize)),
        ),
        // Pure unicode runs.
        4 => (0..rng.gen_range(1..30usize))
            .map(|_| UNICODE[rng.gen_range(0..UNICODE.len())])
            .collect::<Vec<_>>()
            .join(" "),
        // The wildcard token itself, glued into odd positions.
        5 => format!("<*>{}<*><*>{}", "a".repeat(rng.gen_range(0..5)), "<*"),
        _ => {
            // Mixed soup of everything, including control chars.
            let mut out = String::new();
            for _ in 0..rng.gen_range(1..40usize) {
                match rng.gen_range(0..5u32) {
                    0 => out.push_str(UNICODE[rng.gen_range(0..UNICODE.len())]),
                    1 => out.push_str(MASKABLE[rng.gen_range(0..MASKABLE.len())]),
                    2 => out.push_str(DELIMS[rng.gen_range(0..DELIMS.len())]),
                    3 => out.push(rng.gen_range(0x20u8..0x7F) as char),
                    _ => out.push_str(&"tok".repeat(rng.gen_range(1..80usize))),
                }
            }
            out
        }
    }
}

/// `Masker::mask_into` agrees with `Masker::mask` on adversarial inputs, including
/// repeated reuse of the same (already warm and dirty) scratch buffers.
#[test]
fn mask_into_agrees_with_mask_on_adversarial_inputs() {
    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xAD7E_0001);
    let masker = Masker::default_rules();
    let mut out = String::new();
    let mut swap = String::new();
    for _ in 0..400 {
        let record = adversarial_record(&mut rng);
        masker.mask_into(&record, &mut out, &mut swap);
        assert_eq!(
            out,
            masker.mask(&record),
            "mask_into mismatch on {record:?}"
        );
    }
}

/// The table-driven masker agrees with the VM-only one on every line of every
/// `datasets` family, and on the adversarial records.
#[test]
fn table_masker_agrees_with_pike_vm_masker() {
    let masker = Masker::default_rules();
    let reference = masker.pike_vm_only();
    let mut out = String::new();
    let mut swap = String::new();
    let (mut lines, mut masked) = (0usize, 0usize);
    for family in datasets::dataset_names() {
        for record in &datasets::LabeledDataset::loghub(family).records {
            masker.mask_into(record, &mut out, &mut swap);
            assert_eq!(out, reference.mask(record), "{family} line {record:?}");
            lines += 1;
            masked += usize::from(out != *record);
        }
    }
    assert!(masked * 4 > lines, "only {masked} of {lines} lines masked");
    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xAD7E_0005);
    for _ in 0..400 {
        let record = adversarial_record(&mut rng);
        assert_eq!(
            masker.mask(&record),
            reference.mask(&record),
            "adversarial line {record:?}"
        );
    }
}

/// Masking is one leftmost-longest scan over the union of the rules; on every line of
/// every LogHub (16) and LogHub-2.0 (14) `datasets` corpus, plain and behind an ISO
/// timestamp header, it gives what applying the rules one after another gives.
#[test]
fn one_scan_masking_agrees_with_rule_by_rule_on_every_corpus() {
    let masker = Masker::default_rules();
    let mut out = String::new();
    let (mut lines, mut masked) = (0usize, 0usize);
    let corpora = datasets::dataset_names()
        .into_iter()
        .map(|family| (family, datasets::LabeledDataset::loghub(family)))
        .chain(
            datasets::loghub2_dataset_names()
                .into_iter()
                .map(|family| (family, datasets::LabeledDataset::loghub2(family, 1_000))),
        );
    for (family, corpus) in corpora {
        for record in &corpus.records {
            for line in [record.clone(), format!("2025-04-12T08:15:12.123 {record}")] {
                masker.mask_into(&line, &mut out, &mut String::new());
                assert_eq!(
                    out,
                    masker.mask_rule_by_rule(&line),
                    "{family} line {line:?}"
                );
                lines += 1;
                masked += usize::from(out.matches("<*>").count() > 1);
            }
        }
    }
    assert_eq!(lines, 2 * (16 * 2_000 + 14 * 1_000));
    assert!(
        masked * 4 > lines,
        "only {masked} of {lines} lines masked past the header"
    );
}

/// `Tokenizer::tokenize_spans` emits spans that slice back to exactly the tokens of
/// `Tokenizer::tokenize`, with in-bounds, ordered, non-overlapping offsets — on
/// adversarial inputs.
#[test]
fn tokenize_spans_agree_with_tokenize_on_adversarial_inputs() {
    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xAD7E_0002);
    let tokenizer = Tokenizer::default_rules();
    let mut spans = Vec::new();
    for _ in 0..400 {
        let record = adversarial_record(&mut rng);
        let owned = tokenizer.tokenize(&record);
        tokenizer.tokenize_spans(&record, &mut spans);
        let sliced: Vec<&str> = spans.iter().map(|&(s, e)| &record[s..e]).collect();
        assert_eq!(sliced, owned, "span mismatch on {record:?}");
        let mut last_end = 0usize;
        for &(start, end) in &spans {
            assert!(
                start <= end && end <= record.len(),
                "bad span in {record:?}"
            );
            assert!(start >= last_end, "overlapping spans in {record:?}");
            last_end = end;
        }
    }
}

/// The full zero-copy pipeline (`token_view` over a long-lived scratch) agrees with
/// the owned path (`tokens_of`) on adversarial inputs — the property the streaming
/// ingestion hot path depends on.
#[test]
fn token_view_agrees_with_tokens_of_on_adversarial_inputs() {
    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xAD7E_0003);
    let pre = Preprocessor::default_pipeline();
    let mut scratch = logtok::TokenScratch::new();
    for _ in 0..400 {
        let record = adversarial_record(&mut rng);
        let owned = pre.tokens_of(&record);
        let view = pre.token_view(&record, &mut scratch);
        assert_eq!(
            view.len(),
            owned.len(),
            "token count mismatch on {record:?}"
        );
        assert_eq!(view.is_empty(), owned.is_empty());
        let viewed: Vec<String> = view.to_owned_tokens();
        assert_eq!(viewed, owned, "token mismatch on {record:?}");
        // A token masking left intact maps back to the very bytes of the record; only a
        // token holding a replacement does not.
        for (i, token) in owned.iter().enumerate() {
            match view.raw_span(i) {
                Some((start, end)) => assert_eq!(&record[start..end], token),
                None => assert!(token.contains("<*>"), "{token:?} of {record:?}"),
            }
        }
    }
}

/// `Preprocessor::preprocess` (one reused scratch, texts copied only for a first
/// occurrence) equals, field for field, the per-record path it replaced: `tokens_of`
/// each record, then `Deduplicator::push` — or, with deduplication off, one fresh
/// deduplicator per record. The batch repeats records so that sequences do collapse.
#[test]
fn preprocess_agrees_with_per_record_path() {
    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xAD7E_0004);
    for deduplicate in [true, false] {
        let pre = Preprocessor::new(logtok::PreprocessConfig {
            deduplicate,
            ..logtok::PreprocessConfig::default()
        });
        for _ in 0..20 {
            let pool: Vec<String> = (0..rng.gen_range(1..25usize))
                .map(|_| adversarial_record(&mut rng))
                .collect();
            let records: Vec<&str> = (0..rng.gen_range(0..80usize))
                .map(|_| pool[rng.gen_range(0..pool.len())].as_str())
                .collect();
            let batch = pre.preprocess(&records);

            let mut dedup = Deduplicator::new();
            let mut record_to_unique = Vec::new();
            for (idx, record) in records.iter().enumerate() {
                let tokens = pre.tokens_of(record);
                if deduplicate {
                    record_to_unique.push(dedup.push(&tokens));
                } else {
                    // A fresh deduplicator per record never collapses anything.
                    let mut single = Deduplicator::new();
                    single.push(&tokens);
                    assert_eq!(batch.unique_logs[idx], single.unique()[0], "record {idx}");
                    record_to_unique.push(idx);
                }
            }
            assert_eq!(batch.record_to_unique, record_to_unique);
            assert_eq!(batch.stats.total_records, records.len() as u64);
            if deduplicate {
                assert_eq!(batch.stats, dedup.stats());
                assert_eq!(batch.unique_logs, dedup.unique());
            } else {
                assert_eq!(batch.stats.unique_records, records.len() as u64);
                assert_eq!(batch.unique_logs.len(), records.len());
            }
            // Each unique log's count is the number of records mapped to it.
            for (slot, log) in batch.unique_logs.iter().enumerate() {
                let mapped = batch.record_to_unique.iter().filter(|&&u| u == slot);
                assert_eq!(log.count, mapped.count() as u64, "unique log {slot}");
            }
        }
    }
}

/// The "w/o deduplication" ablation runs the one preprocessing loop: every record,
/// duplicates included, gets a unique log of its own, in record order, with count 1,
/// and the batch's statistics read n records over n unique logs.
#[test]
fn without_deduplication_every_record_is_its_own_log() {
    let mut rng = StdRng::seed_from_u64(adversarial_seed() ^ 0xAD7E_0005);
    let pre = Preprocessor::new(logtok::PreprocessConfig {
        deduplicate: false,
        ..logtok::PreprocessConfig::default()
    });
    for _ in 0..20 {
        let pool: Vec<String> = (0..rng.gen_range(1..6usize))
            .map(|_| adversarial_record(&mut rng))
            .collect();
        let records: Vec<&str> = (0..rng.gen_range(0..60usize))
            .map(|_| pool[rng.gen_range(0..pool.len())].as_str())
            .collect();
        let batch = pre.preprocess(&records);
        let n = records.len();
        assert_eq!(batch.record_to_unique, (0..n).collect::<Vec<_>>());
        assert_eq!(batch.unique_logs.len(), n);
        for (log, record) in batch.unique_logs.iter().zip(&records) {
            assert_eq!(log.count, 1);
            let tokens: Vec<&str> = log.tokens().collect();
            assert_eq!(tokens, pre.tokens_of(record), "{record:?}");
        }
        let stats = batch.stats;
        assert_eq!(
            (stats.total_records, stats.unique_records),
            (n as u64, n as u64)
        );
    }
}
