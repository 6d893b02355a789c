//! Criterion micro-benchmarks for the hot paths of the parsing pipeline: tokenization,
//! hash vs. ordinal encoding, positional-similarity distance, training and online
//! matching. These complement the experiment binaries (which reproduce the paper's tables
//! and figures end to end).

use bytebrain::distance::{ClusterProfile, DenseProfile, TokenTable};
use bytebrain::matcher::match_record;
use bytebrain::train::train;
use bytebrain::TrainConfig;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use datasets::LabeledDataset;
use logtok::{hash_token, EncodedLog, OrdinalEncoder, Preprocessor, Tokenizer};
use std::hint::black_box;

fn sample_records(n: usize) -> Vec<String> {
    LabeledDataset::loghub2("HDFS", n).records
}

fn bench_tokenizer(c: &mut Criterion) {
    let records = sample_records(2_000);
    let tokenizer = Tokenizer::default_rules();
    let bytes: u64 = records.iter().map(|r| r.len() as u64).sum();
    let mut group = c.benchmark_group("preprocessing");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("tokenize_2k_records", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for r in &records {
                total += tokenizer.tokenize(r).len();
            }
            total
        })
    });
    group.finish();
}

fn bench_encoding(c: &mut Criterion) {
    let records = sample_records(2_000);
    let preprocessor = Preprocessor::default_pipeline();
    let token_lists: Vec<Vec<String>> = records.iter().map(|r| preprocessor.tokens_of(r)).collect();
    let mut group = c.benchmark_group("encoding");
    group.bench_function("hash_encoding", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for tokens in &token_lists {
                for t in tokens {
                    acc ^= hash_token(t);
                }
            }
            acc
        })
    });
    group.bench_function("ordinal_encoding", |b| {
        b.iter_batched(
            OrdinalEncoder::new,
            |mut encoder| {
                let mut acc = 0u64;
                for tokens in &token_lists {
                    for id in encoder.encode_sequence(tokens) {
                        acc ^= id;
                    }
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_distance(c: &mut Criterion) {
    let logs: Vec<EncodedLog> = (0..64)
        .map(|i| {
            EncodedLog::from_tokens(&[
                "Receiving",
                "block",
                &format!("blk_{i}"),
                "src",
                &format!("10.0.0.{}", i % 8),
                "dest",
                &format!("10.0.0.{}", (i + 1) % 8),
            ])
        })
        .collect();
    let profile = ClusterProfile::from_logs(7, logs.iter());
    let candidate = EncodedLog::from_tokens(&[
        "Receiving",
        "block",
        "blk_999",
        "src",
        "10.0.0.3",
        "dest",
        "10.0.0.4",
    ]);
    c.bench_function("positional_similarity_distance", |b| {
        b.iter(|| profile.distance(&candidate, true))
    });

    // The same evaluation on the trainer's kernel: the candidate is the table's last row.
    let table = TokenTable::intern(7, logs.iter().chain([&candidate]));
    let mut dense = DenseProfile::default();
    dense.reset(&table);
    for row in 0..logs.len() {
        dense.add(table.row(row), table.weight(row));
    }
    dense.seal(true);
    let candidate_row = table.row(logs.len());
    c.bench_function("positional_similarity_distance_dense", |b| {
        b.iter(|| dense.distance(black_box(candidate_row)))
    });
}

fn bench_training_and_matching(c: &mut Criterion) {
    let records = sample_records(5_000);
    let config = TrainConfig::default();
    let mut group = c.benchmark_group("parser");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.sample_size(10);
    group.bench_function("train_5k_hdfs", |b| b.iter(|| train(&records, &config)));
    let outcome = train(&records, &config);
    let preprocessor = Preprocessor::default_pipeline();
    group.throughput(Throughput::Elements(1));
    group.bench_function("online_match_single_log", |b| {
        b.iter(|| {
            match_record(
                &outcome.model,
                &preprocessor,
                "Receiving block blk_42 src /10.0.0.1:50010 dest /10.0.0.2:50010",
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tokenizer,
    bench_encoding,
    bench_distance,
    bench_training_and_matching
);
criterion_main!(benches);
