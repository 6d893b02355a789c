//! Cloud-service workflow: ingest a synthetic HDFS-like stream into a log topic, let
//! volume-triggered training run, query the stored logs grouped by template at two
//! precisions, and compare template distributions across two time windows.
//!
//! Run with: `cargo run --release --example cloud_topic`

use bytebrain_repro::bytebrain::Query;
use bytebrain_repro::datasets::LabeledDataset;
use bytebrain_repro::service::{compare_snapshots, LogTopic, TopicConfig};

fn main() {
    let corpus = LabeledDataset::loghub2("HDFS", 30_000);
    let mut topic = LogTopic::new(TopicConfig::new("hdfs-datanode").with_volume_threshold(10_000));

    // Ingest the stream in batches, as a collector would, freezing an indexed query
    // snapshot (model + ladder + postings behind Arcs) at each window boundary.
    let mut window_snapshots = Vec::new();
    for (i, chunk) in corpus.records.chunks(10_000).enumerate() {
        let outcome = topic.ingest(chunk);
        println!(
            "batch {}: matched {} / {} online, trained this batch: {}",
            i,
            outcome.matched,
            chunk.len(),
            outcome.trained
        );
        window_snapshots.push(topic.query_snapshot());
    }

    let stats = topic.stats();
    println!(
        "\ntopic stats: {} records, {} templates, model ≈ {} KB, last training {:.2}s",
        stats.total_records,
        stats.templates,
        stats.model_size_bytes / 1024,
        stats.last_training_seconds
    );

    // Query the topic at two precisions.
    for threshold in [0.3, 0.95] {
        let plan = Query::top_k(5)
            .at_threshold(threshold)
            .plan()
            .expect("a predicate-free query always plans");
        let result = topic.execute(&plan);
        println!("\ntop templates at threshold {threshold}:");
        for group in result.groups().expect("top-k yields groups").iter() {
            println!("  {:>7}  {}", group.count(), group.template);
        }
    }

    // Compare the first and last ingestion windows through the indexed path.
    if window_snapshots.len() >= 2 {
        let shifts = compare_snapshots(
            &window_snapshots[0],
            window_snapshots.last().expect("at least one window"),
            0.9,
        );
        println!("\nlargest distribution shifts between the first and last window:");
        for shift in shifts.iter().take(5) {
            println!(
                "  {:+.2}pp  {} ({} -> {})",
                shift.share_delta * 100.0,
                shift.template,
                shift.before,
                shift.after
            );
        }
    }
}
