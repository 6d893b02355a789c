//! Cloud-service workflow: ingest a synthetic HDFS-like stream into a log topic, let
//! volume-triggered training run, query the stored logs grouped by template at two
//! precisions, and compare the template distribution after the first batch with the
//! one after the last (cumulative: the later one counts every record of the earlier).
//!
//! Run with: `cargo run --release --example cloud_topic`

use bytebrain_repro::bytebrain::Query;
use bytebrain_repro::datasets::LabeledDataset;
use bytebrain_repro::service::{compare_snapshots, LogTopic, TopicConfig};

fn main() {
    let corpus = LabeledDataset::loghub2("HDFS", 30_000);
    let mut topic = LogTopic::new(TopicConfig::new("hdfs-datanode").with_volume_threshold(10_000));

    // Ingest the stream in batches, as a collector would, freezing an indexed query
    // snapshot (model + ladder + postings behind Arcs) after each batch.
    let mut snapshots = Vec::new();
    for (i, chunk) in corpus.records.chunks(10_000).enumerate() {
        let outcome = topic.ingest(chunk);
        println!(
            "batch {}: matched {} / {} online, trained this batch: {}",
            i,
            outcome.matched,
            chunk.len(),
            outcome.trained
        );
        snapshots.push(topic.query_snapshot());
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

    // Compare the topic after the first batch with the topic after the last, through
    // the indexed path. Both distributions are cumulative: the later snapshot still
    // holds every record of the first batch.
    if snapshots.len() >= 2 {
        let shifts = compare_snapshots(
            &snapshots[0],
            snapshots.last().expect("at least one snapshot"),
            0.9,
        );
        println!("\nlargest distribution shifts from the first batch to the whole stream:");
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
