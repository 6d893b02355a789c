//! Fig. 11 — parameter sensitivity: grouping accuracy as the query-time saturation
//! threshold sweeps from 0.1 to 0.9, on LogHub and LogHub-2.0-scale corpora — plus
//! the query-latency companion: the same threshold sweep answered by the per-record
//! scan oracle and by the planned path (postings aggregated up the saturation ladder)
//! on a 100k-record topic.

use bench::{eval_bytebrain, loghub2_scale, maybe_write};
use bytebrain::{Query, TrainConfig};
use datasets::LabeledDataset;
use eval::report::{fmt2, ExperimentRecord, TextTable};
use service::{LogTopic, QueryEngine, QueryValue, TopicConfig};
use std::time::Instant;

fn main() {
    let thresholds = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let datasets = [
        "Apache",
        "BGL",
        "HDFS",
        "HPC",
        "Hadoop",
        "HealthApp",
        "Mac",
        "OpenSSH",
        "OpenStack",
        "Spark",
        "Thunderbird",
        "Zookeeper",
    ];
    let scale = loghub2_scale().min(20_000);
    let mut record = ExperimentRecord::new("fig11", "GA vs saturation threshold");
    for (suite, use_loghub2) in [("LogHub", false), ("LogHub-2.0", true)] {
        let mut headers = vec!["Dataset".to_string()];
        headers.extend(thresholds.iter().map(|t| format!("{t:.1}")));
        let mut table = TextTable::new(headers);
        for dataset in datasets {
            let ds = if use_loghub2 {
                LabeledDataset::loghub2(dataset, scale)
            } else {
                LabeledDataset::loghub(dataset)
            };
            let mut row = vec![dataset.to_string()];
            for &threshold in &thresholds {
                let outcome = eval_bytebrain(&ds, TrainConfig::default(), threshold);
                row.push(fmt2(outcome.accuracy));
                record.insert(&format!("{suite}_{dataset}_{threshold}"), outcome.accuracy);
            }
            table.add_row(row);
            eprintln!("[fig11] finished {suite}/{dataset}");
        }
        println!("Fig. 11 ({suite}): group accuracy vs saturation threshold\n");
        println!("{}", table.render());
    }
    query_latency_sweep(&thresholds, &mut record);
    maybe_write(&record);
}

/// The indexed row: answer the same threshold sweep on a 100k-record Apache topic
/// through the scan oracle and the planned path (both return byte-identical groups —
/// the differential suite enforces it) and report per-sweep latency.
fn query_latency_sweep(thresholds: &[f64], record: &mut ExperimentRecord) {
    const TRAIN: usize = 4_000;
    const RECORDS: usize = 100_000;
    let ds = LabeledDataset::loghub2("Apache", TRAIN + RECORDS);
    let (train_part, stream_part) = ds.records.split_at(TRAIN);
    let mut topic = LogTopic::new(TopicConfig::new("fig11-query").with_volume_threshold(u64::MAX));
    topic.ingest(train_part);
    for chunk in stream_part.chunks(8_192) {
        topic.ingest(chunk);
    }
    eprintln!(
        "[fig11] query topic ready: {} records",
        topic.records().len()
    );

    let engine = QueryEngine::new(&topic);
    let snapshot = topic.query_snapshot();
    let plan = |threshold: f64| {
        let query = Query::group_by().at_threshold(threshold);
        query.plan().expect("a predicate-free query always plans")
    };
    let group_count = |value: QueryValue| value.groups().map_or(0, |groups| groups.len());
    let scan = |t: f64| group_count(engine.execute_scan(&plan(t)));
    let indexed = |t: f64| snapshot.execute(&plan(t)).map_or(0, group_count);
    // One untimed warm-up sweep per path so allocators and caches settle equally.
    for &t in thresholds {
        scan(t);
        indexed(t);
    }
    let timed = |f: &dyn Fn(f64) -> usize| -> (f64, usize) {
        let started = Instant::now();
        let mut groups = 0usize;
        for &t in thresholds {
            groups += f(t);
        }
        (started.elapsed().as_secs_f64() * 1_000.0, groups)
    };
    let (scan_ms, scan_groups) = timed(&scan);
    let (indexed_ms, indexed_groups) = timed(&indexed);
    assert_eq!(
        scan_groups, indexed_groups,
        "paths must agree on the group count"
    );
    let speedup = scan_ms / indexed_ms;

    let mut table = TextTable::new(vec![
        "Path".to_string(),
        "Sweep (ms)".to_string(),
        "Per query (ms)".to_string(),
        "Speedup".to_string(),
    ]);
    let per_query = thresholds.len() as f64;
    table.add_row(vec![
        "scan (per-record walk)".to_string(),
        fmt2(scan_ms),
        fmt2(scan_ms / per_query),
        "1.00".to_string(),
    ]);
    table.add_row(vec![
        "indexed (postings + ladder)".to_string(),
        fmt2(indexed_ms),
        fmt2(indexed_ms / per_query),
        fmt2(speedup),
    ]);
    println!(
        "Fig. 11 (indexed row): {}-threshold sweep latency on a {}k-record topic\n",
        thresholds.len(),
        RECORDS / 1_000
    );
    println!("{}", table.render());
    record.insert("query_scan_sweep_ms", scan_ms);
    record.insert("query_indexed_sweep_ms", indexed_ms);
    record.insert("query_indexed_speedup", speedup);
}
