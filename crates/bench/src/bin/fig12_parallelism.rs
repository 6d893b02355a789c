//! Fig. 12 — throughput vs. degree of parallelism (1–16 workers) on LogHub-2.0-scale
//! corpora, sorted by dataset size. Large datasets benefit; small ones plateau early.
//!
//! Two engines are swept: the scoped-thread `match_batch` path the paper's figure
//! measures, and the batched streaming ingestion engine (`StreamIngestor`, swept over
//! pool workers). Wall-clock speedups obviously require more than one physical core.

use bench::{eval_bytebrain, eval_bytebrain_stream, loghub2_scale, maybe_write, DEFAULT_THRESHOLD};
use bytebrain::TrainConfig;
use datasets::LabeledDataset;
use eval::report::{fmt_sci, ExperimentRecord, TextTable};

fn main() {
    let workers = [1usize, 2, 4, 8, 16];
    let datasets = [
        "Apache",
        "Zookeeper",
        "Mac",
        "HealthApp",
        "Hadoop",
        "HPC",
        "OpenStack",
        "OpenSSH",
        "BGL",
        "HDFS",
        "Spark",
        "Thunderbird",
    ];
    let scale = loghub2_scale();
    let mut headers = vec!["Dataset".to_string()];
    headers.extend(workers.iter().map(|w| format!("{w} workers")));
    headers.push("speedup 16/1".to_string());
    let mut table = TextTable::new(headers);
    let mut record = ExperimentRecord::new("fig12", "throughput vs parallelism");
    for dataset in datasets {
        let ds = LabeledDataset::loghub2(dataset, scale);
        let mut row = vec![dataset.to_string()];
        let mut first = 0.0;
        let mut last = 0.0;
        for (i, &w) in workers.iter().enumerate() {
            let outcome = eval_bytebrain(
                &ds,
                TrainConfig::default().with_parallelism(w),
                DEFAULT_THRESHOLD,
            );
            let tp = outcome.throughput.logs_per_second;
            row.push(fmt_sci(tp));
            record.insert(&format!("{dataset}_{w}"), tp);
            if i == 0 {
                first = tp;
            }
            last = tp;
        }
        row.push(format!(
            "{:.2}x",
            if first > 0.0 { last / first } else { 0.0 }
        ));
        table.add_row(row);
        eprintln!("[fig12] finished {dataset}");
    }
    println!("Fig. 12: throughput vs parallelism ({scale} logs per dataset)\n");
    println!("{}", table.render());

    // Second sweep: the batched streaming ingestion engine over pool workers.
    let mut stream_headers = vec!["Dataset".to_string()];
    stream_headers.extend(workers.iter().map(|w| format!("{w} workers")));
    stream_headers.push("speedup 16/1".to_string());
    let mut stream_table = TextTable::new(stream_headers);
    for dataset in ["Apache", "OpenSSH", "HDFS", "Thunderbird"] {
        let ds = LabeledDataset::loghub2(dataset, scale);
        let mut row = vec![dataset.to_string()];
        let mut first = 0.0;
        let mut last = 0.0;
        for (i, &w) in workers.iter().enumerate() {
            let outcome = eval_bytebrain_stream(&ds, w);
            let tp = outcome.throughput.logs_per_second;
            row.push(fmt_sci(tp));
            record.insert(&format!("stream_{dataset}_{w}"), tp);
            if i == 0 {
                first = tp;
            }
            last = tp;
        }
        row.push(format!(
            "{:.2}x",
            if first > 0.0 { last / first } else { 0.0 }
        ));
        stream_table.add_row(row);
        eprintln!("[fig12] finished streaming sweep for {dataset}");
    }
    println!("Fig. 12 (streaming engine): throughput vs worker count\n");
    println!("{}", stream_table.render());
    maybe_write(&record);
}
