//! Fig. 6 — throughput (logs/second) of every method on LogHub-2.0-scale corpora,
//! including the "ByteBrain Sequential" (single core) and "ByteBrain w/o JIT"
//! (de-optimised single-core path, see EXPERIMENTS.md) variants.

use bench::{
    eval_all_methods, eval_bytebrain, eval_bytebrain_incremental, eval_bytebrain_stream,
    loghub2_scale, maybe_write,
};
use bytebrain::{AblationConfig, TrainConfig};
use datasets::{loghub2_dataset_names, LabeledDataset};
use eval::report::{fmt_sci, ExperimentRecord, TextTable};
use std::collections::HashMap;

fn main() {
    let scale = loghub2_scale();
    let datasets = loghub2_dataset_names();
    let mut throughput: HashMap<String, HashMap<String, f64>> = HashMap::new();
    for dataset in &datasets {
        eprintln!("[fig6] evaluating {dataset} at {scale} logs");
        let ds = LabeledDataset::loghub2(dataset, scale);
        // All baselines + default ByteBrain (multi-threaded).
        for outcome in eval_all_methods(&ds, true) {
            let name = if outcome.parser == "ByteBrain" {
                "ByteBrain".to_string()
            } else {
                outcome.parser.clone()
            };
            throughput
                .entry(name)
                .or_default()
                .insert(dataset.to_string(), outcome.throughput.logs_per_second);
        }
        // ByteBrain with 4 worker threads (the paper's parallel configuration).
        let parallel = eval_bytebrain(&ds, TrainConfig::default().with_parallelism(4), 0.6);
        throughput
            .entry("ByteBrain (parallel)".to_string())
            .or_default()
            .insert(dataset.to_string(), parallel.throughput.logs_per_second);
        // "w/o JIT": de-optimised single-core path (no deduplication fast path).
        let slow = eval_bytebrain(
            &ds,
            TrainConfig::default().with_ablation(AblationConfig {
                deduplication: false,
                balanced_grouping: false,
                early_stopping: false,
                ..AblationConfig::full()
            }),
            0.6,
        );
        throughput
            .entry("ByteBrain w/o JIT".to_string())
            .or_default()
            .insert(dataset.to_string(), slow.throughput.logs_per_second);
        // The batched streaming ingestion engine: 4 pool workers.
        let streamed = eval_bytebrain_stream(&ds, 4);
        throughput
            .entry("ByteBrain (stream ×4)".to_string())
            .or_default()
            .insert(dataset.to_string(), streamed.throughput.logs_per_second);
        // Online incremental maintenance: cold-start train on half the corpus, stream
        // the rest with drift-triggered delta folding instead of full retrains.
        let incremental = eval_bytebrain_incremental(&ds, 4);
        throughput
            .entry("ByteBrain (incremental ×4)".to_string())
            .or_default()
            .insert(dataset.to_string(), incremental.throughput.logs_per_second);
    }

    let mut methods: Vec<String> = bench::paper_method_order()
        .iter()
        .map(|s| s.to_string())
        .collect();
    // Mirror the figure's extra rows: sequential (the default single-core run), w/o JIT,
    // and the parallel configuration.
    let bytebrain_idx = methods.iter().position(|m| m == "ByteBrain").unwrap();
    methods[bytebrain_idx] = "ByteBrain Sequential".to_string();
    methods.push("ByteBrain w/o JIT".to_string());
    methods.push("ByteBrain (parallel)".to_string());
    methods.push("ByteBrain (stream ×4)".to_string());
    methods.push("ByteBrain (incremental ×4)".to_string());
    // The single-threaded default run is stored under "ByteBrain".
    let sequential = throughput.remove("ByteBrain").unwrap_or_default();
    throughput.insert("ByteBrain Sequential".to_string(), sequential);

    let mut headers = vec!["Method".to_string()];
    headers.extend(datasets.iter().map(|d| d.to_string()));
    headers.push("Average".to_string());
    let mut table = TextTable::new(headers);
    let mut record = ExperimentRecord::new("fig6", "throughput per method per dataset");
    for method in &methods {
        let Some(per_dataset) = throughput.get(method) else {
            continue;
        };
        let mut row = vec![method.clone()];
        let mut values = Vec::new();
        for dataset in &datasets {
            let v = per_dataset.get(*dataset).copied().unwrap_or(0.0);
            values.push(v);
            row.push(fmt_sci(v));
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        row.push(fmt_sci(mean));
        record.insert(&format!("{method}_average"), mean);
        table.add_row(row);
    }
    println!(
        "Fig. 6: throughput (logs/second) on LogHub-2.0-style corpora ({scale} logs per dataset)\n"
    );
    println!("{}", table.render());
    maybe_write(&record);
}
