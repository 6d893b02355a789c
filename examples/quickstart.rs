//! Quickstart: train ByteBrain on a small batch of logs, match new logs online, and
//! adjust template precision at query time.
//!
//! Run with: `cargo run --release --example quickstart`

use bytebrain_repro::bytebrain::{ByteBrainParser, TrainConfig};

fn main() {
    // 1. A batch of raw logs (in production this is a log topic's recent data).
    let mut training_logs: Vec<String> = Vec::new();
    for i in 0..200 {
        training_logs.push(format!(
            "Accepted password for user{} from 10.0.{}.{} port {} ssh2",
            i % 6,
            i % 4,
            i % 50,
            5000 + i
        ));
        training_logs.push(format!(
            "Connection closed by 10.0.{}.{} [preauth]",
            i % 4,
            i % 50
        ));
        if i % 5 == 0 {
            training_logs.push(format!(
                "Failed password for invalid user guest{} from 10.1.0.{} port {} ssh2",
                i,
                i % 30,
                6000 + i
            ));
        }
    }

    // 2. Offline training: hierarchical clustering builds the template tree.
    let mut parser = ByteBrainParser::new(TrainConfig::default());
    parser.train(&training_logs);
    println!(
        "trained on {} logs -> {} templates\n",
        training_logs.len(),
        parser.model().len()
    );

    // 3. Online matching of new logs.
    for log in [
        "Accepted password for user99 from 10.0.3.42 port 5999 ssh2",
        "Connection closed by 10.0.1.7 [preauth]",
        "error: kex_exchange_identification: read: Connection reset by peer",
    ] {
        let result = parser.match_log(log);
        let template = parser
            .template(&result)
            .expect("match_log matches every log");
        println!("log     : {log}");
        println!(
            "template: {template}  (saturation {:.2})\n",
            result.saturation
        );
    }

    // 4. Query-time precision control: the same matched log presented at three precisions.
    let matched =
        parser.match_log_readonly("Accepted password for user3 from 10.0.2.9 port 5123 ssh2");
    if let Some(node) = matched.node {
        for threshold in [0.1, 0.6, 0.95] {
            println!(
                "threshold {threshold:>4}: {}",
                parser.template_at_threshold(node, threshold)
            );
        }
    }
}
