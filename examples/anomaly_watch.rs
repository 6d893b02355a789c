//! Anomaly detection on parsing results: ingest a healthy baseline window, then a window
//! containing an incident (a template count surge plus a brand-new error template), and
//! let the detector and the template library's alert rules flag both. The detector
//! compares the topic after the baseline with the topic after the incident: the second
//! distribution is cumulative, so it still counts the baseline's records.
//!
//! Run with: `cargo run --release --example anomaly_watch`

use bytebrain_repro::bytebrain::Query;
use bytebrain_repro::service::anomaly::detect_snapshots;
use bytebrain_repro::service::library::AlertRule;
use bytebrain_repro::service::{LogTopic, TemplateLibrary, TopicConfig};

fn window(offset: usize, incident: bool) -> Vec<String> {
    let mut logs = Vec::new();
    for i in 0..4_000usize {
        let n = offset + i;
        logs.push(format!("request {} served from cache in {}ms", n, n % 20));
        if n.is_multiple_of(7) {
            logs.push(format!("session {} expired after {} minutes", n, n % 90));
        }
        if incident {
            // The incident: a surge of timeouts plus a previously-unseen template.
            if i % 4 == 0 {
                logs.push(format!(
                    "upstream timeout calling billing-service after {}ms",
                    1000 + n % 500
                ));
            }
            if i % 400 == 0 {
                logs.push(format!(
                    "circuit breaker OPEN for billing-service shard {}",
                    n % 8
                ));
            }
        } else if n.is_multiple_of(97) {
            logs.push(format!(
                "upstream timeout calling billing-service after {}ms",
                100 + n % 50
            ));
        }
    }
    logs
}

fn main() {
    let mut topic = LogTopic::new(TopicConfig::new("api-gateway").with_volume_threshold(u64::MAX));

    // Baseline window: freeze an indexed query snapshot (model + ladder + postings
    // behind Arcs) instead of materialising a distribution up front.
    topic.ingest(&window(0, false));
    let baseline = topic.query_snapshot();

    // Incident window.
    topic.ingest(&window(10_000, true));
    topic.run_training();
    let current = topic.query_snapshot();

    println!("=== anomalies from the baseline to baseline + incident");
    for report in detect_snapshots(&baseline, &current, 0.9).iter().take(8) {
        println!(
            "  {:?}: {} ({} -> {})",
            report.kind, report.template, report.baseline_count, report.current_count
        );
    }

    // Template library with alert rules (the saved-template workflow of §6).
    let mut library = TemplateLibrary::new();
    library.save(
        "billing timeouts",
        "upstream timeout calling billing-service after *",
        vec![AlertRule::CountAbove(100)],
    );
    library.save(
        "circuit breaker",
        "circuit breaker OPEN for billing-service shard *",
        vec![AlertRule::OnAppearance],
    );
    println!("\n=== fired alerts");
    let plan = Query::distribution()
        .at_threshold(0.9)
        .plan()
        .expect("a predicate-free query always plans");
    let current = topic.execute(&plan);
    let current_distribution = current.distribution().expect("distribution plan");
    for alert in library.evaluate_alerts(current_distribution) {
        println!(
            "  [{}] rule {:?} observed {}",
            alert.entry, alert.rule, alert.observed
        );
    }
}
