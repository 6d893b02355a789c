//! Rendering: the environment header every run prints, the human-readable metric
//! table, and the one JSON line the driver parses.

use crate::sys;
use crate::workloads::{Metric, Report, RunArgs};

/// Facts a reader needs before comparing two runs' numbers.
pub fn environment_header(args: &RunArgs, nproc: usize) -> Vec<String> {
    vec![
        format!(
            "# lpbench workload={} seed={} shape={:#x} seconds={} trace={}",
            args.workload,
            args.seed,
            args.shape,
            args.seconds,
            u8::from(args.trace),
        ),
        format!(
            "# nproc={nproc} commit={} rustc={}",
            sys::first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            sys::first_line_of("rustc", &["--version"]),
        ),
    ]
}

fn json_string(text: &str) -> String {
    serde_json::to_string(&serde::Value::String(text.to_string())).expect("strings render")
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`, `metrics`.
/// A value that is not a finite number cannot be reported and is an error.
pub fn result_line(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(report.metrics.len());
    for Metric { name, value, unit } in &report.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ))
}

/// One `name value unit` row per metric, for people.
pub fn metric_table(report: &Report) -> Vec<String> {
    let width = report
        .metrics
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(0);
    report
        .metrics
        .iter()
        .map(|m| format!("{:width$}  {:>16.6} {}", m.name, m.value, m.unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("ingest_rps", 123456.789012, "1/s"),
            ],
            ..Report::default()
        };
        let line = result_line(&report).unwrap();
        let parsed = serde_json::parse_value(&line).unwrap();
        let Value::Object(fields) = &parsed else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(parsed.get("attempted"), Some(&Value::UInt(12)));
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap();
        assert_eq!(setup.get("value"), Some(&Value::Float(0.8127)));
        assert_eq!(setup.get("unit"), Some(&Value::String("s".to_string())));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_failure_or_a_problem_makes_the_run_incorrect() {
        let mut report = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        assert!(result_line(&report).unwrap().contains("\"correct\": false"));
        report.failed = 0;
        report.problems.push("answers differ".to_string());
        assert!(!report.correct());
    }

    #[test]
    fn non_finite_values_are_refused() {
        let report = Report {
            metrics: vec![Metric::new("query_p50_ms", f64::NAN, "ms")],
            ..Report::default()
        };
        assert!(result_line(&report).is_err());
    }
}
