//! `lpbench aa` — the A/A gate: does the benchmark agree with itself?
//!
//! Every workload is run `2 × runs` times on the same code, alternately into set A
//! and set B; run `i` of either set uses seed `i + 1`, so the sets see the same
//! inputs and every run of a set another seed, as under the acceptance driver. For
//! every end-to-end metric the gate prints each set's values, median and quartiles,
//! and fails if
//!
//! * the two medians differ by more than **half** the metric's bound,
//! * any single run lies more than one bound from its set's median,
//! * a set's median `setup_s` is under two seconds,
//! * `attempted` or `grouping_accuracy` differ between the two runs of a seed, or
//! * any run exits non-zero (incorrect, or a sample floor missed).
//!
//! Then one more run per workload on another corpus **shape** (`--shape`, see
//! `corpus::Seeds`) must come out correct: the acceptance item "a second seed runs
//! clean", which `--seed` alone cannot exercise.
//!
//! The bounds the gate decides by are read from `BENCHMARK.json`, never restated
//! here. Each row also says whether the same two rules would hold at the bounds
//! ISSUE 13 asked for ([`ISSUE_BOUNDS`]), so the committed output shows how far the
//! host let the benchmark get towards them.

use crate::flag;
use crate::stats::{median, quartiles, spread};
use crate::workloads::{NOMINAL_SECONDS, WORKLOADS};
use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// `setup_s` every workload is sized to reach on the seed commit.
const MIN_SETUP_S: f64 = 2.0;
/// The corpus shape of the extra run.
const SECOND_SHAPE: &str = "2";
/// The bounds ISSUE 13 named, as shares (its 0.005 absolute on an accuracy near 0.5
/// is taken as the stricter 0.005 share). Reported beside the verdict, never
/// deciding it.
const ISSUE_BOUNDS: [(&str, f64); 6] = [
    ("setup_s", 0.10),
    ("ingest_rps", 0.10),
    ("ingest_p50_ms", 0.10),
    ("query_p50_ms", 0.10),
    ("peak_rss_mb", 0.05),
    ("grouping_accuracy", 0.005),
];

struct Bound {
    name: String,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let manifest = serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Array(entries)) = manifest.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    entries
        .iter()
        .map(|entry| match (entry.get("name"), entry.get("bound")) {
            (Some(Value::String(name)), Some(Value::Float(bound))) => Ok(Bound {
                name: name.clone(),
                bound: *bound,
            }),
            other => Err(format!("{path}: bad end_to_end entry {other:?}")),
        })
        .collect()
}

/// One run of this binary; returns its metrics and `attempted` count.
fn one_run(
    workload: &str,
    seed: u64,
    seconds: &str,
    extra: &[&str],
) -> Result<(BTreeMap<String, f64>, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", seconds, "--trace", "0"])
        .args(extra)
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} {extra:?} exited with {}: {line} {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let parsed = serde_json::parse_value(line).map_err(|e| format!("result line: {e}"))?;
    let Some(Value::Object(metrics)) = parsed.get("metrics") else {
        return Err("result line has no metrics".to_string());
    };
    let number = |value: &Value| match value {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    };
    let values = metrics
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), number(entry.get("value")?)?)))
        .collect();
    let attempted = parsed.get("attempted").and_then(number).unwrap_or(0.0) as u64;
    Ok((values, attempted))
}

/// Largest distance of a value from the set's median, as a share of the median.
fn farthest(values: &[f64]) -> f64 {
    let mid = median(values);
    values
        .iter()
        .map(|v| ((v - mid) / mid).abs())
        .fold(0.0, f64::max)
}

/// The verdict on one metric of one workload: `(median gap, farthest run, reasons)`.
fn judge(name: &str, bound: f64, a: &[f64], b: &[f64]) -> (f64, f64, Vec<&'static str>) {
    let (ma, mb) = (median(a), median(b));
    let gap = (ma - mb).abs() / ma.min(mb);
    let far = farthest(a).max(farthest(b));
    let mut reasons = Vec::new();
    if gap > bound / 2.0 {
        reasons.push("medians differ by more than half the bound");
    }
    if far > bound {
        reasons.push("a run lies more than one bound from its set median");
    }
    if name == "setup_s" && ma.min(mb) < MIN_SETUP_S {
        reasons.push("set-up takes under two seconds");
    }
    if name == "grouping_accuracy" && a != b {
        reasons.push("accuracy differs between two runs of a seed");
    }
    (gap, far, reasons)
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let runs: usize = flag(args, "--runs")
        .unwrap_or("5")
        .parse()
        .map_err(|_| "--runs is not a number")?;
    let seconds =
        flag(args, "--seconds").map_or_else(|| NOMINAL_SECONDS.to_string(), str::to_string);
    if runs < 2 {
        return Err("--runs must be at least 2 (quartiles need two samples)".to_string());
    }
    let bounds = bounds()?;
    let (mut pass, mut pass_at_issue_bounds) = (true, true);
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        // sets[set][metric] = values in seed order
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        let mut attempted: [Vec<u64>; 2] = Default::default();
        for i in 0..2 * runs {
            let (set, seed) = (i % 2, (i / 2) as u64 + 1);
            eprintln!("aa: {workload} set {} seed {seed}", ["A", "B"][set]);
            let (metrics, ops) = one_run(workload, seed, &seconds, &[])?;
            attempted[set].push(ops);
            for (name, value) in metrics {
                sets[set].entry(name).or_default().push(value);
            }
        }
        let counts_repeat = attempted[0] == attempted[1];
        pass &= counts_repeat;
        rows.push(format!(
            "{{\"workload\": \"{workload}\", \"metric\": \"attempted\", \"a\": {:?}, \"b\": {:?}, \"ok\": {counts_repeat}}}",
            attempted[0], attempted[1]
        ));
        for Bound { name, bound } in &bounds {
            let (a, b) = (&sets[0][name], &sets[1][name]);
            let (gap, far, reasons) = judge(name, *bound, a, b);
            pass &= reasons.is_empty();
            let at_issue_bound = ISSUE_BOUNDS
                .iter()
                .find(|(metric, _)| metric == name)
                .is_some_and(|(_, issue)| judge(name, *issue, a, b).2.is_empty());
            pass_at_issue_bounds &= at_issue_bound;
            rows.push(format!(
                "{{\"workload\": \"{workload}\", \"metric\": \"{name}\", \"bound\": {bound}, \
                 \"a\": {}, \"b\": {}, \"a_quartiles\": {}, \"b_quartiles\": {}, \
                 \"median_gap\": {gap}, \"farthest_run\": {far}, \"widest_spread\": {}, \
                 \"ok\": {}, \"why_not\": {:?}, \"ok_at_issue_bound\": {at_issue_bound}}}",
                list(a),
                list(b),
                list(&quartiles(a)),
                list(&quartiles(b)),
                // What the acceptance driver bounds: interquartile distance over median.
                spread(a).max(spread(b)),
                reasons.is_empty(),
                reasons,
            ));
        }
        eprintln!("aa: {workload} shape {SECOND_SHAPE}");
        let reshaped = one_run(workload, 1, &seconds, &["--shape", SECOND_SHAPE]);
        pass &= reshaped.is_ok();
        rows.push(format!(
            "{{\"workload\": \"{workload}\", \"metric\": \"second shape runs clean\", \"ok\": {}, \"detail\": {:?}}}",
            reshaped.is_ok(),
            reshaped.map_or_else(|e| e, |(metrics, _)| format!("{metrics:?}")),
        ));
    }
    println!(
        "{{\"runs_per_set\": {runs}, \"seconds\": {seconds}, \"pass\": {pass}, \
         \"pass_at_issue_bounds\": {pass_at_issue_bounds}, \"rows\": ["
    );
    println!("  {}", rows.join(",\n  "));
    println!("]}}");
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_applies_the_issues_two_rules_and_the_setup_floor() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        assert!(judge("ingest_rps", 0.1, &steady, &steady).2.is_empty());
        // Medians 100 and 106: apart by more than half of 10 %.
        let shifted: Vec<f64> = steady.iter().map(|v| v * 1.06).collect();
        let (gap, _, reasons) = judge("ingest_rps", 0.1, &steady, &shifted);
        assert!((gap - 0.06).abs() < 1e-9);
        assert_eq!(reasons, ["medians differ by more than half the bound"]);
        // One run 12 % off its set's median, medians equal.
        let outlier = [100.0, 101.0, 99.0, 112.0, 100.0];
        let (_, far, reasons) = judge("ingest_rps", 0.1, &steady, &outlier);
        assert!((far - 0.12).abs() < 1e-9);
        assert_eq!(
            reasons,
            ["a run lies more than one bound from its set median"]
        );
        // setup_s is held to both rules and to two seconds.
        let short = [1.9, 1.9, 1.9];
        assert_eq!(
            judge("setup_s", 0.1, &short, &short).2,
            ["set-up takes under two seconds"]
        );
        assert_eq!(
            judge("grouping_accuracy", 0.005, &[0.5, 0.5], &[0.5, 0.5001]).2,
            ["accuracy differs between two runs of a seed"]
        );
    }
}
