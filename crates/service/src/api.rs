//! Shared request/response types of the service surface.
//!
//! The HTTP front end (`crates/server`), library callers, and the integration tests
//! all speak these structs, so "what goes over the wire" is defined once here rather
//! than per-endpoint. Requests, stats and the query AST render through the vendored
//! serde shim's [`Value`] data model; query results, the one large body, are written
//! straight into the reply string by [`query_value_to_json`] with the shim's own string
//! and number writers. Object key order is fixed either way, which makes every encoding
//! in this module **deterministic** — the loopback differential suite compares response
//! bodies byte for byte against direct [`crate::ServiceManager`] calls and relies on
//! that.
//!
//! The query AST ([`Query`]/[`Predicate`]) uses struct enum variants
//! (`Predicate::TimeWindow { start, end }`), which the derive shim deliberately does
//! not support — so the AST codecs here are hand-written over [`Value`]. The wire
//! grammar:
//!
//! ```json
//! {
//!   "predicate": {"and": [
//!     {"template_matches": "job <*> finished"},
//!     {"time_window": {"start": 0, "end": 1000}},
//!     {"not": {"variable_contains": "node-07"}}
//!   ]},
//!   "threshold": 0.5,
//!   "aggregate": {"top_k": 5}
//! }
//! ```
//!
//! `"aggregate"` is `"group_by"`, `"distribution"`, `"count_distinct"`, or
//! `{"top_k": k}`; `"predicate"` and `"threshold"` may be omitted.

use crate::query::QueryValue;
use crate::topic::{IngestOutcome, TopicStats};
use bytebrain::{Aggregate, Predicate, Query};
use serde::{Deserialize, Error, Serialize, Value};

/// Body of `POST /v1/{tenant}/{topic}/ingest`: a batch of raw log lines.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestRequest {
    /// Raw log lines, in arrival order.
    pub records: Vec<String>,
}

/// Body of a successful (possibly partially applied) ingest response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestResponse {
    /// Records admitted and applied to the topic.
    pub accepted: u64,
    /// Records shed by engine back-pressure after the batch was admitted. The
    /// `accepted` prefix is already committed (and, on a durable root, persisted),
    /// so clients must retry only the **last `shed` records** of the batch —
    /// resending the whole batch would duplicate the committed prefix.
    pub shed: u64,
    /// Records that matched an existing template.
    pub matched: u64,
    /// Records that matched no template (inserted as temporaries).
    pub unmatched: u64,
    /// Whether this batch triggered a full training run.
    pub trained: bool,
    /// Incremental maintenance runs this batch triggered.
    pub maintained: u64,
}

impl IngestResponse {
    /// Build the response from a topic-level outcome (nothing shed).
    pub fn from_outcome(outcome: &IngestOutcome) -> Self {
        IngestResponse {
            accepted: (outcome.matched + outcome.unmatched) as u64,
            shed: 0,
            matched: outcome.matched as u64,
            unmatched: outcome.unmatched as u64,
            trained: outcome.trained,
            maintained: outcome.maintained as u64,
        }
    }

    /// Builder: record how many trailing records the engine shed.
    pub fn with_shed(mut self, shed: u64) -> Self {
        self.shed = shed;
        self
    }
}

/// Body of `GET /v1/{tenant}/{topic}/stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Total records ingested into the topic.
    pub total_records: u64,
    /// Total bytes ingested into the topic.
    pub total_bytes: u64,
    /// Live template count.
    pub templates: u64,
    /// Approximate model size in bytes.
    pub model_size_bytes: u64,
    /// Completed full training runs.
    pub training_runs: u64,
    /// Completed incremental maintenance runs.
    pub maintenance_runs: u64,
}

impl StatsResponse {
    /// Build the response from a topic's stats snapshot.
    pub fn from_stats(stats: &TopicStats) -> Self {
        StatsResponse {
            total_records: stats.total_records,
            total_bytes: stats.total_bytes,
            templates: stats.templates as u64,
            model_size_bytes: stats.model_size_bytes,
            training_runs: stats.training_runs,
            maintenance_runs: stats.maintenance_runs,
        }
    }
}

/// Error body every non-2xx response carries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable description.
    pub error: String,
    /// For `429` sheds: how long the client should back off, in milliseconds.
    pub retry_after_ms: Option<u64>,
}

impl ErrorBody {
    /// A plain error with no retry hint.
    pub fn new(error: impl Into<String>) -> Self {
        ErrorBody {
            error: error.into(),
            retry_after_ms: None,
        }
    }

    /// A shed error carrying a retry hint.
    pub fn shed(error: impl Into<String>, retry_after_ms: u64) -> Self {
        ErrorBody {
            error: error.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }
}

// --- query AST codecs -------------------------------------------------------------------

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Encode a [`Predicate`] into the wire grammar.
pub fn predicate_to_value(predicate: &Predicate) -> Value {
    match predicate {
        Predicate::TemplateMatches(pattern) => {
            object(vec![("template_matches", Value::String(pattern.clone()))])
        }
        Predicate::VariableEquals(value) => {
            object(vec![("variable_equals", Value::String(value.clone()))])
        }
        Predicate::VariableContains(value) => {
            object(vec![("variable_contains", Value::String(value.clone()))])
        }
        Predicate::TimeWindow { start, end } => object(vec![(
            "time_window",
            object(vec![
                ("start", Value::UInt(*start)),
                ("end", Value::UInt(*end)),
            ]),
        )]),
        Predicate::And(children) => object(vec![(
            "and",
            Value::Array(children.iter().map(predicate_to_value).collect()),
        )]),
        Predicate::Or(children) => object(vec![(
            "or",
            Value::Array(children.iter().map(predicate_to_value).collect()),
        )]),
        Predicate::Not(child) => object(vec![("not", predicate_to_value(child))]),
    }
}

/// Decode a [`Predicate`] from the wire grammar.
pub fn predicate_from_value(value: &Value) -> Result<Predicate, Error> {
    let Value::Object(fields) = value else {
        return Err(Error::msg(format!(
            "predicate must be a single-key object, got {value:?}"
        )));
    };
    if fields.len() != 1 {
        return Err(Error::msg(format!(
            "predicate must have exactly one key, got {} keys",
            fields.len()
        )));
    }
    let (key, inner) = &fields[0];
    match key.as_str() {
        "template_matches" => String::deserialize(inner).map(Predicate::TemplateMatches),
        "variable_equals" => String::deserialize(inner).map(Predicate::VariableEquals),
        "variable_contains" => String::deserialize(inner).map(Predicate::VariableContains),
        "time_window" => {
            let start = inner
                .get("start")
                .ok_or_else(|| Error::msg("time_window missing \"start\""))?;
            let end = inner
                .get("end")
                .ok_or_else(|| Error::msg("time_window missing \"end\""))?;
            Ok(Predicate::TimeWindow {
                start: u64::deserialize(start)?,
                end: u64::deserialize(end)?,
            })
        }
        "and" | "or" => {
            let Value::Array(items) = inner else {
                return Err(Error::msg(format!("\"{key}\" expects an array")));
            };
            let children = items
                .iter()
                .map(predicate_from_value)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(if key == "and" {
                Predicate::And(children)
            } else {
                Predicate::Or(children)
            })
        }
        "not" => predicate_from_value(inner).map(|child| Predicate::Not(Box::new(child))),
        other => Err(Error::msg(format!("unknown predicate kind {other:?}"))),
    }
}

/// Encode an [`Aggregate`] into the wire grammar.
pub fn aggregate_to_value(aggregate: &Aggregate) -> Value {
    match aggregate {
        Aggregate::GroupBy => Value::String("group_by".to_string()),
        Aggregate::Distribution => Value::String("distribution".to_string()),
        Aggregate::CountDistinct => Value::String("count_distinct".to_string()),
        Aggregate::TopK(k) => object(vec![("top_k", Value::UInt(*k as u64))]),
    }
}

/// Decode an [`Aggregate`] from the wire grammar.
pub fn aggregate_from_value(value: &Value) -> Result<Aggregate, Error> {
    match value {
        Value::String(name) => match name.as_str() {
            "group_by" => Ok(Aggregate::GroupBy),
            "distribution" => Ok(Aggregate::Distribution),
            "count_distinct" => Ok(Aggregate::CountDistinct),
            other => Err(Error::msg(format!("unknown aggregate {other:?}"))),
        },
        Value::Object(_) => {
            let k = value
                .get("top_k")
                .ok_or_else(|| Error::msg("aggregate object must be {\"top_k\": k}"))?;
            usize::deserialize(k).map(Aggregate::TopK)
        }
        other => Err(Error::msg(format!("bad aggregate: {other:?}"))),
    }
}

/// Encode a full [`Query`] into the wire grammar.
pub fn query_to_value(query: &Query) -> Value {
    let mut fields: Vec<(String, Value)> = Vec::new();
    if let Some(predicate) = &query.predicate {
        fields.push(("predicate".to_string(), predicate_to_value(predicate)));
    }
    fields.push(("threshold".to_string(), Value::Float(query.threshold)));
    fields.push((
        "aggregate".to_string(),
        aggregate_to_value(&query.aggregate),
    ));
    Value::Object(fields)
}

/// Decode a full [`Query`] from the wire grammar. Missing `predicate` means no
/// filter; missing `threshold` falls back to the AST default (via
/// [`Query::group_by`]'s default threshold).
pub fn query_from_value(value: &Value) -> Result<Query, Error> {
    if !matches!(value, Value::Object(_)) {
        return Err(Error::msg(format!(
            "query must be an object, got {value:?}"
        )));
    }
    let predicate = match value.get("predicate") {
        Some(Value::Null) | None => None,
        Some(raw) => Some(predicate_from_value(raw)?),
    };
    let aggregate = match value.get("aggregate") {
        Some(raw) => aggregate_from_value(raw)?,
        None => Aggregate::GroupBy,
    };
    let mut query = Query {
        predicate,
        threshold: Query::group_by().threshold,
        aggregate,
    };
    if let Some(raw) = value.get("threshold") {
        query.threshold = f64::deserialize(raw)?;
    }
    Ok(query)
}

/// Parse a query from a JSON request body.
pub fn query_from_json(body: &str) -> Result<Query, Error> {
    let value = serde_json::parse_value(body).map_err(|e| Error::msg(e.to_string()))?;
    query_from_value(&value)
}

/// Render a query to its canonical JSON body (used by tests and docs examples).
pub fn query_to_json(query: &Query) -> String {
    serde_json::to_string(&query_to_value(query)).expect("value rendering is infallible")
}

// --- query results ----------------------------------------------------------------------

/// Render a [`QueryValue`] to its canonical JSON response body:
/// `{"kind": "groups" | "distribution" | "count", ...payload}`. Groups are encoded in
/// full — node id, template text, saturation, and every record index — so the
/// loopback differential is sensitive to any divergence from the library path.
///
/// The body is written straight into one `String`, sized up front; no [`Value`] tree is
/// built (a 0.6 grouping would build one per record index). Strings, floats and
/// integers go through `serde_json`'s own writers, so the bytes are exactly what
/// rendering the equivalent [`Value`] produces (the `query_value_to_value` oracle in
/// this module's tests).
pub fn query_value_to_json(result: &QueryValue) -> String {
    match result {
        QueryValue::Groups(groups) => {
            let size: usize = groups
                .iter()
                .map(|g| 80 + g.template.len() + 8 * g.record_indices.len())
                .sum();
            let mut out = String::with_capacity(32 + size);
            out.push_str(r#"{"kind":"groups","groups":["#);
            for (i, group) in groups.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(r#"{"node":"#);
                serde_json::write_uint(group.node.0 as u64, &mut out);
                out.push_str(r#","template":"#);
                serde_json::write_string(&group.template, &mut out);
                out.push_str(r#","saturation":"#);
                serde_json::write_float(group.saturation, &mut out);
                out.push_str(r#","record_indices":["#);
                for (j, &index) in group.record_indices.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    serde_json::write_uint(index as u64, &mut out);
                }
                out.push_str("]}");
            }
            out.push_str("]}");
            out
        }
        QueryValue::Distribution(pairs) => {
            let size: usize = pairs.iter().map(|(t, _)| 40 + t.len()).sum();
            let mut out = String::with_capacity(40 + size);
            out.push_str(r#"{"kind":"distribution","distribution":["#);
            for (i, (template, count)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(r#"{"template":"#);
                serde_json::write_string(template, &mut out);
                out.push_str(r#","count":"#);
                serde_json::write_uint(*count, &mut out);
                out.push('}');
            }
            out.push_str("]}");
            out
        }
        QueryValue::Count(count) => {
            let mut out = String::with_capacity(48);
            out.push_str(r#"{"kind":"count","count":"#);
            serde_json::write_uint(*count, &mut out);
            out.push('}');
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TemplateGroup;
    use bytebrain::NodeId;
    use std::sync::Arc;

    fn deep_query() -> Query {
        Query::top_k(3)
            .at_threshold(0.42)
            .filter(Predicate::And(vec![
                Predicate::TemplateMatches("job <*> finished".to_string()),
                Predicate::Or(vec![
                    Predicate::VariableEquals("node-03".to_string()),
                    Predicate::Not(Box::new(Predicate::VariableContains("05".to_string()))),
                ]),
                Predicate::TimeWindow { start: 10, end: 90 },
            ]))
    }

    #[test]
    fn query_round_trips_through_json() {
        let query = deep_query();
        let body = query_to_json(&query);
        let back = query_from_json(&body).expect("round trip");
        assert_eq!(back, query);
        // Deterministic rendering: encode → decode → encode is a fixed point.
        assert_eq!(query_to_json(&back), body);
    }

    #[test]
    fn every_aggregate_round_trips() {
        for aggregate in [
            Aggregate::GroupBy,
            Aggregate::Distribution,
            Aggregate::CountDistinct,
            Aggregate::TopK(7),
        ] {
            let value = aggregate_to_value(&aggregate);
            assert_eq!(aggregate_from_value(&value).unwrap(), aggregate);
        }
    }

    #[test]
    fn minimal_query_body_uses_defaults() {
        let query = query_from_json(r#"{"aggregate": "group_by"}"#).unwrap();
        assert!(query.predicate.is_none());
        assert_eq!(query.aggregate, Aggregate::GroupBy);
        assert_eq!(query.threshold, Query::group_by().threshold);
    }

    #[test]
    fn malformed_queries_are_rejected() {
        assert!(query_from_json("[1, 2]").is_err());
        assert!(query_from_json(r#"{"aggregate": "median"}"#).is_err());
        assert!(query_from_json(r#"{"predicate": {"and": [], "or": []}}"#).is_err());
        assert!(query_from_json(r#"{"predicate": {"time_window": {"start": 3}}}"#).is_err());
        assert!(query_from_json(r#"{"predicate": {"frobnicate": "x"}}"#).is_err());
    }

    #[test]
    fn ingest_request_round_trips() {
        let request = IngestRequest {
            records: vec!["a 1".to_string(), "b 2".to_string()],
        };
        let body = serde_json::to_string(&request).unwrap();
        let back: IngestRequest = serde_json::from_str(&body).unwrap();
        assert_eq!(back, request);
    }

    /// The [`Value`] tree [`query_value_to_json`] must render byte for byte: the
    /// encoding the wire format was defined by, kept as the writer's oracle.
    fn query_value_to_value(result: &QueryValue) -> Value {
        let group_to_value = |group: &TemplateGroup| {
            object(vec![
                ("node", Value::UInt(group.node.0 as u64)),
                ("template", Value::String(group.template.clone())),
                ("saturation", Value::Float(group.saturation)),
                (
                    "record_indices",
                    Value::Array(
                        group
                            .record_indices
                            .iter()
                            .map(|i| Value::UInt(*i as u64))
                            .collect(),
                    ),
                ),
            ])
        };
        match result {
            QueryValue::Groups(groups) => object(vec![
                ("kind", Value::String("groups".to_string())),
                (
                    "groups",
                    Value::Array(groups.iter().map(group_to_value).collect()),
                ),
            ]),
            QueryValue::Distribution(pairs) => object(vec![
                ("kind", Value::String("distribution".to_string())),
                (
                    "distribution",
                    Value::Array(
                        pairs
                            .iter()
                            .map(|(template, count)| {
                                object(vec![
                                    ("template", Value::String(template.clone())),
                                    ("count", Value::UInt(*count)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            QueryValue::Count(count) => object(vec![
                ("kind", Value::String("count".to_string())),
                ("count", Value::UInt(*count)),
            ]),
        }
    }

    #[test]
    fn direct_encoding_matches_the_value_oracle() {
        let group =
            |node: usize, template: &str, saturation: f64, indices: Vec<usize>| TemplateGroup {
                node: NodeId(node),
                template: template.to_string(),
                saturation,
                record_indices: indices,
            };
        let cases = [
            QueryValue::Groups(Arc::new(vec![
                group(4, "job <*> finished", 0.75, vec![0, 2, 5]),
                group(0, r#"say "hi" \ tab\tnew\nline \u{1} end"#, 1.0, vec![]),
                group(17, "用户 <*> 登录 ü 🦀", 0.0, vec![usize::MAX >> 1]),
                group(3, "", f64::NAN, vec![9; 3]),
                group(1, "big", 1e20, vec![1]),
                group(2, "neg", -0.0, vec![1, 10, 100]),
                group(5, "inf", f64::INFINITY, vec![42]),
            ])),
            QueryValue::Groups(Arc::new(Vec::new())),
            QueryValue::Distribution(Arc::new(vec![
                ("x <*>".to_string(), 3),
                ("quote \" and \u{7f}".to_string(), u64::MAX),
            ])),
            QueryValue::Distribution(Arc::new(Vec::new())),
            QueryValue::Count(0),
            QueryValue::Count(9),
        ];
        for case in &cases {
            let oracle = serde_json::to_string(&query_value_to_value(case)).unwrap();
            assert_eq!(query_value_to_json(case), oracle);
        }
    }

    #[test]
    fn query_value_encodings_are_deterministic_and_complete() {
        let groups = QueryValue::Groups(Arc::new(vec![TemplateGroup {
            node: NodeId(4),
            template: "job <*> finished".to_string(),
            saturation: 0.75,
            record_indices: vec![0, 2, 5],
        }]));
        let body = query_value_to_json(&groups);
        assert!(body.contains("\"kind\":\"groups\""), "{body}");
        assert!(body.contains("\"record_indices\":[0,2,5]"), "{body}");
        let count = query_value_to_json(&QueryValue::Count(9));
        assert!(count.contains("\"count\":9"), "{count}");
        let dist = query_value_to_json(&QueryValue::Distribution(Arc::new(vec![(
            "x <*>".to_string(),
            3,
        )])));
        assert!(dist.contains("\"distribution\""), "{dist}");
    }
}
