//! Logical planner: AST normalization, canonical fingerprints, push-down.
//!
//! [`QueryPlan::from_query`] turns a [`Query`]
//! into a normal form executors can run and caches can key on:
//!
//! * regex patterns are validated and rewritten to their canonical
//!   `logregex` form, so `a|b` and `(a)|(b)` plan identically;
//! * `and` / `or` chains are flattened, deduplicated, and sorted by
//!   canonical encoding (commutative predicates hash equal), double
//!   negation is removed, and single-child combinators collapse;
//! * the saturation threshold is clamped to `[0, 1]` and snapped to the
//!   precision slider's 1/1000 grid, so every query surface (library, HTTP,
//!   snapshot) quantizes identically and the fingerprint always names
//!   exactly the threshold the result was computed at.
//!
//! The normalized plan exposes a stable 64-bit FNV-1a [`QueryPlan::fingerprint`]
//! (`QueryPlan::fingerprint`) — the canonical plan hash the service query
//! cache keys on — plus the push-down facts executors need: the required
//! variable-equality conjuncts and the intersected required time window,
//! both of which storage can answer from per-segment column summaries
//! without touching postings.

use crate::query::ast::{Aggregate, Predicate, Query};
use crate::query::clamp_threshold;
use logregex::{canonicalize, Regex, RegexError};
use logtok::{fnv1a, FNV_OFFSET};
use std::collections::HashMap;
use std::fmt;

/// Planning failed: the AST cannot be normalized.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A `TemplateMatches` pattern failed to parse; the payload is the
    /// offending pattern and the `logregex` error.
    InvalidPattern(String, RegexError),
    /// An `And` / `Or` combinator had no children.
    EmptyCombinator,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::InvalidPattern(pattern, err) => {
                write!(f, "invalid template pattern {pattern:?}: {err}")
            }
            PlanError::EmptyCombinator => write!(f, "and/or combinator with no children"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Output shape of a plan: [`Aggregate`] with `group_by`/`top_k` unified
/// into one limit-carrying form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOutput {
    /// Template groups, truncated to the `limit` largest.
    Groups {
        /// Maximum number of groups returned.
        limit: usize,
    },
    /// Sorted `(template, count)` pairs.
    Distribution,
    /// Count of distinct presentation templates.
    Count,
}

/// A normalized, executable query plan. Construct via [`Query::plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    threshold: f64,
    output: PlanOutput,
    predicate: Option<Predicate>,
    fingerprint: u64,
}

impl QueryPlan {
    /// Normalize `query` into a plan. See the module docs for the rules.
    pub fn from_query(query: Query) -> Result<QueryPlan, PlanError> {
        let threshold = (clamp_threshold(query.threshold) * 1_000.0).round() / 1_000.0;
        let output = match query.aggregate {
            Aggregate::GroupBy => PlanOutput::Groups { limit: usize::MAX },
            Aggregate::TopK(k) => PlanOutput::Groups { limit: k },
            Aggregate::Distribution => PlanOutput::Distribution,
            Aggregate::CountDistinct => PlanOutput::Count,
        };
        let predicate = match query.predicate {
            Some(pred) => Some(normalize(pred)?),
            None => None,
        };
        let fingerprint = fingerprint_of(threshold, output, predicate.as_ref());
        Ok(QueryPlan {
            threshold,
            output,
            predicate,
            fingerprint,
        })
    }

    /// The saturation threshold the plan resolves at: clamped to `[0, 1]`
    /// (NaN → default) and snapped to the 1/1000 slider grid.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Output shape.
    pub fn output(&self) -> PlanOutput {
        self.output
    }

    /// Normalized predicate, if any.
    pub fn predicate(&self) -> Option<&Predicate> {
        self.predicate.as_ref()
    }

    /// Canonical 64-bit plan hash: two queries that normalize to the same
    /// plan fingerprint equal, and any semantic difference (threshold,
    /// output, predicate) changes it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True when the predicate (if any) can be decided per resolved node.
    pub fn is_node_only(&self) -> bool {
        self.predicate
            .as_ref()
            .map(Predicate::is_node_only)
            .unwrap_or(true)
    }

    /// Values that every matching record must carry as an exact variable
    /// token: the `VariableEquals` conjuncts of the top-level conjunction.
    /// Storage may skip any segment whose variable-column summary rules one
    /// of these out.
    pub fn required_variable_equals(&self) -> Vec<&str> {
        self.required_conjuncts()
            .iter()
            .filter_map(|pred| match pred {
                Predicate::VariableEquals(value) => Some(value.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Intersection of the required time windows, if any: every matching
    /// record's sequence number must lie in `[start, end)`. Storage may
    /// skip segments entirely outside it.
    pub fn required_window(&self) -> Option<(u64, u64)> {
        let mut window: Option<(u64, u64)> = None;
        for pred in self.required_conjuncts() {
            if let Predicate::TimeWindow { start, end } = pred {
                window = Some(match window {
                    Some((s, e)) => ((*start).max(s), (*end).min(e)),
                    None => (*start, *end),
                });
            }
        }
        window
    }

    /// Top-level conjuncts: the children of an outer `And`, or the single
    /// predicate itself. These are *necessary* conditions, safe to push
    /// down as pruning filters.
    fn required_conjuncts(&self) -> Vec<&Predicate> {
        match &self.predicate {
            None => Vec::new(),
            Some(Predicate::And(children)) => children.iter().collect(),
            Some(single) => vec![single],
        }
    }
}

/// Normalize a predicate tree: canonicalize patterns, flatten/dedupe/sort
/// commutative combinators, drop double negation, collapse singletons.
fn normalize(pred: Predicate) -> Result<Predicate, PlanError> {
    Ok(match pred {
        Predicate::TemplateMatches(pattern) => {
            let canonical = canonicalize(&pattern)
                .map_err(|err| PlanError::InvalidPattern(pattern.clone(), err))?;
            Predicate::TemplateMatches(canonical)
        }
        leaf @ (Predicate::VariableEquals(_)
        | Predicate::VariableContains(_)
        | Predicate::TimeWindow { .. }) => leaf,
        Predicate::And(children) => normalize_combinator(children, true)?,
        Predicate::Or(children) => normalize_combinator(children, false)?,
        Predicate::Not(child) => match normalize(*child)? {
            Predicate::Not(inner) => *inner,
            inner => Predicate::Not(Box::new(inner)),
        },
    })
}

fn normalize_combinator(
    children: Vec<Predicate>,
    conjunction: bool,
) -> Result<Predicate, PlanError> {
    if children.is_empty() {
        return Err(PlanError::EmptyCombinator);
    }
    let mut flat = Vec::with_capacity(children.len());
    for child in children {
        match (normalize(child)?, conjunction) {
            (Predicate::And(nested), true) | (Predicate::Or(nested), false) => flat.extend(nested),
            (other, _) => flat.push(other),
        }
    }
    // Sort by canonical encoding and dedupe: `a AND b` ≡ `b AND a AND a`.
    let mut keyed: Vec<(String, Predicate)> = flat.into_iter().map(|p| (encode(&p), p)).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    let mut flat: Vec<Predicate> = keyed.into_iter().map(|(_, p)| p).collect();
    Ok(if flat.len() == 1 {
        flat.pop().expect("one child")
    } else if conjunction {
        Predicate::And(flat)
    } else {
        Predicate::Or(flat)
    })
}

/// Unambiguous canonical encoding of a normalized predicate (length-prefixed
/// payloads, so values containing delimiters cannot collide structurally).
fn encode(pred: &Predicate) -> String {
    match pred {
        Predicate::TemplateMatches(p) => format!("re:{}:{p}", p.len()),
        Predicate::VariableEquals(v) => format!("veq:{}:{v}", v.len()),
        Predicate::VariableContains(v) => format!("vin:{}:{v}", v.len()),
        Predicate::TimeWindow { start, end } => format!("win:{start}:{end}"),
        Predicate::And(children) => {
            let inner: Vec<String> = children.iter().map(encode).collect();
            format!("and({})", inner.join(","))
        }
        Predicate::Or(children) => {
            let inner: Vec<String> = children.iter().map(encode).collect();
            format!("or({})", inner.join(","))
        }
        Predicate::Not(child) => format!("not({})", encode(child)),
    }
}

fn fingerprint_of(threshold: f64, output: PlanOutput, predicate: Option<&Predicate>) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET, b"plan-v1|t:");
    hash = fnv1a(hash, &threshold.to_bits().to_le_bytes());
    let output_tag = match output {
        PlanOutput::Groups { limit } => format!("|g:{limit}"),
        PlanOutput::Distribution => "|d".to_string(),
        PlanOutput::Count => "|c".to_string(),
    };
    hash = fnv1a(hash, output_tag.as_bytes());
    hash = fnv1a(hash, b"|p:");
    if let Some(pred) = predicate {
        hash = fnv1a(hash, encode(pred).as_bytes());
    }
    hash
}

/// One record as the predicate evaluator sees it: borrowed throughout, so the planned
/// executor fills one per candidate from the record store's columns without allocating
/// (the variables are slices of the store's text arena), and the scan oracle from what
/// it re-derives.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// Resolved presentation template text (coarsened to the plan threshold).
    pub template: &'a str,
    /// Record sequence number.
    pub seq: u64,
    /// Variable tokens at the wildcard positions of the assigned template.
    pub variables: &'a [&'a str],
}

/// A normalized predicate with its regex literals compiled, ready for
/// repeated evaluation. Both the planned executor and the scan oracle
/// evaluate predicates through this type, so the *semantics* are defined
/// once; what the differential suite exercises is everything around it
/// (postings, pruning, resolution, aggregation).
#[derive(Debug)]
pub struct CompiledPredicate<'p> {
    pred: &'p Predicate,
    regexes: HashMap<&'p str, Regex>,
}

impl<'p> CompiledPredicate<'p> {
    /// Compile all `TemplateMatches` patterns of a *normalized* predicate.
    /// Patterns were validated at plan time, so compilation cannot fail.
    pub fn compile(pred: &'p Predicate) -> Self {
        let mut regexes = HashMap::new();
        collect_regexes(pred, &mut regexes);
        CompiledPredicate { pred, regexes }
    }

    /// Evaluate against one record view.
    pub fn matches(&self, view: &RecordView<'_>) -> bool {
        self.eval(self.pred, view)
    }

    /// Evaluate a node-only predicate against a presentation template text.
    /// Callers must have checked [`Predicate::is_node_only`]; variable and
    /// window leaves evaluate as non-matching here.
    pub fn matches_template(&self, template: &str) -> bool {
        self.matches(&RecordView {
            template,
            seq: 0,
            variables: &[],
        })
    }

    fn eval(&self, pred: &Predicate, view: &RecordView<'_>) -> bool {
        match pred {
            Predicate::TemplateMatches(pattern) => {
                self.regexes[pattern.as_str()].is_match(view.template)
            }
            Predicate::VariableEquals(value) => view.variables.iter().any(|v| v == value),
            Predicate::VariableContains(value) => {
                view.variables.iter().any(|v| v.contains(value.as_str()))
            }
            Predicate::TimeWindow { start, end } => view.seq >= *start && view.seq < *end,
            Predicate::And(children) => children.iter().all(|c| self.eval(c, view)),
            Predicate::Or(children) => children.iter().any(|c| self.eval(c, view)),
            Predicate::Not(child) => !self.eval(child, view),
        }
    }
}

fn collect_regexes<'p>(pred: &'p Predicate, out: &mut HashMap<&'p str, Regex>) {
    match pred {
        Predicate::TemplateMatches(pattern) => {
            out.entry(pattern.as_str())
                .or_insert_with(|| Regex::new(pattern).expect("plan-time validated pattern"));
        }
        Predicate::VariableEquals(_)
        | Predicate::VariableContains(_)
        | Predicate::TimeWindow { .. } => {}
        Predicate::And(children) | Predicate::Or(children) => {
            for child in children {
                collect_regexes(child, out);
            }
        }
        Predicate::Not(child) => collect_regexes(child, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ast::{Predicate as P, Query};

    #[test]
    fn commutative_predicates_share_a_fingerprint() {
        let a = Query::group_by()
            .filter(P::variable_equals("x").and(P::template_matches("ab|cd")))
            .plan()
            .unwrap();
        let b = Query::group_by()
            .filter(P::template_matches("(ab)|(cd)").and(P::variable_equals("x")))
            .plan()
            .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn semantic_differences_change_the_fingerprint() {
        let base = Query::distribution().plan().unwrap();
        let threshold = Query::distribution().at_threshold(0.5).plan().unwrap();
        let output = Query::group_by().plan().unwrap();
        let filtered = Query::distribution()
            .filter(P::variable_equals("x"))
            .plan()
            .unwrap();
        let other_value = Query::distribution()
            .filter(P::variable_equals("y"))
            .plan()
            .unwrap();
        let prints = [
            base.fingerprint(),
            threshold.fingerprint(),
            output.fingerprint(),
            filtered.fingerprint(),
            other_value.fingerprint(),
        ];
        for (i, a) in prints.iter().enumerate() {
            for b in prints.iter().skip(i + 1) {
                assert_ne!(a, b, "distinct plans must hash apart");
            }
        }
    }

    #[test]
    fn normalization_flattens_dedupes_and_unwraps() {
        let plan = Query::group_by()
            .filter(
                P::variable_equals("a")
                    .and(P::variable_equals("a"))
                    .and(P::time_window(5, 9).not().not()),
            )
            .plan()
            .unwrap();
        match plan.predicate().unwrap() {
            Predicate::And(children) => {
                assert_eq!(children.len(), 2, "dedupe + double-not removal");
                assert!(children.contains(&P::variable_equals("a")));
                assert!(children.contains(&P::time_window(5, 9)));
            }
            other => panic!("expected flattened And, got {other:?}"),
        }
        // Singleton combinators collapse to their child.
        let single = Query::group_by()
            .filter(P::And(vec![P::variable_equals("z")]))
            .plan()
            .unwrap();
        assert_eq!(single.predicate(), Some(&P::variable_equals("z")));
    }

    #[test]
    fn invalid_patterns_fail_at_plan_time() {
        let err = Query::group_by()
            .filter(P::template_matches("(unclosed"))
            .plan()
            .unwrap_err();
        assert!(matches!(err, PlanError::InvalidPattern(_, _)));
        assert!(Query::group_by().filter(P::And(vec![])).plan().is_err());
    }

    #[test]
    fn push_down_extraction_reads_only_required_conjuncts() {
        let plan = Query::group_by()
            .filter(
                P::variable_equals("x")
                    .and(P::time_window(10, 100))
                    .and(P::time_window(50, 200))
                    .and(P::variable_equals("y").or(P::variable_equals("z"))),
            )
            .plan()
            .unwrap();
        assert_eq!(plan.required_variable_equals(), vec!["x"]);
        assert_eq!(plan.required_window(), Some((50, 100)));
        // An Or at the top level is not a required conjunct.
        let disjunct = Query::group_by()
            .filter(P::variable_equals("x").or(P::time_window(0, 1)))
            .plan()
            .unwrap();
        assert!(disjunct.required_variable_equals().is_empty());
        assert_eq!(disjunct.required_window(), None);
    }

    #[test]
    fn threshold_is_clamped_at_plan_time() {
        let plan = Query::group_by().at_threshold(7.0).plan().unwrap();
        assert_eq!(plan.threshold(), 1.0);
        let negative = Query::group_by().at_threshold(-5.0).plan().unwrap();
        assert_eq!(negative.threshold(), 0.0);
        let nan = Query::group_by().at_threshold(f64::NAN).plan().unwrap();
        assert_eq!(nan.threshold(), crate::query::DEFAULT_THRESHOLD);
    }

    /// Every surface plans through here, so off-grid thresholds land on the
    /// grid stop they round to — in the value *and* in the fingerprint the
    /// query cache keys on.
    #[test]
    fn threshold_is_snapped_to_the_slider_grid_at_plan_time() {
        let on_grid = Query::group_by().at_threshold(0.9).plan().unwrap();
        for off_grid in [0.8996, 0.8995, 0.9001] {
            let plan = Query::group_by().at_threshold(off_grid).plan().unwrap();
            assert_eq!(plan.threshold(), 0.9);
            assert_eq!(plan.fingerprint(), on_grid.fingerprint());
            assert_eq!(plan, on_grid);
        }
        let below = Query::group_by().at_threshold(0.89949).plan().unwrap();
        assert_eq!(below.threshold(), 0.899);
        assert_ne!(below.fingerprint(), on_grid.fingerprint());
    }

    #[test]
    fn compiled_predicate_evaluates_all_leaves() {
        let plan = Query::group_by()
            .filter(
                P::template_matches("tensor block")
                    .and(P::variable_equals("7").or(P::variable_contains("ms")))
                    .and(P::time_window(100, 200).not()),
            )
            .plan()
            .unwrap();
        let compiled = CompiledPredicate::compile(plan.predicate().unwrap());
        let vars = ["7", "12ms"];
        let hit = RecordView {
            template: "gpu worker <*> evicted tensor block <*>",
            seq: 50,
            variables: &vars,
        };
        assert!(compiled.matches(&hit));
        let in_window = RecordView { seq: 150, ..hit };
        assert!(!compiled.matches(&in_window), "negated window excludes");
        let wrong_template = RecordView {
            template: "Accepted password for <*>",
            ..hit
        };
        assert!(!compiled.matches(&wrong_template));
        let wrong_vars = RecordView {
            variables: &[],
            ..hit
        };
        assert!(!compiled.matches(&wrong_vars));
    }
}
