//! The query subsystem (§3 "Query", §6): one planned `execute` path.
//!
//! Every caller — the HTTP front end (through
//! [`ServiceManager::execute`](crate::manager::ServiceManager::execute)), the
//! examples and the §6 helpers' callers, which feed [`crate::anomaly::detect`] and
//! [`crate::compare::compare_windows`] two distribution results — builds a
//! [`bytebrain::Query`] AST, plans it ([`QueryPlan`]) and hands the plan to
//! [`LogTopic::execute`]. One executor serves; a second is kept only as the
//! reference the differential suite holds it byte-identical to:
//!
//! * the **planned path** (`run_plan`, the serving path): template
//!   predicates are decided once per resolved node against the live node set,
//!   threshold resolution goes through [`SaturationLadder::resolve_batch`],
//!   and grouping streams over per-node postings (`QueryIndex`) so a
//!   predicate-free query touches one posting list per *template* instead of
//!   one entry per *record*. Record-level predicates (variable filters, time
//!   windows) consult per-segment column summaries first
//!   ([`crate::storage::SegmentSummary`]): segments whose summaries rule out
//!   a required conjunct are skipped wholesale before any record is touched.
//!   Results are memoized in an LRU `QueryCache` keyed by the canonical
//!   plan fingerprint plus `(model version, topic generation, record count)`;
//! * the **scan oracle** ([`LogTopic::execute_scan`]): the naive
//!   per-record ancestor walk with per-record predicate evaluation, retained
//!   purely as the differential reference.
//!
//! Both paths resolve templates through the same core semantics: retired
//! nodes are skipped to the nearest live ancestor, the full chain is scanned
//! for the coarsest qualifying ancestor, and the threshold is the plan's —
//! clamped and snapped to the slider's 1/1000 grid once, at plan time. When
//! presentation merging (§7) combines several nodes under one
//! merged-wildcard text, the reported representative node is deterministic —
//! the member with the largest record count, ties broken by the smallest
//! [`NodeId`] — and the reported saturation is the minimum across the merged
//! nodes (the honest precision of the combined group).

use crate::records::RecordStore;
use crate::topic::{variables_of, LogTopic};
use bytebrain::query::plan::{CompiledPredicate, PlanOutput, QueryPlan, RecordView};
use bytebrain::query::{presentation_template, resolve_with_threshold, SaturationLadder};
use bytebrain::{NodeId, ParserModel};
use logtok::Preprocessor;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::sync::Mutex;

/// One group of query results: a template and the records it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateGroup {
    /// Resolved template node. When presentation merging combined several nodes, this
    /// is the member covering the most records (ties broken by smallest node id).
    pub node: NodeId,
    /// Presentation template text (consecutive wildcards merged, §7).
    pub template: String,
    /// Saturation of the group: the minimum across all merged member nodes.
    pub saturation: f64,
    /// Indices (into the topic's record store) of the member records, ascending.
    pub record_indices: Vec<usize>,
}

impl TemplateGroup {
    /// Number of member records.
    pub fn count(&self) -> usize {
        self.record_indices.len()
    }
}

/// The result of executing a [`QueryPlan`]: one variant per
/// [`PlanOutput`] shape. Aggregate results are shared via `Arc`, so cloning
/// a value (and every cache hit) is a reference-count bump, never a copy of
/// the member index lists.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// Template groups, largest first.
    Groups(Arc<Vec<TemplateGroup>>),
    /// `(template, count)` pairs, sorted by count descending then template
    /// ascending — deterministic, unlike the `HashMap` this API used to
    /// return.
    Distribution(Arc<Vec<(String, u64)>>),
    /// Number of distinct presentation templates with matching records.
    Count(u64),
}

impl QueryValue {
    /// The group list, if this is a groups result.
    pub fn groups(&self) -> Option<&Arc<Vec<TemplateGroup>>> {
        match self {
            QueryValue::Groups(groups) => Some(groups),
            _ => None,
        }
    }

    /// The distribution pairs, if this is a distribution result.
    pub fn distribution(&self) -> Option<&Arc<Vec<(String, u64)>>> {
        match self {
            QueryValue::Distribution(counts) => Some(counts),
            _ => None,
        }
    }

    /// The distinct-template count, if this is a count result.
    pub fn count(&self) -> Option<u64> {
        match self {
            QueryValue::Count(count) => Some(*count),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Postings
// ---------------------------------------------------------------------------

/// Per-node postings: for every template node, the indices of the stored records whose
/// most-precise match is that node. Maintained by [`LogTopic`] at ingest/stream-flush
/// time (and patched when maintenance re-matches records), so queries aggregate counts
/// up the saturation ladder instead of scanning the record store.
#[derive(Debug, Default)]
pub(crate) struct QueryIndex {
    /// `postings[node]` = ascending record indices assigned to that node.
    postings: Vec<Vec<u32>>,
}

impl QueryIndex {
    /// Grow the per-node posting table to cover `model_len` nodes.
    fn ensure_nodes(&mut self, model_len: usize) {
        if self.postings.len() < model_len {
            self.postings.resize_with(model_len, Vec::new);
        }
    }

    /// Record that stored record `idx` is assigned to `node`. Indices must be fed in
    /// ascending order per node (the natural ingest order), keeping postings sorted.
    pub(crate) fn assign(&mut self, node: NodeId, idx: usize) {
        self.ensure_nodes(node.0 + 1);
        debug_assert!(
            idx < u32::MAX as usize,
            "record index exceeds posting width"
        );
        self.postings[node.0].push(idx as u32);
    }

    /// Move previously assigned records to new nodes after a maintenance re-match:
    /// `moves` holds `(record index, old node, new assignment)` triples.
    pub(crate) fn reassign(&mut self, moves: &[(usize, Option<NodeId>, Option<NodeId>)]) {
        // Batch removals per old node so each posting list is filtered once, with a
        // set membership test — a retired temporary can carry thousands of records,
        // and a linear `contains` per posting entry would go quadratic.
        let mut removed: HashMap<usize, std::collections::HashSet<u32>> = HashMap::new();
        for &(idx, old, _) in moves {
            if let Some(old) = old {
                removed.entry(old.0).or_default().insert(idx as u32);
            }
        }
        for (node, gone) in removed {
            self.postings[node].retain(|i| !gone.contains(i));
        }
        let mut added: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for &(idx, _, new) in moves {
            if let Some(new) = new {
                added.entry(new.0).or_default().push(idx as u32);
            }
        }
        for (node, incoming) in added {
            self.ensure_nodes(node + 1);
            let posting = &mut self.postings[node];
            posting.extend(incoming);
            posting.sort_unstable();
        }
    }

    /// Rebuild the whole index from the record store (used after retention drained a
    /// prefix of it, which shifts every record index).
    pub(crate) fn rebuild(records: &RecordStore) -> Self {
        let mut index = QueryIndex::default();
        for (idx, stored) in records.iter().enumerate() {
            if let Some(node) = stored.template {
                index.assign(node, idx);
            }
        }
        index
    }

    /// The posting list of one node (ascending record indices).
    pub(crate) fn postings_of(&self, node: NodeId) -> &[u32] {
        self.postings
            .get(node.0)
            .map(|p| p.as_slice())
            .unwrap_or(&[])
    }

    /// Iterate `(node, posting list)` for nodes with at least one record.
    fn non_empty(&self) -> impl Iterator<Item = (NodeId, &[u32])> {
        self.postings
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(id, p)| (NodeId(id), p.as_slice()))
    }
}

// ---------------------------------------------------------------------------
// Record access (planned path only)
// ---------------------------------------------------------------------------

/// Everything the planned executor needs to evaluate record-level predicates:
/// the record store (whose slot column holds every record's variables), the
/// preprocessor (the slot column's debug-build oracle), the sequence number of the
/// first stored record, and the push-down result — index ranges that storage
/// summaries proved cannot match, skipped before any record is touched.
pub(crate) struct RecordAccess<'a> {
    pub(crate) records: &'a RecordStore,
    pub(crate) preprocessor: &'a Preprocessor,
    /// Sequence number of `records[0]` (`first_live_seq` for durable topics).
    pub(crate) first_seq: u64,
    /// Sorted, disjoint, half-open record-index ranges proven non-matching by
    /// segment summaries.
    pub(crate) skip: Vec<(usize, usize)>,
}

impl RecordAccess<'_> {
    fn skipped(&self, idx: usize) -> bool {
        let pos = self.skip.partition_point(|&(start, _)| start <= idx);
        pos > 0 && self.skip[pos - 1].1 > idx
    }
}

// ---------------------------------------------------------------------------
// Group assembly (shared by the planned and scan paths)
// ---------------------------------------------------------------------------

/// Accumulator for one presentation-text group while aggregating member nodes.
#[derive(Debug, Default)]
struct GroupAccumulator {
    /// Record count per resolved member node (BTreeMap: deterministic iteration for
    /// the representative rule).
    members: BTreeMap<NodeId, usize>,
    /// All member record indices (sorted ascending before output). Only
    /// populated for group outputs — distribution and count queries stay
    /// counts-only.
    record_indices: Vec<usize>,
}

/// Assemble final groups from per-text accumulators: deterministic representative
/// (largest member count, ties → smallest node id), minimum saturation across merged
/// nodes, ascending record indices, groups sorted largest-first.
fn finish_groups(
    model: &ParserModel,
    groups: HashMap<String, GroupAccumulator>,
    limit: usize,
) -> Vec<TemplateGroup> {
    let mut out: Vec<TemplateGroup> = groups
        .into_iter()
        .map(|(template, mut acc)| {
            let mut representative = None;
            let mut best_count = 0usize;
            let mut saturation = f64::INFINITY;
            for (&node, &count) in &acc.members {
                // Ascending NodeId iteration: strict `>` keeps the smallest id on ties.
                if count > best_count {
                    best_count = count;
                    representative = Some(node);
                }
                saturation = saturation.min(model.nodes[node.0].saturation);
            }
            acc.record_indices.sort_unstable();
            TemplateGroup {
                node: representative.expect("group has at least one member node"),
                template,
                saturation,
                record_indices: acc.record_indices,
            }
        })
        .collect();
    out.sort_by(|a, b| b.count().cmp(&a.count()).then(a.template.cmp(&b.template)));
    out.truncate(limit);
    out
}

/// Assemble the deterministic distribution: `(template, count)` pairs sorted
/// by count descending, ties by template ascending — the same order groups
/// use, so diffs and examples are stable run to run.
fn finish_distribution(groups: HashMap<String, GroupAccumulator>) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = groups
        .into_iter()
        .map(|(template, acc)| {
            let total: usize = acc.members.values().sum();
            (template, total as u64)
        })
        .collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    counts
}

fn finish(
    model: &ParserModel,
    groups: HashMap<String, GroupAccumulator>,
    plan: &QueryPlan,
) -> QueryValue {
    match plan.output() {
        PlanOutput::Groups { limit } => {
            QueryValue::Groups(Arc::new(finish_groups(model, groups, limit)))
        }
        PlanOutput::Distribution => QueryValue::Distribution(Arc::new(finish_distribution(groups))),
        PlanOutput::Count => QueryValue::Count(groups.len() as u64),
    }
}

// ---------------------------------------------------------------------------
// The planned executor and the scan oracle
// ---------------------------------------------------------------------------

/// The planned execution path. Node-only work (threshold resolution via
/// [`SaturationLadder::resolve_batch`], template predicates, presentation
/// texts) happens once per posting node; record-level predicates run only
/// over posting entries that survived segment pruning (`access.skip`), on the
/// record store's columns: a candidate's variables are slices of the text arena,
/// gathered into one reused buffer, so evaluating it allocates nothing.
fn run_plan(
    model: &ParserModel,
    ladder: &SaturationLadder,
    index: &QueryIndex,
    access: &RecordAccess<'_>,
    plan: &QueryPlan,
) -> QueryValue {
    let nodes: Vec<NodeId> = index.non_empty().map(|(node, _)| node).collect();
    let resolved = ladder.resolve_batch(&nodes, plan.threshold());
    let compiled = plan.predicate().map(CompiledPredicate::compile);
    let node_only = plan.is_node_only();
    // A node-only predicate is judged on the template text, any other per record.
    let judge = compiled.as_ref().filter(|_| node_only);
    let per_record = compiled.as_ref().filter(|_| !node_only);
    let want_indices = matches!(plan.output(), PlanOutput::Groups { .. });
    // Grouping is by presentation text, but the text is rendered — and a template
    // predicate judged: `None` is a rejection — once per resolved node. Postings
    // accumulate under the node; nodes presenting one text merge into one group below.
    let mut by_node: HashMap<NodeId, Option<(String, GroupAccumulator)>> = HashMap::new();
    let mut variables: Vec<&str> = Vec::new();
    for ((_, posting), &res) in index.non_empty().zip(resolved.iter()) {
        let entry = by_node.entry(res).or_insert_with(|| {
            let text = presentation_template(model, res);
            let rejected = judge.is_some_and(|compiled| !compiled.matches_template(&text));
            (!rejected).then(|| (text, GroupAccumulator::default()))
        });
        let Some((text, acc)) = entry else {
            continue;
        };
        let count = acc.members.entry(res).or_insert(0);
        let Some(compiled) = per_record else {
            *count += posting.len();
            if want_indices {
                acc.record_indices
                    .extend(posting.iter().map(|&i| i as usize));
            }
            continue;
        };
        for &i in posting {
            let idx = i as usize;
            if access.skipped(idx) {
                continue;
            }
            variables.clear();
            variables.extend(access.records.variables(idx));
            debug_assert_eq!(
                variables,
                variables_of(
                    model,
                    access.preprocessor,
                    access.records.text(idx),
                    access.records.template(idx)
                ),
                "the slot column diverged from variables_of on record {idx} {:?}",
                access.records.text(idx)
            );
            let view = RecordView {
                template: text,
                seq: access.first_seq + idx as u64,
                variables: &variables,
            };
            if compiled.matches(&view) {
                *count += 1;
                if want_indices {
                    acc.record_indices.push(idx);
                }
            }
        }
    }
    let mut groups: HashMap<String, GroupAccumulator> = HashMap::new();
    for (res, (text, acc)) in by_node.into_iter().filter_map(|(res, e)| Some((res, e?))) {
        if acc.members[&res] > 0 {
            let group = groups.entry(text).or_default();
            group.members.extend(acc.members);
            group.record_indices.extend(acc.record_indices);
        }
    }
    finish(model, groups, plan)
}

/// The retained scan oracle: resolve every stored record through the
/// pointer-walk path, re-derive its variables from the text ([`variables_of`],
/// not the slot column), and evaluate the full predicate per record — no
/// postings, no ladder, no pruning. Differential-identical to [`run_plan`] by
/// test. `preprocessor` is only needed when the plan carries a predicate.
fn scan_plan(
    model: &ParserModel,
    preprocessor: Option<&Preprocessor>,
    records: &RecordStore,
    first_seq: u64,
    plan: &QueryPlan,
) -> QueryValue {
    let compiled = plan.predicate().map(CompiledPredicate::compile);
    let want_indices = matches!(plan.output(), PlanOutput::Groups { .. });
    let mut groups: HashMap<String, GroupAccumulator> = HashMap::new();
    for (idx, stored) in records.iter().enumerate() {
        let Some(node) = stored.template else {
            continue;
        };
        let resolved = resolve_with_threshold(model, node, plan.threshold());
        let text = presentation_template(model, resolved);
        if let Some(compiled) = &compiled {
            let preprocessor =
                preprocessor.expect("scanning with a predicate requires the preprocessor");
            let vars = variables_of(model, preprocessor, stored.record, stored.template);
            let vars: Vec<&str> = vars.iter().map(String::as_str).collect();
            let view = RecordView {
                template: &text,
                seq: first_seq + idx as u64,
                variables: &vars,
            };
            if !compiled.matches(&view) {
                continue;
            }
        }
        let acc = groups.entry(text).or_default();
        *acc.members.entry(resolved).or_insert(0) += 1;
        if want_indices {
            acc.record_indices.push(idx);
        }
    }
    finish(model, groups, plan)
}

// ---------------------------------------------------------------------------
// Query cache
// ---------------------------------------------------------------------------

/// Cache key: model version + topic generation + record count pin the topic state;
/// the canonical plan fingerprint ([`QueryPlan::fingerprint`]) pins *what* was asked —
/// threshold, output shape, and the normalized predicate. Two different ASTs can
/// never collide on a key (the old `(threshold, limit)` key could not tell a
/// filtered query from an unfiltered one).
///
/// The **generation** (bumped on recovery and TTL retention) exists
/// because `(version, record count)` stops being sound once state persists: retention
/// can evict old records and later ingest can bring the count back to a previously
/// cached value with the model version unchanged — a different record *set* under an
/// identical key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheKey {
    version: u64,
    generation: u64,
    records: usize,
    plan: u64,
}

impl CacheKey {
    fn new(version: u64, generation: u64, records: usize, plan: &QueryPlan) -> Self {
        CacheKey {
            version,
            generation,
            records,
            plan: plan.fingerprint(),
        }
    }
}

/// A small LRU cache of query results, safe to use through `&self` (interior mutex) so
/// concurrent readers of a topic can share it. Invalidated wholesale when maintenance
/// replaces the model; when the version or record count moves, the next result cached
/// drops every entry of the earlier state.
#[derive(Debug, Default)]
pub(crate) struct QueryCache {
    inner: Mutex<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Most recently used first. Results are shared via `Arc` inside
    /// [`QueryValue`], so a cache hit is a reference-count bump — never a
    /// copy of the (potentially record-count-sized) member index lists.
    entries: Vec<(CacheKey, QueryValue)>,
    hits: u64,
    misses: u64,
}

/// Maximum number of cached query results per topic (one per slider stop, roughly).
const QUERY_CACHE_CAPACITY: usize = 16;

impl QueryCache {
    fn get(&self, key: CacheKey) -> Option<QueryValue> {
        let mut inner = self.inner.lock().expect("query cache poisoned");
        if let Some(pos) = inner.entries.iter().position(|(k, _)| *k == key) {
            let entry = inner.entries.remove(pos);
            let result = entry.1.clone();
            inner.entries.insert(0, entry);
            inner.hits += 1;
            Some(result)
        } else {
            inner.misses += 1;
            None
        }
    }

    /// Remember `value` under `key`. Every key a topic computes names its current
    /// state, which only moves forward, so an entry cached under another state can
    /// never hit again: it is dropped here rather than left to age out of the LRU
    /// holding its (record-count-sized) result.
    fn put(&self, key: CacheKey, value: QueryValue) {
        let mut inner = self.inner.lock().expect("query cache poisoned");
        let same_state = |k: &CacheKey| {
            (k.version, k.generation, k.records) == (key.version, key.generation, key.records)
        };
        inner.entries.retain(|(k, _)| same_state(k) && *k != key);
        inner.entries.insert(0, (key, value));
        inner.entries.truncate(QUERY_CACHE_CAPACITY);
    }

    /// Drop every cached result (called when maintenance replaces the model).
    pub(crate) fn clear(&self) {
        self.inner
            .lock()
            .expect("query cache poisoned")
            .entries
            .clear();
    }

    /// `(hits, misses)` counters since topic creation.
    pub(crate) fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("query cache poisoned");
        (inner.hits, inner.misses)
    }
}

// ---------------------------------------------------------------------------
// Topic-facing plumbing (kept here so the whole query subsystem lives in one module)
// ---------------------------------------------------------------------------

impl LogTopic {
    /// **The** query entry point: execute a normalized [`QueryPlan`] through
    /// the planned push-down path with the LRU cache in front.
    ///
    /// The cache key is `(model version, topic generation, record count,
    /// canonical plan fingerprint)`; a warm hit is a reference-count bump on
    /// the shared [`QueryValue`], never a copy.
    pub fn execute(&self, plan: &QueryPlan) -> QueryValue {
        let key = CacheKey::new(
            self.model_version(),
            self.generation(),
            self.records().len(),
            plan,
        );
        if let Some(cached) = self.query_cache().get(key) {
            return cached;
        }
        let value = run_plan(
            self.model(),
            self.ladder(),
            self.query_index(),
            &self.record_access(plan),
            plan,
        );
        self.query_cache().put(key, value.clone());
        value
    }

    /// Execute a plan through the naive scan oracle: per-record ancestor
    /// walks, per-record predicate evaluation, no postings, no pruning and no
    /// cache. Byte-identical to [`LogTopic::execute`] (the differential suite
    /// enforces it) but O(records) per query: the reference tests compare
    /// against, never a serving path.
    pub fn execute_scan(&self, plan: &QueryPlan) -> QueryValue {
        scan_plan(
            self.model(),
            Some(self.preprocessor()),
            self.records(),
            self.first_record_seq(),
            plan,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::{LogTopic, TopicConfig};
    use bytebrain::{Predicate, Query, SlotBuffer, SlotRange, TemplateToken, TreeNode};

    fn group_plan(threshold: f64) -> QueryPlan {
        Query::group_by().at_threshold(threshold).plan().unwrap()
    }

    fn distribution_plan(threshold: f64) -> QueryPlan {
        Query::distribution()
            .at_threshold(threshold)
            .plan()
            .unwrap()
    }

    /// Planned groups at `threshold`.
    fn groups_at(topic: &LogTopic, threshold: f64) -> Arc<Vec<TemplateGroup>> {
        let value = topic.execute(&group_plan(threshold));
        Arc::clone(value.groups().expect("groups plan yields groups"))
    }

    /// Cached planned distribution at `threshold`.
    fn distribution_at(topic: &LogTopic, threshold: f64) -> Arc<Vec<(String, u64)>> {
        let value = topic.execute(&distribution_plan(threshold));
        Arc::clone(value.distribution().expect("distribution plan"))
    }

    fn topic_with_data() -> LogTopic {
        let mut topic = LogTopic::new(TopicConfig::new("query-test"));
        let mut batch = Vec::new();
        for i in 0..120 {
            batch.push(format!("user u{} logged in from 10.0.0.{}", i % 10, i % 20));
            batch.push(format!(
                "user u{} logged out after {} minutes",
                i % 10,
                i % 50
            ));
            if i % 4 == 0 {
                batch.push(format!(
                    "payment of {} EUR processed for order {}",
                    i,
                    1000 + i
                ));
            }
        }
        topic.ingest(&batch);
        topic
    }

    #[test]
    fn grouping_covers_all_assigned_records() {
        let topic = topic_with_data();
        let groups = groups_at(&topic, bytebrain::DEFAULT_THRESHOLD);
        let covered: usize = groups.iter().map(|g| g.count()).sum();
        assert_eq!(covered, topic.records().len());
        assert!(!groups.is_empty());
    }

    #[test]
    fn groups_are_sorted_by_size() {
        let topic = topic_with_data();
        let groups = groups_at(&topic, bytebrain::DEFAULT_THRESHOLD);
        for pair in groups.windows(2) {
            assert!(pair[0].count() >= pair[1].count());
        }
    }

    #[test]
    fn lower_threshold_gives_coarser_grouping() {
        let topic = topic_with_data();
        let fine = groups_at(&topic, 0.95);
        let coarse = groups_at(&topic, 0.05);
        assert!(coarse.len() <= fine.len());
    }

    #[test]
    fn limit_truncates_output() {
        let topic = topic_with_data();
        let plan = Query::top_k(2).at_threshold(0.9).plan().unwrap();
        let value = topic.execute(&plan);
        assert!(value.groups().unwrap().len() <= 2);
    }

    #[test]
    fn distribution_counts_match_groups() {
        let topic = topic_with_data();
        let distribution = distribution_at(&topic, 0.9);
        let total: u64 = distribution.iter().map(|(_, count)| count).sum();
        assert_eq!(total, topic.records().len() as u64);
    }

    /// Satellite regression: the distribution is a deterministic sorted Vec on
    /// both paths — count descending, ties broken by template ascending —
    /// instead of a HashMap whose iteration order leaked into examples.
    #[test]
    fn distribution_is_deterministically_sorted_on_both_paths() {
        let topic = topic_with_data();
        for threshold in [0.0, 0.5, 0.9, 1.0] {
            let planned = distribution_at(&topic, threshold);
            for pair in planned.windows(2) {
                assert!(
                    pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                    "distribution must sort by count desc then template asc: {pair:?}"
                );
            }
            let plan = distribution_plan(threshold);
            assert_eq!(
                QueryValue::Distribution(planned),
                topic.execute_scan(&plan),
                "planned and scan distributions diverged at threshold {threshold}"
            );
        }
    }

    #[test]
    fn templates_contain_wildcards_for_variables() {
        let topic = topic_with_data();
        let groups = groups_at(&topic, bytebrain::DEFAULT_THRESHOLD);
        let login_group = groups
            .iter()
            .find(|g| g.template.contains("logged in"))
            .expect("login template exists");
        assert!(login_group.template.contains('*'));
    }

    // -- planned vs scan ------------------------------------------------------

    #[test]
    fn indexed_path_is_byte_identical_to_scan_path() {
        let topic = topic_with_data();
        for threshold in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1.0, f64::NAN, -1.0, 2.0] {
            let plan = group_plan(threshold);
            assert_eq!(
                topic.execute(&plan),
                topic.execute_scan(&plan),
                "indexed and scan paths diverged at threshold {threshold}"
            );
        }
    }

    /// Every operator on an in-memory topic: planned ≡ scan oracle. (The
    /// heavyweight version — durable topics, deltas, recovery — lives in
    /// `tests/differential.rs`.)
    #[test]
    fn planned_operators_match_scan_oracle_in_memory() {
        let topic = topic_with_data();
        let total = topic.records().len() as u64;
        let queries = vec![
            Query::group_by().filter(Predicate::template_matches("logged (in|out)")),
            Query::top_k(2).filter(Predicate::template_matches("user")),
            Query::distribution().filter(Predicate::variable_equals("u3")),
            Query::count_distinct(),
            Query::group_by().filter(Predicate::variable_contains("0.0.")),
            Query::distribution().filter(Predicate::time_window(10, total / 2)),
            Query::group_by().filter(
                Predicate::template_matches("payment")
                    .or(Predicate::variable_equals("u1").and(Predicate::time_window(0, 200))),
            ),
            Query::group_by().filter(Predicate::variable_equals("u1").not()),
        ];
        for (i, query) in queries.into_iter().enumerate() {
            for threshold in [0.3, 0.9] {
                let plan = query.clone().at_threshold(threshold).plan().unwrap();
                assert_eq!(
                    topic.execute(&plan),
                    topic.execute_scan(&plan),
                    "planned and scan paths diverged on query {i} at threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn count_distinct_matches_distribution_length() {
        let topic = topic_with_data();
        let plan = Query::count_distinct().at_threshold(0.9).plan().unwrap();
        let count = topic.execute(&plan).count().unwrap();
        assert_eq!(count, distribution_at(&topic, 0.9).len() as u64);
        assert!(count > 0);
    }

    #[test]
    fn query_cache_hits_on_repeat_and_misses_after_ingest() {
        let mut topic = topic_with_data();
        let plan = group_plan(bytebrain::DEFAULT_THRESHOLD);
        let first = topic.execute(&plan);
        let (hits_before, _) = topic.query_cache_stats();
        let second = topic.execute(&plan);
        let (hits_after, _) = topic.query_cache_stats();
        assert_eq!(first, second);
        assert!(
            Arc::ptr_eq(first.groups().unwrap(), second.groups().unwrap()),
            "a cache hit must share the stored result, not copy it"
        );
        assert_eq!(
            hits_after,
            hits_before + 1,
            "repeat query must hit the cache"
        );
        // New records change the key: the next query recomputes.
        topic.ingest(&["user u1 logged in from 10.0.0.9".to_string()]);
        let third = topic.execute(&plan);
        let (_, misses) = topic.query_cache_stats();
        assert!(misses >= 2);
        let covered: usize = third.groups().unwrap().iter().map(|g| g.count()).sum();
        assert_eq!(covered, topic.records().len());
    }

    /// Satellite regression: the cache key carries the canonical plan
    /// fingerprint, so two different ASTs over identical topic state can
    /// never collide — the old `(threshold, limit)` key could not tell a
    /// filtered query from an unfiltered one.
    #[test]
    fn query_cache_distinguishes_different_plans() {
        let topic = topic_with_data();
        let unfiltered = Query::distribution().at_threshold(0.9).plan().unwrap();
        let filtered = Query::distribution()
            .at_threshold(0.9)
            .filter(Predicate::variable_equals("u3"))
            .plan()
            .unwrap();
        let all = topic.execute(&unfiltered).distribution().unwrap().clone();
        let only_u3 = topic.execute(&filtered).distribution().unwrap().clone();
        assert_ne!(
            all, only_u3,
            "the filter must change the result (otherwise the test is vacuous)"
        );
        // Replaying both in reverse order must serve each from its own entry.
        let (hits_before, _) = topic.query_cache_stats();
        assert_eq!(*topic.execute(&filtered).distribution().unwrap(), only_u3);
        assert_eq!(*topic.execute(&unfiltered).distribution().unwrap(), all);
        let (hits_after, misses) = topic.query_cache_stats();
        assert_eq!(hits_after, hits_before + 2, "both replays must hit");
        assert_eq!(misses, 2, "exactly the two initial computations missed");
        // Commutation: the same predicate written in either order is the
        // same canonical plan, hence the same cache entry.
        let swapped = Query::distribution()
            .at_threshold(0.9)
            .filter(Predicate::variable_equals("u3").and(Predicate::time_window(0, u64::MAX)))
            .plan()
            .unwrap();
        let canonical = Query::distribution()
            .at_threshold(0.9)
            .filter(Predicate::time_window(0, u64::MAX).and(Predicate::variable_equals("u3")))
            .plan()
            .unwrap();
        assert_eq!(swapped.fingerprint(), canonical.fingerprint());
        topic.execute(&swapped);
        let (hits_mid, _) = topic.query_cache_stats();
        topic.execute(&canonical);
        let (hits_end, _) = topic.query_cache_stats();
        assert_eq!(
            hits_end,
            hits_mid + 1,
            "commuted plan must hit the same entry"
        );
    }

    /// A result cached under a newer topic state drops the entries of the older one,
    /// which no later key can name.
    #[test]
    fn query_cache_keeps_only_the_current_state() {
        let mut topic = topic_with_data();
        let cached = |topic: &LogTopic| topic.query_cache().inner.lock().unwrap().entries.len();
        for threshold in [0.3, 0.6, 0.9] {
            topic.execute(&distribution_plan(threshold));
        }
        assert_eq!(cached(&topic), 3);
        topic.ingest(&["user u1 logged in from 10.0.0.9".to_string()]);
        topic.execute(&distribution_plan(0.6));
        assert_eq!(cached(&topic), 1, "the earlier state's entries are gone");
    }

    /// Satellite regression: eviction. Cycling more distinct plans than the
    /// cache holds evicts the oldest; re-running it misses but still returns
    /// the correct (recomputed) result.
    #[test]
    fn query_cache_eviction_recomputes_correctly() {
        let topic = topic_with_data();
        let first_plan = Query::distribution().at_threshold(0.9).plan().unwrap();
        let first = topic.execute(&first_plan);
        // Fill the cache with > capacity distinct plans (different windows →
        // different fingerprints).
        for end in 0..(QUERY_CACHE_CAPACITY as u64 + 4) {
            let plan = Query::distribution()
                .at_threshold(0.9)
                .filter(Predicate::time_window(0, 1_000 + end))
                .plan()
                .unwrap();
            topic.execute(&plan);
        }
        let (_, misses_before) = topic.query_cache_stats();
        let again = topic.execute(&first_plan);
        let (_, misses_after) = topic.query_cache_stats();
        assert_eq!(
            misses_after,
            misses_before + 1,
            "the evicted plan must miss, not alias another entry"
        );
        assert_eq!(first, again, "recomputation after eviction must agree");
    }

    // -- merged-group determinism (satellite) --------------------------------

    /// A store of hand-assigned records (no slots: these plans carry no predicate) and
    /// its postings.
    fn store_of(records: &[(NodeId, &str)]) -> (RecordStore, QueryIndex) {
        let (mut store, mut index) = (RecordStore::new(), QueryIndex::default());
        for (idx, &(node, text)) in records.iter().enumerate() {
            store.push(text, Some(node), &SlotBuffer::new(), SlotRange::default());
            index.assign(node, idx);
        }
        (store, index)
    }

    /// Predicate-free groups of a hand-built model at `threshold`, through the
    /// planned executor and the scan oracle.
    fn both_paths(
        model: &ParserModel,
        ladder: &SaturationLadder,
        index: &QueryIndex,
        records: &RecordStore,
        threshold: f64,
    ) -> [Arc<Vec<TemplateGroup>>; 2] {
        let plan = group_plan(threshold);
        let access = RecordAccess {
            records,
            preprocessor: &Preprocessor::new(Default::default()),
            first_seq: 0,
            skip: Vec::new(),
        };
        [
            run_plan(model, ladder, index, &access, &plan),
            scan_plan(model, None, records, 0, &plan),
        ]
        .map(|value| Arc::clone(value.groups().expect("groups plan yields groups")))
    }

    /// Two fixed-length variants (`users * *` and `users * * *`) that merge into the
    /// presentation text `users *`: the representative node and the reported
    /// saturation must be deterministic regardless of record order.
    #[test]
    fn merged_groups_report_deterministic_representative_and_min_saturation() {
        let make = |sat: f64, text: &[&str]| TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template: text
                .iter()
                .map(|t| {
                    if *t == "*" {
                        TemplateToken::Wildcard
                    } else {
                        TemplateToken::Const(t.to_string())
                    }
                })
                .collect(),
            saturation: sat,
            depth: 0,
            log_count: 1,
            unique_count: 1,
            temporary: false,
            retired: false,
        };
        let mut model = ParserModel::new();
        let short = model.push_node(make(0.95, &["users", "*", "*"]));
        let long = model.push_node(make(0.85, &["users", "*", "*", "*"]));
        model.add_root(short);
        model.add_root(long);
        model.rebuild_match_order();
        let ladder = SaturationLadder::build(&model);

        let (records, index) = store_of(&[
            // The longer variant comes FIRST in record order but covers fewer records:
            // a first-record-wins implementation would report `long`.
            (long, "users a b c"),
            (short, "users a b"),
            (short, "users x y"),
            (long, "users d e f"),
            (short, "users p q"),
        ]);

        for groups in both_paths(&model, &ladder, &index, &records, 0.8) {
            assert_eq!(groups.len(), 1, "variants must merge into one group");
            let group = &groups[0];
            assert_eq!(group.template, "users *");
            assert_eq!(
                group.node, short,
                "representative must be the largest member (3 records), not the first seen"
            );
            assert_eq!(
                group.saturation, 0.85,
                "group saturation must be the minimum across merged nodes"
            );
            assert_eq!(group.record_indices, vec![0, 1, 2, 3, 4]);
        }
    }

    /// Equal member counts: the tie breaks to the smallest node id in both paths.
    #[test]
    fn merged_group_ties_break_by_node_id() {
        let make = |sat: f64, wildcards: usize| TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template: std::iter::once(TemplateToken::Const("evt".to_string()))
                .chain(std::iter::repeat_n(TemplateToken::Wildcard, wildcards))
                .collect(),
            saturation: sat,
            depth: 0,
            log_count: 1,
            unique_count: 1,
            temporary: false,
            retired: false,
        };
        let mut model = ParserModel::new();
        let a = model.push_node(make(0.9, 1));
        let b = model.push_node(make(0.9, 2));
        model.add_root(a);
        model.add_root(b);
        model.rebuild_match_order();
        let ladder = SaturationLadder::build(&model);
        let (records, index) = store_of(&[(b, "evt x y"), (a, "evt z")]);
        for groups in both_paths(&model, &ladder, &index, &records, 0.5) {
            assert_eq!(groups.len(), 1);
            assert_eq!(groups[0].node, a, "tie must break to the smallest node id");
        }
    }

    /// The canonical plan stores the quantized threshold, so the computed threshold
    /// must sit exactly on the 1/1000 slider grid: a query at 0.8995 and one at
    /// 0.9001 share a plan fingerprint *and* a computation (both snap to 0.900), and
    /// the scan path snaps identically — no cached result can ever be served for a
    /// threshold it was not computed at.
    #[test]
    fn cache_key_and_computation_agree_on_the_quantized_threshold() {
        assert_eq!(group_plan(0.8995).threshold(), 0.9);
        assert_eq!(group_plan(0.9001).threshold(), 0.9);
        assert_eq!(group_plan(0.89949).threshold(), 0.899);
        assert_eq!(
            group_plan(0.8995).fingerprint(),
            group_plan(0.9001).fingerprint(),
            "thresholds on the same grid stop must share a plan"
        );
        // A node whose saturation (0.8998) falls between two off-grid query
        // thresholds: both paths must treat both thresholds as the same grid stop.
        let make = |sat: f64, text: &[&str]| TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template: text
                .iter()
                .map(|t| TemplateToken::Const(t.to_string()))
                .collect(),
            saturation: sat,
            depth: 0,
            log_count: 1,
            unique_count: 1,
            temporary: false,
            retired: false,
        };
        let mut model = ParserModel::new();
        let root = model.push_node(make(0.5, &["evt"]));
        let leaf = model.push_node(make(0.8998, &["evt", "x"]));
        model.add_root(root);
        model.attach_child(root, leaf);
        model.rebuild_match_order();
        let ladder = SaturationLadder::build(&model);
        let (records, index) = store_of(&[(leaf, "evt x")]);
        for threshold in [0.8995, 0.9001] {
            let [indexed, scanned] = both_paths(&model, &ladder, &index, &records, threshold);
            assert_eq!(indexed, scanned);
            // 0.8998 < 0.900: the leaf does not qualify at the snapped threshold.
            assert_eq!(
                indexed[0].node, leaf,
                "nothing qualifies: most precise live"
            );
        }
    }

    // -- threshold validation (satellite) ------------------------------------

    #[test]
    fn nonsense_thresholds_are_sanitized() {
        let topic = topic_with_data();
        // NaN behaves exactly like the default threshold.
        assert_eq!(
            groups_at(&topic, f64::NAN),
            groups_at(&topic, bytebrain::DEFAULT_THRESHOLD)
        );
        // Out-of-range values clamp to the edges.
        assert_eq!(groups_at(&topic, -5.0), groups_at(&topic, 0.0));
        assert_eq!(groups_at(&topic, 42.0), groups_at(&topic, 1.0));
        assert_eq!(
            group_plan(f64::NAN).threshold(),
            bytebrain::DEFAULT_THRESHOLD
        );
    }
}
