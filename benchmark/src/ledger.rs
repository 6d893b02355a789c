//! The per-layer ledger of the traced run.
//!
//! Every number here is taken from the benchmark's side of the fence: a public
//! function of one layer is called on the workload's own generated inputs and
//! timed, outside-in along one record's journey — loopback → decode → admission →
//! `apply_batch` → `ingest_stream` / `topic.ingest` → storage → match → tokenize →
//! mask. A layer's *self* cost is its cumulative cost minus the layers under it.
//! A layer a workload bypasses reports 0: that is the "no change" prediction made
//! checkable. `host.kernel_ms` is not a layer: it says how fast the host was
//! (`hostspeed.rs`), for information.
//!
//! [`LAYER_METRICS`] is the authoritative list of names; `BENCHMARK.json` repeats it
//! and a test holds the two together.

use crate::child::server_config;
use crate::corpus::Corpus;
use crate::stats::{mean, median, tail};
use crate::trace::{SpanId, Tracer};
use crate::workloads::http::{Op, Plan, Round, TwinLog, TOPIC};
use crate::workloads::{round_spread, Metric};
use bytebrain::incremental::DriftConfig;
use bytebrain::train::train_from_batch;
use bytebrain::{CompiledMatcher, MatchCache, NodeId, ParserModel, SaturationLadder, TrainConfig};
use logtok::{Preprocessor, TokenScratch};
use service::api::{self, IngestRequest};
use service::{
    Admission, AdmissionConfig, LogTopic, MaintenancePolicy, ServiceManager, StorageConfig,
    StreamIngestor, TopicConfig, TopicMeta, TopicStorage,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `(name, unit, better)` of every per-layer metric, in reporting order.
pub const LAYER_METRICS: [(&str, &str, &str); 60] = [
    ("host.kernel_ms", "ms", "lower"),
    ("logtok.mask_ns_per_rec", "ns", "lower"),
    ("logtok.tokenize_ns_per_rec", "ns", "lower"),
    ("logtok.preprocess_ns_per_rec", "ns", "lower"),
    ("logtok.dedup_factor", "ratio", "higher"),
    ("train.ns_per_rec", "ns", "lower"),
    ("train.share", "ratio", "lower"),
    ("train.model_nodes", "count", "lower"),
    ("automaton.compile_ms", "ms", "lower"),
    ("automaton.refresh_ms", "ms", "lower"),
    ("automaton.dfa_states", "count", "lower"),
    ("automaton.nfa_fallback", "count", "lower"),
    ("automaton.match_ns_per_rec", "ns", "lower"),
    ("automaton.cached_ns_per_rec", "ns", "lower"),
    ("automaton.cache_hit_ratio.rep", "ratio", "higher"),
    ("automaton.cache_hit_ratio.div", "ratio", "higher"),
    ("ladder.resolve_us_p50", "us", "lower"),
    ("query.plan_us_p50", "us", "lower"),
    ("query.cache_hit_ratio", "ratio", "higher"),
    ("query.exec_ms_p50.slider", "ms", "lower"),
    ("query.exec_ms_p50.slider_hot", "ms", "lower"),
    ("query.exec_ms_p50.regex_topk", "ms", "lower"),
    ("query.exec_ms_p50.var_eq", "ms", "lower"),
    ("query.exec_ms_p50.window_var", "ms", "lower"),
    ("topic.ingest_ns_per_rec", "ns", "lower"),
    ("topic.self_ns_per_rec", "ns", "lower"),
    ("topic.retrains", "count", "lower"),
    ("topic.retrain_ms_p50", "ms", "lower"),
    ("topic.retrain_stall_share", "ratio", "lower"),
    ("incremental.delta_ms_p50", "ms", "lower"),
    ("ingest.stream_ns_per_rec", "ns", "lower"),
    ("ingest.spinup_us_per_batch", "us", "lower"),
    ("ingest.backpressure_waits", "count", "lower"),
    ("storage.self_ns_per_rec", "ns", "lower"),
    ("storage.commit_ms_p50", "ms", "lower"),
    ("storage.bytes_per_user_byte", "ratio", "lower"),
    ("storage.open_ms", "ms", "lower"),
    ("storage.recovery_rps", "1/s", "higher"),
    ("admission.cycle_us_per_batch", "us", "lower"),
    ("admission.shed_ratio", "ratio", "lower"),
    ("api.decode_ns_per_rec", "ns", "lower"),
    ("api.encode_us_per_resp", "us", "lower"),
    ("minihttp.roundtrip_us_p50", "us", "lower"),
    ("server.apply_ns_per_rec", "ns", "lower"),
    ("server.self_ns_per_rec", "ns", "lower"),
    ("server.query_wait_ms_p50", "ms", "lower"),
    ("server.cpu_s_per_mrec", "s", "lower"),
    ("client.ingest_p99_ms", "ms", "lower"),
    ("client.ingest_max_ms", "ms", "lower"),
    ("client.query_p99_ms", "ms", "lower"),
    ("client.query_max_ms", "ms", "lower"),
    ("client.lateness_ms_p99", "ms", "lower"),
    ("client.ingest_rps.rep", "1/s", "higher"),
    ("client.ingest_rps.div", "1/s", "higher"),
    ("client.samples_ingest", "count", "higher"),
    ("client.samples_query", "count", "higher"),
    ("client.cpu_s", "s", "lower"),
    ("round.spread_ratio", "ratio", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
];

/// Records the library-level passes look at: enough for steady per-record means,
/// few enough that a traced run stays inside the time one run may take.
const SAMPLE_RECORDS: usize = 16_384;

/// Values by metric name; whatever a workload never sets reports 0.
#[derive(Debug, Default)]
struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn into_metrics(self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit, _)| Metric::new(name, self.get(name), unit))
            .collect()
    }
}

/// Time `f`, record it as a span under `parent`, return `(value, seconds)`.
fn spanned<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    request_id: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tracer.begin(name, Some(parent), request_id);
    let started = Instant::now();
    let value = f();
    let elapsed = started.elapsed().as_secs_f64();
    tracer.end(span);
    (value, elapsed)
}

/// Seconds and records accumulated by the library-level passes, so the offline
/// workload can sum its fourteen families before dividing.
#[derive(Debug, Default)]
struct CoreCosts {
    records: f64,
    mask_s: f64,
    token_view_s: f64,
    preprocess_s: f64,
    unique_records: f64,
    train_s: f64,
    match_s: f64,
    cached_s: f64,
    model_nodes: f64,
    compile_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
    dfa_states: f64,
    nfa_fallback: f64,
    resolve_us: Vec<f64>,
}

/// What the passes over one `(train, stream)` input leave behind for later layers.
struct Trained {
    model: Arc<ParserModel>,
    compiled: Arc<CompiledMatcher>,
    preprocessor: Arc<Preprocessor>,
}

/// mask → +tokenize → preprocess → train → compile/refresh → +match cold/warm → resolve.
fn core_pass(
    costs: &mut CoreCosts,
    train: &[String],
    stream: &[String],
    tracer: &mut Tracer,
    parent: SpanId,
    request_id: u64,
) -> Trained {
    let config = TrainConfig::default();
    let preprocessor = Preprocessor::new(config.preprocess.clone());
    costs.records += stream.len() as f64;

    let (mut masked, mut swap) = (String::new(), String::new());
    costs.mask_s += spanned(tracer, "logtok.mask", parent, request_id, || {
        for record in stream {
            preprocessor
                .masker()
                .mask_into(record, &mut masked, &mut swap);
            black_box(masked.len());
        }
    })
    .1;
    let mut scratch = TokenScratch::new();
    costs.token_view_s += spanned(tracer, "logtok.token_view", parent, request_id, || {
        for record in stream {
            black_box(preprocessor.token_view(record, &mut scratch).len());
        }
    })
    .1;
    let (batch, seconds) = spanned(tracer, "logtok.preprocess", parent, request_id, || {
        preprocessor.preprocess(train)
    });
    costs.preprocess_s += seconds * stream.len() as f64 / train.len().max(1) as f64;
    costs.unique_records +=
        stream.len() as f64 / batch.stats.duplication_factor().max(f64::MIN_POSITIVE);

    let (outcome, seconds) = spanned(tracer, "train.train_from_batch", parent, request_id, || {
        train_from_batch(&batch, &config)
    });
    costs.train_s += seconds * stream.len() as f64 / train.len().max(1) as f64;
    let model = outcome.model;
    costs.model_nodes += model.len() as f64;

    let (compiled, seconds) = spanned(tracer, "automaton.compile", parent, request_id, || {
        CompiledMatcher::compile(&model)
    });
    costs.compile_ms.push(seconds * 1e3);
    costs.dfa_states += compiled.dfa_states().unwrap_or(0) as f64;
    costs.nfa_fallback += f64::from(u8::from(compiled.uses_nfa_fallback()));
    // What a temporary-template insertion costs the next match batch.
    let mut grown = model.clone();
    grown.insert_temporary(&[
        "lpbench".to_string(),
        "refresh".to_string(),
        "probe".to_string(),
    ]);
    let (_, seconds) = spanned(tracer, "automaton.refresh", parent, request_id, || {
        black_box(compiled.refreshed(&grown))
    });
    costs.refresh_ms.push(seconds * 1e3);

    let mut nodes: Vec<NodeId> = Vec::with_capacity(stream.len());
    costs.match_s += spanned(tracer, "automaton.match_view", parent, request_id, || {
        for record in stream {
            let view = preprocessor.token_view(record, &mut scratch);
            nodes.extend(compiled.match_view(&view));
        }
    })
    .1;
    // Warm line cache: fill it once, then time a pass in which every line hits.
    let mut cache = MatchCache::new(stream.len().max(1));
    for record in stream {
        cache.match_record(&compiled, &preprocessor, &mut scratch, record);
    }
    costs.cached_s += spanned(tracer, "automaton.cached", parent, request_id, || {
        for record in stream {
            black_box(cache.match_record(&compiled, &preprocessor, &mut scratch, record));
        }
    })
    .1;

    let ladder = SaturationLadder::build(&model);
    for chunk in nodes.chunks(1_024) {
        let started = Instant::now();
        black_box(ladder.resolve_batch(chunk, 0.6));
        costs.resolve_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Trained {
        model: Arc::new(model),
        compiled: Arc::new(compiled),
        preprocessor: Arc::new(preprocessor),
    }
}

fn record_core(ledger: &mut Ledger, costs: &CoreCosts, passes: f64) {
    let per_rec = |seconds: f64| seconds * 1e9 / costs.records.max(1.0);
    ledger.set("logtok.mask_ns_per_rec", per_rec(costs.mask_s));
    ledger.set(
        "logtok.tokenize_ns_per_rec",
        per_rec((costs.token_view_s - costs.mask_s).max(0.0)),
    );
    ledger.set("logtok.preprocess_ns_per_rec", per_rec(costs.preprocess_s));
    ledger.set(
        "logtok.dedup_factor",
        costs.records / costs.unique_records.max(1.0),
    );
    ledger.set("train.ns_per_rec", per_rec(costs.train_s));
    ledger.set("train.model_nodes", costs.model_nodes / passes);
    ledger.set("automaton.compile_ms", median(&costs.compile_ms));
    ledger.set("automaton.refresh_ms", median(&costs.refresh_ms));
    ledger.set("automaton.dfa_states", costs.dfa_states / passes);
    ledger.set("automaton.nfa_fallback", costs.nfa_fallback);
    ledger.set("automaton.match_ns_per_rec", per_rec(costs.match_s));
    ledger.set("automaton.cached_ns_per_rec", per_rec(costs.cached_s));
    if !costs.resolve_us.is_empty() {
        ledger.set("ladder.resolve_us_p50", median(&costs.resolve_us));
    }
}

fn record_client(
    ledger: &mut Ledger,
    ingest_ms: &[f64],
    query_ms: &[f64],
    round_seconds: &[f64],
    overhead_ratio: f64,
    client_cpu_s: f64,
    tracer: &Tracer,
) {
    let max = |samples: &[f64]| samples.iter().copied().fold(0.0, f64::max);
    ledger.set("client.ingest_p99_ms", tail(ingest_ms).1);
    ledger.set("client.ingest_max_ms", max(ingest_ms));
    ledger.set("client.query_p99_ms", tail(query_ms).1);
    ledger.set("client.query_max_ms", max(query_ms));
    ledger.set("client.samples_ingest", ingest_ms.len() as f64);
    ledger.set("client.samples_query", query_ms.len() as f64);
    ledger.set("client.cpu_s", client_cpu_s);
    ledger.set("round.spread_ratio", round_spread(round_seconds));
    ledger.set("trace.spans", tracer.len() as f64);
    ledger.set("trace.overhead_ratio", overhead_ratio);
}

// --- paper_offline -------------------------------------------------------------------

pub struct OfflineInput<'a> {
    pub families: &'a [Corpus],
    pub train_share: f64,
    pub ingest_ms: &'a [f64],
    pub query_ms: &'a [f64],
    pub round_seconds: &'a [f64],
    pub kernel_ms: f64,
    pub overhead_ratio: f64,
    pub client_cpu_s: f64,
}

/// The library-only ledger: the service, storage and HTTP layers all report 0.
pub fn offline_layers(input: &OfflineInput<'_>, tracer: &mut Tracer) -> Vec<Metric> {
    let mut ledger = Ledger::default();
    let root = tracer.begin("ledger", None, 0);
    let mut costs = CoreCosts::default();
    for (f, family) in input.families.iter().enumerate() {
        core_pass(
            &mut costs,
            &family.records,
            &family.records,
            tracer,
            root,
            f as u64,
        );
    }
    tracer.end(root);
    record_core(&mut ledger, &costs, input.families.len() as f64);
    ledger.set("host.kernel_ms", input.kernel_ms);
    ledger.set("train.share", input.train_share);
    record_client(
        &mut ledger,
        input.ingest_ms,
        input.query_ms,
        input.round_seconds,
        input.overhead_ratio,
        input.client_cpu_s,
        tracer,
    );
    ledger.into_metrics()
}

// --- HTTP workloads ------------------------------------------------------------------

pub struct HttpInput<'a> {
    pub plan: &'a Plan,
    pub rounds: &'a [Round],
    pub twin: &'a ServiceManager,
    pub twin_log: &'a TwinLog,
    pub kernel_ms: f64,
    pub client_cpu_s: f64,
    pub scratch: &'a Path,
}

/// The window POSTs of tenant `tenant`, capped at [`SAMPLE_RECORDS`] records.
fn sample_posts(plan: &Plan, tenant: usize) -> Vec<&[String]> {
    let mut taken = 0;
    let mut posts = Vec::new();
    for op in &plan.window {
        if let Op::Ingest { tenant: t, post } = *op {
            if t == tenant && taken < SAMPLE_RECORDS {
                let range = plan.tenants[t].posts[post].records.clone();
                taken += range.len();
                posts.push(&plan.tenants[t].corpus.records[range]);
            }
        }
    }
    posts
}

fn training_records(plan: &Plan, tenant: usize) -> &[String] {
    let first = plan
        .build
        .iter()
        .find_map(|op| match *op {
            Op::Ingest { tenant: t, post } if t == tenant => Some(post),
            _ => None,
        })
        .expect("every tenant's build script starts with an ingest");
    &plan.tenants[tenant].corpus.records[plan.tenants[tenant].posts[first].records.clone()]
}

/// A topic holding the model the tenant's first POST trains, with training out of reach.
fn trained_topic(train: &[String], make: impl FnOnce(TopicConfig) -> LogTopic) -> LogTopic {
    let mut topic = make(TopicConfig::new("ledger").with_volume_threshold(u64::MAX / 2));
    topic.ingest(train);
    topic
}

fn directory_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => directory_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn http_layers(input: &HttpInput<'_>, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let plan = input.plan;
    let io = |what: &str, e: std::io::Error| format!("ledger {what}: {e}");
    let mut ledger = Ledger::default();
    ledger.set("host.kernel_ms", input.kernel_ms);
    let root = tracer.begin("ledger", None, 0);
    let engine = server_config().engine;
    let streams = plan.window.iter().any(|op| match *op {
        Op::Ingest { tenant, post } => {
            plan.tenants[tenant].posts[post].records.len() >= engine.stream_threshold
        }
        Op::Query { .. } => false,
    });
    let retrains = plan.volume_threshold < u64::MAX / 4;

    // --- logtok / train / automaton / ladder, on tenant 0's own lines ----------------
    let train = training_records(plan, 0);
    let posts = sample_posts(plan, 0);
    let stream: Vec<String> = posts.iter().flat_map(|p| p.iter().cloned()).collect();
    let mut costs = CoreCosts::default();
    let trained = core_pass(&mut costs, train, &stream, tracer, root, 0);
    record_core(&mut ledger, &costs, 1.0);
    let per_rec = |seconds: f64, records: usize| seconds * 1e9 / records.max(1) as f64;

    // Line-cache hit ratio as the stream path sees it: a cache lives for one POST.
    if streams {
        let second = (plan.tenants.len() > 1).then(|| {
            let train = training_records(plan, 1);
            core_pass(&mut CoreCosts::default(), train, &[], tracer, root, 1)
        });
        for (tenant, name, model) in [
            (0, "automaton.cache_hit_ratio.rep", Some(&trained)),
            (1, "automaton.cache_hit_ratio.div", second.as_ref()),
        ] {
            let Some(model) = model else { continue };
            let (mut hits, mut misses) = (0, 0);
            let mut scratch = TokenScratch::new();
            for post in sample_posts(plan, tenant) {
                let mut cache = MatchCache::default();
                for record in post {
                    cache.match_record(&model.compiled, &model.preprocessor, &mut scratch, record);
                }
                hits += cache.stats().0;
                misses += cache.stats().1;
            }
            ledger.set(name, hits as f64 / (hits + misses).max(1) as f64);
        }
    }

    // --- topic: in-memory `LogTopic::ingest` at the workload's POST size ------------
    let mut memory = trained_topic(train, LogTopic::new);
    let mut memory_s = 0.0;
    for (i, post) in posts.iter().enumerate() {
        memory_s += spanned(tracer, "topic.ingest", root, i as u64, || {
            memory.ingest(post)
        })
        .1;
    }
    let topic_ns = per_rec(memory_s, stream.len());
    ledger.set("topic.ingest_ns_per_rec", topic_ns);
    ledger.set(
        "topic.self_ns_per_rec",
        (topic_ns - ledger.get("automaton.match_ns_per_rec")).max(0.0),
    );

    // --- ingest: the stream engine, only where the workload reaches it ---------------
    if streams {
        let config = engine.ingest.clone().with_workers(2);
        let mut topic = trained_topic(train, LogTopic::new);
        let (mut stream_s, mut waits) = (0.0, 0);
        for (i, post) in posts.iter().enumerate() {
            let (outcome, seconds) =
                spanned(tracer, "ingest.ingest_stream", root, i as u64, || {
                    topic.ingest_stream(post.to_vec(), &config)
                });
            stream_s += seconds;
            waits += outcome.stats.backpressure_waits;
        }
        ledger.set("ingest.stream_ns_per_rec", per_rec(stream_s, stream.len()));
        ledger.set("ingest.backpressure_waits", waits as f64);
        let spinups: Vec<f64> = (0..20)
            .map(|i| {
                spanned(tracer, "ingest.spinup", root, i, || {
                    StreamIngestor::new(
                        Arc::clone(&trained.model),
                        Arc::clone(&trained.preprocessor),
                        config.clone(),
                    )
                    .with_compiled(Arc::clone(&trained.compiled))
                    .finish()
                })
                .1 * 1e6
            })
            .collect();
        ledger.set("ingest.spinup_us_per_batch", median(&spinups));
    }

    // --- storage: only where the workload is durable ----------------------------------
    if plan.durable {
        let dir = input.scratch.join("ledger-topic");
        let mut durable = trained_topic(train, |config| {
            LogTopic::durable(config, &dir, StorageConfig::default()).expect("ledger durable topic")
        });
        let mut durable_s = 0.0;
        for (i, post) in posts.iter().enumerate() {
            durable_s += spanned(tracer, "storage.topic_ingest", root, i as u64, || {
                durable.ingest(post)
            })
            .1;
        }
        ledger.set(
            "storage.self_ns_per_rec",
            (per_rec(durable_s, stream.len()) - topic_ns).max(0.0),
        );
        let stored = durable.stats();
        drop(durable);
        ledger.set(
            "storage.bytes_per_user_byte",
            directory_bytes(&dir) as f64 / stored.total_bytes.max(1) as f64,
        );
        let (reopened, open_s) = spanned(tracer, "storage.open", root, 0, || {
            LogTopic::open(&dir, StorageConfig::default())
        });
        reopened.map_err(|e| io("reopen", e))?;
        // Where the workload itself recovers a root, report that recovery (the
        // twin's, of the same records the server recovered); elsewhere this topic's.
        let (open_s, records) = match input.twin_log.reopen_s {
            Some(twin_s) => (twin_s, input.twin_log.records_at_reopen),
            None => (open_s, stored.total_records),
        };
        ledger.set("storage.open_ms", open_s * 1e3);
        ledger.set("storage.recovery_rps", records as f64 / open_s);

        // The commit point alone: append a POST's records to the WAL, then commit.
        let meta = TopicMeta::from_config("ledger", TOPIC, &TopicConfig::new("ledger"));
        let mut storage = TopicStorage::create(
            &input.scratch.join("ledger-wal"),
            StorageConfig::default(),
            &meta,
        )
        .map_err(|e| io("create storage", e))?;
        let mut commits = Vec::new();
        for (i, post) in posts.iter().enumerate() {
            for record in post.iter() {
                storage
                    .append_record(false, None, record)
                    .map_err(|e| io("append", e))?;
            }
            let (sealed, seconds) = spanned(tracer, "storage.commit", root, i as u64, || {
                storage.commit(|_| Vec::new())
            });
            sealed.map_err(|e| io("commit", e))?;
            commits.push(seconds * 1e3);
        }
        ledger.set("storage.commit_ms_p50", median(&commits));
    }

    // --- maintenance: what the twin's retrains cost, and the incremental alternative --
    let twin_ingest_s: f64 = input.twin_log.ingest.iter().map(|(s, _, _)| s).sum();
    let twin_records: usize = input.twin_log.ingest.iter().map(|(_, n, _)| n).sum();
    let retrain_ms: Vec<f64> = input
        .twin_log
        .ingest
        .iter()
        .filter(|(_, _, trained)| *trained)
        .map(|(s, _, _)| s * 1e3)
        .collect();
    ledger.set("topic.retrains", retrain_ms.len() as f64);
    if !retrain_ms.is_empty() {
        ledger.set("topic.retrain_ms_p50", median(&retrain_ms));
        let stalled = retrain_ms.iter().sum::<f64>() / 1e3;
        ledger.set("topic.retrain_stall_share", stalled / twin_ingest_s);
        ledger.set("train.share", stalled / twin_ingest_s);
    }
    if retrains {
        let policy = MaintenancePolicy::Incremental {
            drift: DriftConfig::default(),
            check_interval: 2_048,
        };
        let mut topic = LogTopic::new(
            TopicConfig::new("ledger")
                .with_volume_threshold(plan.volume_threshold)
                .with_maintenance(policy),
        );
        topic.ingest(train);
        let mut deltas = Vec::new();
        for op in &plan.window {
            if let Op::Ingest { tenant: 0, post } = *op {
                let range = plan.tenants[0].posts[post].records.clone();
                let records = &plan.tenants[0].corpus.records[range];
                let (outcome, seconds) =
                    spanned(tracer, "incremental.ingest", root, post as u64, || {
                        topic.ingest(records)
                    });
                if outcome.maintained > 0 {
                    deltas.push(seconds * 1e3);
                }
            }
        }
        if !deltas.is_empty() {
            ledger.set("incremental.delta_ms_p50", median(&deltas));
        }
    }

    // --- query: the twin's own timings, shape by shape --------------------------------
    let mut exec_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut previous = None;
    for &(shape, seconds) in &input.twin_log.query {
        let name = match (plan.shapes[shape].name, previous == Some(shape)) {
            ("slider", true) => "slider_hot",
            (name, _) => name,
        };
        exec_ms.entry(name).or_default().push(seconds * 1e3);
        previous = Some(shape);
    }
    for (name, metric) in [
        ("slider", "query.exec_ms_p50.slider"),
        ("slider_hot", "query.exec_ms_p50.slider_hot"),
        ("regex_topk", "query.exec_ms_p50.regex_topk"),
        ("var_eq", "query.exec_ms_p50.var_eq"),
        ("window_var", "query.exec_ms_p50.window_var"),
    ] {
        if let Some(samples) = exec_ms.get(name) {
            ledger.set(metric, median(samples));
        }
    }
    let (mut hits, mut misses) = (0, 0);
    for tenant in &plan.tenants {
        if let Some(topic) = input.twin.topic(tenant.name, TOPIC) {
            hits += topic.query_cache_stats().0;
            misses += topic.query_cache_stats().1;
        }
    }
    ledger.set(
        "query.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let plan_us: Vec<f64> = plan
        .shapes
        .iter()
        .flat_map(|shape| {
            let body = String::from_utf8_lossy(&shape.body).into_owned();
            (0..20).map(move |_| {
                let started = Instant::now();
                let value = serde_json::parse_value(&body).expect("own body parses");
                let query =
                    api::query_from_value(value.get("query").expect("own body has a query"));
                black_box(
                    query
                        .expect("own query decodes")
                        .plan()
                        .expect("own query plans"),
                );
                started.elapsed().as_secs_f64() * 1e6
            })
        })
        .collect();
    ledger.set("query.plan_us_p50", median(&plan_us));
    let encode_us: Vec<f64> = plan
        .shapes
        .iter()
        .filter_map(|shape| input.twin.execute(plan.tenants[0].name, TOPIC, &shape.plan))
        .map(|value| {
            let started = Instant::now();
            black_box(api::query_value_to_json(&value));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    ledger.set("api.encode_us_per_resp", mean(&encode_us));

    // --- admission / api / minihttp ----------------------------------------------------
    let mut admission = Admission::new(AdmissionConfig::default());
    let batches: Vec<Vec<String>> = posts.iter().map(|p| p.to_vec()).collect();
    let batch_count = batches.len();
    // Admitted batches are kept until the clock stops: freeing their records is the
    // engine's cost, not admission's.
    let mut admitted = Vec::with_capacity(batch_count);
    let (_, seconds) = spanned(tracer, "admission.cycle", root, 0, || {
        for batch in batches {
            admission
                .submit("ledger", TOPIC, batch, Instant::now())
                .expect("open quotas admit everything");
            let next = admission.next_batch().expect("a batch was just submitted");
            admission.complete(&next.tenant, next.bytes);
            admitted.push(next);
        }
    });
    drop(admitted);
    ledger.set(
        "admission.cycle_us_per_batch",
        seconds * 1e6 / batch_count.max(1) as f64,
    );
    ledger.set(
        "admission.shed_ratio",
        mean(
            &input
                .rounds
                .iter()
                .map(|r| r.shed_ratio)
                .collect::<Vec<_>>(),
        ),
    );
    let mut decode_s = 0.0;
    let mut decoded = 0;
    for op in plan.window.iter().take(64) {
        if let Op::Ingest { tenant, post } = *op {
            let body = std::str::from_utf8(&plan.tenants[tenant].posts[post].body).expect("UTF-8");
            let (request, seconds) = spanned(tracer, "api.decode", root, post as u64, || {
                serde_json::from_str::<IngestRequest>(body)
            });
            decoded += request
                .map_err(|e| format!("ledger decode: {e}"))?
                .records
                .len();
            decode_s += seconds;
        }
    }
    let decode_ns = per_rec(decode_s, decoded);
    ledger.set("api.decode_ns_per_rec", decode_ns);
    let roundtrips: Vec<f64> = input
        .rounds
        .iter()
        .flat_map(|r| r.roundtrip_us.iter().copied())
        .collect();
    ledger.set("minihttp.roundtrip_us_p50", median(&roundtrips));
    tracer.end(root);

    // --- server: what is left between the client's clock and the library's -------------
    let apply_ns = per_rec(twin_ingest_s, twin_records);
    ledger.set("server.apply_ns_per_rec", apply_ns);
    let traced: Vec<&Round> = input.rounds.iter().skip(1).step_by(2).collect();
    let untraced: Vec<&Round> = input.rounds.iter().step_by(2).collect();
    let client_s: f64 = traced.iter().map(|r| r.ingest_seconds()).sum();
    let client_records: u64 = traced.iter().map(|r| r.acked_records()).sum();
    ledger.set(
        "server.self_ns_per_rec",
        (per_rec(client_s, client_records as usize) - apply_ns - decode_ns).max(0.0),
    );
    let ingest_ms: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.ingest_ms.iter().copied())
        .collect();
    let query_ms: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.query_ms.iter().copied())
        .collect();
    let twin_exec_ms = mean(&exec_ms.values().map(|v| median(v)).collect::<Vec<_>>());
    ledger.set(
        "server.query_wait_ms_p50",
        (median(&query_ms) - twin_exec_ms - ledger.get("api.encode_us_per_resp") / 1e3).max(0.0),
    );
    let scripted = crate::workloads::http::scripted_records(plan) as f64;
    ledger.set(
        "server.cpu_s_per_mrec",
        median(
            &input
                .rounds
                .iter()
                .map(|r| r.usage.cpu_s)
                .collect::<Vec<_>>(),
        ) * 1e6
            / scripted,
    );
    let lateness: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.lateness_ms.iter().copied())
        .collect();
    if !lateness.is_empty() {
        ledger.set("client.lateness_ms_p99", tail(&lateness).1);
    }
    let tenant_rps = |tenant: usize| {
        median(
            &traced
                .iter()
                .map(|r| r.ingest_by_tenant[tenant].1 as f64 / r.ingest_by_tenant[tenant].0)
                .collect::<Vec<_>>(),
        )
    };
    ledger.set("client.ingest_rps.rep", tenant_rps(0));
    if plan.tenants.len() > 1 {
        ledger.set("client.ingest_rps.div", tenant_rps(1));
    }
    let rates =
        |rounds: &[&Round]| median(&rounds.iter().map(|r| r.ingest_rps()).collect::<Vec<_>>());
    record_client(
        &mut ledger,
        &ingest_ms,
        &query_ms,
        &input.rounds.iter().map(|r| r.window_s).collect::<Vec<_>>(),
        rates(&traced) / rates(&untraced),
        input.client_cpu_s,
        tracer,
    );
    Ok(ledger.into_metrics())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names_in(section: &Value) -> Vec<(String, String, String)> {
        let Value::Array(entries) = section else {
            panic!("section is not a list")
        };
        let text = |entry: &Value, key: &str| match entry.get(key) {
            Some(Value::String(text)) => text.clone(),
            other => panic!("{key} is {other:?}"),
        };
        entries
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
        let layers = names_in(manifest.get("per_layer").unwrap());
        let ours: Vec<_> = LAYER_METRICS
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, ours);
        let end_to_end: Vec<_> = names_in(manifest.get("end_to_end").unwrap())
            .into_iter()
            .map(|(name, unit, _)| (name, unit))
            .collect();
        let printed = crate::workloads::EndToEnd {
            setup_s: 1.0,
            ingest_rps: 1.0,
            ingest_p50_ms: 1.0,
            query_p50_ms: 1.0,
            peak_rss_mb: 1.0,
            grouping_accuracy: 1.0,
        };
        let ours: Vec<_> = printed
            .metrics()
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(end_to_end, ours);
        let workloads: Vec<String> = names_in_workloads(manifest.get("workloads").unwrap());
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    fn names_in_workloads(section: &Value) -> Vec<String> {
        let Value::Array(entries) = section else {
            panic!("workloads is not a list")
        };
        entries
            .iter()
            .map(|e| match e.get("name") {
                Some(Value::String(name)) => name.clone(),
                other => panic!("name is {other:?}"),
            })
            .collect()
    }

    #[test]
    fn unset_layers_report_zero_and_order_is_fixed() {
        let mut ledger = Ledger::default();
        ledger.set("storage.open_ms", 12.5);
        let metrics = ledger.into_metrics();
        assert_eq!(metrics.len(), LAYER_METRICS.len());
        assert_eq!(metrics[1].name, "logtok.mask_ns_per_rec");
        assert_eq!(metrics[1].value, 0.0);
        let open = metrics
            .iter()
            .find(|m| m.name == "storage.open_ms")
            .unwrap();
        assert_eq!((open.value, open.unit), (12.5, "ms"));
    }
}
