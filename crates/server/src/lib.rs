//! The multi-tenant HTTP front end: `minihttp` router → admission control → engine.
//!
//! Request flow (see ARCHITECTURE.md "Front end"):
//!
//! ```text
//! client ──HTTP──▶ minihttp workers ──submit──▶ Admission (quotas, fair RR)
//!                        ▲                            │ next()
//!                        │ reply channel              ▼
//!                        └──────────────────── engine thread ──▶ ServiceManager
//! ```
//!
//! * `POST /v1/{tenant}/{topic}/ingest` — batched log lines ([`service::api::IngestRequest`]).
//!   Sheds with **429** + `Retry-After` when the tenant's token bucket, byte quota,
//!   or queue bound says no — except a batch that alone exceeds its byte quota,
//!   which is a permanent **413**. When the engine's own `max_in_flight` stays
//!   saturated past the configured wait, the committed prefix is reported as a
//!   **200** whose body carries `accepted` and `shed` counts: the client resends
//!   only the last `shed` records, never the whole batch.
//! * `POST /v1/{tenant}/query` — body `{"topic": ..., "query": <Query AST JSON>}`;
//!   planned and executed through the indexed path, responses rendered by
//!   [`service::api::query_value_to_json`] so they are byte-identical to direct
//!   library calls.
//! * `GET /v1/{tenant}/{topic}/stats`, `GET /healthz`, `GET /metrics`.
//!
//! A single **engine thread** owns all model and record mutations: it pulls admitted
//! batches in fair round-robin order from the [`Admission`] scheduler and runs each
//! through [`service::drive`] — the one driver [`apply_batch`] runs for the
//! differential tests' twin manager. The manager sits behind an `RwLock` that the
//! engine write-locks once per *phase* of that driver: to prepare (snapshot what
//! matching reads) and to apply (store, maintain, commit), never while it matches.
//! `query` and `stats` take the read lock, so they wait for an apply, not for a
//! batch, and never for each other. Storage maintenance runs on a periodic tick
//! thread when [`ServerConfig::maintenance_interval`] is set, one write lock per
//! topic — library callers keep the inline-only behaviour.
//!
//! Graceful shutdown ([`LogServer::shutdown`]) drains in flight at both layers:
//! the HTTP layer finishes requests it already accepted, then the engine drains
//! **every** admitted batch before the `ServiceManager` is handed back — an
//! admitted (2xx-bound) record is never dropped.

#![warn(missing_docs)]

use minihttp::{percent_decode, Handler, Request, Response};
use serde::Value;
use service::api::{self, ErrorBody, IngestRequest, IngestResponse, StatsResponse};
use service::{
    Admission, AdmissionConfig, IngestConfig, LogTopic, Route, ServiceManager, TopicAccess,
};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a batch is applied to the manager once scheduled.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Streaming-engine tuning for large batches.
    pub ingest: IngestConfig,
    /// Batches with at least this many records take the batched streaming path;
    /// smaller ones take the direct batch path (streaming setup costs more than it
    /// saves on small batches).
    pub stream_threshold: usize,
    /// Bounded back-pressure: how long the streaming path may wait on a saturated
    /// `max_in_flight` before shedding the rest of the batch.
    pub engine_wait: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            ingest: IngestConfig::default(),
            stream_threshold: 4_096,
            engine_wait: Duration::from_secs(2),
        }
    }
}

/// Outcome of applying one admitted batch.
#[derive(Debug, Clone)]
pub struct ApplyOutcome {
    /// Matched/unmatched/trained/maintained counters of the accepted prefix.
    pub outcome: service::IngestOutcome,
    /// Records shed by engine-level back-pressure (0 on the batch path and on any
    /// un-saturated streaming run).
    pub shed: usize,
}

/// Apply one batch of records to a tenant's topic exactly as the server's engine
/// thread does: direct batch path below [`EngineConfig::stream_threshold`], the
/// bounded streaming path at or above it. Public so the loopback differential suite
/// drives its twin [`ServiceManager`] through the identical code path.
pub fn apply_batch(
    manager: &mut ServiceManager,
    tenant: &str,
    topic: &str,
    records: Vec<String>,
    config: &EngineConfig,
) -> ApplyOutcome {
    apply_through(manager.topic_mut(tenant, topic), records, config)
}

/// [`apply_batch`] on any way of reaching the topic: the caller's `&mut`, or the
/// engine thread's lock-per-phase [`LockedTopic`].
fn apply_through<A: TopicAccess>(
    access: &mut A,
    records: Vec<String>,
    config: &EngineConfig,
) -> ApplyOutcome {
    let route = if records.len() < config.stream_threshold {
        Route::Batch
    } else {
        Route::Stream {
            config: &config.ingest,
            wait: Some(config.engine_wait),
            clamp_to_topic: true,
        }
    };
    let (stream, rejected) = service::drive(access, records, route);
    ApplyOutcome {
        outcome: stream.outcome,
        shed: rejected.len(),
    }
}

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// HTTP layer tuning (worker count, timeouts, body bound).
    pub http: minihttp::ServerConfig,
    /// Admission quotas and overrides.
    pub admission: AdmissionConfig,
    /// Engine application tuning.
    pub engine: EngineConfig,
    /// When set, a tick thread runs fleet-wide storage maintenance (TTL retention)
    /// at this interval. `None` (the default, matching library behaviour) leaves
    /// maintenance to explicit calls.
    pub maintenance_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            http: minihttp::ServerConfig::default(),
            admission: AdmissionConfig::default(),
            engine: EngineConfig::default(),
            maintenance_interval: None,
        }
    }
}

/// Log-2 latency histogram: bucket `i` counts samples in `[2^i, 2^(i+1))` µs.
#[derive(Debug, Clone, Default)]
struct LatencyHistogram {
    count: u64,
    total_us: u64,
    buckets: [u64; 24],
}

impl LatencyHistogram {
    fn record(&mut self, elapsed: Duration) {
        let us = elapsed.as_micros() as u64;
        self.count += 1;
        self.total_us += us;
        let bucket = (63 - us.max(1).leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[bucket] += 1;
    }

    fn to_value(&self) -> Value {
        let last_used = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        Value::Object(vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("total_us".to_string(), Value::UInt(self.total_us)),
            (
                "log2_us_buckets".to_string(),
                Value::Array(
                    self.buckets[..last_used]
                        .iter()
                        .map(|&c| Value::UInt(c))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Scheduler state shared between HTTP workers and the engine thread: the admission
/// layer plus the reply channels of batches in flight. One mutex so a submit and its
/// reply-channel registration are atomic with respect to the engine's pull.
struct Sched {
    admission: Admission,
    pending: HashMap<u64, Sender<ApplyOutcome>>,
}

/// One tenant's query timings: `wait` is handler entry → read lock acquired,
/// `execution` the time under it.
#[derive(Debug, Default)]
struct QueryTimes {
    wait: LatencyHistogram,
    execution: LatencyHistogram,
}

/// What the engine thread counts about itself: one `busy` sample per batch
/// (prepare → reply) and one `lock_held` sample per write-lock hold, so an inline
/// retrain shows as a single long hold.
#[derive(Debug, Default)]
struct EngineTimes {
    batches: u64,
    busy: LatencyHistogram,
    lock_held: LatencyHistogram,
}

struct ServerState {
    /// Written by the engine thread (per driver phase) and the maintenance tick
    /// (per topic); read by `query` and `stats`. Never held together with `sched`.
    manager: RwLock<ServiceManager>,
    sched: Mutex<Sched>,
    work: Condvar,
    stopping: AtomicBool,
    query_times: Mutex<BTreeMap<String, QueryTimes>>,
    engine_times: Mutex<EngineTimes>,
    maintenance_ticks: AtomicU64,
    engine: EngineConfig,
}

/// The engine thread's way to its topic: the manager's write lock, taken for one
/// driver phase and released before the next — all matching happens in between.
struct LockedTopic<'a> {
    state: &'a ServerState,
    tenant: &'a str,
    topic: &'a str,
}

impl TopicAccess for LockedTopic<'_> {
    fn with<R>(&mut self, f: impl FnOnce(&mut LogTopic) -> R) -> R {
        let (result, held) = {
            let mut manager = self.state.manager.write().expect("manager lock");
            let acquired = Instant::now();
            let result = f(manager.topic_mut(self.tenant, self.topic));
            (result, acquired.elapsed())
        };
        let mut times = self.state.engine_times.lock().expect("engine times lock");
        times.lock_held.record(held);
        result
    }
}

/// The running front end. Obtain one from [`serve`]; recover the manager with
/// [`LogServer::shutdown`].
pub struct LogServer {
    http: Option<minihttp::Server>,
    state: Option<Arc<ServerState>>,
    engine_thread: Option<JoinHandle<()>>,
    tick_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for LogServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogServer").finish_non_exhaustive()
    }
}

/// Start serving `manager` under `config`.
pub fn serve(manager: ServiceManager, config: ServerConfig) -> io::Result<LogServer> {
    let state = Arc::new(ServerState {
        manager: RwLock::new(manager),
        sched: Mutex::new(Sched {
            admission: Admission::new(config.admission.clone()),
            pending: HashMap::new(),
        }),
        work: Condvar::new(),
        stopping: AtomicBool::new(false),
        query_times: Mutex::new(BTreeMap::new()),
        engine_times: Mutex::new(EngineTimes::default()),
        maintenance_ticks: AtomicU64::new(0),
        engine: config.engine.clone(),
    });

    let engine_thread = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("server-engine".to_string())
            .spawn(move || engine_loop(&state))
            .expect("spawn engine thread")
    };

    let tick_thread = config.maintenance_interval.map(|interval| {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("server-maintenance".to_string())
            .spawn(move || maintenance_loop(&state, interval))
            .expect("spawn maintenance thread")
    });

    let handler: Handler = {
        let state = Arc::clone(&state);
        Arc::new(move |request: &Request| route(&state, request))
    };
    let http = minihttp::Server::bind(&config.addr, config.http.clone(), handler)?;

    Ok(LogServer {
        http: Some(http),
        state: Some(state),
        engine_thread: Some(engine_thread),
        tick_thread,
    })
}

impl LogServer {
    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.http.as_ref().expect("server is running").addr()
    }

    /// Graceful shutdown: stop accepting, finish in-flight HTTP requests, drain
    /// every admitted batch through the engine, stop the maintenance tick, and hand
    /// the (fully caught-up) manager back.
    pub fn shutdown(mut self) -> ServiceManager {
        self.stop();
        let state = self.state.take().expect("state present until shutdown");
        let state = Arc::try_unwrap(state)
            .unwrap_or_else(|_| unreachable!("all worker threads were joined in stop()"));
        state
            .manager
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn stop(&mut self) {
        let Some(state) = self.state.as_ref() else {
            return;
        };
        state.stopping.store(true, Ordering::SeqCst);
        // 1. HTTP drain: no new connections; accepted requests run to completion
        //    (their ingest replies arrive because the engine is still running).
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
        // 2. Engine drain: wake it so it sees `stopping`; it exits only once the
        //    admission queues are empty.
        {
            let _sched = state.sched.lock().expect("sched lock");
            state.work.notify_all();
        }
        if let Some(engine) = self.engine_thread.take() {
            let _ = engine.join();
        }
        if let Some(tick) = self.tick_thread.take() {
            let _ = tick.join();
        }
    }
}

impl Drop for LogServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn engine_loop(state: &ServerState) {
    loop {
        let batch = {
            let mut sched = state.sched.lock().expect("sched lock");
            loop {
                if let Some(batch) = sched.admission.next_batch() {
                    break Some(batch);
                }
                // Drain-before-exit: `stopping` only matters once no work is queued,
                // so every admitted batch lands in the manager before shutdown.
                if state.stopping.load(Ordering::SeqCst) {
                    break None;
                }
                sched = state.work.wait(sched).expect("sched lock");
            }
        };
        let Some(batch) = batch else { return };
        let started = Instant::now();
        let mut topic = LockedTopic {
            state,
            tenant: &batch.tenant,
            topic: &batch.topic,
        };
        let outcome = apply_through(&mut topic, batch.records, &state.engine);
        let reply = {
            let mut sched = state.sched.lock().expect("sched lock");
            sched.admission.complete(&batch.tenant, batch.bytes);
            sched.pending.remove(&batch.ticket)
        };
        {
            // Counted before the reply leaves: a client holding its reply finds its
            // batch in `/metrics`.
            let mut times = state.engine_times.lock().expect("engine times lock");
            times.batches += 1;
            times.busy.record(started.elapsed());
        }
        if let Some(reply) = reply {
            // A dead receiver just means the HTTP client went away; the batch is
            // applied either way.
            let _ = reply.send(outcome);
        }
    }
}

fn maintenance_loop(state: &ServerState, interval: Duration) {
    let step = Duration::from_millis(25).min(interval);
    loop {
        let mut waited = Duration::ZERO;
        while waited < interval {
            if state.stopping.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(step);
            waited += step;
        }
        // One hold per topic, not one across the fleet pass: readers and the engine
        // get in between two topics' retention passes.
        let keys = state.manager.read().expect("manager lock").topic_keys();
        for (tenant, topic) in keys {
            let mut manager = state.manager.write().expect("manager lock");
            manager.topic_mut(&tenant, &topic).run_storage_maintenance();
        }
        state.maintenance_ticks.fetch_add(1, Ordering::SeqCst);
    }
}

// --- routing ----------------------------------------------------------------------------

fn error_response(status: u16, body: &ErrorBody) -> Response {
    let rendered = serde_json::to_string(body).expect("error body renders");
    let response = Response::json(status, rendered);
    match body.retry_after_ms {
        Some(ms) => response.with_header(
            "Retry-After",
            // Ceil to whole seconds per RFC 9110 (delay-seconds), min 1.
            &ms.div_ceil(1000).max(1).to_string(),
        ),
        None => response,
    }
}

fn not_found() -> Response {
    error_response(404, &ErrorBody::new("no such route"))
}

fn route(state: &ServerState, request: &Request) -> Response {
    let path = request.path_only().to_string();
    let segments: Vec<String> = path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(percent_decode)
        .collect();
    let parts: Vec<&str> = segments.iter().map(String::as_str).collect();
    match (request.method.as_str(), parts.as_slice()) {
        ("GET", ["healthz"]) => Response::json(200, r#"{"status":"ok"}"#),
        ("GET", ["metrics"]) => metrics(state),
        ("POST", ["v1", tenant, "query"]) => query(state, tenant, request),
        ("POST", ["v1", tenant, topic, "ingest"]) => ingest(state, tenant, topic, request),
        ("GET", ["v1", tenant, topic, "stats"]) => stats(state, tenant, topic),
        // A route's path under another method; any other path is no route at all.
        (_, ["healthz" | "metrics"] | ["v1", _, "query"] | ["v1", _, _, "ingest" | "stats"]) => {
            error_response(405, &ErrorBody::new("method not allowed on this route"))
        }
        _ => not_found(),
    }
}

fn ingest(state: &ServerState, tenant: &str, topic: &str, request: &Request) -> Response {
    let body = match request.body_str() {
        Ok(text) => text,
        Err(_) => return error_response(400, &ErrorBody::new("body must be UTF-8 JSON")),
    };
    let parsed: IngestRequest = match serde_json::from_str(body) {
        Ok(parsed) => parsed,
        Err(e) => return error_response(400, &ErrorBody::new(format!("bad ingest body: {e}"))),
    };
    if parsed.records.is_empty() {
        return error_response(400, &ErrorBody::new("records must be non-empty"));
    }
    let (reply_tx, reply_rx) = channel();
    {
        let mut sched = state.sched.lock().expect("sched lock");
        match sched
            .admission
            .submit(tenant, topic, parsed.records, Instant::now())
        {
            Ok(ticket) => {
                sched.pending.insert(ticket, reply_tx);
                state.work.notify_all();
            }
            Err(shed) => {
                // Transient sheds are retryable (429 + Retry-After); a batch that
                // can never fit its quota is a permanent 413 — retrying as-is would
                // loop forever.
                return match shed.retry_after() {
                    Some(retry) => error_response(
                        429,
                        &ErrorBody::shed(shed.to_string(), retry.as_millis() as u64),
                    ),
                    None => error_response(413, &ErrorBody::new(shed.to_string())),
                };
            }
        }
    }
    match reply_rx.recv() {
        Ok(applied) => {
            // Even when the engine shed a suffix, the accepted prefix is already
            // committed — report a success-shaped body with the shed count so the
            // client resends only the tail, never the whole (part-duplicate) batch.
            let response =
                IngestResponse::from_outcome(&applied.outcome).with_shed(applied.shed as u64);
            Response::json(200, serde_json::to_string(&response).expect("renders"))
        }
        Err(_) => error_response(503, &ErrorBody::new("engine stopped before reply")),
    }
}

fn query(state: &ServerState, tenant: &str, request: &Request) -> Response {
    let entered = Instant::now();
    let body = match request.body_str() {
        Ok(text) => text,
        Err(_) => return error_response(400, &ErrorBody::new("body must be UTF-8 JSON")),
    };
    let value = match serde_json::parse_value(body) {
        Ok(value) => value,
        Err(e) => return error_response(400, &ErrorBody::new(format!("bad JSON: {e}"))),
    };
    let topic = match value.get("topic") {
        Some(Value::String(topic)) => topic.clone(),
        _ => return error_response(400, &ErrorBody::new("body must carry a \"topic\" string")),
    };
    let query_value = match value.get("query") {
        Some(raw) => raw,
        None => return error_response(400, &ErrorBody::new("body must carry a \"query\" object")),
    };
    let parsed = match api::query_from_value(query_value) {
        Ok(parsed) => parsed,
        Err(e) => return error_response(400, &ErrorBody::new(format!("bad query: {e}"))),
    };
    let plan = match parsed.plan() {
        Ok(plan) => plan,
        Err(e) => return error_response(400, &ErrorBody::new(format!("unplannable query: {e}"))),
    };
    let (result, waited, executed) = {
        let manager = state.manager.read().expect("manager lock");
        let waited = entered.elapsed();
        let result = manager.execute(tenant, &topic, &plan);
        (result, waited, entered.elapsed() - waited)
    };
    {
        let mut times = state.query_times.lock().expect("query times lock");
        if !times.contains_key(tenant) {
            times.insert(tenant.to_string(), QueryTimes::default());
        }
        let times = times.get_mut(tenant).expect("just ensured");
        times.wait.record(waited);
        times.execution.record(executed);
    }
    match result {
        Some(result) => Response::json(200, api::query_value_to_json(&result)),
        None => error_response(404, &ErrorBody::new(format!("unknown topic {topic:?}"))),
    }
}

fn stats(state: &ServerState, tenant: &str, topic: &str) -> Response {
    let found = {
        let manager = state.manager.read().expect("manager lock");
        manager.topic(tenant, topic).map(LogTopic::stats)
    };
    match found {
        Some(stats) => {
            let response = StatsResponse::from_stats(&stats);
            Response::json(200, serde_json::to_string(&response).expect("renders"))
        }
        None => error_response(404, &ErrorBody::new(format!("unknown topic {topic:?}"))),
    }
}

fn metrics(state: &ServerState) -> Response {
    let admission = {
        let sched = state.sched.lock().expect("sched lock");
        sched.admission.metrics()
    };
    let engine = {
        let times = state.engine_times.lock().expect("engine times lock");
        Value::Object(vec![
            ("batches".to_string(), Value::UInt(times.batches)),
            ("busy".to_string(), times.busy.to_value()),
            ("lock_held".to_string(), times.lock_held.to_value()),
        ])
    };
    let query_times = state.query_times.lock().expect("query times lock");
    let mut tenants: Vec<(String, Value)> = Vec::new();
    let mut names: Vec<&String> = admission.keys().chain(query_times.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let mut fields: Vec<(String, Value)> = Vec::new();
        if let Some(stats) = admission.get(name.as_str()) {
            fields.extend([
                (
                    "admitted_batches".to_string(),
                    Value::UInt(stats.admitted_batches),
                ),
                (
                    "admitted_records".to_string(),
                    Value::UInt(stats.admitted_records),
                ),
                ("shed_batches".to_string(), Value::UInt(stats.shed_batches)),
                ("shed_records".to_string(), Value::UInt(stats.shed_records)),
                (
                    "queued_batches".to_string(),
                    Value::UInt(stats.queued_batches as u64),
                ),
                (
                    "in_flight_bytes".to_string(),
                    Value::UInt(stats.in_flight_bytes),
                ),
            ]);
        }
        if let Some(times) = query_times.get(name.as_str()) {
            fields.push(("query_wait".to_string(), times.wait.to_value()));
            fields.push(("query_latency".to_string(), times.execution.to_value()));
        }
        tenants.push((name.clone(), Value::Object(fields)));
    }
    let body = Value::Object(vec![
        ("tenants".to_string(), Value::Object(tenants)),
        ("engine".to_string(), engine),
        (
            "maintenance_ticks".to_string(),
            Value::UInt(state.maintenance_ticks.load(Ordering::SeqCst)),
        ),
    ]);
    Response::json(200, serde_json::to_string(&body).expect("renders"))
}
