//! The shared executor of the three HTTP workloads.
//!
//! A workload is a [`Plan`]: tenants with pre-encoded POST bodies, query shapes,
//! and three scripts of [`Op`]s — `build` and `warm` run inside set-up, `window`
//! is the timed work. The executor runs the plan as rounds of identical work, each
//! against a **fresh server child** (fresh address space, fresh topics, fresh
//! durable root), drives a library twin through `server::apply_batch` /
//! `ServiceManager::execute` on the same inputs, and compares what the server
//! answered with what the twin answers, byte for byte.

use crate::child::{server_config, ChildSpec, ChildUsage, ServerChild};
use crate::corpus::{encode_ingest_body, Corpus};
use crate::trace::{SpanId, Tracer};
use crate::workloads::Floors;
use bytebrain::{Query, QueryPlan};
use minihttp::{ClientConn, ClientResponse};
use serde::Value;
use server::apply_batch;
use service::api::{self, IngestResponse, StatsResponse};
use service::ServiceManager;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// Every tenant's one topic.
pub const TOPIC: &str = "logs";
/// The precision grouping accuracy is scored at.
pub const GA_THRESHOLD: f64 = 0.6;

/// One ingest POST: the records it carries and its JSON body, encoded before any
/// timing starts so the load generator does no JSON work inside the window.
#[derive(Debug)]
pub struct Post {
    pub records: Range<usize>,
    pub body: Vec<u8>,
}

#[derive(Debug)]
pub struct Tenant {
    pub name: &'static str,
    pub corpus: Corpus,
    pub posts: Vec<Post>,
    ingest_path: String,
    query_path: String,
    stats_path: String,
}

impl Tenant {
    /// Cut `corpus` into consecutive POSTs of the given sizes.
    pub fn new(name: &'static str, corpus: Corpus, sizes: impl IntoIterator<Item = usize>) -> Self {
        let mut posts = Vec::new();
        let mut start = 0;
        for size in sizes {
            let records = start..start + size;
            posts.push(Post {
                body: encode_ingest_body(&corpus.records[records.clone()]),
                records,
            });
            start += size;
        }
        assert!(
            start <= corpus.len(),
            "tenant {name}: corpus shorter than its POSTs"
        );
        Tenant {
            name,
            corpus,
            posts,
            ingest_path: format!("/v1/{name}/{TOPIC}/ingest"),
            query_path: format!("/v1/{name}/query"),
            stats_path: format!("/v1/{name}/{TOPIC}/stats"),
        }
    }

    fn records_of(&self, post: usize) -> &[String] {
        &self.corpus.records[self.posts[post].records.clone()]
    }
}

/// One query shape: the AST, its normalized plan (what the twin executes) and the
/// request body (what the server receives).
#[derive(Debug)]
pub struct Shape {
    pub name: &'static str,
    pub plan: QueryPlan,
    pub body: Vec<u8>,
}

impl Shape {
    pub fn new(name: &'static str, query: Query) -> Self {
        let body = serde_json::to_string(&Value::Object(vec![
            ("topic".to_string(), Value::String(TOPIC.to_string())),
            ("query".to_string(), api::query_to_value(&query)),
        ]))
        .expect("a query body always renders")
        .into_bytes();
        Shape {
            name,
            plan: query.plan().expect("benchmark queries always plan"),
            body,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Ingest { tenant: usize, post: usize },
    Query { tenant: usize, shape: usize },
}

/// A reader beside the writer: while the server works on a window POST of tenant
/// `beside`, a second client thread on a second connection queries tenant `tenant`,
/// rotating through `shapes`.
///
/// The probe is tied to the POST's phase on purpose. A query that arrives while
/// the engine applies a batch waits for the manager mutex, so its latency is mostly
/// "how much of the POST was left"; polled on a free-running schedule that is a
/// uniform random draw per query, and no affordable number of queries averages it
/// out. Sent when the share `phase` of the POST's expected latency has passed,
/// probe `k` meets the engine at the same point of the same work in every round and
/// can be floored over rounds like any other request. The expected latency is
/// measured, not assumed: it is the fastest POST to `beside` in the round's own
/// warm-up, so the probe keeps its place inside the POST when a later change makes
/// POSTs faster or slower.
#[derive(Debug)]
pub struct Probe {
    pub tenant: usize,
    pub beside: usize,
    pub phase: f64,
    pub shapes: Vec<usize>,
}

#[derive(Debug)]
pub struct Plan {
    pub volume_threshold: u64,
    pub durable: bool,
    /// Stop the server after `build` and serve the recovered root from a new child.
    pub recover: bool,
    pub tenants: Vec<Tenant>,
    pub shapes: Vec<Shape>,
    pub build: Vec<Op>,
    pub warm: Vec<Op>,
    pub window: Vec<Op>,
    pub probe: Option<Probe>,
    /// Requests per ingest cycle / per query cycle, in issue order.
    pub ingest_cycle: usize,
    pub query_cycle: usize,
    /// Fewest cycles a run may take its latency medians from.
    pub floors: Floors,
}

impl Plan {
    fn spec(&self, root: Option<&Path>, reopen: bool) -> ChildSpec {
        ChildSpec {
            root: root.map(Path::to_path_buf),
            reopen,
            volume_threshold: self.volume_threshold,
            tenants: self.tenants.iter().map(|t| t.name.to_string()).collect(),
        }
    }

    fn probe_beside(&self, tenant: usize) -> bool {
        self.probe
            .as_ref()
            .is_some_and(|probe| probe.beside == tenant)
    }

    /// The window as the server executes it: a probe query runs once the POST it
    /// sits beside has been applied (it waited for the manager mutex until then).
    fn window_as_executed(&self) -> Vec<Op> {
        let Some(probe) = &self.probe else {
            return self.window.clone();
        };
        let mut shapes = probe.shapes.iter().cycle();
        let mut ops = Vec::with_capacity(2 * self.window.len());
        for op in &self.window {
            ops.push(*op);
            if matches!(*op, Op::Ingest { tenant, .. } if tenant == probe.beside) {
                let shape = *shapes.next().expect("a probe has shapes");
                ops.push(Op::Query {
                    tenant: probe.tenant,
                    shape,
                });
            }
        }
        ops
    }

    /// Ground-truth labels of a tenant's records in the order the scripts ingest them.
    fn labels_in_ingest_order(&self, tenant: usize) -> Vec<usize> {
        let mut labels = Vec::new();
        for op in self.build.iter().chain(&self.warm).chain(&self.window) {
            if let Op::Ingest { tenant: t, post } = *op {
                if t == tenant {
                    let range = self.tenants[t].posts[post].records.clone();
                    labels.extend_from_slice(&self.tenants[t].corpus.labels[range]);
                }
            }
        }
        labels
    }
}

/// Requests made and requests that went wrong (non-200, shed, short count, or an
/// answer that differs from the twin's).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What every request of a run reports into: the tally and the span recorder.
#[derive(Debug)]
pub struct Session {
    pub tally: Tally,
    pub tracer: Tracer,
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    /// Wall time of the window, first request to last response.
    pub window_s: f64,
    pub ingest_ms: Vec<f64>,
    /// Tenant, send and completion time of each ingest call, parallel to `ingest_ms`.
    pub ingest_at: Vec<(usize, Instant, Instant)>,
    /// `(seconds in ingest calls, records acknowledged)` per tenant.
    pub ingest_by_tenant: Vec<(f64, u64)>,
    pub query_ms: Vec<f64>,
    /// Probes only: how late after its due time each query was sent.
    pub lateness_ms: Vec<f64>,
    /// Probes only: did query `k` wait behind its POST? It did not if it was sent
    /// after the POST had completed, or was answered before the POST was half done
    /// (it slipped in ahead of the writer); such a sample measures something else.
    pub probe_met: Vec<bool>,
    /// Probes only: the delay this round derived from its warm-up.
    pub probe_delay_ms: f64,
    pub usage: ChildUsage,
    pub roundtrip_us: Vec<f64>,
    pub shed_ratio: f64,
    pub answers: Answers,
}

impl Round {
    pub fn acked_records(&self) -> u64 {
        self.ingest_by_tenant.iter().map(|(_, n)| n).sum()
    }

    pub fn ingest_seconds(&self) -> f64 {
        self.ingest_by_tenant.iter().map(|(s, _)| s).sum()
    }

    pub fn ingest_rps(&self) -> f64 {
        self.acked_records() as f64 / self.ingest_seconds()
    }
}

/// What one tenant's end state answers: the `/stats` body, one response per query
/// shape, and the grouping at [`GA_THRESHOLD`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TenantAnswers {
    pub stats: String,
    pub shapes: Vec<String>,
    pub grouping: String,
}

/// Every tenant's answers, in plan order. Server and twin must agree on all of them.
pub type Answers = Vec<TenantAnswers>;

/// Names of the answers on which `got` differs from `want`.
pub fn differing_answers(plan: &Plan, got: &Answers, want: &Answers) -> Vec<String> {
    let mut differing = Vec::new();
    for ((tenant, got), want) in plan.tenants.iter().zip(got).zip(want) {
        let mut check = |what: &str, same: bool| {
            if !same {
                differing.push(format!("{}/{what}", tenant.name));
            }
        };
        check("stats", got.stats == want.stats);
        check("grouping", got.grouping == want.grouping);
        for (shape, (g, w)) in plan.shapes.iter().zip(got.shapes.iter().zip(&want.shapes)) {
            check(shape.name, g == w);
        }
    }
    differing
}

fn ga_shape() -> Shape {
    Shape::new("ga", Query::group_by().at_threshold(GA_THRESHOLD))
}

fn post(conn: &mut ClientConn, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
    conn.request_with_headers("POST", path, &[("Content-Type", "application/json")], body)
}

/// True when the server acknowledged exactly the records sent, shedding none.
fn fully_acked(response: &ClientResponse, sent: usize) -> bool {
    response.status == 200
        && serde_json::from_str::<IngestResponse>(&response.body_str())
            .is_ok_and(|ack| ack.accepted == sent as u64 && ack.shed == 0)
}

/// Run `ops` serially on one connection, timing each request from the client.
/// With a `trigger`, the send time of every POST the probe sits beside goes to
/// the probing thread first.
fn run_ops(
    plan: &Plan,
    conn: &mut ClientConn,
    ops: &[Op],
    round: &mut Round,
    session: &mut Session,
    parent: SpanId,
    trigger: Option<&Sender<Instant>>,
) -> io::Result<()> {
    for (idx, op) in ops.iter().enumerate() {
        match *op {
            Op::Ingest { tenant, post: p } => {
                let target = &plan.tenants[tenant];
                let sent = target.posts[p].records.len();
                let span = session
                    .tracer
                    .begin("client.ingest", Some(parent), idx as u64);
                let started = Instant::now();
                if let Some(trigger) = trigger.filter(|_| plan.probe_beside(tenant)) {
                    // The prober has not hung up: it outlives this loop.
                    let _ = trigger.send(started);
                }
                let response = post(conn, &target.ingest_path, &target.posts[p].body)?;
                let ended = Instant::now();
                let elapsed = (ended - started).as_secs_f64();
                session.tracer.end(span);
                let ok = fully_acked(&response, sent);
                session.tally.count(ok);
                round.ingest_ms.push(elapsed * 1e3);
                round.ingest_at.push((tenant, started, ended));
                round.ingest_by_tenant[tenant].0 += elapsed;
                round.ingest_by_tenant[tenant].1 += if ok { sent as u64 } else { 0 };
            }
            Op::Query { tenant, shape } => {
                let span = session
                    .tracer
                    .begin("client.query", Some(parent), idx as u64);
                let started = Instant::now();
                let path = &plan.tenants[tenant].query_path;
                let response = post(conn, path, &plan.shapes[shape].body)?;
                let elapsed = started.elapsed().as_secs_f64();
                session.tracer.end(span);
                session.tally.count(response.status == 200);
                round.query_ms.push(elapsed * 1e3);
            }
        }
    }
    Ok(())
}

struct ProbeSample {
    due: Instant,
    start: Instant,
    end: Instant,
    ok: bool,
}

/// The probing thread's body: one query per trigger, until the writer hangs up.
fn run_probe(
    probe: &Probe,
    delay: Duration,
    plan: &Plan,
    conn: &mut ClientConn,
    triggers: Receiver<Instant>,
) -> io::Result<Vec<ProbeSample>> {
    let path = &plan.tenants[probe.tenant].query_path;
    let mut samples = Vec::new();
    for (k, post_sent) in triggers.iter().enumerate() {
        let shape = probe.shapes[k % probe.shapes.len()];
        let due = post_sent + delay;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let start = Instant::now();
        let response = post(conn, path, &plan.shapes[shape].body)?;
        samples.push(ProbeSample {
            due,
            start,
            end: Instant::now(),
            ok: response.status == 200,
        });
    }
    Ok(samples)
}

/// Ask a live server for its [`Answers`].
fn server_answers(plan: &Plan, conn: &mut ClientConn, tally: &mut Tally) -> io::Result<Answers> {
    let mut query = |conn: &mut ClientConn, tenant: &Tenant, shape: &Shape| {
        let response = post(conn, &tenant.query_path, &shape.body)?;
        tally.count(response.status == 200);
        io::Result::Ok(response.body_str())
    };
    let mut answers = Answers::new();
    for tenant in &plan.tenants {
        let stats = conn.request("GET", &tenant.stats_path, &[])?;
        let shapes = plan
            .shapes
            .iter()
            .map(|shape| query(conn, tenant, shape))
            .collect::<io::Result<_>>()?;
        answers.push(TenantAnswers {
            stats: stats.body_str(),
            shapes,
            grouping: query(conn, tenant, &ga_shape())?,
        });
    }
    Ok(answers)
}

/// The same [`Answers`], computed by direct library calls on a manager. A missing
/// topic answers with empty strings, which no server response equals.
pub fn library_answers(plan: &Plan, manager: &ServiceManager) -> Answers {
    let execute = |tenant: &Tenant, shape: &Shape| {
        manager
            .execute(tenant.name, TOPIC, &shape.plan)
            .map_or_else(String::new, |value| api::query_value_to_json(&value))
    };
    plan.tenants
        .iter()
        .map(|tenant| TenantAnswers {
            stats: manager
                .topic(tenant.name, TOPIC)
                .map_or_else(String::new, |topic| {
                    serde_json::to_string(&StatsResponse::from_stats(&topic.stats()))
                        .expect("stats render")
                }),
            shapes: plan
                .shapes
                .iter()
                .map(|shape| execute(tenant, shape))
                .collect(),
            grouping: execute(tenant, &ga_shape()),
        })
        .collect()
}

/// Grouping accuracy of a grouping response against the generator's labels,
/// averaged over tenants. A record no group lists is its own group.
pub fn grouping_accuracy(plan: &Plan, answers: &Answers) -> Result<f64, String> {
    let mut total = 0.0;
    for (tenant, answer) in answers.iter().enumerate() {
        let truth = plan.labels_in_ingest_order(tenant);
        let parsed = serde_json::parse_value(&answer.grouping).map_err(|e| e.to_string())?;
        let Some(Value::Array(groups)) = parsed.get("groups") else {
            return Err("grouping response has no groups".to_string());
        };
        let mut predicted: Vec<usize> = (0..truth.len()).map(|i| groups.len() + i).collect();
        for (group, entry) in groups.iter().enumerate() {
            let Some(Value::Array(indices)) = entry.get("record_indices") else {
                return Err("group without record_indices".to_string());
            };
            for index in indices {
                match index {
                    Value::UInt(i) if (*i as usize) < truth.len() => predicted[*i as usize] = group,
                    other => return Err(format!("bad record index {other:?}")),
                }
            }
        }
        total += eval::grouping_accuracy(&predicted, &truth);
    }
    Ok(total / answers.len().max(1) as f64)
}

/// Shed share over the server's lifetime, from its own `/metrics` counters.
fn shed_ratio(conn: &mut ClientConn) -> io::Result<f64> {
    let body = conn.request("GET", "/metrics", &[])?.body_str();
    let parsed = serde_json::parse_value(&body).map_err(io::Error::other)?;
    let (mut admitted, mut shed) = (0u64, 0u64);
    if let Some(Value::Object(tenants)) = parsed.get("tenants") {
        for (_, fields) in tenants {
            if let Some(Value::UInt(n)) = fields.get("admitted_batches") {
                admitted += n;
            }
            if let Some(Value::UInt(n)) = fields.get("shed_batches") {
                shed += n;
            }
        }
    }
    Ok(shed as f64 / (admitted + shed).max(1) as f64)
}

/// One round: fresh server, set-up, timed window, answers, stop.
pub fn run_round(
    plan: &Plan,
    server_cpus: usize,
    root: Option<&Path>,
    session: &mut Session,
    round_id: u64,
) -> io::Result<Round> {
    let empty = || Round {
        ingest_by_tenant: vec![(0.0, 0); plan.tenants.len()],
        ..Round::default()
    };
    let (mut round, mut unreported) = (empty(), empty());
    if let Some(root) = root {
        let _ = std::fs::remove_dir_all(root);
    }
    let round_span = session.tracer.begin("round", None, round_id);

    // --- set-up: every call into the program before the window opens ---------------
    let setup_span = session.tracer.begin("setup", Some(round_span), round_id);
    let setup_started = Instant::now();
    let mut server = ServerChild::spawn(&plan.spec(root, false), server_cpus)?;
    let mut conn = ClientConn::connect(server.addr())?;
    run_ops(
        plan,
        &mut conn,
        &plan.build,
        &mut unreported,
        session,
        setup_span,
        None,
    )?;
    if plan.recover {
        drop(conn);
        server.stop()?;
        server = ServerChild::spawn(&plan.spec(root, true), server_cpus)?;
        conn = ClientConn::connect(server.addr())?;
    }
    run_ops(
        plan,
        &mut conn,
        &plan.warm,
        &mut unreported,
        session,
        setup_span,
        None,
    )?;
    let mut probe_conn = match &plan.probe {
        Some(probe) => {
            let mut second = ClientConn::connect(server.addr())?;
            let warm = second.request("GET", "/healthz", &[])?;
            session.tally.count(warm.status == 200);
            let fastest = unreported
                .ingest_at
                .iter()
                .filter(|(tenant, _, _)| *tenant == probe.beside)
                .map(|(_, sent, done)| *done - *sent)
                .min()
                .expect("a probed tenant takes warm-up POSTs");
            round.probe_delay_ms = fastest.as_secs_f64() * 1e3 * probe.phase;
            Some(second)
        }
        None => None,
    };
    let probe_delay = Duration::from_secs_f64(round.probe_delay_ms / 1e3);
    round.setup_s = setup_started.elapsed().as_secs_f64();
    session.tracer.end(setup_span);

    // --- the timed window ------------------------------------------------------------
    let window_span = session.tracer.begin("window", Some(round_span), round_id);
    let origin = Instant::now();
    let probed = std::thread::scope(|scope| -> io::Result<Vec<ProbeSample>> {
        let (trigger, triggers) = channel();
        let prober = match (&plan.probe, probe_conn.as_mut()) {
            (Some(probe), Some(conn)) => {
                Some(scope.spawn(move || run_probe(probe, probe_delay, plan, conn, triggers)))
            }
            _ => None,
        };
        let trigger_ref = prober.as_ref().map(|_| &trigger);
        let ingest = run_ops(
            plan,
            &mut conn,
            &plan.window,
            &mut round,
            session,
            window_span,
            trigger_ref,
        );
        drop(trigger);
        let probed = match prober {
            Some(handle) => handle.join().expect("probe thread panicked")?,
            None => Vec::new(),
        };
        ingest.map(|()| probed)
    })?;
    round.window_s = origin.elapsed().as_secs_f64();
    session.tracer.end(window_span);
    for (k, sample) in probed.iter().enumerate() {
        session.tally.count(sample.ok);
        let (start, end) = (sample.start, sample.end);
        session
            .tracer
            .record("client.query", Some(window_span), k as u64, start, end);
        let ms =
            |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e3;
        round.query_ms.push(ms(start, end));
        round.lateness_ms.push(ms(sample.due, start));
    }
    if let Some(probe) = &plan.probe {
        let besides = round
            .ingest_at
            .iter()
            .filter(|(tenant, _, _)| *tenant == probe.beside);
        round.probe_met = probed
            .iter()
            .zip(besides)
            .map(|(sample, (_, sent, done))| {
                sample.start < *done && sample.end > *sent + (*done - *sent) / 2
            })
            .collect();
    }

    // --- after the window: answers, costs, stop --------------------------------------
    round.answers = server_answers(plan, &mut conn, &mut session.tally)?;
    for _ in 0..200 {
        let started = Instant::now();
        let response = conn.request("GET", "/healthz", &[])?;
        round
            .roundtrip_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        session.tally.count(response.status == 200);
    }
    round.shed_ratio = shed_ratio(&mut conn)?;
    round.usage = server.usage();
    drop(conn);
    drop(probe_conn);
    server.stop()?;
    session.tracer.end(round_span);
    Ok(round)
}

/// What the library twin measured while replaying the scripts.
#[derive(Debug, Default)]
pub struct TwinLog {
    /// `(seconds, records, trained)` per window ingest op.
    pub ingest: Vec<(f64, usize, bool)>,
    /// `(shape, seconds)` per window query op.
    pub query: Vec<(usize, f64)>,
    /// Window records no template matched when they arrived.
    pub unmatched: usize,
    /// Seconds `ServiceManager::open` took (recovering workloads only).
    pub reopen_s: Option<f64>,
    pub records_at_reopen: u64,
}

/// Drive a library twin through the same scripts the server received: ingests go
/// through `server::apply_batch` under the server's own engine configuration,
/// queries through `ServiceManager::execute`. Returns the twin in its end state.
pub fn run_twin(
    plan: &Plan,
    root: Option<&Path>,
    tally: &mut Tally,
) -> io::Result<(ServiceManager, TwinLog)> {
    if let Some(root) = root {
        let _ = std::fs::remove_dir_all(root);
    }
    let engine = server_config().engine;
    let mut log = TwinLog::default();
    let mut manager = plan.spec(root, false).build_manager()?;
    let mut replay = |manager: &mut ServiceManager, ops: &[Op], log: Option<&mut TwinLog>| {
        let mut log = log;
        for op in ops {
            match *op {
                Op::Ingest { tenant, post } => {
                    let records = plan.tenants[tenant].records_of(post).to_vec();
                    let sent = records.len();
                    let started = Instant::now();
                    let applied =
                        apply_batch(manager, plan.tenants[tenant].name, TOPIC, records, &engine);
                    let elapsed = started.elapsed().as_secs_f64();
                    let accepted = applied.outcome.matched + applied.outcome.unmatched;
                    tally.count(applied.shed == 0 && accepted == sent);
                    if let Some(log) = log.as_deref_mut() {
                        log.ingest.push((elapsed, sent, applied.outcome.trained));
                        log.unmatched += applied.outcome.unmatched;
                    }
                }
                Op::Query { tenant, shape } => {
                    let started = Instant::now();
                    let value =
                        manager.execute(plan.tenants[tenant].name, TOPIC, &plan.shapes[shape].plan);
                    let elapsed = started.elapsed().as_secs_f64();
                    tally.count(value.is_some());
                    if let Some(log) = log.as_deref_mut() {
                        log.query.push((shape, elapsed));
                    }
                }
            }
        }
    };
    replay(&mut manager, &plan.build, None);
    if plan.recover {
        drop(manager);
        let started = Instant::now();
        manager = plan.spec(root, true).build_manager()?;
        log.reopen_s = Some(started.elapsed().as_secs_f64());
        log.records_at_reopen = manager.fleet_stats().total_records;
    }
    replay(&mut manager, &plan.warm, None);
    replay(&mut manager, &plan.window_as_executed(), Some(&mut log));
    Ok((manager, log))
}

/// Records a stopped server left under `root`, counted by recovering them.
pub fn reopened_records(plan: &Plan, root: &Path) -> io::Result<u64> {
    Ok(plan
        .spec(Some(root), true)
        .build_manager()?
        .fleet_stats()
        .total_records)
}

/// Total records the scripts ingest into all tenants.
pub fn scripted_records(plan: &Plan) -> u64 {
    (0..plan.tenants.len())
        .map(|t| plan.labels_in_ingest_order(t).len() as u64)
        .sum()
}
