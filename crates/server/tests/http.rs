//! Loopback integration suite: the HTTP front end against real sockets.
//!
//! The centrepiece is the **differential** contract: every endpoint's response body
//! must be byte-identical to what the equivalent direct `ServiceManager` call
//! produces, with the twin manager driven through `server::apply_batch` — the exact
//! function the server's engine thread runs. On top of that: quota sheds (429 →
//! recovery), two-tenant fairness under a saturating flood, graceful shutdown with
//! zero admitted-record loss on a durable root, and the periodic maintenance tick.

use minihttp::ClientConn;
use server::{apply_batch, serve, EngineConfig, ServerConfig};
use service::api::{self, IngestRequest, IngestResponse, StatsResponse};
use service::{AdmissionConfig, IngestConfig, ServiceManager, StorageConfig, TenantQuota};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bytebrain::{Predicate, Query};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bb-server-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    dir
}

fn lines(tenant: &str, start: usize, n: usize) -> Vec<String> {
    (start..start + n)
        .map(|i| {
            format!(
                "{} job {} finished on host node-{:02} in {}ms",
                tenant,
                i,
                i % 16,
                i % 700
            )
        })
        .collect()
}

fn ingest_body(records: &[String]) -> String {
    serde_json::to_string(&IngestRequest {
        records: records.to_vec(),
    })
    .expect("render ingest request")
}

fn query_body(topic: &str, query: &Query) -> String {
    format!(
        "{{\"topic\":{},\"query\":{}}}",
        serde_json::to_string(&topic.to_string()).unwrap(),
        api::query_to_json(query)
    )
}

/// POST helper returning (status, body).
fn post(client: &mut ClientConn, path: &str, body: &str) -> (u16, String) {
    let response = client
        .request_with_headers(
            "POST",
            path,
            &[("Content-Type", "application/json")],
            body.as_bytes(),
        )
        .expect("request round-trips");
    (response.status, response.body_str())
}

fn get(client: &mut ClientConn, path: &str) -> (u16, String) {
    let response = client
        .request("GET", path, b"")
        .expect("request round-trips");
    (response.status, response.body_str())
}

#[test]
fn healthz_and_unknown_routes() {
    let server = serve(ServiceManager::new(), ServerConfig::default()).expect("serve");
    let mut client = ClientConn::connect(server.addr()).unwrap();
    let (status, body) = get(&mut client, "/healthz");
    assert_eq!((status, body.as_str()), (200, r#"{"status":"ok"}"#));
    let (status, _) = get(&mut client, "/nope");
    assert_eq!(status, 404);
    let (status, _) = post(&mut client, "/healthz", "{}");
    assert_eq!(status, 405);
    let (status, body) = post(&mut client, "/v1/t/q/ingest", "not json");
    assert_eq!(status, 400, "{body}");
    server.shutdown();
}

/// Every endpoint response, byte for byte, against a twin manager driven through
/// the identical `apply_batch` path — including a repeated (plan-cache-hit) query.
#[test]
fn loopback_differential_is_byte_identical() {
    let engine = EngineConfig {
        stream_threshold: 1_024,
        ..EngineConfig::default()
    };
    let config = ServerConfig {
        engine: engine.clone(),
        ..ServerConfig::default()
    };
    let server = serve(ServiceManager::new(), config).expect("serve");
    let addr = server.addr();

    // Two tenants ingest concurrently over real sockets; each tenant's own request
    // stream is serial, so its topic state is deterministic regardless of how the
    // engine interleaves tenants.
    let tenants = ["acme", "globex"];
    let handles: Vec<_> = tenants
        .iter()
        .map(|tenant| {
            let tenant = tenant.to_string();
            std::thread::spawn(move || {
                let mut client = ClientConn::connect(addr).unwrap();
                let mut bodies = Vec::new();
                // Mixed batch sizes: 300 (batch path) and 2_000 (streaming path).
                for (start, n) in [(0, 300), (300, 2_000), (2_300, 300)] {
                    let records = lines(&tenant, start, n);
                    let (status, body) = post(
                        &mut client,
                        &format!("/v1/{tenant}/events/ingest"),
                        &ingest_body(&records),
                    );
                    assert_eq!(status, 200, "{body}");
                    bodies.push(body);
                }
                bodies
            })
        })
        .collect();
    let response_bodies: Vec<Vec<String>> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    // Twin manager: identical records through the identical apply path.
    let mut twin = ServiceManager::new();
    for (t, tenant) in tenants.iter().enumerate() {
        for ((start, n), served_body) in [(0, 300), (300, 2_000), (2_300, 300)]
            .into_iter()
            .zip(&response_bodies[t])
        {
            let applied = apply_batch(
                &mut twin,
                tenant,
                "events",
                lines(tenant, start, n),
                &engine,
            );
            assert_eq!(applied.shed, 0);
            let expected =
                serde_json::to_string(&IngestResponse::from_outcome(&applied.outcome)).unwrap();
            assert_eq!(
                served_body, &expected,
                "ingest response diverged for tenant {tenant}"
            );
        }
    }

    // Queries: every aggregate kind, nested predicates, and a repeated query so the
    // second hit is served by the plan/result cache — still byte-identical.
    let queries = vec![
        Query::group_by(),
        Query::top_k(3).filter(Predicate::template_matches("job <*> finished")),
        Query::distribution().at_threshold(0.3),
        Query::count_distinct().filter(Predicate::Or(vec![
            Predicate::variable_contains("node-03"),
            Predicate::TimeWindow { start: 0, end: 500 },
        ])),
        Query::group_by(), // repeat: plan-cache + result-cache hit
    ];
    let mut client = ClientConn::connect(addr).unwrap();
    for tenant in &tenants {
        for query in &queries {
            let (status, served) = post(
                &mut client,
                &format!("/v1/{tenant}/query"),
                &query_body("events", query),
            );
            assert_eq!(status, 200, "{served}");
            let plan = query.clone().plan().expect("plannable");
            let direct = twin
                .execute(tenant, "events", &plan)
                .expect("twin topic exists");
            assert_eq!(
                served,
                api::query_value_to_json(&direct),
                "query response diverged for tenant {tenant}: {query:?}"
            );
        }
    }

    // Stats endpoint vs the twin's stats.
    for tenant in &tenants {
        let (status, served) = get(&mut client, &format!("/v1/{tenant}/events/stats"));
        assert_eq!(status, 200);
        let direct = twin.topic(tenant, "events").expect("twin topic").stats();
        let expected = serde_json::to_string(&StatsResponse::from_stats(&direct)).unwrap();
        assert_eq!(served, expected, "stats diverged for tenant {tenant}");
    }

    // Unknown topics 404 on both query and stats.
    let (status, _) = post(
        &mut client,
        "/v1/acme/query",
        &query_body("ghost", &queries[0]),
    );
    assert_eq!(status, 404);
    let (status, _) = get(&mut client, "/v1/acme/ghost/stats");
    assert_eq!(status, 404);

    server.shutdown();
}

#[test]
fn quota_exhaustion_returns_429_then_recovers() {
    let quota = TenantQuota::default().with_rate(1_000.0).with_burst(500);
    let config = ServerConfig {
        admission: AdmissionConfig::default().with_tenant_quota("metered", quota),
        ..ServerConfig::default()
    };
    let server = serve(ServiceManager::new(), config).expect("serve");
    let mut client = ClientConn::connect(server.addr()).unwrap();

    // Burst of 500 is admitted; the immediate follow-up is shed.
    let (status, body) = post(
        &mut client,
        "/v1/metered/logs/ingest",
        &ingest_body(&lines("metered", 0, 500)),
    );
    assert_eq!(status, 200, "{body}");
    let (status, body) = post(
        &mut client,
        "/v1/metered/logs/ingest",
        &ingest_body(&lines("metered", 500, 400)),
    );
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("rate limited"), "{body}");
    assert!(body.contains("retry_after_ms"), "{body}");
    let shed_response = client
        .request("GET", "/metrics", b"")
        .expect("metrics round-trips");
    assert!(
        shed_response.body_str().contains("\"shed_batches\":1"),
        "{}",
        shed_response.body_str()
    );

    // 400 records at 1000/s refill in 400ms; wait a little longer, then recover.
    std::thread::sleep(Duration::from_millis(600));
    let (status, body) = post(
        &mut client,
        "/v1/metered/logs/ingest",
        &ingest_body(&lines("metered", 500, 400)),
    );
    assert_eq!(status, 200, "refilled bucket must admit again: {body}");

    // The 429 carried a Retry-After header.
    let response = client
        .request_with_headers(
            "POST",
            "/v1/metered/logs/ingest",
            &[("Content-Type", "application/json")],
            ingest_body(&lines("metered", 900, 2_000)).as_bytes(),
        )
        .unwrap();
    assert_eq!(response.status, 429);
    assert!(
        response.header("Retry-After").is_some(),
        "429 must carry Retry-After"
    );
    server.shutdown();
}

/// Percent-escapes abutting multibyte UTF-8 path chars must not take down HTTP
/// workers: more such requests than the worker pool holds, then normal service.
#[test]
fn multibyte_percent_paths_do_not_kill_the_server() {
    let server = serve(ServiceManager::new(), ServerConfig::default()).expect("serve");
    for _ in 0..6 {
        let mut client = ClientConn::connect(server.addr()).unwrap();
        let (status, body) = post(&mut client, "/v1/%aé/query", "{}");
        assert_eq!(status, 400, "{body}");
    }
    let mut client = ClientConn::connect(server.addr()).unwrap();
    let (status, _) = get(&mut client, "/healthz");
    assert_eq!(status, 200, "server must still be serving");
    server.shutdown();
}

/// A batch that alone exceeds its tenant's in-flight byte bound can never be
/// admitted: it must be a permanent 413, not a 429 the client retries forever.
#[test]
fn oversized_batch_is_rejected_with_413_not_429() {
    let quota = TenantQuota::default().with_max_in_flight_bytes(1_000);
    let config = ServerConfig {
        admission: AdmissionConfig::default().with_tenant_quota("capped", quota),
        ..ServerConfig::default()
    };
    let server = serve(ServiceManager::new(), config).expect("serve");
    let mut client = ClientConn::connect(server.addr()).unwrap();
    let response = client
        .request_with_headers(
            "POST",
            "/v1/capped/logs/ingest",
            &[("Content-Type", "application/json")],
            ingest_body(&["x".repeat(2_000)]).as_bytes(),
        )
        .expect("request round-trips");
    assert_eq!(response.status, 413, "{}", response.body_str());
    assert!(
        response.header("Retry-After").is_none(),
        "a permanent rejection must not invite a retry"
    );
    // A batch that fits is still served normally.
    let (status, body) = post(
        &mut client,
        "/v1/capped/logs/ingest",
        &ingest_body(&lines("capped", 0, 5)),
    );
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

/// When the engine sheds a suffix of an admitted batch, the committed prefix must
/// be reported as a 200 with accepted/shed counts — not a 429 that tricks the
/// client into resending (and duplicating) the already-committed prefix.
#[test]
fn engine_shed_reports_committed_prefix_as_success() {
    let engine = EngineConfig {
        // A 1-slot, 1-worker pool with zero wait: once the first big batch is in
        // flight, the very next push finds the slot occupied (matching 256 long
        // records far outlasts one buffer append) and the remainder is shed.
        ingest: IngestConfig::default()
            .with_workers(1)
            .with_max_in_flight(1)
            .with_batch_records(256),
        stream_threshold: 8,
        engine_wait: Duration::ZERO,
    };
    let server = serve(
        ServiceManager::new(),
        ServerConfig {
            engine,
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let mut client = ClientConn::connect(server.addr()).unwrap();
    let make = |start: u64, n: u64| -> Vec<String> {
        (start..start + n)
            .map(|i| format!("job {i} finished with payload {}", "word ".repeat(200)))
            .collect()
    };
    // Prime the topic: an empty model bypasses the streaming engine entirely, so
    // train it first with a plain batch.
    let (status, body) = post(
        &mut client,
        "/v1/t/logs/ingest",
        &ingest_body(&make(0, 300)),
    );
    assert_eq!(status, 200, "{body}");
    let primed: IngestResponse = serde_json::from_str(&body).expect("prime body");

    let total = 5_000u64;
    let (status, body) = post(
        &mut client,
        "/v1/t/logs/ingest",
        &ingest_body(&make(300, total)),
    );
    assert_eq!(status, 200, "partial application is a success: {body}");
    let parsed: IngestResponse = serde_json::from_str(&body).expect("success-shaped body");
    assert!(parsed.shed > 0, "saturated 1-slot pool must shed: {body}");
    assert_eq!(parsed.accepted + parsed.shed, total, "{body}");
    // The accepted count is exactly what was committed: resending the last `shed`
    // records (and only those) reconstructs the full batch without duplicates.
    let (status, stats_body) = get(&mut client, "/v1/t/logs/stats");
    assert_eq!(status, 200);
    let stats: StatsResponse = serde_json::from_str(&stats_body).expect("stats body");
    assert_eq!(
        stats.total_records,
        primed.accepted + parsed.accepted,
        "{stats_body}"
    );
    server.shutdown();
}

/// Under a saturating two-tenant workload, the rate-limited tenant sheds with 429s
/// while the in-quota tenant's ingest throughput stays within 20% of its solo rate.
#[test]
fn fair_share_isolates_the_in_quota_tenant() {
    let flood_quota = TenantQuota::default().with_rate(200.0).with_burst(200);
    let admission = AdmissionConfig::default().with_tenant_quota("flood", flood_quota);
    let payload_batches: Vec<Vec<String>> =
        (0..12).map(|i| lines("steady", i * 2_000, 2_000)).collect();

    let run_steady = |addr: std::net::SocketAddr| -> Duration {
        let mut client = ClientConn::connect(addr).unwrap();
        let started = Instant::now();
        for batch in &payload_batches {
            let (status, body) = post(&mut client, "/v1/steady/logs/ingest", &ingest_body(batch));
            assert_eq!(status, 200, "steady tenant must never shed: {body}");
        }
        started.elapsed()
    };

    // Solo baseline.
    let solo_server = serve(
        ServiceManager::new(),
        ServerConfig {
            admission: admission.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("serve solo");
    let solo = run_steady(solo_server.addr());
    solo_server.shutdown();

    // Contended run: "flood" hammers past its quota the whole time.
    let contended_server = serve(
        ServiceManager::new(),
        ServerConfig {
            admission,
            ..ServerConfig::default()
        },
    )
    .expect("serve contended");
    let addr = contended_server.addr();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flood_handle = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = ClientConn::connect(addr).unwrap();
            let batch = ingest_body(&lines("flood", 0, 50));
            let mut sheds = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let (status, _) = post(&mut client, "/v1/flood/logs/ingest", &batch);
                if status == 429 {
                    sheds += 1;
                }
                // Paced flood: saturates the 200 rec/s quota many times over
                // without monopolizing the single-core container's CPU.
                std::thread::sleep(Duration::from_millis(10));
            }
            sheds
        })
    };
    let contended = run_steady(addr);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let sheds = flood_handle.join().expect("flood thread");
    contended_server.shutdown();

    assert!(
        sheds > 0,
        "the flooding tenant must have been shed at least once"
    );
    let ratio = contended.as_secs_f64() / solo.as_secs_f64();
    assert!(
        ratio <= 1.25,
        "in-quota tenant slowed by more than 20% under flood: solo {solo:?}, contended {contended:?} (ratio {ratio:.2})"
    );
}

/// Graceful shutdown on a durable root: every record a 200 response admitted is on
/// disk after reopen; nothing is lost in the HTTP or engine queues.
#[test]
fn graceful_shutdown_loses_zero_admitted_records() {
    let root = scratch_dir("drain");
    let manager = ServiceManager::durable(&root, StorageConfig::default()).expect("durable");
    let server = serve(manager, ServerConfig::default()).expect("serve");
    let addr = server.addr();

    // Concurrent clients keep batches moving right up to the shutdown call.
    let handles: Vec<_> = (0..3)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = ClientConn::connect(addr).unwrap();
                let mut accepted = 0u64;
                for b in 0..6 {
                    let records = lines("dur", (c * 6 + b) * 250, 250);
                    let (status, body) =
                        post(&mut client, "/v1/dur/audit/ingest", &ingest_body(&records));
                    if status == 200 {
                        let parsed: IngestResponse = serde_json::from_str(&body).unwrap();
                        accepted += parsed.accepted;
                    }
                }
                accepted
            })
        })
        .collect();
    let accepted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(accepted, 3 * 6 * 250, "open quotas admit everything");

    // Shutdown returns the drained manager; its state must already be complete...
    let manager = server.shutdown();
    let live_stats = manager.topic("dur", "audit").expect("topic exists").stats();
    assert_eq!(live_stats.total_records, accepted);
    drop(manager);

    // ...and so must the durable copy, after a cold reopen.
    let reopened = ServiceManager::open(&root).expect("reopen");
    let stats = reopened
        .topic("dur", "audit")
        .expect("recovered topic")
        .stats();
    assert_eq!(
        stats.total_records, accepted,
        "recovered topic must hold every admitted record"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn maintenance_tick_runs_periodically() {
    let root = scratch_dir("tick");
    let manager = ServiceManager::durable(&root, StorageConfig::default()).expect("durable");
    let config = ServerConfig {
        maintenance_interval: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    };
    let server = serve(manager, config).expect("serve");
    let mut client = ClientConn::connect(server.addr()).unwrap();
    let (status, _) = post(
        &mut client,
        "/v1/t/logs/ingest",
        &ingest_body(&lines("t", 0, 200)),
    );
    assert_eq!(status, 200);
    let deadline = Instant::now() + Duration::from_secs(5);
    let ticks = loop {
        let (status, body) = get(&mut client, "/metrics");
        assert_eq!(status, 200);
        let value = serde_json::parse_value(&body).expect("metrics is JSON");
        let ticks = match value.get("maintenance_ticks") {
            Some(serde::Value::UInt(n)) => *n,
            other => panic!("bad maintenance_ticks: {other:?}"),
        };
        if ticks >= 2 || Instant::now() > deadline {
            break ticks;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(ticks >= 2, "tick thread must have run repeatedly: {ticks}");
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
