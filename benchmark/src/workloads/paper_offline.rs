//! `paper_offline` — the paper's own protocol, library only, one thread.
//!
//! For each of the 14 LogHub-2.0 families: train a fresh `ByteBrainParser` on the
//! family's records, match every record back in 512-record batches, then re-resolve
//! the assignments at ten saturation thresholds (the query-time precision sweep).
//!
//! *Why:* training — `logtok` preprocess/dedup/hash-encode plus `bytebrain`
//! clustering — is nearly all of the time, and no service layer runs at all: HTTP,
//! admission, storage and the stream engine do nothing here, so an optimisation of
//! any of them must read "no change" on this workload.

use super::{noise_notes, pin_verdict, write_trace, EndToEnd, Floors, Report, RunArgs};
use crate::corpus::{loghub2_family, Corpus};
use crate::hostspeed::HostSpeed;
use crate::ledger;
use crate::stats::{floor, mean, median, min};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::http::GA_THRESHOLD;
use bytebrain::{resolve_with_threshold, ByteBrainParser, NodeId, TrainConfig};
use datasets::loghub2_dataset_names;
use std::hint::black_box;
use std::time::Instant;

/// A library has no process to set up, so rounds can be short and many, which is
/// what steadies a floor: this workload runs four timed rounds for every round an
/// HTTP workload runs.
const ROUNDS_PER_HTTP_ROUND: usize = 4;
/// Set-up is this many untimed rounds back to back: page-in, allocator growth,
/// regex compilation, and two more passes until the times stop falling.
const WARMUP_ROUNDS: usize = 3;
/// Set-ups per run; the faster is `setup_s`.
const SETUPS: usize = 2;
/// Records per family: two match batches.
const FAMILY_RECORDS: usize = 1_024;
/// Records per match batch: the ingest call — and ingest cycle — of this workload.
pub const BATCH_RECORDS: usize = 512;
/// Threshold sweeps per family per round; a sweep is the query cycle.
const SWEEP_PASSES: usize = 5;
/// Fewest batches / sweeps the latency medians may be taken over.
const FLOORS: Floors = Floors::new(28, 70);
const SWEEP_THRESHOLDS: [f64; 10] = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95];

/// What one round over all families measured. Every vector has the same layout in
/// every round, so rounds can be floored position by position.
#[derive(Debug, Default)]
struct Round {
    wall_s: f64,
    /// Per family.
    train_ms: Vec<f64>,
    /// Batch-major: batch 0 of every family, then batch 1 of every family, …
    batch_ms: Vec<f64>,
    /// Pass-major: pass 0 over every family, then pass 1, …
    sweep_ms: Vec<f64>,
    accuracy: f64,
    unmatched: u64,
}

impl Round {
    fn ingest_seconds(&self) -> f64 {
        (self.train_ms.iter().sum::<f64>() + self.batch_ms.iter().sum::<f64>()) / 1e3
    }
}

fn run_round(families: &[Corpus], tracer: &mut Tracer, round_id: u64) -> Round {
    let started = Instant::now();
    let mut round = Round::default();
    let round_span = tracer.begin("round", None, round_id);
    let mut assignments: Vec<(ByteBrainParser, Vec<NodeId>)> = Vec::new();
    let mut batch_ms: Vec<Vec<f64>> = Vec::new();
    for (f, family) in families.iter().enumerate() {
        let mut parser = ByteBrainParser::new(TrainConfig::default().with_parallelism(1));
        let span = tracer.begin("parser.train", Some(round_span), f as u64);
        let train_started = Instant::now();
        parser.train(&family.records);
        round
            .train_ms
            .push(train_started.elapsed().as_secs_f64() * 1e3);
        tracer.end(span);

        let mut nodes = Vec::with_capacity(family.len());
        let mut family_ms = Vec::new();
        for batch in family.records.chunks(BATCH_RECORDS) {
            let span = tracer.begin("parser.match_batch", Some(round_span), f as u64);
            let batch_started = Instant::now();
            let results = parser.match_batch(batch);
            family_ms.push(batch_started.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
            for result in results {
                round.unmatched += u64::from(result.node.is_none());
                // An unmatched record keeps no node; give it one no other record has.
                nodes.push(result.node.unwrap_or(NodeId(usize::MAX - nodes.len())));
            }
        }
        batch_ms.push(family_ms);
        assignments.push((parser, nodes));
    }
    for batch in 0..batch_ms[0].len() {
        round
            .batch_ms
            .extend(batch_ms.iter().map(|family| family[batch]));
    }
    for _ in 0..SWEEP_PASSES {
        for (f, (parser, nodes)) in assignments.iter().enumerate() {
            let span = tracer.begin("query.sweep", Some(round_span), f as u64);
            let sweep_started = Instant::now();
            for threshold in SWEEP_THRESHOLDS {
                black_box(resolve_all(parser, nodes, threshold));
            }
            round
                .sweep_ms
                .push(sweep_started.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
        }
    }
    let accuracies: Vec<f64> = assignments
        .iter()
        .zip(families)
        .map(|((parser, nodes), family)| {
            eval::grouping_accuracy(&resolve_all(parser, nodes, GA_THRESHOLD), &family.labels)
        })
        .collect();
    round.accuracy = mean(&accuracies);
    tracer.end(round_span);
    round.wall_s = started.elapsed().as_secs_f64();
    round
}

/// Group id of every record at `threshold`.
fn resolve_all(parser: &ByteBrainParser, nodes: &[NodeId], threshold: f64) -> Vec<usize> {
    let model = parser.model();
    nodes
        .iter()
        .map(|&node| match model.node(node) {
            Some(_) => resolve_with_threshold(model, node, threshold).0,
            None => node.0,
        })
        .collect()
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let nproc = sys::nproc();
    let pinned = sys::pin(0, nproc - 1..nproc);
    let families: Vec<Corpus> = loghub2_dataset_names()
        .iter()
        .enumerate()
        .map(|(i, name)| loghub2_family(name, FAMILY_RECORDS, args.seeds().salted(0xF0 + i as u64)))
        .collect();
    let total_records: usize = families.iter().map(Corpus::len).sum();

    let mut report = Report::default();
    report.notes.push(format!(
        "# pinning: one thread on cpu {} ({}); {} families x {FAMILY_RECORDS} records, mean {:.1} bytes",
        nproc - 1,
        pin_verdict(pinned),
        families.len(),
        mean(&families.iter().map(Corpus::mean_record_bytes).collect::<Vec<_>>()),
    ));
    let mut tracer = Tracer::new(false);

    let mut host = HostSpeed::new(nproc - 1..nproc);
    let warm: Vec<Round> = (0..SETUPS * WARMUP_ROUNDS)
        .map(|r| {
            if r % WARMUP_ROUNDS == 0 {
                host.sample();
            }
            run_round(&families, &mut tracer, r as u64)
        })
        .collect();
    let setups: Vec<f64> = warm
        .chunks(WARMUP_ROUNDS)
        .map(|setup| setup.iter().map(|r| r.wall_s).sum())
        .collect();
    let rounds: Vec<Round> = (0..ROUNDS_PER_HTTP_ROUND * args.rounds())
        .map(|r| {
            host.sample();
            tracer.set_enabled(args.trace && r % 2 == 1);
            run_round(&families, &mut tracer, (warm.len() + r) as u64)
        })
        .collect();
    host.sample();
    report.notes.push(host.note());
    tracer.set_enabled(args.trace);

    // --- correctness: every round of a seed must reproduce the same assignments ----
    let first = &warm[0];
    for (r, round) in warm.iter().chain(&rounds).enumerate() {
        if round.accuracy != first.accuracy || round.unmatched != first.unmatched {
            report.problems.push(format!(
                "round {r} grouped differently: accuracy {} vs {}, unmatched {} vs {}",
                round.accuracy, first.accuracy, round.unmatched, first.unmatched
            ));
        }
    }
    // A record the model was just trained on must match it.
    report.attempted = (total_records * (warm.len() + rounds.len())) as u64;
    report.failed = warm.iter().chain(&rounds).map(|r| r.unmatched).sum();

    // --- metrics: floors over rounds; a cycle is one batch / one sweep ----------------
    let round_seconds: Vec<f64> = rounds.iter().map(Round::ingest_seconds).collect();
    report.notes.extend(noise_notes(&round_seconds));
    let train_ms = floor(rounds.iter().map(|r| r.train_ms.as_slice()));
    let batch_ms = floor(rounds.iter().map(|r| r.batch_ms.as_slice()));
    let sweep_ms = floor(rounds.iter().map(|r| r.sweep_ms.as_slice()));
    FLOORS.check(batch_ms.len(), sweep_ms.len())?;
    report.notes.push(format!(
        "# samples: ingest median over {} batches, query median over {} sweeps, each the floor of {} rounds",
        batch_ms.len(),
        sweep_ms.len(),
        rounds.len()
    ));
    let ingest_s = (train_ms.iter().sum::<f64>() + batch_ms.iter().sum::<f64>()) / 1e3;
    let end_to_end = EndToEnd {
        setup_s: min(&setups),
        ingest_rps: total_records as f64 / ingest_s,
        ingest_p50_ms: median(&batch_ms),
        query_p50_ms: median(&sweep_ms),
        peak_rss_mb: sys::peak_rss_mb(std::process::id()).unwrap_or(0.0),
        grouping_accuracy: first.accuracy,
    };
    if args.trace {
        let rates = |traced: bool| -> Vec<f64> {
            rounds
                .iter()
                .enumerate()
                .filter(|(r, _)| (r % 2 == 1) == traced)
                .map(|(_, round)| total_records as f64 / round.ingest_seconds())
                .collect()
        };
        let all = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
            rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let input = ledger::OfflineInput {
            families: &families,
            train_share: train_ms.iter().sum::<f64>() / 1e3 / ingest_s,
            ingest_ms: &all(|r| &r.batch_ms),
            query_ms: &all(|r| &r.sweep_ms),
            round_seconds: &round_seconds,
            kernel_ms: host.kernel_ms(),
            overhead_ratio: median(&rates(true)) / median(&rates(false)),
            client_cpu_s: sys::cpu_seconds(std::process::id()).unwrap_or(0.0),
        };
        report.metrics = ledger::offline_layers(&input, &mut tracer);
        report.notes.extend(write_trace(&tracer, &args.workload)?);
    } else {
        report.metrics = end_to_end.metrics();
    }
    Ok(report)
}
