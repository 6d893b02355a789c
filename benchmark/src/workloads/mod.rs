//! The four workloads and the run shape they share.
//!
//! Every run is a few rounds of identical work on fresh state, each with its own
//! set-up of at least two seconds. The amount of work is a pure function of
//! `(workload, seed, seconds)` — fixed record, POST and query counts, never a
//! wall-clock loop; `--seconds` sets the number of rounds — so counts and accuracies
//! repeat exactly and only times vary between runs.
//!
//! Request `k` of a round is the same work in every round, so its time is taken as
//! the **floor over rounds** ([`crate::stats::floor`]): the fastest of its
//! repetitions. The host this runs on slows down by up to 1.6x for seconds at a
//! time (neighbouring VMs), always in one direction; the floor of identical work is
//! the only statistic tried that two runs of the same code agree on (README,
//! "Why a floor"). Costs that belong to the work — a retrain at every 25th POST —
//! are at the same position in every round and stay in. Rates are records over the
//! summed floor; latencies are the median over a round's cycles of the cycle's mean
//! of the floor ([`crate::stats::cycle_mean_median`]). All are wall-clock.

pub mod http;
pub mod http_bulk;
pub mod http_durable_retrain;
pub mod http_query_recovered;
pub mod paper_offline;

use crate::corpus::{self, Seeds};
use crate::hostspeed::HostSpeed;
use crate::ledger;
use crate::stats::{self, cycle_mean_median, floor, median};
use crate::sys;
use crate::trace::Tracer;
use http::{Plan, Round, Session, Tally};
use std::path::PathBuf;

pub const WORKLOADS: [&str; 4] = [
    "paper_offline",
    "http_bulk",
    "http_durable_retrain",
    "http_query_recovered",
];

/// Rounds of a traced run: tracing off and on alternately, two of each.
pub const TRACED_ROUNDS: usize = 4;
/// `--seconds` of a driver run (`run_seconds` in `BENCHMARK.json`): four rounds.
pub const NOMINAL_SECONDS: u64 = 24;
/// What one round is sized to take on the seed commit: two seconds of set-up, three
/// of window, one of checks and of its share of the library twin. `--seconds 30`,
/// the issue's nominal window, gives the issue's five rounds; the driver's time cap
/// (92 runs and two builds in 3,420 s) leaves room for four.
const SECONDS_PER_ROUND: u64 = 6;
/// A round further than this from the run's median round time is called out.
const NOISY_ROUND: f64 = 0.15;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// `--shape`: see [`Seeds`]. The driver never passes it.
    pub shape: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl RunArgs {
    /// Rounds to run: one per [`SECONDS_PER_ROUND`] of `--seconds`, never fewer than
    /// two. A traced run always takes [`TRACED_ROUNDS`].
    pub fn rounds(&self) -> usize {
        if self.trace {
            return TRACED_ROUNDS;
        }
        ((self.seconds / SECONDS_PER_ROUND) as usize).max(2)
    }

    pub fn seeds(&self) -> Seeds {
        Seeds {
            values: self.seed,
            shape: self.shape,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result of one run: what the last output line is rendered from.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness findings; empty when every check held.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `#`-prefixed lines printed above the result (environment, noise call-outs).
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The six end-to-end numbers, in the order every workload reports them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ingest_rps: f64,
    pub ingest_p50_ms: f64,
    pub query_p50_ms: f64,
    pub peak_rss_mb: f64,
    pub grouping_accuracy: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("ingest_rps", self.ingest_rps, "1/s"),
            Metric::new("ingest_p50_ms", self.ingest_p50_ms, "ms"),
            Metric::new("query_p50_ms", self.query_p50_ms, "ms"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
            Metric::new("grouping_accuracy", self.grouping_accuracy, "ratio"),
        ]
    }
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let plan = match args.workload.as_str() {
        "paper_offline" => return paper_offline::run(args),
        "http_bulk" => http_bulk::plan,
        "http_durable_retrain" => http_durable_retrain::plan,
        "http_query_recovered" => http_query_recovered::plan,
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    run_http(args, &plan(args.seeds()))
}

/// Fewest cycle means a latency median may be taken over; fewer is a hard error, not
/// a warning. What is counted is what enters the median: the cycles of **one** round
/// (each cycle's requests floored over the rounds), not cycles times rounds.
#[derive(Debug, Clone, Copy)]
pub struct Floors {
    pub ingest_cycles: usize,
    pub query_cycles: usize,
}

impl Floors {
    pub const fn new(ingest_cycles: usize, query_cycles: usize) -> Self {
        Floors {
            ingest_cycles,
            query_cycles,
        }
    }

    pub fn check(&self, ingest_cycles: usize, query_cycles: usize) -> Result<(), String> {
        if ingest_cycles < self.ingest_cycles || query_cycles < self.query_cycles {
            return Err(format!(
                "medians over {ingest_cycles} ingest / {query_cycles} query cycles are below the \
                 floors {} / {}",
                self.ingest_cycles, self.query_cycles
            ));
        }
        Ok(())
    }
}

/// How the header words whether the kernel took the affinity mask.
pub fn pin_verdict(pinned: bool) -> &'static str {
    if pinned {
        "applied"
    } else {
        "refused by the kernel"
    }
}

/// Call out rounds that ran more than [`NOISY_ROUND`] off the median round time.
pub fn noise_notes(round_seconds: &[f64]) -> Vec<String> {
    let mid = median(round_seconds);
    round_seconds
        .iter()
        .enumerate()
        .filter(|(_, s)| ((*s - mid) / mid).abs() > NOISY_ROUND)
        .map(|(i, s)| format!("# NOISY round {i}: {s:.3} s against a median of {mid:.3} s"))
        .collect()
}

/// Largest relative distance of a round from the median round time.
pub fn round_spread(round_seconds: &[f64]) -> f64 {
    let mid = median(round_seconds);
    round_seconds
        .iter()
        .map(|s| ((s - mid) / mid).abs())
        .fold(0.0, f64::max)
}

/// Where a run keeps its durable roots and span file.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Write the span file of a traced run; returns the notes that describe it.
pub fn write_trace(tracer: &Tracer, workload: &str) -> Result<Vec<String>, String> {
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let self_times: Vec<String> = tracer
        .self_time_by_name()
        .iter()
        .map(|(name, ns)| format!("{name} {:.1} ms", *ns as f64 / 1e6))
        .collect();
    Ok(vec![
        format!("# spans: {} written to {}", tracer.len(), path.display()),
        format!("# self time by span name: {}", self_times.join(", ")),
    ])
}

/// Per-run scratch directory for durable roots, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Self> {
        let dir = out_dir().join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run an HTTP [`Plan`]: rounds, twin, correctness, metrics.
fn run_http(args: &RunArgs, plan: &Plan) -> Result<Report, String> {
    let nproc = sys::nproc();
    // Server on cores 0..nproc-1, load generator on the last one; with a single
    // core both share it and the header says so.
    let server_cpus = nproc.saturating_sub(1).max(1);
    let pinned = sys::pin(0, nproc - 1..nproc);
    let scratch = Scratch::new().map_err(|e| format!("scratch dir: {e}"))?;
    let server_root = plan.durable.then(|| scratch.0.join("server"));
    let twin_root = plan.durable.then(|| scratch.0.join("twin"));

    let mut report = Report::default();
    report.notes.push(format!(
        "# pinning: server cpus 0..{server_cpus}, client cpu {} ({})",
        nproc - 1,
        pin_verdict(pinned)
    ));
    if let Some(root) = &server_root {
        report.notes.push(format!(
            "# durable root: {} on {}",
            root.display(),
            sys::filesystem_of(&scratch.0)
        ));
    }
    for tenant in &plan.tenants {
        report.notes.push(format!(
            "# corpus of {}: {} records, mean {:.1} bytes, {:.1} % exact repeats, hash {:016x}",
            tenant.name,
            tenant.corpus.len(),
            tenant.corpus.mean_record_bytes(),
            100.0 * corpus::repeat_share(&tenant.corpus.records),
            corpus::byte_hash(&tenant.corpus.records),
        ));
    }
    let mut session = Session {
        tally: Tally::default(),
        tracer: Tracer::new(false),
    };
    let rounds_to_run = args.rounds();
    let mut rounds: Vec<Round> = Vec::new();
    let client_cpu_before = sys::cpu_seconds(std::process::id()).unwrap_or(0.0);
    let mut host = HostSpeed::new(0..server_cpus);
    for r in 0..rounds_to_run {
        host.sample();
        session.tracer.set_enabled(args.trace && r % 2 == 1);
        let round = http::run_round(
            plan,
            server_cpus,
            server_root.as_deref(),
            &mut session,
            r as u64,
        )
        .map_err(|e| format!("round {r}: {e}"))?;
        rounds.push(round);
    }
    host.sample();
    report.notes.push(host.note());
    let client_cpu_s = sys::cpu_seconds(std::process::id()).unwrap_or(0.0) - client_cpu_before;
    let Session {
        mut tally,
        mut tracer,
    } = session;
    tracer.set_enabled(args.trace);

    // --- correctness -----------------------------------------------------------------
    let last = rounds.last().expect("at least one round ran");
    for (r, round) in rounds.iter().enumerate() {
        if round.answers != last.answers {
            report.problems.push(format!(
                "round {r} answered differently from the last round"
            ));
        }
    }
    let twin_started = std::time::Instant::now();
    let (twin, twin_log) = http::run_twin(plan, twin_root.as_deref(), &mut tally)
        .map_err(|e| format!("library twin: {e}"))?;
    report.notes.push(format!(
        "# library twin replayed one round in {:.3} s",
        twin_started.elapsed().as_secs_f64()
    ));
    let expected = http::library_answers(plan, &twin);
    let differing = http::differing_answers(plan, &last.answers, &expected);
    tally.count(differing.is_empty());
    for answer in differing {
        report
            .problems
            .push(format!("{answer} differs from the library twin"));
    }
    for (tenant, answer) in plan.tenants.iter().zip(&last.answers) {
        report
            .notes
            .push(format!("# end state of {}: {}", tenant.name, answer.stats));
    }
    let scripted = http::scripted_records(plan);
    let stored = twin.fleet_stats().total_records;
    report.notes.push(format!(
        "# window: {} records per round, {} of them unmatched on arrival, {} retrains",
        twin_log.ingest.iter().map(|(_, n, _)| n).sum::<usize>(),
        twin_log.unmatched,
        twin_log
            .ingest
            .iter()
            .filter(|(_, _, trained)| *trained)
            .count(),
    ));
    if stored != scripted {
        report.problems.push(format!(
            "twin stores {stored} records, scripts sent {scripted}"
        ));
    }
    if let Some(root) = &server_root {
        let reopened =
            http::reopened_records(plan, root).map_err(|e| format!("reopen server root: {e}"))?;
        if reopened != scripted {
            report.problems.push(format!(
                "server root reopens with {reopened} records, {scripted} were acknowledged"
            ));
        }
    }
    let grouping_accuracy = http::grouping_accuracy(plan, &last.answers)
        .map_err(|e| format!("grouping response: {e}"))?;

    // --- metrics ---------------------------------------------------------------------
    let window_seconds: Vec<f64> = rounds.iter().map(|r| r.window_s).collect();
    for (r, round) in rounds.iter().enumerate() {
        report.notes.push(format!(
            "# round {r}: setup {:.3} s, window {:.3} s, {:.0} records/s, server peak {:.1} MiB{}",
            round.setup_s,
            round.window_s,
            round.ingest_rps(),
            round.usage.peak_rss_mb,
            match &plan.probe {
                Some(_) => format!(
                    ", probes sent {:.2} ms into their POST",
                    round.probe_delay_ms
                ),
                None => String::new(),
            }
        ));
    }
    report.notes.extend(noise_notes(&window_seconds));
    let ingest_ms = floor(rounds.iter().map(|r| r.ingest_ms.as_slice()));
    let query_ms = match &plan.probe {
        None => floor(rounds.iter().map(|r| r.query_ms.as_slice())),
        Some(_) => floor_of_probes(&rounds, &mut report.notes),
    };
    let ingest_cycles = ingest_ms.len() / plan.ingest_cycle;
    let query_cycles = query_ms.len() / plan.query_cycle;
    plan.floors.check(ingest_cycles, query_cycles)?;
    report.notes.push(format!(
        "# samples: ingest median over {ingest_cycles} cycles of {}, query median over {query_cycles} cycles of {}, each request the floor of {} rounds",
        plan.ingest_cycle,
        plan.query_cycle,
        rounds.len(),
    ));
    let end_to_end = EndToEnd {
        setup_s: stats::min(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        ingest_rps: last.acked_records() as f64 / (ingest_ms.iter().sum::<f64>() / 1e3),
        ingest_p50_ms: cycle_mean_median(&ingest_ms, plan.ingest_cycle),
        query_p50_ms: cycle_mean_median(&query_ms, plan.query_cycle),
        peak_rss_mb: median(
            &rounds
                .iter()
                .map(|r| r.usage.peak_rss_mb)
                .collect::<Vec<_>>(),
        ),
        grouping_accuracy,
    };
    if args.trace {
        let input = ledger::HttpInput {
            plan,
            rounds: &rounds,
            twin: &twin,
            twin_log: &twin_log,
            kernel_ms: host.kernel_ms(),
            client_cpu_s,
            scratch: &scratch.0,
        };
        report.metrics = ledger::http_layers(&input, &mut tracer)?;
        report.notes.extend(write_trace(&tracer, &args.workload)?);
    } else {
        report.metrics = end_to_end.metrics();
    }
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    Ok(report)
}

/// Position-wise floor of the probe latencies over the rounds in which the probe
/// waited behind its POST ([`Round::probe_met`]). A probe that never did is called
/// out and falls back to its fastest sample.
fn floor_of_probes(rounds: &[Round], notes: &mut Vec<String>) -> Vec<f64> {
    let met: Vec<Vec<f64>> = rounds
        .iter()
        .map(|round| {
            round
                .query_ms
                .iter()
                .zip(&round.probe_met)
                .map(|(ms, met)| if *met { *ms } else { f64::INFINITY })
                .collect()
        })
        .collect();
    let missed: usize = rounds
        .iter()
        .map(|r| r.probe_met.iter().filter(|met| !**met).count())
        .sum();
    if missed > 0 {
        notes.push(format!(
            "# NOISY probes: {missed} of {} did not wait behind their POST (sent after it completed, or answered before it was half done) and were dropped",
            rounds.iter().map(|r| r.probe_met.len()).sum::<usize>()
        ));
    }
    let any = floor(rounds.iter().map(|r| r.query_ms.as_slice()));
    floor(met.iter().map(Vec::as_slice))
        .into_iter()
        .zip(any)
        .enumerate()
        .map(|(k, (met, any))| {
            if met.is_finite() {
                met
            } else {
                notes.push(format!(
                    "# NOISY probe {k}: no round's probe waited behind its POST"
                ));
                any
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(seconds: u64, trace: bool) -> RunArgs {
        RunArgs {
            workload: "http_bulk".to_string(),
            seed: 1,
            shape: corpus::DEFAULT_SHAPE,
            seconds,
            trace,
        }
    }

    #[test]
    fn seconds_set_the_number_of_rounds() {
        assert_eq!(args(NOMINAL_SECONDS, false).rounds(), 4);
        assert_eq!(
            args(30, false).rounds(),
            5,
            "the issue's window, the issue's rounds"
        );
        assert_eq!(args(2, false).rounds(), 2, "never fewer than two");
        assert_eq!(args(2, true).rounds(), TRACED_ROUNDS);
    }

    #[test]
    fn probes_that_missed_their_post_are_dropped_before_flooring() {
        let round = |query_ms: [f64; 2], probe_met: [bool; 2]| Round {
            query_ms: query_ms.to_vec(),
            probe_met: probe_met.to_vec(),
            ..Round::default()
        };
        // Probe 0 slipped ahead of the writer in round 1 (1 ms: it waited for nothing);
        // probe 1 never met its POST in any round.
        let rounds = [
            round([20.0, 2.0], [true, false]),
            round([1.0, 3.0], [false, false]),
            round([21.0, 2.5], [true, false]),
        ];
        let mut notes = Vec::new();
        assert_eq!(floor_of_probes(&rounds, &mut notes), vec![20.0, 2.0]);
        assert_eq!(notes.len(), 2);
        assert!(notes[0].starts_with("# NOISY probes: 4 of 6"));
        assert!(notes[1].starts_with("# NOISY probe 1:"));
    }

    #[test]
    fn sample_floors_count_what_enters_the_median() {
        let floors = Floors::new(48, 16);
        assert!(floors.check(48, 16).is_ok());
        assert!(floors.check(47, 16).is_err());
        assert!(floors.check(48, 15).is_err());
    }
}
