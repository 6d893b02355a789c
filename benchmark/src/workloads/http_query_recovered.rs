//! `http_query_recovered` — reads beside writes on a topic recovered from disk.
//!
//! Set-up loads a durable topic, stops the server, and serves the recovered root
//! from a new process (`ServiceManager::open`; recovery time is part of `setup_s`).
//! The window is serial cycles of one small POST followed by five query shapes.
//!
//! *Why:* the work is the planner, segment pruning, postings and ladder
//! resolution, result encoding, and a query cache that every commit invalidates.
//! Ingest is a trickle: an ingest-only gain must read "no change" here, and a
//! query gain that slows commits shows in `ingest_p50_ms`.

use super::http::{Op, Plan, Shape, Tenant};
use super::Floors;
use crate::corpus::{service_lines, Corpus, Seeds};
use bytebrain::{Predicate, Query};

/// Records loaded (and recovered) before the window, in stream-path POSTs.
const LOADED_RECORDS: usize = 65_536;
const LOAD_POST_RECORDS: usize = 4_096;
/// Records per POST inside the window.
pub const POST_RECORDS: usize = 256;
/// Cycles of the untimed warm-up inside set-up, on the recovered topic.
const WARM_CYCLES: usize = 22;
/// Cycles in a round's window.
const CYCLES: usize = 50;

/// A token that is a variable in many lines: the most frequent digit-bearing,
/// whitespace-delimited token outside the timestamp header.
fn frequent_variable(corpus: &Corpus) -> String {
    let mut counts = std::collections::BTreeMap::<&str, usize>::new();
    for record in corpus.records.iter().take(4_096) {
        for token in record.split(' ').skip(2) {
            if token.len() >= 3 && token.bytes().any(|b| b.is_ascii_digit()) {
                *counts.entry(token).or_default() += 1;
            }
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(token, count)| (count, std::cmp::Reverse(token)))
        .map_or_else(|| "0".to_string(), |(token, _)| token.to_string())
}

pub fn plan(seeds: Seeds) -> Plan {
    let load_posts = LOADED_RECORDS / LOAD_POST_RECORDS;
    let corpus = service_lines(
        LOADED_RECORDS + (WARM_CYCLES + CYCLES) * POST_RECORDS,
        seeds.salted(0xA1),
    );
    let value = frequent_variable(&corpus);
    let sizes = std::iter::repeat_n(LOAD_POST_RECORDS, load_posts)
        .chain(std::iter::repeat_n(POST_RECORDS, WARM_CYCLES + CYCLES));
    let mid = (LOADED_RECORDS / 2) as u64;
    let shapes = vec![
        Shape::new("slider", Query::distribution().at_threshold(0.6)),
        Shape::new(
            "regex_topk",
            Query::top_k(5)
                .at_threshold(0.6)
                .filter(Predicate::template_matches("(block|session|connection)")),
        ),
        Shape::new(
            "var_eq",
            Query::group_by()
                .at_threshold(0.6)
                .filter(Predicate::variable_equals(value)),
        ),
        Shape::new(
            "window_var",
            Query::distribution()
                .at_threshold(0.6)
                .filter(Predicate::time_window(mid, mid + LOAD_POST_RECORDS as u64))
                .filter(Predicate::variable_contains("1")),
        ),
    ];
    // slider cold, slider again (a cache hit: nothing was committed in between),
    // then the three predicate shapes.
    let cycle = |post: usize| {
        std::iter::once(Op::Ingest { tenant: 0, post })
            .chain([0, 0, 1, 2, 3].map(|shape| Op::Query { tenant: 0, shape }))
    };
    let first_window_post = load_posts + WARM_CYCLES;
    Plan {
        volume_threshold: u64::MAX / 2,
        durable: true,
        recover: true,
        tenants: vec![Tenant::new("hist", corpus, sizes)],
        shapes,
        build: (0..load_posts)
            .map(|post| Op::Ingest { tenant: 0, post })
            .collect(),
        warm: (load_posts..first_window_post).flat_map(cycle).collect(),
        window: (first_window_post..first_window_post + CYCLES)
            .flat_map(cycle)
            .collect(),
        probe: None,
        ingest_cycle: 1,
        query_cycle: 5,
        floors: Floors::new(50, 50),
    }
}
