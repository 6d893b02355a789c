//! `http_durable_retrain` — one tenant writing small batches of a drifting stream
//! to a durable topic that retrains as it goes, reading the slider after each write.
//!
//! *Why:* it uses the topic as a writer that retrains, where `http_bulk` uses it as
//! a pure matcher. POSTs are far below `stream_threshold`, so the stream engine and
//! its line cache are bypassed; what the window pays for is the inline full retrain
//! (train → merge → recompile → rematch every stored record → storage checkpoint),
//! WAL append and `fsync` per commit, temporary templates for lines the model has
//! not seen, and per-request HTTP overhead. Strictly serial, one connection.

use super::http::{Op, Plan, Shape, Tenant};
use super::Floors;
use crate::corpus::{drifting_stream, Seeds};
use bytebrain::Query;

/// Records per POST (batch path).
pub const POST_RECORDS: usize = 128;
/// POSTs between retrains; the template population shifts on the same period.
const PERIOD_POSTS: usize = 16;
/// Drift periods — and so retrains — of the untimed warm-up inside set-up.
const WARM_PERIODS: usize = 6;
/// Drift periods — and so retrains — in a round's window.
const PERIODS: usize = 4;
const SLIDER_STOPS: [f64; 2] = [0.5, 0.9];

pub fn plan(seeds: Seeds) -> Plan {
    let period_records = PERIOD_POSTS * POST_RECORDS;
    // Phase 0 trains the initial model in one POST; each later phase is one period.
    let phases = 1 + WARM_PERIODS + PERIODS;
    let corpus = drifting_stream(phases, period_records, seeds.salted(0xD1));
    let warm_posts = WARM_PERIODS * PERIOD_POSTS;
    let window_posts = PERIODS * PERIOD_POSTS;
    let sizes = std::iter::once(period_records)
        .chain(std::iter::repeat_n(POST_RECORDS, warm_posts + window_posts));
    // One cycle: a POST, then the slider at every stop on the same connection.
    let cycle = |post: usize| {
        std::iter::once(Op::Ingest { tenant: 0, post })
            .chain((0..SLIDER_STOPS.len()).map(|shape| Op::Query { tenant: 0, shape }))
    };
    Plan {
        volume_threshold: period_records as u64,
        durable: true,
        recover: false,
        tenants: vec![Tenant::new("drift", corpus, sizes)],
        shapes: SLIDER_STOPS
            .iter()
            .map(|&stop| Shape::new("slider", Query::distribution().at_threshold(stop)))
            .collect(),
        build: vec![Op::Ingest { tenant: 0, post: 0 }],
        warm: (1..=warm_posts).flat_map(cycle).collect(),
        window: (warm_posts + 1..=warm_posts + window_posts)
            .flat_map(cycle)
            .collect(),
        probe: None,
        ingest_cycle: 1,
        query_cycle: SLIDER_STOPS.len(),
        floors: Floors::new(64, 64),
    }
}
