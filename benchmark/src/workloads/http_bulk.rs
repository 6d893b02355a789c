//! `http_bulk` — two tenants bulk-loading in-memory topics through the stream path
//! while a dashboard polls the precision slider.
//!
//! *Why:* it isolates the matching pipeline. Models are trained in set-up and the
//! volume trigger is out of reach, so the window holds no training and no disk:
//! what is left is JSON decode, admission, the per-POST `StreamIngestor` /
//! `MatcherPool` spin-up, mask → tokenize → DFA on tenant `div` (fresh lines, the
//! line cache never hits) and the line cache on tenant `rep` (nine lines in ten
//! repeat). The slider queries arrive while the engine applies a `div` batch and wait
//! behind its manager mutex, so their latency reads how long the engine holds it.

use super::http::{Op, Plan, Probe, Shape, Tenant};
use super::Floors;
use crate::corpus::{repetitive_stream, service_lines, Seeds};
use bytebrain::Query;

/// Records per POST: at `stream_threshold`, so every POST takes the stream path.
pub const POST_RECORDS: usize = 4_096;
/// Records of the first POST per tenant, which trains the initial model.
const TRAIN_RECORDS: usize = 8_192;
/// POST pairs (one per tenant) of the untimed warm-up inside set-up.
const WARM_PAIRS: usize = 32;
/// POST pairs in a round's window.
const PAIRS: usize = 48;
const SLIDER_STOPS: [f64; 3] = [0.3, 0.6, 0.9];
/// Share of a `div` POST's latency after which its probe query goes out. On the seed
/// commit the first sixth of such a POST reads and decodes the body and the rest
/// applies it under the manager mutex; 0.4 is inside that stretch with a factor of
/// two to spare either side.
const PROBE_PHASE: f64 = 0.4;

pub fn plan(seeds: Seeds) -> Plan {
    let posts = 1 + WARM_PAIRS + PAIRS;
    let records = TRAIN_RECORDS + (posts - 1) * POST_RECORDS;
    let sizes =
        || std::iter::once(TRAIN_RECORDS).chain(std::iter::repeat_n(POST_RECORDS, posts - 1));
    let tenants = vec![
        Tenant::new(
            "rep",
            repetitive_stream(records, seeds.salted(0xB1)),
            sizes(),
        ),
        Tenant::new("div", service_lines(records, seeds.salted(0xB2)), sizes()),
    ];
    let both = |post: usize| (0..2).map(move |tenant| Op::Ingest { tenant, post });
    Plan {
        volume_threshold: u64::MAX / 2,
        durable: false,
        recover: false,
        tenants,
        shapes: SLIDER_STOPS
            .iter()
            .map(|&stop| Shape::new("slider", Query::distribution().at_threshold(stop)))
            .collect(),
        build: both(0).collect(),
        warm: (1..=WARM_PAIRS)
            .flat_map(both)
            .chain((0..SLIDER_STOPS.len()).map(|shape| Op::Query { tenant: 1, shape }))
            .collect(),
        window: (1 + WARM_PAIRS..posts).flat_map(both).collect(),
        probe: Some(Probe {
            tenant: 1,
            beside: 1,
            phase: PROBE_PHASE,
            shapes: (0..SLIDER_STOPS.len()).collect(),
        }),
        ingest_cycle: 2,
        query_cycle: SLIDER_STOPS.len(),
        floors: Floors::new(48, 16),
    }
}
