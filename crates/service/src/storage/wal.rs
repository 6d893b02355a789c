//! Write-ahead log frames: ingested records and model events.
//!
//! Two append-only logs share the [`FrameLog`](super::framing::FrameLog)
//! framing:
//!
//! * `wal.log` — one [`WalRecord`] per ingested record *since the last segment
//!   seal*: sequence number, ingest-time match outcome, and the raw text.
//!   Sealed records move into immutable columnar segments and the WAL restarts.
//! * `events.log` — one [`DeltaEvent`] per maintenance landing *since the last
//!   epoch checkpoint*: the sequence position it fired at, the kind of run, the
//!   record moves its re-match produced and the [`ModelDelta`] itself. It is the
//!   topic's only model log: replay folds each event's delta into the epoch's
//!   base model. A checkpoint truncates the event log — the base file it writes
//!   holds the model, and the baseline segments it rewrites already carry the
//!   final assignments.

use super::framing::{Dec, Enc};
use bytebrain::incremental::ModelDelta;
use bytebrain::NodeId;
use std::io;

/// Sentinel for "no template assigned" in on-disk node columns.
pub(crate) const NO_NODE: u32 = u32::MAX;

pub(crate) fn encode_node(node: Option<NodeId>) -> u32 {
    match node {
        Some(id) => id.0 as u32,
        None => NO_NODE,
    }
}

pub(crate) fn decode_node(raw: u32) -> Option<NodeId> {
    if raw == NO_NODE {
        None
    } else {
        Some(NodeId(raw as usize))
    }
}

/// One ingested record as logged in the WAL (and later sealed into a segment).
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Topic-wide monotonic sequence number (never reused, survives restarts).
    pub seq: u64,
    /// The record matched no template at ingest time. Replay re-executes the
    /// deterministic temporary-template insertion for flagged records, so
    /// segments holding them can never be dropped by retention while the
    /// current epoch's model replay still needs them.
    pub unmatched: bool,
    /// Ingest-time template assignment (later delta re-matches are recorded as
    /// [`DeltaEvent`] moves, never by rewriting this).
    pub node: Option<NodeId>,
    /// The raw log text.
    pub text: String,
}

impl WalRecord {
    /// Bytes this record accounts for in topic statistics (text + newline).
    pub fn accounted_bytes(&self) -> u64 {
        self.text.len() as u64 + 1
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u64(self.seq);
        enc.u8(self.unmatched as u8);
        enc.u32(encode_node(self.node));
        enc.bytes(self.text.as_bytes());
        enc.finish()
    }

    pub(crate) fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut dec = Dec::new(payload);
        let seq = dec.u64()?;
        let unmatched = dec.u8()? != 0;
        let node = decode_node(dec.u32()?);
        let text = dec.string()?;
        Ok(WalRecord {
            seq,
            unmatched,
            node,
            text,
        })
    }
}

/// One record move produced by the post-delta re-match: the record at `seq`
/// left `old` for `new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMove {
    /// Sequence number of the moved record.
    pub seq: u64,
    /// Assignment before the delta.
    pub old: Option<NodeId>,
    /// Assignment after the delta.
    pub new: Option<NodeId>,
}

/// One maintenance landing, as logged in `events.log`: one frame holds all a
/// replay needs to fold the landing back in.
#[derive(Debug, Clone)]
pub struct DeltaEvent {
    /// Sequence position the maintenance run fired at: every record with
    /// `seq < at_seq` was already stored when the delta applied. Replay
    /// interleaves events with records on this boundary.
    pub at_seq: u64,
    /// Wall-clock seconds the maintenance run took (feeds recovered stats).
    pub elapsed_seconds: f64,
    /// Record moves from the post-delta re-match.
    pub moves: Vec<RecordMove>,
    /// The run was a retrain, not an incremental fold: replay counts it as a
    /// training run and restarts the training window at `at_seq`.
    pub retrain: bool,
    /// The delta the landing applied, stored as JSON so every f64 round-trips
    /// exactly (shortest-representation floats).
    pub delta: ModelDelta,
}

impl DeltaEvent {
    pub(crate) fn encode(&self) -> io::Result<Vec<u8>> {
        let delta = serde_json::to_string(&self.delta)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("delta: {e}")))?;
        let mut enc = Enc::new();
        enc.u64(self.at_seq);
        enc.f64(self.elapsed_seconds);
        enc.u32(self.moves.len() as u32);
        for mv in &self.moves {
            enc.u64(mv.seq);
            enc.u32(encode_node(mv.old));
            enc.u32(encode_node(mv.new));
        }
        enc.u8(self.retrain as u8);
        enc.bytes(delta.as_bytes());
        Ok(enc.finish())
    }

    /// Decode one `events.log` frame.
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut dec = Dec::new(payload);
        let at_seq = dec.u64()?;
        let elapsed_seconds = dec.f64()?;
        let count = dec.u32()? as usize;
        let mut moves = Vec::with_capacity(count);
        for _ in 0..count {
            moves.push(RecordMove {
                seq: dec.u64()?,
                old: decode_node(dec.u32()?),
                new: decode_node(dec.u32()?),
            });
        }
        let retrain = dec.u8()? != 0;
        let delta = serde_json::from_str(&dec.string()?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("delta: {e}")))?;
        Ok(DeltaEvent {
            at_seq,
            elapsed_seconds,
            moves,
            retrain,
            delta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_record_round_trip() {
        let rec = WalRecord {
            seq: 42,
            unmatched: true,
            node: Some(NodeId(7)),
            text: "kernel oops at ffffffffc0401234".to_string(),
        };
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
        let none = WalRecord {
            seq: 0,
            unmatched: false,
            node: None,
            text: String::new(),
        };
        assert_eq!(WalRecord::decode(&none.encode()).unwrap(), none);
    }

    #[test]
    fn delta_event_round_trip() {
        use bytebrain::incremental::train_delta;
        use bytebrain::{train::train, TrainConfig};

        let lines = |tag: &str| -> Vec<String> {
            let line = |i| format!("{tag} request {i} served in {}.25ms", i * 3);
            (0..30).map(line).collect()
        };
        let config = TrainConfig::default();
        let pre = logtok::Preprocessor::new(config.preprocess.clone());
        let model = train(&lines("cache"), &pre, &config).model;
        let delta = train_delta(&model, &lines("disk"), &pre, &config);
        let event = DeltaEvent {
            at_seq: 1_000,
            elapsed_seconds: 0.125,
            moves: vec![
                RecordMove {
                    seq: 17,
                    old: None,
                    new: Some(NodeId(4)),
                },
                RecordMove {
                    seq: 900,
                    old: Some(NodeId(9)),
                    new: None,
                },
            ],
            retrain: true,
            delta,
        };
        let bytes = event.encode().unwrap();
        let decoded = DeltaEvent::decode(&bytes).unwrap();
        assert_eq!(decoded.at_seq, event.at_seq);
        assert_eq!(decoded.elapsed_seconds, event.elapsed_seconds);
        assert_eq!(decoded.moves, event.moves);
        assert_eq!(decoded.retrain, event.retrain);
        let json = |delta: &ModelDelta| serde_json::to_string(delta).unwrap();
        assert_eq!(
            json(&decoded.delta),
            json(&event.delta),
            "the delta, exactly"
        );
        // An event without its delta is no event.
        assert!(DeltaEvent::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let rec = WalRecord {
            seq: 1,
            unmatched: false,
            node: None,
            text: "abc".into(),
        };
        let bytes = rec.encode();
        assert!(WalRecord::decode(&bytes[..bytes.len() - 2]).is_err());
    }
}
