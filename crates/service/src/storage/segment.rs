//! Immutable columnar segments.
//!
//! A segment is a batch of consecutive records sealed out of the WAL (or
//! rewritten wholesale at an epoch boundary). The layout (format 3) is
//! columnar so that recovery — and future scans — touch only the columns they
//! need; every integer is little-endian and every byte string carries a `u32`
//! length prefix ([`Enc::bytes`]):
//!
//! ```text
//! magic "BBSG" | format u32
//! first_seq u64 | record_count u32
//! flags column    : count × u8   (bit 0 = unmatched at ingest)
//! node column     : count × u32  (ingest-time template id, u32::MAX = none)
//! text column     : count × (u32 len | UTF-8 bytes)
//! variable column : per record, `u32 n` then n × (u32 len | bytes) tokens
//! CRC-32 u32      : over everything before it
//! ```
//!
//! The node column is what lets a restart rebuild
//! [`QueryIndex`](crate::query::QueryIndex) without re-matching a single line.
//! Later re-assignments (post-delta moves) are logged as events and patched on
//! top; a sealed segment is never rewritten in place.
//!
//! The variable column stores the concrete tokens that sat at the matched
//! template's wildcard positions, extracted once at seal time. It is
//! best-effort metadata for segment consumers (the template text plus the
//! variables reconstruct the record): replay correctness never depends on it.

use super::framing::{read_checked, write_checked, Dec, Enc};
use super::wal::{decode_node, encode_node, WalRecord};
use std::io;
use std::path::{Path, PathBuf};

/// `"BBSG"` read as a little-endian `u32`.
const MAGIC: u32 = 0x4753_4242;
const FORMAT: u32 = 3;

/// A fully decoded segment: the records it sealed and their variable column.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Sequence number of the first record.
    pub first_seq: u64,
    /// The sealed records, in sequence order.
    pub records: Vec<WalRecord>,
    /// Per-record variable tokens (wildcard-position tokens at seal time).
    pub variables: Vec<Vec<String>>,
}

impl Segment {
    /// Sequence number one past the last record.
    pub fn end_seq(&self) -> u64 {
        self.first_seq + self.records.len() as u64
    }
}

/// On-disk segment file name for a segment id.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08}.seg")
}

/// Encode and atomically write a segment file (tmp + fsync + rename): a crash
/// mid-seal leaves either no file or a complete one, never a half-written
/// segment reachable from the manifest.
pub fn write_segment(
    dir: &Path,
    id: u64,
    first_seq: u64,
    records: &[WalRecord],
    variables: &[Vec<String>],
) -> io::Result<PathBuf> {
    debug_assert_eq!(records.len(), variables.len());
    let mut enc = Enc::new();
    enc.u32(MAGIC);
    enc.u32(FORMAT);
    enc.u64(first_seq);
    enc.u32(records.len() as u32);
    for rec in records {
        enc.u8(rec.unmatched as u8);
    }
    for rec in records {
        enc.u32(encode_node(rec.node));
    }
    for rec in records {
        enc.bytes(rec.text.as_bytes());
    }
    for vars in variables {
        enc.u32(vars.len() as u32);
        for var in vars {
            enc.bytes(var.as_bytes());
        }
    }
    let path = dir.join(segment_file_name(id));
    write_checked(&path, enc.finish())?;
    Ok(path)
}

/// Read and verify a segment file. A segment of any other format is refused
/// with `InvalidData`.
pub fn read_segment(path: &Path) -> io::Result<Segment> {
    let body = read_checked(path)?;
    let corrupt = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut dec = Dec::new(&body);
    if dec.u32()? != MAGIC {
        return Err(corrupt("bad segment magic".to_string()));
    }
    let format = dec.u32()?;
    if format != FORMAT {
        return Err(corrupt(format!(
            "unsupported segment format {format} (this build reads format {FORMAT})"
        )));
    }
    let first_seq = dec.u64()?;
    let count = dec.u32()? as usize;
    let flags: Vec<u8> = (0..count).map(|_| dec.u8()).collect::<io::Result<_>>()?;
    let nodes: Vec<u32> = (0..count).map(|_| dec.u32()).collect::<io::Result<_>>()?;
    let mut records = Vec::with_capacity(count);
    for (i, (flag, node)) in flags.into_iter().zip(nodes).enumerate() {
        records.push(WalRecord {
            seq: first_seq + i as u64,
            unmatched: flag != 0,
            node: decode_node(node),
            text: dec.string()?,
        });
    }
    let mut variables = Vec::with_capacity(count);
    for _ in 0..count {
        let n = dec.u32()?;
        variables.push((0..n).map(|_| dec.string()).collect::<io::Result<_>>()?);
    }
    Ok(Segment {
        first_seq,
        records,
        variables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytebrain::NodeId;

    fn sample_records() -> (Vec<WalRecord>, Vec<Vec<String>>) {
        let records = vec![
            WalRecord {
                seq: 100,
                unmatched: false,
                node: Some(NodeId(3)),
                text: "GET /api/items/7 took 12ms".into(),
            },
            WalRecord {
                seq: 101,
                unmatched: true,
                node: Some(NodeId(9)),
                text: "segfault in thread reaper".into(),
            },
            WalRecord {
                seq: 102,
                unmatched: false,
                node: Some(NodeId(3)),
                text: "GET /api/items/8 took 9ms".into(),
            },
            WalRecord {
                seq: 103,
                unmatched: false,
                node: None,
                text: "".into(),
            },
        ];
        let variables = vec![
            vec!["7".to_string(), "12ms".to_string()],
            vec![],
            vec!["8".to_string(), "9ms".to_string()],
            vec![],
        ];
        (records, variables)
    }

    #[test]
    fn segment_round_trip_preserves_columns() {
        let dir = std::env::temp_dir().join(format!("bb-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (records, variables) = sample_records();
        let path = write_segment(&dir, 1, 100, &records, &variables).unwrap();
        let seg = read_segment(&path).unwrap();
        assert_eq!(seg.first_seq, 100);
        assert_eq!(seg.records, records);
        assert_eq!(seg.variables, variables);
        assert_eq!(seg.end_seq(), 104);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_segment_is_rejected() {
        let dir = std::env::temp_dir().join(format!("bb-seg-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (records, variables) = sample_records();
        let path = write_segment(&dir, 2, 0, &records, &variables).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x55;
        std::fs::write(&path, bytes).unwrap();
        assert!(read_segment(&path).is_err(), "bit rot must not decode");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_of_another_format_is_refused() {
        let dir = std::env::temp_dir().join(format!("bb-seg-f-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(segment_file_name(3));
        // A format-2 header with an intact checksum: the CRC passes, the format does not.
        let mut enc = Enc::new();
        enc.u32(MAGIC);
        enc.u32(2);
        enc.u64(0);
        enc.u32(0);
        write_checked(&path, enc.finish()).unwrap();
        let err = read_segment(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "unsupported segment format 2 (this build reads format 3)"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
