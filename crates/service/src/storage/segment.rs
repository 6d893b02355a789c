//! Immutable columnar segments.
//!
//! A segment is a batch of consecutive records sealed out of the WAL (or
//! rewritten wholesale at an epoch boundary). The layout is columnar so that
//! recovery — and future scans — touch only the columns they need:
//!
//! ```text
//! magic "BBSG" | format u32
//! first_seq u64 | record_count u32
//! flags column      : count × u8   (bit 0 = unmatched at ingest)
//! node column       : count × u32  (ingest-time template id, u32::MAX = none)
//! text offsets      : (count+1) × u32 into the text blob
//! text blob         : concatenated UTF-8 record texts
//! variable offsets  : (count+1) × u32 into the variable blob
//! variable blob     : per record, `u32 n` then n × (u32 len | bytes) tokens
//! postings          : u32 node_count, then per node
//!                     (u32 node | u32 len | len × u32 local record offsets)
//! crc32 u32         : over everything before it
//! ```
//!
//! The per-segment postings mirror the node column inverted: they exist so a
//! restart can rebuild [`QueryIndex`](crate::query::QueryIndex) by
//! concatenating posting lists — without re-matching a single line. Later
//! re-assignments (post-delta moves) are logged as events and patched on top;
//! a sealed segment is never rewritten in place.
//!
//! The variable column stores the concrete tokens that sat at the matched
//! template's wildcard positions, extracted once at seal time. It is
//! best-effort metadata for segment consumers (the template text plus the
//! variables reconstruct the record): replay correctness never depends on it.

use super::framing::{crc32, write_atomic};
use super::wal::{decode_node, encode_node, WalRecord, NO_NODE};
use std::fs::OpenOptions;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"BBSG";
const FORMAT: u32 = 2;

/// A fully decoded segment: the records it sealed plus the inverted postings.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Sequence number of the first record.
    pub first_seq: u64,
    /// The sealed records, in sequence order.
    pub records: Vec<WalRecord>,
    /// Per-record variable tokens (wildcard-position tokens at seal time).
    pub variables: Vec<Vec<String>>,
    /// `(node, ascending local record offsets)` — the node column inverted.
    pub postings: Vec<(u32, Vec<u32>)>,
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
    let mut body = Vec::new();
    body.extend_from_slice(MAGIC);
    body.extend_from_slice(&FORMAT.to_le_bytes());
    body.extend_from_slice(&first_seq.to_le_bytes());
    body.extend_from_slice(&(records.len() as u32).to_le_bytes());
    // Flags column.
    for rec in records {
        body.push(rec.unmatched as u8);
    }
    // Node column.
    for rec in records {
        body.extend_from_slice(&encode_node(rec.node).to_le_bytes());
    }
    // Text column: offsets then blob.
    let mut offset = 0u32;
    for rec in records {
        body.extend_from_slice(&offset.to_le_bytes());
        offset += rec.text.len() as u32;
    }
    body.extend_from_slice(&offset.to_le_bytes());
    for rec in records {
        body.extend_from_slice(rec.text.as_bytes());
    }
    // Variable column: offsets then blob of `u32 n | n × (u32 len | bytes)`.
    let mut var_blob = Vec::new();
    let mut var_offsets = Vec::with_capacity(records.len() + 1);
    for vars in variables {
        var_offsets.push(var_blob.len() as u32);
        var_blob.extend_from_slice(&(vars.len() as u32).to_le_bytes());
        for var in vars {
            var_blob.extend_from_slice(&(var.len() as u32).to_le_bytes());
            var_blob.extend_from_slice(var.as_bytes());
        }
    }
    var_offsets.push(var_blob.len() as u32);
    for off in var_offsets {
        body.extend_from_slice(&off.to_le_bytes());
    }
    body.extend_from_slice(&var_blob);
    // Postings: invert the node column (local offsets ascend naturally).
    let mut postings: Vec<(u32, Vec<u32>)> = Vec::new();
    {
        use std::collections::BTreeMap;
        let mut by_node: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (i, rec) in records.iter().enumerate() {
            let raw = encode_node(rec.node);
            if raw != NO_NODE {
                by_node.entry(raw).or_default().push(i as u32);
            }
        }
        postings.extend(by_node);
    }
    body.extend_from_slice(&(postings.len() as u32).to_le_bytes());
    for (node, offsets) in &postings {
        body.extend_from_slice(&node.to_le_bytes());
        body.extend_from_slice(&(offsets.len() as u32).to_le_bytes());
        for off in offsets {
            body.extend_from_slice(&off.to_le_bytes());
        }
    }
    let checksum = crc32(&body);
    body.extend_from_slice(&checksum.to_le_bytes());

    let final_path = dir.join(segment_file_name(id));
    write_atomic(&final_path, &body)?;
    Ok(final_path)
}

/// Read and verify a segment file.
pub fn read_segment(path: &Path) -> io::Result<Segment> {
    let mut bytes = Vec::new();
    OpenOptions::new()
        .read(true)
        .open(path)?
        .read_to_end(&mut bytes)?;
    let corrupt = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if bytes.len() < 4 {
        return Err(corrupt("segment too short for checksum"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(corrupt("segment checksum mismatch"));
    }
    let mut pos = 0usize;
    let mut take = |n: usize| -> io::Result<&[u8]> {
        let slice = body
            .get(pos..pos + n)
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "truncated segment"))?;
        pos += n;
        Ok(slice)
    };
    if take(4)? != MAGIC {
        return Err(corrupt("bad segment magic"));
    }
    let format = u32::from_le_bytes(take(4)?.try_into().expect("4"));
    if format != FORMAT {
        return Err(corrupt("unknown segment format"));
    }
    let first_seq = u64::from_le_bytes(take(8)?.try_into().expect("8"));
    let count = u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize;
    let flags = take(count)?.to_vec();
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        nodes.push(u32::from_le_bytes(take(4)?.try_into().expect("4")));
    }
    let mut text_offsets = Vec::with_capacity(count + 1);
    for _ in 0..=count {
        text_offsets.push(u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize);
    }
    let text_blob = take(*text_offsets.last().unwrap_or(&0))?;
    let mut records = Vec::with_capacity(count);
    for i in 0..count {
        let text = text_blob
            .get(text_offsets[i]..text_offsets[i + 1])
            .ok_or_else(|| corrupt("text offsets out of range"))?;
        records.push(WalRecord {
            seq: first_seq + i as u64,
            unmatched: flags[i] != 0,
            node: decode_node(nodes[i]),
            text: String::from_utf8(text.to_vec())
                .map_err(|_| corrupt("invalid UTF-8 in text column"))?,
        });
    }
    let mut var_offsets = Vec::with_capacity(count + 1);
    for _ in 0..=count {
        var_offsets.push(u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize);
    }
    let var_blob = take(*var_offsets.last().unwrap_or(&0))?;
    let mut variables = Vec::with_capacity(count);
    for i in 0..count {
        let mut slice = var_blob
            .get(var_offsets[i]..var_offsets[i + 1])
            .ok_or_else(|| corrupt("variable offsets out of range"))?;
        let mut vars = Vec::new();
        if slice.len() < 4 {
            return Err(corrupt("truncated variable entry"));
        }
        let n = u32::from_le_bytes(slice[..4].try_into().expect("4")) as usize;
        slice = &slice[4..];
        for _ in 0..n {
            if slice.len() < 4 {
                return Err(corrupt("truncated variable token"));
            }
            let len = u32::from_le_bytes(slice[..4].try_into().expect("4")) as usize;
            let token = slice
                .get(4..4 + len)
                .ok_or_else(|| corrupt("variable token out of range"))?;
            vars.push(
                String::from_utf8(token.to_vec())
                    .map_err(|_| corrupt("invalid UTF-8 in variable column"))?,
            );
            slice = &slice[4 + len..];
        }
        variables.push(vars);
    }
    let posting_nodes = u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize;
    let mut postings = Vec::with_capacity(posting_nodes);
    for _ in 0..posting_nodes {
        let node = u32::from_le_bytes(take(4)?.try_into().expect("4"));
        let len = u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize;
        let mut offsets = Vec::with_capacity(len);
        for _ in 0..len {
            offsets.push(u32::from_le_bytes(take(4)?.try_into().expect("4")));
        }
        postings.push((node, offsets));
    }
    Ok(Segment {
        first_seq,
        records,
        variables,
        postings,
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
    fn segment_round_trip_preserves_columns_and_postings() {
        let dir = std::env::temp_dir().join(format!("bb-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (records, variables) = sample_records();
        let path = write_segment(&dir, 1, 100, &records, &variables).unwrap();
        let seg = read_segment(&path).unwrap();
        assert_eq!(seg.first_seq, 100);
        assert_eq!(seg.records, records);
        assert_eq!(seg.variables, variables);
        assert_eq!(seg.end_seq(), 104);
        // Postings invert the node column, offsets ascending.
        assert_eq!(
            seg.postings,
            vec![(3, vec![0, 2]), (9, vec![1])],
            "postings must mirror the node column"
        );
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
}
