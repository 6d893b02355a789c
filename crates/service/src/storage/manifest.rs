//! The topic manifest: the single source of truth for what is durable.
//!
//! `MANIFEST.json` names the live segments, the epoch's base model file and the
//! epoch/counter state a replay needs. It is rewritten atomically (tmp + fsync +
//! rename) at every seal, epoch boundary and retention pass that drops a segment —
//! a crash leaves either the old manifest or the new one, never a torn file. A
//! reopen reads it and writes nothing.
//! Anything on disk the manifest does not reference (an orphan segment from a
//! crash mid-seal, a base file written by a checkpoint that never swapped the
//! manifest) is garbage and is deleted on open.
//!
//! The **base file** (`base-<id>.json`) holds the full model an epoch starts
//! from, as JSON followed by its CRC-32 ([`write_checked`]). A checkpoint writes
//! it the way a segment is sealed (tmp + fsync + rename) before the manifest
//! names it, and deletes the previous one only after the manifest swap.

use super::framing::{read_checked, write_atomic, write_checked};
use bytebrain::ParserModel;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// Current manifest format version. Format 1 kept the model history in a
/// separate lineage log; such a directory is refused, not read.
pub const MANIFEST_FORMAT: u32 = 2;

/// Metadata of one sealed segment, as recorded in the manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// Segment id (names the file `seg-<id>.seg`).
    pub id: u64,
    /// Sequence number of the segment's first record.
    pub first_seq: u64,
    /// Number of records sealed in the segment.
    pub records: u64,
    /// Accounted bytes (text + newline per record).
    pub bytes: u64,
    /// Records flagged unmatched-at-ingest. A segment is only droppable by
    /// retention when this is zero — replaying the epoch's model re-executes
    /// the temporary-template insertion of every flagged record, so their
    /// texts must survive as long as the epoch does.
    pub flagged: u64,
    /// Seal wall-clock time (unix seconds) — the TTL clock.
    pub created_at: u64,
}

impl SegmentMeta {
    /// Sequence number one past the segment's last record.
    pub fn end_seq(&self) -> u64 {
        self.first_seq + self.records
    }

    /// Whether the segment was sealed at least `ttl` before `now` (unix seconds).
    pub fn expired(&self, ttl: std::time::Duration, now: u64) -> bool {
        self.created_at.saturating_add(ttl.as_secs()) <= now
    }
}

/// The durable topic state (see module docs for the rewrite points).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format version.
    pub format: u32,
    /// Sequence number of the oldest retained record (advanced by retention).
    pub first_live_seq: u64,
    /// Sequence position of the last epoch checkpoint: the training window
    /// starts here unless a retrain event was logged since.
    pub epoch_start_seq: u64,
    /// Id of the epoch's base file, `base-<id>.json` (0 = no model yet). Replay
    /// starts from this full model and folds the event log's deltas in — a
    /// restart never retrains.
    pub epoch_base: u64,
    /// Completed incremental maintenance runs as of the epoch boundary
    /// (replayed delta events are added on top).
    pub maintenance_runs_at_epoch: u64,
    /// Wall-clock seconds of the most recent maintenance run as of the epoch
    /// boundary (a checkpoint truncates the event log, so replay cannot derive it).
    pub last_maintenance_seconds_at_epoch: f64,
    /// Completed training runs as of the epoch boundary (replay adds retrain events).
    pub training_runs: u64,
    /// Wall-clock seconds of the most recent training run as of the epoch boundary.
    pub last_training_seconds: f64,
    /// Accounted bytes of records dropped by retention (keeps `total_bytes`
    /// exact across restarts even after segments are gone).
    pub bytes_dropped: u64,
    /// Next segment id to allocate.
    pub next_segment_id: u64,
    /// Live segments, ascending by `first_seq` (contiguous sequence ranges).
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// The manifest of a brand-new topic.
    pub fn new() -> Self {
        Manifest {
            format: MANIFEST_FORMAT,
            first_live_seq: 0,
            epoch_start_seq: 0,
            epoch_base: 0,
            maintenance_runs_at_epoch: 0,
            last_maintenance_seconds_at_epoch: 0.0,
            training_runs: 0,
            last_training_seconds: 0.0,
            bytes_dropped: 0,
            next_segment_id: 1,
            segments: Vec::new(),
        }
    }

    /// Sequence number the WAL tail resumes at: one past the last sealed record,
    /// which is the end of the last live segment, or `first_live_seq` when there is
    /// none (retention dropped every segment, or none was sealed yet). WAL records
    /// below it are already sealed and are skipped during replay (a crash between
    /// the manifest rewrite and the WAL truncation leaves such duplicates behind).
    pub fn sealed_end_seq(&self) -> u64 {
        self.segments
            .last()
            .map_or(self.first_live_seq, SegmentMeta::end_seq)
    }
}

impl Default for Manifest {
    fn default() -> Self {
        Self::new()
    }
}

/// Atomically persist the manifest at `path` (tmp + fsync + rename).
pub fn write_manifest(path: &Path, manifest: &Manifest) -> io::Result<()> {
    let json = serde_json::to_string_pretty(manifest)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_atomic(path, json.as_bytes())
}

/// On-disk file name of the base file with id `id`.
pub fn base_file_name(id: u64) -> String {
    format!("base-{id:08}.json")
}

/// Atomically write `model` as the base file `id` in `dir` (tmp + fsync +
/// rename): a crash leaves either no file or a complete one.
pub fn write_base(dir: &Path, id: u64, model: &ParserModel) -> io::Result<()> {
    let json = serde_json::to_string(model)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("base model: {e}")))?;
    write_checked(&dir.join(base_file_name(id)), json.into_bytes())
}

/// Read and verify the base file `id` in `dir`.
pub fn read_base(dir: &Path, id: u64) -> io::Result<ParserModel> {
    let body = read_checked(&dir.join(base_file_name(id)))?;
    let corrupt = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let json = std::str::from_utf8(&body).map_err(|e| corrupt(format!("base file {id}: {e}")))?;
    serde_json::from_str(json).map_err(|e| corrupt(format!("base file {id}: {e}")))
}

/// Load the manifest at `path`; `Ok(None)` when no manifest exists yet.
pub fn read_manifest(path: &Path) -> io::Result<Option<Manifest>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let corrupt = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    // The format first: another format's fields need not decode as this one's.
    #[derive(Deserialize)]
    struct Format {
        format: u32,
    }
    let Format { format } =
        serde_json::from_str(&text).map_err(|e| corrupt(format!("manifest decode error: {e}")))?;
    if format != MANIFEST_FORMAT {
        return Err(corrupt(format!(
            "unsupported manifest format {format} (this build reads format {MANIFEST_FORMAT})"
        )));
    }
    let manifest: Manifest =
        serde_json::from_str(&text).map_err(|e| corrupt(format!("manifest decode error: {e}")))?;
    Ok(Some(manifest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trip() {
        let dir = std::env::temp_dir().join(format!("bb-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST.json");
        assert!(read_manifest(&path).unwrap().is_none());
        let mut manifest = Manifest::new();
        manifest.training_runs = 2;
        manifest.last_training_seconds = 0.25;
        manifest.segments.push(SegmentMeta {
            id: 1,
            first_seq: 0,
            records: 512,
            bytes: 20_000,
            flagged: 0,
            created_at: 1_700_000_000,
        });
        write_manifest(&path, &manifest).unwrap();
        let loaded = read_manifest(&path).unwrap().expect("manifest exists");
        assert_eq!(loaded.training_runs, 2);
        assert_eq!(loaded.segments.len(), 1);
        assert_eq!(loaded.segments[0].end_seq(), 512);
        assert_eq!(loaded.sealed_end_seq(), 512);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_base_file_is_refused() {
        let dir = std::env::temp_dir().join(format!("bb-base-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_base(&dir, 1, &ParserModel::new()).unwrap();
        assert!(read_base(&dir, 1).unwrap().is_empty());
        let path = dir.join(base_file_name(1));
        let bytes = std::fs::read(&path).unwrap();
        // Cut into the CRC tail, then below its four bytes.
        for len in [bytes.len() - 1, 3] {
            std::fs::write(&path, &bytes[..len]).unwrap();
            let err = read_base(&dir, 1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{len} bytes");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
