//! Durable tiered storage: WAL → immutable columnar segments → retention.
//!
//! Everything a [`LogTopic`](crate::topic::LogTopic) needs to survive a crash
//! lives in one directory per topic:
//!
//! ```text
//! <topic dir>/
//!   meta.json       topic configuration (name, policy, train config)
//!   MANIFEST.json   durable state: live segments, epoch base, counters
//!   base-<id>.json  the full model the epoch starts from (one file, named by the manifest)
//!   wal.log         CRC-framed records since the last segment seal
//!   events.log      CRC-framed maintenance landings, each with its delta, since
//!                   the last epoch checkpoint — the topic's only model log
//!   segments/       immutable columnar segments (seg-<id>.seg)
//! ```
//!
//! **Write path.** Every ingested record is appended to the WAL with its
//! ingest-time match outcome; appends are fsync-batched at commit points (the
//! end of every ingest chunk). When enough records accumulate, the commit
//! seals them into a columnar segment — flag column, template-id column, text
//! column, variable column (segment format 3) — and restarts the WAL. Every
//! maintenance landing, retrain or incremental run, appends one event (its delta, kind of run, record moves) to the event log:
//! one frame, so a landing is on disk whole or not at all. An **epoch
//! checkpoint** ([`TopicStorage::checkpoint_epoch`]) writes the current model
//! to a fresh base file, rewrites every live record into fresh baseline
//! segments carrying the current assignments, atomically swaps the manifest to
//! name both, and only then truncates the WAL and event log and deletes the
//! previous base file: a topic directory holds exactly one epoch of model
//! history. The first training takes a checkpoint, after that only a retrain
//! that finds retention stalled ([`TopicStorage::retention_waiting`]).
//!
//! **Recovery** ([`TopicStorage::open`]) replays the manifest's segments, the
//! WAL tail and the event log on top of the epoch's base file. The replay
//! re-executes the deterministic temporary-template insertions of flagged
//! records and folds in each event's delta — it never re-matches a line (every
//! record's template id is on disk) and never retrains.
//!
//! **Retention invariant.** A segment may be dropped only when (a) its TTL
//! expired, (b) it holds zero unmatched-at-ingest records (their texts drive
//! the epoch's model replay), (c) it sits outside the training window, the
//! sequence range the topic's next training run reads (the topic owns it and
//! passes it in), and (d) every older segment was dropped
//! first (the record store stays a contiguous sequence range). A pass that
//! drops anything moves `first_live_seq`, the start of the live sequence range
//! the query cache keys on.

pub mod framing;
pub mod manifest;
pub mod segment;
pub mod summary;
pub mod wal;

pub use manifest::{Manifest, SegmentMeta};
pub use segment::Segment;
pub use summary::SegmentSummary;
pub use wal::{DeltaEvent, RecordMove, WalRecord};

use crate::records::RecordStore;
use crate::topic::{MaintenancePolicy, TopicConfig, TopicStats};
use bytebrain::incremental::DriftConfig;
use bytebrain::{NodeId, ParserModel, TrainConfig};
use framing::FrameLog;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Tuning knobs of the storage tier.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Seal a columnar segment once this many records sit in the WAL (clamped to
    /// at least 1).
    pub segment_records: usize,
    /// fsync at commit points (disable only for benchmarks — a crash may then
    /// lose the tail the OS had not flushed, though framing keeps it safe).
    pub fsync: bool,
    /// Drop expired segments that satisfy the retention invariant; `None`
    /// keeps everything forever.
    pub retention_ttl: Option<Duration>,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            segment_records: 4096,
            fsync: true,
            retention_ttl: None,
        }
    }
}

impl StorageConfig {
    /// Override the segment seal threshold.
    pub fn with_segment_records(mut self, records: usize) -> Self {
        self.segment_records = records.max(1);
        self
    }

    /// Override the TTL retention bound.
    pub fn with_retention_ttl(mut self, ttl: Duration) -> Self {
        self.retention_ttl = Some(ttl);
        self
    }

    /// Enable or disable fsync at commit points.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }
}

/// Durable topic configuration, persisted as `meta.json` so
/// [`ServiceManager::open`](crate::manager::ServiceManager::open) can rebuild
/// the topic exactly as provisioned. The maintenance policy is flattened into
/// `maintenance_kind` + `drift` + `check_interval` fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopicMeta {
    /// Tenant key (empty for standalone topics).
    pub tenant: String,
    /// Topic key within the tenant.
    pub topic: String,
    /// Topic display name.
    pub name: String,
    /// Train after this many newly ingested records.
    pub volume_threshold: u64,
    /// Train after this many milliseconds since the last run.
    pub interval_ms: u64,
    /// Training-buffer capacity.
    pub training_buffer: usize,
    /// `"full"` or `"incremental"`.
    pub maintenance_kind: String,
    /// Drift bounds (incremental policy only).
    pub drift: Option<DriftConfig>,
    /// Ingest chunk length, at whose end drift is checked (incremental policy only).
    pub check_interval: u64,
    /// Full training configuration.
    pub train: TrainConfig,
}

impl TopicMeta {
    /// Capture a topic's provisioned configuration.
    pub fn from_config(tenant: &str, topic: &str, config: &TopicConfig) -> Self {
        let (maintenance_kind, drift, check_interval) = match &config.maintenance {
            MaintenancePolicy::FullRetrain => ("full".to_string(), None, 0),
            MaintenancePolicy::Incremental {
                drift,
                check_interval,
            } => (
                "incremental".to_string(),
                Some(drift.clone()),
                *check_interval as u64,
            ),
        };
        TopicMeta {
            tenant: tenant.to_string(),
            topic: topic.to_string(),
            name: config.name.clone(),
            volume_threshold: config.volume_threshold,
            interval_ms: config.interval.as_millis() as u64,
            training_buffer: config.training_buffer,
            maintenance_kind,
            drift,
            check_interval,
            train: config.train.clone(),
        }
    }

    /// Rebuild the provisioned topic configuration.
    pub fn to_config(&self) -> TopicConfig {
        let maintenance = if self.maintenance_kind == "incremental" {
            MaintenancePolicy::Incremental {
                drift: self.drift.clone().unwrap_or_default(),
                check_interval: self.check_interval as usize,
            }
        } else {
            MaintenancePolicy::FullRetrain
        };
        TopicConfig {
            name: self.name.clone(),
            train: self.train.clone(),
            volume_threshold: self.volume_threshold,
            interval: Duration::from_millis(self.interval_ms),
            training_buffer: self.training_buffer,
            maintenance,
        }
    }
}

/// Everything [`TopicStorage::open`] recovered from disk, from which
/// [`LogTopic::open`](crate::topic::LogTopic::open) reconstructs its state.
#[derive(Debug)]
pub struct RecoveredTopic {
    /// The provisioned topic configuration.
    pub meta: TopicMeta,
    /// The manifest as of open.
    pub manifest: Manifest,
    /// Decoded live segments, ascending by sequence. The WAL tail that follows
    /// them is [`TopicStorage::wal_tail`].
    pub segments: Vec<Segment>,
    /// Maintenance events since the epoch checkpoint, in append order.
    pub events: Vec<DeltaEvent>,
    /// The epoch's base model (empty when no model was trained yet).
    pub base: ParserModel,
}

/// What a retention pass removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetentionOutcome {
    /// Records dropped (always a prefix of the live sequence range).
    pub dropped_records: u64,
    /// Accounted bytes dropped.
    pub dropped_bytes: u64,
    /// Segments dropped.
    pub dropped_segments: usize,
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn io_invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Read just the persisted topic configuration of a topic store (used by
/// [`ServiceManager::open`](crate::manager::ServiceManager::open) to key
/// recovered topics without replaying them first).
pub fn read_topic_meta(dir: &Path) -> io::Result<TopicMeta> {
    let json = fs::read_to_string(dir.join("meta.json"))?;
    serde_json::from_str(&json).map_err(|e| io_invalid(format!("meta.json: {e}")))
}

/// The per-topic durable store: WAL + segments + event log + base file +
/// manifest, all under one directory. Owned by the topic; every mutation goes
/// through the topic so in-memory and on-disk state advance together.
#[derive(Debug)]
pub struct TopicStorage {
    dir: PathBuf,
    config: StorageConfig,
    manifest: Manifest,
    wal: FrameLog,
    events: FrameLog,
    /// WAL records not yet sealed (the WAL file's decoded contents).
    pending: Vec<WalRecord>,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Derived push-down summaries, one per live segment (lockstep with
    /// `manifest.segments`); recomputed from the decoded columns on open.
    summaries: Vec<SegmentSummary>,
    /// `at_seq` of the latest delta event since the epoch checkpoint (0 when
    /// none): summaries of segments sealed before it are stale — the delta
    /// may have re-matched their records — and must not prune.
    last_delta_seq: u64,
}

impl TopicStorage {
    fn paths(dir: &Path) -> (PathBuf, PathBuf, PathBuf, PathBuf) {
        (
            dir.join("meta.json"),
            dir.join("MANIFEST.json"),
            dir.join("wal.log"),
            dir.join("events.log"),
        )
    }

    /// True when `dir` holds an initialized topic store.
    pub fn exists(dir: &Path) -> bool {
        dir.join("MANIFEST.json").is_file()
    }

    /// Initialize a fresh topic store in `dir` (creates the directory tree,
    /// persists `meta.json`, then an empty manifest). A directory that already
    /// holds a store ([`TopicStorage::exists`]) is refused with
    /// [`io::ErrorKind::AlreadyExists`] and nothing in it is written.
    pub fn create(dir: &Path, config: StorageConfig, meta: &TopicMeta) -> io::Result<Self> {
        if Self::exists(dir) {
            let msg = format!("{} already holds a topic store", dir.display());
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, msg));
        }
        let config = StorageConfig {
            segment_records: config.segment_records.max(1),
            ..config
        };
        fs::create_dir_all(dir.join("segments"))?;
        let (meta_path, manifest_path, wal_path, events_path) = Self::paths(dir);
        let json = serde_json::to_string_pretty(meta).map_err(|e| io_invalid(e.to_string()))?;
        // Durable before the manifest that marks the store as initialized.
        framing::write_atomic(&meta_path, json.as_bytes())?;
        let manifest = Manifest::new();
        manifest::write_manifest(&manifest_path, &manifest)?;
        let wal = FrameLog::open(&wal_path, |_| {})?;
        let events = FrameLog::open(&events_path, |_| {})?;
        // The logs' directory entries, which the first commit's fsyncs do not cover.
        framing::sync_dir(dir)?;
        Ok(TopicStorage {
            dir: dir.to_path_buf(),
            config,
            manifest,
            wal,
            events,
            pending: Vec::new(),
            next_seq: 0,
            summaries: Vec::new(),
            last_delta_seq: 0,
        })
    }

    /// Open an existing topic store: verify and load the manifest's segments
    /// and base file, replay the WAL tail and event log, and delete orphan files
    /// from crashed seals and checkpoints. Nothing the manifest holds is written.
    pub fn open(dir: &Path, config: StorageConfig) -> io::Result<(Self, RecoveredTopic)> {
        let config = StorageConfig {
            segment_records: config.segment_records.max(1),
            ..config
        };
        let (meta_path, manifest_path, wal_path, events_path) = Self::paths(dir);
        let meta_json = fs::read_to_string(&meta_path)?;
        let meta: TopicMeta =
            serde_json::from_str(&meta_json).map_err(|e| io_invalid(format!("meta.json: {e}")))?;
        let manifest = manifest::read_manifest(&manifest_path)?
            .ok_or_else(|| io_invalid("missing MANIFEST.json".to_string()))?;

        // Garbage-collect files the manifest does not reference: a crash
        // between a segment or base file write and the manifest rewrite leaves
        // orphans behind.
        let base_name = manifest::base_file_name(manifest.epoch_base);
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("base-") && name != base_name {
                let _ = fs::remove_file(entry.path());
            }
        }
        let base = match manifest.epoch_base {
            0 => ParserModel::new(),
            id => manifest::read_base(dir, id)?,
        };
        let seg_dir = dir.join("segments");
        fs::create_dir_all(&seg_dir)?;
        let live: std::collections::HashSet<String> = manifest
            .segments
            .iter()
            .map(|s| segment::segment_file_name(s.id))
            .collect();
        for entry in fs::read_dir(&seg_dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !live.contains(&name) {
                let _ = fs::remove_file(entry.path());
            }
        }

        let mut segments = Vec::with_capacity(manifest.segments.len());
        for seg_meta in &manifest.segments {
            let seg =
                segment::read_segment(&seg_dir.join(segment::segment_file_name(seg_meta.id)))?;
            if seg.first_seq != seg_meta.first_seq || seg.records.len() as u64 != seg_meta.records {
                return Err(io_invalid(format!(
                    "segment {} disagrees with manifest",
                    seg_meta.id
                )));
            }
            segments.push(seg);
        }

        // WAL tail: frames below the sealed end were already sealed (the crash
        // hit between manifest rewrite and WAL truncation) and are skipped.
        let sealed_end = manifest.sealed_end_seq();
        let mut wal_tail: Vec<WalRecord> = Vec::new();
        let mut bad = false;
        let wal = FrameLog::open(&wal_path, |frame| match WalRecord::decode(frame) {
            Ok(rec) => {
                if rec.seq >= sealed_end {
                    wal_tail.push(rec);
                }
            }
            Err(_) => bad = true,
        })?;
        if bad {
            return Err(io_invalid("undecodable WAL frame".to_string()));
        }
        let mut events_list: Vec<DeltaEvent> = Vec::new();
        let events = FrameLog::open(&events_path, |frame| match DeltaEvent::decode(frame) {
            Ok(event) => events_list.push(event),
            Err(_) => bad = true,
        })?;
        if bad {
            return Err(io_invalid("undecodable event frame".to_string()));
        }

        let next_seq = wal_tail.last().map(|r| r.seq + 1).unwrap_or(sealed_end);

        // Summaries are derived state: recompute from the decoded variable
        // columns, so they can never disagree with what is on disk.
        let summaries = segments
            .iter()
            .map(|seg| SegmentSummary::build(&seg.variables))
            .collect();
        let last_delta_seq = events_list.iter().map(|e| e.at_seq).max().unwrap_or(0);

        let recovered = RecoveredTopic {
            meta,
            manifest: manifest.clone(),
            segments,
            events: events_list,
            base,
        };
        Ok((
            TopicStorage {
                dir: dir.to_path_buf(),
                config,
                manifest,
                wal,
                events,
                pending: wal_tail,
                next_seq,
                summaries,
                last_delta_seq,
            },
            recovered,
        ))
    }

    /// The storage directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The records appended since the last segment seal, ascending by sequence: on
    /// open, the WAL tail recovery replays.
    pub fn wal_tail(&self) -> &[WalRecord] {
        &self.pending
    }

    /// Next sequence number to assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the oldest retained record.
    pub fn first_live_seq(&self) -> u64 {
        self.manifest.first_live_seq
    }

    /// Accounted bytes dropped by retention so far.
    pub fn bytes_dropped(&self) -> u64 {
        self.manifest.bytes_dropped
    }

    /// Live segment metadata (ascending by sequence).
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.manifest.segments
    }

    /// Live segments paired with their push-down summaries (ascending by
    /// sequence). The planner consults these to skip whole segments before
    /// touching any record.
    pub fn segment_summaries(&self) -> impl Iterator<Item = (&SegmentMeta, &SegmentSummary)> {
        debug_assert_eq!(self.summaries.len(), self.manifest.segments.len());
        self.manifest.segments.iter().zip(self.summaries.iter())
    }

    /// `at_seq` of the latest delta event since the epoch checkpoint (0 when
    /// none). Variable-column summaries of segments whose `first_seq` is
    /// below this are stale (the delta may have re-matched their records or
    /// patched their templates) and must not prune.
    pub fn last_delta_seq(&self) -> u64 {
        self.last_delta_seq
    }

    /// Append one ingested record to the WAL (durability lands at the next
    /// [`TopicStorage::commit`]). Returns the record's sequence number.
    pub fn append_record(
        &mut self,
        unmatched: bool,
        node: Option<NodeId>,
        text: &str,
    ) -> io::Result<u64> {
        let rec = WalRecord {
            seq: self.next_seq,
            unmatched,
            node,
            text: text.to_string(),
        };
        self.wal.append(&rec.encode())?;
        self.pending.push(rec);
        self.next_seq += 1;
        Ok(self.next_seq - 1)
    }

    /// Append one maintenance event (its delta + kind of run + record moves)
    /// to the event log, as one frame. Marks summaries of every already-sealed
    /// segment stale for push-down pruning (see
    /// [`TopicStorage::last_delta_seq`]).
    pub fn append_delta_event(&mut self, event: &DeltaEvent) -> io::Result<()> {
        let frame = event.encode()?;
        self.last_delta_seq = self.last_delta_seq.max(event.at_seq);
        self.events.append(&frame)
    }

    /// Commit point: seal full segments out of the WAL (their variable columns
    /// from `vars_of` — the topic copies its slot column), then fsync every dirty
    /// log in one batch. Returns the number of segments sealed.
    pub fn commit(
        &mut self,
        mut vars_of: impl FnMut(&WalRecord) -> Vec<String>,
    ) -> io::Result<usize> {
        let mut sealed = 0usize;
        while self.pending.len() >= self.config.segment_records {
            let chunk: Vec<WalRecord> = self.pending.drain(..self.config.segment_records).collect();
            self.seal_segment(&chunk, &mut vars_of)?;
            sealed += 1;
        }
        if sealed > 0 {
            manifest::write_manifest(&self.dir.join("MANIFEST.json"), &self.manifest)?;
            // Restart the WAL with just the unsealed remainder. A crash before
            // this point leaves sealed duplicates in the WAL; replay skips
            // them by sequence number.
            self.wal.truncate()?;
            for rec in &self.pending {
                self.wal.append(&rec.encode())?;
            }
        }
        if self.config.fsync {
            self.wal.sync()?;
            self.events.sync()?;
        }
        Ok(sealed)
    }

    fn seal_segment(
        &mut self,
        chunk: &[WalRecord],
        vars_of: &mut impl FnMut(&WalRecord) -> Vec<String>,
    ) -> io::Result<()> {
        debug_assert!(!chunk.is_empty());
        let variables: Vec<Vec<String>> = chunk.iter().map(&mut *vars_of).collect();
        let id = self.manifest.next_segment_id;
        segment::write_segment(
            &self.dir.join("segments"),
            id,
            chunk[0].seq,
            chunk,
            &variables,
        )?;
        self.summaries.push(SegmentSummary::build(&variables));
        self.manifest.next_segment_id += 1;
        self.manifest.segments.push(SegmentMeta {
            id,
            first_seq: chunk[0].seq,
            records: chunk.len() as u64,
            bytes: chunk.iter().map(|r| r.accounted_bytes()).sum(),
            flagged: chunk.iter().filter(|r| r.unmatched).count() as u64,
            created_at: unix_now(),
        });
        Ok(())
    }

    /// Epoch checkpoint: write `model` to a fresh base file, rewrite every live
    /// record as fresh baseline segments carrying the current assignments and
    /// slot columns, swap the manifest to name both, then truncate the WAL and
    /// event log and delete what the old manifest named. Must directly follow a
    /// training run's re-match: the flags of `records` are cleared — the new
    /// epoch's model replay starts from `model` — so the model may hold no live
    /// temporary and no record may be waiting unmatched.
    pub fn checkpoint_epoch(
        &mut self,
        records: &RecordStore,
        model: &ParserModel,
        stats: &TopicStats,
    ) -> io::Result<()> {
        let first_live = self.manifest.first_live_seq;
        debug_assert_eq!(
            first_live + records.len() as u64,
            self.next_seq,
            "live records must cover the retained sequence range"
        );
        let old_base = self.manifest.epoch_base;
        let base = old_base + 1;
        manifest::write_base(&self.dir, base, model)?;
        let mut vars_of =
            |rec: &WalRecord| records.owned_variables((rec.seq - first_live) as usize);
        let old_segments = std::mem::take(&mut self.manifest.segments);
        self.summaries.clear();
        let mut baseline: Vec<WalRecord> = Vec::with_capacity(self.config.segment_records);
        for (seq, stored) in (first_live..).zip(records.iter()) {
            baseline.push(WalRecord {
                seq,
                unmatched: false,
                node: stored.template,
                text: stored.record.to_owned(),
            });
            if baseline.len() == self.config.segment_records {
                self.seal_segment(&baseline, &mut vars_of)?;
                baseline.clear();
            }
        }
        if !baseline.is_empty() {
            self.seal_segment(&baseline, &mut vars_of)?;
        }
        self.manifest.epoch_start_seq = self.next_seq;
        self.manifest.epoch_base = base;
        self.manifest.maintenance_runs_at_epoch = stats.maintenance_runs;
        self.manifest.last_maintenance_seconds_at_epoch = stats.last_maintenance_seconds;
        self.manifest.training_runs = stats.training_runs;
        self.manifest.last_training_seconds = stats.last_training_seconds;
        manifest::write_manifest(&self.dir.join("MANIFEST.json"), &self.manifest)?;
        // Only now is the old epoch unreachable: drop its WAL, events, base
        // file and superseded segment files.
        self.pending.clear();
        self.wal.truncate()?;
        self.events.truncate()?;
        // Fresh epoch: every segment was resealed with current assignments,
        // so all summaries are trustworthy again.
        self.last_delta_seq = 0;
        for old in old_segments {
            let _ = fs::remove_file(
                self.dir
                    .join("segments")
                    .join(segment::segment_file_name(old.id)),
            );
        }
        if old_base > 0 {
            let _ = fs::remove_file(self.dir.join(manifest::base_file_name(old_base)));
        }
        Ok(())
    }

    /// True when the segment may be dropped by retention: no flagged records
    /// (their texts drive the epoch's model replay) and no record in the training
    /// `window` (the sequence range the topic's next training run reads).
    fn droppable(seg: &SegmentMeta, window: &Range<u64>) -> bool {
        seg.flagged == 0 && (seg.end_seq() <= window.start || seg.first_seq >= window.end)
    }

    /// True when TTL retention is stalled: some expired segment cannot be
    /// dropped until an epoch checkpoint clears its flags or the training `window`
    /// moves past it. Never without a TTL.
    pub fn retention_waiting(&self, window: Range<u64>) -> bool {
        let Some(ttl) = self.config.retention_ttl else {
            return false;
        };
        let now = unix_now();
        let segments = self.manifest.segments.iter();
        let mut expired = segments.take_while(|seg| seg.expired(ttl, now));
        expired.any(|seg| !Self::droppable(seg, &window))
    }

    /// TTL retention: drop the longest expired prefix of segments droppable with the
    /// training `window` where it is. The caller (the topic) drains the same record
    /// prefix from memory and rebuilds its postings. No-op when no TTL is configured.
    pub fn retention_pass(&mut self, window: Range<u64>) -> io::Result<RetentionOutcome> {
        let Some(ttl) = self.config.retention_ttl else {
            return Ok(RetentionOutcome::default());
        };
        let now = unix_now();
        let mut outcome = RetentionOutcome::default();
        let mut dropped_ids = Vec::new();
        while let Some(seg) = self.manifest.segments.first() {
            if !(seg.expired(ttl, now) && Self::droppable(seg, &window)) {
                break;
            }
            let seg = self.manifest.segments.remove(0);
            self.summaries.remove(0);
            outcome.dropped_records += seg.records;
            outcome.dropped_bytes += seg.bytes;
            outcome.dropped_segments += 1;
            self.manifest.first_live_seq = seg.end_seq();
            dropped_ids.push(seg.id);
        }
        if outcome.dropped_segments > 0 {
            self.manifest.bytes_dropped += outcome.dropped_bytes;
            manifest::write_manifest(&self.dir.join("MANIFEST.json"), &self.manifest)?;
            for id in dropped_ids {
                let _ = fs::remove_file(
                    self.dir
                        .join("segments")
                        .join(segment::segment_file_name(id)),
                );
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::LogTopic;
    use bytebrain::AblationConfig;

    /// A `meta.json` as topics persisted it while `AblationConfig` still had a
    /// `hash_encoding` switch and the merge threshold and saturation target were
    /// settings: the retired keys are ignored on decode, so those topics reopen.
    const META_WITH_RETIRED_KEYS: &str = r#"{
  "tenant": "acme",
  "topic": "web",
  "name": "web",
  "volume_threshold": 50000,
  "interval_ms": 600000,
  "training_buffer": 500000,
  "merge_threshold": 0.6,
  "maintenance_kind": "full",
  "drift": null,
  "check_interval": 0,
  "train": {
    "preprocess": {
      "tokenizer": {
        "extra_delimiters": [],
        "use_default_delimiters": true,
        "split_sentence_periods": true,
        "max_tokens": 512
      },
      "use_default_masks": true,
      "extra_masks": [],
      "deduplicate": true
    },
    "prefix_tokens": 0,
    "max_depth": 24,
    "max_cluster_iters": 8,
    "saturation_target": 1.0,
    "seed": 24301,
    "parallelism": 1,
    "max_training_records": 2000000,
    "ablation": {
      "position_importance": true,
      "variable_in_saturation": true,
      "confidence_factor": true,
      "kmeanspp_centroids": true,
      "ensure_saturation_increase": true,
      "balanced_grouping": true,
      "early_stopping": true,
      "deduplication": true,
      "text_based_matching": true,
      "hash_encoding": true
    }
  }
}"#;

    /// A `meta.json` of an incremental topic as persisted while the drift bounds
    /// still carried `max_saturation_drop`.
    const INCREMENTAL_META_WITH_SATURATION_DROP: &str = r#"{
  "tenant": "acme",
  "topic": "web",
  "name": "web",
  "volume_threshold": 50000,
  "interval_ms": 600000,
  "training_buffer": 500000,
  "merge_threshold": 0.6,
  "maintenance_kind": "incremental",
  "drift": {
    "window": 1024,
    "min_samples": 256,
    "max_unmatched_rate": 0.05,
    "max_saturation_drop": 0.15
  },
  "check_interval": 2048,
  "train": {
    "preprocess": {
      "tokenizer": {
        "extra_delimiters": [],
        "use_default_delimiters": true,
        "split_sentence_periods": true,
        "max_tokens": 512
      },
      "use_default_masks": true,
      "extra_masks": [],
      "deduplicate": true
    },
    "prefix_tokens": 0,
    "max_depth": 24,
    "max_cluster_iters": 8,
    "saturation_target": 1.0,
    "seed": 24301,
    "parallelism": 1,
    "max_training_records": 2000000,
    "ablation": {
      "position_importance": true,
      "variable_in_saturation": true,
      "confidence_factor": true,
      "kmeanspp_centroids": true,
      "ensure_saturation_increase": true,
      "balanced_grouping": true,
      "early_stopping": true,
      "deduplication": true,
      "text_based_matching": true
    }
  }
}"#;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bb-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn storage() -> StorageConfig {
        StorageConfig::default().with_fsync(false)
    }

    /// The configuration a topic reopens with from a store whose `meta.json` is
    /// `meta_json`.
    fn reopened_config(tag: &str, meta_json: &str) -> TopicConfig {
        let dir = scratch(tag);
        let meta: TopicMeta = serde_json::from_str(meta_json).expect("meta.json decodes");
        TopicStorage::create(&dir, storage(), &meta).expect("create store");
        fs::write(dir.join("meta.json"), meta_json).expect("write the old meta.json");
        let config = LogTopic::open(&dir, storage())
            .expect("reopen")
            .config()
            .clone();
        fs::remove_dir_all(&dir).ok();
        config
    }

    #[test]
    fn meta_with_retired_keys_reopens_to_a_fresh_topics_config() {
        let meta: TopicMeta = serde_json::from_str(META_WITH_RETIRED_KEYS).expect("decodes");
        assert_eq!(meta.train.ablation, AblationConfig::full());
        assert_eq!(
            format!("{:?}", reopened_config("full", META_WITH_RETIRED_KEYS)),
            format!("{:?}", TopicConfig::new("web"))
        );
    }

    #[test]
    fn incremental_meta_with_a_saturation_drop_reopens_to_a_fresh_topics_config() {
        let fresh = TopicConfig::new("web").with_incremental_maintenance(DriftConfig::default());
        assert_eq!(
            format!(
                "{:?}",
                reopened_config("incremental", INCREMENTAL_META_WITH_SATURATION_DROP)
            ),
            format!("{fresh:?}")
        );
    }

    #[test]
    fn create_refuses_a_directory_that_holds_a_store() {
        let dir = scratch("create-twice");
        let mut topic = LogTopic::durable(TopicConfig::new("web"), &dir, storage()).unwrap();
        let records: Vec<String> = (0..40).map(|i| format!("job {i} finished")).collect();
        topic.ingest(&records);
        drop(topic);
        let files = ["meta.json", "MANIFEST.json", "wal.log"];
        let read = || files.map(|name| fs::read(dir.join(name)).expect("store file"));
        let before = read();

        let other = TopicMeta::from_config("acme", "other", &TopicConfig::new("other"));
        let err = TopicStorage::create(&dir, storage(), &other).expect_err("store exists");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(read(), before, "a refused create writes nothing");
        let reopened = LogTopic::open(&dir, storage()).expect("the store still opens");
        assert_eq!(reopened.records().len(), records.len());
        assert_eq!(reopened.config().name, "web");
        fs::remove_dir_all(&dir).ok();
    }
}
