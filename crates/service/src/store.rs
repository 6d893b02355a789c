//! The "internal topic" (§3): a per-topic store of model snapshots. Each node persists its
//! template text, saturation score and parent/child relationships, which is exactly what
//! online matching and query-time threshold navigation need — no external database.
//!
//! Two snapshot kinds exist. **Full** snapshots serialize the whole model (written by
//! the first training and by epoch checkpoints). **Delta** snapshots serialize only the
//! [`ModelDelta`] a retrain or an incremental run applied, plus the version it applied to — the store records the *lineage* of every
//! version, and [`ModelStore::load`] reconstructs a delta version by loading its nearest
//! full ancestor and replaying the delta chain. [`ModelStore::prune`] therefore never
//! drops a snapshot that a retained version still depends on.

use crate::storage::{LineageEntry, LineageSink};
use bytebrain::incremental::{apply_delta, ModelDelta};
use bytebrain::ParserModel;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::RwLock;

/// Whether a snapshot stores a whole model or an incremental delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SnapshotKind {
    /// The snapshot serializes the full model.
    Full,
    /// The snapshot serializes a [`ModelDelta`] applied to its parent version.
    Delta,
}

/// Metadata describing one persisted model snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotInfo {
    /// Monotonically increasing snapshot version (1 = first training run).
    pub version: u64,
    /// Full model or incremental delta.
    pub kind: SnapshotKind,
    /// The version this snapshot was derived from (`None` for full snapshots, which
    /// are self-contained).
    pub parent: Option<u64>,
    /// Number of active templates (tree nodes, excluding retired slots) in the
    /// reconstructed model.
    pub num_templates: usize,
    /// Approximate serialized size in bytes (for deltas: the delta payload, which is
    /// the point of storing them).
    pub size_bytes: u64,
    /// Number of raw records the reconstructed model covers.
    pub trained_records: u64,
}

/// In-memory model store with versioned snapshots and delta lineage (the production
/// system writes the same payloads to an internal log topic; an in-process store
/// exercises the identical code path at laptop scale).
#[derive(Debug, Default)]
pub struct ModelStore {
    inner: RwLock<StoreInner>,
    /// Durable mirror: every save/prune is echoed to the topic's lineage log,
    /// so a restart restores the whole store — and with it the cold-start
    /// training plus the delta chain — instead of retraining.
    sink: Option<LineageSink>,
}

#[derive(Debug, Default)]
struct StoreInner {
    snapshots: HashMap<u64, (SnapshotInfo, String)>,
    latest: u64,
}

impl StoreInner {
    /// The chain of versions needed to reconstruct `version`, nearest-full-ancestor
    /// first, `version` last. `None` when the version (or part of its chain) is gone.
    fn chain_of(&self, version: u64) -> Option<Vec<u64>> {
        let mut chain = Vec::new();
        let mut current = version;
        loop {
            let (info, _) = self.snapshots.get(&current)?;
            chain.push(current);
            match (info.kind, info.parent) {
                (SnapshotKind::Full, _) => break,
                (SnapshotKind::Delta, Some(parent)) => current = parent,
                (SnapshotKind::Delta, None) => return None,
            }
        }
        chain.reverse();
        Some(chain)
    }
}

impl ModelStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a store from the lineage entries a
    /// [`LineageSink`] restored on open (append order == version order).
    pub fn restore(entries: &[LineageEntry]) -> Self {
        let mut snapshots = HashMap::with_capacity(entries.len());
        let mut latest = 0u64;
        for entry in entries {
            latest = latest.max(entry.info.version);
            snapshots.insert(
                entry.info.version,
                (entry.info.clone(), entry.payload.clone()),
            );
        }
        ModelStore {
            inner: RwLock::new(StoreInner { snapshots, latest }),
            sink: None,
        }
    }

    /// Mirror every future save and prune to the durable lineage log.
    pub fn attach_sink(&mut self, sink: LineageSink) {
        self.sink = Some(sink);
    }

    /// Persist `model` as the next snapshot version (a full, self-contained snapshot)
    /// and return its metadata.
    pub fn save(&self, model: &ParserModel) -> SnapshotInfo {
        let payload = serde_json::to_string(model).expect("model serializes to JSON");
        let mut inner = self.inner.write().expect("store lock poisoned");
        let version = inner.latest + 1;
        let info = SnapshotInfo {
            version,
            kind: SnapshotKind::Full,
            parent: None,
            num_templates: model.len() - model.retired_count(),
            size_bytes: payload.len() as u64,
            trained_records: model.trained_records(),
        };
        if let Some(sink) = &self.sink {
            // Inside the write lock: lineage append order must match version order.
            sink.append(&info, &payload).expect("lineage append");
        }
        inner.snapshots.insert(version, (info.clone(), payload));
        inner.latest = version;
        info
    }

    /// Persist an incremental maintenance step as the next snapshot version. Only the
    /// delta is serialized; `resulting` (the model after [`apply_delta`]) provides the
    /// metadata. The delta's parent is the latest stored version.
    ///
    /// # Panics
    /// Panics when the store is empty — a delta needs a base to apply to.
    pub fn save_delta(&self, delta: &ModelDelta, resulting: &ParserModel) -> SnapshotInfo {
        let payload = serde_json::to_string(delta).expect("delta serializes to JSON");
        let mut inner = self.inner.write().expect("store lock poisoned");
        assert!(
            inner.latest > 0,
            "cannot store a delta snapshot before any full snapshot"
        );
        let parent = inner.latest;
        let version = parent + 1;
        let info = SnapshotInfo {
            version,
            kind: SnapshotKind::Delta,
            parent: Some(parent),
            num_templates: resulting.len() - resulting.retired_count(),
            size_bytes: payload.len() as u64,
            trained_records: resulting.trained_records(),
        };
        if let Some(sink) = &self.sink {
            sink.append(&info, &payload).expect("lineage append");
        }
        inner.snapshots.insert(version, (info.clone(), payload));
        inner.latest = version;
        info
    }

    /// Reconstruct a snapshot by version: full snapshots deserialize directly, delta
    /// snapshots load their nearest full ancestor and replay the delta chain.
    pub fn load(&self, version: u64) -> Option<ParserModel> {
        let inner = self.inner.read().expect("store lock poisoned");
        let chain = inner.chain_of(version)?;
        let mut model: Option<ParserModel> = None;
        for step in chain {
            let (info, payload) = inner.snapshots.get(&step)?;
            match info.kind {
                SnapshotKind::Full => {
                    model = Some(serde_json::from_str(payload).expect("stored model deserializes"));
                }
                SnapshotKind::Delta => {
                    let delta: ModelDelta =
                        serde_json::from_str(payload).expect("stored delta deserializes");
                    let base = model.expect("chain starts with a full snapshot");
                    model = Some(apply_delta(&base, &delta));
                }
            }
        }
        model
    }

    /// Load the most recent snapshot.
    pub fn load_latest(&self) -> Option<ParserModel> {
        let version = self.inner.read().expect("store lock poisoned").latest;
        if version == 0 {
            None
        } else {
            self.load(version)
        }
    }

    /// Metadata of the most recent snapshot.
    pub fn latest_info(&self) -> Option<SnapshotInfo> {
        let inner = self.inner.read().expect("store lock poisoned");
        inner
            .snapshots
            .get(&inner.latest)
            .map(|(info, _)| info.clone())
    }

    /// Metadata of a specific version.
    pub fn info(&self, version: u64) -> Option<SnapshotInfo> {
        let inner = self.inner.read().expect("store lock poisoned");
        inner.snapshots.get(&version).map(|(info, _)| info.clone())
    }

    /// The lineage of `version`: the versions needed to reconstruct it, starting at
    /// its nearest full ancestor and ending at `version` itself.
    pub fn lineage(&self, version: u64) -> Option<Vec<u64>> {
        self.inner
            .read()
            .expect("store lock poisoned")
            .chain_of(version)
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("store lock poisoned")
            .snapshots
            .len()
    }

    /// True when no snapshot has been stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop old snapshots, keeping the most recent `keep` versions (retention policy —
    /// storage efficiency is one of the paper's stated goals) **plus every snapshot a
    /// kept version depends on**: pruning walks the delta lineage of each retained
    /// version and keeps the whole chain down to its nearest full ancestor, so every
    /// retained version stays reconstructable.
    pub fn prune(&self, keep: usize) {
        let mut inner = self.inner.write().expect("store lock poisoned");
        let latest = inner.latest;
        let mut retain: HashSet<u64> = inner
            .snapshots
            .keys()
            .copied()
            .filter(|&version| latest.saturating_sub(version) < keep as u64)
            .collect();
        // Delta lineage must never break: keep the full reconstruction chain of every
        // retained version.
        for version in retain.clone() {
            if let Some(chain) = inner.chain_of(version) {
                retain.extend(chain);
            }
        }
        inner
            .snapshots
            .retain(|version, _| retain.contains(version));
        if let Some(sink) = &self.sink {
            // Atomically rewrite the lineage log with the retained set, ascending by
            // version, so a restart sees exactly the pruned store.
            let mut retained: Vec<(SnapshotInfo, String)> = inner
                .snapshots
                .values()
                .map(|(info, payload)| (info.clone(), payload.clone()))
                .collect();
            retained.sort_by_key(|(info, _)| info.version);
            sink.rewrite(&retained).expect("lineage rewrite");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytebrain::incremental::train_delta;
    use bytebrain::{train::train, TrainConfig};

    fn trained_model() -> ParserModel {
        let mut records: Vec<String> = (0..30)
            .map(|i| format!("request {} served in {}ms", i, i * 2))
            .collect();
        records.extend((0..30).map(|i| {
            format!(
                "session {} opened by user u{} from zone {}",
                i,
                i % 5,
                i % 3
            )
        }));
        records.extend(
            (0..30).map(|i| format!("gc pause of generation {} freed {} objects", i % 4, i * 7)),
        );
        train(&records, &TrainConfig::default()).model
    }

    /// A chain of incremental steps on top of a full snapshot: returns the store and
    /// the model as of the latest version.
    fn store_with_delta_chain(deltas: usize) -> (ModelStore, ParserModel) {
        let store = ModelStore::new();
        let config = TrainConfig::default();
        let mut model = trained_model();
        store.save(&model);
        for step in 0..deltas {
            let batch: Vec<String> = (0..20)
                .map(|i| format!("delta{step} event {i} absorbed"))
                .collect();
            let delta = train_delta(&model, &batch, &config, 0.6);
            model = apply_delta(&model, &delta);
            store.save_delta(&delta, &model);
        }
        (store, model)
    }

    #[test]
    fn save_and_load_round_trip() {
        let store = ModelStore::new();
        let model = trained_model();
        let info = store.save(&model);
        assert_eq!(info.version, 1);
        assert_eq!(info.kind, SnapshotKind::Full);
        assert_eq!(info.parent, None);
        assert_eq!(info.num_templates, model.len());
        let loaded = store.load(1).unwrap();
        assert_eq!(loaded.len(), model.len());
        let texts_a: Vec<String> = model.nodes.iter().map(|n| n.template_text()).collect();
        let texts_b: Vec<String> = loaded.nodes.iter().map(|n| n.template_text()).collect();
        assert_eq!(texts_a, texts_b);
    }

    #[test]
    fn versions_increase_and_latest_wins() {
        let store = ModelStore::new();
        let model = trained_model();
        assert!(store.load_latest().is_none());
        let a = store.save(&model);
        let b = store.save(&model);
        assert_eq!(a.version, 1);
        assert_eq!(b.version, 2);
        assert_eq!(store.latest_info().unwrap().version, 2);
        assert!(store.load_latest().is_some());
    }

    #[test]
    fn prune_keeps_recent_snapshots() {
        let store = ModelStore::new();
        let model = trained_model();
        for _ in 0..5 {
            store.save(&model);
        }
        assert_eq!(store.len(), 5);
        store.prune(2);
        assert_eq!(store.len(), 2);
        assert!(store.load(5).is_some());
        assert!(store.load(4).is_some());
        assert!(store.load(1).is_none());
    }

    #[test]
    fn missing_version_returns_none() {
        let store = ModelStore::new();
        assert!(store.load(7).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn snapshot_size_is_reported() {
        let store = ModelStore::new();
        let info = store.save(&trained_model());
        assert!(info.size_bytes > 100);
        assert!(info.trained_records >= 30);
    }

    #[test]
    fn delta_snapshots_reconstruct_any_version() {
        let (store, latest_model) = store_with_delta_chain(3);
        assert_eq!(store.len(), 4);
        assert_eq!(store.lineage(4), Some(vec![1, 2, 3, 4]));
        // Every version along the chain reconstructs.
        for version in 1..=4 {
            let loaded = store.load(version).unwrap();
            assert!(!loaded.is_empty(), "version {version} reconstructs");
        }
        // The latest reconstruction equals the live model.
        let reconstructed = store.load(4).unwrap();
        assert_eq!(reconstructed.len(), latest_model.len());
        let live: Vec<String> = latest_model
            .nodes
            .iter()
            .map(|n| n.template_text())
            .collect();
        let loaded: Vec<String> = reconstructed
            .nodes
            .iter()
            .map(|n| n.template_text())
            .collect();
        assert_eq!(live, loaded);
    }

    #[test]
    fn delta_snapshots_are_smaller_than_full_ones() {
        let (store, _) = store_with_delta_chain(1);
        let full = store.info(1).unwrap();
        let delta = store.info(2).unwrap();
        assert_eq!(delta.kind, SnapshotKind::Delta);
        assert_eq!(delta.parent, Some(1));
        assert!(
            delta.size_bytes < full.size_bytes,
            "delta ({} B) should undercut the full snapshot ({} B)",
            delta.size_bytes,
            full.size_bytes
        );
    }

    #[test]
    fn prune_never_breaks_delta_lineage() {
        // Regression test: the old fixed-window retention dropped the full base
        // snapshot that live delta versions still depended on, making them
        // unreconstructable.
        let (store, _) = store_with_delta_chain(3); // versions: 1=Full, 2..4=Delta
        store.prune(1); // naive retention would keep only version 4
        assert_eq!(
            store.lineage(4),
            Some(vec![1, 2, 3, 4]),
            "the whole chain of the retained version must survive pruning"
        );
        assert_eq!(store.len(), 4);
        assert!(store.load(4).is_some(), "latest version must reconstruct");
    }

    #[test]
    fn prune_drops_chains_no_retained_version_needs() {
        let store = ModelStore::new();
        let config = TrainConfig::default();
        let mut model = trained_model();
        store.save(&model); // v1 Full
        let batch: Vec<String> = (0..10).map(|i| format!("old delta event {i}")).collect();
        let delta = train_delta(&model, &batch, &config, 0.6);
        model = apply_delta(&model, &delta);
        store.save_delta(&delta, &model); // v2 Delta (parent 1)
        let retrained = trained_model();
        store.save(&retrained); // v3 Full — a fresh chain
        store.prune(1);
        // v3 is self-contained: v1 and v2 are dead and must be dropped.
        assert_eq!(store.len(), 1);
        assert!(store.load(3).is_some());
        assert!(store.load(2).is_none());
        assert!(store.load(1).is_none());
    }
}
