//! Multi-tenant service manager.
//!
//! The paper's setting is a cloud log service where many tenants each own many log
//! topics, every topic gets out-of-the-box parsing, and compute is bounded per topic
//! (1–5 cores, §3 "Parallel"). `ServiceManager` is the thin multi-tenant layer on top of
//! [`LogTopic`]: it creates topics on first use with per-tenant defaults — ingestion
//! reaches one through [`ServiceManager::topic_mut`] and [`crate::drive`] — and exposes
//! fleet-wide statistics of the kind Table 5 reports.

use crate::query::QueryValue;
use crate::storage::{self, RetentionOutcome, StorageConfig, TopicStorage};
use crate::topic::{LogTopic, MaintenancePolicy, TopicConfig, TopicStats};
use bytebrain::QueryPlan;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Per-tenant configuration defaults applied to newly created topics.
#[derive(Debug, Clone)]
pub struct TenantDefaults {
    /// Train after this many newly ingested records.
    pub volume_threshold: u64,
    /// Worker threads per topic (the paper bounds this to 1–5 in production).
    pub parallelism: usize,
    /// Model-maintenance policy for the tenant's topics (full retrain by default;
    /// evolving-workload tenants opt into incremental maintenance).
    pub maintenance: MaintenancePolicy,
}

impl Default for TenantDefaults {
    fn default() -> Self {
        TenantDefaults {
            volume_threshold: 50_000,
            parallelism: 2,
            maintenance: MaintenancePolicy::FullRetrain,
        }
    }
}

/// Fleet-wide statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Number of tenants with at least one topic.
    pub tenants: usize,
    /// Number of topics.
    pub topics: usize,
    /// Total records ingested across all topics.
    pub total_records: u64,
    /// Total bytes ingested across all topics.
    pub total_bytes: u64,
    /// Sum of all model sizes, in bytes.
    pub total_model_bytes: u64,
}

/// The multi-tenant manager: `(tenant, topic name)` → [`LogTopic`].
#[derive(Debug, Default)]
pub struct ServiceManager {
    topics: BTreeMap<(String, String), LogTopic>,
    defaults: BTreeMap<String, TenantDefaults>,
    /// When set, topics are durable: auto-created under
    /// `<root>/<tenant dir>/<topic dir>` and recovered by [`ServiceManager::open`].
    storage_root: Option<PathBuf>,
    storage_config: StorageConfig,
}

/// Encode a tenant/topic key as a filesystem directory name: alphanumerics, `-` and
/// `_` pass through, everything else is percent-encoded byte-wise, and the empty key is
/// a lone `%` (every other `%` is followed by two hex digits). Injective, so two
/// distinct keys can never collide on one directory.
fn dir_name_of(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for byte in key.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(byte as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    if out.is_empty() {
        out.push('%');
    }
    out
}

impl ServiceManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty **durable** manager: every topic created through it is backed by the
    /// storage tier under `root` (see [`ServiceManager::open`] to recover one).
    pub fn durable(root: &Path, storage: StorageConfig) -> io::Result<Self> {
        fs::create_dir_all(root)?;
        Ok(ServiceManager {
            storage_root: Some(root.to_path_buf()),
            storage_config: storage,
            ..Self::default()
        })
    }

    /// Open (or initialize) a durable service at `root` with default storage tuning:
    /// every topic store under `<root>/<tenant>/<topic>` is recovered — the epoch's
    /// base model loaded and its logged deltas folded in, postings rebuilt from the
    /// stored template ids, no retraining and no re-matching — and new topics are
    /// auto-created durable. A store in another directory format is refused with
    /// `InvalidData`.
    pub fn open(root: &Path) -> io::Result<Self> {
        Self::open_with(root, StorageConfig::default())
    }

    /// [`ServiceManager::open`] with explicit storage tuning.
    pub fn open_with(root: &Path, storage_config: StorageConfig) -> io::Result<Self> {
        let mut manager = Self::durable(root, storage_config.clone())?;
        for tenant_entry in fs::read_dir(root)? {
            let tenant_dir = tenant_entry?.path();
            if !tenant_dir.is_dir() {
                continue;
            }
            for topic_entry in fs::read_dir(&tenant_dir)? {
                let dir = topic_entry?.path();
                if !dir.is_dir() || !TopicStorage::exists(&dir) {
                    continue;
                }
                let meta = storage::read_topic_meta(&dir)?;
                let topic = LogTopic::open(&dir, storage_config.clone())?;
                manager
                    .topics
                    .insert((meta.tenant.clone(), meta.topic.clone()), topic);
            }
        }
        Ok(manager)
    }

    /// The storage root of a durable manager (`None` for in-memory managers).
    pub fn storage_root(&self) -> Option<&Path> {
        self.storage_root.as_deref()
    }

    /// Run TTL retention across the whole fleet (the
    /// "background" maintenance pass — call it from a scheduler loop). Returns the
    /// per-topic outcomes of topics that dropped anything.
    pub fn run_storage_maintenance(&mut self) -> Vec<((String, String), RetentionOutcome)> {
        let mut outcomes = Vec::new();
        for (key, topic) in &mut self.topics {
            let outcome = topic.run_storage_maintenance();
            if outcome.dropped_segments > 0 {
                outcomes.push((key.clone(), outcome));
            }
        }
        outcomes
    }

    /// Set per-tenant defaults used when the tenant's topics are auto-created.
    pub fn set_tenant_defaults(&mut self, tenant: &str, defaults: TenantDefaults) {
        self.defaults.insert(tenant.to_string(), defaults);
    }

    /// The `(tenant, topic)` key of every topic, in key order.
    pub fn topic_keys(&self) -> Vec<(String, String)> {
        self.topics.keys().cloned().collect()
    }

    /// Number of topics across all tenants.
    pub fn topic_count(&self) -> usize {
        self.topics.len()
    }

    /// Names of a tenant's topics.
    pub fn topics_of(&self, tenant: &str) -> Vec<&str> {
        self.topics
            .keys()
            .filter(|(t, _)| t == tenant)
            .map(|(_, name)| name.as_str())
            .collect()
    }

    /// Get (or create) a tenant's topic.
    ///
    /// # Panics
    /// On a durable manager, when the new topic's store cannot be created: a disk
    /// error, or a directory that already holds a store this manager did not open
    /// (`TopicStorage::create` refuses to overwrite it).
    pub fn topic_mut(&mut self, tenant: &str, topic: &str) -> &mut LogTopic {
        let key = (tenant.to_string(), topic.to_string());
        if !self.topics.contains_key(&key) {
            let defaults = self.defaults.get(tenant).cloned().unwrap_or_default();
            let mut config = TopicConfig::new(&format!("{tenant}/{topic}"))
                .with_volume_threshold(defaults.volume_threshold)
                .with_maintenance(defaults.maintenance);
            config.train.parallelism = defaults.parallelism;
            let created = match &self.storage_root {
                Some(root) => {
                    let dir = root.join(dir_name_of(tenant)).join(dir_name_of(topic));
                    LogTopic::durable_keyed(
                        tenant,
                        topic,
                        config,
                        &dir,
                        self.storage_config.clone(),
                    )
                    .expect("create durable topic store")
                }
                None => LogTopic::new(config),
            };
            self.topics.insert(key.clone(), created);
        }
        self.topics.get_mut(&key).expect("topic just ensured")
    }

    /// Borrow an existing topic.
    pub fn topic(&self, tenant: &str, topic: &str) -> Option<&LogTopic> {
        self.topics.get(&(tenant.to_string(), topic.to_string()))
    }

    /// Execute a composed [`QueryPlan`] against a tenant's topic through the
    /// planned push-down path (cached). Returns `None` when the topic does not
    /// exist. This is the full query surface — predicates, time windows,
    /// top-k, distribution, count-distinct. Takes `&self`: queries never block
    /// or mutate topic state, and a warm result is the cache-shared `Arc`.
    pub fn execute(&self, tenant: &str, topic: &str, plan: &QueryPlan) -> Option<QueryValue> {
        self.topic(tenant, topic).map(|t| t.execute(plan))
    }

    /// Per-topic statistics, keyed by `(tenant, topic)`.
    pub fn topic_stats(&self) -> Vec<((String, String), TopicStats)> {
        self.topics
            .iter()
            .map(|(key, topic)| (key.clone(), topic.stats()))
            .collect()
    }

    /// Fleet-wide aggregate statistics.
    pub fn fleet_stats(&self) -> FleetStats {
        let mut tenants: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        let mut total_records = 0u64;
        let mut total_bytes = 0u64;
        let mut total_model_bytes = 0u64;
        for ((tenant, _), topic) in &self.topics {
            tenants.insert(tenant.as_str());
            let stats = topic.stats();
            total_records += stats.total_records;
            total_bytes += stats.total_bytes;
            total_model_bytes += stats.model_size_bytes;
        }
        FleetStats {
            tenants: tenants.len(),
            topics: self.topics.len(),
            total_records,
            total_bytes,
            total_model_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytebrain::Query;

    fn group_plan() -> QueryPlan {
        Query::group_by().plan().expect("predicate-free plan")
    }

    /// Records covered by a groups result.
    fn covered(value: &QueryValue) -> usize {
        let groups = value.groups().expect("groups plan yields groups");
        groups.iter().map(|g| g.count()).sum()
    }

    fn batch(prefix: &str, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("{prefix} event {} completed with status {}", i, i % 4))
            .collect()
    }

    #[test]
    fn topics_are_created_on_first_ingest() {
        let mut manager = ServiceManager::new();
        assert_eq!(manager.topic_count(), 0);
        manager
            .topic_mut("tenant-a", "web")
            .ingest(&batch("web", 200));
        manager
            .topic_mut("tenant-a", "db")
            .ingest(&batch("db", 200));
        manager
            .topic_mut("tenant-b", "web")
            .ingest(&batch("web", 200));
        assert_eq!(manager.topic_count(), 3);
        assert_eq!(manager.topics_of("tenant-a"), vec!["db", "web"]);
    }

    #[test]
    fn topics_are_isolated_between_tenants() {
        let mut manager = ServiceManager::new();
        manager.topic_mut("a", "logs").ingest(&batch("alpha", 300));
        manager.topic_mut("b", "logs").ingest(&batch("beta", 100));
        let a = manager.topic("a", "logs").unwrap().stats();
        let b = manager.topic("b", "logs").unwrap().stats();
        assert_eq!(a.total_records, 300);
        assert_eq!(b.total_records, 100);
        // Each tenant's model is trained only on its own stream.
        assert!(manager
            .topic("a", "logs")
            .unwrap()
            .model()
            .nodes
            .iter()
            .all(|n| !n.template_text().contains("beta")));
    }

    #[test]
    fn tenant_defaults_apply_to_new_topics() {
        let mut manager = ServiceManager::new();
        manager.set_tenant_defaults(
            "big-tenant",
            TenantDefaults {
                volume_threshold: 10,
                parallelism: 1,
                ..TenantDefaults::default()
            },
        );
        // The low volume threshold makes the second small batch trigger retraining.
        manager
            .topic_mut("big-tenant", "app")
            .ingest(&batch("app", 50));
        let outcome = manager
            .topic_mut("big-tenant", "app")
            .ingest(&batch("app", 50));
        assert!(outcome.trained);
    }

    #[test]
    fn fleet_stats_aggregate_all_topics() {
        let mut manager = ServiceManager::new();
        manager.topic_mut("a", "x").ingest(&batch("x", 100));
        manager.topic_mut("a", "y").ingest(&batch("y", 100));
        manager.topic_mut("b", "z").ingest(&batch("z", 100));
        let fleet = manager.fleet_stats();
        assert_eq!(fleet.tenants, 2);
        assert_eq!(fleet.topics, 3);
        assert_eq!(fleet.total_records, 300);
        assert!(fleet.total_bytes > 0);
        assert!(fleet.total_model_bytes > 0);
        assert_eq!(manager.topic_stats().len(), 3);
    }

    #[test]
    fn missing_topic_lookup_returns_none() {
        let manager = ServiceManager::new();
        assert!(manager.topic("nobody", "nothing").is_none());
    }

    #[test]
    fn query_entry_point_serves_indexed_groups() {
        let mut manager = ServiceManager::new();
        manager.topic_mut("a", "web").ingest(&batch("web", 300));
        let groups = manager
            .execute("a", "web", &group_plan())
            .expect("topic exists");
        assert_eq!(covered(&groups), 300);
        let plan = Query::distribution().at_threshold(0.9).plan().unwrap();
        let value = manager.execute("a", "web", &plan).expect("topic exists");
        let distribution = value.distribution().expect("distribution plan");
        assert_eq!(distribution.iter().map(|(_, c)| *c).sum::<u64>(), 300);
        assert!(manager
            .execute("nobody", "nothing", &group_plan())
            .is_none());
    }

    #[test]
    fn incremental_tenant_defaults_propagate_to_topics() {
        use bytebrain::incremental::DriftConfig;
        let mut manager = ServiceManager::new();
        manager.set_tenant_defaults(
            "evolving",
            TenantDefaults {
                maintenance: MaintenancePolicy::Incremental {
                    drift: DriftConfig::default()
                        .with_window(200)
                        .with_min_samples(50)
                        .with_max_unmatched_rate(0.3),
                    check_interval: 512,
                },
                ..TenantDefaults::default()
            },
        );
        manager
            .topic_mut("evolving", "app")
            .ingest(&batch("app", 300));
        // A drifting follow-up maintains incrementally instead of retraining.
        let novel: Vec<String> = (0..150)
            .map(|i| format!("thermal throttle on core {} at {} mC", i % 8, 70_000 + i))
            .collect();
        let outcome = manager.topic_mut("evolving", "app").ingest(&novel);
        assert!(!outcome.trained);
        assert!(outcome.maintained >= 1, "drift must maintain: {outcome:?}");
        let stats = manager.topic("evolving", "app").unwrap().stats();
        assert_eq!(stats.training_runs, 1);
        assert!(stats.maintenance_runs >= 1);
    }

    #[test]
    fn directory_names_are_injective() {
        let keys = ["", "_", "%", "a b", "a%20b", "web", "Web", "é"];
        let names: std::collections::BTreeSet<String> =
            keys.iter().map(|k| dir_name_of(k)).collect();
        assert_eq!(names.len(), keys.len(), "{names:?}");
    }

    /// The empty key and the key `_` get a directory each: neither store overwrites the
    /// other's files, and both come back from a reopen with their records.
    #[test]
    fn empty_and_underscore_keys_keep_separate_stores() {
        let root = std::env::temp_dir().join(format!("bb-empty-key-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let mut manager = ServiceManager::durable(&root, StorageConfig::default()).unwrap();
        manager.topic_mut("", "t").ingest(&batch("empty", 30));
        manager.topic_mut("_", "t").ingest(&batch("underscore", 20));
        manager.topic_mut("t", "").ingest(&batch("empty topic", 10));
        drop(manager);
        let reopened = ServiceManager::open(&root).unwrap();
        let records = |tenant: &str, topic: &str| {
            let topic = reopened.topic(tenant, topic).expect("topic recovered");
            topic.stats().total_records
        };
        assert_eq!(reopened.topic_count(), 3);
        assert_eq!(records("", "t"), 30);
        assert_eq!(records("_", "t"), 20);
        assert_eq!(records("t", ""), 10);
        let _ = fs::remove_dir_all(&root);
    }
}
