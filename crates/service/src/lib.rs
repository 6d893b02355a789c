//! `service` — the cloud-service layer around the core parser (§3 "System Design", §6
//! "Industrial Evaluation").
//!
//! A **log topic** is the unit of the log service: records are ingested into a topic,
//! parsed online against the topic's current model, and stored with their template id so
//! queries can group and filter by template at any precision. Training runs periodically —
//! triggered by ingested volume or elapsed time — on the recent logs of the topic, and the
//! refreshed model is merged with the previous one.
//!
//! Modules:
//!
//! * [`topic`] — the `LogTopic`: ingestion, online matching, training lifecycle.
//! * [`records`] — the record store: each record's text in one arena beside its
//!   template and variable-slot columns, exactly as the match produced them.
//! * [`ingest`] — the ingest driver [`drive`] (prepare → match → apply, once per
//!   chunk: `check_interval` records under incremental maintenance, the whole batch
//!   otherwise), which every ingest runs on one of two routes — the batch kernel
//!   (`LogTopic::ingest`) or the streaming engine [`StreamIngestor`]
//!   (`LogTopic::ingest_stream`, and the server's engine thread above its stream
//!   threshold) — and that engine: one open batch → parallel match over one immutable
//!   model snapshot, with back-pressure stats. The route chooses only the engine: both
//!   hand the topic one [`BatchMatch`](bytebrain::BatchMatch) per chunk, so both make
//!   the same maintenance decisions.
//! * [`matcher_pool`] — the worker pool that executes matching for the engine.
//! * [`manager`] — the multi-tenant `ServiceManager`: topics created on first use
//!   with per-tenant defaults, fleet statistics, durable open/recovery.
//! * [`trigger`] — volume/time training triggers.
//! * [`storage`] — the durable tier of a topic: WAL, columnar segments, and the
//!   "internal topic" of the paper as one model log — the epoch's base model in one
//!   file, and every landing since as one event carrying its delta.
//! * [`query`] — the one `execute(plan)` query path: per-query precision thresholds
//!   and template grouping, served from per-node postings aggregated up the
//!   precomputed saturation ladder (never a record scan), with an LRU result cache
//!   and thread-safe query snapshots.
//! * [`anomaly`] — out-of-the-box analytics: new-template detection and count-shift
//!   detection between two template distributions.
//! * [`library`] — the user-curated template library used for alert configuration.
//! * [`compare`] — template-distribution comparison across time ranges.
//!
//! # Streaming ingestion quick start
//!
//! ```
//! use service::{IngestConfig, LogTopic, TopicConfig};
//!
//! let mut topic = LogTopic::new(TopicConfig::new("web").with_volume_threshold(1_000_000));
//! // Cold start: the first (batch) ingest triggers initial training.
//! let warmup: Vec<String> = (0..200)
//!     .map(|i| format!("GET /api/items/{} took {}ms", i % 20, i % 90))
//!     .collect();
//! topic.ingest(&warmup);
//! // Steady state: stream in 256-record batches matched in parallel.
//! let stream: Vec<String> = (0..1000)
//!     .map(|i| format!("GET /api/items/{} took {}ms", i % 30, i % 400))
//!     .collect();
//! let result = topic.ingest_stream(stream, &IngestConfig::default().with_batch_records(256));
//! assert_eq!(result.stats.records, 1000);
//! assert!(result.stats.submitted_batches >= 4);
//! assert!(result.outcome.matched > 900);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod anomaly;
pub mod api;
pub mod compare;
pub mod ingest;
pub mod library;
pub mod manager;
pub mod matcher_pool;
pub mod query;
pub mod records;
pub mod storage;
pub mod topic;
pub mod trigger;

pub use admission::{
    Admission, AdmissionConfig, AdmissionMetrics, AdmittedBatch, Shed, TenantAdmissionStats,
    TenantQuota,
};
pub use anomaly::{AnomalyKind, AnomalyReport};
pub use api::{ErrorBody, IngestRequest, IngestResponse, StatsResponse};
pub use bytebrain::{CompiledMatcher, MatchCache};
pub use compare::{compare_snapshots, compare_windows, DistributionShift};
pub use ingest::{
    drive, IngestConfig, IngestStats, Overloaded, Route, StreamIngestor, TopicAccess,
};
pub use library::TemplateLibrary;
pub use manager::{FleetStats, ServiceManager, TenantDefaults};
pub use matcher_pool::{IdBatchResult, MatcherPool};
pub use query::{QueryCache, QueryIndex, QuerySnapshot, QueryValue, TemplateGroup};
pub use records::{RecordStore, StoredRecord};
pub use storage::{RecoveredTopic, StorageConfig, TopicMeta, TopicStorage};
pub use topic::{
    IngestOutcome, LogTopic, MaintenancePolicy, StreamOutcome, TopicConfig, TopicStats,
};
pub use trigger::{TrainingTrigger, TriggerDecision};
