//! Admission control in front of [`crate::ServiceManager`]: per-tenant token-bucket
//! rate limits, in-flight byte quotas, bounded per-tenant queues, and fair-share
//! round-robin scheduling of admitted batches across tenants and topics.
//!
//! The layer is deliberately **passive and clock-injected**: every quota decision
//! takes the caller's `now: Instant`, nothing sleeps, and no thread is spawned here —
//! the HTTP front end owns the threads and the engine loop. That keeps the whole
//! policy unit-testable with synthetic clocks and keeps the library dependency-free.
//!
//! Flow: `submit` either **sheds** (returns [`Shed`] with a retry-after hint, which
//! the server maps to HTTP 429) or enqueues the batch under its `(tenant, topic)`
//! queue and hands back a ticket. The engine loop pulls work with `next_batch`, which
//! rotates a tenant cursor and a per-tenant topic cursor so a flooding tenant cannot
//! starve the others, and reports completion with `complete` to release the tenant's
//! in-flight bytes.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Per-tenant quota. The default is fully open (no rate limit, no byte bound) so
/// library users opt *in* to shedding; the server applies its configured defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Sustained admission rate in records per second; `None` = unlimited.
    pub rate_records_per_sec: Option<f64>,
    /// Token-bucket burst capacity in records. Only meaningful with a rate; a bucket
    /// never holds more than this many tokens.
    pub burst_records: u64,
    /// Bound on the sum of record bytes admitted but not yet completed by the
    /// engine; `None` = unlimited.
    pub max_in_flight_bytes: Option<u64>,
    /// Bound on batches queued (admitted, not yet scheduled); `None` = unlimited.
    pub max_queued_batches: Option<usize>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            rate_records_per_sec: None,
            burst_records: 10_000,
            max_in_flight_bytes: None,
            max_queued_batches: None,
        }
    }
}

impl TenantQuota {
    /// Builder: set the sustained rate (records/second).
    pub fn with_rate(mut self, records_per_sec: f64) -> Self {
        self.rate_records_per_sec = Some(records_per_sec.max(f64::MIN_POSITIVE));
        self
    }

    /// Builder: set the burst capacity (records).
    pub fn with_burst(mut self, records: u64) -> Self {
        self.burst_records = records.max(1);
        self
    }

    /// Builder: bound admitted-but-incomplete bytes.
    pub fn with_max_in_flight_bytes(mut self, bytes: u64) -> Self {
        self.max_in_flight_bytes = Some(bytes);
        self
    }

    /// Builder: bound queued batches.
    pub fn with_max_queued_batches(mut self, batches: usize) -> Self {
        self.max_queued_batches = Some(batches.max(1));
        self
    }
}

/// Admission-layer configuration: the default quota plus per-tenant overrides.
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Quota applied to tenants without an explicit override.
    pub default_quota: TenantQuota,
    /// Per-tenant overrides.
    pub overrides: BTreeMap<String, TenantQuota>,
}

impl AdmissionConfig {
    /// Builder: set the default quota.
    pub fn with_default_quota(mut self, quota: TenantQuota) -> Self {
        self.default_quota = quota;
        self
    }

    /// Builder: override one tenant's quota.
    pub fn with_tenant_quota(mut self, tenant: impl Into<String>, quota: TenantQuota) -> Self {
        self.overrides.insert(tenant.into(), quota);
        self
    }

    fn quota_of(&self, tenant: &str) -> TenantQuota {
        self.overrides
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }
}

/// Why a batch was shed instead of admitted. Transient variants carry a back-off
/// hint the server surfaces as `Retry-After`; [`Shed::BatchTooLarge`] is permanent
/// (no amount of waiting admits it) and maps to HTTP 413 instead of 429.
#[derive(Debug, Clone, PartialEq)]
pub enum Shed {
    /// The tenant's token bucket cannot cover the batch yet.
    RateLimited {
        /// Time until the bucket will have refilled enough tokens.
        retry_after: Duration,
    },
    /// Admitting the batch would exceed the tenant's in-flight byte bound.
    ByteQuota {
        /// Bytes currently admitted but not completed.
        in_flight_bytes: u64,
        /// The configured bound.
        limit_bytes: u64,
        /// Heuristic back-off: no refill clock exists for bytes, so a fixed hint.
        retry_after: Duration,
    },
    /// The tenant's queue of admitted-but-unscheduled batches is full.
    QueueFull {
        /// Queued batches at decision time.
        queued: usize,
        /// The configured bound.
        limit: usize,
        /// Heuristic back-off hint.
        retry_after: Duration,
    },
    /// The batch alone exceeds the tenant's in-flight byte bound: it could never be
    /// admitted even with zero bytes in flight, so retrying is pointless.
    BatchTooLarge {
        /// The batch's byte size.
        bytes: u64,
        /// The configured bound.
        limit_bytes: u64,
    },
}

impl Shed {
    /// The back-off hint; `None` for permanent rejections that no wait can cure.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            Shed::RateLimited { retry_after }
            | Shed::ByteQuota { retry_after, .. }
            | Shed::QueueFull { retry_after, .. } => Some(*retry_after),
            Shed::BatchTooLarge { .. } => None,
        }
    }
}

impl std::fmt::Display for Shed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Shed::RateLimited { retry_after } => {
                write!(f, "rate limited; retry after {retry_after:?}")
            }
            Shed::ByteQuota {
                in_flight_bytes,
                limit_bytes,
                ..
            } => write!(
                f,
                "in-flight byte quota exhausted ({in_flight_bytes} of {limit_bytes} bytes)"
            ),
            Shed::QueueFull { queued, limit, .. } => {
                write!(f, "admission queue full ({queued} of {limit} batches)")
            }
            Shed::BatchTooLarge { bytes, limit_bytes } => write!(
                f,
                "batch of {bytes} bytes can never fit the {limit_bytes}-byte in-flight bound; split it"
            ),
        }
    }
}

impl std::error::Error for Shed {}

/// A batch admitted into the scheduler, handed to the engine loop by
/// [`Admission::next_batch`].
#[derive(Debug)]
pub struct AdmittedBatch {
    /// Ticket issued at `submit` time; the server keys reply channels on it.
    pub ticket: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Target topic.
    pub topic: String,
    /// The records, unchanged.
    pub records: Vec<String>,
    /// Sum of record byte lengths, released at `complete` time.
    pub bytes: u64,
}

/// Monotonic per-tenant counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantAdmissionStats {
    /// Batches admitted.
    pub admitted_batches: u64,
    /// Records admitted.
    pub admitted_records: u64,
    /// Batches shed.
    pub shed_batches: u64,
    /// Records shed.
    pub shed_records: u64,
    /// Batches currently queued (gauge).
    pub queued_batches: usize,
    /// Bytes admitted but not yet completed (gauge).
    pub in_flight_bytes: u64,
}

/// Snapshot of the layer's metrics, keyed by tenant.
pub type AdmissionMetrics = BTreeMap<String, TenantAdmissionStats>;

#[derive(Debug)]
struct TokenBucket {
    /// Current tokens (records); fractional so slow rates refill smoothly.
    tokens: f64,
    capacity: f64,
    rate: f64,
    refilled_at: Instant,
}

impl TokenBucket {
    fn new(quota: &TenantQuota, now: Instant) -> Option<Self> {
        quota.rate_records_per_sec.map(|rate| TokenBucket {
            tokens: quota.burst_records as f64,
            capacity: quota.burst_records as f64,
            rate,
            refilled_at: now,
        })
    }

    fn refill(&mut self, now: Instant) {
        let elapsed = now
            .saturating_duration_since(self.refilled_at)
            .as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate).min(self.capacity);
        self.refilled_at = now;
    }

    /// Take `need` tokens, or report how long until they will exist. The reported
    /// wait is clamped to [`MAX_RETRY_AFTER`]: a near-zero rate makes
    /// `deficit / rate` overflow past what `Duration::from_secs_f64` accepts, and a
    /// panic here would poison the scheduler mutex of every caller.
    fn take(&mut self, need: f64, now: Instant) -> Result<(), Duration> {
        self.refill(now);
        if need <= self.tokens {
            self.tokens -= need;
            Ok(())
        } else {
            let deficit = need - self.tokens;
            let secs = deficit / self.rate;
            Err(
                if secs.is_finite() && secs < MAX_RETRY_AFTER.as_secs_f64() {
                    Duration::from_secs_f64(secs)
                } else {
                    MAX_RETRY_AFTER
                },
            )
        }
    }
}

#[derive(Debug)]
struct TenantState {
    quota: TenantQuota,
    bucket: Option<TokenBucket>,
    /// Admitted batches per topic, scheduled round-robin via `topic_cursor`.
    queues: BTreeMap<String, VecDeque<AdmittedBatch>>,
    topic_cursor: usize,
    stats: TenantAdmissionStats,
}

impl TenantState {
    fn queued(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }
}

/// The admission layer: quota enforcement + two-level fair-share scheduling.
///
/// Single-threaded by design — the server wraps it in a mutex and owns the
/// wake-up signalling; see the module docs for the submit/next/complete flow.
#[derive(Debug)]
pub struct Admission {
    config: AdmissionConfig,
    tenants: BTreeMap<String, TenantState>,
    tenant_cursor: usize,
    next_ticket: u64,
}

impl Admission {
    /// Build the layer.
    pub fn new(config: AdmissionConfig) -> Self {
        Admission {
            config,
            tenants: BTreeMap::new(),
            tenant_cursor: 0,
            next_ticket: 0,
        }
    }

    fn tenant_mut(&mut self, tenant: &str, now: Instant) -> &mut TenantState {
        if !self.tenants.contains_key(tenant) {
            let quota = self.config.quota_of(tenant);
            self.tenants.insert(
                tenant.to_string(),
                TenantState {
                    quota,
                    bucket: TokenBucket::new(&quota, now),
                    queues: BTreeMap::new(),
                    topic_cursor: 0,
                    stats: TenantAdmissionStats::default(),
                },
            );
        }
        self.tenants.get_mut(tenant).expect("tenant just ensured")
    }

    /// Admit or shed one batch at time `now`. On admission the batch is queued under
    /// its `(tenant, topic)` and the returned ticket identifies it through
    /// [`Admission::next_batch`].
    pub fn submit(
        &mut self,
        tenant: &str,
        topic: &str,
        records: Vec<String>,
        now: Instant,
    ) -> Result<u64, Shed> {
        let bytes: u64 = records.iter().map(|r| r.len() as u64).sum();
        let count = records.len() as u64;
        let state = self.tenant_mut(tenant, now);
        let verdict = admission_verdict(state, count, bytes, now);
        if let Err(shed) = verdict {
            state.stats.shed_batches += 1;
            state.stats.shed_records += count;
            return Err(shed);
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let state = self.tenants.get_mut(tenant).expect("tenant ensured above");
        state.stats.admitted_batches += 1;
        state.stats.admitted_records += count;
        state.stats.in_flight_bytes += bytes;
        state.stats.queued_batches = state.queued() + 1;
        state
            .queues
            .entry(topic.to_string())
            .or_default()
            .push_back(AdmittedBatch {
                ticket,
                tenant: tenant.to_string(),
                topic: topic.to_string(),
                records,
                bytes,
            });
        Ok(ticket)
    }

    /// Pull the next batch to run, rotating fairly: the tenant cursor advances one
    /// tenant per call, and within a tenant the topic cursor advances one topic per
    /// pull, so neither a hot tenant nor a hot topic can monopolize the engine.
    pub fn next_batch(&mut self) -> Option<AdmittedBatch> {
        let tenant_names: Vec<String> = self
            .tenants
            .iter()
            .filter(|(_, state)| state.queued() > 0)
            .map(|(name, _)| name.clone())
            .collect();
        if tenant_names.is_empty() {
            return None;
        }
        let pick = self.tenant_cursor % tenant_names.len();
        self.tenant_cursor = self.tenant_cursor.wrapping_add(1);
        let name = &tenant_names[pick];
        let state = self.tenants.get_mut(name).expect("listed tenant exists");
        let topics: Vec<String> = state
            .queues
            .iter()
            .filter(|(_, queue)| !queue.is_empty())
            .map(|(topic, _)| topic.clone())
            .collect();
        let topic = &topics[state.topic_cursor % topics.len()];
        state.topic_cursor = state.topic_cursor.wrapping_add(1);
        let batch = state
            .queues
            .get_mut(topic)
            .and_then(VecDeque::pop_front)
            .expect("non-empty queue was selected");
        state.stats.queued_batches = state.queued();
        Some(batch)
    }

    /// Report a batch finished (successfully or not): releases the tenant's
    /// in-flight bytes.
    pub fn complete(&mut self, tenant: &str, bytes: u64) {
        if let Some(state) = self.tenants.get_mut(tenant) {
            state.stats.in_flight_bytes = state.stats.in_flight_bytes.saturating_sub(bytes);
        }
    }

    /// Total batches queued across all tenants.
    pub fn queued(&self) -> usize {
        self.tenants.values().map(TenantState::queued).sum()
    }

    /// Per-tenant metrics snapshot.
    pub fn metrics(&self) -> AdmissionMetrics {
        self.tenants
            .iter()
            .map(|(name, state)| (name.clone(), state.stats))
            .collect()
    }
}

/// Heuristic back-off for quota kinds with no refill clock.
const STATIC_RETRY_AFTER: Duration = Duration::from_millis(250);

/// Upper bound on any reported back-off; also the cap that keeps a pathological
/// `deficit / rate` from overflowing `Duration::from_secs_f64`.
const MAX_RETRY_AFTER: Duration = Duration::from_secs(3600);

fn admission_verdict(
    state: &mut TenantState,
    count: u64,
    bytes: u64,
    now: Instant,
) -> Result<(), Shed> {
    if let Some(limit) = state.quota.max_queued_batches {
        let queued = state.queued();
        if queued >= limit {
            return Err(Shed::QueueFull {
                queued,
                limit,
                retry_after: STATIC_RETRY_AFTER,
            });
        }
    }
    if let Some(limit_bytes) = state.quota.max_in_flight_bytes {
        // A batch bigger than the whole bound cannot be admitted even from an idle
        // state — surface that as a permanent rejection, not a retryable shed.
        if bytes > limit_bytes {
            return Err(Shed::BatchTooLarge { bytes, limit_bytes });
        }
        if state.stats.in_flight_bytes + bytes > limit_bytes {
            return Err(Shed::ByteQuota {
                in_flight_bytes: state.stats.in_flight_bytes,
                limit_bytes,
                retry_after: STATIC_RETRY_AFTER,
            });
        }
    }
    if let Some(bucket) = &mut state.bucket {
        if let Err(retry_after) = bucket.take(count as f64, now) {
            return Err(Shed::RateLimited { retry_after });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize, tag: &str) -> Vec<String> {
        (0..n).map(|i| format!("{tag} record {i}")).collect()
    }

    #[test]
    fn open_quota_admits_everything() {
        let mut admission = Admission::new(AdmissionConfig::default());
        let now = Instant::now();
        for i in 0..100 {
            admission
                .submit("t", "topic", batch(1_000, &format!("b{i}")), now)
                .expect("open quota never sheds");
        }
        let metrics = admission.metrics();
        assert_eq!(metrics["t"].admitted_batches, 100);
        assert_eq!(metrics["t"].shed_batches, 0);
    }

    #[test]
    fn token_bucket_sheds_past_burst_and_recovers_with_time() {
        let quota = TenantQuota::default().with_rate(100.0).with_burst(50);
        let config = AdmissionConfig::default().with_default_quota(quota);
        let mut admission = Admission::new(config);
        let t0 = Instant::now();
        admission
            .submit("t", "topic", batch(50, "a"), t0)
            .expect("burst covers the first 50 records");
        let shed = admission
            .submit("t", "topic", batch(10, "b"), t0)
            .expect_err("bucket is empty");
        let Shed::RateLimited { retry_after } = shed else {
            panic!("expected RateLimited, got {shed:?}");
        };
        // 10 records at 100/s need 100ms of refill.
        assert!(retry_after >= Duration::from_millis(99), "{retry_after:?}");
        assert!(retry_after <= Duration::from_millis(101), "{retry_after:?}");
        // Advance the injected clock past the deficit: admission resumes.
        let later = t0 + Duration::from_millis(150);
        admission
            .submit("t", "topic", batch(10, "b"), later)
            .expect("refilled bucket admits again");
        let stats = admission.metrics()["t"];
        assert_eq!(stats.admitted_records, 60);
        assert_eq!(stats.shed_records, 10);
    }

    #[test]
    fn byte_quota_sheds_until_completion_releases_bytes() {
        let quota = TenantQuota::default().with_max_in_flight_bytes(200);
        let config = AdmissionConfig::default().with_default_quota(quota);
        let mut admission = Admission::new(config);
        let now = Instant::now();
        let records = vec!["x".repeat(150)];
        admission
            .submit("t", "topic", records.clone(), now)
            .expect("first 150 bytes fit");
        let shed = admission
            .submit("t", "topic", records.clone(), now)
            .expect_err("300 bytes in flight would exceed 200");
        assert!(matches!(shed, Shed::ByteQuota { .. }), "{shed:?}");
        // The engine finishes the first batch; its bytes are released.
        let admitted = admission.next_batch().expect("one batch queued");
        admission.complete("t", admitted.bytes);
        admission
            .submit("t", "topic", records, now)
            .expect("released bytes admit the retry");
    }

    #[test]
    fn full_queue_sheds_with_queue_full() {
        let quota = TenantQuota::default().with_max_queued_batches(2);
        let config = AdmissionConfig::default().with_default_quota(quota);
        let mut admission = Admission::new(config);
        let now = Instant::now();
        admission.submit("t", "topic", batch(1, "a"), now).unwrap();
        admission.submit("t", "topic", batch(1, "b"), now).unwrap();
        let shed = admission
            .submit("t", "topic", batch(1, "c"), now)
            .expect_err("queue bound is 2");
        assert!(
            matches!(
                shed,
                Shed::QueueFull {
                    queued: 2,
                    limit: 2,
                    ..
                }
            ),
            "{shed:?}"
        );
        // Scheduling (not completion) frees queue slots.
        admission.next_batch().expect("pop one");
        admission
            .submit("t", "topic", batch(1, "c"), now)
            .expect("slot freed");
    }

    #[test]
    fn scheduling_round_robins_across_tenants_and_topics() {
        let mut admission = Admission::new(AdmissionConfig::default());
        let now = Instant::now();
        // Tenant "flood" queues 6 batches over two topics; "quiet" queues 2.
        for i in 0..3 {
            admission
                .submit("flood", "t1", batch(1, &format!("f1-{i}")), now)
                .unwrap();
            admission
                .submit("flood", "t2", batch(1, &format!("f2-{i}")), now)
                .unwrap();
        }
        admission.submit("quiet", "t", batch(1, "q0"), now).unwrap();
        admission.submit("quiet", "t", batch(1, "q1"), now).unwrap();
        let mut order = Vec::new();
        while let Some(admitted) = admission.next_batch() {
            order.push((admitted.tenant.clone(), admitted.topic.clone()));
        }
        assert_eq!(order.len(), 8);
        // Both "quiet" batches must run within the first four pulls (strict
        // alternation while both tenants have work), and "flood"'s two topics must
        // interleave rather than draining t1 first.
        let quiet_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, (tenant, _))| tenant == "quiet")
            .map(|(i, _)| i)
            .collect();
        assert!(quiet_positions[1] <= 3, "quiet starved: {order:?}");
        let flood_topics: Vec<&str> = order
            .iter()
            .filter(|(tenant, _)| tenant == "flood")
            .map(|(_, topic)| topic.as_str())
            .collect();
        assert_eq!(flood_topics[0], "t1");
        assert_eq!(flood_topics[1], "t2", "topics must interleave: {order:?}");
    }

    #[test]
    fn per_tenant_overrides_beat_the_default() {
        let config = AdmissionConfig::default()
            .with_default_quota(TenantQuota::default().with_rate(1.0).with_burst(1))
            .with_tenant_quota("vip", TenantQuota::default());
        let mut admission = Admission::new(config);
        let now = Instant::now();
        admission
            .submit("vip", "topic", batch(100_000, "big"), now)
            .expect("vip override is unlimited");
        assert!(admission
            .submit("pleb", "topic", batch(100_000, "big"), now)
            .is_err());
    }

    #[test]
    fn oversized_batch_is_a_permanent_rejection() {
        let quota = TenantQuota::default().with_max_in_flight_bytes(100);
        let config = AdmissionConfig::default().with_default_quota(quota);
        let mut admission = Admission::new(config);
        let now = Instant::now();
        // Zero bytes in flight, yet the batch alone exceeds the bound: no retry
        // could ever admit it, so it must not look like a transient shed.
        let shed = admission
            .submit("t", "topic", vec!["x".repeat(150)], now)
            .expect_err("150 bytes can never fit a 100-byte bound");
        assert_eq!(
            shed,
            Shed::BatchTooLarge {
                bytes: 150,
                limit_bytes: 100
            }
        );
        assert_eq!(shed.retry_after(), None);
        // A batch that fits is still a transient ByteQuota shed once in flight.
        admission
            .submit("t", "topic", vec!["y".repeat(80)], now)
            .expect("80 bytes fit");
        let shed = admission
            .submit("t", "topic", vec!["y".repeat(80)], now)
            .expect_err("second 80 bytes exceed the bound transiently");
        assert!(matches!(shed, Shed::ByteQuota { .. }), "{shed:?}");
        assert!(shed.retry_after().is_some());
    }

    #[test]
    fn pathological_rates_clamp_retry_after_instead_of_panicking() {
        let quota = TenantQuota::default()
            .with_rate(f64::MIN_POSITIVE)
            .with_burst(1);
        let config = AdmissionConfig::default().with_default_quota(quota);
        let mut admission = Admission::new(config);
        let shed = admission
            .submit("t", "topic", batch(1_000_000, "huge"), Instant::now())
            .expect_err("bucket can never cover the batch");
        let Shed::RateLimited { retry_after } = shed else {
            panic!("expected RateLimited, got {shed:?}");
        };
        assert_eq!(retry_after, MAX_RETRY_AFTER);
    }

    #[test]
    fn tickets_are_unique_and_monotonic() {
        let mut admission = Admission::new(AdmissionConfig::default());
        let now = Instant::now();
        let a = admission.submit("t", "x", batch(1, "a"), now).unwrap();
        let b = admission.submit("t", "y", batch(1, "b"), now).unwrap();
        assert!(b > a);
    }
}
