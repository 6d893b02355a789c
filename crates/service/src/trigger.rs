//! Training triggers (§3 "Offline Training"): a training cycle starts when either a
//! volume threshold is reached or a time interval has elapsed since the last run.

use std::time::{Duration, Instant};

/// Why (or whether) a training cycle should start now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerDecision {
    /// Not enough new data and not enough elapsed time.
    Wait,
    /// The configured record-volume threshold has been reached.
    VolumeReached,
    /// The configured time interval has elapsed since the last training run.
    IntervalElapsed,
    /// The topic has never been trained and has at least one record (initial training; the
    /// paper configures this to finish within five minutes of topic creation).
    InitialTraining,
}

impl TriggerDecision {
    /// True for any decision other than [`TriggerDecision::Wait`].
    pub fn should_train(&self) -> bool {
        !matches!(self, TriggerDecision::Wait)
    }
}

/// Volume/time training trigger.
#[derive(Debug, Clone)]
pub struct TrainingTrigger {
    /// Train after this many newly-ingested records.
    pub volume_threshold: u64,
    /// Train after this much time since the previous training run.
    pub interval: Duration,
    records_since_training: u64,
    last_training: Option<Instant>,
    ever_trained: bool,
}

impl TrainingTrigger {
    /// Create a trigger with the given thresholds.
    pub fn new(volume_threshold: u64, interval: Duration) -> Self {
        TrainingTrigger {
            volume_threshold,
            interval,
            records_since_training: 0,
            last_training: None,
            ever_trained: false,
        }
    }

    /// Record that `count` new records were ingested.
    pub fn observe(&mut self, count: u64) {
        self.records_since_training += count;
    }

    /// Number of records ingested since the last training run.
    pub fn pending_records(&self) -> u64 {
        self.records_since_training
    }

    /// Decide whether training should run now.
    pub fn decide(&self, now: Instant) -> TriggerDecision {
        if !self.ever_trained {
            return if self.records_since_training > 0 {
                TriggerDecision::InitialTraining
            } else {
                TriggerDecision::Wait
            };
        }
        if self.records_since_training >= self.volume_threshold {
            return TriggerDecision::VolumeReached;
        }
        match self.last_training {
            Some(last) if now.duration_since(last) >= self.interval => {
                if self.records_since_training > 0 {
                    TriggerDecision::IntervalElapsed
                } else {
                    TriggerDecision::Wait
                }
            }
            _ => TriggerDecision::Wait,
        }
    }

    /// Mark that a training or maintenance run completed at `now`: the pending-record
    /// counter resets and the interval clock restarts.
    pub fn mark_trained(&mut self, now: Instant) {
        self.records_since_training = 0;
        self.last_training = Some(now);
        self.ever_trained = true;
    }
}

impl Default for TrainingTrigger {
    fn default() -> Self {
        // Production-flavoured defaults: retrain every 100k records or 10 minutes.
        TrainingTrigger::new(100_000, Duration::from_secs(600))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_record_triggers_initial_training() {
        let mut t = TrainingTrigger::new(1_000, Duration::from_secs(60));
        assert_eq!(t.decide(Instant::now()), TriggerDecision::Wait);
        t.observe(1);
        assert_eq!(t.decide(Instant::now()), TriggerDecision::InitialTraining);
        assert!(t.decide(Instant::now()).should_train());
    }

    #[test]
    fn volume_threshold_triggers_training() {
        let mut t = TrainingTrigger::new(100, Duration::from_secs(3600));
        let now = Instant::now();
        t.observe(1);
        t.mark_trained(now);
        t.observe(99);
        assert_eq!(t.decide(now), TriggerDecision::Wait);
        t.observe(1);
        assert_eq!(t.decide(now), TriggerDecision::VolumeReached);
    }

    #[test]
    fn interval_triggers_training_when_data_pending() {
        let mut t = TrainingTrigger::new(1_000_000, Duration::from_millis(10));
        let start = Instant::now();
        t.observe(5);
        t.mark_trained(start);
        t.observe(3);
        let later = start + Duration::from_millis(20);
        assert_eq!(t.decide(later), TriggerDecision::IntervalElapsed);
    }

    #[test]
    fn interval_without_new_data_waits() {
        let mut t = TrainingTrigger::new(1_000, Duration::from_millis(10));
        let start = Instant::now();
        t.observe(5);
        t.mark_trained(start);
        let later = start + Duration::from_secs(10);
        assert_eq!(t.decide(later), TriggerDecision::Wait);
    }

    #[test]
    fn mark_trained_resets_pending_count() {
        let mut t = TrainingTrigger::default();
        t.observe(42);
        assert_eq!(t.pending_records(), 42);
        t.mark_trained(Instant::now());
        assert_eq!(t.pending_records(), 0);
    }
}
