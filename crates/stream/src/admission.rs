//! Admission control and the typed overload ladder.
//!
//! All arithmetic here is integer and all state is explicit, so a
//! seeded campaign replays identically: the token bucket refills by a
//! fixed amount per tick, occupancy is measured in whole percent of the
//! global queue capacity, and the ladder moves between levels with
//! hysteresis (a level is entered at its threshold but only left
//! `exit_margin_pct` below it) so one oscillating client cannot make
//! the service flap between shedding regimes.
//!
//! The ladder step itself is [`LadderParams::next_level`]: the runtime
//! and the `analyze` model checker call the same function.

use analyze::LadderParams;

/// A deterministic token bucket: `refill` tokens per tick, capped at
/// `capacity`; opening a stream takes one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenBucket {
    capacity: u32,
    refill: u32,
    tokens: u32,
}

impl TokenBucket {
    /// A full bucket with the given capacity and per-tick refill.
    #[must_use]
    pub fn new(capacity: u32, refill: u32) -> Self {
        TokenBucket {
            capacity,
            refill,
            tokens: capacity,
        }
    }

    /// Adds one tick's refill, saturating at capacity.
    pub fn tick(&mut self) {
        self.tokens = (self.tokens + self.refill).min(self.capacity);
    }

    /// Takes one token if available.
    pub fn try_take(&mut self) -> bool {
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }

    /// Tokens currently available.
    #[must_use]
    pub fn tokens(&self) -> u32 {
        self.tokens
    }
}

/// How hard the service is currently shedding, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverloadLevel {
    /// Everything admitted and served on the fabric.
    Normal,
    /// New streams are refused; existing streams are unaffected.
    RejectNew,
    /// Additionally, low-priority fabric streams migrate to the
    /// software kernel, freeing fabric residency and context churn for
    /// high-priority work.
    DegradeLowPriority,
    /// Additionally, idle streams (empty queue, no recent activity) are
    /// checkpointed and parked.
    ParkIdle,
}

impl OverloadLevel {
    /// Stable level name for traces and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OverloadLevel::Normal => "Normal",
            OverloadLevel::RejectNew => "RejectNew",
            OverloadLevel::DegradeLowPriority => "DegradeLowPriority",
            OverloadLevel::ParkIdle => "ParkIdle",
        }
    }

    /// The ladder rank, 0 (Normal) … 3 (ParkIdle): the encoding
    /// [`LadderParams::next_level`] steps over.
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            OverloadLevel::Normal => 0,
            OverloadLevel::RejectNew => 1,
            OverloadLevel::DegradeLowPriority => 2,
            OverloadLevel::ParkIdle => 3,
        }
    }

    /// Inverse of [`OverloadLevel::rank`]; ranks above 3 saturate to
    /// [`OverloadLevel::ParkIdle`].
    #[must_use]
    pub fn from_rank(rank: u8) -> Self {
        match rank {
            0 => OverloadLevel::Normal,
            1 => OverloadLevel::RejectNew,
            2 => OverloadLevel::DegradeLowPriority,
            _ => OverloadLevel::ParkIdle,
        }
    }
}

/// Static limits and thresholds of the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Live sessions allowed at once (parked streams don't count).
    pub max_streams: usize,
    /// Chunks one stream may have queued before `feed` is refused.
    pub per_stream_queue_chunks: usize,
    /// Total queued payload bytes across all streams — the occupancy
    /// denominator for the overload ladder.
    pub global_queue_bytes: usize,
    /// Token-bucket burst size for stream opens.
    pub bucket_capacity: u32,
    /// Token-bucket refill per tick.
    pub bucket_refill: u32,
    /// Occupancy percent at which [`OverloadLevel::RejectNew`] begins.
    pub reject_enter_pct: u32,
    /// Occupancy percent at which [`OverloadLevel::DegradeLowPriority`]
    /// begins.
    pub degrade_enter_pct: u32,
    /// Occupancy percent at which [`OverloadLevel::ParkIdle`] begins.
    pub park_enter_pct: u32,
    /// Hysteresis: a level is left only when occupancy drops this many
    /// percentage points below its entry threshold.
    pub exit_margin_pct: u32,
    /// Chunks the pump processes per tick across all streams.
    pub pump_budget_chunks: usize,
    /// Ticks without activity before a stream counts as idle for the
    /// park rung.
    pub idle_grace_ticks: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        let ladder = LadderParams::serving_defaults();
        AdmissionConfig {
            max_streams: 256,
            per_stream_queue_chunks: 8,
            global_queue_bytes: 64 * 1024,
            bucket_capacity: 32,
            bucket_refill: 8,
            reject_enter_pct: ladder.reject_enter_pct,
            degrade_enter_pct: ladder.degrade_enter_pct,
            park_enter_pct: ladder.park_enter_pct,
            exit_margin_pct: ladder.exit_margin_pct,
            pump_budget_chunks: 64,
            idle_grace_ticks: 2,
        }
    }
}

impl AdmissionConfig {
    /// The ladder thresholds, as the shared policy reads them.
    fn ladder(&self) -> LadderParams {
        LadderParams {
            reject_enter_pct: self.reject_enter_pct,
            degrade_enter_pct: self.degrade_enter_pct,
            park_enter_pct: self.park_enter_pct,
            exit_margin_pct: self.exit_margin_pct,
        }
    }

    /// The ladder step for this tick: escalate immediately to the
    /// highest level whose threshold `occupancy_pct` meets, de-escalate
    /// one level at a time and only past the hysteresis margin. The
    /// arithmetic is [`LadderParams::next_level`], the same function
    /// the `analyze` model checker explores.
    #[must_use]
    #[inline]
    pub fn next_level(&self, current: OverloadLevel, occupancy_pct: u32) -> OverloadLevel {
        OverloadLevel::from_rank(self.ladder().next_level(current.rank(), occupancy_pct))
    }
}

/// Every decision the service takes, visible and countable. All fields
/// are cumulative over the service lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Streams admitted and opened.
    pub opened: u64,
    /// Streams finished and delivered.
    pub completed: u64,
    /// Opens refused because the token bucket was empty.
    pub rejected_admission: u64,
    /// Opens refused by the [`OverloadLevel::RejectNew`] rung.
    pub rejected_overload: u64,
    /// Opens refused because `max_streams` sessions were live.
    pub rejected_capacity: u64,
    /// Feeds refused because the stream's own queue was full.
    pub rejected_queue_full: u64,
    /// Feeds refused because the global queue byte budget was full.
    pub rejected_global_full: u64,
    /// Low-priority streams migrated to software by the degrade rung.
    pub degraded_low_priority: u64,
    /// Idle streams checkpointed and parked by the park rung.
    pub parked_idle: u64,
    /// Streams parked because recovery advised
    /// [`resilience::MigrationAdvice::Park`].
    pub parked_fault: u64,
    /// Parked streams rehydrated.
    pub resumed: u64,
    /// Snapshots encoded (park and explicit checkpoint alike).
    pub checkpoints: u64,
    /// Snapshots decoded and rehydrated into live sessions.
    pub restores: u64,
    /// Transactional batches rolled back after a guard detection.
    pub fault_rollbacks: u64,
    /// Batches re-run after recovery (on fabric or software).
    pub batch_reruns: u64,
    /// Sessions marshalled out of the transformed domain to continue on
    /// the software kernel (fault-driven, not ladder-driven).
    pub migrated_to_software: u64,
    /// Chunks pumped end to end.
    pub chunks_processed: u64,
    /// Overload level escalations and de-escalations.
    pub level_transitions: u64,
    /// Streams checkpointed out for cross-shard migration (live
    /// detaches and parked-snapshot exports alike).
    pub detached: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_refills_and_bounds_bursts() {
        let mut b = TokenBucket::new(2, 1);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take(), "burst capacity exhausted");
        b.tick();
        assert!(b.try_take());
        b.tick();
        b.tick();
        b.tick();
        assert_eq!(b.tokens(), 2, "refill saturates at capacity");
    }

    #[test]
    fn ladder_escalates_immediately_and_decays_with_hysteresis() {
        let cfg = AdmissionConfig::default();
        let mut level = OverloadLevel::Normal;
        level = cfg.next_level(level, 95);
        assert_eq!(
            level,
            OverloadLevel::ParkIdle,
            "spike escalates straight up"
        );
        // Just below the entry threshold is NOT enough to de-escalate.
        level = cfg.next_level(level, 80);
        assert_eq!(level, OverloadLevel::ParkIdle, "hysteresis holds the level");
        // Past the margin: one rung per tick.
        level = cfg.next_level(level, 10);
        assert_eq!(level, OverloadLevel::DegradeLowPriority);
        level = cfg.next_level(level, 10);
        assert_eq!(level, OverloadLevel::RejectNew);
        level = cfg.next_level(level, 10);
        assert_eq!(level, OverloadLevel::Normal);
        assert_eq!(cfg.next_level(level, 10), OverloadLevel::Normal);
    }
}
