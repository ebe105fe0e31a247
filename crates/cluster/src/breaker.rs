//! Per-shard circuit breakers: Closed → Open → HalfOpen with
//! hysteresis, mirroring the admission-ladder pattern.
//!
//! The breaker guards *control-plane* traffic to a shard (new
//! placements, migration restores): consecutive operation failures trip
//! it Open immediately, after which the shard is fenced from placement;
//! an Open breaker dwells for a cooldown before moving to HalfOpen,
//! where a **single probe at a time** is admitted and only a run of
//! consecutive probe successes closes it again. The asymmetry is the
//! same hysteresis the overload ladder uses: escalate instantly,
//! de-escalate deliberately.
//!
//! Like `AdmissionConfig::next_level`, the whole transition relation is
//! one pure integer function, [`BreakerConfig::step`]. It lives in
//! `analyze` as `BreakerParams::step`, so the bounded model checker's
//! `BreakerModel` explores exactly the transitions this breaker takes.

use analyze::{BRK_FAILURE, BRK_SUCCESS, BRK_TICK};

/// Breaker rank for [`BreakerConfig::step`]: Closed.
pub const RANK_CLOSED: u8 = 0;
/// Breaker rank for [`BreakerConfig::step`]: Open.
pub const RANK_OPEN: u8 = 1;
/// Breaker rank for [`BreakerConfig::step`]: HalfOpen.
pub const RANK_HALF_OPEN: u8 = 2;

/// One observation fed to the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerInput {
    /// A guarded operation against the shard succeeded.
    Success,
    /// A guarded operation against the shard failed (or the shard
    /// visibly misbehaved, e.g. a chaos slowdown skipped its tick).
    Failure,
    /// One cluster tick elapsed (drives the Open cooldown only).
    Tick,
}

impl BreakerInput {
    /// The input code [`BreakerConfig::step`] takes.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            BreakerInput::Success => BRK_SUCCESS,
            BreakerInput::Failure => BRK_FAILURE,
            BreakerInput::Tick => BRK_TICK,
        }
    }
}

/// Thresholds of the breaker state machine, and its pure transition
/// function [`BreakerConfig::step`]. This is the model checker's own
/// type: the runtime breaker and `analyze::BreakerModel` step through
/// the same code.
pub use analyze::BreakerParams as BreakerConfig;

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every guarded operation is admitted.
    Closed,
    /// Tripped: nothing is admitted until the cooldown elapses.
    Open,
    /// Probing: one guarded operation at a time is admitted.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for traces and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    fn from_rank(rank: u8) -> Self {
        match rank {
            RANK_OPEN => BreakerState::Open,
            RANK_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }
}

/// A stateful per-shard breaker over [`BreakerConfig::step`], plus the
/// single-probe bookkeeping HalfOpen needs.
#[derive(Debug, Clone, Copy)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    rank: u8,
    count: u32,
    probe_out: bool,
    trips: u64,
}

impl CircuitBreaker {
    /// A fresh Closed breaker.
    #[must_use]
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            rank: RANK_CLOSED,
            count: 0,
            probe_out: false,
            trips: 0,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        BreakerState::from_rank(self.rank)
    }

    /// Raw `(rank, count)` pair, as journaled and restored.
    #[must_use]
    pub fn raw(&self) -> (u8, u32) {
        (self.rank, self.count)
    }

    /// Times the breaker has tripped (entered Open from elsewhere).
    #[must_use]
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Restores a journaled `(rank, count)` pair after a crash
    /// restart. An out-of-range rank (a future format, or corruption
    /// that slipped past framing) normalizes to a fresh Closed breaker
    /// — the safe default, since Closed only admits what health
    /// monitoring would re-trip anyway. The probe slot is always
    /// released (any in-flight probe died with the process) and the
    /// trip counter is not rewound: restoring an Open rank is not a
    /// new trip.
    pub fn restore_raw(&mut self, rank: u8, count: u32) {
        if rank > RANK_HALF_OPEN {
            self.rank = RANK_CLOSED;
            self.count = 0;
        } else {
            self.rank = rank;
            self.count = count;
        }
        self.probe_out = false;
    }

    /// Whether a guarded operation may proceed right now: always when
    /// Closed, never when Open, and in HalfOpen only while no probe is
    /// outstanding.
    #[must_use]
    pub fn admits(&self) -> bool {
        match self.state() {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => !self.probe_out,
        }
    }

    /// Marks the HalfOpen probe slot taken. Call after [`Self::admits`]
    /// allowed an operation in HalfOpen; the matching
    /// [`Self::on_success`]/[`Self::on_failure`] releases it.
    pub fn begin_probe(&mut self) {
        if self.state() == BreakerState::HalfOpen {
            self.probe_out = true;
        }
    }

    /// Releases the probe slot without a verdict — the guarded
    /// operation never actually reached the shard (e.g. the source
    /// side of a migration failed first).
    pub fn cancel_probe(&mut self) {
        self.probe_out = false;
    }

    fn apply(&mut self, input: BreakerInput) -> Option<(&'static str, &'static str)> {
        let from = self.state();
        let (rank, count) = self.cfg.step(self.rank, self.count, input.code());
        self.rank = rank;
        self.count = count;
        let to = self.state();
        if from != to {
            if to == BreakerState::Open {
                self.trips += 1;
            }
            Some((from.label(), to.label()))
        } else {
            None
        }
    }

    /// Feeds a guarded-operation success; returns the `(from, to)`
    /// labels when the state changed (for tracing).
    pub fn on_success(&mut self) -> Option<(&'static str, &'static str)> {
        self.probe_out = false;
        self.apply(BreakerInput::Success)
    }

    /// Feeds a guarded-operation failure (see [`Self::on_success`]).
    pub fn on_failure(&mut self) -> Option<(&'static str, &'static str)> {
        self.probe_out = false;
        self.apply(BreakerInput::Failure)
    }

    /// Feeds one elapsed tick (see [`Self::on_success`]).
    pub fn on_tick(&mut self) -> Option<(&'static str, &'static str)> {
        self.apply(BreakerInput::Tick)
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new(BreakerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_immediately_at_threshold_and_cools_down_gradually() {
        let cfg = BreakerConfig {
            trip_failures: 2,
            cool_ticks: 3,
            close_successes: 2,
        };
        let mut b = CircuitBreaker::new(cfg);
        assert!(b.admits());
        assert!(b.on_failure().is_none(), "first failure only counts");
        assert_eq!(
            b.on_failure(),
            Some(("closed", "open")),
            "threshold trips instantly"
        );
        assert!(!b.admits());
        assert!(b.on_tick().is_none());
        assert!(b.on_tick().is_none());
        assert_eq!(b.on_tick(), Some(("open", "half_open")));
        assert!(b.admits(), "half-open admits one probe");
        b.begin_probe();
        assert!(!b.admits(), "single probe at a time");
        assert!(b.on_success().is_none(), "one success is not enough");
        assert!(b.admits());
        b.begin_probe();
        assert_eq!(b.on_success(), Some(("half_open", "closed")));
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn failure_while_cooling_restarts_the_dwell() {
        let cfg = BreakerConfig {
            trip_failures: 1,
            cool_ticks: 2,
            close_successes: 1,
        };
        let mut b = CircuitBreaker::new(cfg);
        assert_eq!(b.on_failure(), Some(("closed", "open")));
        assert!(b.on_tick().is_none());
        assert!(b.on_failure().is_none(), "still open");
        assert_eq!(b.raw(), (RANK_OPEN, 0), "cooldown restarted");
        assert!(b.on_tick().is_none());
        assert_eq!(b.on_tick(), Some(("open", "half_open")));
        b.begin_probe();
        assert_eq!(b.on_failure(), Some(("half_open", "open")), "probe failed");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn restore_raw_round_trips_and_normalizes_garbage() {
        let mut b = CircuitBreaker::default();
        b.on_failure();
        b.on_failure();
        b.on_failure(); // default trips at 3 → Open
        assert_eq!(b.state(), BreakerState::Open);
        let (rank, count) = b.raw();

        let mut restored = CircuitBreaker::default();
        restored.restore_raw(rank, count);
        assert_eq!(restored.raw(), (rank, count));
        assert_eq!(restored.state(), BreakerState::Open);
        assert_eq!(restored.trips(), 0, "a restore is not a new trip");
        assert!(!restored.admits());

        let mut junk = CircuitBreaker::default();
        junk.restore_raw(0xEE, 42);
        assert_eq!(junk.state(), BreakerState::Closed, "garbage → Closed");
        assert_eq!(junk.raw(), (RANK_CLOSED, 0));
    }

    #[test]
    fn restore_raw_releases_the_probe_slot() {
        let cfg = BreakerConfig {
            trip_failures: 1,
            cool_ticks: 1,
            close_successes: 1,
        };
        let mut b = CircuitBreaker::new(cfg);
        b.on_failure();
        b.on_tick(); // → half-open
        b.begin_probe();
        assert!(!b.admits());
        let (rank, count) = b.raw();
        b.restore_raw(rank, count);
        assert!(b.admits(), "in-flight probes die with the process");
    }

    #[test]
    fn closed_success_resets_the_failure_streak() {
        let cfg = BreakerConfig {
            trip_failures: 2,
            cool_ticks: 1,
            close_successes: 1,
        };
        let mut b = CircuitBreaker::new(cfg);
        assert!(b.on_failure().is_none());
        assert!(b.on_success().is_none());
        assert!(b.on_failure().is_none(), "streak was reset");
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
