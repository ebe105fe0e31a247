//! Abstract models of the serving-layer state machines, for the
//! bounded model checker.
//!
//! [`ServiceModel`] abstracts `stream::StreamService`: admission and
//! the overload ladder, feed/pump with transactional fault rollback,
//! park/resume, and the batch `involved`-id bookkeeping whose missing
//! sort caused the PR 5 double-park bug. [`RecoveryModel`] abstracts
//! `resilience::ResilientSystem`'s recovery ladder. [`ClusterModel`]
//! abstracts the `cluster::Cluster` control plane: placement fencing,
//! checkpoint sweeps, two-step live migration, drain, and
//! kill-triggered failover replay. [`JournalModel`] abstracts
//! `wal::Journal` recovery: append/flush/crash/replay with an
//! idempotency ledger journaled alongside every effect. All are
//! small-scope models: a
//! handful of streams, tiny queues — enough for exhaustive exploration
//! of every event interleaving, which is exactly where the unit tests
//! had their blind spot.
//!
//! Two pure policies here are not abstractions but the shipped code
//! itself: `stream::AdmissionConfig::next_level` calls
//! [`LadderParams::next_level`], and `cluster::BreakerConfig` *is*
//! [`BreakerParams`]. The model checker therefore explores exactly the
//! ladder and breaker transitions the runtime takes; there is no copy
//! that could drift.

use crate::mc::Model;

/// Overload-ladder thresholds: the four ladder fields of
/// `stream::AdmissionConfig`, whose `next_level` calls
/// [`LadderParams::next_level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderParams {
    /// Occupancy percent entering RejectNew (rank 1).
    pub reject_enter_pct: u32,
    /// Occupancy percent entering DegradeLowPriority (rank 2).
    pub degrade_enter_pct: u32,
    /// Occupancy percent entering ParkIdle (rank 3).
    pub park_enter_pct: u32,
    /// Hysteresis margin for de-escalation.
    pub exit_margin_pct: u32,
}

impl LadderParams {
    /// The serving layer's default thresholds (the ladder fields of
    /// `AdmissionConfig::default`).
    #[must_use]
    pub fn serving_defaults() -> Self {
        LadderParams {
            reject_enter_pct: 60,
            degrade_enter_pct: 75,
            park_enter_pct: 90,
            exit_margin_pct: 15,
        }
    }

    /// Entry threshold of a ladder rank (0 = Normal).
    #[must_use]
    pub fn enter_pct(&self, rank: u8) -> u32 {
        match rank {
            0 => 0,
            1 => self.reject_enter_pct,
            2 => self.degrade_enter_pct,
            _ => self.park_enter_pct,
        }
    }

    /// The ladder step: escalate immediately to the highest rank whose
    /// threshold `occ_pct` meets; de-escalate one rank per step and
    /// only once occupancy has dropped `exit_margin_pct` below the
    /// current rank's entry threshold.
    #[must_use]
    #[inline]
    pub fn next_level(&self, current: u8, occ_pct: u32) -> u8 {
        let mut target = 0u8;
        for rank in 1..=3u8 {
            if occ_pct >= self.enter_pct(rank) {
                target = rank;
            }
        }
        if target >= current {
            return target;
        }
        if occ_pct + self.exit_margin_pct < self.enter_pct(current) {
            current - 1
        } else {
            current
        }
    }
}

/// One stream in the service model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StreamSt {
    /// Not (yet) opened.
    Closed,
    /// Admitted and live.
    Live {
        /// Chunks queued, waiting for the pump.
        queued: u8,
        /// Chunks processed and committed.
        done: u8,
    },
    /// Checkpointed and parked.
    Parked {
        /// Queued chunks preserved in the checkpoint.
        queued: u8,
        /// Committed progress preserved in the checkpoint.
        done: u8,
    },
    /// Finished and delivered.
    Finished {
        /// Total chunks the stream processed.
        done: u8,
    },
}

/// A service-model state. `Ord`/small so exhaustive exploration is
/// cheap and deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ServiceState {
    /// Ladder rank 0..=3.
    pub level: u8,
    /// Per-stream states.
    pub streams: Vec<StreamSt>,
    /// Total chunks ever fed (scope bound).
    pub fed: u8,
    /// A fault will strike the next pump batch.
    pub fault_armed: bool,
    /// Streams opened so far.
    pub opened: u8,
    /// The last ladder transition `(from, to, occupancy)`, for the
    /// hysteresis invariant.
    pub last_step: Option<(u8, u8, u32)>,
    /// Set by the model when an internal operation hits a state it
    /// must never see (e.g. parking an already-parked stream).
    pub poison: Option<&'static str>,
}

/// Events of the service model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceEvent {
    /// Admit stream `i` (refused above Normal — counted, not state).
    Open(u8),
    /// Queue one chunk on live stream `i`.
    Feed(u8),
    /// Arm a fault: the next pump's batch fails its lane guard.
    ArmFault,
    /// Run one pump round (a transact over a round-robin batch).
    Pump,
    /// Ladder tick: recompute the overload level; at ParkIdle, park
    /// idle streams.
    Tick,
    /// Resume parked stream `i`.
    Resume(u8),
    /// Finish live, fully-drained stream `i`.
    Finish(u8),
}

/// The abstract `StreamService`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Streams in scope (≤ 4 keeps exploration in the thousands).
    pub n_streams: u8,
    /// Per-stream queue capacity, in chunks.
    pub queue_cap: u8,
    /// Total chunks the scope may feed.
    pub max_feeds: u8,
    /// Chunks one pump batch may take (the pump budget).
    pub pump_budget: u8,
    /// Ladder thresholds.
    pub ladder: LadderParams,
    /// Model the **pre-fix** PR 5 `transact()`: the batch's `involved`
    /// stream-id list is deduplicated *without sorting first*, so
    /// non-adjacent duplicates survive and the park path can park one
    /// stream twice.
    pub prefix_transact_bug: bool,
}

impl ServiceModel {
    /// The default small scope: 2 streams × 2-chunk queues, 5 feeds.
    #[must_use]
    pub fn small() -> Self {
        ServiceModel {
            n_streams: 2,
            queue_cap: 2,
            max_feeds: 5,
            pump_budget: 3,
            ladder: LadderParams::serving_defaults(),
            prefix_transact_bug: false,
        }
    }

    /// The same scope against the pre-fix `transact()` model.
    #[must_use]
    pub fn small_prefix_bug() -> Self {
        ServiceModel {
            prefix_transact_bug: true,
            ..ServiceModel::small()
        }
    }

    fn occupancy_pct(&self, s: &ServiceState) -> u32 {
        let total: u32 = s
            .streams
            .iter()
            .map(|st| match st {
                StreamSt::Live { queued, .. } => u32::from(*queued),
                _ => 0,
            })
            .sum();
        let cap = u32::from(self.n_streams) * u32::from(self.queue_cap);
        total * 100 / cap.max(1)
    }

    /// The round-robin pump batch: one chunk per live stream per round
    /// until the budget is spent — the order that interleaves duplicate
    /// stream ids (`[0, 1, 0]`), exactly the shape the PR 5 fix sorts.
    fn batch(&self, s: &ServiceState) -> Vec<u8> {
        let queued: Vec<u8> = s
            .streams
            .iter()
            .map(|st| match st {
                StreamSt::Live { queued, .. } => *queued,
                _ => 0,
            })
            .collect();
        let mut batch = Vec::new();
        let mut round = 0u8;
        while batch.len() < self.pump_budget as usize {
            let mut took = false;
            for (i, &q) in queued.iter().enumerate() {
                if q > round && batch.len() < self.pump_budget as usize {
                    batch.push(u8::try_from(i).expect("≤ 4 streams"));
                    took = true;
                }
            }
            if !took {
                break;
            }
            round += 1;
        }
        batch
    }
}

impl Model for ServiceModel {
    type State = ServiceState;
    type Event = ServiceEvent;

    fn initial(&self) -> ServiceState {
        ServiceState {
            level: 0,
            streams: vec![StreamSt::Closed; self.n_streams as usize],
            fed: 0,
            fault_armed: false,
            opened: 0,
            last_step: None,
            poison: None,
        }
    }

    fn events(&self, s: &ServiceState) -> Vec<ServiceEvent> {
        if s.poison.is_some() {
            return Vec::new(); // poisoned states are terminal
        }
        let mut ev = Vec::new();
        for i in 0..self.n_streams {
            if s.streams[i as usize] == StreamSt::Closed {
                ev.push(ServiceEvent::Open(i));
            }
        }
        for i in 0..self.n_streams {
            if let StreamSt::Live { queued, .. } = s.streams[i as usize] {
                if queued < self.queue_cap && s.fed < self.max_feeds {
                    ev.push(ServiceEvent::Feed(i));
                }
            }
        }
        if !s.fault_armed {
            ev.push(ServiceEvent::ArmFault);
        }
        ev.push(ServiceEvent::Pump);
        ev.push(ServiceEvent::Tick);
        for i in 0..self.n_streams {
            match s.streams[i as usize] {
                StreamSt::Parked { .. } => ev.push(ServiceEvent::Resume(i)),
                StreamSt::Live { queued: 0, .. } => ev.push(ServiceEvent::Finish(i)),
                _ => {}
            }
        }
        ev
    }

    #[allow(clippy::too_many_lines)]
    fn apply(&self, s: &ServiceState, e: &ServiceEvent) -> Option<ServiceState> {
        let mut n = s.clone();
        n.last_step = None;
        match *e {
            ServiceEvent::Open(i) => {
                if s.streams[i as usize] != StreamSt::Closed || s.level >= 1 {
                    return None; // RejectNew and above refuse admission
                }
                n.streams[i as usize] = StreamSt::Live { queued: 0, done: 0 };
                n.opened += 1;
            }
            ServiceEvent::Feed(i) => match s.streams[i as usize] {
                StreamSt::Live { queued, done } if queued < self.queue_cap => {
                    if s.fed >= self.max_feeds {
                        return None;
                    }
                    n.streams[i as usize] = StreamSt::Live {
                        queued: queued + 1,
                        done,
                    };
                    n.fed += 1;
                }
                _ => return None,
            },
            ServiceEvent::ArmFault => {
                if s.fault_armed {
                    return None;
                }
                n.fault_armed = true;
            }
            ServiceEvent::Pump => {
                let batch = self.batch(s);
                if batch.is_empty() {
                    return None;
                }
                if s.fault_armed {
                    // Transactional rollback: per-item snapshots are
                    // taken (duplicates and all) and restored, then the
                    // involved streams are parked (MigrationAdvice::Park).
                    let pre: Vec<(u8, StreamSt)> = batch
                        .iter()
                        .map(|&id| (id, s.streams[id as usize]))
                        .collect();
                    for &(id, snap) in &pre {
                        n.streams[id as usize] = snap;
                    }
                    // Rollback bit-exactness: the restored streams must
                    // match their pre-batch snapshots exactly.
                    for &(id, snap) in &pre {
                        if n.streams[id as usize] != snap {
                            n.poison = Some("rollback-exactness");
                            return Some(n);
                        }
                    }
                    let mut involved = batch;
                    if !self.prefix_transact_bug {
                        involved.sort_unstable();
                    }
                    involved.dedup();
                    for id in involved {
                        match n.streams[id as usize] {
                            StreamSt::Live { queued, done } => {
                                n.streams[id as usize] = StreamSt::Parked { queued, done };
                            }
                            StreamSt::Parked { .. } => {
                                // Parking a parked stream clobbers its
                                // checkpoint — the PR 5 bug.
                                n.poison = Some("no-double-park");
                                return Some(n);
                            }
                            _ => {
                                n.poison = Some("park-of-unparkable");
                                return Some(n);
                            }
                        }
                    }
                    n.fault_armed = false;
                } else {
                    for &id in &batch {
                        if let StreamSt::Live { queued, done } = n.streams[id as usize] {
                            n.streams[id as usize] = StreamSt::Live {
                                queued: queued - 1,
                                done: done + 1,
                            };
                        }
                    }
                }
            }
            ServiceEvent::Tick => {
                let occ = self.occupancy_pct(s);
                let next = self.ladder.next_level(s.level, occ);
                n.level = next;
                n.last_step = Some((s.level, next, occ));
                if next == 3 {
                    // ParkIdle rung: park drained live streams.
                    for st in &mut n.streams {
                        if let StreamSt::Live { queued: 0, done } = *st {
                            *st = StreamSt::Parked { queued: 0, done };
                        }
                    }
                }
            }
            ServiceEvent::Resume(i) => match s.streams[i as usize] {
                StreamSt::Parked { queued, done } => {
                    if s.level >= 3 {
                        return None; // still shedding — resume refused
                    }
                    n.streams[i as usize] = StreamSt::Live { queued, done };
                }
                _ => return None,
            },
            ServiceEvent::Finish(i) => match s.streams[i as usize] {
                StreamSt::Live { queued: 0, done } => {
                    n.streams[i as usize] = StreamSt::Finished { done };
                }
                _ => return None,
            },
        }
        Some(n)
    }

    fn violations(&self, s: &ServiceState) -> Vec<(String, String)> {
        let mut v = Vec::new();
        if let Some(p) = s.poison {
            v.push((
                p.to_string(),
                "the model reached an operation on an illegal target".into(),
            ));
        }
        // Stream conservation: every opened stream is live, parked or
        // finished; every fed chunk is queued or done.
        let mut accounted = 0u8;
        let mut chunks = 0u8;
        for st in &s.streams {
            match *st {
                StreamSt::Closed => {}
                StreamSt::Live { queued, done } | StreamSt::Parked { queued, done } => {
                    accounted += 1;
                    chunks += queued + done;
                }
                StreamSt::Finished { done } => {
                    accounted += 1;
                    chunks += done;
                }
            }
        }
        if accounted != s.opened {
            v.push((
                "stream-conservation".into(),
                format!(
                    "opened {} but {} streams accounted for",
                    s.opened, accounted
                ),
            ));
        }
        if chunks != s.fed {
            v.push((
                "chunk-conservation".into(),
                format!("fed {} chunks but {} queued+done", s.fed, chunks),
            ));
        }
        // Ladder hysteresis monotonicity on the last tick.
        if let Some((from, to, occ)) = s.last_step {
            if to > from && occ < self.ladder.enter_pct(to) {
                v.push((
                    "ladder-escalation-threshold".into(),
                    format!("escalated {from}→{to} at occupancy {occ}%"),
                ));
            }
            if to < from {
                if from - to != 1 {
                    v.push((
                        "ladder-single-rung-deescalation".into(),
                        format!("de-escalated {from}→{to} in one tick"),
                    ));
                }
                if occ + self.ladder.exit_margin_pct >= self.ladder.enter_pct(from) {
                    v.push((
                        "ladder-hysteresis".into(),
                        format!("left rank {from} at occupancy {occ}% inside the margin"),
                    ));
                }
            }
        }
        v
    }
}

/// Health ranks of the recovery model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthSt {
    /// Serving on the fabric.
    Healthy,
    /// Detection outstanding; fabric results untrusted.
    Suspect,
    /// Fabric abandoned; serving on the software kernel.
    Fallback,
}

/// A recovery-model state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecoveryState {
    /// Current lane health.
    pub health: HealthSt,
    /// Reloads attempted against the current detection.
    pub reloads: u8,
    /// A perturbed re-synthesis replaced the personality.
    pub resynthed: bool,
    /// The lane's streams were checkpoint-parked.
    pub parked: bool,
    /// The lane has ever reached `Fallback` (absorbing rung).
    pub was_fallback: bool,
}

/// Events of the recovery model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A fault is detected (scrub/probe).
    Detect,
    /// Serve a message on the fabric path.
    ServeFabric,
    /// Serve a message on the software kernel.
    ServeSoftware,
    /// Run one rung of the recovery ladder.
    RecoverStep {
        /// Whether this rung's repair actually heals the fault (reload
        /// heals upsets, not stuck-at cells; re-synthesis heals both).
        heals: bool,
    },
}

/// The abstract `ResilientSystem` recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryModel {
    /// Reload retries before escalating (policy `max_reload_retries`).
    pub max_reloads: u8,
    /// Re-synthesis rung enabled.
    pub allow_resynthesis: bool,
    /// Software-fallback terminal rung enabled.
    pub allow_fallback: bool,
    /// Checkpoint-park terminal rung enabled.
    pub park_streams: bool,
}

impl RecoveryModel {
    /// The `RecoveryPolicy::standard()` shape.
    #[must_use]
    pub fn standard() -> Self {
        RecoveryModel {
            max_reloads: 2,
            allow_resynthesis: true,
            allow_fallback: true,
            park_streams: false,
        }
    }

    /// The stream-serving policy: park instead of dropping.
    #[must_use]
    pub fn stream_serving() -> Self {
        RecoveryModel {
            park_streams: true,
            ..RecoveryModel::standard()
        }
    }
}

impl Model for RecoveryModel {
    type State = RecoveryState;
    type Event = RecoveryEvent;

    fn initial(&self) -> RecoveryState {
        RecoveryState {
            health: HealthSt::Healthy,
            reloads: 0,
            resynthed: false,
            parked: false,
            was_fallback: false,
        }
    }

    fn events(&self, s: &RecoveryState) -> Vec<RecoveryEvent> {
        let mut ev = vec![RecoveryEvent::ServeFabric, RecoveryEvent::ServeSoftware];
        if s.health == HealthSt::Healthy {
            ev.push(RecoveryEvent::Detect);
        }
        if s.health == HealthSt::Suspect {
            ev.push(RecoveryEvent::RecoverStep { heals: false });
            ev.push(RecoveryEvent::RecoverStep { heals: true });
        }
        ev
    }

    fn apply(&self, s: &RecoveryState, e: &RecoveryEvent) -> Option<RecoveryState> {
        let mut n = s.clone();
        match *e {
            RecoveryEvent::Detect => {
                n.health = HealthSt::Suspect;
                n.reloads = 0;
                n.resynthed = false;
            }
            RecoveryEvent::ServeFabric => {
                // The real system's health guard: fabric results are
                // served only while the lane is trusted.
                if s.health != HealthSt::Healthy {
                    return None;
                }
            }
            RecoveryEvent::ServeSoftware => {
                if s.health != HealthSt::Fallback {
                    return None; // software path only after fallback
                }
            }
            RecoveryEvent::RecoverStep { heals } => {
                if s.health != HealthSt::Suspect {
                    return None;
                }
                if s.reloads < self.max_reloads {
                    n.reloads += 1;
                    if heals {
                        n.health = HealthSt::Healthy;
                    }
                } else if self.allow_resynthesis && !s.resynthed {
                    n.resynthed = true;
                    if heals {
                        n.health = HealthSt::Healthy;
                    }
                } else if self.allow_fallback {
                    n.health = HealthSt::Fallback;
                    n.was_fallback = true;
                } else if self.park_streams {
                    n.parked = true;
                } else {
                    // Unrecovered: stays suspect; nothing else to try.
                    return None;
                }
            }
        }
        Some(n)
    }

    fn violations(&self, s: &RecoveryState) -> Vec<(String, String)> {
        let mut v = Vec::new();
        if s.was_fallback && s.health != HealthSt::Fallback {
            v.push((
                "fallback-absorbing".into(),
                format!("left Fallback for {:?}", s.health),
            ));
        }
        if s.reloads > self.max_reloads {
            v.push((
                "ladder-reload-budget".into(),
                format!("{} reloads > budget {}", s.reloads, self.max_reloads),
            ));
        }
        if s.parked && !self.park_streams {
            v.push((
                "park-requires-policy".into(),
                "streams parked under a policy without the park rung".into(),
            ));
        }
        v
    }
}

/// Per-shard lifecycle in the cluster model, mirroring
/// `cluster::ShardState` (the `Down` reasons are collapsed — the
/// invariants only care that a down shard serves nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShardCl {
    /// Accepting placements and serving.
    Active,
    /// Admission-fenced; shedding residents.
    Draining,
    /// Out of the cluster (drained, killed or abandoned).
    Down,
}

/// One stream in the cluster model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StreamCl {
    /// Not (yet) opened.
    Closed,
    /// Routed to a shard. `pos` counts committed chunks; `ckpt` is the
    /// position captured by the last checkpoint sweep, if any.
    Routed {
        /// Hosting shard index.
        shard: u8,
        /// Committed progress, in chunks.
        pos: u8,
        /// Last swept checkpoint position.
        ckpt: Option<u8>,
    },
    /// Mid-migration: checkpoint-detached from `from`, not yet restored
    /// on `to`. Crucially *not* in the route table — a concurrent shard
    /// death does not fail it over; only the transfer owns it.
    InFlight {
        /// Source shard (detached from).
        from: u8,
        /// Target shard (restoring onto).
        to: u8,
        /// Progress carried in the transferred snapshot.
        pos: u8,
        /// Checkpoint position carried in the snapshot.
        ckpt: Option<u8>,
    },
    /// Finished and delivered.
    Done {
        /// Total committed chunks.
        pos: u8,
    },
    /// Declared lost with a typed reason (the model collapses the
    /// reasons; the invariants only require the loss be *recorded*).
    Lost,
}

/// A cluster-model state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ClusterState {
    /// Per-shard lifecycle.
    pub shards: Vec<ShardCl>,
    /// Per-stream states.
    pub streams: Vec<StreamCl>,
    /// Total chunk advances so far (scope bound).
    pub advanced: u8,
    /// Streams opened so far.
    pub opened: u8,
    /// Streams declared lost (typed losses).
    pub lost: u8,
    /// The last failover `(resumed-at, checkpoint)` positions, for the
    /// replay invariant.
    pub last_failover: Option<(u8, u8)>,
    /// Set when an internal operation hits a state it must never see.
    pub poison: Option<&'static str>,
}

/// Events of the cluster model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// Open stream `i` on the best active shard.
    Open(u8),
    /// Commit one chunk on routed stream `i`.
    Advance(u8),
    /// Checkpoint sweep: capture every routed stream's position.
    Sweep,
    /// Begin a live migration: checkpoint-detach stream `i` towards
    /// shard `to`.
    MigrateStart {
        /// The migrating stream.
        stream: u8,
        /// The target shard.
        to: u8,
    },
    /// Complete (or abort) the in-flight migration of stream `i`.
    MigrateLand(u8),
    /// Fence shard `s` and start shedding its residents.
    Drain(u8),
    /// One drain round: each draining shard sheds a resident, or goes
    /// down once empty.
    DrainStep,
    /// Kill shard `s` outright; its residents fail over from their
    /// checkpoints.
    Kill(u8),
    /// Finish routed stream `i`.
    Finish(u8),
}

/// The abstract `cluster::Cluster` control plane.
///
/// Three seeded-bug variants, each rediscovered by the checker:
///
/// * [`fence_bug`](Self::fence_bug) — placement ignores the drain
///   fence, so opens and migrations can land on a draining shard.
/// * [`lost_detach_bug`](Self::lost_detach_bug) — an in-flight stream
///   whose target shard dies is dropped on the floor instead of being
///   restored to its source or declared a typed loss (the hazard the
///   real `transfer_restore` undo path exists to close).
/// * [`stale_resume_bug`](Self::stale_resume_bug) — failover resumes a
///   stream at its pre-kill position instead of rewinding to its
///   checkpoint, silently skipping the replay window (the race the
///   cluster storm harness originally hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterModel {
    /// Shards in scope.
    pub n_shards: u8,
    /// Streams in scope.
    pub n_streams: u8,
    /// Total chunks the scope may commit.
    pub max_advances: u8,
    /// Placement skips the Active-only fence.
    pub fence_bug: bool,
    /// A dead migration target drops the in-flight stream silently.
    pub lost_detach_bug: bool,
    /// Failover restores at the stale live position, not the checkpoint.
    pub stale_resume_bug: bool,
}

impl ClusterModel {
    /// The default small scope: 2 shards × 2 streams, 3 chunk advances.
    #[must_use]
    pub fn small() -> Self {
        ClusterModel {
            n_shards: 2,
            n_streams: 2,
            max_advances: 3,
            fence_bug: false,
            lost_detach_bug: false,
            stale_resume_bug: false,
        }
    }

    /// The same scope with the placement fence removed.
    #[must_use]
    pub fn fence_bug() -> Self {
        ClusterModel {
            fence_bug: true,
            ..ClusterModel::small()
        }
    }

    /// The same scope with the migration-undo path removed.
    #[must_use]
    pub fn lost_detach_bug() -> Self {
        ClusterModel {
            lost_detach_bug: true,
            ..ClusterModel::small()
        }
    }

    /// The same scope with failover replaying from the live position.
    #[must_use]
    pub fn stale_resume_bug() -> Self {
        ClusterModel {
            stale_resume_bug: true,
            ..ClusterModel::small()
        }
    }

    /// Deterministic placement: the lowest-index shard a new stream (or
    /// replayed snapshot) may land on. The fixed model only places on
    /// active shards; the fence bug also admits draining ones.
    fn place(&self, s: &ClusterState) -> Option<u8> {
        s.shards
            .iter()
            .position(|sh| *sh == ShardCl::Active || (self.fence_bug && *sh == ShardCl::Draining))
            .map(|i| u8::try_from(i).expect("small scope"))
    }

    /// Whether `shard` may receive a placement under the current model.
    fn placeable(&self, s: &ClusterState, shard: u8) -> bool {
        match s.shards[shard as usize] {
            ShardCl::Active => true,
            ShardCl::Draining => self.fence_bug,
            ShardCl::Down => false,
        }
    }
}

impl Model for ClusterModel {
    type State = ClusterState;
    type Event = ClusterEvent;

    fn initial(&self) -> ClusterState {
        ClusterState {
            shards: vec![ShardCl::Active; self.n_shards as usize],
            streams: vec![StreamCl::Closed; self.n_streams as usize],
            advanced: 0,
            opened: 0,
            lost: 0,
            last_failover: None,
            poison: None,
        }
    }

    fn events(&self, s: &ClusterState) -> Vec<ClusterEvent> {
        if s.poison.is_some() {
            return Vec::new(); // poisoned states are terminal
        }
        let mut ev = Vec::new();
        for i in 0..self.n_streams {
            if s.streams[i as usize] == StreamCl::Closed && self.place(s).is_some() {
                ev.push(ClusterEvent::Open(i));
            }
        }
        for i in 0..self.n_streams {
            match s.streams[i as usize] {
                StreamCl::Routed { shard, .. } => {
                    if s.advanced < self.max_advances {
                        ev.push(ClusterEvent::Advance(i));
                    }
                    for to in 0..self.n_shards {
                        if to != shard && self.placeable(s, to) {
                            ev.push(ClusterEvent::MigrateStart { stream: i, to });
                        }
                    }
                    ev.push(ClusterEvent::Finish(i));
                }
                StreamCl::InFlight { .. } => ev.push(ClusterEvent::MigrateLand(i)),
                _ => {}
            }
        }
        if s.streams
            .iter()
            .any(|st| matches!(st, StreamCl::Routed { pos, ckpt, .. } if *ckpt != Some(*pos)))
        {
            ev.push(ClusterEvent::Sweep);
        }
        for sh in 0..self.n_shards {
            match s.shards[sh as usize] {
                ShardCl::Active => {
                    ev.push(ClusterEvent::Drain(sh));
                    ev.push(ClusterEvent::Kill(sh));
                }
                ShardCl::Draining => ev.push(ClusterEvent::Kill(sh)),
                ShardCl::Down => {}
            }
        }
        if s.shards.contains(&ShardCl::Draining) {
            ev.push(ClusterEvent::DrainStep);
        }
        ev
    }

    #[allow(clippy::too_many_lines)]
    fn apply(&self, s: &ClusterState, e: &ClusterEvent) -> Option<ClusterState> {
        let mut n = s.clone();
        n.last_failover = None;
        match *e {
            ClusterEvent::Open(i) => {
                if s.streams[i as usize] != StreamCl::Closed {
                    return None;
                }
                let shard = self.place(s)?;
                if s.shards[shard as usize] != ShardCl::Active {
                    n.poison = Some("placement-fence");
                    return Some(n);
                }
                n.streams[i as usize] = StreamCl::Routed {
                    shard,
                    pos: 0,
                    ckpt: None,
                };
                n.opened += 1;
            }
            ClusterEvent::Advance(i) => match s.streams[i as usize] {
                StreamCl::Routed { shard, pos, ckpt } if s.advanced < self.max_advances => {
                    n.streams[i as usize] = StreamCl::Routed {
                        shard,
                        pos: pos + 1,
                        ckpt,
                    };
                    n.advanced += 1;
                }
                _ => return None,
            },
            ClusterEvent::Sweep => {
                for st in &mut n.streams {
                    if let StreamCl::Routed { shard, pos, .. } = *st {
                        *st = StreamCl::Routed {
                            shard,
                            pos,
                            ckpt: Some(pos),
                        };
                    }
                }
            }
            ClusterEvent::MigrateStart { stream, to } => match s.streams[stream as usize] {
                StreamCl::Routed { shard, pos, ckpt } if shard != to => {
                    if !self.placeable(s, to) {
                        return None;
                    }
                    if s.shards[to as usize] != ShardCl::Active {
                        n.poison = Some("placement-fence");
                        return Some(n);
                    }
                    // Checkpoint-detach: the stream leaves the route
                    // table; the transfer alone owns it now.
                    n.streams[stream as usize] = StreamCl::InFlight {
                        from: shard,
                        to,
                        pos,
                        ckpt,
                    };
                }
                _ => return None,
            },
            ClusterEvent::MigrateLand(i) => match s.streams[i as usize] {
                StreamCl::InFlight {
                    from,
                    to,
                    pos,
                    ckpt,
                } => {
                    // A target that merely *started draining* during the
                    // transfer still restores (the fence guards the
                    // start; the drain sheds the stream in due course) —
                    // only a dead target aborts the transfer.
                    if s.shards[to as usize] != ShardCl::Down {
                        n.streams[i as usize] = StreamCl::Routed {
                            shard: to,
                            pos,
                            ckpt,
                        };
                    } else if self.lost_detach_bug {
                        // The bug: the target died mid-transfer and the
                        // snapshot evaporates — no undo, no typed loss.
                        n.streams[i as usize] = StreamCl::Closed;
                    } else if s.shards[from as usize] != ShardCl::Down {
                        // Undo: restore the snapshot onto its source.
                        n.streams[i as usize] = StreamCl::Routed {
                            shard: from,
                            pos,
                            ckpt,
                        };
                    } else {
                        // Source and target both gone: a *typed* loss.
                        n.streams[i as usize] = StreamCl::Lost;
                        n.lost += 1;
                    }
                }
                _ => return None,
            },
            ClusterEvent::Drain(sh) => {
                if s.shards[sh as usize] != ShardCl::Active {
                    return None;
                }
                n.shards[sh as usize] = ShardCl::Draining;
            }
            ClusterEvent::DrainStep => {
                if !s.shards.contains(&ShardCl::Draining) {
                    return None;
                }
                for sh in 0..self.n_shards {
                    if n.shards[sh as usize] != ShardCl::Draining {
                        continue;
                    }
                    let resident = n.streams.iter().position(
                        |st| matches!(st, StreamCl::Routed { shard, .. } if *shard == sh),
                    );
                    match resident {
                        Some(i) => {
                            // Shed one resident per round, live state
                            // carried whole. No active target ⇒ the
                            // drain stalls (and retries next round).
                            let target = n
                                .shards
                                .iter()
                                .position(|x| *x == ShardCl::Active)
                                .map(|t| u8::try_from(t).expect("small scope"));
                            if let Some(to) = target {
                                if let StreamCl::Routed { pos, ckpt, .. } = n.streams[i] {
                                    n.streams[i] = StreamCl::Routed {
                                        shard: to,
                                        pos,
                                        ckpt,
                                    };
                                }
                            }
                        }
                        None => n.shards[sh as usize] = ShardCl::Down,
                    }
                }
            }
            ClusterEvent::Kill(sh) => {
                if s.shards[sh as usize] == ShardCl::Down {
                    return None;
                }
                n.shards[sh as usize] = ShardCl::Down;
                // Failover: every *routed* resident replays from its
                // checkpoint onto a survivor. In-flight streams are not
                // in the route table and are untouched here.
                for i in 0..self.n_streams {
                    let StreamCl::Routed { shard, pos, ckpt } = n.streams[i as usize] else {
                        continue;
                    };
                    if shard != sh {
                        continue;
                    }
                    let survivor = n
                        .shards
                        .iter()
                        .position(|x| *x == ShardCl::Active)
                        .map(|t| u8::try_from(t).expect("small scope"));
                    match (ckpt, survivor) {
                        (Some(c), Some(to)) => {
                            let resume = if self.stale_resume_bug { pos } else { c };
                            n.streams[i as usize] = StreamCl::Routed {
                                shard: to,
                                pos: resume,
                                ckpt: Some(c),
                            };
                            n.last_failover = Some((resume, c));
                        }
                        _ => {
                            // No checkpoint, or nowhere to go: typed.
                            n.streams[i as usize] = StreamCl::Lost;
                            n.lost += 1;
                        }
                    }
                }
            }
            ClusterEvent::Finish(i) => match s.streams[i as usize] {
                StreamCl::Routed { pos, .. } => {
                    n.streams[i as usize] = StreamCl::Done { pos };
                }
                _ => return None,
            },
        }
        Some(n)
    }

    fn violations(&self, s: &ClusterState) -> Vec<(String, String)> {
        let mut v = Vec::new();
        if let Some(p) = s.poison {
            v.push((
                p.to_string(),
                "a stream was placed on a shard not accepting placements".into(),
            ));
        }
        // No routes to down shards: failover must have cleared them.
        for (i, st) in s.streams.iter().enumerate() {
            if let StreamCl::Routed { shard, .. } = st {
                if s.shards[*shard as usize] == ShardCl::Down {
                    v.push((
                        "no-routes-to-down-shards".into(),
                        format!("stream {i} still routed to down shard {shard}"),
                    ));
                }
            }
        }
        // Conservation: every opened stream is routed, in flight, done,
        // or a *recorded* loss — nothing vanishes silently.
        let accounted = u8::try_from(
            s.streams
                .iter()
                .filter(|st| **st != StreamCl::Closed)
                .count(),
        )
        .expect("small scope");
        if accounted != s.opened {
            v.push((
                "stream-conservation".into(),
                format!("opened {} but {accounted} streams accounted for", s.opened),
            ));
        }
        // A checkpoint never runs ahead of committed progress.
        for (i, st) in s.streams.iter().enumerate() {
            let (StreamCl::Routed { pos, ckpt, .. } | StreamCl::InFlight { pos, ckpt, .. }) = st
            else {
                continue;
            };
            if let Some(c) = ckpt {
                if c > pos {
                    v.push((
                        "checkpoint-not-ahead".into(),
                        format!("stream {i} checkpointed at {c} past position {pos}"),
                    ));
                }
            }
        }
        // Failover resumes exactly at the checkpoint: later skips
        // replayed data; earlier cannot exist in the snapshot.
        if let Some((resume, ckpt)) = s.last_failover {
            if resume != ckpt {
                v.push((
                    "failover-replays-from-checkpoint".into(),
                    format!("failover resumed at {resume}, checkpoint was {ckpt}"),
                ));
            }
        }
        v
    }
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

/// Circuit-breaker thresholds and the breaker's pure transition
/// function. The cluster re-exports this type as
/// `cluster::BreakerConfig`, so [`BreakerParams::step`] is the one
/// implementation both the runtime breaker and [`BreakerModel`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerParams {
    /// Consecutive failures that trip Closed → Open (≥ 1).
    pub trip_failures: u32,
    /// Ticks an Open breaker dwells before probing.
    pub cool_ticks: u32,
    /// Consecutive HalfOpen probe successes that close it (≥ 1).
    pub close_successes: u32,
}

/// Input codes for [`BreakerParams::step`] (what
/// `cluster::BreakerInput::code` returns). A guarded-operation success.
pub const BRK_SUCCESS: u8 = 0;
/// A guarded-operation failure.
pub const BRK_FAILURE: u8 = 1;
/// One elapsed tick.
pub const BRK_TICK: u8 = 2;

impl BreakerParams {
    /// The cluster's default thresholds (also [`Default`]).
    #[must_use]
    pub fn serving_defaults() -> Self {
        BreakerParams {
            trip_failures: 3,
            cool_ticks: 6,
            close_successes: 2,
        }
    }

    /// The pure transition function over `(rank, count)`: rank 0 =
    /// Closed (count = consecutive failures), 1 = Open (count =
    /// cooldown ticks), 2 = HalfOpen (count = consecutive probe
    /// successes). Escalation is instant, de-escalation deliberate —
    /// the breaker's hysteresis. Inputs are the
    /// [`BRK_SUCCESS`]/[`BRK_FAILURE`]/[`BRK_TICK`] codes.
    ///
    /// Closed trips to Open the instant `trip_failures` consecutive
    /// failures accumulate. Open ignores successes, restarts its
    /// cooldown on a failure, and moves to HalfOpen only after
    /// `cool_ticks` quiet ticks. HalfOpen re-opens (cooldown restarted)
    /// on any failure and closes only after `close_successes`
    /// consecutive successes; ticks leave it unchanged. Out-of-range
    /// ranks or inputs normalize to Closed with the streak reset.
    #[must_use]
    #[inline]
    pub fn step(&self, rank: u8, count: u32, input: u8) -> (u8, u32) {
        let trip = self.trip_failures.max(1);
        let close = self.close_successes.max(1);
        match (rank, input) {
            (0, BRK_SUCCESS) => (0, 0),
            (0, BRK_FAILURE) => {
                let f = count.saturating_add(1);
                if f >= trip {
                    (1, 0)
                } else {
                    (0, f)
                }
            }
            (0, BRK_TICK) => (0, count),
            (1, BRK_SUCCESS) => (1, count),
            (1, BRK_FAILURE) => (1, 0),
            (1, BRK_TICK) => {
                let c = count.saturating_add(1);
                if c >= self.cool_ticks {
                    (2, 0)
                } else {
                    (1, c)
                }
            }
            (2, BRK_SUCCESS) => {
                let s = count.saturating_add(1);
                if s >= close {
                    (0, 0)
                } else {
                    (2, s)
                }
            }
            (2, BRK_FAILURE) => (1, 0),
            (2, BRK_TICK) => (2, count),
            _ => (0, 0),
        }
    }
}

impl Default for BreakerParams {
    fn default() -> Self {
        BreakerParams::serving_defaults()
    }
}

/// A breaker-model state: the `(rank, count)` pair of the pure step
/// function plus the wrapper's single-probe slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BreakerSt {
    /// Breaker rank 0..=2 (Closed/Open/HalfOpen).
    pub rank: u8,
    /// The rank's streak counter.
    pub count: u32,
    /// A HalfOpen probe is outstanding.
    pub probe_out: bool,
    /// Times the breaker has tripped (scope bound).
    pub trips: u8,
    /// Set when an operation hit a state it must never see.
    pub poison: Option<&'static str>,
}

/// Events of the breaker model. Guarded-operation verdicts are only
/// enabled where the wrapper's `admits()` would have let the operation
/// through — that enabledness *is* the property under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// An admitted guarded operation succeeded.
    OpSuccess,
    /// A failure was observed (an admitted operation failed, or
    /// external evidence like a missed tick arrived).
    OpFailure,
    /// One cluster tick elapsed.
    Tick,
    /// The HalfOpen probe slot was taken by an admitted operation.
    BeginProbe,
}

/// The abstract per-shard circuit breaker (`cluster::CircuitBreaker`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerModel {
    /// The thresholds under test.
    pub params: BreakerParams,
    /// Trips before the scope ends (bounds exploration).
    pub max_trips: u8,
    /// Seeded bug: HalfOpen admits any number of concurrent probes
    /// (the wrapper forgets to mark the slot taken).
    pub probe_flood_bug: bool,
    /// Seeded bug: the first HalfOpen probe success closes the breaker
    /// regardless of `close_successes`.
    pub early_close_bug: bool,
    /// Seeded bug: the Open cooldown comparison is off by one, so the
    /// breaker dwells past `cool_ticks`.
    pub sticky_open_bug: bool,
}

impl BreakerModel {
    /// The default small scope: tight thresholds, three trips.
    #[must_use]
    pub fn small() -> Self {
        BreakerModel {
            params: BreakerParams {
                trip_failures: 2,
                cool_ticks: 2,
                close_successes: 2,
            },
            max_trips: 3,
            probe_flood_bug: false,
            early_close_bug: false,
            sticky_open_bug: false,
        }
    }

    /// The same scope with the unlimited-probe bug seeded.
    #[must_use]
    pub fn probe_flood_bug() -> Self {
        BreakerModel {
            probe_flood_bug: true,
            ..BreakerModel::small()
        }
    }

    /// The same scope with the early-close bug seeded.
    #[must_use]
    pub fn early_close_bug() -> Self {
        BreakerModel {
            early_close_bug: true,
            ..BreakerModel::small()
        }
    }

    /// The same scope with the off-by-one cooldown bug seeded.
    #[must_use]
    pub fn sticky_open_bug() -> Self {
        BreakerModel {
            sticky_open_bug: true,
            ..BreakerModel::small()
        }
    }
}

impl Model for BreakerModel {
    type State = BreakerSt;
    type Event = BreakerEvent;

    fn initial(&self) -> BreakerSt {
        BreakerSt {
            rank: 0,
            count: 0,
            probe_out: false,
            trips: 0,
            poison: None,
        }
    }

    fn events(&self, s: &BreakerSt) -> Vec<BreakerEvent> {
        if s.poison.is_some() || s.trips >= self.max_trips {
            return Vec::new(); // terminal: poisoned, or scope spent
        }
        let mut ev = Vec::new();
        // A guarded operation's verdict can only arrive where admits()
        // let the operation through: always in Closed, via the probe
        // slot in HalfOpen, never in Open.
        if s.rank == 0 || (s.rank == 2 && s.probe_out) {
            ev.push(BreakerEvent::OpSuccess);
        }
        // Failures additionally arrive as external evidence (a chaos
        // slowdown missing the shard's tick) in any state.
        ev.push(BreakerEvent::OpFailure);
        ev.push(BreakerEvent::Tick);
        // The probe slot: one at a time — unless the flood bug forgot
        // to mark it taken.
        if s.rank == 2 && (!s.probe_out || self.probe_flood_bug) {
            ev.push(BreakerEvent::BeginProbe);
        }
        ev
    }

    fn apply(&self, s: &BreakerSt, e: &BreakerEvent) -> Option<BreakerSt> {
        let mut n = *s;
        match e {
            BreakerEvent::BeginProbe => {
                if s.rank != 2 {
                    return None;
                }
                if s.probe_out {
                    // Two probes outstanding at once: exactly what the
                    // single-probe discipline forbids.
                    n.poison = Some("half-open-single-probe");
                    return Some(n);
                }
                n.probe_out = true;
                return Some(n);
            }
            BreakerEvent::OpSuccess => {
                let (rank, count) = self.params.step(s.rank, s.count, BRK_SUCCESS);
                if self.early_close_bug && s.rank == 2 {
                    // The seeded bug: one success closes it outright.
                    n.rank = 0;
                    n.count = 0;
                } else {
                    n.rank = rank;
                    n.count = count;
                }
                n.probe_out = false;
                if s.rank == 2 && n.rank == 0 && s.count + 1 < self.params.close_successes.max(1) {
                    n.poison = Some("half-open-early-close");
                }
            }
            BreakerEvent::OpFailure => {
                let (rank, count) = self.params.step(s.rank, s.count, BRK_FAILURE);
                n.rank = rank;
                n.count = count;
                n.probe_out = false;
            }
            BreakerEvent::Tick => {
                let (rank, count) = if self.sticky_open_bug && s.rank == 1 {
                    // The seeded off-by-one: dwells one tick too long.
                    let c = s.count + 1;
                    if c > self.params.cool_ticks {
                        (2, 0)
                    } else {
                        (1, c)
                    }
                } else {
                    self.params.step(s.rank, s.count, BRK_TICK)
                };
                n.rank = rank;
                n.count = count;
            }
        }
        if n.rank == 1 && s.rank != 1 {
            n.trips = s.trips.saturating_add(1);
        }
        Some(n)
    }

    fn violations(&self, s: &BreakerSt) -> Vec<(String, String)> {
        let mut v = Vec::new();
        if let Some(p) = s.poison {
            v.push((p.to_string(), "poisoned state reached".into()));
        }
        // Closed must have tripped at the threshold, never counted past
        // it.
        if s.rank == 0 && s.count >= self.params.trip_failures.max(1) {
            v.push((
                "trip-threshold".into(),
                format!(
                    "closed with {} consecutive failures (trip at {})",
                    s.count, self.params.trip_failures
                ),
            ));
        }
        // Open must hand over to HalfOpen the moment the dwell elapses.
        if s.rank == 1 && s.count >= self.params.cool_ticks.max(1) {
            v.push((
                "open-dwell-bound".into(),
                format!(
                    "open for {} ticks (cooldown is {})",
                    s.count, self.params.cool_ticks
                ),
            ));
        }
        // HalfOpen must close at the threshold, never count past it.
        if s.rank == 2 && s.count >= self.params.close_successes.max(1) {
            v.push((
                "close-threshold".into(),
                format!(
                    "half-open with {} successes (close at {})",
                    s.count, self.params.close_successes
                ),
            ));
        }
        // The probe slot only exists in HalfOpen.
        if s.probe_out && s.rank != 2 {
            v.push((
                "probe-only-half-open".into(),
                format!("probe outstanding at rank {}", s.rank),
            ));
        }
        v
    }
}

/// One event the journal model can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JournalEvent {
    /// A client issues operation `op`: it is applied to live state, its
    /// idempotency token enters the ledger, and one record carrying
    /// both is appended to the unflushed journal tail.
    Apply(u8),
    /// Every pending record becomes durable.
    Flush,
    /// Power loss; nothing of the in-flight flush reached the platter.
    /// Replay rebuilds live state from the durable records.
    CrashLost,
    /// Power loss mid-flush: operation `op`'s record was half-written —
    /// a torn frame at the durable tail, its CRC unverifiable. Replay
    /// must stop at (and truncate) the tear.
    CrashTorn(u8),
    /// The client retries operation `op` (it cannot know whether the
    /// original committed). The ledger must suppress the duplicate.
    Redeliver(u8),
}

/// One explored journal/recovery state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JournalSt {
    /// Times each operation's effect was applied to live state. Any
    /// count ≥ 2 is a double apply.
    pub effects: Vec<u8>,
    /// Operations the client has issued at least once.
    pub issued: Vec<bool>,
    /// Operations whose records sit in the unflushed journal tail.
    pub pending: Vec<bool>,
    /// Operations whose records are durably complete (flushed, intact
    /// CRC).
    pub durable: Vec<bool>,
    /// Operations the live idempotency ledger remembers.
    pub ledger: Vec<bool>,
    /// Crashes taken so far (scope bound).
    pub crashes: u8,
    /// Set by the replay that just ran: (effects bitmask, durable
    /// bitmask) at the instant recovery finished. Cleared by the next
    /// event, so the invariant is judged exactly once per recovery.
    pub last_recovery: Option<(u8, u8)>,
}

impl JournalSt {
    fn mask(flags: &[u8]) -> u8 {
        flags
            .iter()
            .enumerate()
            .fold(0u8, |m, (i, &c)| if c > 0 { m | (1 << i) } else { m })
    }
}

/// Abstract model of `wal::Journal` recovery: append/flush/crash/replay
/// with an idempotency ledger journaled alongside every effect
/// (mirroring `cluster::Cluster::recover` over the write-ahead log).
///
/// The fixed model stops replay at a torn tail and rebuilds the token
/// ledger from the durable records, so redelivered operations are
/// suppressed. Each seeded bug disables one of those guarantees:
///
/// * [`JournalModel::torn_bug`] — replay reads **past** the torn frame,
///   applying a half-written record as if it were durable
///   (`replay-stops-at-torn-tail`).
/// * [`JournalModel::tokenless_bug`] — replay rebuilds effects but
///   forgets the token ledger, so a post-recovery redelivery applies
///   the operation a second time (`no-double-apply-across-recovery`).
#[derive(Debug, Clone, Copy)]
pub struct JournalModel {
    /// Distinct client operations in scope (≤ 8: states carry bitmasks).
    pub n_ops: u8,
    /// Crashes allowed before the model goes terminal.
    pub max_crashes: u8,
    /// Seeded bug: replay continues past a torn tail.
    pub replay_past_torn_bug: bool,
    /// Seeded bug: replay drops the idempotency ledger.
    pub tokenless_replay_bug: bool,
}

impl JournalModel {
    /// The fixed small-scope model: every invariant must hold.
    #[must_use]
    pub fn small() -> Self {
        JournalModel {
            n_ops: 3,
            max_crashes: 2,
            replay_past_torn_bug: false,
            tokenless_replay_bug: false,
        }
    }

    /// Replay that accepts the half-written frame at the tear.
    #[must_use]
    pub fn torn_bug() -> Self {
        JournalModel {
            replay_past_torn_bug: true,
            ..JournalModel::small()
        }
    }

    /// Replay that reconstructs effects but not the token ledger.
    #[must_use]
    pub fn tokenless_bug() -> Self {
        JournalModel {
            tokenless_replay_bug: true,
            ..JournalModel::small()
        }
    }

    /// Live state after replaying the durable log, with `torn` the
    /// operation (if any) whose half-written frame sits at the tail.
    /// `durable` is unchanged by replay either way: the fixed replay
    /// stops at the tear and truncates it, and even the buggy replay
    /// only misreads the partial frame — it cannot complete it.
    fn replay(&self, s: &JournalSt, torn: Option<u8>) -> JournalSt {
        let n = self.n_ops as usize;
        let mut effects: Vec<u8> = s.durable.iter().map(|&d| u8::from(d)).collect();
        if let Some(op) = torn {
            if self.replay_past_torn_bug {
                // The bug: the half-written frame is decoded anyway and
                // its effect applied, though it never durably completed.
                effects[op as usize] = effects[op as usize].saturating_add(1);
            }
        }
        let ledger = if self.tokenless_replay_bug {
            vec![false; n]
        } else {
            effects.iter().map(|&c| c > 0).collect()
        };
        let eff_mask = JournalSt::mask(&effects);
        let dur_mask = s
            .durable
            .iter()
            .enumerate()
            .fold(0u8, |m, (i, &d)| if d { m | (1 << i) } else { m });
        JournalSt {
            effects,
            issued: s.issued.clone(),
            pending: vec![false; n],
            durable: s.durable.clone(),
            ledger,
            crashes: s.crashes + 1,
            last_recovery: Some((eff_mask, dur_mask)),
        }
    }
}

impl Model for JournalModel {
    type State = JournalSt;
    type Event = JournalEvent;

    fn initial(&self) -> JournalSt {
        let n = self.n_ops as usize;
        JournalSt {
            effects: vec![0; n],
            issued: vec![false; n],
            pending: vec![false; n],
            durable: vec![false; n],
            ledger: vec![false; n],
            crashes: 0,
            last_recovery: None,
        }
    }

    fn events(&self, s: &JournalSt) -> Vec<JournalEvent> {
        let mut ev = Vec::new();
        for op in 0..self.n_ops {
            if !s.issued[op as usize] {
                ev.push(JournalEvent::Apply(op));
            } else {
                ev.push(JournalEvent::Redeliver(op));
            }
        }
        if s.pending.iter().any(|&p| p) {
            ev.push(JournalEvent::Flush);
        }
        if s.crashes < self.max_crashes {
            ev.push(JournalEvent::CrashLost);
            for op in 0..self.n_ops {
                if s.pending[op as usize] {
                    ev.push(JournalEvent::CrashTorn(op));
                }
            }
        }
        ev
    }

    fn apply(&self, s: &JournalSt, e: &JournalEvent) -> Option<JournalSt> {
        let mut n = s.clone();
        n.last_recovery = None;
        match *e {
            JournalEvent::Apply(op) => {
                let op = op as usize;
                if s.issued[op] {
                    return None;
                }
                n.effects[op] = 1;
                n.issued[op] = true;
                n.ledger[op] = true;
                n.pending[op] = true;
            }
            JournalEvent::Flush => {
                if !s.pending.iter().any(|&p| p) {
                    return None;
                }
                for op in 0..self.n_ops as usize {
                    if n.pending[op] {
                        n.durable[op] = true;
                        n.pending[op] = false;
                    }
                }
            }
            JournalEvent::CrashLost => {
                if s.crashes >= self.max_crashes {
                    return None;
                }
                n = self.replay(s, None);
            }
            JournalEvent::CrashTorn(op) => {
                if s.crashes >= self.max_crashes || !s.pending[op as usize] {
                    return None;
                }
                n = self.replay(s, Some(op));
            }
            JournalEvent::Redeliver(op) => {
                let op = op as usize;
                if !s.issued[op] {
                    return None;
                }
                if !s.ledger[op] {
                    // The original's fate is unknown to the client; a
                    // correct ledger makes this a first (re)apply, a
                    // dropped ledger makes it a double apply.
                    n.effects[op] = n.effects[op].saturating_add(1);
                    n.ledger[op] = true;
                    n.pending[op] = true;
                }
            }
        }
        Some(n)
    }

    fn violations(&self, s: &JournalSt) -> Vec<(String, String)> {
        let mut v = Vec::new();
        for (op, &c) in s.effects.iter().enumerate() {
            if c >= 2 {
                v.push((
                    "no-double-apply-across-recovery".into(),
                    format!("operation {op} applied {c} times"),
                ));
            }
        }
        // A recorded effect whose token the ledger forgot is a double
        // apply waiting on the next redelivery.
        for op in 0..self.n_ops as usize {
            if s.effects[op] > 0 && !s.ledger[op] {
                v.push((
                    "ledger-covers-effects".into(),
                    format!("operation {op} applied but absent from the ledger"),
                ));
            }
        }
        if let Some((eff, dur)) = s.last_recovery {
            if eff & !dur != 0 {
                v.push((
                    "replay-stops-at-torn-tail".into(),
                    format!(
                        "recovery applied effects {eff:#05b} but only {dur:#05b} were durably complete"
                    ),
                ));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::{explore, ExploreLimits};

    #[test]
    fn fixed_service_model_holds_all_invariants() {
        let r = explore(&ServiceModel::small(), &ExploreLimits::default());
        assert!(
            r.passed(),
            "fixed transact must satisfy every invariant:\n{}",
            r.violations
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(!r.truncated, "small scope must be exhausted");
        assert!(r.states > 100, "scope is non-trivial: {} states", r.states);
    }

    #[test]
    fn prefix_transact_model_rediscovers_the_double_park_bug() {
        let r = explore(&ServiceModel::small_prefix_bug(), &ExploreLimits::default());
        let v = r
            .violations
            .iter()
            .find(|v| v.invariant == "no-double-park")
            .expect("the pre-fix dedup-without-sort model double-parks");
        // The counterexample needs ≥ 2 chunks on one stream and ≥ 1 on
        // another (the [0, 1, 0] batch), a fault, and a pump.
        assert!(v.trace.len() >= 6, "trace: {:?}", v.trace);
        assert!(v.trace.contains(&ServiceEvent::ArmFault));
        assert!(v.trace.contains(&ServiceEvent::Pump));
    }

    #[test]
    fn ladder_mirror_matches_spec_shape() {
        let l = LadderParams::serving_defaults();
        assert_eq!(l.next_level(0, 59), 0);
        assert_eq!(l.next_level(0, 60), 1);
        assert_eq!(l.next_level(0, 100), 3);
        // De-escalation: one rung, only past the margin.
        assert_eq!(l.next_level(3, 80), 3, "80 + 15 ≥ 90 holds the rung");
        assert_eq!(l.next_level(3, 74), 2);
        assert_eq!(l.next_level(2, 10), 1, "one rung per tick");
    }

    #[test]
    fn recovery_models_hold_for_both_policies() {
        for m in [RecoveryModel::standard(), RecoveryModel::stream_serving()] {
            let r = explore(&m, &ExploreLimits::default());
            assert!(r.passed(), "{m:?}: {:?}", r.violations.first());
            assert!(!r.truncated);
        }
    }

    #[test]
    fn fixed_cluster_model_holds_all_invariants() {
        let r = explore(&ClusterModel::small(), &ExploreLimits::default());
        assert!(
            r.passed(),
            "fixed cluster model must satisfy every invariant:\n{}",
            r.violations
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(!r.truncated, "small scope must be exhausted");
        assert!(r.states > 1000, "scope is non-trivial: {} states", r.states);
    }

    #[test]
    fn fence_bug_model_places_onto_draining_shards() {
        let r = explore(&ClusterModel::fence_bug(), &ExploreLimits::default());
        let v = r
            .violations
            .iter()
            .find(|v| v.invariant == "placement-fence")
            .expect("unfenced placement must land on a draining shard");
        assert!(
            v.trace.iter().any(|e| matches!(e, ClusterEvent::Drain(_))),
            "trace: {:?}",
            v.trace
        );
    }

    #[test]
    fn lost_detach_bug_model_breaks_stream_conservation() {
        let r = explore(&ClusterModel::lost_detach_bug(), &ExploreLimits::default());
        let v = r
            .violations
            .iter()
            .find(|v| v.invariant == "stream-conservation")
            .expect("dropping an in-flight stream must break conservation");
        // The counterexample needs a migration in flight and the target
        // shard killed before the transfer lands.
        assert!(v
            .trace
            .iter()
            .any(|e| matches!(e, ClusterEvent::MigrateStart { .. })));
        assert!(v.trace.iter().any(|e| matches!(e, ClusterEvent::Kill(_))));
    }

    /// Saturation safety: stepping from the extreme count never panics
    /// and stays in range, for every rank (out-of-range ones included)
    /// and every input.
    #[test]
    fn breaker_step_is_total_at_extremes() {
        let p = BreakerParams::default();
        for rank in 0u8..6 {
            for input in [BRK_SUCCESS, BRK_FAILURE, BRK_TICK] {
                let (r, _) = p.step(rank, u32::MAX, input);
                assert!(r <= 2, "rank {rank}, input {input} -> {r}");
            }
        }
    }

    #[test]
    fn fixed_breaker_model_holds_all_invariants() {
        let r = explore(&BreakerModel::small(), &ExploreLimits::default());
        assert!(
            r.passed(),
            "fixed breaker must satisfy every invariant:\n{}",
            r.violations
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(!r.truncated, "small scope must be exhausted");
        assert!(r.states > 15, "scope is non-trivial: {} states", r.states);
        assert!(
            r.transitions > r.states,
            "the scope must revisit states, not just walk a line"
        );
    }

    #[test]
    fn probe_flood_bug_model_overlaps_probes() {
        let r = explore(&BreakerModel::probe_flood_bug(), &ExploreLimits::default());
        let v = r
            .violations
            .iter()
            .find(|v| v.invariant == "half-open-single-probe")
            .expect("unlimited probes must overlap in HalfOpen");
        // Needs a trip, the cooldown, then two BeginProbes back to back.
        assert!(
            v.trace
                .iter()
                .filter(|e| matches!(e, BreakerEvent::BeginProbe))
                .count()
                >= 2,
            "trace: {:?}",
            v.trace
        );
    }

    #[test]
    fn early_close_bug_model_closes_below_threshold() {
        let r = explore(&BreakerModel::early_close_bug(), &ExploreLimits::default());
        let v = r
            .violations
            .iter()
            .find(|v| v.invariant == "half-open-early-close")
            .expect("one probe success must not close a close_successes=2 breaker");
        assert!(
            v.trace.contains(&BreakerEvent::OpSuccess),
            "trace: {:?}",
            v.trace
        );
    }

    #[test]
    fn sticky_open_bug_model_overstays_the_cooldown() {
        let r = explore(&BreakerModel::sticky_open_bug(), &ExploreLimits::default());
        let v = r
            .violations
            .iter()
            .find(|v| v.invariant == "open-dwell-bound")
            .expect("the off-by-one cooldown must dwell past cool_ticks");
        assert!(
            v.trace
                .iter()
                .filter(|e| matches!(e, BreakerEvent::Tick))
                .count() as u32
                >= BreakerModel::small().params.cool_ticks,
            "trace: {:?}",
            v.trace
        );
    }

    #[test]
    fn stale_resume_bug_model_skips_the_replay_window() {
        let r = explore(&ClusterModel::stale_resume_bug(), &ExploreLimits::default());
        let v = r
            .violations
            .iter()
            .find(|v| v.invariant == "failover-replays-from-checkpoint")
            .expect("stale resume must surface once progress outruns the checkpoint");
        // Needs a sweep, then further progress, then the kill.
        assert!(v.trace.contains(&ClusterEvent::Sweep));
        assert!(v
            .trace
            .iter()
            .any(|e| matches!(e, ClusterEvent::Advance(_))));
        assert!(v.trace.iter().any(|e| matches!(e, ClusterEvent::Kill(_))));
    }

    #[test]
    fn fixed_journal_model_holds_all_invariants() {
        let r = explore(&JournalModel::small(), &ExploreLimits::default());
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert!(!r.truncated, "exploration must exhaust the small scope");
        assert!(r.states > 150, "suspiciously small scope: {}", r.states);
    }

    #[test]
    fn torn_bug_journal_model_replays_past_the_tear() {
        let r = explore(&JournalModel::torn_bug(), &ExploreLimits::default());
        let v = r
            .violations
            .iter()
            .find(|v| v.invariant == "replay-stops-at-torn-tail")
            .expect("replay past a torn tail must apply a non-durable record");
        // The counterexample needs a half-written frame: a torn crash
        // with the record still pending.
        assert!(
            v.trace
                .iter()
                .any(|e| matches!(e, JournalEvent::CrashTorn(_))),
            "trace: {:?}",
            v.trace
        );
    }

    #[test]
    fn tokenless_bug_journal_model_double_applies_on_redelivery() {
        let r = explore(&JournalModel::tokenless_bug(), &ExploreLimits::default());
        let v = r
            .violations
            .iter()
            .find(|v| v.invariant == "no-double-apply-across-recovery")
            .expect("a ledger dropped at recovery must let a redelivery double-apply");
        // The counterexample needs a durable apply, a crash that forgets
        // the ledger, and the client's retry.
        assert!(
            v.trace
                .iter()
                .any(|e| matches!(e, JournalEvent::CrashLost | JournalEvent::CrashTorn(_))),
            "trace: {:?}",
            v.trace
        );
        assert!(
            v.trace
                .iter()
                .any(|e| matches!(e, JournalEvent::Redeliver(_))),
            "trace: {:?}",
            v.trace
        );
    }
}
