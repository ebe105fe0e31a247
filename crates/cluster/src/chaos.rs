//! Deterministic chaos harness: seeded adversity against the
//! self-healing cluster control loop.
//!
//! The chaos storm runs the exact traffic shape of the cluster storm
//! ([`crate::storm`]) while a seeded [`ChaosScheduler`] injects typed
//! disturbances — shard slowdowns, corrupted and truncated migration
//! transfers, byzantine health probes, flapping fabric-fault bursts,
//! admission storms — and a rolling personality upgrade walks the
//! fleet mid-run. Every injection is a typed [`ChaosEvent`], mirrored
//! into the cluster's obs trace as a `chaos_inject` event, and all
//! randomness flows from one [`SplitMix64`]: the same seed replays the
//! same campaign byte for byte (CI compares two runs with `cmp`).
//!
//! The gates are absolute: zero oracle digest mismatches, zero
//! unaccounted stream losses, zero double-applied tokenized
//! operations, nothing stranded. Chaos may slow the cluster; it must
//! never make it wrong.

use crate::breaker::BreakerState;
use crate::cluster::{Cluster, ClusterCounters, ClusterError, DownReason, ShardState};
use crate::placement::mix64;
use crate::rebalance::RebalancePolicy;
use crate::retry::{OpApply, OpToken};
use crate::storm::{
    audit_spans, host_personalities, pick_migration, render_tail, shard_summaries,
    ClusterStormConfig, FabricNoise, ShardSummary, SpanAudit, Traffic, DRAIN_TICKS,
};
use crate::upgrade::{RollingUpgrade, UpgradeStatus};
use resilience::rng::SplitMix64;
use std::fmt::Write as _;

/// How the chaos channel sabotages one migration transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferChaos {
    /// A byte of the wire copy is bit-flipped in flight.
    Corrupt,
    /// The wire copy is cut off mid-transfer (the tail half is lost).
    Truncate,
}

impl TransferChaos {
    /// Stable label for traces and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TransferChaos::Corrupt => "transfer_corrupt",
            TransferChaos::Truncate => "transfer_truncate",
        }
    }

    /// Applies the sabotage to a wire copy of the snapshot bytes. The
    /// source's pristine copy is untouched — a lossy channel can
    /// damage what travels, never what stayed behind.
    #[must_use]
    pub fn mangle(self, bytes: &[u8]) -> Vec<u8> {
        let mut wire = bytes.to_vec();
        match self {
            TransferChaos::Corrupt => {
                if let Some(b) = wire.get_mut(bytes.len() / 2) {
                    *b ^= 0x20;
                }
            }
            TransferChaos::Truncate => {
                wire.truncate(bytes.len() / 2);
            }
        }
        wire
    }
}

/// How the storage channel sabotages the journal's disk. Drawn by the
/// scheduler from its own forked rng (so enabling storage chaos never
/// perturbs the traffic-facing schedules); applied by the crash
/// harness ([`crate::crash`]), which owns the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageChaos {
    /// The next crash tears the in-flight write: `keep` (reduced modulo
    /// the pending length at crash time) bytes of the unflushed suffix
    /// survive, possibly splitting a frame.
    TornTail {
        /// Raw draw; the harness reduces it modulo the pending length.
        keep: u64,
    },
    /// Bit rot lands in a cold (superseded) segment: `mask` is XORed
    /// into one durable payload byte chosen by `offset`.
    BitRot {
        /// Raw draw; the harness maps it onto a cold payload byte.
        offset: u64,
        /// Bits to flip (never zero).
        mask: u8,
    },
    /// The next crash drops the whole unflushed suffix.
    LostSuffix,
    /// The disk's next append is written twice (a retried write whose
    /// first attempt silently succeeded).
    DuplicateAppend,
}

impl StorageChaos {
    /// Stable label for traces and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StorageChaos::TornTail { .. } => "storage_torn_tail",
            StorageChaos::BitRot { .. } => "storage_bit_rot",
            StorageChaos::LostSuffix => "storage_lost_suffix",
            StorageChaos::DuplicateAppend => "storage_dup_append",
        }
    }
}

/// One typed disturbance drawn by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// A shard misses its next `ticks` cluster ticks.
    Slowdown {
        /// The slowed shard.
        shard: usize,
        /// Ticks it will miss.
        ticks: u32,
    },
    /// The next migration transfer is sabotaged.
    TransferFault(
        /// How the wire copy is mangled.
        TransferChaos,
    ),
    /// A shard's routine health probe lies (reports a fully abandoned
    /// fabric) for `ticks` ticks.
    ByzantineHealth {
        /// The shard whose probe channel lies.
        shard: usize,
        /// Ticks the lie persists.
        ticks: u32,
    },
    /// A burst of transient fabric faults lands on one shard at once
    /// (a flapping component).
    FaultFlap {
        /// The flapping shard.
        shard: usize,
        /// Faults injected in the burst.
        burst: u32,
    },
    /// A surge of stream arrivals is pulled forward into this tick.
    AdmissionStorm {
        /// Extra arrivals offered at once.
        extra: usize,
    },
    /// The journal's storage device is sabotaged.
    StorageFault(
        /// How the disk misbehaves.
        StorageChaos,
    ),
}

impl ChaosEvent {
    /// Stable label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ChaosEvent::Slowdown { .. } => "slowdown",
            ChaosEvent::TransferFault(mode) => mode.label(),
            ChaosEvent::ByzantineHealth { .. } => "byzantine_health",
            ChaosEvent::FaultFlap { .. } => "fault_flap",
            ChaosEvent::AdmissionStorm { .. } => "admission_storm",
            ChaosEvent::StorageFault(kind) => kind.label(),
        }
    }
}

/// Per-tick injection probabilities and magnitudes. All draws come
/// from the scheduler's own forked rng, so enabling or disabling one
/// disturbance kind never perturbs the others' schedules relative to
/// the traffic.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Per-tick probability of slowing one shard.
    pub slow_prob: f64,
    /// Slowdown length drawn uniformly from this inclusive range.
    pub slow_ticks: (u32, u32),
    /// Per-tick probability of arming a transfer sabotage.
    pub transfer_prob: f64,
    /// Per-tick probability of starting a byzantine health lie.
    pub lie_prob: f64,
    /// Lie length drawn uniformly from this inclusive range.
    pub lie_ticks: (u32, u32),
    /// Per-tick probability of a fabric-fault flap burst.
    pub flap_prob: f64,
    /// Burst size drawn uniformly from this inclusive range.
    pub flap_burst: (u32, u32),
    /// Per-tick probability of an admission storm.
    pub storm_prob: f64,
    /// Arrivals pulled forward, drawn uniformly from this range.
    pub storm_extra: (usize, usize),
    /// Per-tick probability of a storage fault against the journal's
    /// disk. Drawn from a **separately forked** rng, so turning this on
    /// (the crash harness does) leaves every other schedule — and the
    /// committed chaos-storm baselines — byte-identical.
    pub storage_prob: f64,
}

impl ChaosConfig {
    /// No chaos at all (the control experiment).
    #[must_use]
    pub fn quiet() -> Self {
        ChaosConfig {
            slow_prob: 0.0,
            slow_ticks: (0, 0),
            transfer_prob: 0.0,
            lie_prob: 0.0,
            lie_ticks: (0, 0),
            flap_prob: 0.0,
            flap_burst: (0, 0),
            storm_prob: 0.0,
            storm_extra: (0, 0),
            storage_prob: 0.0,
        }
    }

    /// The CI smoke schedule: every disturbance kind fires many times
    /// over a few hundred ticks.
    #[must_use]
    pub fn smoke() -> Self {
        ChaosConfig {
            slow_prob: 0.10,
            slow_ticks: (2, 5),
            transfer_prob: 0.12,
            lie_prob: 0.04,
            lie_ticks: (14, 20),
            flap_prob: 0.05,
            flap_burst: (1, 2),
            storm_prob: 0.05,
            storm_extra: (6, 12),
            // The plain chaos storm has no journal; the crash harness
            // turns storage faults on over this same schedule.
            storage_prob: 0.0,
        }
    }
}

/// Cumulative injection counts, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounts {
    /// Shard slowdowns injected.
    pub slowdowns: u64,
    /// Transfers corrupted in flight.
    pub transfers_corrupted: u64,
    /// Transfers truncated in flight.
    pub transfers_truncated: u64,
    /// Byzantine health lies started.
    pub byzantine_lies: u64,
    /// Fabric-fault flap bursts.
    pub fault_flaps: u64,
    /// Admission storms.
    pub admission_storms: u64,
    /// Storage faults: torn tail writes armed.
    pub storage_torn_tails: u64,
    /// Storage faults: cold-segment bit rot.
    pub storage_bit_rots: u64,
    /// Storage faults: lost unflushed suffixes armed.
    pub storage_lost_suffixes: u64,
    /// Storage faults: duplicated appends armed.
    pub storage_dup_appends: u64,
}

/// Seeded per-tick disturbance drawer. Decisions are a pure function
/// of the scheduler's rng stream and the shard sets it is shown, so a
/// campaign replays exactly.
#[derive(Debug)]
pub struct ChaosScheduler {
    cfg: ChaosConfig,
    rng: SplitMix64,
    /// Storage-fault draws come from their own stream (a pure function
    /// of the seed, never touching `rng`), so a campaign with storage
    /// chaos disabled replays identically to one that predates it.
    storage_rng: SplitMix64,
    counts: ChaosCounts,
}

fn draw_u32(rng: &mut SplitMix64, range: (u32, u32)) -> u32 {
    let (lo, hi) = range;
    if hi <= lo {
        return lo;
    }
    lo + rng.below((hi - lo + 1) as usize) as u32
}

impl ChaosScheduler {
    /// A scheduler drawing from its own seed.
    #[must_use]
    pub fn new(cfg: ChaosConfig, seed: u64) -> Self {
        ChaosScheduler {
            cfg,
            rng: SplitMix64::new(seed),
            storage_rng: SplitMix64::new(mix64(seed ^ 0x5704_A6E5_D15C_FA17)),
            counts: ChaosCounts::default(),
        }
    }

    /// Injection counts so far.
    #[must_use]
    pub fn counts(&self) -> ChaosCounts {
        self.counts
    }

    /// Draws this tick's disturbances (at most one per kind).
    ///
    /// `eligible` are the shards placement currently trusts (Active
    /// with a Closed breaker); slowdowns only fire while at least two
    /// remain, so chaos can degrade the fleet but never fence the last
    /// shard new traffic could land on. `active` are all serving
    /// shards (lie/flap targets).
    pub fn draw(&mut self, eligible: &[usize], active: &[usize]) -> Vec<ChaosEvent> {
        let cfg = self.cfg;
        let mut events = Vec::new();
        if eligible.len() >= 2 && self.rng.chance(cfg.slow_prob) {
            let shard = eligible[self.rng.below(eligible.len())];
            let ticks = draw_u32(&mut self.rng, cfg.slow_ticks);
            self.counts.slowdowns += 1;
            events.push(ChaosEvent::Slowdown { shard, ticks });
        }
        if self.rng.chance(cfg.transfer_prob) {
            let mode = if self.rng.chance(0.5) {
                TransferChaos::Corrupt
            } else {
                TransferChaos::Truncate
            };
            match mode {
                TransferChaos::Corrupt => self.counts.transfers_corrupted += 1,
                TransferChaos::Truncate => self.counts.transfers_truncated += 1,
            }
            events.push(ChaosEvent::TransferFault(mode));
        }
        if !active.is_empty() && self.rng.chance(cfg.lie_prob) {
            let shard = active[self.rng.below(active.len())];
            let ticks = draw_u32(&mut self.rng, cfg.lie_ticks);
            self.counts.byzantine_lies += 1;
            events.push(ChaosEvent::ByzantineHealth { shard, ticks });
        }
        if !active.is_empty() && self.rng.chance(cfg.flap_prob) {
            let shard = active[self.rng.below(active.len())];
            let burst = draw_u32(&mut self.rng, cfg.flap_burst);
            self.counts.fault_flaps += 1;
            events.push(ChaosEvent::FaultFlap { shard, burst });
        }
        if self.rng.chance(cfg.storm_prob) {
            let (lo, hi) = cfg.storm_extra;
            let extra = if hi <= lo {
                lo
            } else {
                lo + self.rng.below(hi - lo + 1)
            };
            self.counts.admission_storms += 1;
            events.push(ChaosEvent::AdmissionStorm { extra });
        }
        if cfg.storage_prob > 0.0 && self.storage_rng.chance(cfg.storage_prob) {
            let kind = match self.storage_rng.below(4) {
                0 => {
                    self.counts.storage_torn_tails += 1;
                    StorageChaos::TornTail {
                        keep: self.storage_rng.next_u64(),
                    }
                }
                1 => {
                    self.counts.storage_bit_rots += 1;
                    StorageChaos::BitRot {
                        offset: self.storage_rng.next_u64(),
                        mask: 1 << (self.storage_rng.below(8) as u8),
                    }
                }
                2 => {
                    self.counts.storage_lost_suffixes += 1;
                    StorageChaos::LostSuffix
                }
                _ => {
                    self.counts.storage_dup_appends += 1;
                    StorageChaos::DuplicateAppend
                }
            };
            events.push(ChaosEvent::StorageFault(kind));
        }
        events
    }
}

/// Shape of one chaos storm campaign.
#[derive(Debug, Clone)]
pub struct ChaosStormConfig {
    /// The underlying traffic shape (seed, shards, streams, scheduled
    /// drain/kill, personalities, admission).
    pub storm: ClusterStormConfig,
    /// The disturbance schedule.
    pub chaos: ChaosConfig,
    /// Tick the rolling personality upgrade starts (0 = never).
    pub upgrade_tick: u64,
    /// Shards the rolling upgrade walks, in order.
    pub upgrade_shards: Vec<usize>,
    /// Probability that an applied tokenized migration is immediately
    /// redelivered with the same token (duplicate-delivery chaos; the
    /// duplicate must be suppressed).
    pub dup_prob: f64,
    /// Rebalancer policy for the run.
    pub rebalance: RebalancePolicy,
    /// Per-shard admission overrides `(shard, admission)` applied on
    /// top of the homogeneous base — a heterogeneous topology, where
    /// shards differ in queue depths, stream caps and pump budgets.
    pub shard_admission: Vec<(usize, stream::AdmissionConfig)>,
}

impl ChaosStormConfig {
    /// The CI smoke campaign: the cluster-storm smoke traffic over 5
    /// shards with the full disturbance schedule, health-driven
    /// retirement armed, the rebalancer on, and a mid-run rolling
    /// upgrade of two shards.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        let mut storm = ClusterStormConfig::smoke(seed);
        storm.shards = 5;
        // Armed (unlike the plain storm): byzantine lies must be able
        // to produce death verdicts for the veto path to matter. Real
        // abandonment still retires — failover is part of the chaos.
        storm.abandoned_ticks = 10;
        // The storm's scripted kill/drain stay (shards 0 and 1); the
        // upgrade walks two of the untouched shards.
        ChaosStormConfig {
            storm,
            chaos: ChaosConfig::smoke(),
            upgrade_tick: 40,
            upgrade_shards: vec![2, 3],
            dup_prob: 0.5,
            rebalance: RebalancePolicy::serving_defaults(),
            shard_admission: Vec::new(),
        }
    }

    /// The heterogeneous smoke campaign: the same disturbance schedule
    /// over a fleet whose shards differ — shard 1 is a small box (half
    /// the stream cap and queue), shard 3 an oversized one (double
    /// both) — so placement, drain, failover and the rebalancer all
    /// operate across unequal capacities.
    #[must_use]
    pub fn hetero(seed: u64) -> Self {
        let mut cfg = ChaosStormConfig::smoke(seed);
        let base = cfg.storm.admission;
        let mut small = base;
        small.max_streams = (base.max_streams / 2).max(1);
        small.global_queue_bytes = (base.global_queue_bytes / 2).max(64);
        small.pump_budget_chunks = (base.pump_budget_chunks / 2).max(1);
        let mut large = base;
        large.max_streams = base.max_streams * 2;
        large.global_queue_bytes = base.global_queue_bytes * 2;
        large.pump_budget_chunks = base.pump_budget_chunks * 2;
        cfg.shard_admission = vec![(1, small), (3, large)];
        cfg
    }
}

/// What one chaos storm campaign did and found.
#[derive(Debug, Clone)]
pub struct ChaosStormReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Shards in the cluster.
    pub shards: usize,
    /// Logical streams planned.
    pub planned: u64,
    /// Logical streams completed with a verified digest.
    pub completed: u64,
    /// Typed-loss restarts.
    pub restarts: u64,
    /// Completed streams whose digest differed from the oracle (must
    /// be zero).
    pub mismatches: u64,
    /// Losses the cluster recorded that the harness never observed
    /// (must be zero).
    pub losses_unaccounted: u64,
    /// Logical streams still unfinished at the drain budget (must be
    /// zero).
    pub unfinished: u64,
    /// Tokenized duplicates that were double-applied (must be zero).
    pub dup_violations: u64,
    /// Tokenized duplicates correctly suppressed.
    pub dups_suppressed: u64,
    /// Injection counts by kind.
    pub chaos: ChaosCounts,
    /// Background fabric faults injected (the storm's baseline noise
    /// plus flap bursts).
    pub faults_injected: u64,
    /// Shards the rolling upgrade drained, rebuilt and re-hosted.
    pub upgraded: u64,
    /// Shards the rolling upgrade had to skip.
    pub upgrade_skipped: u64,
    /// Ticks simulated (main phase + drain).
    pub ticks_run: u64,
    /// Cluster-level decision counters.
    pub counters: ClusterCounters,
    /// Per-shard end-of-campaign summaries.
    pub shard_lines: Vec<ShardSummary>,
    /// Merged deployment-wide metrics snapshot.
    pub metrics: obs::MetricsSnapshot,
    /// Causal-span audit over the cluster tracer at campaign end.
    pub spans: SpanAudit,
    /// The cluster tracer (events + span table), for trace queries and
    /// the SLO report.
    pub tracer: obs::Tracer,
    /// Rendered cluster-level event trace (chaos injections included).
    pub trace_log: String,
}

impl ChaosStormReport {
    /// Chaos may slow the cluster, never make it wrong: zero
    /// mismatches, zero silent losses, zero double-applies, nothing
    /// stranded, and a clean causal-span audit.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.mismatches == 0
            && self.losses_unaccounted == 0
            && self.unfinished == 0
            && self.dup_violations == 0
            && self.spans.clean()
    }

    /// Deterministic text rendering — byte-identical across runs with
    /// the same seed.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let c = &self.counters;
        let ch = &self.chaos;
        let _ = writeln!(s, "chaos storm   seed={} shards={}", self.seed, self.shards);
        let _ = writeln!(
            s,
            "streams       planned={} completed={} restarts={} unfinished={}",
            self.planned, self.completed, self.restarts, self.unfinished
        );
        let _ = writeln!(
            s,
            "correctness   mismatches={} silent_losses={} dup_violations={} dups_suppressed={}",
            self.mismatches, self.losses_unaccounted, self.dup_violations, self.dups_suppressed
        );
        let _ = writeln!(
            s,
            "chaos         slowdowns={} corrupt={} truncate={} byzantine={} flaps={} adm_storms={}",
            ch.slowdowns,
            ch.transfers_corrupted,
            ch.transfers_truncated,
            ch.byzantine_lies,
            ch.fault_flaps,
            ch.admission_storms
        );
        let _ = writeln!(
            s,
            "healing       breaker_trips={} probes={} retries={} backoff_ticks={} vetoes={}",
            c.breaker_trips,
            c.probe_migrations,
            c.retry_attempts,
            c.retry_backoff_ticks,
            c.retire_vetoes
        );
        let _ = writeln!(
            s,
            "fleet         migrations={} rebalanced={} failovers={} upgraded={} skipped={} reopened={}",
            c.migrations,
            c.rebalance_moves,
            c.failovers,
            self.upgraded,
            self.upgrade_skipped,
            c.shards_reopened
        );
        let _ = writeln!(
            s,
            "background    faults_injected={} sweeps_stored={}",
            self.faults_injected, c.checkpoints_stored
        );
        render_tail(
            &mut s,
            &self.spans,
            &self.shard_lines,
            self.ticks_run,
            self.passed(),
        );
        s
    }
}

/// [`op_token`] tag of the migration a transfer fault forces through
/// the sabotaged channel.
pub(crate) const TAG_TRANSFER: u64 = 0;
/// [`op_token`] tag of the per-tick random live migration.
pub(crate) const TAG_MIGRATE: u64 = 1 << 63;
/// [`op_token`] tag of the crash campaign's in-doubt migration.
pub(crate) const TAG_IN_DOUBT: u64 = 0xD0B7;

/// The idempotency token of one campaign-issued migration: the seed,
/// the tick shifted clear of stream ids, the stream, and a per-call-site
/// `tag`. The tag is applied after the shift, so call sites issuing in
/// the same tick for the same stream never share a token.
pub(crate) fn op_token(seed: u64, tick: u64, gid: u64, tag: u64) -> OpToken {
    OpToken(mix64(seed ^ (tick << 20) ^ gid ^ tag))
}

/// The disturbance side the chaos and crash campaigns share: the seeded
/// scheduler, background and flap fabric noise, and tokenized
/// migrations with duplicate-delivery chaos.
pub(crate) struct ChaosRig {
    /// Per-shard fabric fault injection.
    pub(crate) noise: FabricNoise,
    /// The seeded disturbance drawer.
    pub(crate) scheduler: ChaosScheduler,
    seed: u64,
    fault_prob: f64,
    migrate_prob: f64,
    dup_prob: f64,
    /// Redeliveries correctly suppressed as duplicates.
    pub(crate) dups_suppressed: u64,
    /// Redeliveries that applied again (must stay zero).
    pub(crate) dup_violations: u64,
    /// Every tokenized migration that applied, as `(token, stream,
    /// target)`; after a recovery each must come back a duplicate.
    pub(crate) applied: Vec<(OpToken, u64, usize)>,
}

impl ChaosRig {
    /// Forks the per-shard injectors, then the scheduler's seed, from
    /// `rng`.
    pub(crate) fn new(
        base: &ClusterStormConfig,
        chaos: ChaosConfig,
        dup_prob: f64,
        rng: &mut SplitMix64,
    ) -> Self {
        let noise = FabricNoise::new(base.shards, rng);
        ChaosRig {
            noise,
            scheduler: ChaosScheduler::new(chaos, rng.fork().next_u64()),
            seed: base.seed,
            fault_prob: base.fault_prob,
            migrate_prob: base.migrate_prob,
            dup_prob,
            dups_suppressed: 0,
            dup_violations: 0,
            applied: Vec::new(),
        }
    }

    /// One main-phase tick of disturbance: applies this tick's drawn
    /// chaos events, then the background fabric noise. A storage fault
    /// is handed back — only a campaign that owns a disk can apply it.
    pub(crate) fn disturb(
        &mut self,
        cl: &mut Cluster,
        rng: &mut SplitMix64,
        tick: u64,
        traffic: &mut Traffic,
    ) -> Option<StorageChaos> {
        // Slowdowns target only shards placement currently trusts:
        // Active with a Closed breaker.
        let eligible: Vec<usize> = (0..cl.shard_count())
            .filter(|&i| {
                cl.shard_state(i) == Some(ShardState::Active)
                    && cl.breaker_state(i) == Some(BreakerState::Closed)
            })
            .collect();
        let mut storage = None;
        for event in self.scheduler.draw(&eligible, &cl.active_shards()) {
            match event {
                ChaosEvent::Slowdown { shard, ticks } => cl.chaos_slow_shard(shard, ticks),
                ChaosEvent::TransferFault(mode) => {
                    cl.chaos_arm_transfer(mode);
                    // Force a migration through the sabotaged channel
                    // right now: detach, digest mismatch, typed undo,
                    // tokenized retry.
                    if let Some((gid, target)) = pick_migration(cl, rng) {
                        let token = op_token(self.seed, tick, gid, TAG_TRANSFER);
                        self.migrate(cl, rng, token, gid, target);
                    }
                }
                ChaosEvent::ByzantineHealth { shard, ticks } => cl.chaos_lie_health(shard, ticks),
                ChaosEvent::FaultFlap { shard, burst } => {
                    for _ in 0..burst {
                        self.noise.inject(cl, shard);
                    }
                }
                ChaosEvent::AdmissionStorm { extra } => traffic.pull_forward(extra),
                ChaosEvent::StorageFault(kind) => storage = Some(kind),
            }
        }
        self.noise.background(cl, rng, self.fault_prob);
        storage
    }

    /// The per-tick random live migration under traffic, tokenized.
    pub(crate) fn random_migration(&mut self, cl: &mut Cluster, rng: &mut SplitMix64, tick: u64) {
        if rng.chance(self.migrate_prob) {
            if let Some((gid, target)) = pick_migration(cl, rng) {
                let token = op_token(self.seed, tick, gid, TAG_MIGRATE);
                self.migrate(cl, rng, token, gid, target);
            }
        }
    }

    /// A tokenized migration with optional duplicate redelivery; both
    /// deliveries carry the same token, so exactly one may apply.
    /// Refusals are typed and leave the stream where it was.
    fn migrate(
        &mut self,
        cl: &mut Cluster,
        rng: &mut SplitMix64,
        token: OpToken,
        gid: u64,
        target: usize,
    ) {
        if let Ok(OpApply::Applied) = cl.migrate_with_token(token, gid, target) {
            self.applied.push((token, gid, target));
            if rng.chance(self.dup_prob) {
                self.redeliver(cl, (token, gid, target));
            }
        }
    }

    /// Redelivers an applied operation, which must come back a
    /// duplicate.
    fn redeliver(&mut self, cl: &mut Cluster, (token, gid, target): (OpToken, u64, usize)) {
        match cl.migrate_with_token(token, gid, target) {
            Ok(OpApply::Duplicate) => self.dups_suppressed += 1,
            _ => self.dup_violations += 1,
        }
    }

    /// Redelivers every applied token; each must be suppressed.
    pub(crate) fn redeliver_applied(&mut self, cl: &mut Cluster) {
        let applied = std::mem::take(&mut self.applied);
        for &op in &applied {
            self.redeliver(cl, op);
        }
        self.applied = applied;
    }
}

/// Runs one chaos storm campaign.
///
/// # Errors
///
/// Propagates hosting and unexpected shard errors; everything chaos
/// can cause (refusals, corrupt transfers, typed losses, parked or
/// migrating streams) is handled and counted by the harness.
///
/// # Panics
///
/// Panics if the configuration hosts no personalities.
pub fn run_chaos_storm(cfg: &ChaosStormConfig) -> Result<ChaosStormReport, ClusterError> {
    let base = &cfg.storm;
    let mut rng = SplitMix64::new(base.seed);
    let mut rig = ChaosRig::new(base, cfg.chaos, cfg.dup_prob, &mut rng);
    let mut ccfg = base.cluster_config();
    ccfg.rebalance = cfg.rebalance;
    for (shard, admission) in &cfg.shard_admission {
        if let Some(spec) = ccfg.shards.get_mut(*shard) {
            spec.admission = *admission;
        }
    }
    let mut cl = Cluster::new(&ccfg);
    let names = host_personalities(&mut cl, base, None)?;
    let mut traffic = Traffic::new(base, &mut rng, &names);
    let mut upgrade: Option<RollingUpgrade> = None;
    let mut upgraded = 0u64;
    let mut upgrade_skipped = 0u64;
    let mut tick = 0u64;

    while traffic.unfinished() > 0 && tick < base.ticks + DRAIN_TICKS {
        tick += 1;
        let draining = tick > base.ticks;

        // Entering the recovery phase, capacity drained for
        // maintenance comes back: every shard parked in Down(Drained)
        // is reopened and rehosted so the backlog has somewhere to
        // land. Killed and health-retired shards stay down — their
        // streams already failed over.
        if tick == base.ticks + 1 {
            for shard in 0..cl.shard_count() {
                if cl.shard_state(shard) == Some(ShardState::Down(DownReason::Drained))
                    && cl.reopen_shard(shard).is_ok()
                {
                    host_personalities(&mut cl, base, Some(shard))?;
                }
            }
        }

        // The disturbance schedule runs through the main phase only:
        // the drain phase is chaos-free so the campaign converges and
        // the gates measure recovery, not an endless siege. The plain
        // chaos storm has no journal and `storage_prob` is zero, so no
        // storage fault comes back.
        if !draining {
            rig.disturb(&mut cl, &mut rng, tick, &mut traffic);
        }

        // Scripted lifecycle events and the rolling upgrade kickoff.
        // Unlike the plain storm these tolerate failure: the chaos
        // schedule may already have flapped the shard to death (the
        // auto-retire path) before the script gets to it.
        if base.drain_tick > 0 && tick == base.drain_tick {
            let _ = cl.drain_shard(base.drain_shard);
        }
        if base.kill_tick > 0 && tick == base.kill_tick {
            let _ = cl.kill_shard(base.kill_shard);
        }
        if cfg.upgrade_tick > 0 && tick == cfg.upgrade_tick {
            upgrade = Some(RollingUpgrade::new(cfg.upgrade_shards.clone()));
        }
        if let Some(up) = upgrade.as_mut() {
            match up.step(&mut cl) {
                UpgradeStatus::NeedsRehost(shard) => {
                    host_personalities(&mut cl, base, Some(shard))?;
                    upgraded += 1;
                }
                UpgradeStatus::Skipped(_) => upgrade_skipped += 1,
                UpgradeStatus::Draining(_) => {}
                UpgradeStatus::Done => upgrade = None,
            }
        }

        traffic.before_tick(&mut cl, &mut rng, tick, draining)?;
        rig.random_migration(&mut cl, &mut rng, tick);
        cl.tick();
        traffic.after_tick(&mut cl)?;
    }

    Ok(ChaosStormReport {
        seed: base.seed,
        shards: base.shards,
        planned: traffic.planned(),
        completed: traffic.completed,
        restarts: traffic.restarts,
        mismatches: traffic.mismatches,
        losses_unaccounted: traffic.losses_unaccounted(&cl),
        unfinished: traffic.unfinished(),
        dup_violations: rig.dup_violations,
        dups_suppressed: rig.dups_suppressed,
        chaos: rig.scheduler.counts(),
        faults_injected: rig.noise.injected,
        upgraded,
        upgrade_skipped,
        ticks_run: tick,
        counters: cl.counters(),
        shard_lines: shard_summaries(&cl),
        metrics: cl.metrics_merged(),
        spans: audit_spans(cl.trace()),
        tracer: cl.trace().clone(),
        trace_log: cl.trace().render(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_token_tags_never_collide() {
        // Ticks at and above 1 << 44 overflow `tick << 20`.
        const BIG: u64 = 1 << 44;
        let ticks = [0, 1, 2, 239, 1 << 20, BIG - 1, BIG, BIG + 1, u64::MAX];
        let gids = [0, 1, 2, 479, 1 << 20, u64::MAX];
        let tags = [TAG_TRANSFER, TAG_MIGRATE, TAG_IN_DOUBT];
        for &tick in &ticks {
            for &gid in &gids {
                let tokens: Vec<OpToken> = tags
                    .iter()
                    .map(|&tag| op_token(2008, tick, gid, tag))
                    .collect();
                for (i, a) in tokens.iter().enumerate() {
                    for b in &tokens[i + 1..] {
                        assert_ne!(a, b, "tick={tick:#x} gid={gid:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn transfer_chaos_mangles_only_the_wire_copy() {
        let bytes = vec![1u8, 2, 3, 4, 5, 6];
        let corrupted = TransferChaos::Corrupt.mangle(&bytes);
        assert_eq!(corrupted.len(), bytes.len());
        assert_ne!(corrupted, bytes);
        let truncated = TransferChaos::Truncate.mangle(&bytes);
        assert_eq!(truncated, vec![1u8, 2, 3]);
        assert_eq!(bytes, vec![1u8, 2, 3, 4, 5, 6], "pristine untouched");
    }

    #[test]
    fn scheduler_is_deterministic() {
        let mut a = ChaosScheduler::new(ChaosConfig::smoke(), 77);
        let mut b = ChaosScheduler::new(ChaosConfig::smoke(), 77);
        for _ in 0..200 {
            assert_eq!(
                a.draw(&[0, 1, 2], &[0, 1, 2]),
                b.draw(&[0, 1, 2], &[0, 1, 2])
            );
        }
        let quiet = ChaosScheduler::new(ChaosConfig::quiet(), 77).draw(&[0, 1], &[0, 1]);
        assert!(quiet.is_empty());
    }

    #[test]
    fn storage_chaos_never_perturbs_the_other_schedules() {
        let mut plain = ChaosScheduler::new(ChaosConfig::smoke(), 77);
        let mut with_storage = ChaosConfig::smoke();
        with_storage.storage_prob = 0.5;
        let mut stormy = ChaosScheduler::new(with_storage, 77);
        let mut saw_storage = false;
        for _ in 0..300 {
            let a = plain.draw(&[0, 1, 2], &[0, 1, 2]);
            let b = stormy.draw(&[0, 1, 2], &[0, 1, 2]);
            let b_rest: Vec<ChaosEvent> = b
                .iter()
                .copied()
                .filter(|e| !matches!(e, ChaosEvent::StorageFault(_)))
                .collect();
            saw_storage |= b_rest.len() != b.len();
            assert_eq!(a, b_rest, "non-storage schedule must be untouched");
        }
        assert!(saw_storage, "storage faults fired at p=0.5");
        let counts = stormy.counts();
        assert!(
            counts.storage_torn_tails
                + counts.storage_bit_rots
                + counts.storage_lost_suffixes
                + counts.storage_dup_appends
                > 0
        );
    }

    #[test]
    fn heterogeneous_chaos_storm_is_exact_and_deterministic() {
        let mut cfg = ChaosStormConfig::hetero(2008);
        cfg.storm.streams = 60;
        cfg.storm.ticks = 120;
        cfg.storm.drain_tick = 25;
        cfg.storm.kill_tick = 50;
        cfg.storm.crc_ms = vec![8];
        cfg.upgrade_tick = 60;
        cfg.upgrade_shards = vec![2];
        let a = run_chaos_storm(&cfg).unwrap();
        assert!(a.passed(), "hetero chaos storm must pass:\n{}", a.render());
        let b = run_chaos_storm(&cfg).unwrap();
        assert_eq!(a.render(), b.render(), "same seed, same campaign");
    }

    #[test]
    fn tiny_chaos_storm_is_exact_and_deterministic() {
        let mut cfg = ChaosStormConfig::smoke(2008);
        cfg.storm.streams = 60;
        cfg.storm.ticks = 120;
        cfg.storm.drain_tick = 25;
        cfg.storm.kill_tick = 50;
        cfg.storm.crc_ms = vec![8];
        cfg.upgrade_tick = 60;
        cfg.upgrade_shards = vec![2];
        let a = run_chaos_storm(&cfg).unwrap();
        assert!(a.passed(), "chaos storm must pass:\n{}", a.render());
        let b = run_chaos_storm(&cfg).unwrap();
        assert_eq!(a.render(), b.render(), "same seed, same campaign");
    }
}
