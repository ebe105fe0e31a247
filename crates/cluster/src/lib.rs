//! # cluster — sharded multi-fabric serving with migration and failover
//!
//! One DREAM fabric serves one device. A deployment serves a fleet:
//! several fabrics (shards), each running the full resilient serving
//! stack, behind one control plane that decides *where* every stream
//! lives — and keeps it alive when a shard drains or dies. This crate
//! is that control plane (DESIGN.md §11):
//!
//! * [`placement`] — deterministic rendezvous (highest-random-weight)
//!   hashing with an optional least-loaded spill. Removing a shard
//!   remaps only that shard's streams (a proptest pins this).
//! * [`health`] — per-shard health monitoring over
//!   [`resilience::FabricHealthSummary`]: a shard whose fabric is
//!   abandoned (every lane fallen back to software or suspect) for too
//!   many consecutive ticks is retired.
//! * [`cluster`] — [`cluster::Cluster`]: global stream identity, the
//!   route table, a periodic checkpoint sweep, and the three
//!   robustness flows — digest-verified **live migration**, fenced
//!   **shard drain**, and checkpoint-replay **whole-shard failover**
//!   with typed (never silent) stream loss.
//! * [`storm`] — the seeded cluster-wide stress harness behind the
//!   `cluster_storm` binary: multi-shard traffic with random live
//!   migrations, a mid-run forced kill and a planned drain, every
//!   digest checked against a software oracle. Its client-traffic
//!   engine also drives the chaos and crash campaigns.
//! * [`breaker`] — per-shard circuit breakers (Closed → Open →
//!   HalfOpen with hysteresis) fencing control-plane traffic to
//!   misbehaving shards; the pure transition function is mirrored by
//!   `analyze::BreakerParams` and proven identical by
//!   `tests/breaker_mirror.rs`.
//! * [`retry`] — bounded exponential retry with deterministic jitter,
//!   plus the idempotent operation tokens that make retries (and
//!   duplicate deliveries) unable to double-apply.
//! * [`rebalance`] — the load-driven automatic rebalancer: hottest →
//!   coldest token-fenced migrations on a fixed cadence.
//! * [`upgrade`] — rolling personality upgrades: drain → rehost →
//!   undrain, one shard at a time, under live traffic.
//! * [`chaos`] — the deterministic chaos harness behind the
//!   `chaos_storm` binary: seeded slowdowns, corrupted/truncated
//!   transfers, byzantine health probes, fault flaps, admission
//!   storms and typed storage faults against the self-healing control
//!   loop (DESIGN.md §12).
//! * [`crash`] — the crash storm behind the `crash_storm` binary:
//!   the control plane journals every decision to a write-ahead log
//!   ([`wal`]), seeded whole-cluster power losses drop everything but
//!   the (hostile) disk, and recovery replays the journal back into a
//!   serving cluster with zero digest mismatches, zero silent losses
//!   and zero double-applied tokens (DESIGN.md §13).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod chaos;
pub mod cluster;
pub mod crash;
pub mod health;
pub mod placement;
pub mod rebalance;
pub mod retry;
pub mod storm;
pub mod upgrade;

pub use breaker::{
    BreakerConfig, BreakerInput, BreakerState, CircuitBreaker, RANK_CLOSED, RANK_HALF_OPEN,
    RANK_OPEN,
};
pub use chaos::{
    run_chaos_storm, ChaosConfig, ChaosCounts, ChaosEvent, ChaosScheduler, ChaosStormConfig,
    ChaosStormReport, StorageChaos, TransferChaos,
};
pub use cluster::{
    transfer_digest, Cluster, ClusterConfig, ClusterCounters, ClusterError, DownReason,
    FailoverResume, LossReason, RecoveryReport, ShardSpec, ShardState, StreamLoss,
};
pub use crash::{run_crash_storm, CrashStormConfig, CrashStormReport};
pub use health::{HealthPolicy, HealthVerdict, ShardHealthMonitor};
pub use placement::{mix64, shard_seed, PlacementPolicy, ShardView};
pub use rebalance::{plan_moves, RebalancePolicy};
pub use retry::{OpApply, OpToken, RetryPolicy};
pub use storm::{
    audit_spans, run_cluster_storm, ClusterStormConfig, ClusterStormReport, SpanAudit,
};
pub use upgrade::{RollingUpgrade, UpgradeStatus};
