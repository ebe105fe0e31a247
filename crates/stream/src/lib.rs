//! # stream — fault-tolerant multi-stream serving on the DREAM fabric
//!
//! The paper's applications are one-shot: a message goes in, a CRC or a
//! scrambled frame comes out. A deployed device serves differently:
//! thousands of logical streams interleave on one fabric, chunks arrive
//! in arbitrary sizes at arbitrary times, load spikes, and — per the
//! resilience layer — the fabric underneath can break mid-stream. This
//! crate is the serving layer that keeps every stream correct anyway
//! (DESIGN.md §8):
//!
//! * [`session`] — per-stream bookkeeping: an LFSR state in either the
//!   fabric's transformed (`T`-domain) space or the software kernel's
//!   plain space, residual-bit staging between the byte-oriented client
//!   interface and the fabric's M-bit block granularity, and a bounded
//!   chunk queue.
//! * [`checkpoint`] — serializable snapshots of live sessions. The
//!   state travels in the domain it lives in, stamped with the Derby
//!   transform digest so a snapshot can only rehydrate onto a lane
//!   whose transform matches (re-synthesis preserves the transform, so
//!   repaired and replacement lanes both qualify); a version- and
//!   CRC-guarded binary envelope rejects corrupt bytes.
//! * [`admission`] — token-bucket admission, bounded per-stream and
//!   global queues, and a typed overload ladder (reject new work →
//!   degrade low-priority streams to software → checkpoint-and-park
//!   idle streams) with hysteresis so the service doesn't flap.
//! * [`pump`] — the pump scheduling policy behind the
//!   [`pump::BatchScheduler`] trait (EDF by default), extracted so
//!   every shard of a multi-fabric cluster shares one pump
//!   implementation.
//! * [`service`] — [`service::StreamService`]: the deadline-aware pump
//!   that drains queues through the fabric in transactional batches.
//!   Every batch is guarded by a scrub + probe; on detection the batch
//!   rolls back to its pre-batch states, the recovery ladder runs, and
//!   the batch re-runs wherever [`resilience::MigrationAdvice`] says —
//!   which is what keeps delivered digests exact under fault injection.
//! * [`storm`] — the seeded, deterministic stress harness behind the
//!   bench `report` binary's `BENCH_storm.json`: interleaved multi-client traffic, fault
//!   injection and a forced overload window, with every completed
//!   stream checked against a software oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod checkpoint;
pub mod pump;
pub mod service;
pub mod session;
pub mod storm;

pub use admission::{AdmissionConfig, OverloadLevel, ServiceCounters, TokenBucket};
pub use checkpoint::{CheckpointError, RestoreDisposition, StreamCheckpoint};
pub use pump::{BatchScheduler, EdfScheduler, PumpCandidate};
pub use service::{ServiceError, StreamOutput, StreamProgress, StreamService};
pub use session::{Priority, StreamKind};
pub use storm::{run_storm, StormConfig, StormReport};
