//! `cluster_crash`: a four-shard cluster journaling every control-plane
//! decision to a write-ahead log, serving short streams through
//! migrations, a drain, a shard kill and whole-cluster power losses.
//!
//! It is the only workload that writes (a journal frame per decision,
//! hashed on the fabric lane) beside reads (replay on recovery), so WAL
//! append and replay dominate here and appear nowhere else.

use crate::pass::{elapsed_ns, Pass};
use crate::plan::{self, Client, Plan, SCRAMBLER};
use crate::spans::Spans;
use picolfsr::cluster::{Cluster, ClusterConfig, ClusterError};
use picolfsr::flow::FlowOptions;
use picolfsr::lfsr::crc::CrcSpec;
use picolfsr::lfsr::scramble::ScramblerSpec;
use picolfsr::resilience::SplitMix64;
use picolfsr::stream::{AdmissionConfig, ServiceError};
use picolfsr::wal::{CrashKind, FabricHasher, Journal, SharedDisk};
use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

/// Streams per pass.
pub const STREAMS: usize = 1000;

const SHARDS: usize = 4;
/// CRC-32/Ethernet lane widths hosted beside the scrambler lane.
const CRC_MS: [usize; 2] = [8, 32];
const LANES: [&str; 3] = ["eth8", "eth32", SCRAMBLER];
/// Shard drained a third of the way through the arrivals.
const DRAIN_SHARD: usize = 1;
/// Shard killed half way through the arrivals.
const KILL_SHARD: usize = 0;
/// Ticks between the client's migrations of a random stream.
const MIGRATE_EVERY: u64 = 4;
/// Power losses per pass.
const CRASHES: usize = 3;
/// Ticks allowed after the last arrival for every stream to finish.
const DRAIN_TICKS: u64 = 2000;

/// One scheduled power loss.
#[derive(Debug, Clone, Copy)]
struct Crash {
    /// Fires once this many streams have completed.
    after_completed: u64,
    /// Persist the unflushed suffix up to this share (per mille) as a
    /// torn write; `None` loses the whole suffix.
    torn_permille: Option<usize>,
}

/// A pass's streams and operator schedule, generated from the seed.
#[derive(Debug)]
pub struct Input {
    plans: Vec<Plan>,
    crashes: Vec<Crash>,
    drain_tick: u64,
    kill_tick: u64,
    client_seed: u64,
}

impl Input {
    /// `n` short streams arriving one per tick, a drain and a kill, and
    /// the power losses, which strike at evenly spaced completion counts,
    /// alternately tearing the unflushed suffix at a seeded point and
    /// losing all of it.
    pub fn generate(seed: u64, n: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let client_seed = rng.next_u64();
        let arrivals: Vec<u64> = (1..=n as u64).collect();
        let plans = plan::generate(&mut rng, &LANES, &[1, 2, 3, 4], 32, &arrivals);
        // Evenly spaced, jittered by up to 5 % of the streams either
        // way: the seed moves each loss without letting one seed pile
        // them all at the end of a long journal.
        let jitter = (n / 20).max(1);
        let crashes = (1..=CRASHES)
            .map(|i| Crash {
                after_completed: (n * i / (CRASHES + 1) + rng.below(2 * jitter + 1))
                    .saturating_sub(jitter)
                    .max(1) as u64,
                torn_permille: (i % 2 == 1).then(|| rng.below(1000)),
            })
            .collect();
        Input {
            plans,
            crashes,
            drain_tick: (n as u64 / 3).max(1),
            kill_tick: (n as u64 / 2).max(2),
            client_seed,
        }
    }

    /// Corrupts one expected output (the gate's self-test).
    #[cfg(test)]
    pub fn flip_expected(&mut self, index: usize) {
        self.plans[index].expected.flip();
    }

    /// Builds a fresh cluster and journal, then serves every planned
    /// stream through the scripted drain, kill and power losses.
    #[allow(clippy::too_many_lines)]
    pub fn pass(&self, spans: &mut Spans) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let cfg = config();
        let disk = SharedDisk::new();
        let mut cl = setup(&cfg, &disk, spans)?;
        pass.setup_ns = elapsed_ns(t0);

        let mut rng = SplitMix64::new(self.client_seed);
        let mut next_plan = 0usize;
        let mut due: VecDeque<usize> = VecDeque::new();
        let mut clients: Vec<Client> = Vec::new();
        let mut lost: BTreeSet<u64> = BTreeSet::new();
        let mut finished = vec![false; self.plans.len()];
        let mut completed = 0u64;
        let mut next_crash = 0usize;
        let last_arrival = self.plans.last().map_or(0, |p| p.arrive_tick);
        let mut tick = 0u64;

        while completed < self.plans.len() as u64 && tick < last_arrival + DRAIN_TICKS {
            let segment = Instant::now();
            tick += 1;

            while next_plan < self.plans.len() && self.plans[next_plan].arrive_tick <= tick {
                due.push_back(next_plan);
                next_plan += 1;
            }
            while let Some(&pi) = due.front() {
                let plan = &self.plans[pi];
                pass.count("bench.cluster_open_attempts", 1);
                let opened = spans.call("cluster.open", pi as u64, || match plan.seed {
                    None => cl.open_crc(plan.lane, plan.priority, plan.deadline_in),
                    Some(seed) => {
                        cl.open_scrambler(plan.lane, seed, plan.priority, plan.deadline_in)
                    }
                });
                match opened {
                    Ok(gid) => {
                        pass.count("bench.cluster_open_accepts", 1);
                        due.pop_front();
                        clients.push(Client::new(pi, gid));
                    }
                    Err(ClusterError::NoEligibleShard) => break,
                    Err(e) => return Err(format!("open stream {pi}: {e}")),
                }
            }

            let mut k = 0;
            while k < clients.len() {
                let c = &mut clients[k];
                let Some(chunk) = c.next_chunk(&self.plans[c.plan]) else {
                    k += 1;
                    continue;
                };
                let gid = c.id;
                pass.count("bench.cluster_feed_attempts", 1);
                match spans.call("cluster.feed", gid, || cl.feed(gid, chunk)) {
                    Ok(()) => {
                        pass.count("bench.cluster_feed_accepts", 1);
                        c.next_cut += 1;
                    }
                    Err(
                        ClusterError::Shard(
                            ServiceError::StreamQueueFull { .. }
                            | ServiceError::GlobalQueueFull { .. },
                        )
                        | ClusterError::StreamLost { .. }
                        | ClusterError::ShardDown(_),
                    ) => {}
                    Err(ClusterError::Shard(ServiceError::StreamParked(_))) => c.parked = true,
                    Err(e) => {
                        let c = clients.swap_remove(k);
                        pass.attempted += 1;
                        pass.fail(format!("stream {}: feed: {e}", c.plan));
                        finished[c.plan] = true;
                        completed += 1;
                        continue;
                    }
                }
                k += 1;
            }

            if tick.is_multiple_of(MIGRATE_EVERY) {
                let routed = cl.route_ids();
                let targets = cl.active_shards();
                if !routed.is_empty() && !targets.is_empty() {
                    let gid = routed[rng.below(routed.len())];
                    let target = targets[rng.below(targets.len())];
                    pass.count("bench.migrate_attempts", 1);
                    if spans
                        .call("cluster.migrate", gid, || cl.migrate(gid, target))
                        .is_ok()
                    {
                        pass.count("bench.migrate_applied", 1);
                    }
                }
            }
            if tick == self.drain_tick {
                spans
                    .call("cluster.drain", DRAIN_SHARD as u64, || {
                        cl.drain_shard(DRAIN_SHARD)
                    })
                    .map_err(|e| format!("drain shard {DRAIN_SHARD}: {e}"))?;
            }
            if tick == self.kill_tick {
                spans
                    .call("cluster.kill", KILL_SHARD as u64, || {
                        cl.kill_shard(KILL_SHARD)
                    })
                    .map_err(|e| format!("kill shard {KILL_SHARD}: {e}"))?;
            }

            let step = Instant::now();
            spans.call("cluster.tick", tick, || cl.tick());
            pass.steps_ns.push(elapsed_ns(step));

            reconcile(
                &mut cl,
                &mut clients,
                &self.plans,
                &mut lost,
                &mut due,
                spans,
                &mut pass,
            );

            for c in &mut clients {
                if c.parked {
                    let gid = c.id;
                    if spans
                        .call("cluster.resume", gid, || cl.resume(gid))
                        .is_err()
                    {
                        continue;
                    }
                    c.parked = false;
                }
                if self.plans[c.plan].seed.is_some() {
                    let gid = c.id;
                    if let Ok(bits) = spans.call("cluster.collect", gid, || cl.collect(gid)) {
                        c.collected = c.collected.concat(&bits);
                    }
                }
            }

            let mut k = 0;
            while k < clients.len() {
                let c = &clients[k];
                if !c.ready(&self.plans[c.plan]) {
                    k += 1;
                    continue;
                }
                let gid = c.id;
                match spans.call("cluster.finish", gid, || cl.finish(gid)) {
                    Ok(out) => {
                        let c = clients.swap_remove(k);
                        c.check(&self.plans[c.plan], out, &mut pass);
                        finished[c.plan] = true;
                        completed += 1;
                    }
                    Err(ClusterError::Shard(ServiceError::StreamParked(_))) => {
                        clients[k].parked = true;
                        k += 1;
                    }
                    Err(ClusterError::StreamLost { .. } | ClusterError::ShardDown(_)) => k += 1,
                    Err(e) => {
                        let c = clients.swap_remove(k);
                        pass.attempted += 1;
                        pass.fail(format!("stream {}: finish: {e}", c.plan));
                        finished[c.plan] = true;
                        completed += 1;
                    }
                }
            }

            if let Some(crash) = self.crashes.get(next_crash) {
                if completed >= crash.after_completed {
                    next_crash += 1;
                    absorb_incarnation(&cl, &mut pass);
                    let kind = match crash.torn_permille {
                        Some(p) => CrashKind::Torn {
                            keep: disk.pending_len() * p / 1000,
                        },
                        None => CrashKind::LostSuffix,
                    };
                    let open = spans.begin("bench.crash", next_crash as u64);
                    let t = Instant::now();
                    drop(cl);
                    disk.crash(kind);
                    let hasher = spans
                        .call("flow.build", 8, FabricHasher::new)
                        .map_err(|e| format!("journal hasher: {e}"))?;
                    let (journal, replay) = spans.call("wal.recover", 0, || {
                        Journal::recover(Box::new(disk.clone()), Box::new(hasher))
                    });
                    let (recovered, report) = spans.call("cluster.recover", 0, || {
                        Cluster::recover(&cfg, journal, &replay)
                    });
                    cl = recovered;
                    pass.recover_ns.push(elapsed_ns(t));
                    spans.end(open);
                    pass.count("bench.wal_frames_replayed", replay.frames_ok);
                    pass.count("bench.streams_restored", report.streams_restored);
                    pass.count("bench.streams_lost", report.streams_lost);
                    reconcile(
                        &mut cl,
                        &mut clients,
                        &self.plans,
                        &mut lost,
                        &mut due,
                        spans,
                        &mut pass,
                    );
                }
            }
            pass.segments_ns.push(elapsed_ns(segment));
        }

        for (i, _) in finished.iter().enumerate().filter(|(_, f)| !**f) {
            pass.attempted += 1;
            pass.fail(format!("stream {i}: unfinished after the drain"));
        }
        absorb_incarnation(&cl, &mut pass);
        Ok(pass)
    }
}

/// Four shards under the cluster storm's admission budget, sweeping
/// checkpoints every three ticks.
fn config() -> ClusterConfig {
    let mut cfg = ClusterConfig::homogeneous(
        SHARDS,
        AdmissionConfig {
            max_streams: 96,
            global_queue_bytes: 4096,
            bucket_capacity: 32,
            bucket_refill: 12,
            pump_budget_chunks: 12,
            ..AdmissionConfig::default()
        },
    );
    cfg.checkpoint_interval = 3;
    cfg
}

/// The stack: the cluster with a journal on a fresh shared disk, hashed
/// by the default fabric lane, and every lane hosted on every shard.
fn setup(cfg: &ClusterConfig, disk: &SharedDisk, spans: &mut Spans) -> Result<Cluster, String> {
    let hasher = spans
        .call("flow.build", 8, FabricHasher::new)
        .map_err(|e| format!("journal hasher: {e}"))?;
    let mut cl = Cluster::new(cfg);
    cl.attach_journal(Journal::new(Box::new(disk.clone()), Box::new(hasher)));
    let eth = CrcSpec::crc32_ethernet();
    for m in CRC_MS {
        spans
            .call("flow.build", m as u64, || {
                cl.host_crc(&format!("eth{m}"), eth, FlowOptions::dream_with_m(m))
            })
            .map_err(|e| format!("hosting eth{m}: {e}"))?;
    }
    spans
        .call("flow.build", 16, || {
            cl.host_scrambler(
                SCRAMBLER,
                ScramblerSpec::ieee80211(),
                &FlowOptions::dream_with_m(16),
            )
        })
        .map_err(|e| format!("hosting {SCRAMBLER}: {e}"))?;
    Ok(cl)
}

/// Brings the client in line with what the cluster replayed or lost.
/// A stream replayed from a checkpoint is rewound: re-fed from the
/// resume offset, with scrambled output past what the checkpoint had
/// delivered dropped. A stream a power loss brought back after the
/// client had taken its output (the finish was not yet durable) is
/// finished again and its output discarded. A stream declared lost is
/// restarted as a new stream.
fn reconcile(
    cl: &mut Cluster,
    clients: &mut Vec<Client>,
    plans: &[Plan],
    lost: &mut BTreeSet<u64>,
    due: &mut VecDeque<usize>,
    spans: &mut Spans,
    pass: &mut Pass,
) {
    for resume in cl.take_failover_resumes() {
        let Some(c) = clients.iter_mut().find(|c| c.id == resume.id) else {
            let gid = resume.id;
            if spans.call("cluster.finish", gid, || cl.finish(gid)).is_ok() {
                pass.count("bench.resurrected_finished", 1);
            }
            continue;
        };
        c.next_cut = plans[c.plan].chunks_through(resume.resume_from);
        c.parked = false;
        let keep = usize::try_from(resume.delivered_bits).unwrap_or(usize::MAX);
        if c.collected.len() > keep {
            c.collected = c.collected.slice(0, keep);
        }
    }
    for loss in cl.losses() {
        if !lost.insert(loss.id) {
            continue;
        }
        if let Some(pos) = clients.iter().position(|c| c.id == loss.id) {
            due.push_back(clients.swap_remove(pos).plan);
            pass.count("bench.restarts", 1);
        }
    }
}

/// Adds one cluster incarnation's registries, tracers and journal
/// statistics to the pass (a power loss discards them).
fn absorb_incarnation(cl: &Cluster, pass: &mut Pass) {
    pass.absorb(&cl.metrics_merged());
    pass.absorb_tracer(cl.trace());
    for shard in 0..cl.shard_count() {
        if let Some(svc) = cl.shard_service(shard) {
            pass.absorb_tracer(&svc.obs().tracer);
        }
    }
    if let Some(j) = cl.journal() {
        let s = j.stats();
        pass.count("bench.wal_frames", s.frames);
        pass.count("bench.wal_bytes", s.bytes);
        pass.count("bench.wal_flushes", s.flushes);
        pass.count(
            "bench.wal_hasher_software_frames",
            j.hasher_stats().software_frames,
        );
    }
}
