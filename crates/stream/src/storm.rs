//! Seeded multi-client stress harness ("stream storm").
//!
//! One deterministic simulation interleaves everything the serving
//! layer must survive at once: staggered stream arrivals across several
//! personalities, arbitrary chunk sizes, a forced overload window of
//! spiking arrivals, random fabric fault injection (SEU wire flips and
//! physical stuck cells), parking and resuming, and a final drain. Every
//! completed stream's digest is compared against a pure-software oracle
//! — the campaign passes only when **zero** streams mismatch.
//!
//! All randomness flows from one [`SplitMix64`] seeded by the config,
//! and every service structure iterates deterministically, so two runs
//! with the same seed render byte-identical reports (CI asserts this).

use crate::admission::{AdmissionConfig, ServiceCounters};
use crate::service::{ServiceError, StreamOutput, StreamService};
use crate::session::Priority;
use dream::ControlModel;
use dream_lfsr::FlowOptions;
use gf2::BitVec;
use lfsr::crc::{crc_bitwise, CrcSpec};
use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};
use picoga::PicogaParams;
use resilience::rng::SplitMix64;
use resilience::{FaultInjector, RecoveryPolicy, ResilientSystem};
use std::fmt::Write as _;

/// Shape of one storm campaign.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Logical streams planned (arrivals stop when exhausted).
    pub streams: usize,
    /// Ticks of the main phase (a bounded drain phase follows).
    pub ticks: u64,
    /// Chunk sizes drawn uniformly from this inclusive range (bytes).
    pub chunk_bytes: (usize, usize),
    /// Chunks per stream drawn uniformly from this inclusive range.
    pub chunks_per_stream: (usize, usize),
    /// Per-tick probability of injecting a fabric fault.
    pub fault_prob: f64,
    /// Tick window `[start, end)` with spiking arrivals.
    pub overload_window: (u64, u64),
    /// New streams offered per tick outside the window.
    pub base_arrivals: usize,
    /// New streams offered per tick inside the window.
    pub spike_arrivals: usize,
    /// Look-ahead factors for the hosted CRC-32 personalities.
    pub crc_ms: Vec<usize>,
    /// Look-ahead factor for the hosted 802.11 scrambler personality.
    pub scrambler_m: usize,
    /// Admission and ladder configuration for the service.
    pub admission: AdmissionConfig,
    /// Pass/fail bound on the p99 of the sampled global queue depth.
    pub max_p99_queue_depth: usize,
}

impl StormConfig {
    /// The CI smoke campaign: 1,600 streams over three CRC lanes and a
    /// scrambler lane, with fault injection and an overload window.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        StormConfig {
            seed,
            streams: 1600,
            ticks: 400,
            chunk_bytes: (5, 48),
            chunks_per_stream: (1, 3),
            fault_prob: 0.04,
            overload_window: (100, 160),
            base_arrivals: 4,
            spike_arrivals: 40,
            crc_ms: vec![8, 32, 128],
            scrambler_m: 16,
            admission: AdmissionConfig {
                max_streams: 192,
                global_queue_bytes: 1024,
                bucket_capacity: 64,
                bucket_refill: 24,
                pump_budget_chunks: 10,
                ..AdmissionConfig::default()
            },
            max_p99_queue_depth: 512,
        }
    }

    /// The full campaign: 4,000 streams over four CRC lanes and a
    /// scrambler lane, a longer overload window, and a higher fault
    /// rate.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        StormConfig {
            streams: 4000,
            ticks: 1000,
            fault_prob: 0.05,
            overload_window: (200, 320),
            spike_arrivals: 48,
            crc_ms: vec![8, 32, 64, 128],
            ..Self::smoke(seed)
        }
    }
}

/// What one campaign did and found.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Streams planned.
    pub planned: u64,
    /// Streams completed with a delivered digest.
    pub completed: u64,
    /// Streams shed at admission (never opened).
    pub shed: u64,
    /// Streams still unfinished when the drain budget ran out (must be
    /// zero for a pass).
    pub unfinished: u64,
    /// Completed streams whose digest differed from the software oracle
    /// (must be zero, always).
    pub mismatches: u64,
    /// Faults injected into the fabric.
    pub faults_injected: u64,
    /// Ticks actually simulated (main phase + drain).
    pub ticks_run: u64,
    /// p99 of the per-tick global queue depth samples (chunks).
    pub p99_queue_depth: usize,
    /// Maximum observed global queue depth (chunks).
    pub max_queue_depth: usize,
    /// Bound the campaign was graded against.
    pub max_p99_queue_depth: usize,
    /// The service's cumulative decision counters.
    pub counters: ServiceCounters,
    /// Snapshot of the full metrics registry at campaign end
    /// (exports are byte-identical across same-seed runs).
    pub metrics: obs::MetricsSnapshot,
    /// Every metric name registered by the stack during the campaign
    /// (for schema checks against exported reports).
    pub metric_names: Vec<String>,
    /// Rendered event trace at campaign end (byte-identical across
    /// same-seed runs; bounded by the tracer's ring capacity).
    pub trace_log: String,
}

impl StormReport {
    /// Zero mismatches, nothing stranded, and bounded queue depth.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.mismatches == 0
            && self.unfinished == 0
            && self.p99_queue_depth <= self.max_p99_queue_depth
    }

    /// Deterministic text rendering — byte-identical across runs with
    /// the same seed (CI compares two runs with `cmp`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let c = &self.counters;
        let _ = writeln!(s, "stream storm  seed={}", self.seed);
        let _ = writeln!(
            s,
            "streams       planned={} completed={} shed={} unfinished={}",
            self.planned, self.completed, self.shed, self.unfinished
        );
        let _ = writeln!(
            s,
            "correctness   mismatches={} faults_injected={}",
            self.mismatches, self.faults_injected
        );
        let _ = writeln!(
            s,
            "queue         p99={} max={} bound={}",
            self.p99_queue_depth, self.max_queue_depth, self.max_p99_queue_depth
        );
        let _ = writeln!(
            s,
            "admission     opened={} rej_bucket={} rej_overload={} rej_capacity={}",
            c.opened, c.rejected_admission, c.rejected_overload, c.rejected_capacity
        );
        let _ = writeln!(
            s,
            "backpressure  rej_stream_queue={} rej_global_queue={}",
            c.rejected_queue_full, c.rejected_global_full
        );
        let _ = writeln!(
            s,
            "ladder        degraded_low={} parked_idle={} parked_fault={} resumed={} transitions={}",
            c.degraded_low_priority, c.parked_idle, c.parked_fault, c.resumed, c.level_transitions
        );
        let _ = writeln!(
            s,
            "recovery      rollbacks={} reruns={} migrated_to_software={}",
            c.fault_rollbacks, c.batch_reruns, c.migrated_to_software
        );
        let _ = writeln!(
            s,
            "snapshots     checkpoints={} restores={}",
            c.checkpoints, c.restores
        );
        let _ = writeln!(
            s,
            "throughput    chunks={} ticks={} completed_streams={}",
            c.chunks_processed, self.ticks_run, c.completed
        );
        let _ = writeln!(
            s,
            "verdict       {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        s
    }
}

/// One planned logical stream.
#[derive(Debug)]
pub struct Plan {
    /// The hosted personality it opens on.
    pub personality: String,
    /// CRC-32 digest (`true`) or 802.11 scrambler (`false`).
    pub is_crc: bool,
    /// Scrambler seed.
    pub seed: u64,
    /// Admission priority.
    pub priority: Priority,
    /// The whole payload.
    pub data: Vec<u8>,
    /// Chunk boundaries (prefix sums, last == data.len()).
    pub cuts: Vec<usize>,
    /// First tick the stream is offered.
    pub arrive_tick: u64,
}

impl Plan {
    /// The payload bytes of chunk `i`.
    #[must_use]
    pub fn chunk(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.cuts[i - 1] };
        &self.data[start..self.cuts[i]]
    }
}

/// Live client-side bookkeeping for an opened stream.
#[derive(Debug)]
pub struct Client {
    /// Index of its plan.
    pub plan: usize,
    /// The stream id the server handed out.
    pub id: u64,
    /// The next chunk to offer.
    pub next_cut: usize,
    /// Every chunk has been accepted.
    pub fed_all: bool,
    /// The server parked the stream; it must be resumed first.
    pub parked: bool,
    /// Scrambler output collected so far.
    pub collected: BitVec,
}

impl Client {
    /// A fresh client of plan `plan` on stream `id`.
    #[must_use]
    pub fn new(plan: usize, id: u64) -> Self {
        Client {
            plan,
            id,
            next_cut: 0,
            fed_all: false,
            parked: false,
            collected: BitVec::zeros(0),
        }
    }

    /// Moves the feed position to chunk `cut` of `plan`.
    pub fn seek(&mut self, plan: &Plan, cut: usize) {
        self.next_cut = cut;
        self.fed_all = cut == plan.cuts.len();
    }
}

/// Draws `cfg.streams` plans from `rng`, each on a personality picked
/// from `names` (`(name, is_crc)`). Arrival ticks start at 1 and fill
/// `base_arrivals` (inside the overload window `spike_arrivals`) slots
/// per tick; each count is at least one. Only the traffic-shape fields
/// (`streams`, `chunk_bytes`, `chunks_per_stream`, `overload_window`,
/// `base_arrivals`, `spike_arrivals`) are read.
#[must_use]
pub fn gen_plans(cfg: &StormConfig, rng: &mut SplitMix64, names: &[(String, bool)]) -> Vec<Plan> {
    let arrivals_at = |tick: u64| {
        let in_window = tick >= cfg.overload_window.0 && tick < cfg.overload_window.1;
        if in_window {
            cfg.spike_arrivals.max(1)
        } else {
            cfg.base_arrivals.max(1)
        }
    };
    let mut tick = 1u64;
    let mut slots_left = arrivals_at(tick);
    let mut plans = Vec::with_capacity(cfg.streams);
    for _ in 0..cfg.streams {
        while slots_left == 0 {
            tick += 1;
            slots_left = arrivals_at(tick);
        }
        slots_left -= 1;
        let (name, is_crc) = names[rng.below(names.len())].clone();
        let n_chunks = cfg.chunks_per_stream.0
            + rng.below(cfg.chunks_per_stream.1 - cfg.chunks_per_stream.0 + 1);
        let mut data = Vec::new();
        let mut cuts = Vec::new();
        for _ in 0..n_chunks {
            let len = cfg.chunk_bytes.0 + rng.below(cfg.chunk_bytes.1 - cfg.chunk_bytes.0 + 1);
            for _ in 0..len {
                data.push((rng.next_u64() & 0xFF) as u8);
            }
            cuts.push(data.len());
        }
        plans.push(Plan {
            personality: name,
            is_crc,
            seed: rng.next_u64() & 0x7F, // within any scrambler register
            priority: if rng.chance(0.3) {
                Priority::High
            } else {
                Priority::Low
            },
            data,
            cuts,
            arrive_tick: tick,
        });
    }
    plans
}

/// Corrupts one resident fabric context of `service`: usually a wire
/// flip (an SEU), occasionally a physical stuck cell. Returns whether a
/// fault actually landed.
pub fn inject_random_fault(service: &mut StreamService, inj: &mut FaultInjector) -> bool {
    let stuck = inj.rng().chance(0.15);
    let resident: Vec<usize> = (0..16)
        .filter(|&slot| service.system().system().fabric().context(slot).is_some())
        .collect();
    if resident.is_empty() {
        return false;
    }
    let slot = resident[inj.rng().below(resident.len())];
    let op = service
        .system()
        .system()
        .fabric()
        .context(slot)
        .expect("listed above")
        .clone();
    let fault = if stuck {
        inj.random_stuck_cell(&op)
    } else {
        inj.random_wire_flip(slot, &op)
    };
    fault.is_some_and(|fault| {
        service
            .system_mut()
            .system_mut()
            .fabric_mut()
            .inject(&fault)
            .is_ok()
    })
}

/// Checks a finished stream against the pure-software oracle: the
/// bitwise CRC-32 of the whole payload, or the reference 802.11
/// scrambling of it (`collected` output plus the final tail).
#[must_use]
pub fn oracle_matches(plan: &Plan, collected: &BitVec, out: &StreamOutput) -> bool {
    if plan.is_crc {
        let spec = CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry");
        match out {
            StreamOutput::Crc(got) => *got == crc_bitwise(spec, &plan.data),
            StreamOutput::Scrambled(_) => false,
        }
    } else {
        let spec = ScramblerSpec::ieee80211();
        let mut reference = AdditiveScrambler::with_seed(spec, plan.seed).expect("valid seed");
        let frame = BitVec::from_le_bytes(&plan.data, plan.data.len() * 8);
        let expected = reference.scramble(&frame);
        match out {
            StreamOutput::Scrambled(tail) => collected.concat(tail) == expected,
            StreamOutput::Crc(_) => false,
        }
    }
}

/// Runs one storm campaign.
///
/// # Errors
///
/// Propagates hosting, system and recovery errors; admission refusals
/// and queue backpressure are handled (and counted) internally.
///
/// # Panics
///
/// Panics if the configuration hosts no personalities
/// (`crc_ms` empty and no scrambler).
pub fn run_storm(cfg: &StormConfig) -> Result<StormReport, ServiceError> {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut inj = FaultInjector::new(rng.fork().next_u64());

    let rs = ResilientSystem::new(
        PicogaParams::dream(),
        ControlModel::default(),
        RecoveryPolicy::stream_serving(),
    );
    let mut service = StreamService::new(rs, cfg.admission);
    let eth = *CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry");
    let mut names: Vec<(String, bool)> = Vec::new();
    for &m in &cfg.crc_ms {
        let name = format!("eth{m}");
        service.host_crc(&name, &eth, FlowOptions::dream_with_m(m))?;
        names.push((name, true));
    }
    if cfg.scrambler_m > 0 {
        let name = format!("wifi{}", cfg.scrambler_m);
        service.host_scrambler(
            &name,
            ScramblerSpec::ieee80211(),
            &FlowOptions::dream_with_m(cfg.scrambler_m),
        )?;
        names.push((name, false));
    }
    assert!(!names.is_empty(), "storm needs at least one personality");

    let plans = gen_plans(cfg, &mut rng, &names);
    let mut next_plan = 0usize;
    let mut clients: Vec<Client> = Vec::new();
    // Clients in this harness back off and retry rather than abandon,
    // so nothing is permanently shed; the report keeps the column for
    // harnesses that do give up.
    let shed = 0u64;
    let mut completed = 0u64;
    let mut mismatches = 0u64;
    let mut faults_injected = 0u64;
    let mut tick = 0u64;
    let drain_budget = cfg.ticks + 2000;

    while (completed + shed) < plans.len() as u64 && tick < drain_budget {
        tick += 1;
        let draining = tick > cfg.ticks;

        if rng.chance(cfg.fault_prob) && inject_random_fault(&mut service, &mut inj) {
            faults_injected += 1;
        }

        // Arrivals planned for this tick (all overdue ones during
        // drain).
        while next_plan < plans.len() && (plans[next_plan].arrive_tick <= tick || draining) {
            let plan = &plans[next_plan];
            let opened = if plan.is_crc {
                service.open_crc(&plan.personality, plan.priority, 4 + rng.below(8) as u64)
            } else {
                service.open_scrambler(
                    &plan.personality,
                    plan.seed,
                    plan.priority,
                    4 + rng.below(8) as u64,
                )
            };
            match opened {
                Ok(id) => {
                    clients.push(Client::new(next_plan, id));
                    next_plan += 1;
                }
                Err(
                    ServiceError::RejectedByBucket
                    | ServiceError::RejectedByOverload
                    | ServiceError::RejectedByCapacity,
                ) => {
                    // Clients back off and re-offer next tick; the
                    // refusal is already visible in the service
                    // counters. No stream is abandoned.
                    break;
                }
                Err(e) => return Err(e),
            }
        }

        // Feeds: each live client offers its next chunk (always during
        // drain, usually otherwise); backpressure is retried next tick.
        for client in &mut clients {
            if client.fed_all || client.parked {
                continue;
            }
            if !draining && !rng.chance(0.8) {
                continue;
            }
            let plan = &plans[client.plan];
            match service.feed(client.id, plan.chunk(client.next_cut)) {
                Ok(()) => client.seek(plan, client.next_cut + 1),
                Err(
                    ServiceError::StreamQueueFull { .. } | ServiceError::GlobalQueueFull { .. },
                ) => {}
                Err(ServiceError::UnknownStream(_)) => client.parked = true,
                Err(e) => return Err(e),
            }
        }

        // The service samples the offered backlog into its shared
        // queue-depth histogram at the top of every tick, before the
        // pump drains it.
        service.tick()?;

        // Notice service-side parking, collect scrambler output.
        let parked_now = service.parked_ids();
        for client in &mut clients {
            if parked_now.contains(&client.id) {
                client.parked = true;
                continue;
            }
            if client.parked {
                continue;
            }
            if !plans[client.plan].is_crc {
                if let Ok(bits) = service.collect(client.id) {
                    client.collected = client.collected.concat(&bits);
                }
            }
        }

        // Resume parked streams once the service has headroom (always
        // during drain).
        if draining || service.level() < crate::admission::OverloadLevel::RejectNew {
            for client in &mut clients {
                if client.parked && service.resume(client.id).is_ok() {
                    client.parked = false;
                }
            }
        }

        // Finish clients that fed everything.
        let mut finished_ids: Vec<usize> = Vec::new();
        for (ci, client) in clients.iter_mut().enumerate() {
            if !client.fed_all || client.parked {
                continue;
            }
            match service.finish(client.id) {
                Ok(out) => {
                    if !oracle_matches(&plans[client.plan], &client.collected, &out) {
                        mismatches += 1;
                    }
                    completed += 1;
                    finished_ids.push(ci);
                }
                Err(ServiceError::StreamParked(_)) => client.parked = true,
                Err(e) => return Err(e),
            }
        }
        for ci in finished_ids.into_iter().rev() {
            clients.swap_remove(ci);
        }
    }

    let unfinished = plans.len() as u64 - completed - shed;
    let depth = service.queue_depth_stats();
    let p99 = usize::try_from(depth.p99).unwrap_or(usize::MAX);
    let max_depth = usize::try_from(depth.max).unwrap_or(usize::MAX);
    let metrics = service.obs().registry.snapshot();
    let metric_names = service.obs().registry.names();
    let trace_log = service.obs().tracer.render();
    Ok(StormReport {
        seed: cfg.seed,
        planned: plans.len() as u64,
        completed,
        shed,
        unfinished,
        mismatches,
        faults_injected,
        ticks_run: tick,
        p99_queue_depth: p99,
        max_queue_depth: max_depth,
        max_p99_queue_depth: cfg.max_p99_queue_depth,
        counters: service.counters(),
        metrics,
        metric_names,
        trace_log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_overload_window_arrives_base_per_tick() {
        let names = vec![("eth8".to_string(), true), ("wifi16".to_string(), false)];
        for base in [1usize, 3, 7] {
            let cfg = StormConfig {
                streams: 30,
                overload_window: (0, 0),
                base_arrivals: base,
                ..StormConfig::smoke(9)
            };
            let plans = gen_plans(&cfg, &mut SplitMix64::new(9), &names);
            for (i, plan) in plans.iter().enumerate() {
                assert_eq!(plan.arrive_tick, 1 + (i / base) as u64, "base={base} i={i}");
            }
        }
    }

    #[test]
    fn tiny_storm_is_exact_and_deterministic() {
        let cfg = StormConfig {
            streams: 40,
            ticks: 60,
            crc_ms: vec![8, 32],
            scrambler_m: 16,
            fault_prob: 0.1,
            overload_window: (10, 20),
            ..StormConfig::smoke(77)
        };
        let a = run_storm(&cfg).unwrap();
        assert_eq!(
            a.mismatches,
            0,
            "digests must match the oracle:\n{}",
            a.render()
        );
        assert_eq!(
            a.unfinished,
            0,
            "every admitted stream drains:\n{}",
            a.render()
        );
        let b = run_storm(&cfg).unwrap();
        assert_eq!(a.render(), b.render(), "same seed, same campaign");
    }
}
