//! `stream_mix`: many short streams through one `StreamService`.
//!
//! The same fabric as `frame_offload`, used in tiny batches: every
//! stream carries one to three chunks of tens of bytes, so host time
//! moves from row evaluation to the per-batch scrub + probe guard and to
//! stream bookkeeping. A window of spiking arrivals drives the admission
//! ladder (degrade, park, resume) and seeded fabric faults exercise the
//! batch rollback and recovery paths.

use crate::pass::{elapsed_ns, Pass};
use crate::plan::{self, Client, Plan, SCRAMBLER};
use crate::spans::Spans;
use picolfsr::dream::ControlModel;
use picolfsr::flow::FlowOptions;
use picolfsr::lfsr::crc::CrcSpec;
use picolfsr::lfsr::scramble::ScramblerSpec;
use picolfsr::picoga::PicogaParams;
use picolfsr::resilience::{FaultInjector, RecoveryPolicy, ResilientSystem, SplitMix64};
use picolfsr::stream::{AdmissionConfig, OverloadLevel, ServiceError, StreamService};
use std::time::Instant;

/// Streams per pass.
pub const STREAMS: usize = 2600;

/// CRC-32/Ethernet lane widths hosted beside the scrambler lane.
const CRC_MS: [usize; 3] = [8, 32, 128];
/// Three in ten streams on each of the M=8 and M=32 lanes and the
/// scrambler lane, one in ten on the M=128 lane: a batch that touches
/// the M=128 lane costs about twice one that does not, and an even
/// split would put the median tick in the gap between the two.
const LANES: [&str; 10] = [
    "eth8", "eth8", "eth8", "eth32", "eth32", "eth32", "eth128", SCRAMBLER, SCRAMBLER, SCRAMBLER,
];
/// Ticks with arrivals at the base rate before the spike.
const SPIKE_START: u64 = 300;
/// Ticks of spiking arrivals.
const SPIKE_TICKS: u64 = 15;
const BASE_ARRIVALS: usize = 1;
const SPIKE_ARRIVALS: usize = 40;
/// Ticks per injected configuration upset.
const FAULT_EVERY: u64 = 25;
/// Ticks allowed after the last arrival for every stream to finish.
const DRAIN_TICKS: u64 = 2000;

/// A pass's streams and fault schedule, generated from the seed.
#[derive(Debug)]
pub struct Input {
    plans: Vec<Plan>,
    /// Seed of the fault injector.
    fault_seed: u64,
    /// Ticks at which a configuration upset is injected.
    faults: Vec<u64>,
}

impl Input {
    /// `n` streams of one to three chunks of 5–48 B, arriving one per
    /// tick except for 40 per tick during the spike.
    pub fn generate(seed: u64, n: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let fault_seed = rng.next_u64();
        let mut tick = 1u64;
        let mut left = BASE_ARRIVALS;
        let arrivals: Vec<u64> = (0..n)
            .map(|_| {
                while left == 0 {
                    tick += 1;
                    left = if (SPIKE_START..SPIKE_START + SPIKE_TICKS).contains(&tick) {
                        SPIKE_ARRIVALS
                    } else {
                        BASE_ARRIVALS
                    };
                }
                left -= 1;
                tick
            })
            .collect();
        let plans = plan::generate(&mut rng, &LANES, &[1, 2, 3], 48, &arrivals);
        // One fault per FAULT_EVERY ticks of arrivals, each at a random
        // tick of its interval.
        let faults = (0..tick / FAULT_EVERY)
            .map(|k| 1 + k * FAULT_EVERY + rng.below(FAULT_EVERY as usize) as u64)
            .collect();
        Input {
            plans,
            fault_seed,
            faults,
        }
    }

    /// Corrupts one expected output (the gate's self-test).
    #[cfg(test)]
    pub fn flip_expected(&mut self, index: usize) {
        self.plans[index].expected.flip();
    }

    /// Builds a fresh service, then serves every planned stream.
    #[allow(clippy::too_many_lines)]
    pub fn pass(&self, spans: &mut Spans) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let mut svc = setup(spans)?;
        pass.setup_ns = elapsed_ns(t0);

        let mut injector = FaultInjector::new(self.fault_seed);
        let mut next_fault = 0usize;
        let mut next_plan = 0usize;
        let mut clients: Vec<Client> = Vec::new();
        let mut done = 0usize;
        let last_arrival = self.plans.last().map_or(0, |p| p.arrive_tick);
        let mut tick = 0u64;

        while done < self.plans.len() && tick < last_arrival + DRAIN_TICKS {
            let segment = Instant::now();
            tick += 1;
            if self.faults.get(next_fault) == Some(&tick) {
                next_fault += 1;
                if inject_fault(&mut svc, &mut injector, next_fault) {
                    pass.count("bench.faults_injected", 1);
                }
            }

            // Arrivals: open every due stream until admission refuses;
            // refused clients retry next tick.
            while let Some(plan) = self.plans.get(next_plan) {
                if plan.arrive_tick > tick {
                    break;
                }
                pass.count("bench.stream_open_attempts", 1);
                let opened = spans.call("stream.open", next_plan as u64, || match plan.seed {
                    None => svc.open_crc(plan.lane, plan.priority, plan.deadline_in),
                    Some(seed) => {
                        svc.open_scrambler(plan.lane, seed, plan.priority, plan.deadline_in)
                    }
                });
                match opened {
                    Ok(id) => {
                        pass.count("bench.stream_open_accepts", 1);
                        clients.push(Client::new(next_plan, id));
                        next_plan += 1;
                    }
                    Err(
                        ServiceError::RejectedByBucket
                        | ServiceError::RejectedByOverload
                        | ServiceError::RejectedByCapacity,
                    ) => break,
                    Err(e) => return Err(format!("open stream {next_plan}: {e}")),
                }
            }

            // Feeds: every unparked client offers its next chunk;
            // backpressure is retried next tick.
            for c in &mut clients {
                let Some(chunk) = c.next_chunk(&self.plans[c.plan]) else {
                    continue;
                };
                pass.count("bench.stream_feed_attempts", 1);
                match spans.call("stream.feed", c.id, || svc.feed(c.id, chunk)) {
                    Ok(()) => {
                        pass.count("bench.stream_feed_accepts", 1);
                        c.next_cut += 1;
                    }
                    Err(
                        ServiceError::StreamQueueFull { .. } | ServiceError::GlobalQueueFull { .. },
                    ) => {}
                    Err(ServiceError::UnknownStream(_)) => c.parked = true,
                    Err(e) => return Err(format!("feed stream {}: {e}", c.id)),
                }
            }

            let step = Instant::now();
            let ticked = spans.call("stream.tick", tick, || svc.tick());
            pass.steps_ns.push(elapsed_ns(step));
            ticked.map_err(|e| format!("tick {tick}: {e}"))?;

            // Notice parking; take scrambled output as it is produced.
            let parked = svc.parked_ids();
            for c in &mut clients {
                if parked.contains(&c.id) {
                    c.parked = true;
                }
                if c.parked || self.plans[c.plan].seed.is_none() {
                    continue;
                }
                if let Ok(bits) = spans.call("stream.collect", c.id, || svc.collect(c.id)) {
                    c.collected = c.collected.concat(&bits);
                }
            }

            // Resume parked streams once the ladder is below RejectNew.
            if tick > last_arrival || svc.level() < OverloadLevel::RejectNew {
                for c in clients.iter_mut().filter(|c| c.parked) {
                    if spans
                        .call("stream.resume", c.id, || svc.resume(c.id))
                        .is_ok()
                    {
                        c.parked = false;
                    }
                }
            }

            // Finish every stream that has fed all its chunks.
            let mut k = 0;
            while k < clients.len() {
                let c = &clients[k];
                if !c.ready(&self.plans[c.plan]) {
                    k += 1;
                    continue;
                }
                match spans.call("stream.finish", c.id, || svc.finish(c.id)) {
                    Ok(out) => {
                        let c = clients.swap_remove(k);
                        c.check(&self.plans[c.plan], out, &mut pass);
                        done += 1;
                    }
                    Err(ServiceError::StreamParked(_)) => {
                        clients[k].parked = true;
                        k += 1;
                    }
                    Err(e) => return Err(format!("finish stream {}: {e}", c.id)),
                }
            }
            pass.segments_ns.push(elapsed_ns(segment));
        }

        for c in &clients {
            pass.attempted += 1;
            pass.fail(format!("stream {}: unfinished after the drain", c.plan));
        }
        for i in next_plan..self.plans.len() {
            pass.attempted += 1;
            pass.fail(format!("stream {i}: never admitted"));
        }
        pass.absorb(&svc.obs().registry.snapshot());
        pass.absorb_tracer(&svc.obs().tracer);
        Ok(pass)
    }
}

/// The stack: CRC-32/Ethernet at M = 8, 32 and 128 plus the 802.11
/// scrambler at M=16 on one service under the stream-serving recovery
/// policy, with a small admission budget so the spike overloads it.
fn setup(spans: &mut Spans) -> Result<StreamService, String> {
    let rs = ResilientSystem::new(
        PicogaParams::dream(),
        ControlModel::default(),
        RecoveryPolicy::stream_serving(),
    );
    let mut svc = StreamService::new(
        rs,
        AdmissionConfig {
            max_streams: 192,
            global_queue_bytes: 1024,
            bucket_capacity: 64,
            bucket_refill: 24,
            pump_budget_chunks: 10,
            ..AdmissionConfig::default()
        },
    );
    let eth = CrcSpec::crc32_ethernet();
    for m in CRC_MS {
        spans
            .call("flow.build", m as u64, || {
                svc.host_crc(&format!("eth{m}"), eth, FlowOptions::dream_with_m(m))
            })
            .map_err(|e| format!("hosting eth{m}: {e}"))?;
    }
    spans
        .call("flow.build", 16, || {
            svc.host_scrambler(
                SCRAMBLER,
                ScramblerSpec::ieee80211(),
                &FlowOptions::dream_with_m(16),
            )
        })
        .map_err(|e| format!("hosting {SCRAMBLER}: {e}"))?;
    Ok(svc)
}

/// Flips one random configuration wire of a resident context (a
/// single-event upset, which the guard detects and a reload heals). The
/// `nth` fault goes to the `nth` resident context in turn, so every
/// lane takes its share of upsets whatever the seed. Stuck cells are
/// left out: their repair re-synthesizes or retires a lane, which would
/// make one seed's pass cost several times another's. Returns whether a
/// fault landed.
fn inject_fault(svc: &mut StreamService, injector: &mut FaultInjector, nth: usize) -> bool {
    let fabric = svc.system().system().fabric();
    let resident: Vec<usize> = (0..fabric.params().contexts)
        .filter(|&slot| fabric.context(slot).is_some())
        .collect();
    if resident.is_empty() {
        return false;
    }
    let slot = resident[nth % resident.len()];
    let op = fabric.context(slot).expect("listed as resident").clone();
    injector.random_wire_flip(slot, &op).is_some_and(|f| {
        svc.system_mut()
            .system_mut()
            .fabric_mut()
            .inject(&f)
            .is_ok()
    })
}
