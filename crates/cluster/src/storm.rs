//! Seeded cluster-wide stress harness ("cluster storm").
//!
//! One deterministic simulation drives every robustness flow the
//! cluster owns, at once: staggered arrivals placed across shards,
//! random per-shard fabric fault injection, random **live migrations**
//! under traffic, a planned **shard drain** mid-run, a forced
//! **whole-shard kill** mid-run (power loss: the shard's state is
//! frozen, survivors replay from swept checkpoints), clients rewinding
//! to their resume offsets, and typed-loss restarts. Every completed
//! stream's digest is compared against a pure-software oracle — the
//! campaign passes only with **zero** mismatches and zero silent
//! losses.
//!
//! The client side of that simulation is `Traffic`, the one traffic
//! engine the chaos ([`crate::chaos`]) and crash ([`crate::crash`])
//! campaigns drive as well; each campaign scripts only its own
//! disturbances around it.
//!
//! All randomness flows from one [`SplitMix64`]; every cluster and
//! service structure iterates deterministically; two runs with the same
//! seed render byte-identical reports (CI asserts this with `cmp`).

use crate::cluster::{Cluster, ClusterConfig, ClusterCounters, ClusterError, ShardState};
use dream_lfsr::FlowOptions;
use lfsr::crc::CrcSpec;
use lfsr::scramble::ScramblerSpec;
use resilience::rng::SplitMix64;
use resilience::FaultInjector;
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use stream::storm::{gen_plans, inject_random_fault, oracle_matches, Client, Plan};
use stream::{AdmissionConfig, ServiceError, StormConfig};

/// Shape of one cluster storm campaign.
#[derive(Debug, Clone)]
pub struct ClusterStormConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Shards in the cluster.
    pub shards: usize,
    /// Logical streams planned.
    pub streams: usize,
    /// Ticks of the main phase (a bounded drain phase follows).
    pub ticks: u64,
    /// Chunk sizes drawn uniformly from this inclusive range (bytes).
    pub chunk_bytes: (usize, usize),
    /// Chunks per stream drawn uniformly from this inclusive range.
    pub chunks_per_stream: (usize, usize),
    /// Per-tick, per-shard probability of injecting a fabric fault.
    pub fault_prob: f64,
    /// New streams offered per tick.
    pub base_arrivals: usize,
    /// Per-tick probability of live-migrating one random stream to a
    /// random active shard (exercises migration under traffic).
    pub migrate_prob: f64,
    /// Tick at which `drain_shard` starts draining (0 = never).
    pub drain_tick: u64,
    /// The shard the planned drain empties.
    pub drain_shard: usize,
    /// Tick at which `kill_shard` is killed outright (0 = never).
    pub kill_tick: u64,
    /// The shard the forced kill takes down.
    pub kill_shard: usize,
    /// Cluster checkpoint-sweep interval (ticks).
    pub checkpoint_interval: u64,
    /// Consecutive fabric-abandoned ticks before the health monitor
    /// retires a shard (see [`crate::HealthPolicy`]).
    pub abandoned_ticks: u32,
    /// Look-ahead factors for the hosted CRC-32 personalities.
    pub crc_ms: Vec<usize>,
    /// Look-ahead factor for the 802.11 scrambler personality (0 =
    /// none).
    pub scrambler_m: usize,
    /// Admission configuration for every shard.
    pub admission: AdmissionConfig,
}

impl ClusterStormConfig {
    /// The CI smoke campaign: 480 streams over 4 shards, with a
    /// planned drain of shard 1 and a forced kill of shard 0 mid-run.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        ClusterStormConfig {
            seed,
            shards: 4,
            streams: 480,
            ticks: 240,
            chunk_bytes: (5, 32),
            chunks_per_stream: (2, 6),
            fault_prob: 0.02,
            base_arrivals: 3,
            migrate_prob: 0.25,
            drain_tick: 70,
            drain_shard: 1,
            kill_tick: 120,
            kill_shard: 0,
            checkpoint_interval: 3,
            // Health-driven retirement is off in the smoke: fallback is
            // terminal per lane, so under sustained fault injection any
            // threshold eventually retires both unscripted shards and
            // the scripted kill then zeroes out the cluster. The
            // abandonment path is pinned by cluster unit tests instead.
            abandoned_ticks: 0,
            crc_ms: vec![8, 32],
            scrambler_m: 16,
            admission: AdmissionConfig {
                max_streams: 96,
                global_queue_bytes: 4096,
                bucket_capacity: 32,
                bucket_refill: 12,
                pump_budget_chunks: 12,
                ..AdmissionConfig::default()
            },
        }
    }
}

/// Per-shard end-of-campaign summary line.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// The shard's name.
    pub name: String,
    /// Final lifecycle state label.
    pub state: &'static str,
    /// Streams the shard opened over the campaign.
    pub opened: u64,
    /// Streams the shard completed.
    pub completed: u64,
    /// Chunks the shard pumped.
    pub chunks: u64,
}

/// What one cluster storm campaign did and found.
#[derive(Debug, Clone)]
pub struct ClusterStormReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Shards in the cluster.
    pub shards: usize,
    /// Logical streams planned.
    pub planned: u64,
    /// Logical streams completed with a verified digest.
    pub completed: u64,
    /// Typed-loss restarts (a lost stream re-opened from scratch).
    pub restarts: u64,
    /// Losses by reason: `no_checkpoint`.
    pub lost_no_checkpoint: u64,
    /// Losses by reason: `incompatible`.
    pub lost_incompatible: u64,
    /// Losses by reason: `no_capacity`.
    pub lost_no_capacity: u64,
    /// Losses by reason: `corrupt`.
    pub lost_corrupt: u64,
    /// Losses the cluster recorded that the harness never observed —
    /// the silent-loss count, which must be zero.
    pub losses_unaccounted: u64,
    /// Completed streams whose digest differed from the oracle (must
    /// be zero, always).
    pub mismatches: u64,
    /// Logical streams still unfinished at the drain budget (must be
    /// zero).
    pub unfinished: u64,
    /// Fabric faults injected across all shards.
    pub faults_injected: u64,
    /// Ticks simulated (main phase + drain).
    pub ticks_run: u64,
    /// Cluster-level decision counters.
    pub counters: ClusterCounters,
    /// Per-shard summaries, in index order.
    pub shard_lines: Vec<ShardSummary>,
    /// Merged deployment-wide metrics snapshot (cluster + every
    /// shard, name-scoped; byte-identical across same-seed runs).
    pub metrics: obs::MetricsSnapshot,
    /// Causal-span audit over the cluster tracer at campaign end.
    pub spans: SpanAudit,
    /// The cluster tracer (events + span table), for trace queries and
    /// the SLO report.
    pub tracer: obs::Tracer,
    /// Rendered cluster-level event trace.
    pub trace_log: String,
}

impl ClusterStormReport {
    /// Zero mismatches, nothing stranded, no silent losses, and a
    /// clean causal-span audit (nothing leaked open, every failover
    /// rooted in a kill or a recovery).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.mismatches == 0
            && self.unfinished == 0
            && self.losses_unaccounted == 0
            && self.spans.clean()
    }

    /// Deterministic text rendering — byte-identical across runs with
    /// the same seed (CI compares two runs with `cmp`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let c = &self.counters;
        let _ = writeln!(s, "cluster storm seed={} shards={}", self.seed, self.shards);
        let _ = writeln!(
            s,
            "streams       planned={} completed={} restarts={} unfinished={}",
            self.planned, self.completed, self.restarts, self.unfinished
        );
        let _ = writeln!(
            s,
            "correctness   mismatches={} faults_injected={} silent_losses={}",
            self.mismatches, self.faults_injected, self.losses_unaccounted
        );
        let _ = writeln!(
            s,
            "migration     live+drain={} retries={} failovers={}",
            c.migrations, c.migration_retries, c.failovers
        );
        let _ = writeln!(
            s,
            "losses        no_checkpoint={} incompatible={} no_capacity={} corrupt={}",
            self.lost_no_checkpoint,
            self.lost_incompatible,
            self.lost_no_capacity,
            self.lost_corrupt
        );
        let _ = writeln!(
            s,
            "lifecycle     drains_started={} shards_drained={} shards_down={} sweeps_stored={}",
            c.drains_started, c.shards_drained, c.shards_down, c.checkpoints_stored
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

/// Renders the closing lines every cluster campaign report shares: the
/// span audit, one line per shard, the ticks run and the verdict.
pub(crate) fn render_tail(
    s: &mut String,
    spans: &SpanAudit,
    shard_lines: &[ShardSummary],
    ticks_run: u64,
    passed: bool,
) {
    let _ = writeln!(
        s,
        "spans         total={} open={} misuse={} failovers_unrooted={}",
        spans.total, spans.open, spans.misuse, spans.failovers_unrooted
    );
    for line in shard_lines {
        let _ = writeln!(
            s,
            "shard {:<8} state={:<8} opened={} completed={} chunks={}",
            line.name, line.state, line.opened, line.completed, line.chunks
        );
    }
    let _ = writeln!(s, "ticks         {ticks_run}");
    let _ = writeln!(s, "verdict       {}", if passed { "PASS" } else { "FAIL" });
}

/// End-of-campaign causal-span audit: the invariants every storm
/// asserts over the tracer's span table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAudit {
    /// Spans begun over the whole campaign.
    pub total: u64,
    /// Spans never ended — must be zero at campaign end.
    pub open: u64,
    /// Tracer-counted span API misuse (double-end, unknown id) — must
    /// be zero.
    pub misuse: u64,
    /// `failover_stream` spans with no `shard_down` / `wal_recover`
    /// ancestor — every failover must be causally rooted in the event
    /// that forced it. Must be zero.
    pub failovers_unrooted: u64,
}

impl SpanAudit {
    /// Every audited invariant holds.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.open == 0 && self.misuse == 0 && self.failovers_unrooted == 0
    }
}

/// Audits a tracer's span table at campaign end: counts leaked-open
/// spans, API misuse, and causally-unrooted failovers.
#[must_use]
pub fn audit_spans(tracer: &obs::Tracer) -> SpanAudit {
    let q = obs::TraceQuery::new(tracer);
    let failovers = q.spans().by_kind("failover_stream");
    let unrooted = failovers
        .iter()
        .filter(|s| {
            !q.spans()
                .by_span(s.id)
                .rooted_in_any(&["shard_down", "wal_recover"])
        })
        .count() as u64;
    SpanAudit {
        total: q.spans().count() as u64,
        open: tracer.open_spans() as u64,
        misuse: tracer.span_misuse(),
        failovers_unrooted: unrooted,
    }
}

/// Ticks a campaign may run past its main phase while the backlog
/// drains.
pub(crate) const DRAIN_TICKS: u64 = 2000;

impl ClusterStormConfig {
    /// The cluster configuration this traffic shape runs on.
    pub(crate) fn cluster_config(&self) -> ClusterConfig {
        let mut ccfg = ClusterConfig::homogeneous(self.shards, self.admission);
        ccfg.checkpoint_interval = self.checkpoint_interval;
        ccfg.health = crate::HealthPolicy {
            abandoned_ticks: self.abandoned_ticks,
        };
        ccfg
    }
}

/// Hosts the campaign's personalities — one CRC-32 per look-ahead
/// factor, then the optional 802.11 scrambler — on every shard, or on
/// `shard` alone when a drained or upgraded shard is rebuilt. Returns
/// `(name, is_crc)` per personality, in hosting order.
///
/// # Panics
///
/// Panics if the configuration hosts no personalities.
pub(crate) fn host_personalities(
    cl: &mut Cluster,
    cfg: &ClusterStormConfig,
    shard: Option<usize>,
) -> Result<Vec<(String, bool)>, ClusterError> {
    let eth = *CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry");
    let mut names: Vec<(String, bool)> = Vec::new();
    for &m in &cfg.crc_ms {
        let name = format!("eth{m}");
        let opts = FlowOptions::dream_with_m(m);
        match shard {
            Some(shard) => cl.host_crc_on(shard, &name, &eth, opts)?,
            None => cl.host_crc(&name, &eth, opts)?,
        }
        names.push((name, true));
    }
    if cfg.scrambler_m > 0 {
        let name = format!("wifi{}", cfg.scrambler_m);
        let opts = FlowOptions::dream_with_m(cfg.scrambler_m);
        let spec = ScramblerSpec::ieee80211();
        match shard {
            Some(shard) => cl.host_scrambler_on(shard, &name, spec, &opts)?,
            None => cl.host_scrambler(&name, spec, &opts)?,
        }
        names.push((name, false));
    }
    assert!(!names.is_empty(), "storm needs at least one personality");
    Ok(names)
}

/// One end-of-campaign summary line per shard, in index order.
pub(crate) fn shard_summaries(cl: &Cluster) -> Vec<ShardSummary> {
    (0..cl.shard_count())
        .map(|i| {
            let c = cl.shard_service(i).expect("index in range").counters();
            ShardSummary {
                name: cl.shard_name(i).expect("index in range").to_string(),
                state: cl.shard_state(i).map_or("?", |s| match s {
                    ShardState::Active => "active",
                    ShardState::Draining => "draining",
                    ShardState::Down(r) => r.label(),
                }),
                opened: c.opened,
                completed: c.completed,
                chunks: c.chunks_processed,
            }
        })
        .collect()
}

/// Draws a random routed stream and a random active target shard for a
/// migration, or `None` (drawing nothing) when either set is empty.
pub(crate) fn pick_migration(cl: &Cluster, rng: &mut SplitMix64) -> Option<(u64, usize)> {
    let routed = cl.route_ids();
    let targets = cl.active_shards();
    if routed.is_empty() || targets.is_empty() {
        return None;
    }
    let gid = routed[rng.below(routed.len())];
    let target = targets[rng.below(targets.len())];
    Some((gid, target))
}

/// Per-shard fabric fault injectors and the count of faults that
/// actually landed.
pub(crate) struct FabricNoise {
    injectors: Vec<FaultInjector>,
    /// Faults injected across all shards.
    pub(crate) injected: u64,
}

impl FabricNoise {
    /// One injector per shard, each forked from `rng` in shard order.
    pub(crate) fn new(shards: usize, rng: &mut SplitMix64) -> Self {
        FabricNoise {
            injectors: (0..shards)
                .map(|_| FaultInjector::new(rng.fork().next_u64()))
                .collect(),
            injected: 0,
        }
    }

    /// Background noise: every shard draws once and, with probability
    /// `prob`, takes one fault.
    pub(crate) fn background(&mut self, cl: &mut Cluster, rng: &mut SplitMix64, prob: f64) {
        for shard in 0..self.injectors.len() {
            if rng.chance(prob) {
                self.inject(cl, shard);
            }
        }
    }

    /// Injects one fault into `shard`; dead shards are left untouched.
    pub(crate) fn inject(&mut self, cl: &mut Cluster, shard: usize) {
        if let Some(svc) = cl.shard_service_mut(shard) {
            if inject_random_fault(svc, &mut self.injectors[shard]) {
                self.injected += 1;
            }
        }
    }
}

/// The client side of a cluster campaign, shared by the cluster, chaos
/// and crash storms: the planned streams, the open queue, the live
/// clients and the outcome counters. Each campaign scripts only its own
/// disturbances around [`Traffic::before_tick`] and
/// [`Traffic::after_tick`].
#[derive(Default)]
pub(crate) struct Traffic {
    plans: Vec<Plan>,
    next_plan: usize,
    /// Plans waiting to open: arrivals, pulled-forward admission-storm
    /// arrivals and typed-loss restarts.
    due: VecDeque<usize>,
    clients: Vec<Client>,
    /// Every cluster-recorded loss surfaced so far.
    seen_losses: BTreeSet<u64>,
    /// Logical streams completed with a checked digest.
    pub(crate) completed: u64,
    /// Completed streams whose digest differed from the oracle.
    pub(crate) mismatches: u64,
    /// Typed-loss restarts (a lost stream re-opened from scratch).
    pub(crate) restarts: u64,
    /// Losses seen, by [`crate::LossReason`] discriminant.
    pub(crate) lost_by_reason: [u64; 4],
}

impl Traffic {
    /// Draws the campaign's plans from `rng` over the hosted `names`.
    pub(crate) fn new(
        cfg: &ClusterStormConfig,
        rng: &mut SplitMix64,
        names: &[(String, bool)],
    ) -> Self {
        // The stream storm's traffic shape without its overload window:
        // a steady `base_arrivals` streams per tick.
        let shape = StormConfig {
            streams: cfg.streams,
            chunk_bytes: cfg.chunk_bytes,
            chunks_per_stream: cfg.chunks_per_stream,
            overload_window: (0, 0),
            base_arrivals: cfg.base_arrivals,
            ..StormConfig::smoke(cfg.seed)
        };
        Traffic {
            plans: gen_plans(&shape, rng, names),
            ..Traffic::default()
        }
    }

    /// Logical streams planned.
    pub(crate) fn planned(&self) -> u64 {
        self.plans.len() as u64
    }

    /// Logical streams not completed (yet).
    pub(crate) fn unfinished(&self) -> u64 {
        self.planned() - self.completed
    }

    /// Losses the cluster recorded that the campaign never surfaced.
    pub(crate) fn losses_unaccounted(&self, cl: &Cluster) -> u64 {
        cl.losses().len() as u64 - self.seen_losses.len() as u64
    }

    /// Moves the next `n` planned streams (fewer at the end of the
    /// plan) into the open queue: this tick's arrivals, or the ones an
    /// admission storm pulls forward.
    pub(crate) fn pull_forward(&mut self, n: usize) {
        let end = (self.next_plan + n).min(self.plans.len());
        self.due.extend(self.next_plan..end);
        self.next_plan = end;
    }

    /// The client phase before the cluster ticks: rewind failed-over
    /// clients, queue this tick's arrivals (every remaining one while
    /// `draining`), open what the cluster admits, and offer chunks.
    pub(crate) fn before_tick(
        &mut self,
        cl: &mut Cluster,
        rng: &mut SplitMix64,
        tick: u64,
        draining: bool,
    ) -> Result<(), ClusterError> {
        // A client whose stream a kill or recovery just replayed must
        // rewind before it feeds at its (now stale) position.
        self.apply_resumes(cl);
        let arrived = self.plans[self.next_plan..]
            .iter()
            .take_while(|plan| draining || plan.arrive_tick <= tick)
            .count();
        self.pull_forward(arrived);
        self.open_due(cl, rng)?;
        self.feed(cl, rng, draining)
    }

    /// The client phase after the cluster ticks: apply failover
    /// notices from in-tick retirements, restart typed losses, resume
    /// and collect, and finish every fully fed stream.
    pub(crate) fn after_tick(&mut self, cl: &mut Cluster) -> Result<(), ClusterError> {
        self.apply_resumes(cl);
        self.reconcile_losses(cl);
        self.collect(cl);
        self.finish(cl)
    }

    /// Applies pending failover-resume notices: rewind the client to
    /// the checkpoint's re-feed offset and drop scrambler output the
    /// replayed stream will regenerate. Must run before the client
    /// feeds again — a chunk offered at the old position would skip the
    /// replay window.
    pub(crate) fn apply_resumes(&mut self, cl: &mut Cluster) {
        for resume in cl.take_failover_resumes() {
            if let Some(client) = self.clients.iter_mut().find(|c| c.id == resume.id) {
                let plan = &self.plans[client.plan];
                let cut = plan
                    .cuts
                    .partition_point(|&c| c as u64 <= resume.resume_from);
                client.seek(plan, cut);
                client.parked = false;
                let keep = usize::try_from(resume.delivered_bits).unwrap_or(usize::MAX);
                if client.collected.len() > keep {
                    client.collected = client.collected.slice(0, keep);
                }
            }
        }
    }

    /// Opens queued plans in order until every active shard refuses
    /// (the rest back off to the next tick).
    fn open_due(&mut self, cl: &mut Cluster, rng: &mut SplitMix64) -> Result<(), ClusterError> {
        while let Some(&pi) = self.due.front() {
            let plan = &self.plans[pi];
            let deadline_in = 4 + rng.below(8) as u64;
            let opened = if plan.is_crc {
                cl.open_crc(&plan.personality, plan.priority, deadline_in)
            } else {
                cl.open_scrambler(&plan.personality, plan.seed, plan.priority, deadline_in)
            };
            match opened {
                Ok(gid) => {
                    self.due.pop_front();
                    self.clients.push(Client::new(pi, gid));
                }
                Err(ClusterError::NoEligibleShard) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Each live client offers its next chunk (always while `draining`,
    /// usually otherwise); backpressure is retried next tick and a loss
    /// is reconciled after the tick.
    fn feed(
        &mut self,
        cl: &mut Cluster,
        rng: &mut SplitMix64,
        draining: bool,
    ) -> Result<(), ClusterError> {
        for client in &mut self.clients {
            if client.fed_all || client.parked || (!draining && !rng.chance(0.8)) {
                continue;
            }
            match feed_next_chunk(cl, &self.plans[client.plan], client) {
                Ok(())
                | Err(
                    ClusterError::Shard(
                        ServiceError::StreamQueueFull { .. } | ServiceError::GlobalQueueFull { .. },
                    )
                    | ClusterError::StreamLost { .. }
                    | ClusterError::ShardDown(_),
                ) => {}
                Err(ClusterError::Shard(ServiceError::StreamParked(_))) => client.parked = true,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Offers one more chunk on up to `n` live clients, in client
    /// order, ignoring refusals — work a crash can catch unflushed.
    pub(crate) fn feed_unflushed(&mut self, cl: &mut Cluster, n: usize) {
        let mut fed = 0usize;
        for client in &mut self.clients {
            if fed >= n {
                break;
            }
            if !client.fed_all
                && !client.parked
                && feed_next_chunk(cl, &self.plans[client.plan], client).is_ok()
            {
                fed += 1;
            }
        }
    }

    /// Typed losses restart the logical stream from scratch; the
    /// seen-set proves every cluster-recorded loss was surfaced.
    fn reconcile_losses(&mut self, cl: &Cluster) {
        for loss in cl.losses() {
            if !self.seen_losses.insert(loss.id) {
                continue;
            }
            self.lost_by_reason[loss.reason as usize] += 1;
            if let Some(pos) = self.clients.iter().position(|c| c.id == loss.id) {
                let client = self.clients.swap_remove(pos);
                self.due.push_back(client.plan);
                self.restarts += 1;
            }
        }
    }

    /// Resumes shard-parked clients and collects scrambler output.
    fn collect(&mut self, cl: &mut Cluster) {
        for client in &mut self.clients {
            if client.parked {
                if cl.resume(client.id).is_err() {
                    continue;
                }
                client.parked = false;
            }
            if !self.plans[client.plan].is_crc {
                if let Ok(bits) = cl.collect(client.id) {
                    client.collected = client.collected.concat(&bits);
                }
            }
        }
    }

    /// Finishes every fully fed client and checks its digest against
    /// the oracle.
    fn finish(&mut self, cl: &mut Cluster) -> Result<(), ClusterError> {
        let mut finished: Vec<usize> = Vec::new();
        for (ci, client) in self.clients.iter_mut().enumerate() {
            if !client.fed_all || client.parked {
                continue;
            }
            match cl.finish(client.id) {
                Ok(out) => {
                    if !oracle_matches(&self.plans[client.plan], &client.collected, &out) {
                        self.mismatches += 1;
                    }
                    self.completed += 1;
                    finished.push(ci);
                }
                Err(ClusterError::Shard(ServiceError::StreamParked(_))) => client.parked = true,
                Err(ClusterError::StreamLost { .. } | ClusterError::ShardDown(_)) => {}
                Err(e) => return Err(e),
            }
        }
        for ci in finished.into_iter().rev() {
            self.clients.swap_remove(ci);
        }
        Ok(())
    }
}

/// Offers `client`'s next chunk and advances it on acceptance.
fn feed_next_chunk(cl: &mut Cluster, plan: &Plan, client: &mut Client) -> Result<(), ClusterError> {
    cl.feed(client.id, plan.chunk(client.next_cut))?;
    client.seek(plan, client.next_cut + 1);
    Ok(())
}

/// Runs one cluster storm campaign.
///
/// # Errors
///
/// Propagates hosting and unexpected shard errors; admission refusals,
/// backpressure, parking, migration refusals and typed losses are all
/// handled (and counted) by the harness.
///
/// # Panics
///
/// Panics if the configuration hosts no personalities.
pub fn run_cluster_storm(cfg: &ClusterStormConfig) -> Result<ClusterStormReport, ClusterError> {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut noise = FabricNoise::new(cfg.shards, &mut rng);
    let mut cl = Cluster::new(&cfg.cluster_config());
    let names = host_personalities(&mut cl, cfg, None)?;
    let mut traffic = Traffic::new(cfg, &mut rng, &names);
    let mut tick = 0u64;

    while traffic.unfinished() > 0 && tick < cfg.ticks + DRAIN_TICKS {
        tick += 1;
        let draining = tick > cfg.ticks;
        noise.background(&mut cl, &mut rng, cfg.fault_prob);
        // The two scheduled lifecycle events.
        if cfg.drain_tick > 0 && tick == cfg.drain_tick {
            cl.drain_shard(cfg.drain_shard)?;
        }
        if cfg.kill_tick > 0 && tick == cfg.kill_tick {
            cl.kill_shard(cfg.kill_shard)?;
        }
        traffic.before_tick(&mut cl, &mut rng, tick, draining)?;
        // Random live migration under traffic. Refusals (fenced
        // target, racing loss) are typed and leave the stream where it
        // was.
        if rng.chance(cfg.migrate_prob) {
            if let Some((gid, target)) = pick_migration(&cl, &mut rng) {
                let _ = cl.migrate(gid, target);
            }
        }
        cl.tick();
        traffic.after_tick(&mut cl)?;
    }

    let [lost_no_checkpoint, lost_incompatible, lost_no_capacity, lost_corrupt] =
        traffic.lost_by_reason;
    Ok(ClusterStormReport {
        seed: cfg.seed,
        shards: cfg.shards,
        planned: traffic.planned(),
        completed: traffic.completed,
        restarts: traffic.restarts,
        lost_no_checkpoint,
        lost_incompatible,
        lost_no_capacity,
        lost_corrupt,
        losses_unaccounted: traffic.losses_unaccounted(&cl),
        mismatches: traffic.mismatches,
        unfinished: traffic.unfinished(),
        faults_injected: noise.injected,
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
    fn tiny_cluster_storm_is_exact_and_deterministic() {
        let cfg = ClusterStormConfig {
            streams: 60,
            ticks: 80,
            drain_tick: 25,
            kill_tick: 50,
            crc_ms: vec![8],
            scrambler_m: 16,
            ..ClusterStormConfig::smoke(2008)
        };
        let a = run_cluster_storm(&cfg).unwrap();
        assert!(a.passed(), "storm must pass:\n{}", a.render());
        let b = run_cluster_storm(&cfg).unwrap();
        assert_eq!(a.render(), b.render(), "same seed, same campaign");
    }
}
