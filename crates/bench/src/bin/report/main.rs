//! Runs every seeded campaign once and writes the nine `BENCH_*.json`
//! reports to the working directory; each is committed under
//! `baselines/` and judged by the `gate` binary.
//!
//! | report               | campaign                                                      |
//! |----------------------|---------------------------------------------------------------|
//! | `BENCH_lint.json`    | fabric-lint sweep: every catalogue CRC × every paper M (no seed) |
//! | `BENCH_fault.json`   | fault injection: injection rate × M × recovery policy         |
//! | `BENCH_storm.json`   | stream storm: concurrent streams under faults and a load spike |
//! | `BENCH_cluster.json` | cluster storm: live migrations, a drain and a kill            |
//! | `BENCH_chaos.json`   | chaos storm: the cluster storm under an adversarial schedule  |
//! | `BENCH_crash.json`   | crash storm: chaos traffic, power losses and a hostile disk   |
//! | `BENCH_scope.json`   | SLO report over the chaos and crash runs' spans and metrics   |
//! | `BENCH_obs.json`     | per-row fabric profile of the catalogue, and the stream storm's metrics registry |
//! | `BENCH_analyze.json` | static analysis of every personality, and model checking      |
//!
//! Each campaign runs once: the chaos and crash results feed their own
//! reports and `BENCH_scope`, and the stream storm feeds `BENCH_storm`
//! and the `storm` section of `BENCH_obs`. Every document goes through
//! `bench::json` with a fixed key order and integer and boolean values
//! only, so two same-seed runs are byte-identical in stdout and in every
//! file (CI compares them with `cmp`). Before a report is written,
//! `bench::gate::check_schema` checks that it holds a boolean `passed`
//! verdict and every value the gate table reads from it.
//!
//! Usage: `report [--smoke] [--seed N]` (seed 2008 by default). Exits 1,
//! after writing every report it could, when a campaign errors or a
//! report fails its own acceptance gate, naming each on stderr; exits 2
//! on a bad argument.

mod analyze;
mod scope;

use bench::json::{json_objects, json_section, json_str, Arr, Obj, Raw};
use cluster::storm::ShardSummary;
use cluster::{
    ChaosStormConfig, ChaosStormReport, ClusterStormConfig, CrashStormConfig, CrashStormReport,
};
use obs::{HistogramSnapshot, MetricValue};
use resilience::{run_campaign, CampaignConfig, CampaignRow};
use stream::{StormConfig, StormReport};

/// One report: what it prints, its document, and why it failed its own
/// acceptance gate, if it did.
pub struct Report {
    text: String,
    doc: String,
    failed: Option<String>,
}

fn main() {
    let (smoke, seed) = bench::parse_report_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let mut failures = 0usize;
    let mut emit = |stem: &str, report: Result<Report, String>| {
        let why = report.and_then(|r| {
            print!("{}", r.text);
            bench::gate::check_schema(stem, &r.doc)
                .map_err(|e| format!("schema check failed: {e}"))?;
            std::fs::write(format!("{stem}.json"), &r.doc)
                .map_err(|e| format!("cannot write {stem}.json: {e}"))?;
            r.failed.map_or(Ok(()), Err)
        });
        if let Err(why) = why {
            eprintln!("{stem}: {why}");
            failures += 1;
        }
    };

    emit("BENCH_lint", Ok(lint()));
    emit("BENCH_fault", fault(smoke, seed));
    let storm = stream::run_storm(&if smoke {
        StormConfig::smoke(seed)
    } else {
        StormConfig::full(seed)
    })
    .map_err(|e| format!("stream storm failed: {e}"));
    emit(
        "BENCH_storm",
        storm
            .as_ref()
            .map(|r| storm_report(r, smoke))
            .map_err(String::clone),
    );
    emit("BENCH_cluster", cluster_storm_report(seed));
    let chaos = cluster::run_chaos_storm(&ChaosStormConfig::smoke(seed))
        .map_err(|e| format!("chaos storm failed: {e}"));
    emit(
        "BENCH_chaos",
        chaos.as_ref().map(chaos_report).map_err(String::clone),
    );
    let crash = cluster::run_crash_storm(&CrashStormConfig::smoke(seed))
        .map_err(|e| format!("crash storm failed: {e}"));
    emit(
        "BENCH_crash",
        crash.as_ref().map(crash_report).map_err(String::clone),
    );
    emit(
        "BENCH_scope",
        match (&chaos, &crash) {
            (Ok(chaos), Ok(crash)) => Ok(scope::report(seed, chaos, crash)),
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
        },
    );
    emit("BENCH_obs", storm.and_then(|r| obs_report(&r, smoke, seed)));
    emit("BENCH_analyze", analyze::report(smoke, seed));

    if failures > 0 {
        eprintln!("report: {failures} report(s) failed");
        std::process::exit(1);
    }
}

/// The documents' `mode` value.
fn mode(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// The verdict line of a campaign's own acceptance gate.
fn verdict(passed: bool, what: &str) -> Option<String> {
    (!passed).then(|| format!("{what} failed its own acceptance gate"))
}

/// The fabric-lint sweep; any Error-severity finding fails it.
fn lint() -> Report {
    let (text, s) = bench::lint_report();
    let doc = Obj::new()
        .field("bench", "lint_report")
        .field("mapped", s.mapped)
        .field("skipped", s.skipped)
        .field("errors", s.errors)
        .field("warnings", s.warnings)
        .field("passed", s.errors == 0)
        .finish();
    let failed = (s.errors > 0).then(|| format!("{} fabric-lint error(s)", s.errors));
    Report { text, doc, failed }
}

/// The fault-injection campaign. Coverage is carried as basis points in
/// integer arithmetic so the document is exactly reproducible; the
/// standard policy must detect 99% of semantics-changing faults and DMR
/// must deliver no wrong answer.
fn fault(smoke: bool, seed: u64) -> Result<Report, String> {
    let cfg = if smoke {
        CampaignConfig::smoke(seed)
    } else {
        CampaignConfig::default_sweep(seed)
    };
    let report = run_campaign(&cfg).map_err(|e| format!("campaign failed: {e}"))?;
    let coverage = report.coverage_for("standard");
    let dmr_wrong = report.wrong_answers_for("dmr");
    let failed = if coverage < 0.99 {
        Some(format!(
            "standard-policy detection coverage {:.1}% < 99%",
            100.0 * coverage
        ))
    } else {
        (dmr_wrong > 0).then(|| format!("DMR delivered {dmr_wrong} wrong answer(s)"))
    };

    let rows = |policy: Option<&str>, f: fn(&CampaignRow) -> u64| -> u64 {
        let of_policy = |r: &&CampaignRow| policy.is_none_or(|p| r.policy == p);
        report.rows.iter().filter(of_policy).map(f).sum()
    };
    let (std_sem, std_det) = (
        rows(Some("standard"), |r| r.semantic as u64),
        rows(Some("standard"), |r| r.detected as u64),
    );
    let doc = Obj::new()
        .field("bench", "fault_campaign")
        .field("seed", report.seed)
        .field("cells", report.rows.len())
        .field("trials", rows(None, |r| r.trials as u64))
        .field("faulted", rows(None, |r| r.faulted as u64))
        .field("semantic", rows(None, |r| r.semantic as u64))
        .field("detected", rows(None, |r| r.detected as u64))
        .field("sdc_trials", rows(None, |r| r.sdc_trials as u64))
        .field("wrong_answers", rows(None, |r| r.wrong_answers))
        .field("fallbacks", rows(None, |r| r.fallbacks as u64))
        .field("healed", rows(None, |r| r.healed as u64))
        .field("semantic_standard", std_sem)
        .field("detected_standard", std_det)
        .field(
            "coverage_bp_standard",
            (std_det * 10_000).checked_div(std_sem).unwrap_or(10_000),
        )
        .field("wrong_answers_dmr", dmr_wrong)
        .field("passed", failed.is_none())
        .finish();
    Ok(Report {
        text: report.render(),
        doc,
        failed,
    })
}

/// The stream storm: every digest exact, every planned stream complete,
/// and the p99 queue depth within its bound.
fn storm_report(r: &StormReport, smoke: bool) -> Report {
    let c = &r.counters;
    let doc = Obj::new()
        .field("bench", "stream_storm")
        .field("seed", r.seed)
        .field("mode", mode(smoke))
        .field("planned", r.planned)
        .field("completed", r.completed)
        .field("shed", r.shed)
        .field("unfinished", r.unfinished)
        .field("mismatches", r.mismatches)
        .field("faults_injected", r.faults_injected)
        .field("ticks_run", r.ticks_run)
        .field("p99_queue_depth", r.p99_queue_depth)
        .field("max_queue_depth", r.max_queue_depth)
        .field("opened", c.opened)
        .field("parked_fault", c.parked_fault)
        .field("parked_idle", c.parked_idle)
        .field("resumed", c.resumed)
        .field("checkpoints", c.checkpoints)
        .field("restores", c.restores)
        .field("fault_rollbacks", c.fault_rollbacks)
        .field("degraded_low_priority", c.degraded_low_priority)
        .field("passed", r.passed())
        .finish();
    Report {
        text: r.render(),
        doc,
        failed: verdict(r.passed(), "stream storm"),
    }
}

/// The per-shard lines of a cluster campaign.
fn shard_lines(lines: &[ShardSummary]) -> Arr {
    lines
        .iter()
        .map(|s| {
            Obj::new()
                .field("name", s.name.as_str())
                .field("state", s.state)
                .field("opened", s.opened)
                .field("completed", s.completed)
                .field("chunks", s.chunks)
        })
        .collect()
}

/// The cluster storm: no digest mismatch, unfinished stream or silent
/// loss.
fn cluster_storm_report(seed: u64) -> Result<Report, String> {
    let r = cluster::run_cluster_storm(&ClusterStormConfig::smoke(seed))
        .map_err(|e| format!("cluster storm failed: {e}"))?;
    let c = &r.counters;
    let doc = Obj::new()
        .field("bench", "cluster_storm")
        .field("seed", r.seed)
        .field("shards", r.shards)
        .field("planned", r.planned)
        .field("completed", r.completed)
        .field("restarts", r.restarts)
        .field("lost_no_checkpoint", r.lost_no_checkpoint)
        .field("lost_incompatible", r.lost_incompatible)
        .field("lost_no_capacity", r.lost_no_capacity)
        .field("lost_corrupt", r.lost_corrupt)
        .field("losses_unaccounted", r.losses_unaccounted)
        .field("mismatches", r.mismatches)
        .field("unfinished", r.unfinished)
        .field("faults_injected", r.faults_injected)
        .field("ticks_run", r.ticks_run)
        .field("migrations", c.migrations)
        .field("migration_retries", c.migration_retries)
        .field("drains_started", c.drains_started)
        .field("shards_drained", c.shards_drained)
        .field("shards_down", c.shards_down)
        .field("failovers", c.failovers)
        .field("lost_streams", c.lost_streams)
        .field("checkpoints_stored", c.checkpoints_stored)
        .field("breaker_trips", c.breaker_trips)
        .field("retry_attempts", c.retry_attempts)
        .field("retry_backoff_ticks", c.retry_backoff_ticks)
        .field("rebalance_moves", c.rebalance_moves)
        .field("retire_vetoes", c.retire_vetoes)
        .field("shards_reopened", c.shards_reopened)
        .field("probe_migrations", c.probe_migrations)
        .field("shard_lines", shard_lines(&r.shard_lines))
        .field("passed", r.passed())
        .finish();
    Ok(Report {
        text: r.render(),
        doc,
        failed: verdict(r.passed(), "cluster storm"),
    })
}

/// The chaos storm: no digest mismatch, unaccounted loss, unfinished
/// stream or double-applied duplicate.
fn chaos_report(r: &ChaosStormReport) -> Report {
    let (c, x) = (&r.counters, &r.chaos);
    let doc = Obj::new()
        .field("bench", "chaos_storm")
        .field("seed", r.seed)
        .field("shards", r.shards)
        .field("planned", r.planned)
        .field("completed", r.completed)
        .field("restarts", r.restarts)
        .field("mismatches", r.mismatches)
        .field("losses_unaccounted", r.losses_unaccounted)
        .field("unfinished", r.unfinished)
        .field("dup_violations", r.dup_violations)
        .field("dups_suppressed", r.dups_suppressed)
        .field("slowdowns", x.slowdowns)
        .field("transfers_corrupted", x.transfers_corrupted)
        .field("transfers_truncated", x.transfers_truncated)
        .field("byzantine_lies", x.byzantine_lies)
        .field("fault_flaps", x.fault_flaps)
        .field("admission_storms", x.admission_storms)
        .field("faults_injected", r.faults_injected)
        .field("upgraded", r.upgraded)
        .field("upgrade_skipped", r.upgrade_skipped)
        .field("ticks_run", r.ticks_run)
        .field("migrations", c.migrations)
        .field("migration_retries", c.migration_retries)
        .field("failovers", c.failovers)
        .field("lost_streams", c.lost_streams)
        .field("checkpoints_stored", c.checkpoints_stored)
        .field("breaker_trips", c.breaker_trips)
        .field("retry_attempts", c.retry_attempts)
        .field("retry_backoff_ticks", c.retry_backoff_ticks)
        .field("rebalance_moves", c.rebalance_moves)
        .field("retire_vetoes", c.retire_vetoes)
        .field("shards_reopened", c.shards_reopened)
        .field("probe_migrations", c.probe_migrations)
        .field("shard_lines", shard_lines(&r.shard_lines))
        .field("passed", r.passed())
        .finish();
    Report {
        text: r.render(),
        doc,
        failed: verdict(r.passed(), "chaos storm"),
    }
}

/// The crash storm: the chaos storm's gates, plus every crash, storage
/// fault and hasher-ladder path exercised.
fn crash_report(r: &CrashStormReport) -> Report {
    let (c, x) = (&r.counters, &r.chaos);
    let doc = Obj::new()
        .field("bench", "crash_storm")
        .field("seed", r.seed)
        .field("shards", r.shards)
        .field("planned", r.planned)
        .field("completed", r.completed)
        .field("restarts", r.restarts)
        .field("mismatches", r.mismatches)
        .field("losses_unaccounted", r.losses_unaccounted)
        .field("unfinished", r.unfinished)
        .field("dup_violations", r.dup_violations)
        .field("dups_suppressed", r.dups_suppressed)
        .field("crashes", r.crashes)
        .field("recoveries", r.recoveries)
        .field("torn_tails", r.torn_tails)
        .field("bit_rots", r.bit_rots)
        .field("dup_appends", r.dup_appends)
        .field("torn_detected", r.torn_detected)
        .field("corrupt_detected", r.corrupt_detected)
        .field("dup_frames_detected", r.dup_frames_detected)
        .field("frames_replayed", r.frames_replayed)
        .field("streams_restored", r.streams_restored)
        .field("streams_lost", r.streams_lost)
        .field("tokens_restored", r.tokens_restored)
        .field("migrations_committed", r.migrations_committed)
        .field("migrations_aborted", r.migrations_aborted)
        .field("in_doubt_suppressed", r.in_doubt_suppressed)
        .field("in_doubt_reapplied", r.in_doubt_reapplied)
        .field("in_doubt_void", r.in_doubt_void)
        .field("hasher_frames", r.hasher_frames)
        .field("hasher_software_frames", r.hasher_software_frames)
        .field("hasher_ladder_runs", r.hasher_ladder_runs)
        .field("storage_torn_tails", x.storage_torn_tails)
        .field("storage_bit_rots", x.storage_bit_rots)
        .field("storage_lost_suffixes", x.storage_lost_suffixes)
        .field("storage_dup_appends", x.storage_dup_appends)
        .field("faults_injected", r.faults_injected)
        .field("ticks_run", r.ticks_run)
        .field("migrations", c.migrations)
        .field("failovers", c.failovers)
        .field("lost_streams", c.lost_streams)
        .field("checkpoints_stored", c.checkpoints_stored)
        .field("shard_lines", shard_lines(&r.shard_lines))
        .field("exercised", r.exercised())
        .field("passed", r.passed())
        .finish();
    Report {
        text: r.render(),
        doc,
        failed: verdict(r.passed() && r.exercised(), "crash storm"),
    }
}

/// A histogram's count, sum, extremes and percentiles as an object.
fn histogram(h: &HistogramSnapshot) -> Obj {
    Obj::new()
        .field("count", h.count)
        .field("sum", h.sum)
        .field("min", h.min)
        .field("max", h.max)
        .field("p50", h.p50)
        .field("p90", h.p90)
        .field("p99", h.p99)
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn rounded_bps(bps: f64) -> u64 {
    if bps.is_finite() && bps > 0.0 {
        bps.round() as u64
    } else {
        0
    }
}

/// Every catalogue CRC at M ∈ {8, 32, 128}, each checksum run on its
/// own DREAM app: throughput, per-row fabric occupancy from the `obs`
/// profiler, fill/drain stalls and per-personality lane usage. Returns
/// the mapped points and the unmappable ones.
fn catalogue_profile() -> (Vec<Obj>, Vec<Obj>) {
    let data = bench::message(128, 0x0B5); // 1024 bits: a multiple of every M
    let (mut entries, mut skipped) = (Vec::new(), Vec::new());
    for spec in lfsr::crc::CATALOG {
        for m in [8usize, 32, 128] {
            let opts = dream_lfsr::FlowOptions::dream_with_m(m);
            let Ok((mut app, _)) = dream_lfsr::build_crc_app(spec, &opts) else {
                skipped.push(Obj::new().field("spec", spec.name).field("m", m));
                continue;
            };
            let (_, report) = app.checksum(&data);
            let stats = app.update_stats();
            let hub = app.fabric().obs();
            let total = hub.now_cycles();
            let prof = &hub.profiler;
            let lanes = prof.lanes().iter().fold(Obj::new(), |o, (name, u)| {
                let usage = Obj::new()
                    .field("busy_cycles", u.busy_cycles)
                    .field("issues", u.issues)
                    .field("blocks", u.blocks);
                o.field(name, usage)
            });
            entries.push(
                Obj::new()
                    .field("spec", spec.name)
                    .field("m", m)
                    .field("rows", stats.rows)
                    .field("cells", stats.cells)
                    .field("fabric_cycles", total)
                    .field("total_cycles", report.total_cycles())
                    .field(
                        "throughput_bps",
                        rounded_bps(report.throughput_bps(bench::CLOCK_HZ)),
                    )
                    .field("fill_drain_stalls", prof.fill_drain_stalls())
                    .field(
                        "row_occupancy_pct",
                        prof.occupancy_pct(total).into_iter().collect::<Arr>(),
                    )
                    .field("lanes", lanes),
            );
        }
    }
    (entries, skipped)
}

/// The unified observability report: the catalogue's fabric profile and
/// the stream storm's whole metrics registry (recovery-latency and
/// queue-depth histograms, every decision counter, the trace length).
/// Every metric the storm stack registered must appear in the document.
fn obs_report(storm: &StormReport, smoke: bool, seed: u64) -> Result<Report, String> {
    let (entries, skipped) = catalogue_profile();
    let (mapped, unmappable) = (entries.len(), skipped.len());
    let histogram_of = |name| match storm.metrics.get(name) {
        Some(MetricValue::Histogram(h)) => *h,
        _ => HistogramSnapshot::default(),
    };
    let recovery = histogram_of("resilience.recovery_cycles");
    let queue_depth = histogram_of("service.queue_depth");
    let metric_lines = storm.metrics.to_json_lines();
    let storm_section = Obj::new()
        .field("planned", storm.planned)
        .field("completed", storm.completed)
        .field("unfinished", storm.unfinished)
        .field("mismatches", storm.mismatches)
        .field("faults_injected", storm.faults_injected)
        .field("ticks_run", storm.ticks_run)
        .field("passed", storm.passed())
        .field("trace_lines", storm.trace_log.lines().count())
        .field("recovery_cycles", histogram(&recovery))
        .field("queue_depth", histogram(&queue_depth))
        .field("metrics", metric_lines.lines().map(Raw).collect::<Arr>());
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let doc = Obj::new()
        .field("bench", "obs_report")
        .field("seed", seed)
        .field("mode", mode(smoke))
        .field("clock_hz", bench::CLOCK_HZ as u64)
        .field("catalogue", entries.into_iter().collect::<Arr>())
        .field("unmappable", skipped.into_iter().collect::<Arr>())
        .field("storm", storm_section)
        .finish();

    let exported: Vec<String> = json_section(&doc, "storm")
        .and_then(|s| json_section(s, "metrics"))
        .map(json_objects)
        .unwrap_or_default()
        .into_iter()
        .filter_map(|m| json_str(m, "name"))
        .collect();
    let missing: Vec<&String> = storm
        .metric_names
        .iter()
        .filter(|name| !exported.contains(name))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "schema check failed: {} registered metric(s) missing from the report: {missing:?}",
            missing.len()
        ));
    }

    let text = format!(
        "obs_report: {mapped} catalogue points ({unmappable} unmappable) + storm seed={seed} \
         -> BENCH_obs.json\n\
         storm: completed={} mismatches={} recoveries(count={} p50={} p99={} max={}) \
         queue_depth(p50={} p99={} max={}) metrics={}\n",
        storm.completed,
        storm.mismatches,
        recovery.count,
        recovery.p50,
        recovery.p99,
        recovery.max,
        queue_depth.p50,
        queue_depth.p99,
        queue_depth.max,
        storm.metric_names.len(),
    );
    Ok(Report {
        text,
        doc,
        failed: verdict(storm.passed(), "storm pass"),
    })
}
