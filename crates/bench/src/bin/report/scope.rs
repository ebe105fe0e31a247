//! `BENCH_scope`: the deployment's service-level report over the chaos
//! and crash campaigns.
//!
//! Reads everything the observability plane recorded in the two runs:
//! the causal span tables (via `obs::TraceQuery`), the scoped per-shard
//! metrics (via `obs::Rollup` over both deployments' snapshots), and the
//! WAL counters the cluster mirrors from its journal. Reports per-shard
//! throughput, migration/failover/drain span percentiles in simulated
//! ticks, WAL append/replay volumes, and the open-span leak count. Span
//! tables are also audited by the standalone
//! `analyze::check_span_balance` checker — the harness-independent form
//! of the storms' own span gates.
//!
//! Fails when either campaign fails, when a span table is unbalanced,
//! or when any span is still open at campaign end.

use super::Report;
use analyze::check_span_balance;
use bench::json::{Arr, Obj};
use cluster::storm::ShardSummary;
use cluster::{ChaosStormReport, CrashStormReport};
use obs::{MetricValue, MetricsSnapshot, Rollup, ScopeId, TraceQuery, Tracer};
use std::fmt::Write as _;

/// Count, p50, p99 and total retries for all closed spans of one op.
fn span_stats(tracer: &Tracer, op: &str) -> (u64, u64, u64, u64) {
    let q = TraceQuery::new(tracer);
    let set = q.spans().by_kind(op).closed();
    (
        set.count() as u64,
        set.duration_percentile(50).unwrap_or(0),
        set.duration_percentile(99).unwrap_or(0),
        set.retries_total(),
    )
}

/// The breaker gauge the cluster publishes for `shard` inside a merged
/// snapshot (`cluster/shard{i}/breaker.state`), or 0 when absent.
fn breaker_rank(snap: &MetricsSnapshot, shard: usize) -> i64 {
    match snap.get(&format!("cluster/shard{shard}/breaker.state")) {
        Some(MetricValue::Gauge(g)) => *g,
        _ => 0,
    }
}

fn shards(metrics: &MetricsSnapshot, lines: &[ShardSummary]) -> Arr {
    lines
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Obj::new()
                .field("name", s.name.as_str())
                .field("state", s.state)
                .field("completed", s.completed)
                .field("chunks", s.chunks)
                .field("breaker", breaker_rank(metrics, i))
        })
        .collect()
}

#[allow(clippy::too_many_lines)]
pub fn report(seed: u64, chaos: &ChaosStormReport, crash: &CrashStormReport) -> Report {
    // ---- span-table audits -------------------------------------------
    let chaos_balance = check_span_balance(&chaos.tracer);
    let crash_balance = check_span_balance(&crash.tracer);
    let open_spans = chaos.spans.open + crash.spans.open;
    let span_misuse = chaos.spans.misuse + crash.spans.misuse;
    let failovers_unrooted = chaos.spans.failovers_unrooted + crash.spans.failovers_unrooted;
    let balance_violations = chaos_balance.violations.len() + crash_balance.violations.len();
    let spans_total = chaos.spans.total + crash.spans.total;

    // ---- span percentiles (durations in simulated ticks) -------------
    let (mig_n, mig_p50, mig_p99, mig_retries) = span_stats(&chaos.tracer, "migrate_op");
    let (cfo_n, cfo_p50, cfo_p99, _) = span_stats(&chaos.tracer, "failover_stream");
    let (drn_n, drn_p50, drn_p99, _) = span_stats(&chaos.tracer, "drain");
    let chaos_q = TraceQuery::new(&chaos.tracer);
    let upgrade_count = chaos_q.spans().by_kind("upgrade").count();
    let probe_count = chaos_q.spans().by_kind("breaker_probe").count();
    let rebalance_count = chaos_q.spans().by_kind("rebalance").count();
    let (rec_n, rec_p50, rec_p99, _) = span_stats(&crash.tracer, "wal_recover");
    let (kfo_n, kfo_p50, kfo_p99, _) = span_stats(&crash.tracer, "failover_stream");
    let crashed_spans = TraceQuery::new(&crash.tracer)
        .spans()
        .by_outcome("crashed")
        .count();

    // ---- scoped-metric rollup across both deployments -----------------
    let mut rollup = Rollup::new();
    rollup.add(ScopeId::named("chaos"), chaos.metrics.clone());
    rollup.add(ScopeId::named("crash"), crash.metrics.clone());
    let wal = |name: &str| rollup.counter_total(&format!("cluster/cluster.wal.{name}"));
    let wal_frames_appended = wal("frames_appended");
    let wal_flushes = wal("flushes");
    let wal_frames_replayed = wal("frames_replayed");
    let wal_hasher_frames = wal("hasher_frames");
    let wal_hasher_software = wal("hasher_software_frames");
    let wal_hasher_ladder = wal("hasher_ladder_runs");
    let completed_total = rollup.counter_total("cluster/cluster.completed");
    let merged = rollup.merged();

    let passed = chaos.passed()
        && crash.passed()
        && crash.exercised()
        && chaos_balance.balanced()
        && crash_balance.balanced()
        && open_spans == 0;

    // ---- human-readable SLO report ------------------------------------
    let mut text = String::new();
    let _ = writeln!(text, "cluster report  seed={seed}");
    let _ = writeln!(
        text,
        "spans          total={spans_total} open={open_spans} misuse={span_misuse} \
         unrooted={failovers_unrooted} balance_violations={balance_violations}"
    );
    let _ = writeln!(
        text,
        "migrations     count={mig_n} p50={mig_p50} p99={mig_p99} retries={mig_retries}"
    );
    let _ = writeln!(
        text,
        "failovers      chaos count={cfo_n} p50={cfo_p50} p99={cfo_p99} | \
         crash count={kfo_n} p50={kfo_p50} p99={kfo_p99}"
    );
    let _ = writeln!(
        text,
        "drains         count={drn_n} p50={drn_p50} p99={drn_p99}"
    );
    let _ = writeln!(
        text,
        "control        upgrades={upgrade_count} probes={probe_count} rebalances={rebalance_count} \
         crashed_spans={crashed_spans}"
    );
    let _ = writeln!(
        text,
        "wal_recover    count={rec_n} p50={rec_p50} p99={rec_p99} replays={wal_frames_replayed}"
    );
    let _ = writeln!(
        text,
        "wal            frames={wal_frames_appended} flushes={wal_flushes} \
         hasher_frames={wal_hasher_frames} software={wal_hasher_software} ladder={wal_hasher_ladder}"
    );
    let _ = writeln!(
        text,
        "throughput     completed_total={completed_total} chaos={} crash={}",
        chaos.completed, crash.completed
    );
    for (label, metrics, lines) in [
        ("chaos", &chaos.metrics, &chaos.shard_lines),
        ("crash", &crash.metrics, &crash.shard_lines),
    ] {
        for (i, s) in lines.iter().enumerate() {
            let _ = writeln!(
                text,
                "shard {label}/{:<8} state={:<8} completed={} chunks={} breaker={}",
                s.name,
                s.state,
                s.completed,
                s.chunks,
                breaker_rank(metrics, i)
            );
        }
    }
    let _ = writeln!(
        text,
        "rollup         scopes={} metrics={}",
        rollup.len(),
        merged.len()
    );
    let _ = writeln!(
        text,
        "verdict        {}",
        if passed { "PASS" } else { "FAIL" }
    );

    let doc = Obj::new()
        .field("bench", "cluster_report")
        .field("seed", seed)
        .field("open_spans", open_spans)
        .field("span_misuse", span_misuse)
        .field("balance_violations", balance_violations)
        .field("failovers_unrooted", failovers_unrooted)
        .field("spans_total", spans_total)
        .field("chaos_completed", chaos.completed)
        .field("chaos_migrate_count", mig_n)
        .field("chaos_migrate_p50", mig_p50)
        .field("chaos_migrate_p99", mig_p99)
        .field("chaos_migrate_retries", mig_retries)
        .field("chaos_failover_count", cfo_n)
        .field("chaos_failover_p50", cfo_p50)
        .field("chaos_failover_p99", cfo_p99)
        .field("chaos_drain_count", drn_n)
        .field("chaos_drain_p50", drn_p50)
        .field("chaos_drain_p99", drn_p99)
        .field("chaos_upgrade_count", upgrade_count)
        .field("chaos_probe_count", probe_count)
        .field("chaos_rebalance_count", rebalance_count)
        .field("crash_completed", crash.completed)
        .field("crash_crashes", crash.crashes)
        .field("crash_crashed_spans", crashed_spans)
        .field("crash_recover_count", rec_n)
        .field("crash_recover_p50", rec_p50)
        .field("crash_recover_p99", rec_p99)
        .field("crash_failover_count", kfo_n)
        .field("crash_failover_p50", kfo_p50)
        .field("crash_failover_p99", kfo_p99)
        .field("wal_frames_appended", wal_frames_appended)
        .field("wal_flushes", wal_flushes)
        .field("wal_frames_replayed", wal_frames_replayed)
        .field("wal_hasher_frames", wal_hasher_frames)
        .field("wal_hasher_software_frames", wal_hasher_software)
        .field("wal_hasher_ladder_runs", wal_hasher_ladder)
        .field("completed_total", completed_total)
        .field("rollup_scopes", rollup.len())
        .field("rollup_metrics", merged.len())
        .field("chaos_shards", shards(&chaos.metrics, &chaos.shard_lines))
        .field("crash_shards", shards(&crash.metrics, &crash.shard_lines))
        .field("passed", passed)
        .finish();
    Report {
        text,
        doc,
        failed: super::verdict(passed, "cluster SLO report"),
    }
}
