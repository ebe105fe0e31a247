//! Cluster-wide SLO/health report over the observability plane.
//!
//! Runs the two heaviest campaigns back to back — the chaos storm and
//! the crash storm — then reads everything the new observability plane
//! recorded: the causal span tables (via `obs::TraceQuery`), the
//! scoped per-shard metrics (via `obs::Rollup` over both deployments'
//! merged snapshots), and the WAL counters the cluster mirrors from
//! its journal. The output is the deployment's service-level report:
//! per-shard throughput, migration/failover/drain span percentiles in
//! simulated ticks, WAL append/replay volumes, recovery-ladder
//! residency, and the open-span leak count (which must be zero).
//!
//! Span tables are additionally audited by the standalone
//! `analyze::check_span_balance` checker — the harness-independent
//! form of the storms' own span gates.
//!
//! Prints the human-readable report to stdout and writes a flat JSON
//! summary (integers and booleans only — byte-identical across
//! same-seed runs, CI compares two with `cmp`) to `--out`. The JSON is
//! schema-self-checked before it is written: every gate key the
//! regression ratchet reads must parse back out of the document.
//!
//! Usage: `cluster_report [--smoke] [--seed N] [--out PATH]`
//!
//! Exits nonzero when either campaign fails, when a span table is
//! unbalanced, or when any span is still open at campaign end, so it
//! doubles as a CI gate.

use analyze::check_span_balance;
use cluster::{run_chaos_storm, run_crash_storm, ChaosStormConfig, CrashStormConfig};
use obs::{MetricValue, Rollup, ScopeId, TraceQuery, Tracer};
use std::fmt::Write as _;

/// Every integer key the `gate` table may read; the self-check
/// refuses to write a document any of these fail to parse back out of.
const SCHEMA_U64: &[&str] = &[
    "seed",
    "open_spans",
    "span_misuse",
    "balance_violations",
    "failovers_unrooted",
    "spans_total",
    "chaos_completed",
    "chaos_migrate_count",
    "chaos_migrate_p50",
    "chaos_migrate_p99",
    "chaos_migrate_retries",
    "chaos_failover_count",
    "chaos_failover_p50",
    "chaos_failover_p99",
    "chaos_drain_count",
    "chaos_drain_p50",
    "chaos_drain_p99",
    "chaos_upgrade_count",
    "chaos_probe_count",
    "chaos_rebalance_count",
    "crash_completed",
    "crash_crashes",
    "crash_crashed_spans",
    "crash_recover_count",
    "crash_recover_p50",
    "crash_recover_p99",
    "crash_failover_count",
    "crash_failover_p50",
    "crash_failover_p99",
    "wal_frames_appended",
    "wal_flushes",
    "wal_frames_replayed",
    "wal_hasher_frames",
    "wal_hasher_software_frames",
    "wal_hasher_ladder_runs",
    "completed_total",
    "rollup_scopes",
    "rollup_metrics",
];

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
fn breaker_rank(snap: &obs::MetricsSnapshot, shard: usize) -> i64 {
    match snap.get(&format!("cluster/shard{shard}/breaker.state")) {
        Some(MetricValue::Gauge(g)) => *g,
        _ => 0,
    }
}

fn shard_json(
    report_metrics: &obs::MetricsSnapshot,
    lines: &[cluster::storm::ShardSummary],
) -> String {
    lines
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"name\":\"{}\",\"state\":\"{}\",\"completed\":{},\"chunks\":{},\"breaker\":{}}}",
                obs::json_escape(&s.name),
                obs::json_escape(s.state),
                s.completed,
                s.chunks,
                breaker_rank(report_metrics, i),
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[allow(clippy::too_many_lines)]
fn main() {
    // The smoke campaign is currently the only shape; `--smoke` is
    // accepted so every report binary drives the same way.
    let (_, seed, out_path) = bench::report_args("cluster_report", "BENCH_scope.json");

    let chaos = match run_chaos_storm(&ChaosStormConfig::smoke(seed)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos storm failed: {e}");
            std::process::exit(1);
        }
    };
    let crash = match run_crash_storm(&CrashStormConfig::smoke(seed)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("crash storm failed: {e}");
            std::process::exit(1);
        }
    };

    // ---- span-table audits -------------------------------------------
    let chaos_balance = check_span_balance(&chaos.tracer);
    let crash_balance = check_span_balance(&crash.tracer);
    let open_spans = chaos.spans.open + crash.spans.open;
    let span_misuse = chaos.spans.misuse + crash.spans.misuse;
    let failovers_unrooted = chaos.spans.failovers_unrooted + crash.spans.failovers_unrooted;
    let balance_violations =
        (chaos_balance.violations.len() + crash_balance.violations.len()) as u64;
    let spans_total = chaos.spans.total + crash.spans.total;

    // ---- span percentiles (durations in simulated ticks) -------------
    let (mig_n, mig_p50, mig_p99, mig_retries) = span_stats(&chaos.tracer, "migrate_op");
    let (cfo_n, cfo_p50, cfo_p99, _) = span_stats(&chaos.tracer, "failover_stream");
    let (drn_n, drn_p50, drn_p99, _) = span_stats(&chaos.tracer, "drain");
    let chaos_q = TraceQuery::new(&chaos.tracer);
    let upgrade_count = chaos_q.spans().by_kind("upgrade").count() as u64;
    let probe_count = chaos_q.spans().by_kind("breaker_probe").count() as u64;
    let rebalance_count = chaos_q.spans().by_kind("rebalance").count() as u64;
    let (rec_n, rec_p50, rec_p99, _) = span_stats(&crash.tracer, "wal_recover");
    let (kfo_n, kfo_p50, kfo_p99, _) = span_stats(&crash.tracer, "failover_stream");
    let crash_q = TraceQuery::new(&crash.tracer);
    let crashed_spans = crash_q.spans().by_outcome("crashed").count() as u64;

    // ---- scoped-metric rollup across both deployments -----------------
    let mut rollup = Rollup::new();
    rollup.add(ScopeId::named("chaos"), chaos.metrics.clone());
    rollup.add(ScopeId::named("crash"), crash.metrics.clone());
    let wal_frames_appended = rollup.counter_total("cluster/cluster.wal.frames_appended");
    let wal_flushes = rollup.counter_total("cluster/cluster.wal.flushes");
    let wal_frames_replayed = rollup.counter_total("cluster/cluster.wal.frames_replayed");
    let wal_hasher_frames = rollup.counter_total("cluster/cluster.wal.hasher_frames");
    let wal_hasher_software = rollup.counter_total("cluster/cluster.wal.hasher_software_frames");
    let wal_hasher_ladder = rollup.counter_total("cluster/cluster.wal.hasher_ladder_runs");
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
    print!("{text}");

    // ---- flat JSON summary --------------------------------------------
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"bench\":\"cluster_report\",\"seed\":{seed},\
         \"open_spans\":{open_spans},\"span_misuse\":{span_misuse},\
         \"balance_violations\":{balance_violations},\
         \"failovers_unrooted\":{failovers_unrooted},\
         \"spans_total\":{spans_total},\
         \"chaos_completed\":{},\
         \"chaos_migrate_count\":{mig_n},\"chaos_migrate_p50\":{mig_p50},\
         \"chaos_migrate_p99\":{mig_p99},\"chaos_migrate_retries\":{mig_retries},\
         \"chaos_failover_count\":{cfo_n},\"chaos_failover_p50\":{cfo_p50},\
         \"chaos_failover_p99\":{cfo_p99},\
         \"chaos_drain_count\":{drn_n},\"chaos_drain_p50\":{drn_p50},\
         \"chaos_drain_p99\":{drn_p99},\
         \"chaos_upgrade_count\":{upgrade_count},\
         \"chaos_probe_count\":{probe_count},\
         \"chaos_rebalance_count\":{rebalance_count},\
         \"crash_completed\":{},\"crash_crashes\":{},\
         \"crash_crashed_spans\":{crashed_spans},\
         \"crash_recover_count\":{rec_n},\"crash_recover_p50\":{rec_p50},\
         \"crash_recover_p99\":{rec_p99},\
         \"crash_failover_count\":{kfo_n},\"crash_failover_p50\":{kfo_p50},\
         \"crash_failover_p99\":{kfo_p99},\
         \"wal_frames_appended\":{wal_frames_appended},\
         \"wal_flushes\":{wal_flushes},\
         \"wal_frames_replayed\":{wal_frames_replayed},\
         \"wal_hasher_frames\":{wal_hasher_frames},\
         \"wal_hasher_software_frames\":{wal_hasher_software},\
         \"wal_hasher_ladder_runs\":{wal_hasher_ladder},\
         \"completed_total\":{completed_total},\
         \"rollup_scopes\":{},\"rollup_metrics\":{},\
         \"chaos_shards\":[{}],\"crash_shards\":[{}],\"passed\":{passed}}}",
        chaos.completed,
        crash.completed,
        crash.crashes,
        rollup.len(),
        merged.len(),
        shard_json(&chaos.metrics, &chaos.shard_lines),
        shard_json(&crash.metrics, &crash.shard_lines),
    );
    doc.push('\n');

    for key in SCHEMA_U64 {
        if obs::json_u64(&doc, key).is_none() {
            eprintln!("schema self-check failed: key {key:?} does not parse back");
            std::process::exit(2);
        }
    }
    if !doc.contains("\"passed\":true") && !doc.contains("\"passed\":false") {
        eprintln!("schema self-check failed: no boolean \"passed\" key");
        std::process::exit(2);
    }

    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    // Path goes to stderr so same-seed stdout stays byte-identical
    // even when the runs write to different --out files.
    eprintln!("cluster_report: JSON summary -> {out_path}");
    if !passed {
        std::process::exit(1);
    }
}
