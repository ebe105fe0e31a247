//! Seeded cluster-wide storm over the sharded serving deployment.
//!
//! Drives the `cluster` crate's storm harness: hundreds of logical
//! streams over a multi-shard cluster with random live migrations, a
//! planned drain of one shard and a forced kill of another mid-run,
//! fabric faults injected on every shard, and every completed stream's
//! digest checked against the software oracle. Failover losses must be
//! *typed* — a stream the harness never hears about again is a silent
//! loss and fails the campaign.
//!
//! Prints the human-readable report to stdout and writes a flat JSON
//! summary (sorted keys, integers and booleans only — byte-identical
//! across same-seed runs, CI compares two with `cmp`) to `--out`.
//!
//! Usage: `cluster_storm [--smoke] [--seed N] [--out PATH]`
//!
//! Exits nonzero on any digest mismatch, unfinished stream, silent
//! loss, or harness error, so it doubles as a CI regression gate.

use cluster::{run_cluster_storm, ClusterStormConfig};
use std::fmt::Write as _;

fn main() {
    // The smoke campaign is currently the only shape; `--smoke` is
    // accepted so every report binary drives the same way.
    let (_, seed, out_path) = bench::report_args("cluster_storm", "BENCH_cluster.json");

    let cfg = ClusterStormConfig::smoke(seed);
    let report = match run_cluster_storm(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cluster storm failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render());

    let c = &report.counters;
    let shard_lines: Vec<String> = report
        .shard_lines
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"state\":\"{}\",\"opened\":{},\"completed\":{},\"chunks\":{}}}",
                obs::json_escape(&s.name),
                obs::json_escape(s.state),
                s.opened,
                s.completed,
                s.chunks,
            )
        })
        .collect();
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"bench\":\"cluster_storm\",\"seed\":{},\"shards\":{},\
         \"planned\":{},\"completed\":{},\"restarts\":{},\
         \"lost_no_checkpoint\":{},\"lost_incompatible\":{},\
         \"lost_no_capacity\":{},\"lost_corrupt\":{},\
         \"losses_unaccounted\":{},\"mismatches\":{},\"unfinished\":{},\
         \"faults_injected\":{},\"ticks_run\":{},\
         \"migrations\":{},\"migration_retries\":{},\"drains_started\":{},\
         \"shards_drained\":{},\"shards_down\":{},\"failovers\":{},\
         \"lost_streams\":{},\"checkpoints_stored\":{},\
         \"breaker_trips\":{},\"retry_attempts\":{},\
         \"retry_backoff_ticks\":{},\"rebalance_moves\":{},\
         \"retire_vetoes\":{},\"shards_reopened\":{},\
         \"probe_migrations\":{},\
         \"shard_lines\":[{}],\"passed\":{}}}",
        report.seed,
        report.shards,
        report.planned,
        report.completed,
        report.restarts,
        report.lost_no_checkpoint,
        report.lost_incompatible,
        report.lost_no_capacity,
        report.lost_corrupt,
        report.losses_unaccounted,
        report.mismatches,
        report.unfinished,
        report.faults_injected,
        report.ticks_run,
        c.migrations,
        c.migration_retries,
        c.drains_started,
        c.shards_drained,
        c.shards_down,
        c.failovers,
        c.lost_streams,
        c.checkpoints_stored,
        c.breaker_trips,
        c.retry_attempts,
        c.retry_backoff_ticks,
        c.rebalance_moves,
        c.retire_vetoes,
        c.shards_reopened,
        c.probe_migrations,
        shard_lines.join(","),
        report.passed(),
    );
    doc.push('\n');
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    // Path goes to stderr so same-seed stdout stays byte-identical
    // even when the runs write to different --out files.
    eprintln!("cluster_storm: JSON summary -> {out_path}");
    if !report.passed() {
        std::process::exit(1);
    }
}
